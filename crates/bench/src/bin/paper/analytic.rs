//! The entries computed from the network descriptors and the accelerator
//! models: nothing is trained, each runs in milliseconds.

use bconv_accel::baseline::{run_baseline, TileConfig};
use bconv_accel::dse::{explore_vgg16, feasible, pareto_front};
use bconv_accel::fusion::{table6_configs, vgg16_shapes, QIU_PUBLISHED_BRAM18};
use bconv_accel::platform::{ultra96, zc706, EnergyModel};
use bconv_accel::report::{table7_paper_ours, table7_published_rows};
use bconv_accel::vdsr_accel::{evaluate_baseline, evaluate_blockconv, VdsrConfig};
use bconv_models::analysis::{feature_map_series, fusion_depth};
use bconv_models::mobilenet::mobilenet_v1;
use bconv_models::resnet::{resnet18, resnet50};
use bconv_models::{vdsr::vdsr, vgg::vgg16};
use bconv_tensor::error::TensorError;

use crate::table::{header, Table};

/// Figure 1: per-layer feature-map volumes of VGG-16 (224²) and VDSR
/// (256²) at 16-bit activations, against the ZC706 and Ultra96 BRAM
/// capacities.
pub fn fig1() -> Result<(), TensorError> {
    let zc = zc706();
    let u96 = ultra96();
    println!("Figure 1: volume of intermediate feature maps (16-bit activations)");
    println!(
        "On-chip BRAM: {} = {:.2} Mbits, {} = {:.2} Mbits",
        zc.name,
        zc.bram_mbits(),
        u96.name,
        u96.bram_mbits()
    );
    for net in [vgg16(224), vdsr(256, 256)] {
        header(&format!("{} output feature maps (Mbits)", net.name));
        let t = Table::new(12, &["Mbits"]);
        t.rule();
        let mut total = 0.0;
        for p in feature_map_series(&net, 16)? {
            let over = if p.mbits > zc.bram_mbits() { " > ZC706" } else { "" };
            t.row(&p.name, [format!("{:.2}{over}", p.mbits)]);
            total += p.mbits;
        }
        t.rule();
        t.row("total", [format!("{total:.2}")]);
    }
    Ok(())
}

/// Figure 9: per-layer feature-map sizes (Mbits) of MobileNet-V1,
/// ResNet-18 and ResNet-50 at 224² input, marking the first layer of each
/// residual block (the layers that need an extra on-chip input copy,
/// §III-A).
pub fn fig9() -> Result<(), TensorError> {
    let budget = ultra96().bram_mbits();
    println!("Figure 9: feature map size per conv layer (16-bit), ZU3EG budget {budget:.1} Mbits");
    for net in [mobilenet_v1(224, false), resnet18(224, false), resnet50(224, false)] {
        header(&net.name);
        let t = Table::new(24, &["Mbits"]);
        t.rule();
        let series = feature_map_series(&net, 16)?;
        for p in &series {
            let mark = if p.residual_first { " *residual-first" } else { "" };
            t.row(&p.name, [format!("{:.2}{mark}", p.mbits)]);
        }
        match fusion_depth(&net, 16, budget)? {
            Some(d) => println!(
                "fusion depth for {budget:.1} Mbits budget: fuse first {} layers ({})",
                d + 1,
                series[d].name
            ),
            None => println!("no fusion depth fits {budget:.1} Mbits"),
        }
    }
    Ok(())
}

/// Figure 12: design-space exploration of VGG-16 fusion configurations —
/// inference latency vs BRAM consumption for (a) 16-bit / 2 PEs and
/// (b) 8-bit / 4 PEs, with the ZC706 capacity line.
pub fn fig12() -> Result<(), TensorError> {
    let shapes = vgg16_shapes();
    let platform = zc706();
    println!("Figure 12: DSE — latency vs BRAM (ZC706 line at {} BRAM18)", platform.bram18_blocks);
    for (panel, bits, npe) in [("(a)", 16usize, 2usize), ("(b)", 8, 4)] {
        header(&format!("panel {panel}: {bits}-bit, {npe} PEs"));
        let points = explore_vgg16(&shapes, &platform, bits, npe);
        let feas = feasible(&points, &platform);
        println!("{} design points, {} feasible (left of the BRAM line)", points.len(), feas.len());
        println!("Pareto front (BRAM18, latency ms, GOP/s):");
        let mut front = pareto_front(&points);
        front.sort_by_key(|p| p.eval.bram18);
        for p in front {
            let mark = if p.eval.bram18 <= platform.bram18_blocks { "" } else { "  [infeasible]" };
            println!(
                "  {:>5} BRAM  {:>7.1} ms  {:>7.1} GOP/s{mark}",
                p.eval.bram18,
                p.eval.latency_ms(&platform),
                p.eval.gops(&platform)
            );
        }
        // Named Table VI points on this panel.
        for d in table6_configs().iter().filter(|d| d.bits == bits && d.npe == npe) {
            let e = d.evaluate(&shapes, &platform);
            println!(
                "  point {}: {:>5} BRAM  {:>7.1} ms  {:>7.1} GOP/s",
                d.name,
                e.bram18,
                e.latency_ms(&platform),
                e.gops(&platform)
            );
        }
    }
    Ok(())
}

/// Figure 13: the variant designs A–G against the off-chip baseline —
/// BRAM consumption and theoretical vs real performance. The paper's
/// claims: ~10% BRAM increase over the baseline despite keeping all
/// intermediate data on-chip, real performance above the baseline, and a
/// theoretical-vs-real gap caused by filter-transfer CPU interrupts.
pub fn fig13() -> Result<(), TensorError> {
    let shapes = vgg16_shapes();
    let platform = zc706();
    println!("Figure 13: resource utilisation and performance vs the baseline");
    let heads = ["BRAM18", "latency ms", "real GOP/s", "theo GOP/s", "feat Mbits"];
    let t = Table::headed("design", 10, &heads);

    // Baseline: Qiu-style accelerator, 16-bit, 2 PEs, 14x14 tiles,
    // intermediate maps through DRAM.
    let tile = TileConfig { tr: 14, tc: 14, tm: 64, tn: 64, npe: 2 };
    let base = run_baseline(&shapes, &tile, &platform, 16);
    // The baseline row uses the published implementation's utilisation
    // (Qiu et al. report 486/545 BRAM36); our tile-level analytic model
    // covers only the data/filter buffers.
    let base_bram = QIU_PUBLISHED_BRAM18;
    let row = |name: &str, bram: usize, ms: f64, gops: f64, theo: String, traffic_bits: u64| {
        let mbits = traffic_bits as f64 / 1e6;
        let cells = [format!("{ms:.1}"), format!("{gops:.1}"), theo, format!("{mbits:.1}")];
        t.row(name, [bram.to_string()].into_iter().chain(cells));
    };
    let (ms, gops) = (base.latency_ms(&platform), base.gops(&platform));
    row("baseline", base_bram, ms, gops, "-".into(), base.feature_traffic_bits);
    let designs = table6_configs();
    for d in &designs {
        let e = d.evaluate(&shapes, &platform);
        let theo = format!("{:.1}", e.theoretical_gops(&platform));
        let (ms, gops) = (e.latency_ms(&platform), e.gops(&platform));
        row(&d.name, e.bram18, ms, gops, theo, e.feature_traffic_bits);
    }
    t.rule();
    let a = designs[0].evaluate(&shapes, &platform);
    println!(
        "BRAM increase of A over baseline: {:+.1}%  (paper: ~10%)",
        100.0 * (a.bram18 as f64 / base_bram as f64 - 1.0)
    );
    Ok(())
}

/// Table VI: fused-layer configurations A–G for VGG-16 — grouping styles
/// and per-layer blocking sizes `[Tr, Tc]` — with their simulated BRAM and
/// latency.
pub fn table6() -> Result<(), TensorError> {
    let shapes = vgg16_shapes();
    let platform = zc706();
    let configs = table6_configs();
    let evals: Vec<_> = configs.iter().map(|d| d.evaluate(&shapes, &platform)).collect();
    let layer_names = [
        "conv1-1", "conv1-2", "conv2-1", "conv2-2", "conv3-1", "conv3-2", "conv3-3", "conv4-1",
        "conv4-2", "conv4-3", "conv5-1", "conv5-2", "conv5-3",
    ];

    println!("Table VI: fused-layer configurations of VGG-16");
    let names: Vec<&str> = configs.iter().map(|d| d.name.as_str()).collect();
    let t = Table::new(10, &names);
    t.row("", &names);
    t.row(
        "groups",
        configs
            .iter()
            .map(|d| d.group_sizes.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(",")),
    );
    t.rule();
    for (li, name) in layer_names.iter().enumerate() {
        t.row(name, configs.iter().map(|d| format!("[{},{}]", d.tiles[li].0, d.tiles[li].1)));
    }
    t.rule();
    t.row("bits/PEs", configs.iter().map(|d| format!("{}b/{}PE", d.bits, d.npe)));
    let mut bram: Vec<String> = evals.iter().map(|e| e.bram18.to_string()).collect();
    if let Some(last) = bram.last_mut() {
        *last = format!("{last}   (capacity {})", platform.bram18_blocks);
    }
    t.row("BRAM18", bram);
    t.row("ms/image", evals.iter().map(|e| format!("{:.1}", e.latency_ms(&platform))));
    t.row("GOP/s", evals.iter().map(|e| format!("{:.1}", e.gops(&platform))));
    Ok(())
}

/// Table VII: comparison with published VGG-16 FPGA accelerators. The
/// literature rows are the paper's printed values; the "Ours" rows show
/// both the paper's reported numbers and our simulator's reproduction of
/// design G.
pub fn table7() -> Result<(), TensorError> {
    let shapes = vgg16_shapes();
    let platform = zc706();
    println!("Table VII: VGG-16 accelerator comparison");
    // Three text columns make up the row label; the cells are numeric.
    let label = |work: &str, platform: &str, precision: &str| {
        format!("{work:<22} {platform:<18} {precision:<12}")
    };
    let heads = ["MHz", "BRAMs", "DSPs", "GOP/s", "ms/image", "interm.xfer"];
    let t = Table::headed(&label("work", "platform", "precision"), 54, &heads);
    for r in table7_published_rows().into_iter().chain([table7_paper_ours()]) {
        t.row(
            &label(r.work, r.platform, r.precision),
            [
                r.freq_mhz.to_string(),
                r.brams.to_string(),
                r.dsps.to_string(),
                format!("{:.2}", r.gops),
                format!("{:.2}", r.latency_ms),
                if r.intermediate_transfer { "yes" } else { "NO" }.to_string(),
            ],
        );
    }
    // Our simulated reproduction: design G (8-bit, 4 PE on ZC706).
    let g = &table6_configs()[6];
    let e = g.evaluate(&shapes, &platform);
    t.row(
        &label("Ours (simulated G)", platform.name, &format!("{}b fixed", g.bits)),
        [
            (platform.freq_mhz as u32).to_string(),
            format!("{} used", e.bram18),
            platform.dsp.to_string(),
            format!("{:.2}", e.gops(&platform)),
            format!("{:.2}", e.latency_ms(&platform)),
            "NO".to_string(),
        ],
    );
    t.rule();
    println!(
        "feature-map off-chip traffic of simulated G: {:.1} Mbits (input + output only)",
        e.feature_traffic_bits as f64 / 1e6
    );
    Ok(())
}

/// Tables VIII and IX: the VDSR architecture, and the VDSR accelerator's
/// resource utilisation and off-chip feature-map transfer size — baseline
/// vs block-convolution variant on the Ultra96.
pub fn table9() -> Result<(), TensorError> {
    header("Table VIII: VDSR architecture (1080x1920 input)");
    let info = vdsr(1080, 1920).trace()?;
    println!("{}", "-".repeat(64));
    for l in info.iter().filter(|l| l.is_conv) {
        println!(
            "{:<10} 3x3x{}x{}   input {}x{}x{}",
            l.name, l.in_shape.c, l.out_shape.c, l.in_shape.h, l.in_shape.w, l.in_shape.c
        );
    }
    println!("eltwise-sum with the network input");

    let cfg = VdsrConfig::paper();
    let platform = ultra96();
    let base = evaluate_baseline(&cfg, &platform);
    let bconv = evaluate_blockconv(&cfg, &platform);

    header("Table IX: VDSR accelerator on Ultra96 (8-bit act / 4-bit wt, 27x48 tiles)");
    let t = Table::headed("variant", 18, &["BRAM18", "LUT", "FF", "DSP", "transfer Mbits"]);
    for (name, e) in [("baseline", &base), ("baseline+BConv", &bconv)] {
        t.row(
            name,
            [
                format!("{}/{}", e.bram18, platform.bram18_blocks),
                e.lut.to_string(),
                e.ff.to_string(),
                format!("{}/{}", e.dsp, platform.dsp),
                format!("{:.2}", e.transfer_mbits()),
            ],
        );
    }
    t.rule();
    println!(
        "transfer reduction: {:.3}%  (paper: 36481.64 -> 31.64 Mbits, >99.9%)",
        100.0 * (1.0 - bconv.transfer_bits as f64 / base.transfer_bits as f64)
    );
    let energy = EnergyModel::default();
    println!(
        "DRAM energy for feature maps: baseline {:.1} mJ -> BConv {:.3} mJ per image",
        base.dram_energy_mj(&energy),
        bconv.dram_energy_mj(&energy)
    );
    println!(
        "DRAM transfer cycles: baseline {} -> BConv {} (compute {} cycles)",
        base.dram_cycles, bconv.dram_cycles, base.compute_cycles
    );
    Ok(())
}
