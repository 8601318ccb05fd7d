//! Quantized-deployment benchmark: float vs quantized execution at the
//! paper's bitwidths (16/8-bit for the VGG-16 accelerator, 8-bit
//! activations × 4-bit weights for VDSR, §III-C / Figure 7), on the direct
//! (unblocked, dense per layer) and blocked-fused schedules.
//!
//! Writes `BENCH_quant.json` with one entry per (network, precision,
//! schedule): median latency, relative error against the **float run of
//! the same schedule** (so the metric isolates quantization error from the
//! block-boundary perturbation the paper recovers by fine-tuning),
//! off-chip feature-map traffic in elements *and in bits at the activation
//! width* — the paper's memory metric, which shrinks with bitwidth even
//! when the element count is schedule-invariant — and the resolved conv
//! kernel(s) the session compiled ("direct", "im2col-gemm", or a `+`-joined
//! set when layers split). A derived `blocked_over_direct` list records,
//! per (network, precision), the blocked schedule's `min_us` over the
//! direct schedule's — the compute price of the paper's low-traffic
//! schedule, which `bench_check` keeps from creeping back up. (The float
//! pair joined in PR 16, when unfused float convs stopped running the
//! naive direct loop: both of its rows now run the session's kernel, so
//! the ratio compares schedules.)
//!
//! Latency note: quantized convolutions run the integer fast paths
//! wherever the session's kernel policy resolves to them — the exact-f32
//! sweeps for 3×3 layers, i16 patch matrices against weight
//! rows packed once at build time otherwise, widening to i32 (i64 only
//! where the conservative overflow guard demands it) — so quantized
//! `median_us` competes directly with the float GEMM rather than
//! modelling arithmetic at scalar-simulation speed.
//!
//! Timing protocol: within each network, reps are **interleaved**
//! round-robin across the configs rather than timed config-by-config.
//! Sustained AVX-512 work drops the core's frequency license, so in a
//! sequential protocol whichever config runs later measures on a slower
//! clock — on this harness that skew exceeds the float-vs-quantized gap
//! being measured. Round-robin gives every config the same thermal mix
//! of neighbours.
//!
//! Usage: `bench_quant [--quick] [--out PATH]`

use bconv_bench::BenchRun;
use bconv_core::plan::NetworkPlan;
use bconv_graph::json::Json;
use bconv_graph::{Backend, PlanSpec, Session};
use bconv_models::layer::LayerKind;
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{Tensor, TensorError};

/// One (precision, schedule) configuration. `bits: None` is float.
struct Config {
    name: &'static str,
    bits: Option<(u8, u8)>, // (weight_bits, act_bits)
    blocked: bool,
}

struct Measurement {
    network: &'static str,
    name: &'static str,
    weight_bits: u8, // 32 = float
    act_bits: u8,
    blocked: bool,
    kernel: String,
    median_us: f64,
    min_us: f64,
    rel_err_vs_float_same_schedule: f64,
    offchip_elems: usize,
    offchip_bits: u64,
}

const CONFIGS: [Config; 8] = [
    Config { name: "float_direct", bits: None, blocked: false },
    Config { name: "float_blocked", bits: None, blocked: true },
    Config { name: "w8a16_direct", bits: Some((8, 16)), blocked: false },
    Config { name: "w8a16_blocked", bits: Some((8, 16)), blocked: true },
    Config { name: "w8a8_direct", bits: Some((8, 8)), blocked: false },
    Config { name: "w8a8_blocked", bits: Some((8, 8)), blocked: true },
    Config { name: "w4a8_direct", bits: Some((4, 8)), blocked: false },
    Config { name: "w4a8_blocked", bits: Some((4, 8)), blocked: true },
];

fn conv_count(net: &Network) -> usize {
    net.layers.iter().filter(|l| matches!(l.kind, LayerKind::Conv { .. })).count()
}

fn build(net: &Network, cfg: &Config) -> Result<Session, TensorError> {
    let backend = match cfg.bits {
        None => Backend::Blocked,
        Some((w, a)) => Backend::Quantized { weight_bits: w, act_bits: a },
    };
    let mut spec = PlanSpec::new();
    if !cfg.blocked {
        // Direct schedule: no blocking, every conv a whole-map segment
        // (dense QConv2d on the quantized backend).
        spec = spec.network_plan(NetworkPlan::unblocked(conv_count(net)));
    }
    Session::builder()
        .network(net.clone())
        .backend(backend)
        .planner(spec)
        .seed(2018)
        .threads(1)
        .build()
}

/// The distinct conv kernel kinds a session resolved, `+`-joined — one
/// value per config so the baseline records which code path produced each
/// latency number.
fn kernel_summary(session: &Session) -> String {
    let mut kinds: Vec<&'static str> = session.conv_kernels().into_iter().map(|(_, k)| k).collect();
    kinds.sort_unstable();
    kinds.dedup();
    if kinds.is_empty() {
        "none".to_string()
    } else {
        kinds.join("+")
    }
}

fn rel_err(a: &Tensor, b: &Tensor) -> Result<f64, TensorError> {
    let mag = b.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    Ok((a.max_abs_diff(b)? / mag) as f64)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = BenchRun::from_args("quant");
    let reps = if bench.quick { 7 } else { 15 };

    let networks: [(&'static str, Network); 2] = [
        ("vgg16_small", bconv_models::small::vgg16_small(32)),
        ("vdsr_small", bconv_models::small::vdsr_small(24, 6, 8)),
    ];

    let mut results: Vec<Measurement> = Vec::new();
    for (net_name, net) in &networks {
        let s = net.input;
        let input = uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(7));
        // Float runs of both schedules: the accuracy yardsticks. Comparing
        // same-schedule isolates quantization error from block-boundary
        // error (which the float configs carry identically).
        let mut float_out: [Option<Tensor>; 2] = [None, None];

        println!("\n{net_name}: {reps} reps per config, interleaved");
        // Build and warm every config first, then time with the reps
        // interleaved round-robin across configs (see the timing-protocol
        // note in the module docs).
        let sessions = CONFIGS
            .iter()
            .map(|cfg| {
                let session = build(net, cfg)?;
                let report = session.run(&input)?;
                Ok((session, report))
            })
            .collect::<Result<Vec<_>, TensorError>>()?;
        let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); CONFIGS.len()];
        for _ in 0..reps {
            for ((session, _), samples) in sessions.iter().zip(&mut times) {
                let t = std::time::Instant::now();
                std::hint::black_box(session.run(&input)?);
                samples.push(t.elapsed().as_nanos() as f64 / 1000.0);
            }
        }
        for ((cfg, (session, report)), mut samples) in CONFIGS.iter().zip(&sessions).zip(times) {
            if cfg.bits.is_none() {
                float_out[cfg.blocked as usize] = Some(report.output.clone());
            }
            let yardstick = float_out[cfg.blocked as usize]
                .as_ref()
                .ok_or("float configs precede quantized ones")?;
            let kernel = kernel_summary(session);
            samples.sort_by(f64::total_cmp);
            let (us, min_us) = (samples[samples.len() / 2], samples[0]);
            let err = rel_err(&report.output, yardstick)?;
            let (wb, ab) = cfg.bits.unwrap_or((32, 32));
            println!(
                "{:<14} median {:>9.1} us  rel-err {:>8.5}  off-chip {:>8} elems = {:>9} bits  [{}]",
                cfg.name,
                us,
                err,
                report.stats.offchip_elems,
                report.stats.offchip_bits(),
                kernel,
            );
            results.push(Measurement {
                network: net_name,
                name: cfg.name,
                weight_bits: wb,
                act_bits: ab,
                blocked: cfg.blocked,
                kernel,
                median_us: us,
                min_us,
                rel_err_vs_float_same_schedule: err,
                offchip_elems: report.stats.offchip_elems,
                offchip_bits: report.stats.offchip_bits(),
            });
        }
    }

    let rows = results.iter().map(|m| {
        Json::object([
            ("network", m.network.into()),
            ("name", m.name.into()),
            ("weight_bits", m.weight_bits.into()),
            ("act_bits", m.act_bits.into()),
            ("blocked", m.blocked.into()),
            ("kernel", m.kernel.as_str().into()),
            ("median_us", Json::fixed(m.median_us, 1)),
            ("min_us", Json::fixed(m.min_us, 1)),
            ("rel_err_vs_float_same_schedule", Json::fixed(m.rel_err_vs_float_same_schedule, 6)),
            ("offchip_elems", m.offchip_elems.into()),
            ("offchip_bits", m.offchip_bits.into()),
        ])
    });
    let ratios = results.iter().filter(|m| !m.blocked).filter_map(|direct| {
        let same = |m: &&Measurement| {
            m.blocked
                && (m.network, m.weight_bits, m.act_bits)
                    == (direct.network, direct.weight_bits, direct.act_bits)
        };
        let blocked = results.iter().find(same)?;
        Some(Json::object([
            ("network", direct.network.into()),
            ("name", direct.name.trim_end_matches("_direct").into()),
            ("ratio", Json::fixed(blocked.min_us / direct.min_us, 3)),
        ]))
    });
    bench.write(
        reps,
        [
            ("float_bits", 32u8.into()),
            ("reference", "float run of the same schedule".into()),
            ("results", Json::array(rows)),
            ("blocked_over_direct", Json::array(ratios)),
        ],
    )?;

    // Invariants the paper's memory figures rest on, checked for EVERY
    // quantized config (not just one per act width): within one schedule
    // the element traffic is bitwidth-invariant, bits are exactly
    // elems × act_bits, and any sub-32-bit width strictly shrinks traffic
    // relative to the float run of the same schedule.
    for (net_name, _) in &networks {
        for blocked in [false, true] {
            let float_m = results
                .iter()
                .find(|m| m.network == *net_name && m.weight_bits == 32 && m.blocked == blocked)
                .ok_or("float entry exists per schedule")?;
            for m in results
                .iter()
                .filter(|m| m.network == *net_name && m.blocked == blocked && m.weight_bits != 32)
            {
                assert_eq!(
                    m.offchip_elems, float_m.offchip_elems,
                    "{net_name} {}: element traffic must be width-invariant",
                    m.name
                );
                assert_eq!(
                    m.offchip_bits,
                    m.offchip_elems as u64 * m.act_bits as u64,
                    "{net_name} {}: bits must be elems x act width",
                    m.name
                );
                assert!(
                    m.offchip_bits < float_m.offchip_bits,
                    "{net_name} {}: off-chip bits must shrink vs float ({} !< {})",
                    m.name,
                    m.offchip_bits,
                    float_m.offchip_bits
                );
            }
        }
    }
    // Quantized outputs stay within a sane envelope of the float reference,
    // and wider activations are at least as accurate on the same schedule.
    for m in &results {
        // Sanity envelope, not an accuracy claim: >=8-bit weights must
        // track the float schedule closely; 4-bit weights on 13 stacked
        // toy-width layers (the paper uses w4 only for 6-layer VDSR) are
        // allowed to degrade but must not blow up.
        let envelope = if m.weight_bits >= 8 { 0.5 } else { 1.5 };
        assert!(
            m.rel_err_vs_float_same_schedule < envelope,
            "{} {} drifted from its float schedule: {}",
            m.network,
            m.name,
            m.rel_err_vs_float_same_schedule
        );
    }
    Ok(())
}
