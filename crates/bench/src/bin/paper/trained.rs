//! The accuracy entries: each trains the small analogues of `bconv-train`
//! on its synthetic tasks (minutes per entry) and prints the paper's claim
//! under test beneath the table.

use bconv_bench::{
    classifier_config, detector_config, finetune_config, vdsr_config, DET_EVAL_SAMPLES,
    EVAL_SAMPLES, SR_PATCH,
};
use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_models::analysis::plan_for;
use bconv_models::mobilenet::mobilenet_v1;
use bconv_models::resnet::{resnet18, resnet50};
use bconv_models::vgg::vgg16;
use bconv_models::{fpn::fpn_resnet50, ssd::ssd300_vgg16};
use bconv_tensor::error::TensorError;
use bconv_tensor::init::seeded_rng;
use bconv_tensor::pad::PadMode;
use bconv_train::layers::Blocking;
use bconv_train::models::{
    fixed_rule, hierarchical_rule, NetStyle, SmallClassifier, SmallDetector, SmallVdsr,
};
use bconv_train::trainer::{
    eval_classifier, eval_detector, eval_vdsr_psnr, train_classifier, train_detector, train_vdsr,
    TrainConfig,
};

use crate::table::{header, pct, Table};

const STYLES: [NetStyle; 3] = [NetStyle::Vgg, NetStyle::ResNet, NetStyle::MobileNet];

/// Training steps of a small classifier: the depthwise MobileNet analogue
/// needs 600 to converge where the other two need the standard 400.
fn steps_for(style: NetStyle) -> usize {
    if style == NetStyle::MobileNet {
        600
    } else {
        classifier_config().steps
    }
}

/// What every classifier entry repeats: build the analogue from `seed`,
/// block / quantise it (`setup`), train it on experiment `exp` and
/// evaluate. Returns the trained network beside its top-1 accuracy —
/// Table I fine-tunes it, Figure 7 re-evaluates it quantised.
fn train_eval(
    style: NetStyle,
    seed: u64,
    exp: &str,
    setup: impl FnOnce(&mut SmallClassifier),
) -> Result<(SmallClassifier, f64), TensorError> {
    let mut net = SmallClassifier::new(style, 8, 4, &mut seeded_rng(seed))?;
    setup(&mut net);
    let cfg = TrainConfig { steps: steps_for(style), ..classifier_config() };
    train_classifier(&mut net, exp, &cfg)?;
    let acc = eval_classifier(&mut net, exp, EVAL_SAMPLES)?;
    Ok((net, acc))
}

/// [`train_eval`] for the detector, printed as one AP row: hierarchical
/// `g × g` blocking of the backbone (`g = 0`: none) and optionally of the
/// detection heads.
fn detector_row(
    t: &Table,
    label: &str,
    seed: u64,
    exp: &str,
    g: usize,
    heads: bool,
) -> Result<(), TensorError> {
    let mut det = SmallDetector::new(8, &mut seeded_rng(seed))?;
    if g > 0 {
        det.apply_backbone_blocking(&hierarchical_rule(g));
        if heads {
            det.apply_head_blocking(&hierarchical_rule(g));
        }
    }
    train_detector(&mut det, exp, &detector_config())?;
    let ap = eval_detector(&mut det, exp, DET_EVAL_SAMPLES)?;
    t.row(label, [ap.ap, ap.ap50, ap.ap75].map(|v| format!("{v:.3}")));
    Ok(())
}

/// Figure 5: top-1 accuracy of blocked networks vs blocking ratio under
/// fixed (F) and hierarchical (H) blocking. The paper's two conclusions
/// under test: accuracy falls as the blocking ratio rises, and fixed
/// blocking beats hierarchical at equal ratios.
pub fn fig5() -> Result<(), TensorError> {
    header("Figure 5: accuracy vs blocking ratio (F = fixed, H = hierarchical)");
    // Patterns ordered by increasing aggressiveness. F32 blocks only the
    // 32-res layers; F16 also the 16-res ones; H2/H4 block everything.
    let (f, h) = (BlockingPattern::fixed, BlockingPattern::hierarchical);
    let patterns: [(&str, Option<(BlockingPattern, usize)>); 5] = [
        ("none", None),
        ("F32", Some((f(32), 32))),
        ("F16", Some((f(16), 16))),
        ("H2x2", Some((h(2), 0))),
        ("H4x4", Some((h(4), 4))),
    ];
    let t = Table::headed("network", 22, &["pattern", "blocking ratio", "top-1"]);
    for style in STYLES {
        let exp = format!("fig5-{style:?}");
        for (name, pattern) in patterns {
            let rule = move |res| {
                pattern.and_then(|(p, min_res)| (res >= min_res).then_some((p, PadMode::Zero)))
            };
            let (net, acc) = train_eval(style, 11, &exp, |net| net.apply_blocking(&rule))?;
            t.row(style.name(), [name.to_string(), pct(net.blocking_ratio(&rule)), pct(acc)]);
        }
        t.rule();
    }
    println!("paper: accuracy decreases with blocking ratio; F consistently beats H");
    Ok(())
}

/// Figure 6: impact of the block-padding mode (zero / replicate / reflect)
/// on classification accuracy under fixed blocking.
pub fn fig6() -> Result<(), TensorError> {
    header("Figure 6: block padding mode vs accuracy (F16 fixed blocking)");
    let t = Table::headed("network", 22, &PadMode::ALL.map(|m| m.name()));
    for style in STYLES {
        let exp = format!("fig6-{style:?}");
        let mut accs = Vec::new();
        for mode in PadMode::ALL {
            let rule = move |res| (res >= 16).then_some((BlockingPattern::fixed(16), mode));
            accs.push(pct(train_eval(style, 31, &exp, |net| net.apply_blocking(&rule))?.1));
        }
        t.row(style.name(), accs);
    }
    t.rule();
    println!("paper: no single best mode — zero wins on some nets, replicate on others");
    Ok(())
}

/// Figure 7: 8-bit quantization of baseline and F-blocked networks, with
/// both training-aware quantization (fake-quantized weights during
/// training) and post-training quantization (quantize a float-trained
/// model's weights).
pub fn fig7() -> Result<(), TensorError> {
    header("Figure 7: 8-bit quantization (baseline vs F16-blocked)");
    let heads = ["float base", "float BConv", "QAT base", "QAT BConv", "PTQ BConv"];
    let t = Table::headed("network", 22, &heads);
    for style in STYLES {
        let run = |blocked: bool, qat: bool| {
            train_eval(style, 33, &format!("fig7-{style:?}-{blocked}"), |net| {
                if blocked {
                    net.apply_blocking(&fixed_rule(16));
                }
                net.set_fake_quant(qat.then_some(8));
            })
        };
        let float_base = run(false, false)?.1;
        let (mut float_net, float_blocked) = run(true, false)?;
        let qat_base = run(false, true)?.1;
        let qat_blocked = run(true, true)?.1;
        // Post-training: quantize the float-trained blocked network's
        // weights at inference (training it again from the same seed
        // would reproduce `float_net` bit for bit).
        float_net.set_fake_quant(Some(8));
        let ptq_blocked =
            eval_classifier(&mut float_net, &format!("fig7-{style:?}-true"), EVAL_SAMPLES)?;
        t.row(
            style.name(),
            [float_base, float_blocked, qat_base, qat_blocked, ptq_blocked].map(pct),
        );
    }
    t.rule();
    println!("paper: with QAT, 8-bit blocked networks match or beat non-blocked ones");
    Ok(())
}

/// Figure 8: detection AP under coarse (H2) vs fine (H4) backbone blocking,
/// with and without also blocking the detection heads. The paper's claims
/// under test: larger blocks lose less AP (F56 vs F28), and blocking the
/// heads costs extra AP on top of backbone blocking.
pub fn fig8() -> Result<(), TensorError> {
    header("Figure 8: AP vs blocking granularity and scope");
    let t = Table::headed("configuration", 34, &["AP", "AP@0.5", "AP@0.75"]);
    for (name, g, heads) in [
        ("baseline (no blocking)", 0, false),
        ("backbone H2 (coarse, ~F56)", 2, false),
        ("backbone H4 (fine, ~F28)", 4, false),
        ("backbone+heads H2", 2, true),
        ("backbone+heads H4", 4, true),
    ] {
        detector_row(&t, name, 71, "fig8", g, heads)?;
    }
    t.rule();
    println!("paper: coarser blocking loses less mAP; blocking heads costs extra mAP");
    Ok(())
}

/// Table I: top-1 accuracy of the (small-scale) VGG / ResNet / MobileNet
/// analogues — trained baseline, block convolution trained from scratch,
/// and block convolution fine-tuned from the baseline — plus the blocking
/// ratio column computed exactly from the *full-size* architectures. The
/// claim under test: blocked accuracy stays within ~1% of the baseline
/// under the F-pattern rule.
pub fn table1() -> Result<(), TensorError> {
    // Block size for the small nets: F16 plays the role of the paper's F28
    // (half the 32² input, as 28 is half-ish of 224² stage resolutions).
    let block = |net: &mut SmallClassifier| net.apply_blocking(&fixed_rule(16));
    header("Table I: top-1 accuracy (synthetic task, small-scale analogues)");
    let heads = ["baseline", "BConv scratch", "BConv fine-tune", "blocking ratio"];
    let t = Table::headed("network", 22, &heads);
    // Exact blocking ratios come from the full-size architectures under
    // F28 with the paper's stride-to-pooling rewrite.
    for (style, name, full, paper_ratio) in [
        (NetStyle::Vgg, "VGG-16", vgg16(224), 76.92),
        (NetStyle::ResNet, "ResNet-18", resnet18(224, true), 76.47),
        (NetStyle::ResNet, "ResNet-50", resnet50(224, true), 81.63),
        (NetStyle::MobileNet, "MobileNet-V1", mobilenet_v1(224, true), 44.44),
    ] {
        let ratio = plan_for(&full, BlockingPattern::fixed(28))?.blocking_ratio();
        let seed = name.len() as u64; // distinct fixed seeds per row
        let exp = format!("table1-{style:?}");
        let (mut baseline, base) = train_eval(style, seed, &exp, |_| {})?;
        // Block convolution trained from scratch (same init, same data).
        let scratch = train_eval(style, seed, &exp, block)?.1;
        // Block convolution fine-tuned from the trained baseline.
        block(&mut baseline);
        train_classifier(&mut baseline, &exp, &finetune_config())?;
        let ft = eval_classifier(&mut baseline, &exp, EVAL_SAMPLES)?;
        let ratio = format!("{:.2}% (paper {paper_ratio:.2}%)", ratio * 100.0);
        t.row(name, [pct(base), pct(scratch), pct(ft), ratio]);
    }
    t.rule();
    println!("paper: blocked accuracy within ~1% of baseline; fine-tuning can exceed baseline");
    Ok(())
}

/// Table II: non-square blocking on the ResNet analogue — the paper's
/// F28×56, H4×1 and H1×4 become F16×32, H4×1 and H1×4 at our 32² scale.
pub fn table2() -> Result<(), TensorError> {
    header("Table II: non-square blocking on ResNet (small analogue)");
    let t = Table::headed("config", 12, &["top-1"]);
    for (name, pattern) in [
        ("baseline", None),
        ("F16x32", Some(BlockingPattern::Fixed { th: 16, tw: 32 })),
        ("H4x1", Some(BlockingPattern::Hierarchical { gh: 4, gw: 1 })),
        ("H1x4", Some(BlockingPattern::Hierarchical { gh: 1, gw: 4 })),
    ] {
        let rule = move |res| {
            let fits = match pattern? {
                BlockingPattern::Fixed { th, tw } => res >= th.min(tw),
                BlockingPattern::Hierarchical { gh, gw } => res >= gh.max(gw),
            };
            fits.then_some((pattern?, PadMode::Zero))
        };
        let acc = train_eval(NetStyle::ResNet, 21, "table2", |net| net.apply_blocking(&rule))?.1;
        t.row(name, [pct(acc)]);
    }
    t.rule();
    println!("paper: all three non-square configurations stay at or above the baseline");
    Ok(())
}

/// Table IV: PSNR of the VDSR analogue (6 layers of width 12 on 24×24
/// patches) on the synthetic super-resolution task — baseline, H2×2
/// hierarchical, fixed irregular blocking (F16: 16+8 splits, the paper's
/// F28: 28+13), and blocking depths 2 and 4 — at scale factors ×2/×3/×4.
pub fn table4() -> Result<(), TensorError> {
    const DEPTH: usize = 6;
    let by_depth = |net: &mut SmallVdsr, depth| {
        let plan = NetworkPlan::by_blocking_depth(DEPTH, BlockingPattern::hierarchical(2), depth);
        net.apply_plan(plan.per_layer(), PadMode::Zero);
    };
    let irregular = Blocking::Pattern(BlockingPattern::fixed(16), PadMode::Zero);
    type Block<'a> = &'a dyn Fn(&mut SmallVdsr);
    let configs: [(&str, Block); 5] = [
        ("baseline", &|_| {}),
        ("H2x2", &|net| by_depth(net, usize::MAX)),
        ("fixed-irregular", &|net| net.apply_blocking(&[irregular; DEPTH])),
        ("depth2", &|net| by_depth(net, 2)),
        ("depth4", &|net| by_depth(net, 4)),
    ];
    header("Table IV: PSNR (dB) of VDSR (small analogue) on synthetic SR");
    let t = Table::headed("scale", 8, &configs.map(|c| c.0));
    for scale in [2usize, 3, 4] {
        let exp = format!("table4-x{scale}");
        let mut psnrs = Vec::new();
        for (_, block) in configs {
            let mut net = SmallVdsr::new(DEPTH, 12, &mut seeded_rng(51))?;
            block(&mut net);
            train_vdsr(&mut net, &exp, scale, SR_PATCH, &vdsr_config())?;
            psnrs.push(format!("{:.2}", eval_vdsr_psnr(&mut net, &exp, scale, SR_PATCH, 32)?));
        }
        t.row(&format!("x{scale}"), psnrs);
    }
    t.rule();
    println!("paper: PSNR loss under blocking <= 0.5 dB; fixed irregular >= H2x2;");
    println!("       deeper fusion points (smaller blocking depth) recover PSNR");
    Ok(())
}

/// Tables III and V: the detection benchmark configuration and the AP of
/// the small SSD-style detector with and without a blocked backbone; the
/// claim under test is a small AP drop when the backbone is blocked.
pub fn table5() -> Result<(), TensorError> {
    // Table III: benchmark configuration, from the full-size descriptors.
    header("Table III: detection benchmark configuration");
    for (net, input) in [(ssd300_vgg16(), "300x300"), (fpn_resnet50(800, 1333), "1333x800")] {
        let info = net.trace()?;
        let convs = info.iter().filter(|l| l.is_conv).count();
        let gmacs = info.iter().map(|l| l.macs).sum::<u64>() as f64 / 1e9;
        println!("{:<16} input {input:<10} {convs} convs, {gmacs:.1} GMACs", net.name);
    }

    header("Table V: detection AP (synthetic single-object task)");
    let t = Table::headed("model", 22, &["AP", "AP@0.5", "AP@0.75"]);
    detector_row(&t, "SSD-small", 61, "table5", 0, false)?;
    detector_row(&t, "SSD-small+BConv", 61, "table5", 2, false)?;
    t.rule();
    println!("paper: mAP drop of 1.0 (FPN) / 1.8 (SSD) points when the backbone is blocked");
    Ok(())
}
