//! Super-resolution scenario, led by the `Session` API: compile VDSR into
//! blocked/fused pipelines at several blocking depths (Table IV) and
//! compare their off-chip traffic; then train a small VDSR on the
//! synthetic SR task and show the accuracy side of the same trade-off —
//! the workload of the paper's Ultra96 accelerator (§III-C).
//!
//! Run with: `cargo run --release --example super_resolution`

use bconv::core::plan::NetworkPlan;
use bconv::core::BlockingPattern;
use bconv::models::small::vdsr_small;
use bconv::tensor::init::{seeded_rng, uniform_tensor};
use bconv::tensor::pad::PadMode;
use bconv::{Backend, PlanSpec, Session};
use bconv_train::datasets::{experiment_rng, super_resolution_batch};
use bconv_train::layers::SgdConfig;
use bconv_train::metrics::psnr;
use bconv_train::models::SmallVdsr;
use bconv_train::trainer::{eval_vdsr_psnr, train_vdsr, TrainConfig};

const PATCH: usize = 24;
const SCALE: usize = 3;
const DEPTH: usize = 6;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Deployment view: compile VDSR at each blocking depth. ---
    // More fusion points (smaller depth) = more information fusion but
    // more off-chip transfers; end-to-end blocking eliminates all
    // intermediate DRAM traffic (what the Ultra96 design exploits).
    let probe_input = uniform_tensor([1, 1, PATCH, PATCH], 0.0, 1.0, &mut seeded_rng(1));
    println!("VDSR-small (depth {DEPTH}) under H2x2, {PATCH}x{PATCH} input:");
    for (label, plan, backend) in [
        ("layer-wise baseline", NetworkPlan::unblocked(DEPTH), Backend::Reference),
        (
            "blocking depth 2",
            NetworkPlan::by_blocking_depth(DEPTH, BlockingPattern::hierarchical(2), 2),
            Backend::Blocked,
        ),
        (
            "end-to-end blocking",
            NetworkPlan::by_blocking_depth(DEPTH, BlockingPattern::hierarchical(2), usize::MAX),
            Backend::Blocked,
        ),
    ] {
        let session = Session::builder()
            .network(vdsr_small(PATCH, DEPTH, 12))
            .planner(
                PlanSpec::new()
                    .pattern(BlockingPattern::hierarchical(2))
                    .network_plan(plan)
                    .pad(PadMode::Zero),
            )
            .backend(backend)
            .build()?;
        let report = session.run(&probe_input)?;
        println!(
            "  {label:<22} {} fusion groups, {:>6} off-chip elems, peak buffers {:>5}",
            session.plan().fusion_groups(),
            report.stats.offchip_elems,
            report.stats.peak_working_elems
        );
    }
    println!();

    // --- Accuracy view: train the same topology at each depth. ---
    let cfg = TrainConfig {
        steps: 250,
        batch: 8,
        sgd: SgdConfig { lr: 0.05, weight_decay: 1e-5, ..SgdConfig::default() },
        lr_halve_every: 100,
    };

    // Identity (bicubic-like) baseline PSNR of the degraded input.
    let mut rng = experiment_rng("example-sr", 1);
    let probe = super_resolution_batch(32, PATCH, SCALE, &mut rng)?;
    let identity = psnr(&probe.input, &probe.target, 1.0)?;
    println!("degraded-input PSNR (identity baseline): {identity:.2} dB");

    // Unblocked VDSR.
    let mut baseline = SmallVdsr::new(DEPTH, 12, &mut seeded_rng(99))?;
    train_vdsr(&mut baseline, "example-sr", SCALE, PATCH, &cfg)?;
    let base_psnr = eval_vdsr_psnr(&mut baseline, "example-sr", SCALE, PATCH, 32)?;
    println!("VDSR (small) baseline: {base_psnr:.2} dB");

    // End-to-end blocked VDSR (all layers H2x2).
    let mut blocked = SmallVdsr::new(DEPTH, 12, &mut seeded_rng(99))?;
    let plan = NetworkPlan::by_blocking_depth(DEPTH, BlockingPattern::hierarchical(2), usize::MAX);
    blocked.apply_plan(plan.per_layer(), PadMode::Zero);
    train_vdsr(&mut blocked, "example-sr", SCALE, PATCH, &cfg)?;
    let blocked_psnr = eval_vdsr_psnr(&mut blocked, "example-sr", SCALE, PATCH, 32)?;
    println!(
        "VDSR + BConv (H2x2, end-to-end): {blocked_psnr:.2} dB ({:+.2} dB vs baseline)",
        blocked_psnr - base_psnr
    );

    // Blocking depth 2: one information-fusion layer after every 2 blocked
    // layers (Table IV's trade-off).
    let mut depth2 = SmallVdsr::new(DEPTH, 12, &mut seeded_rng(99))?;
    let plan2 = NetworkPlan::by_blocking_depth(DEPTH, BlockingPattern::hierarchical(2), 2);
    depth2.apply_plan(plan2.per_layer(), PadMode::Zero);
    train_vdsr(&mut depth2, "example-sr", SCALE, PATCH, &cfg)?;
    let depth2_psnr = eval_vdsr_psnr(&mut depth2, "example-sr", SCALE, PATCH, 32)?;
    println!(
        "VDSR + BConv (blocking depth 2): {depth2_psnr:.2} dB \
         (fusion points at layers {:?})",
        plan2.fusion_points()
    );
    println!("paper's trend: baseline >= depth-2 >= end-to-end blocking, all within ~0.5 dB");
    Ok(())
}
