//! Quickstart: compile a network into a blocked/fused pipeline with the
//! `Session` API, then drill down to the paper's Figure 3 operator-level
//! example.
//!
//! Run with: `cargo run --release --example quickstart`

use bconv::core::analysis::{block_spatial_kernel_ops, boundary_error, spatial_kernel_ops};
use bconv::core::blocking::{BlockGrid, BlockingPattern};
use bconv::core::BlockConv2d;
use bconv::models::small::vgg16_small;
use bconv::tensor::conv::ConvGeom;
use bconv::tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv::tensor::pad::PadMode;
use bconv::{Backend, PlanSpec, Session};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The five-line story: descriptor in, fused pipeline out. ---
    let session = Session::builder()
        .network(vgg16_small(32))
        .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).pad(PadMode::Zero))
        .build()?;
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2018));
    let report = session.run(&input)?;
    println!("{}", session.describe());
    println!(
        "blocked run: output {:?}, {} off-chip elements, peak block buffers {}",
        report.output.shape(),
        report.stats.offchip_elems,
        report.stats.peak_working_elems
    );

    // Same graph (same seed => same weights) on the dense baseline backend:
    // the fused schedule moves ~10x less data across the off-chip boundary.
    let reference =
        Session::builder().network(vgg16_small(32)).backend(Backend::Reference).build()?;
    let ref_report = reference.run(&input)?;
    println!(
        "reference run: {} off-chip elements ({:.1}x the fused traffic)\n",
        ref_report.stats.offchip_elems,
        ref_report.stats.offchip_elems as f64 / report.stats.offchip_elems as f64
    );

    // --- Under the hood: the paper's Figure 3 example. ---
    // An 8x8x3 input, a 3x3x3 filter, 2x2 blocks.
    let mut rng = seeded_rng(2018);
    let conv = he_conv2d(3, 1, ConvGeom::same(3), 1, &mut rng)?;
    let small = uniform_tensor([1, 3, 8, 8], -1.0, 1.0, &mut rng);
    let pattern = BlockingPattern::hierarchical(2);
    let bconv = BlockConv2d::from_pattern(conv.clone(), 8, 8, pattern, PadMode::Zero)?;

    let dense_out = conv.forward(&small)?;
    let block_out = bconv.forward(&small)?;
    println!(
        "figure 3: output shapes dense {:?}, blocked {:?}",
        dense_out.shape(),
        block_out.shape()
    );

    // Operation-count parity: 8*8*3 = 192 both ways.
    println!(
        "spatial kernel ops: conventional {}, blocked {} (paper: 192 = 192)",
        spatial_kernel_ops(8, 8, 3),
        block_spatial_kernel_ops(&bconv)?
    );

    // Only boundary pixels differ.
    let grid = BlockGrid::from_pattern(8, 8, pattern)?;
    let err = boundary_error(&conv, &grid, PadMode::Zero, &small)?;
    println!(
        "interior max |diff| = {:.2e}, overall max |diff| = {:.3}, perturbed pixels = {:.0}%",
        err.interior_max_abs,
        err.max_abs,
        err.frac_perturbed * 100.0
    );
    Ok(())
}
