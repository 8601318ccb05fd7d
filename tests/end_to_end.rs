//! Cross-crate integration tests: the Session compiler, block convolution,
//! models, quant and accelerator models working together.

use bconv_core::analysis::boundary_error;
use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::BlockConv2d;
use bconv_graph::{Graph, LowerOptions, Planner, PlannerOptions, Segment};
use bconv_models::analysis::{conv_spatial, feature_map_series, plan_for};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::vgg::vgg16;
use bconv_models::ActShape;
use bconv_quant::qconv::QConv2d;
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;

/// A 16×16 three-conv descriptor (the paper's Figure 2(b) motif).
fn three_conv_net() -> bconv_models::Network {
    let mut b = NetBuilder::new("fig2b", ActShape { c: 3, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 3, 8));
    b.push("conv2", conv(3, 1, 1, 8, 8));
    b.push("conv3", conv(3, 1, 1, 8, 4));
    b.build()
}

#[test]
fn figure2b_three_layer_fusion_is_exact_and_transfer_free() {
    // The motivating example: three consecutive conv layers (with ReLUs)
    // compile into ONE fusion group whose fused execution is identical to
    // layer-wise execution, with input+output-only off-chip traffic.
    let graph =
        Graph::lower(&three_conv_net(), &LowerOptions { seed: 1, relu_after_conv: true }).unwrap();
    let plan = Planner::new(PlannerOptions::default()).plan(&graph).unwrap();
    assert_eq!(plan.segments().len(), 1, "{}", plan.describe(&graph));
    let Segment::Fused { chain, nodes, .. } = &plan.segments()[0] else {
        panic!("expected a fused segment");
    };
    assert_eq!(nodes.len(), graph.nodes().len());

    let input = uniform_tensor([1, 3, 16, 16], -1.0, 1.0, &mut seeded_rng(2));
    let (fused, fs) = chain.run_fused(&input).unwrap();
    let (layerwise, ls) = chain.run_layerwise(&input).unwrap();
    assert!(fused.approx_eq(&layerwise, 1e-5).unwrap());
    assert_eq!(fs.offchip_elems, input.shape().numel() + fused.shape().numel());
    assert!(ls.offchip_elems > 3 * fs.offchip_elems);
}

#[test]
fn vgg16_blocking_plan_composes_models_and_core() {
    // Architecture descriptors feed the core planner: VGG-16 under F28
    // reproduces Table I's 76.92% blocking ratio.
    let net = vgg16(224);
    let plan = plan_for(&net, BlockingPattern::fixed(28)).unwrap();
    assert!((plan.blocking_ratio() * 100.0 - 76.92).abs() < 0.01);
    // All conv resolutions from the descriptor are valid grids for F28.
    for layer in conv_spatial(&net).unwrap() {
        if layer.h >= 28 {
            assert!(BlockGrid::from_pattern(layer.h, layer.w, BlockingPattern::fixed(28)).is_ok());
        }
    }
}

#[test]
fn quantized_block_convolution_stays_accurate() {
    // Block convolution composed with 8-bit integer execution: per-block
    // quantized convolution tracks the float block convolution.
    let mut rng = seeded_rng(3);
    let conv = he_conv2d(4, 4, ConvGeom::same(3), 1, &mut rng).unwrap();
    let input = uniform_tensor([1, 4, 16, 16], -1.0, 1.0, &mut rng);
    let bconv = BlockConv2d::from_pattern(
        conv.clone(),
        16,
        16,
        BlockingPattern::hierarchical(2),
        PadMode::Zero,
    )
    .unwrap();
    let float_out = bconv.forward(&input).unwrap();

    // Quantized execution of the same blocked computation, block by block.
    let qconv = QConv2d::from_conv(&conv, 8).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    let grid = bconv.grid().clone();
    let mut q_out = bconv_tensor::Tensor::zeros(float_out.shape());
    for row in 0..grid.num_rows() {
        for col in 0..grid.num_cols() {
            let b = grid.block(row, col);
            let block = input.crop(b.h0, b.w0, b.bh, b.bw).unwrap();
            let out = qconv.forward(&block, act, PadMode::Zero).unwrap();
            q_out.paste(&out, b.h0, b.w0).unwrap();
        }
    }
    let err = float_out.max_abs_diff(&q_out).unwrap();
    let mag = float_out.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    assert!(err / mag < 0.1, "relative error {}", err / mag);
}

#[test]
fn feature_map_analysis_matches_direct_computation() {
    // models::analysis agrees with a hand computation for VGG-16 layer 1.
    let series = feature_map_series(&vgg16(224), 16).unwrap();
    let direct = (64 * 224 * 224 * 16) as f64 / 1e6;
    assert!((series[0].mbits - direct).abs() < 1e-9);
}

#[test]
fn planner_fuses_across_a_pooling_boundary() {
    // Hierarchical blocking through conv -> pool -> conv: the planner
    // carries the grid across the pooling downscale, which is the
    // pattern's grid of the pooled map, and the fused schedule matches
    // the layer-wise one exactly (Figure 10's scenario, now compiled
    // rather than hand-assembled).
    let mut b = NetBuilder::new("two-stage", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, 4));
    b.push("pool1", maxpool(2, 2, 0));
    b.push("conv2", conv(3, 1, 1, 4, 2));
    let net = b.build();
    let graph = Graph::lower(&net, &LowerOptions { seed: 5, relu_after_conv: false }).unwrap();
    let plan_under = |pattern| {
        Planner::new(PlannerOptions { pattern, ..PlannerOptions::default() }).plan(&graph).unwrap()
    };
    // Fixed blocking keeps its block size: the pooled 4×4 blocks are not
    // the 8×8 pattern, so the group ends at the pool and conv2 opens on
    // one 8×8 block.
    let fixed = plan_under(BlockingPattern::fixed(8));
    assert_eq!(fixed.fusion_groups(), 2, "{}", fixed.describe(&graph));
    let Segment::Fused { chain, .. } = &fixed.segments()[1] else {
        panic!("expected fused segment:\n{}", fixed.describe(&graph));
    };
    assert_eq!(chain.in_grid().num_blocks(), 1);
    let plan = plan_under(BlockingPattern::hierarchical(2));
    assert_eq!(plan.fusion_groups(), 1, "{}", plan.describe(&graph));
    let Segment::Fused { chain, .. } = &plan.segments()[0] else {
        panic!("expected fused segment");
    };
    assert_eq!(chain.len(), 3);
    let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(6));
    let (fused, _) = chain.run_fused(&input).unwrap();
    let (layerwise, _) = chain.run_layerwise(&input).unwrap();
    assert!(fused.approx_eq(&layerwise, 1e-5).unwrap());
    assert_eq!(fused.shape().dims(), [1, 2, 8, 8]);
}

#[test]
fn boundary_error_shrinks_with_block_size() {
    // The fraction of perturbed pixels scales with boundary length:
    // doubling block size roughly halves it.
    let mut rng = seeded_rng(7);
    let conv = he_conv2d(1, 1, ConvGeom::same(3), 1, &mut rng).unwrap();
    let input = uniform_tensor([1, 1, 64, 64], -1.0, 1.0, &mut rng);
    let coarse = BlockGrid::from_pattern(64, 64, BlockingPattern::fixed(32)).unwrap();
    let fine = BlockGrid::from_pattern(64, 64, BlockingPattern::fixed(8)).unwrap();
    let e_coarse = boundary_error(&conv, &coarse, PadMode::Zero, &input).unwrap();
    let e_fine = boundary_error(&conv, &fine, PadMode::Zero, &input).unwrap();
    assert!(e_fine.frac_perturbed > 2.0 * e_coarse.frac_perturbed);
    assert!(e_coarse.interior_max_abs < 1e-5);
    assert!(e_fine.interior_max_abs < 1e-5);
}

#[test]
fn identity_conv_is_invariant_to_blocking() {
    // An identity kernel never reads beyond the centre tap, so block
    // convolution is exact for it under every pattern and padding mode.
    let conv = Conv2d::identity_like(2, 2, ConvGeom::same(3)).unwrap();
    let mut rng = seeded_rng(9);
    let input = uniform_tensor([1, 2, 12, 12], -1.0, 1.0, &mut rng);
    for pattern in [
        BlockingPattern::hierarchical(2),
        BlockingPattern::fixed(5),
        BlockingPattern::Hierarchical { gh: 1, gw: 4 },
    ] {
        for mode in PadMode::ALL {
            let bconv = BlockConv2d::from_pattern(conv.clone(), 12, 12, pattern, mode).unwrap();
            let out = bconv.forward(&input).unwrap();
            assert!(out.approx_eq(&input, 1e-6).unwrap(), "{pattern} {mode:?}");
        }
    }
}
