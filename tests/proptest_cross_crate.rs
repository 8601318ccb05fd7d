//! Workspace-level property tests on cross-crate invariants.

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{ChainOp, FusedChain};
use bconv_graph::{Graph, KernelPolicy, LowerOptions, Planner, PlannerOptions, Segment};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::ActShape;
use bconv_quant::qconv::QConv2d;
use bconv_quant::{dequantize, fake_quant_dynamic, quantize, QParams};
use bconv_tensor::conv::ConvGeom;
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused execution equals layer-wise execution for arbitrary
    /// planner-compiled chains: fusion is a schedule change, never a
    /// numerical one. Chains are produced by lowering a random descriptor
    /// through the Session compiler stages, not assembled by hand.
    #[test]
    fn fusion_is_schedule_invariant(
        g in 1usize..3,
        c1 in 1usize..4,
        c2 in 1usize..4,
        seed in 0u64..500,
        mode_idx in 0usize..3,
    ) {
        let mode = PadMode::ALL[mode_idx];
        let mut b = NetBuilder::new("prop", ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, c1));
        b.push("conv2", conv(3, 1, 1, c1, c2));
        b.push("pool", maxpool(2, 2, 0));
        let net = b.build();
        let graph = Graph::lower(
            &net,
            &LowerOptions { seed, relu_after_conv: true },
        ).unwrap();
        let plan = Planner::new(PlannerOptions {
            pattern: BlockingPattern::hierarchical(g),
            pad_mode: mode,
            ..PlannerOptions::default()
        }).plan(&graph).unwrap();

        // The whole conv/relu/pool body compiles into one fusion group
        // (16 is divisible by every g here, so pooling stays aligned).
        prop_assert_eq!(plan.fusion_groups(), 1);
        prop_assert!(matches!(plan.segments()[0], Segment::Fused { .. }));
        let Segment::Fused { chain, .. } = &plan.segments()[0] else {
            unreachable!()
        };

        let mut rng = seeded_rng(seed ^ 0xF00D);
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut rng);
        let (fused, fs) = chain.run_fused(&input).unwrap();
        let (layerwise, ls) = chain.run_layerwise(&input).unwrap();
        prop_assert!(fused.approx_eq(&layerwise, 1e-4).unwrap());
        prop_assert!(fs.offchip_elems <= ls.offchip_elems);
    }

    /// Quantize/dequantize round trips are bounded by half a step and
    /// idempotent (fake-quant of fake-quant is the identity).
    #[test]
    fn quantization_roundtrip_bounds(
        bits in 3u8..9,
        scale in 0.1f32..10.0,
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed);
        let t = uniform_tensor([1, 2, 4, 4], -scale, scale, &mut rng);
        let params = QParams::from_abs_max(scale, bits);
        let q = quantize(&t, params);
        let back = dequantize(&q).unwrap();
        prop_assert!(t.max_abs_diff(&back).unwrap() <= params.step() / 2.0 + 1e-6);
        // Idempotence.
        let fq = fake_quant_dynamic(&t, bits);
        let fq2 = fake_quant_dynamic(&fq, bits);
        prop_assert!(fq.max_abs_diff(&fq2).unwrap() <= params.step() * 0.51 + 1e-6);
    }

    /// Blocked-quantized and dense-quantized execution agree **bitwise** on
    /// pixels whose 3x3 receptive field stays inside one block: block
    /// convolution only perturbs boundary pixels (paper §II-C), and the
    /// integer path quantizes identical pixel values to identical integers
    /// and accumulates them in the same order.
    #[test]
    fn blocked_quant_interior_matches_dense_quant_bitwise(
        g in prop::sample::select(vec![2usize, 4]),
        c_in in 1usize..3,
        c_out in 1usize..3,
        seed in 0u64..500,
    ) {
        let mut rng = seeded_rng(seed ^ 0x1B17);
        let cv = he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, c_in, 16, 16], -1.0, 1.0, &mut rng);
        let act = QParams::from_abs_max(1.0, 8);
        let qconv = QConv2d::from_conv(&cv, 8).unwrap();
        let dense = qconv.forward(&input, act, PadMode::Zero).unwrap();
        let grid = BlockGrid::from_pattern(16, 16, BlockingPattern::hierarchical(g)).unwrap();
        let chain = FusedChain::plan(
            vec![ChainOp::conv(cv)],
            grid.clone(),
            PadMode::Zero,
            KernelPolicy::default(),
            Some((8, &[act])),
        )
        .unwrap();
        let (blocked, _) = chain.run_fused(&input).unwrap();
        prop_assert_eq!(blocked.shape(), dense.shape());
        for r in 0..grid.num_rows() {
            for c in 0..grid.num_cols() {
                let b = grid.block(r, c);
                for ch in 0..c_out {
                    for h in b.h0 + 1..b.h0 + b.bh - 1 {
                        for w in b.w0 + 1..b.w0 + b.bw - 1 {
                            prop_assert_eq!(
                                dense.at(0, ch, h, w).to_bits(),
                                blocked.at(0, ch, h, w).to_bits(),
                                "interior pixel ({ch},{h},{w}) differs in block ({r},{c})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Grid downscaling commutes with block enumeration: downscaled blocks
    /// are the original blocks divided by the stride.
    #[test]
    fn grid_downscale_commutes(
        g in 1usize..5,
        s in prop::sample::select(vec![2usize, 4]),
    ) {
        let size = 32usize;
        prop_assume!(size.is_multiple_of(g * s) && (size / g).is_multiple_of(s));
        let grid = BlockGrid::from_pattern(size, size, BlockingPattern::hierarchical(g)).unwrap();
        let down = grid.downscale(s).unwrap();
        prop_assert_eq!(down.num_blocks(), grid.num_blocks());
        for (a, b) in grid.blocks().zip(down.blocks()) {
            prop_assert_eq!(a.h0 / s, b.h0);
            prop_assert_eq!(a.bh / s, b.bh);
        }
    }
}
