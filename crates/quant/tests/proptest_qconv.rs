//! Property tests: [`QConv2d`] vs [`Conv2d`] parity across convolution
//! geometry (kernel, stride, padding, groups) and bitwidths.
//!
//! Two invariants:
//!
//! * the integer simulation's error against the float convolution stays
//!   inside the analytic quantization bound (taps × per-tap rounding);
//! * the error shrinks monotonically as either bitwidth widens (paper
//!   Figure 7's premise for choosing deployment precisions).

use bconv_quant::qconv::QConv2d;
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelKind;
use bconv_tensor::pad::PadMode;
use proptest::prelude::*;

/// Analytic per-output bound on the integer-simulation error: each of the
/// `k²·c_in/groups` taps contributes at most `|a|·s_w/2` (weight rounding)
/// plus `(|w| + s_w/2)·s_a/2` (activation rounding of the already-rounded
/// weight), with `|a| ≤ a_max` and `|w| ≤ w_max`. Bias is exact.
fn error_bound(conv: &Conv2d, q: &QConv2d, act: QParams, a_max: f32) -> f32 {
    let k = conv.geom().kernel;
    let taps = (k * k * conv.c_in() / conv.groups()) as f32;
    let w_max = conv.weight().data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let sw = q.weight_params().step();
    let sa = act.step();
    taps * (a_max * sw / 2.0 + (w_max + sw / 2.0) * sa / 2.0) + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantized error is inside the analytic bound for every geometry the
    /// dense convolution supports, at every weight bitwidth.
    #[test]
    fn qconv_error_is_bounded_across_geometries(
        k_idx in 0usize..2,       // kernel in {1, 3}
        stride in 1usize..3,
        pad in 0usize..2,
        g_idx in 0usize..2,       // groups in {1, 2}
        wb_idx in 0usize..3,      // weight bits in {4, 8, 16}
        ab_idx in 0usize..2,      // act bits in {8, 16}
        seed in 0u64..500,
    ) {
        let k = [1usize, 3][k_idx];
        let groups = [1usize, 2][g_idx];
        let weight_bits = [4u8, 8, 16][wb_idx];
        let act_bits = [8u8, 16][ab_idx];
        let mut rng = seeded_rng(seed);
        let conv = he_conv2d(4, 4, ConvGeom::new(k, stride, pad), groups, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let qconv = QConv2d::from_conv(&conv, weight_bits).unwrap();
        let act = QParams::from_abs_max(1.0, act_bits);
        let q_out = qconv.forward(&input, act, PadMode::Zero).unwrap();
        prop_assert_eq!(q_out.shape(), float_out.shape());
        let err = float_out.max_abs_diff(&q_out).unwrap();
        let bound = error_bound(&conv, &qconv, act, 1.0);
        prop_assert!(err <= bound, "err {err} exceeds analytic bound {bound}");
    }

    /// Widening either bitwidth shrinks the error, up to the finer width's
    /// own quantization noise: individual roundings can cancel, so the
    /// wide-bit error may only exceed the narrow-bit error when both sit
    /// inside the wide configuration's analytic bound. The bound ladder
    /// itself is strictly monotone.
    #[test]
    fn qconv_error_shrinks_with_bits(
        stride in 1usize..3,
        g_idx in 0usize..2,
        seed in 0u64..500,
    ) {
        let groups = [1usize, 2][g_idx];
        let mut rng = seeded_rng(seed ^ 0xB175);
        let conv = he_conv2d(2, 2, ConvGeom::new(3, stride, 1), groups, &mut rng).unwrap();
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        // (error, analytic bound) at a precision.
        let run = |weight_bits: u8, act_bits: u8| {
            let q = QConv2d::from_conv(&conv, weight_bits).unwrap();
            let act = QParams::from_abs_max(1.0, act_bits);
            let err = float_out
                .max_abs_diff(&q.forward(&input, act, PadMode::Zero).unwrap())
                .unwrap();
            (err, error_bound(&conv, &q, act, 1.0))
        };
        // Weight-bit ladder at fixed 8-bit activations, then the
        // activation-bit ladder at fixed 8-bit weights.
        let ladders = [
            (run(4, 8), run(8, 8)),
            (run(8, 8), run(16, 8)),
            (run(8, 4), run(8, 8)),
            (run(8, 8), run(8, 16)),
        ];
        for ((narrow_err, narrow_bound), (wide_err, wide_bound)) in ladders {
            prop_assert!(
                wide_bound < narrow_bound,
                "bound must shrink: {narrow_bound} -> {wide_bound}"
            );
            prop_assert!(
                wide_err <= narrow_err.max(wide_bound),
                "wide-bit err {wide_err} exceeds narrow-bit err {narrow_err} beyond wide bound \
                 {wide_bound}"
            );
        }
    }

    /// Depthwise convolution (groups == channels) stays exact-per-channel:
    /// parity holds in the grouped indexing, not just dense layouts.
    #[test]
    fn depthwise_qconv_stays_bounded(
        seed in 0u64..500,
        pad in 0usize..2,
    ) {
        let mut rng = seeded_rng(seed ^ 0xD311);
        let conv = he_conv2d(4, 4, ConvGeom::new(3, 1, pad), 4, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 6, 6], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let q_out = qconv.forward(&input, act, PadMode::Zero).unwrap();
        let err = float_out.max_abs_diff(&q_out).unwrap();
        let bound = error_bound(&conv, &qconv, act, 1.0);
        prop_assert!(err <= bound, "depthwise err {err} exceeds bound {bound}");
    }

    /// The integer im2col+GEMM kernel is BITWISE identical to the direct
    /// loop across geometry (1x1/3x3, strides, padding, grouped and
    /// depthwise layouts) and bitwidths, including the w16a16 corner that
    /// trips the conservative i32-overflow guard into the exact i64 dot
    /// lanes. Integer accumulation is order-exact, so any divergence here
    /// is a real indexing or rescale bug, not rounding.
    #[test]
    fn gemm_kernel_is_bitwise_identical_to_direct_loop(
        k_idx in 0usize..2,       // kernel in {1, 3}
        stride in 1usize..3,
        pad in 0usize..2,
        g_idx in 0usize..3,       // groups in {1, 2, 4 (depthwise)}
        wb_idx in 0usize..3,      // weight bits in {4, 8, 16}
        ab_idx in 0usize..2,      // act bits in {8, 16}
        seed in 0u64..500,
    ) {
        let k = [1usize, 3][k_idx];
        let groups = [1usize, 2, 4][g_idx];
        let weight_bits = [4u8, 8, 16][wb_idx];
        let act_bits = [8u8, 16][ab_idx];
        let mut rng = seeded_rng(seed ^ 0x6E44);
        let conv = he_conv2d(4, 4, ConvGeom::new(k, stride, pad), groups, &mut rng).unwrap();
        let input = uniform_tensor([2, 4, 7, 7], -1.0, 1.0, &mut rng);
        let act = QParams::from_abs_max(1.0, act_bits);
        let direct = QConv2d::from_conv_with_kernel(&conv, weight_bits, KernelKind::Direct)
            .unwrap()
            .forward(&input, act, PadMode::Zero)
            .unwrap();
        let gemm = QConv2d::from_conv_with_kernel(&conv, weight_bits, KernelKind::Im2colGemm)
            .unwrap()
            .forward(&input, act, PadMode::Zero)
            .unwrap();
        prop_assert_eq!(direct.shape(), gemm.shape());
        prop_assert_eq!(direct.data(), gemm.data(), "k{k} s{stride} p{pad} g{groups} w{weight_bits}a{act_bits}");
    }

    /// Per-channel weight scales never quantize a weight worse than the
    /// per-tensor envelope: every channel's step divides the envelope's
    /// range finer (or equally, for the max-magnitude channel), so each
    /// round-tripped weight lands within the envelope's half-step.
    #[test]
    fn per_channel_weight_error_is_within_per_tensor_half_step(
        g_idx in 0usize..2,
        wb_idx in 0usize..3,
        seed in 0u64..500,
    ) {
        let groups = [1usize, 2][g_idx];
        let weight_bits = [4u8, 8, 16][wb_idx];
        let mut rng = seeded_rng(seed ^ 0x9C41);
        let conv = he_conv2d(4, 6, ConvGeom::new(3, 1, 1), groups, &mut rng).unwrap();
        let q = QConv2d::from_conv(&conv, weight_bits).unwrap();
        // weight_params() is the per-tensor envelope.
        let envelope = q.weight_params();
        let half_step = envelope.step() / 2.0;
        let kk = conv.weight().data().len() / conv.c_out();
        for (m, &scale) in q.weight_scales().iter().enumerate() {
            prop_assert!(scale <= envelope.scale() + 1e-12,
                "channel {m} scale {scale} exceeds envelope");
            for l in 0..kk {
                let w = conv.weight().data()[m * kk + l];
                let wq = (w / scale).round() * scale;
                prop_assert!((w - wq).abs() <= half_step + 1e-6,
                    "channel {m} tap {l}: per-channel error {} beyond envelope half-step {half_step}",
                    (w - wq).abs());
            }
        }
    }

    /// End-to-end, per-channel scales keep the output error inside the
    /// envelope-based analytic bound — the per-tensor guarantee carries
    /// over unchanged (and usually improves) under finer channel scales.
    #[test]
    fn per_channel_output_error_stays_in_envelope_bound(
        stride in 1usize..3,
        ab_idx in 0usize..2,
        seed in 0u64..500,
    ) {
        let act_bits = [8u8, 16][ab_idx];
        let mut rng = seeded_rng(seed ^ 0x5CA1);
        let conv = he_conv2d(4, 4, ConvGeom::new(3, stride, 1), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let act = QParams::from_abs_max(1.0, act_bits);
        let per_channel = QConv2d::from_conv(&conv, 8).unwrap();
        let pc_err = float_out
            .max_abs_diff(&per_channel.forward(&input, act, PadMode::Zero).unwrap())
            .unwrap();
        // weight_params() is the per-tensor envelope, so this is exactly
        // the bound the per-tensor configuration must honour.
        let bound = error_bound(&conv, &per_channel, act, 1.0);
        prop_assert!(pc_err <= bound, "per-channel err {pc_err} exceeds envelope bound {bound}");
    }
}
