//! Property-based parity between the two conv kernels.
//!
//! The im2col+GEMM kernel must agree with the direct loop across the
//! whole geometry space the paper's networks exercise: arbitrary
//! stride/padding, grouped convolution including the depthwise extreme,
//! and 1×1 pointwise layers. The tolerance is 1e-4 *relative* — in
//! practice the kernels agree bitwise (same accumulation order), and the
//! suite asserts that too on the drawn cases so a regression in either
//! property is caught.

use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind};
use bconv_tensor::pad::{pad2d, PadMode};
use bconv_tensor::Tensor;
use proptest::prelude::*;

/// Runs `conv` on `input` through one kernel implementation.
fn run_kernel(kind: KernelKind, conv: &Conv2d, input: &Tensor) -> Tensor {
    let p = conv.geom().padding;
    let padded = pad2d(input, p, p, PadMode::Zero).unwrap();
    let mut out = Tensor::default();
    let mut scratch = ConvScratch::new();
    conv.forward_prepadded_into(&padded, kind, &mut out, &mut scratch).unwrap();
    out
}

/// Max relative deviation of `a` from `b` (scaled by `b`'s magnitude).
fn rel_err(a: &Tensor, b: &Tensor) -> f32 {
    let mag = b.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    a.max_abs_diff(b).unwrap() / mag
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dense convolution, arbitrary stride/padding/kernel geometry.
    #[test]
    fn gemm_matches_direct_dense(
        h in 4usize..20,
        w in 4usize..20,
        c_in in 1usize..5,
        c_out in 1usize..7,
        k in 1usize..5,
        s in 1usize..3,
        p in 0usize..3,
        seed in 0u64..10_000,
    ) {
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let mut rng = seeded_rng(seed);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        prop_assert_eq!(direct.shape(), gemm.shape());
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "kernels diverged: rel err {err}");
        // Stronger implementation property: same accumulation order.
        prop_assert_eq!(direct.data(), gemm.data());
    }

    /// Grouped convolution, including the depthwise extreme
    /// (`groups == c_in`) of MobileNet-V1.
    #[test]
    fn gemm_matches_direct_grouped(
        h in 4usize..16,
        w in 4usize..16,
        cpg in 1usize..3,     // input channels per group
        mpg in 1usize..4,     // output channels per group
        groups in 1usize..5,
        k in 1usize..4,
        s in 1usize..3,
        seed in 0u64..10_000,
    ) {
        let p = k / 2;
        prop_assume!(h + 2 * p >= k && w + 2 * p >= k);
        let (c_in, c_out) = (cpg * groups, mpg * groups);
        let mut rng = seeded_rng(seed ^ 0x9E37);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), groups, &mut rng).unwrap();
        let input = uniform_tensor([1, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "grouped kernels diverged: rel err {err}");
    }

    /// 1×1 pointwise convolution (paper §II-C: blocking-invariant) over a
    /// batch, where im2col degenerates to a plain channel matmul.
    #[test]
    fn gemm_matches_direct_pointwise(
        n in 1usize..3,
        h in 1usize..12,
        w in 1usize..12,
        c_in in 1usize..9,
        c_out in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed ^ 0x5D1E);
        let conv = he_conv2d(c_in, c_out, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
        let input = uniform_tensor([n, c_in, h, w], -1.0, 1.0, &mut rng);
        let direct = run_kernel(KernelKind::Direct, &conv, &input);
        let gemm = run_kernel(KernelKind::Im2colGemm, &conv, &input);
        let err = rel_err(&gemm, &direct);
        prop_assert!(err < 1e-4, "pointwise kernels diverged: rel err {err}");
        prop_assert_eq!(direct.data(), gemm.data());
    }

    /// A reused scratch carries no state between calls: convolving two
    /// different layers back-to-back through one scratch matches fresh
    /// runs; and its packed-weight buffer, which holds lanes in one call
    /// and panels in the next, serves a cycle of a 3×3 stride-1, a strided
    /// 3×3 (`c3` outputs: full and tail panels), a 1×1 and the 3×3 stride-1
    /// layer again, each bit for bit the direct loop.
    #[test]
    fn scratch_reuse_is_stateless(
        h in 4usize..12,
        w in 4usize..12,
        c1 in 1usize..4,
        c2 in 1usize..4,
        c3 in 1usize..10,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed ^ 0xC0DE);
        let conv_a = he_conv2d(c1, c2, ConvGeom::same(3), 1, &mut rng).unwrap();
        let conv_b = he_conv2d(c2, c1, ConvGeom::same(1), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, c1, h, w], -1.0, 1.0, &mut rng);

        let fresh_a = run_kernel(KernelKind::Im2colGemm, &conv_a, &input);
        let fresh_b = run_kernel(KernelKind::Im2colGemm, &conv_b, &fresh_a);

        let mut scratch = ConvScratch::new();
        let mut out = Tensor::default();
        let pa = pad2d(&input, 1, 1, PadMode::Zero).unwrap();
        conv_a.forward_prepadded_into(&pa, KernelKind::Im2colGemm, &mut out, &mut scratch).unwrap();
        prop_assert_eq!(out.data(), fresh_a.data());
        let reused_a = out.clone();
        conv_b
            .forward_prepadded_into(&reused_a, KernelKind::Im2colGemm, &mut out, &mut scratch)
            .unwrap();
        prop_assert_eq!(out.data(), fresh_b.data());

        let strided = he_conv2d(c2, c3, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
        let pointwise = he_conv2d(c3, c1, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
        let mut x = input;
        for conv in [&conv_a, &strided, &pointwise, &conv_a] {
            let p = conv.geom().padding;
            let padded = pad2d(&x, p, p, PadMode::Zero).unwrap();
            conv.forward_prepadded_into(&padded, KernelKind::Im2colGemm, &mut out, &mut scratch)
                .unwrap();
            let direct = run_kernel(KernelKind::Direct, conv, &x);
            prop_assert_eq!(out.data(), direct.data());
            x = out.clone();
        }
    }
}
