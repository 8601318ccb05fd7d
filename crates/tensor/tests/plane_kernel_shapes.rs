//! The float plane kernel against the direct loop, **bit for bit**, over
//! the shapes it sweeps in 16-lane chunks: every padded plane from 3×3 to
//! 22×22 (both sides of the one-chunk minimum below which the GEMM keeps
//! the layer), per-group channel counts that leave every remainder of the
//! four-channel passes, grouped layers and batches, non-zero bias, through
//! **one** scratch and one NaN-filled output that keep shrinking and
//! growing — and through both entry points that reach the kernel.
//! It is the twin of `crates/quant/tests/plane_kernel_shapes.rs`.
//!
//! Inputs are random floats, which is what makes this a test of the
//! accumulation *order*: a fused multiply-add, a split chain or any other
//! reassociation changes the rounding of nearly every output, so an
//! accidental one fails here with near certainty. Signed zeros, subnormals
//! and infinities sit at both ends of every channel plane, next to the
//! wrap columns whose lanes are junk, so a junk lane that leaked into an
//! output would show.

use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind, PackedWeights};
use bconv_tensor::{Tensor, TensorError};

/// Per-group input / output channel counts, group counts and batch sizes.
const CIN: [usize; 4] = [1, 3, 16, 21];
const COUT: [usize; 8] = [1, 2, 3, 4, 5, 7, 16, 17];
const GROUPS: [usize; 2] = [1, 2];
const BATCH: [usize; 2] = [1, 3];
const COMBOS: usize = CIN.len() * COUT.len() * GROUPS.len() * BATCH.len();

/// Buffers every check shares: the scratch and the output grow to the
/// largest layer seen and are reused by smaller ones.
struct Buffers {
    scratch: ConvScratch,
    out: Tensor,
}

/// A `cin -> cout` (per group) 3×3 stride-1 layer with a bias on every
/// channel, and an `n`-image padded input with special values at both ends
/// of every channel plane.
fn fixture(
    (cin, cout, groups, n): (usize, usize, usize, usize),
    (ph, pw): (usize, usize),
    seed: u64,
) -> (Conv2d, Tensor) {
    let mut rng = seeded_rng(seed);
    let mut conv =
        he_conv2d(cin * groups, cout * groups, ConvGeom::same(3), groups, &mut rng).unwrap();
    for (m, b) in conv.bias_mut().iter_mut().enumerate() {
        *b = 0.37 * m as f32 - 1.1;
    }
    let mut padded = uniform_tensor([n, cin * groups, ph, pw], -1.5, 1.5, &mut rng);
    let specials = [-0.0, 1e-40, f32::INFINITY, 0.0, -1e-41, f32::NEG_INFINITY];
    for (c, plane) in padded.data_mut().chunks_exact_mut(ph * pw).enumerate() {
        let last = plane.len() - 1;
        plane[0] = specials[c % 6];
        plane[1] = specials[(c + 1) % 6];
        plane[last - 1] = specials[(c + 3) % 6];
        plane[last] = specials[(c + 2) % 6];
    }
    (conv, padded)
}

/// Same bits, or both NaN: an infinity times a zero is NaN in both
/// kernels, and a NaN's payload is not part of the contract.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Runs the layer through the direct loop and through every entry point of
/// the fast path, each into a NaN-filled `out` larger than the result.
fn assert_fast_equals_direct(conv: &Conv2d, padded: &Tensor, buf: &mut Buffers, what: &str) {
    let mut want = Tensor::default();
    conv.forward_prepadded_into(padded, KernelKind::Direct, &mut want, &mut buf.scratch).unwrap();
    let packed = PackedWeights::pack(conv);
    type Entry<'a> = &'a dyn Fn(&mut Tensor, &mut ConvScratch) -> Result<(), TensorError>;
    let entries: [(&str, Entry); 2] = [
        ("PackedWeights", &|out, s| packed.forward_prepadded_into(conv, padded, out, s)),
        ("Conv2d", &|out, s| conv.forward_prepadded_into(padded, KernelKind::Im2colGemm, out, s)),
    ];
    for (entry, run) in entries {
        let [n, _, ph, pw] = padded.shape().dims();
        buf.out.reset([n, conv.c_out() + 1, ph, pw]);
        buf.out.data_mut().fill(f32::NAN);
        run(&mut buf.out, &mut buf.scratch).unwrap();
        assert_eq!(buf.out.shape(), want.shape(), "{what} via {entry}");
        for (i, (&got, &want)) in buf.out.data().iter().zip(want.data()).enumerate() {
            assert!(same(got, want), "{what} via {entry}: element {i} is {got:e}, want {want:e}");
        }
    }
}

/// Runs combination `combo` (an index into the cross product of the
/// constants above) on a `ph`×`pw` padded plane.
fn check(buf: &mut Buffers, ph: usize, pw: usize, combo: usize) {
    let pick = |len: usize, stride: usize| (combo / stride) % len;
    let (cin, cout) = (CIN[pick(4, 1)], COUT[pick(8, 4)]);
    let (groups, n) = (GROUPS[pick(2, 32)], BATCH[pick(2, 64)]);
    let seed = (combo * 10_000 + ph * 100 + pw) as u64;
    let (conv, padded) = fixture((cin, cout, groups, n), (ph, pw), seed);
    let what = format!("{ph}x{pw} n{n} {cin}->{cout} g{groups}");
    assert_fast_equals_direct(&conv, &padded, buf, &what);
}

#[test]
fn every_plane_shape_matches_the_direct_loop() {
    let mut buf = Buffers { scratch: ConvScratch::new(), out: Tensor::default() };
    // Every plane, square and rectangular; the combination advances by a
    // stride coprime to `COMBOS`, so each one meets many plane shapes.
    // `pw` restarts at 3 after 22: the buffers shrink as often as they grow.
    let mut combo = 0;
    for ph in 3..=22 {
        for pw in 3..=22 {
            check(&mut buf, ph, pw, combo % COMBOS);
            combo += 37;
        }
    }
    // Every combination on the planes of an 8x8 and a 16x16 block, a wide
    // strip, the smallest plane the kernel takes (5x6: a span of exactly
    // one chunk) and the largest it leaves to the GEMM (5x5), largest first.
    for (ph, pw) in [(18, 18), (5, 22), (10, 10), (5, 6), (5, 5)] {
        for combo in 0..COMBOS {
            check(&mut buf, ph, pw, combo);
        }
    }
}

#[test]
fn wide_layers_and_block_planes_match_the_direct_loop() {
    let mut buf = Buffers { scratch: ConvScratch::new(), out: Tensor::default() };
    // The kernel has no reduction-length cutover: a 64-channel layer
    // (kk = 576) runs the same sweep as a 3-channel one. The planes are the
    // repo benchmark's: a 56x56 block and the 98x98 calibration map.
    for (shape, plane) in [
        ((64, 64, 1, 1), (12, 12)),
        ((40, 9, 1, 2), (9, 30)),
        ((3, 4, 1, 1), (58, 58)),
        ((16, 16, 1, 1), (98, 98)),
        ((1, 1, 8, 1), (34, 34)),
    ] {
        let (conv, padded) = fixture(shape, plane, 77);
        assert_fast_equals_direct(&conv, &padded, &mut buf, &format!("{shape:?} on {plane:?}"));
    }
}
