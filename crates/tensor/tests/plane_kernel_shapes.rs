//! The float fast path's two 3×3 sweeps against the direct loop, **bit for
//! bit**, over every small shape: every padded plane from 3×3 (one output)
//! to 22×22 — so every output width 1..=20 and with it every 8 / 4 / 2 / 1
//! mix of the channel-lane tile's pixels, and both sides of the
//! spatial-lane sweep's one-chunk minimum below which thin layers run the
//! channel-lane tile — per-group output channel counts on both sides of
//! the axis choice (7 | 8), with every remainder of the spatial-lane
//! sweep's four-channel passes and every kind of last channel tile (16 or
//! 8 lanes, full or ragged), grouped layers and batches, non-zero bias,
//! through **one** scratch and one NaN-filled output that keep shrinking
//! and growing — and through every entry point that reaches the sweeps,
//! the fused chains' store into a region of a NaN-bordered map of wider
//! planes with a ReLU folded in included. It is the twin of
//! `crates/quant/tests/plane_kernel_shapes.rs`.
//!
//! Inputs are random floats, which is what makes this a test of the
//! accumulation *order*: a fused multiply-add, a split chain or any other
//! reassociation changes the rounding of nearly every output, so an
//! accidental one fails here with near certainty. Signed zeros, subnormals,
//! infinities and NaNs sit at both ends of every channel plane, next to the
//! wrap columns whose lanes are junk in the spatial-lane sweep, so a junk
//! lane that leaked into an output would show.

use bconv_core::blocking::BlockGrid;
use bconv_core::BlockConv2d;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind, KernelPolicy, OutGeom, PackedWeights};
use bconv_tensor::{PadMode, Tensor, TensorError};

/// Per-group input / output channel counts, group counts and batch sizes.
/// Up to seven output channels per group take the spatial lanes, the rest
/// channel lanes: 8, 16 and 24 fill their 8- and 16-lane tiles, 9 /
/// 12 / 17 / 33 leave a ragged last one.
const CIN: [usize; 4] = [1, 3, 16, 21];
const COUT: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 33];
const GROUPS: [usize; 2] = [1, 2];
const BATCH: [usize; 2] = [1, 3];
const COMBOS: usize = CIN.len() * COUT.len() * GROUPS.len() * BATCH.len();

/// Buffers every check shares: the scratch and the output grow to the
/// largest layer seen and are reused by smaller ones.
#[derive(Default)]
struct Buffers {
    scratch: ConvScratch,
    out: Tensor,
}

/// A `cin -> cout` (per group) 3×3 stride-1 layer with a bias on every
/// channel, and an `n`-image padded input with special values at both ends
/// of every channel plane. The layer pads nothing itself, so a one-block
/// `BlockConv2d` convolves exactly the planes the other entries are given.
fn fixture(
    (cin, cout, groups, n): (usize, usize, usize, usize),
    (ph, pw): (usize, usize),
    seed: u64,
) -> (Conv2d, Tensor) {
    let mut rng = seeded_rng(seed);
    let mut conv =
        he_conv2d(cin * groups, cout * groups, ConvGeom::new(3, 1, 0), groups, &mut rng).unwrap();
    for (m, b) in conv.bias_mut().iter_mut().enumerate() {
        *b = 0.37 * m as f32 - 1.1;
    }
    let mut padded = uniform_tensor([n, cin * groups, ph, pw], -1.5, 1.5, &mut rng);
    let specials = [-0.0, 1e-40, f32::INFINITY, f32::NAN, 0.0, -1e-41, f32::NEG_INFINITY];
    for (c, plane) in padded.data_mut().chunks_exact_mut(ph * pw).enumerate() {
        let last = plane.len() - 1;
        plane[0] = specials[c % 7];
        plane[1] = specials[(c + 1) % 7];
        plane[last - 1] = specials[(c + 3) % 7];
        plane[last] = specials[(c + 2) % 7];
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
    let [n, _, ph, pw] = padded.shape().dims();
    let mut want = Tensor::default();
    conv.forward_prepadded_into(padded, KernelKind::Direct, &mut want, &mut buf.scratch).unwrap();
    let packed = PackedWeights::pack(conv);
    let grid = BlockGrid::single(ph, pw);
    let policy = KernelPolicy::Im2colGemm;
    let block = BlockConv2d::plan_with_kernel(conv.clone(), grid, PadMode::Zero, policy).unwrap();
    let packed_block = block.clone().with_packed_weights();
    type Entry<'a> = &'a dyn Fn(&mut Tensor, &mut Buffers) -> Result<(), TensorError>;
    let entries: [(&str, Entry); 4] = [
        ("PackedWeights", &|out, b| {
            packed.forward_prepadded_into(conv, padded, out, &mut b.scratch)
        }),
        ("Conv2d", &|out, b| {
            conv.forward_prepadded_into(padded, KernelKind::Im2colGemm, out, &mut b.scratch)
        }),
        ("BlockConv2d", &|out, b| block.conv_block_into(padded, out, &mut b.scratch)),
        ("packed BlockConv2d", &|out, b| packed_block.conv_block_into(padded, out, &mut b.scratch)),
    ];
    for (entry, run) in entries {
        let mut out = std::mem::take(&mut buf.out);
        out.reset([n, conv.c_out() + 1, ph, pw]);
        out.data_mut().fill(f32::NAN);
        run(&mut out, buf).unwrap();
        assert_eq!(out.shape(), want.shape(), "{what} via {entry}");
        for (i, (&got, &want)) in out.data().iter().zip(want.data()).enumerate() {
            assert!(same(got, want), "{what} via {entry}: element {i} is {got:e}, want {want:e}");
        }
        buf.out = out;
    }
    // The fused-chain entry: stored at a region of a NaN-filled map of
    // wider planes, ReLU'd on the way (`relu_inplace`'s `v < 0.0` test);
    // the border must keep the fill's bits.
    let [_, c_out, oh, ow] = want.shape().dims();
    let (top, left, [map_h, map_w]) = (1, 2, [oh + 3, ow + 4]);
    let mut map = vec![f32::NAN; n * c_out * map_h * map_w];
    let at = OutGeom::region(top, left, [map_h, map_w]);
    packed.forward_prepadded_at(conv, padded, &mut map, at, true).unwrap();
    for (p, plane) in map.chunks_exact(map_h * map_w).enumerate() {
        for (i, &got) in plane.iter().enumerate() {
            let (y, x) = (i / map_w, i % map_w);
            if (top..top + oh).contains(&y) && (left..left + ow).contains(&x) {
                let want = want.data()[(p * oh + y - top) * ow + x - left];
                let want = if want < 0.0 { 0.0 } else { want };
                assert!(same(got, want), "{what} stored at: plane {p} ({y}, {x}) is {got:e}");
            } else {
                assert_eq!(got.to_bits(), f32::NAN.to_bits(), "{what} stored at: border touched");
            }
        }
    }
}

/// Runs combination `combo` (an index into the cross product of the
/// constants above, `CIN` fastest) on a `ph`×`pw` padded plane.
fn check(buf: &mut Buffers, ph: usize, pw: usize, combo: usize) {
    let mut at = combo;
    let mut pick = |len: usize| {
        let i = at % len;
        at /= len;
        i
    };
    let (cin, cout) = (CIN[pick(CIN.len())], COUT[pick(COUT.len())]);
    let (groups, n) = (GROUPS[pick(2)], BATCH[pick(2)]);
    let seed = (combo * 10_000 + ph * 100 + pw) as u64;
    let (conv, padded) = fixture((cin, cout, groups, n), (ph, pw), seed);
    let what = format!("{ph}x{pw} n{n} {cin}->{cout} g{groups}");
    assert_fast_equals_direct(&conv, &padded, buf, &what);
}

#[test]
fn every_plane_shape_matches_the_direct_loop() {
    let mut buf = Buffers::default();
    // Every plane, square and rectangular; the combination advances by a
    // stride coprime to `COMBOS`, so each one meets many plane shapes and
    // consecutive checks alternate between the kernels. `pw` restarts at 3
    // after 22: the buffers shrink as often as they grow.
    let mut combo = 0;
    for ph in 3..=22 {
        for pw in 3..=22 {
            check(&mut buf, ph, pw, combo % COMBOS);
            combo += 37;
        }
    }
    // Every combination on a wide strip, the plane of an 8x8 block, the
    // smallest plane the spatial-lane sweep takes (5x6: a span of exactly
    // one chunk), the largest it leaves to the channel-lane tile (5x5), and
    // the planes of a 1x2 and a 1x1 output, largest first.
    for (ph, pw) in [(5, 22), (10, 10), (5, 6), (5, 5), (3, 4), (3, 3)] {
        for combo in 0..COMBOS {
            check(&mut buf, ph, pw, combo);
        }
    }
    // Every output width under every channel count (the first `COUT.len()`
    // combinations per `CIN` entry), dense and grouped: each 8 / 4 / 2 / 1
    // split meets full, ragged, one- and two-vector channel tiles.
    for pw in 3..=22 {
        for cout in 0..COUT.len() {
            for groups in 0..2 {
                check(&mut buf, 4, pw, 1 + CIN.len() * (cout + COUT.len() * groups));
            }
        }
    }
}

#[test]
fn wide_layers_and_block_planes_match_the_direct_loop() {
    let mut buf = Buffers::default();
    // Neither sweep has a reduction-length cutover: a 64-channel layer
    // (kk = 576) runs the same sweep as a 3-channel one. The planes are the
    // repo benchmark's: 16x16 and 56x56 blocks and the 98x98 calibration map.
    for (shape, plane) in [
        ((64, 64, 1, 1), (12, 12)),
        ((40, 9, 1, 2), (9, 30)),
        ((3, 4, 1, 1), (58, 58)),
        ((4, 6, 1, 1), (58, 58)),
        ((16, 16, 1, 1), (98, 98)),
        ((8, 16, 1, 2), (18, 18)),
        ((1, 1, 8, 1), (34, 34)),
        ((1, 8, 4, 1), (34, 34)),
    ] {
        let (conv, padded) = fixture(shape, plane, 77);
        assert_fast_equals_direct(&conv, &padded, &mut buf, &format!("{shape:?} on {plane:?}"));
    }
}

#[test]
fn packed_weights_of_another_layer_are_a_typed_error() {
    // The packed layout is chosen by the layer's shape, and the kernels
    // index it by the shape of the layer they are handed: a mismatch must
    // be refused, not read as somebody else's weights (8→32 lane-packs to
    // the very length 16→16 does).
    let (conv, padded) = fixture((16, 16, 1, 1), (10, 10), 5);
    let packed = PackedWeights::pack(&conv);
    let (mut out, mut scratch) = (Tensor::default(), ConvScratch::new());
    packed.forward_prepadded_into(&conv, &padded, &mut out, &mut scratch).unwrap();
    let others = [
        fixture((8, 8, 2, 1), (10, 10), 5).0,
        fixture((16, 8, 1, 1), (10, 10), 5).0,
        fixture((16, 17, 1, 1), (10, 10), 5).0,
        fixture((8, 32, 1, 1), (10, 10), 5).0,
        he_conv2d(16, 16, ConvGeom::new(3, 2, 0), 1, &mut seeded_rng(5)).unwrap(),
        he_conv2d(16, 16, ConvGeom::new(1, 1, 0), 1, &mut seeded_rng(5)).unwrap(),
    ];
    for other in &others {
        let err = packed.forward_prepadded_into(other, &padded, &mut out, &mut scratch);
        assert!(matches!(err, Err(TensorError::InvalidParameter { .. })), "{err:?}");
    }
}
