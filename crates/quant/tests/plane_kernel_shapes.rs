//! The integer fast path against the i64 direct loop, **bit for bit**, over
//! the shapes its two exact-f32 kernels sweep: every padded plane from 3×3
//! (one output pixel) to 22×22 — so every output width 1..=20 and with it
//! every 8 / 4 / 2 / 1 split of the channel-lane kernel's pixel tiles and
//! every lane-rounded chunk count of the spatial-lane kernel — per-group
//! output channel counts on both sides of the kernel dispatch (8 | 9) and
//! with every kind of last channel tile (16 or 8 lanes, full or ragged),
//! reduction lengths up to `kk` 360, grouped layers
//! and batches, through **one** scratch and one dirty oversized output that
//! keep shrinking and growing across both kernels — plus saturated layers
//! on both sides of the kernels' `2^24` exactness guard, and NaN
//! activations, which every integer path must quantize alike.

use bconv_quant::qconv::{QConv2d, QConvScratch};
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelKind;
use bconv_tensor::Tensor;

/// Per-group input / output channel counts, group counts, batch sizes and
/// weight bitwidths (activations are 8-bit: w8a8 and w4a8). Up to eight
/// output channels per group keep the spatial lanes, the rest take channel
/// lanes: 16, 24 and 32 fill their 16- and 8-lane tiles, 9 / 15 / 17 / 33
/// leave a ragged last one.
const CIN: [usize; 5] = [1, 3, 16, 21, 40];
const COUT: [usize; 11] = [1, 2, 7, 8, 9, 15, 16, 17, 24, 32, 33];
const GROUPS: [usize; 2] = [1, 2];
const BATCH: [usize; 2] = [1, 3];
const WEIGHT_BITS: [u8; 2] = [8, 4];
const COMBOS: usize = CIN.len() * COUT.len() * GROUPS.len() * BATCH.len() * WEIGHT_BITS.len();

/// Buffers every check shares: the scratch and the fast path's output grow
/// to the largest layer seen and are reused, dirty, by smaller ones.
#[derive(Default)]
struct Buffers {
    scratch: QConvScratch,
    fast: Tensor,
}

/// Runs combination `combo` (an index into the cross product above) on a
/// `ph`×`pw` padded plane through the fast path and the direct loop. Every
/// third check sprinkles NaNs over the activations.
fn check(buf: &mut Buffers, ph: usize, pw: usize, combo: usize) {
    let mut at = combo;
    let mut pick = |len: usize| {
        let i = at % len;
        at /= len;
        i
    };
    let (cin, cout) = (CIN[pick(CIN.len())], COUT[pick(COUT.len())]);
    let (groups, n) = (GROUPS[pick(2)], BATCH[pick(2)]);
    let weight_bits = WEIGHT_BITS[pick(2)];
    let seed = combo * 10_000 + ph * 100 + pw;
    let mut rng = seeded_rng(seed as u64);
    let mut conv =
        he_conv2d(cin * groups, cout * groups, ConvGeom::same(3), groups, &mut rng).unwrap();
    for (m, b) in conv.bias_mut().iter_mut().enumerate() {
        *b = 0.37 * m as f32 - 1.1;
    }
    let q = QConv2d::from_conv_with_kernel(&conv, weight_bits, KernelKind::Im2colGemm).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    let mut padded = uniform_tensor([n, cin * groups, ph, pw], -1.2, 1.2, &mut rng);
    let nans = seed.is_multiple_of(3);
    if nans {
        sprinkle_nans(&mut padded);
    }
    let what = format!("{ph}x{pw} n{n} {cin}->{cout} g{groups} w{weight_bits}a8 nans={nans}");
    assert_fast_equals_direct(&q, act, &padded, buf, &what);
}

/// A NaN at both ends of the tensor and on every seventh element between.
fn sprinkle_nans(t: &mut Tensor) {
    let data = t.data_mut();
    let last = data.len() - 1;
    for i in (0..=last).step_by(7).chain([last]) {
        data[i] = f32::NAN;
    }
}

fn assert_fast_equals_direct(
    q: &QConv2d,
    act: QParams,
    padded: &Tensor,
    buf: &mut Buffers,
    what: &str,
) {
    // Whatever the previous, differently shaped layer left behind must not
    // show through: the kernels write every element of `out`.
    buf.fast.data_mut().fill(f32::NAN);
    let mut want = Tensor::default();
    q.forward_prepadded_into(padded, act, &mut buf.fast, &mut buf.scratch).unwrap();
    q.forward_prepadded_direct_into(padded, act, &mut want, &mut buf.scratch).unwrap();
    assert_eq!(buf.fast.shape(), want.shape(), "{what}");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&buf.fast), bits(&want), "{what}");
}

#[test]
fn every_plane_shape_matches_the_direct_loop() {
    let mut buf = Buffers::default();
    // Every plane, square and rectangular; the combination advances by a
    // stride coprime to `COMBOS`, so each one meets many plane shapes and
    // consecutive checks alternate between the two kernels. `pw` restarts
    // at 3 after 22: the buffers shrink as often as they grow.
    let mut combo = 0;
    for ph in 3..=22 {
        for pw in 3..=22 {
            check(&mut buf, ph, pw, combo % COMBOS);
            combo += 37;
        }
    }
    // Every combination on the planes of a 1x1, an uneven and an 8x8 block
    // and on a wide strip, largest first.
    for (ph, pw) in [(5, 22), (10, 10), (4, 6), (3, 3)] {
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
fn layers_on_both_sides_of_the_exactness_guard_match_the_direct_loop() {
    // w8a11 with every weight at +127 and every activation at 1022 or 1023:
    // all products share a sign, so the accumulator climbs to
    // 9·c_in·127·1023. At c_in = 14 that is 16 370 046, just under
    // 2^24 = 16 777 216 — the largest sums the f32 kernels may carry.
    // c_in = 15 (17 539 335) and c_in = 21 (24 555 069) must take the
    // integer GEMM: above 2^24 f32 only holds even integers, the coin-flip
    // activations make the partial sums odd about half the time, and at
    // c_in = 21 a third of the per-channel additions would round (a guard
    // loosened to 2^25 fails this test there). Three output channels pin
    // the guard for the spatial-lane kernel, sixteen for the channel-lane
    // one.
    let mut buf = Buffers::default();
    let act = QParams::from_abs_max(1.0, 11);
    assert_eq!(act.qmax(), 1023);
    for c_out in [3usize, 16] {
        for c_in in [14usize, 15, 21] {
            let weight = Tensor::filled([c_out, c_in, 3, 3], 0.5);
            let bias = (0..c_out).map(|m| 0.25 - 0.5 * m as f32).collect();
            let conv = Conv2d::new(weight, bias, ConvGeom::same(3), 1).unwrap();
            let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
            assert_eq!(q.packed_weights().max_abs(), 127);
            let coin = uniform_tensor([1, c_in, 10, 10], -1.0, 1.0, &mut seeded_rng(c_in as u64));
            let padded = coin.map(|v| if v < 0.0 { 1022.0 / 1023.0 } else { 1.0 });
            let what = format!("saturated w8a11, {c_in} -> {c_out}");
            assert_fast_equals_direct(&q, act, &padded, &mut buf, &what);
        }
    }
}

#[test]
fn nan_activations_quantize_alike_on_every_integer_path() {
    // `quantize_value(NaN)` used to read the NaN's bit pattern (direct
    // loop: outputs near -4·10^5), truncate it to 0 as `i16` (GEMM) and
    // stay NaN as `f32` (plane kernels). The shape sweep covers the two
    // f32 kernels; here the same NaN-sprinkled maps also go through the
    // GEMM's i32 and i64 accumulators (16-bit activations put a 3×3 layer
    // past 2^24) and its pointwise and strided patch builders.
    let mut buf = Buffers::default();
    let mut rng = seeded_rng(17);
    for (c_in, c_out, geom, act_bits) in [
        (16usize, 16usize, ConvGeom::same(3), 8u8),
        (16, 3, ConvGeom::same(3), 8),
        (16, 16, ConvGeom::same(3), 16),
        (64, 9, ConvGeom::same(3), 16),
        (16, 16, ConvGeom::same(1), 8),
        (16, 16, ConvGeom::new(3, 2, 0), 8),
    ] {
        let conv = he_conv2d(c_in, c_out, geom, 1, &mut rng).unwrap();
        let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
        let act = QParams::from_abs_max(1.0, act_bits);
        let mut padded = uniform_tensor([2, c_in, 9, 11], -1.2, 1.2, &mut rng);
        sprinkle_nans(&mut padded);
        let what = format!("NaNs, {c_in} -> {c_out} k{} s{} a{act_bits}", geom.kernel, geom.stride);
        assert_fast_equals_direct(&q, act, &padded, &mut buf, &what);
        assert!(buf.fast.data().iter().all(|v| v.is_finite()), "{what}");
    }
}
