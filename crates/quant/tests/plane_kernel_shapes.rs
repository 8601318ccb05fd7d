//! The integer fast path against the i64 direct loop, **bit for bit**, over
//! the shapes the exact-f32 plane kernel sweeps in lane-rounded chunks:
//! every padded plane from 3×3 (one output pixel, fifteen junk lanes) to
//! 22×22, channel counts on both sides of the output-channel pairing and
//! of the plane/GEMM cutover, grouped layers and batches (junk lanes then
//! read the next group's or the next image's planes), through **one**
//! scratch that keeps shrinking and growing — plus saturated layers on both
//! sides of the kernel's `2^24` exactness guard.

use bconv_quant::qconv::{QConv2d, QConvScratch};
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelKind;
use bconv_tensor::Tensor;

/// Per-group input / output channel counts, group counts, batch sizes and
/// weight bitwidths (activations are 8-bit: w8a8 and w4a8).
const CIN: [usize; 4] = [1, 3, 16, 21];
const COUT: [usize; 4] = [1, 2, 16, 17];
const GROUPS: [usize; 2] = [1, 2];
const BATCH: [usize; 2] = [1, 3];
const WEIGHT_BITS: [u8; 2] = [8, 4];
const COMBOS: usize = CIN.len() * COUT.len() * GROUPS.len() * BATCH.len() * WEIGHT_BITS.len();

/// Runs combination `combo` (an index into the cross product above) on a
/// `ph`×`pw` padded plane through the fast path and the direct loop.
fn check(scratch: &mut QConvScratch, ph: usize, pw: usize, combo: usize) {
    let pick = |len: usize, stride: usize| (combo / stride) % len;
    let (cin, cout) = (CIN[pick(4, 1)], COUT[pick(4, 4)]);
    let (groups, n) = (GROUPS[pick(2, 16)], BATCH[pick(2, 32)]);
    let weight_bits = WEIGHT_BITS[pick(2, 64)];
    let mut rng = seeded_rng((combo * 10_000 + ph * 100 + pw) as u64);
    let conv = he_conv2d(cin * groups, cout * groups, ConvGeom::same(3), groups, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&conv, weight_bits, KernelKind::Im2colGemm).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    let padded = uniform_tensor([n, cin * groups, ph, pw], -1.2, 1.2, &mut rng);
    let what = format!("{ph}x{pw} n{n} {cin}->{cout} g{groups} w{weight_bits}a8");
    assert_fast_equals_direct(&q, act, &padded, scratch, &what);
}

fn assert_fast_equals_direct(
    q: &QConv2d,
    act: QParams,
    padded: &Tensor,
    scratch: &mut QConvScratch,
    what: &str,
) {
    let (mut fast, mut want) = (Tensor::default(), Tensor::default());
    q.forward_prepadded_into(padded, act, &mut fast, scratch).unwrap();
    q.forward_prepadded_direct_into(padded, act, &mut want, scratch).unwrap();
    assert_eq!(fast.shape(), want.shape(), "{what}");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&fast), bits(&want), "{what}");
}

#[test]
fn every_plane_shape_matches_the_direct_loop() {
    let mut scratch = QConvScratch::new();
    // Every plane, square and rectangular; the combination advances by a
    // stride coprime to `COMBOS`, so each one meets many plane shapes.
    // `pw` restarts at 3 after 22: the scratch shrinks as often as it grows.
    let mut combo = 0;
    for ph in 3..=22 {
        for pw in 3..=22 {
            check(&mut scratch, ph, pw, combo % COMBOS);
            combo += 37;
        }
    }
    // Every combination on the planes of a 1x1, an uneven, an 8x8 and a
    // 16x16 block and on a wide strip, largest first.
    for (ph, pw) in [(18, 18), (5, 22), (10, 10), (4, 6), (3, 3)] {
        for combo in 0..COMBOS {
            check(&mut scratch, ph, pw, combo);
        }
    }
}

#[test]
fn layers_on_both_sides_of_the_exactness_guard_match_the_direct_loop() {
    // w8a11 with every weight at +127 and every activation at 1022 or 1023:
    // all products share a sign, so the accumulator climbs to
    // 9·c_in·127·1023. At c_in = 14 that is 16 370 046, just under
    // 2^24 = 16 777 216 — the largest sums the f32 plane kernel may carry.
    // c_in = 15 (17 539 335) and c_in = 21 (24 555 069) must take the
    // integer GEMM: above 2^24 f32 only holds even integers, the coin-flip
    // activations make the partial sums odd about half the time, and at
    // c_in = 21 a third of the per-channel additions would round (a guard
    // loosened to 2^25 fails this test there).
    let mut scratch = QConvScratch::new();
    let act = QParams::from_abs_max(1.0, 11);
    assert_eq!(act.qmax(), 1023);
    for c_in in [14usize, 15, 21] {
        let weight = Tensor::filled([3, c_in, 3, 3], 0.5);
        let conv = Conv2d::new(weight, vec![0.25, 0.0, -1.0], ConvGeom::same(3), 1).unwrap();
        let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
        assert_eq!(q.packed_weights().max_abs(), 127);
        let coin = uniform_tensor([1, c_in, 10, 10], -1.0, 1.0, &mut seeded_rng(c_in as u64));
        let padded = coin.map(|v| if v < 0.0 { 1022.0 / 1023.0 } else { 1.0 });
        let what = format!("saturated w8a11, c_in {c_in}");
        assert_fast_equals_direct(&q, act, &padded, &mut scratch, &what);
    }
}
