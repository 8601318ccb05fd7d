//! The integer fast path against the i64 direct loop, **bit for bit**, over
//! the shapes its two exact-f32 sweeps run: every padded plane from 3×3
//! (one output pixel) to 22×22 — so every output width 1..=20 and with it
//! every 8 / 4 / 2 / 1 split of the channel-lane tile's pixels and every
//! chunk count of the spatial-lane sweep, down to the spans narrower than
//! one chunk that it leaves to the tile — per-group output channel counts
//! on both sides of the axis choice (7 | 8), with every remainder of the
//! spatial-lane sweep's four-channel passes and every kind of last channel
//! tile (16 or 8 lanes, full or ragged),
//! reduction lengths up to `kk` 360, grouped layers
//! and batches, through **one** scratch and one dirty oversized output that
//! keep shrinking and growing across both sweeps — plus saturated layers
//! on both sides of the kernels' `2^24` exactness guard, and NaN
//! activations, which every integer path must quantize alike. The
//! fused-chain entry is swept too: every check also stores through a ReLU
//! and a requantization into a region of a NaN-bordered map of wider
//! planes, as a fused stage does, and every zero halo a block may declare,
//! on every small plane, must change no bit of the channel-lane tile's
//! output.

use bconv_quant::qconv::{QConv2d, QConvScratch, QuantChainOp};
use bconv_quant::qgemm::Epilogue;
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{KernelKind, OutGeom};
use bconv_tensor::Tensor;

/// Per-group input / output channel counts, group counts, batch sizes and
/// weight bitwidths (activations are 8-bit: w8a8 and w4a8). Up to seven
/// output channels per group take the spatial lanes, the rest channel
/// lanes: 8, 16, 24 and 32 fill their 16- and 8-lane tiles, 9 / 15 / 17 /
/// 33 leave a ragged last one.
const CIN: [usize; 5] = [1, 3, 16, 21, 40];
const COUT: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 24, 32, 33];
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
    let want = assert_fast_equals_direct(&q, act, &padded, buf, &what);
    assert_stored_at_equals_direct(&q, act, &padded, &want, &what);
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
) -> Tensor {
    // Whatever the previous, differently shaped layer left behind must not
    // show through: the kernels write every element of `out`.
    buf.fast.data_mut().fill(f32::NAN);
    let mut want = Tensor::default();
    q.forward_prepadded_into(padded, act, &mut buf.fast, &mut buf.scratch).unwrap();
    q.forward_prepadded_direct_into(padded, act, &mut want, &mut buf.scratch).unwrap();
    assert_eq!(buf.fast.shape(), want.shape(), "{what}");
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&buf.fast), bits(&want), "{what}");
    want
}

/// The fused-chain entry: the layer on the quantized block, stored at a
/// region of a NaN-filled map of wider planes through a ReLU and a
/// requantization, must write the direct loop's outputs sent through the
/// same epilogue — every interior bit — and leave the border untouched.
fn assert_stored_at_equals_direct(
    q: &QConv2d,
    act: QParams,
    padded: &Tensor,
    direct: &Tensor,
    what: &str,
) {
    let op = QuantChainOp::new(q.clone(), act);
    assert!(op.reads_quantized(), "{what}: every swept layer runs an exact-f32 sweep");
    let [n, c_out, oh, ow] = direct.shape().dims();
    let (top, left, [map_h, map_w]) = (2, 1, [oh + 3, ow + 4]);
    let epi = Epilogue { relu: true, requant: Some(QParams::from_abs_max(0.8, 8)) };
    let acts = padded.map(|v| act.quantize_value_f32(v));
    let mut map = vec![f32::NAN; n * c_out * map_h * map_w];
    let at = OutGeom::region(top, left, [map_h, map_w]);
    op.forward_quantized_at(&acts, [0; 4], &mut map, at, epi, None).unwrap();
    for (p, plane) in map.chunks_exact(map_h * map_w).enumerate() {
        for (i, &got) in plane.iter().enumerate() {
            let (y, x) = (i / map_w, i % map_w);
            let want = if (top..top + oh).contains(&y) && (left..left + ow).contains(&x) {
                epi.apply(direct.data()[(p * oh + y - top) * ow + x - left])
            } else {
                f32::NAN
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{what} stored at: plane {p} ({y}, {x})");
        }
    }
}

#[test]
fn every_plane_shape_matches_the_direct_loop() {
    let mut buf = Buffers::default();
    // Every plane, square and rectangular; the combination advances by a
    // stride coprime to `COMBOS`, so each one meets many plane shapes and
    // consecutive checks alternate between the two sweeps. `pw` restarts
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

/// Per-group output channel counts of the zero-halo sweep: every kind of
/// channel tile the channel-lane kernel runs — one full or ragged 16-lane
/// tile, a full or ragged 8-lane last one, three tiles.
const HALO_COUT: [usize; 5] = [9, 16, 17, 24, 33];

/// One channel-lane stage per (output channels, groups, input channels per
/// group, batch) of the halo sweep.
fn halo_stages() -> Vec<(QuantChainOp, usize)> {
    let act = QParams::from_abs_max(1.0, 8);
    let mut stages = Vec::new();
    for (i, &cout) in HALO_COUT.iter().enumerate() {
        for groups in [1usize, 2] {
            let (cin, n) = (1 + (i + groups) % 3, 1 + i % 2);
            let mut rng = seeded_rng((100 * cout + groups) as u64);
            let mut conv =
                he_conv2d(cin * groups, cout * groups, ConvGeom::same(3), groups, &mut rng)
                    .unwrap();
            for (m, b) in conv.bias_mut().iter_mut().enumerate() {
                *b = 0.29 * m as f32 - 2.3;
            }
            let kernel = KernelKind::Im2colGemm;
            let op = QuantChainOp::from_conv_with_kernel(&conv, 8, act, kernel).unwrap();
            assert!(op.reads_quantized(), "{cin}->{cout} g{groups} runs the channel-lane kernel");
            stages.push((op, n));
        }
    }
    stages
}

/// Runs `op` on `n` images of a `ph × pw` padded block whose `halo` holds
/// zeros and whose interior holds random quantized activations, declaring
/// the halo and declaring none, and through the direct loop on the
/// dequantized block: all three must agree bit for bit.
fn check_halo(op: &QuantChainOp, n: usize, [ph, pw]: [usize; 2], halo: [usize; 4], seed: u64) {
    let [top, bottom, left, right] = halo;
    let (act, c_in) = (op.act_params(), op.qconv().c_in());
    let qmax = act.qmax() as f32;
    let mut acts = uniform_tensor([n, c_in, ph, pw], -qmax, qmax, &mut seeded_rng(seed));
    for (i, v) in acts.data_mut().iter_mut().enumerate() {
        let (y, x) = (i / pw % ph, i % pw);
        let in_halo = y < top || y + bottom >= ph || x < left || x + right >= pw;
        *v = if in_halo { 0.0 } else { v.round() };
    }
    let (oh, ow) = (ph - 2, pw - 2);
    let mut scratch = QConvScratch::new();
    let run = |zero: [usize; 4]| {
        let mut out = vec![f32::NAN; n * op.qconv().c_out() * oh * ow];
        let at = OutGeom::compact(oh, ow);
        op.forward_quantized_at(&acts, zero, &mut out, at, Epilogue::NONE, None).unwrap();
        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    };
    let (skipped, full) = (run(halo), run([0; 4]));
    let mut want = Tensor::default();
    let dequantized = acts.map(|v| v * act.scale());
    let q = op.qconv();
    q.forward_prepadded_direct_into(&dequantized, act, &mut want, &mut scratch).unwrap();
    let direct = want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let what = format!("{ph}x{pw} halo {halo:?} n{n} {c_in}->{} g{}", q.c_out(), q.groups());
    assert_eq!(skipped, full, "declared vs undeclared halo, {what}");
    assert_eq!(skipped, direct, "declared halo vs the direct loop, {what}");
}

#[test]
fn declared_zero_halos_change_no_bit() {
    let stages = halo_stages();
    // Every output plane 1×1 … 9×9 — so every 8 / 4 / 2 / 1 split of a row,
    // tiles that start, end, or start and end their row — under every
    // `[top, bottom, left, right]` halo of 0, 1 or 2 rows / columns that
    // fits the block; the stage advances by a stride coprime to their
    // count, so each meets every plane width and many halos.
    let mut k = 0;
    for ph in 3..=11 {
        for pw in 3..=11 {
            for code in 0..81 {
                let halo = [code % 3, code / 3 % 3, code / 9 % 3, code / 27];
                if halo[0] + halo[1] > ph || halo[2] + halo[3] > pw {
                    continue;
                }
                let (op, n) = &stages[k % stages.len()];
                check_halo(op, *n, [ph, pw], halo, k as u64);
                k += 7;
            }
        }
    }
    // Every stage on the halos of a fused block: an 8×8 block inside the
    // map, on each edge and in each corner, and a 1×1 block's.
    for (op, n) in &stages {
        for halo in [[1, 1, 1, 1], [0, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 1], [2, 0, 0, 2]] {
            check_halo(op, *n, [10, 10], halo, k as u64);
            check_halo(op, *n, [3, 3], halo.map(|p| p.min(1)), k as u64 + 1);
            k += 2;
        }
    }
}

#[test]
fn a_declared_halo_wider_than_the_block_is_an_error() {
    let (op, _) = &halo_stages()[0];
    let acts = Tensor::zeros([1, op.qconv().c_in(), 4, 5]);
    let mut out = vec![0.0; op.qconv().c_out() * 2 * 3];
    let at = OutGeom::compact(2, 3);
    for halo in [[3, 2, 0, 0], [0, 0, 3, 3], [0, 5, 0, 0]] {
        let res = op.forward_quantized_at(&acts, halo, &mut out, at, Epilogue::NONE, None);
        assert!(res.is_err(), "{halo:?}");
    }
    op.forward_quantized_at(&acts, [2, 2, 2, 3], &mut out, at, Epilogue::NONE, None).unwrap();
}

/// A caller that declares a halo whose cells are not zero — a replicate
/// halo, a stale buffer — trips the kernel entry's debug check.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "declared zero halo is not zero")]
fn debug_builds_check_that_a_declared_halo_is_zero() {
    let (op, _) = &halo_stages()[0];
    let mut acts = Tensor::zeros([1, op.qconv().c_in(), 5, 5]);
    // The last cell of the first plane's bottom row.
    acts.data_mut()[24] = 1.0;
    let mut out = vec![0.0; op.qconv().c_out() * 9];
    let at = OutGeom::compact(3, 3);
    let _ = op.forward_quantized_at(&acts, [0, 1, 0, 0], &mut out, at, Epilogue::NONE, None);
}
