//! The pooled store of both 3×3 sweeps against the convolution stored
//! compact and pooled by `max_pool2d_at`, **bit for bit**: a `k × k` max
//! pool (k = 2 and 3) folded into the store of the float (ordered) and the
//! integer (exact) entries, `PackedWeights::forward_prepadded_pooled_at`
//! and `QuantChainOp::forward_quantized_pooled_at`, with and without a folded ReLU
//! before and after the pool, into a region of a NaN-filled map of wider
//! planes whose border must keep its bits.
//!
//! Both entries sweep one rectangle of whole pooling windows at a time
//! into a stage and pool it from there. The shapes take both sweeps: thin
//! layers on rectangles whose span fills a chunk run the spatial-lane
//! sweep — whose last chunk is moved back onto lanes its predecessor
//! already stored, and whose chunks start at odd columns and split pooling
//! windows between them — and the rest the channel-lane tile, whose pixel
//! tiles split windows too; planes too wide for one row of windows in the
//! stage split it by columns. Float inputs
//! carry NaNs and infinities, and a layer with zero weights and a `-0.0`
//! bias over inputs of both signs stores both signed zeros into the same
//! windows, so the fold must keep the pool's order exactly.

use bconv_quant::qconv::{QConv2d, QConvScratch, QuantChainOp};
use bconv_quant::qgemm::Epilogue;
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind, OutGeom, PackedWeights};
use bconv_tensor::pool::max_pool2d_at;
use bconv_tensor::Tensor;

/// Per-group `(input, output)` channel counts: up to seven outputs take the
/// spatial lanes wherever the span fills a chunk, eight and up the channel
/// lanes (one full 8-lane tile, one 16-lane tile, a ragged one).
const CHANNELS: [(usize, usize); 6] = [(3, 4), (2, 1), (3, 7), (4, 8), (5, 16), (3, 17)];

/// The ReLUs folded before and after the pool.
const RELUS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// The accumulator span of the spatial-lane sweep on an `oh × ow` output,
/// and its chunk width (the sweep's own constants).
fn span(oh: usize, ow: usize) -> usize {
    (oh - 1) * (ow + 2) + ow
}
const LANES: usize = 16;

/// A `cin -> cout` (per group) 3×3 stride-1 layer with a bias on every
/// channel and its `n`-image padded input, with NaNs and infinities at both
/// ends of every plane.
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
    let padded = uniform_tensor([n, cin * groups, ph, pw], -1.5, 1.5, &mut rng);
    (conv, padded)
}

/// The `[n, c, h, w]` tensor whose element `(ni, c, y, x)` is `f(ni, c, y, x)`.
fn tensor4(
    dims @ [n, c, h, w]: [usize; 4],
    f: impl Fn(usize, usize, usize, usize) -> f32,
) -> Tensor {
    let data = (0..n * c * h * w).map(|i| f(i / (c * h * w), i / (h * w) % c, i / w % h, i % w));
    Tensor::from_vec(dims, data.collect()).unwrap()
}

/// Marks every plane's ends with a NaN and an infinity.
fn specials(padded: &mut Tensor) {
    let [.., ph, pw] = padded.shape().dims();
    for plane in padded.data_mut().chunks_exact_mut(ph * pw) {
        let last = plane.len() - 1;
        (plane[0], plane[last - 1], plane[last]) = (f32::NAN, f32::INFINITY, f32::NAN);
    }
}

/// Stores `oh × ow` outputs of `planes` planes through `run` at a region of
/// a NaN-filled map of wider planes, pooled `k × k`, and checks every cell
/// against `want`'s compact pooled planes — the border keeps its bits.
fn assert_region(
    planes: usize,
    (oh, ow, k): (usize, usize, usize),
    want: &[f32],
    run: impl FnOnce(&mut [f32], OutGeom),
    what: &str,
) {
    let (sh, sw) = (oh / k, ow / k);
    let (top, left, [map_h, map_w]) = (1, 2, [sh + 3, sw + 4]);
    let mut map = vec![f32::NAN; planes * map_h * map_w];
    run(&mut map, OutGeom::region(top, left, [map_h, map_w]));
    for (p, plane) in map.chunks_exact(map_h * map_w).enumerate() {
        for (i, &got) in plane.iter().enumerate() {
            let (y, x) = (i / map_w, i % map_w);
            let want = if (top..top + sh).contains(&y) && (left..left + sw).contains(&x) {
                want[(p * sh + y - top) * sw + x - left]
            } else {
                f32::NAN
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{what}: plane {p} ({y}, {x})");
        }
    }
}

/// The float entry: the direct loop's compact output, ReLU'd when `pre`,
/// pooled through `post` — against the pooled store of the fast path.
fn check_float(conv: &Conv2d, padded: &Tensor, k: usize, (pre, post): (bool, bool), what: &str) {
    let mut direct = Tensor::default();
    conv.forward_prepadded_into(padded, KernelKind::Direct, &mut direct, &mut ConvScratch::new())
        .unwrap();
    let [n, c_out, oh, ow] = direct.shape().dims();
    let relu = |on: bool| move |v: f32| if on && v < 0.0 { 0.0 } else { v };
    let mut want = vec![0.0; n * c_out * (oh / k) * (ow / k)];
    let compact = OutGeom::compact(oh / k, ow / k);
    max_pool2d_at(&direct, k, &mut want, compact, (relu(pre), relu(post))).unwrap();
    let packed = PackedWeights::pack(conv);
    assert_region(
        n * c_out,
        (oh, ow, k),
        &want,
        |map, at| {
            packed.forward_prepadded_pooled_at(conv, padded, (map, at), pre, (k, post)).unwrap();
        },
        what,
    );
}

/// The integer entry on the quantized block — with its zero border
/// declared when `declare` — stored through `pre` and pooled through `post`
/// against the direct loop sent through the same epilogues.
fn check_integer(
    conv: &Conv2d,
    padded: &Tensor,
    k: usize,
    (pre, post): (Epilogue, Epilogue),
    declare: bool,
    what: &str,
) {
    let act = QParams::from_abs_max(1.0, 8);
    let q = QConv2d::from_conv_with_kernel(conv, 8, KernelKind::Im2colGemm).unwrap();
    let mut direct = Tensor::default();
    q.forward_prepadded_direct_into(padded, act, &mut direct, &mut QConvScratch::new()).unwrap();
    let [n, c_out, oh, ow] = direct.shape().dims();
    let mut want = vec![0.0; n * c_out * (oh / k) * (ow / k)];
    let compact = OutGeom::compact(oh / k, ow / k);
    max_pool2d_at(&direct, k, &mut want, compact, (|v| pre.apply(v), |v| post.apply(v))).unwrap();
    let op = QuantChainOp::new(q, act);
    assert!(op.reads_quantized(), "{what}: the layer runs an exact-f32 sweep");
    let acts = padded.map(|v| act.quantize_value_f32(v));
    let zero = if declare { [1; 4] } else { [0; 4] };
    assert_region(
        n * c_out,
        (oh, ow, k),
        &want,
        |map, at| {
            op.forward_quantized_pooled_at((&acts, zero), (map, at), pre, (k, post)).unwrap();
        },
        what,
    );
}

/// Runs one layer of `CHANNELS[combo]` on a `ph × pw` padded plane through
/// both entries, pooled `k × k`.
fn check(ph: usize, pw: usize, k: usize, combo: usize) {
    let (cin, cout) = CHANNELS[combo % CHANNELS.len()];
    let (groups, n) = (1 + combo / CHANNELS.len() % 2, 1 + combo / 12 % 2);
    let (pre, post) = RELUS[combo % RELUS.len()];
    let seed = (combo * 10_000 + ph * 100 + pw) as u64;
    let (conv, mut padded) = fixture((cin, cout, groups, n), (ph, pw), seed);
    let what = format!("{ph}x{pw} k{k} n{n} {cin}->{cout} g{groups} relu {pre}/{post}");
    // The integer layer reads a block inside a zero border.
    let border = |t: &Tensor| {
        tensor4([n, cin * groups, ph, pw], |ni, c, y, x| {
            if y == 0 || x == 0 || y + 1 == ph || x + 1 == pw {
                0.0
            } else {
                t.at(ni, c, y, x)
            }
        })
    };
    let requant = Some(QParams::from_abs_max(0.8, 8));
    let epis = (Epilogue { relu: pre, requant: None }, Epilogue { relu: post, requant });
    check_integer(
        &conv,
        &border(&padded),
        k,
        epis,
        combo.is_multiple_of(3),
        &format!("integer {what}"),
    );
    specials(&mut padded);
    check_float(&conv, &padded, k, (pre, post), &format!("float {what}"));
}

#[test]
fn pooled_stores_match_the_pooled_direct_loop() {
    // Every plane from the smallest that holds one window on; the layer
    // advances by a stride coprime to 24, so each plane meets another
    // channel count, group count, batch and ReLU pair.
    let mut combo = 0;
    for k in [2, 3] {
        for ph in k + 2..=20 {
            for pw in k + 2..=20 {
                check(ph, pw, k, combo % 24);
                combo += 7;
            }
        }
    }
    // The 18x17 output of a 20x19 plane (every layer below) runs the
    // spatial-lane sweep in one rectangle for up to six channels: its span is
    // not a multiple of a chunk, so the last chunk is moved back, and
    // chunks start at odd columns inside a window (span 340, chunks at
    // columns 0, 16, 13, …).
    let (oh, ow) = (20 - 2, 19 - 2);
    assert!(!span(oh, ow).is_multiple_of(LANES));
    let starts: Vec<usize> = (0..span(oh, ow)).step_by(LANES).map(|f| f % (ow + 2)).collect();
    assert!(starts.iter().any(|&c| c % 2 == 1 && c < ow), "{starts:?}");
    // Every layer on the 8x8 and 56x56 blocks the repo benchmark pools, on
    // 149-wide rows, a row of whose windows does not fit the stage of 2048
    // outputs for seven channels or more and splits by columns, and on the
    // 3×6 outputs of a 5×8 plane, a row of whose windows spans less than a
    // chunk, which the channel-lane tile takes.
    for (ph, pw) in [(10, 10), (20, 19), (58, 58), (8, 151), (5, 8)] {
        for k in [2, 3] {
            for combo in 0..24 {
                check(ph, pw, k, combo);
            }
        }
    }
}

#[test]
fn pooled_stores_keep_both_signed_zeros_in_the_pools_order() {
    // Zero weights and a `-0.0` bias: an output is `-0.0` where every tap
    // reads a negative input (each product is `-0.0`) and `+0.0` where one
    // reads a positive input, so windows along the sign boundary fold both
    // zeros — and NaN inputs, whose products are NaN, put NaNs among them.
    for (cin, cout) in [(1, 4), (2, 16), (1, 3)] {
        for (ph, pw) in [(12, 12), (9, 14), (6, 6)] {
            let weight = Tensor::zeros([cout, cin, 3, 3]);
            let conv = Conv2d::new(weight, vec![-0.0; cout], ConvGeom::new(3, 1, 0), 1).unwrap();
            let mut padded = tensor4([1, cin, ph, pw], |_, c, y, x| {
                let v = 0.5 + (c + y + x) as f32 / 8.0;
                if y < ph / 2 && x < pw / 2 + c % 2 {
                    -v
                } else {
                    v
                }
            });
            padded.data_mut()[pw + 3] = f32::NAN;
            let mut direct = Tensor::default();
            let mut scratch = ConvScratch::new();
            conv.forward_prepadded_into(&padded, KernelKind::Direct, &mut direct, &mut scratch)
                .unwrap();
            let has = |bits: u32| direct.data().iter().any(|v| v.to_bits() == bits);
            assert!(has(0.0f32.to_bits()) && has((-0.0f32).to_bits()), "{cin}->{cout} {ph}x{pw}");
            for k in [2, 3] {
                for relus in RELUS {
                    let what = format!("signed zeros {cin}->{cout} {ph}x{pw} k{k} {relus:?}");
                    check_float(&conv, &padded, k, relus, &what);
                }
            }
        }
    }
}

#[test]
fn a_pool_wider_than_the_outputs_is_rejected() {
    let (conv, padded) = fixture((2, 4, 1, 1), (5, 6), 3);
    let packed = PackedWeights::pack(&conv);
    let mut out = vec![0.0; 64];
    let at = OutGeom::compact(1, 1);
    for k in [0, 4] {
        assert!(packed
            .forward_prepadded_pooled_at(&conv, &padded, (&mut out, at), false, (k, false))
            .is_err());
    }
}
