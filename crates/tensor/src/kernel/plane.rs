//! The float **plane shift-and-add kernel**: 3×3 stride-1 convolution
//! without a patch matrix, with the vector lanes on *plane positions* — the
//! kernel of **thin layers** (up to seven output channels per group,
//! depthwise included), which cannot fill a vector with output channels.
//! Wider layers give the lanes to output channels (`super::lane_tile`).
//!
//! The im2col path inflates the input ninefold before a GEMM whose work
//! per patch element is only `c_out / groups`, and its 4×8 register tile
//! runs four accumulation chains. This kernel reads the padded planes in
//! place instead: the accumulators live in the *padded-width* plane
//! layout — flat index `p = oh·pw + ow`, so tap `(kh, kw)` of every output
//! position is the same plane shifted by `kh·pw + kw` — and the flat span
//! `(oh - 1)·pw + ow` is swept in [`LANES`]-wide chunks. Each chunk's
//! accumulators stay in registers across **all** input channels, one
//! source vector load feeds up to four output channels, and the result is
//! written once, straight into the output rows. It is the float twin of
//! `bconv_quant::qgemm`'s exact-f32 spatial-lane kernel and is reached the
//! same way: by shape (`takes`), from inside `im2col_gemm`.
//!
//! # Junk lanes
//!
//! The `pw - ow` wrap columns of every row are computed like any other
//! lane, on windows that straddle two rows. They are the only junk: the
//! last chunk is moved back to end exactly with the span (it recomputes a
//! few lanes of its predecessor, to the same bits) instead of being
//! rounded up past it, so every window lies inside its own channel plane
//! and no slack copy of the input is needed. Lanes never mix, and only
//! columns `0..ow` survive `store_chunk`, so whatever a junk lane holds —
//! NaN and infinities included — cannot reach `out`.
//!
//! # Bitwise contract
//!
//! Float accumulation order is part of the kernels' contract. Every lane
//! starts at `bias[m]` and adds its taps as a separate multiply then add,
//! one chain per lane, in `(c_in, kh, kw)` order — exactly the direct
//! loop's (`super::direct`), so the output is bit for bit the direct
//! kernel's. There is no fused multiply-add and no split
//! accumulation chain; the instruction-level parallelism comes from
//! running up to four output channels' chains side by side, never from
//! reassociation. `tests/plane_kernel_shapes.rs` sweeps every small plane
//! shape against the direct loop.

use super::F32x8;
use crate::conv::Conv2d;
use crate::Tensor;

/// Accumulator chunk width: two 8-lane vectors per output channel, so a
/// four-channel pass keeps eight independent chains in flight.
const LANES: usize = 16;

/// Accumulator lanes that can hold an output of an `oh`×`ow` map: the
/// padded-width plane layout up to the last output of the last row.
fn span(oh: usize, ow: usize) -> usize {
    (oh - 1) * (ow + 2) + ow
}

/// Whether the plane kernel takes a layer with kernel size `k` and stride
/// `s` on an `oh`×`ow` output map: every 3×3 stride-1 layer (that the
/// channel-lane kernel left: `im2col_gemm` asks it first) whose span fills
/// a chunk (padded planes of 5×5 and below stay on the GEMM).
///
/// There is deliberately no reduction-length cutover. Per call, the plane
/// kernel measured 1.7–2.7× the GEMM's MAC rate at every `c_in / groups ·
/// 9` from 27 to 4608, on 16×16 and 58×58 planes, dense and depthwise
/// (`cargo bench -p bconv-bench -- plane_kk_sweep` keeps 27…576; the full
/// table is in `CHANGES.md`, PR 16).
pub(super) fn takes(k: usize, s: usize, oh: usize, ow: usize) -> bool {
    k == 3 && s == 1 && span(oh, ow) >= LANES
}

/// Evaluates a 3×3 stride-1 `conv` on `padded`, writing every element of
/// the already shaped `out`. The caller has checked [`takes`].
pub(super) fn plane_conv(conv: &Conv2d, padded: &Tensor, out: &mut Tensor) {
    let [n, c_in, ph, pw] = padded.shape().dims();
    let [_, c_out, oh, ow] = out.shape().dims();
    debug_assert!(takes(conv.geom().kernel, conv.geom().stride, oh, ow));
    debug_assert_eq!((oh + 2, ow + 2), (ph, pw));
    let groups = conv.groups();
    let (cin_per_group, cout_per_group) = (c_in / groups, c_out / groups);
    let geom = PlaneGeom { pw, ow, plane: ph * pw, out_plane: oh * ow, kk: cin_per_group * 9 };
    let span = span(oh, ow);
    let idata = padded.data();
    let wdata = conv.weight().data();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            let group = &idata[(ni * c_in + grp * cin_per_group) * geom.plane..];
            let m0 = grp * cout_per_group;
            let outs = &mut odata[(ni * c_out + m0) * geom.out_plane..];
            // Chunks outermost: one chunk's source windows stay in L1 while
            // every pass of output channels sweeps them.
            for at in (0..span).step_by(LANES) {
                // The last chunk ends exactly with the span.
                let at = at.min(span - LANES);
                let pos = (at / pw, at % pw);
                let mut mo = 0;
                while mo < cout_per_group {
                    let w = &wdata[(m0 + mo) * geom.kk..];
                    let b = &conv.bias()[m0 + mo..];
                    let o = &mut outs[mo * geom.out_plane..];
                    // Two channels left go as two single passes: the
                    // `<2>` instantiation never vectorised (SLP glued its
                    // unrolled taps into `xmm` shuffles; 4→2 on a 58×58
                    // plane read 9.7 GMAC/s, 18.5 this way).
                    let left = cout_per_group - mo;
                    let m = if left == 2 { 1 } else { left.min(4) };
                    match m {
                        1 => sweep_store::<1>(group, at, pos, &geom, w, b, o),
                        3 => sweep_store::<3>(group, at, pos, &geom, w, b, o),
                        _ => sweep_store::<4>(group, at, pos, &geom, w, b, o),
                    }
                    mo += m;
                }
            }
        }
    }
}

/// The layout one call works in.
struct PlaneGeom {
    /// Padded row width — the accumulator layout's row pitch.
    pw: usize,
    /// Output row width (`pw - 2`).
    ow: usize,
    /// Elements per padded input plane.
    plane: usize,
    /// Elements per output plane.
    out_plane: usize,
    /// Reduction length, `c_in / groups · 9`: one output channel's weights.
    kk: usize,
}

/// Sweeps chunk `at` — whose first lane is position `(row, col)` of the
/// padded-width layout — for the `M` output channels whose weight rows,
/// biases and output planes start `weights`, `bias` and `outs`, and stores
/// the result.
#[inline(never)] // one loop nest per `M`: inlined into the caller it measured 10 % slower
fn sweep_store<const M: usize>(
    group: &[f32],
    at: usize,
    (row, col): (usize, usize),
    geom: &PlaneGeom,
    weights: &[f32],
    bias: &[f32],
    outs: &mut [f32],
) {
    let wrows: [&[f32]; M] = std::array::from_fn(|i| &weights[i * geom.kk..(i + 1) * geom.kk]);
    let bias: [f32; M] = std::array::from_fn(|i| bias[i]);
    let sums = sweep_chunk(group, at, geom.pw, geom.plane, wrows, bias);
    for (sum, out) in sums.iter().zip(outs.chunks_exact_mut(geom.out_plane)) {
        store_chunk(sum, row, col, geom, out);
    }
}

/// Lanes `at..at + LANES` of `M` output channels' accumulator planes:
/// `bias[m] + Σ_ci Σ_(kh,kw) w[m][ci][kh][kw] · group[ci·plane + kh·pw + at
/// + lane + kw]`, each lane one sequential chain in `(ci, kh, kw)` order,
/// held in registers across the whole reduction. Each source vector is
/// loaded once and feeds all `M` channels, whose chains interleave.
#[inline]
fn sweep_chunk<const M: usize>(
    group: &[f32],
    at: usize,
    pw: usize,
    plane: usize,
    wrows: [&[f32]; M],
    bias: [f32; M],
) -> [[F32x8; 2]; M] {
    let mut acc = bias.map(|b| [F32x8::splat(b); 2]);
    for (chan, ci) in group.chunks_exact(plane).zip(0..wrows[0].len() / 9) {
        let (Some(r0), Some(r1), Some(r2)) =
            (window(chan, at), window(chan, at + pw), window(chan, at + 2 * pw))
        else {
            debug_assert!(false, "plane_conv keeps every chunk's windows inside their plane");
            return acc;
        };
        let taps = wrows.map(|wrow| &wrow[ci * 9..ci * 9 + 9]);
        for (kh, row) in [r0, r1, r2].into_iter().enumerate() {
            for kw in 0..3 {
                let x = [F32x8::load(&row[kw..]), F32x8::load(&row[kw + 8..])];
                for (acc, wt) in acc.iter_mut().zip(taps) {
                    // `add_scaled` multiplies, then adds — never fused.
                    let w = F32x8::splat(wt[kh * 3 + kw]);
                    acc[0] = acc[0].add_scaled(w, x[0]);
                    acc[1] = acc[1].add_scaled(w, x[1]);
                }
            }
        }
    }
    acc
}

/// The `LANES + 2` source elements one accumulator chunk reads from one
/// row, starting at `at`.
#[inline]
fn window(src: &[f32], at: usize) -> Option<&[f32; LANES + 2]> {
    src.get(at..)?.first_chunk()
}

/// Writes one accumulator chunk's outputs into `out` (one output plane).
/// The chunk's first lane is position `(row, col)` of the padded-width
/// layout; lanes in columns `ow..pw` are junk.
///
/// Each run of valid lanes is stored with one fixed-size `LANES`-wide copy
/// that starts at the run's first lane and first output, so no copy has a
/// run-time length (a `memcpy` call per run cost more than the sweep of a
/// thin chunk: 3→4 on a 58×58 plane ran 34 µs with it, 20 µs without). The
/// lanes such a copy writes past the end of its run land on outputs that
/// come *later* in the plane, and every one of those is written with its
/// real value afterwards — by the next run of this chunk or by a later
/// chunk, which `plane_conv` visits in ascending order — so nothing junk
/// survives. A copy that would cross the end of the plane, into the next
/// channel's, is cut to its run instead.
#[inline]
fn store_chunk(sum: &[F32x8; 2], row: usize, col: usize, geom: &PlaneGeom, out: &mut [f32]) {
    let mut lanes = [0.0f32; 2 * LANES];
    sum[0].store(&mut lanes);
    sum[1].store(&mut lanes[8..]);
    let (mut lane, mut row, mut col) = (0, row, col);
    while lane < LANES {
        if col < geom.ow {
            let o = row * geom.ow + col;
            match out.get_mut(o..o + LANES) {
                Some(dst) => dst.copy_from_slice(&lanes[lane..lane + LANES]),
                None => {
                    let take = (geom.ow - col).min(LANES - lane);
                    out[o..o + take].copy_from_slice(&lanes[lane..lane + take]);
                }
            }
        }
        // On to the start of the next row.
        lane += geom.pw - col;
        row += 1;
        col = 0;
    }
}
