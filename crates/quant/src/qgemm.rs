//! The integer fast path: the quantized counterpart of
//! [`bconv_tensor::kernel::Im2colGemmKernel`].
//!
//! The direct loop in [`crate::qconv`] pays seven nested loops of strided
//! reads per output element. This module replaces it with two kernels,
//! dispatched per layer shape in `qim2col_gemm`: the exact-f32 **plane
//! shift-and-add kernel** (`qplane_conv`) for 3×3 stride-1 layers whose
//! reduction bound stays inside f32's exact-integer range, and otherwise
//! an im2col + widening GEMM built from
//!
//! 1. a **packed weight matrix** ([`QPackedWeights`]) — the per-channel
//!    quantized weights narrowed to `i16` rows, built once when the
//!    [`QConv2d`] is constructed and never repacked
//!    per run;
//! 2. an **`i16` im2col patch matrix** (position-major `N×K`: each output
//!    position's `K` taps are contiguous, in the direct loop's
//!    `(c_in, kh, kw)` tap order), built per block in reusable scratch;
//! 3. a **widening dot-product microkernel**: `i16×i16→i32` multiplies
//!    accumulated in `i32` lanes — the idiom LLVM lowers to `pmaddwd`-style
//!    instructions — with an `i64` fallback for layers whose reduction
//!    could overflow 32 bits.
//!
//! # Bitwise parity with the direct loop
//!
//! Integer accumulation is exact, so *any* summation order yields the same
//! total as the direct loop's `i64` accumulator provided no intermediate
//! overflows. Every partial sum here is bounded by
//! `K · max|w_q| · qmax_act`; when that bound fits `i32` the vectorizable
//! `i32` kernel is exact, otherwise the `i64` kernel is used. The final
//! rescale `acc as f32 * (w_scale[m] * act_scale) + bias[m]` is the direct
//! loop's expression verbatim, so the two paths are bitwise identical —
//! unlike the float GEMM, which must preserve accumulation order.
//!
//! # The plane kernel's lanes
//!
//! `qplane_conv` carries the same integers in f32 lanes (exact below
//! `2^24`, which the dispatch guards) and sweeps each accumulator plane in
//! whole 16-lane chunks held in registers, so block-sized planes — an 8×8
//! block is 78 lanes — run no scalar tail and touch no accumulator memory
//! inside the reduction. The price is **junk lanes**: the rounded-up tail
//! of the last chunk (and the `pw - ow` wrap columns of every row) compute
//! on whatever follows — the next channel's plane, the next image, or the
//! zeroed slack lanes `QConvScratch::actf` keeps behind its last plane, so
//! every read is in bounds. They cannot leak: extraction reads only
//! `acc[ohi·pw .. ohi·pw + ow]`. Because every product and partial
//! sum is an exact integer, a fused multiply-add rounds to the same bits
//! as a separate multiply and add, so the kernel uses `mul_add` when the
//! build targets FMA — the one `mul_add` the L6 lint allows. Details and
//! the proofs are on `qplane_conv`; `tests/plane_kernel_shapes.rs` sweeps
//! every small plane shape against the direct loop.

use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::{Tensor, TensorError};

use crate::qconv::{QConv2d, QConvScratch};
use crate::QParams;

/// Quantized weights packed for the integer GEMM: row-major `M×K` `i16`
/// rows per group (quantized at the layer's per-channel scales, narrowed
/// from the direct loop's `i32` storage — every representable weight fits
/// `i16` at bitwidths up to 16), plus the same rows as integer-valued
/// `f32` for the exact-f32 plane kernel. Built once at
/// [`QConv2d`] construction.
#[derive(Debug, Clone)]
pub struct QPackedWeights {
    data: Vec<i16>,
    data_f32: Vec<f32>,
    max_abs: i32,
}

impl QPackedWeights {
    /// Packs already-quantized weights (any layout whose rows the caller
    /// will index consistently; [`QConv2d`] passes
    /// its `[c_out, c_in/g, k, k]` row-major buffer).
    pub(crate) fn pack(weight_q: &[i32]) -> Self {
        let mut max_abs = 0i32;
        let mut data = Vec::with_capacity(weight_q.len());
        let mut data_f32 = Vec::with_capacity(weight_q.len());
        for &w in weight_q {
            max_abs = max_abs.max(w.abs());
            data.push(w as i16);
            // Exact: |w| <= 32767 is far inside f32's integer range.
            data_f32.push(w as f32);
        }
        Self { data, data_f32, max_abs }
    }

    /// Largest absolute quantized weight — the tight per-layer factor in
    /// the accumulator-width bound.
    pub fn max_abs(&self) -> i32 {
        self.max_abs
    }

    /// Packed element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no weights are packed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `m × kk` weight rows of one group.
    pub(crate) fn group_rows(&self, grp: usize, m: usize, kk: usize) -> &[i16] {
        &self.data[grp * m * kk..(grp + 1) * m * kk]
    }

    /// The `m × kk` weight rows of one group as integer-valued `f32`.
    pub(crate) fn group_rows_f32(&self, grp: usize, m: usize, kk: usize) -> &[f32] {
        &self.data_f32[grp * m * kk..(grp + 1) * m * kk]
    }
}

/// The integer im2col+GEMM kernel, mirroring the float
/// [`Im2colGemmKernel`](bconv_tensor::kernel::Im2colGemmKernel) behind the
/// same resolved-[`KernelKind`](bconv_tensor::kernel::KernelKind) seam.
#[derive(Debug, Clone, Copy, Default)]
pub struct QIm2colGemmKernel;

impl QIm2colGemmKernel {
    /// Kernel name for reports and plan dumps.
    pub fn name(&self) -> &'static str {
        "im2col-gemm"
    }

    /// Evaluates `qconv` on a pre-padded input through the integer GEMM,
    /// bitwise identical to the direct loop.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on channel/shape mismatch.
    pub fn forward_prepadded_into(
        &self,
        qconv: &QConv2d,
        padded: &Tensor,
        act_params: QParams,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        qim2col_gemm(qconv, padded, act_params, out, scratch)
    }
}

/// How many partial-sum magnitudes f32 holds exactly: every integer below
/// `2^24` is representable, so integer accumulation carried in f32 lanes is
/// bit-exact as long as `K * max|w_q| * qmax_act` stays under this.
const F32_EXACT_LIMIT: i64 = 1 << 24;

/// Plane-kernel cutover: above this reduction length the dot-product GEMM's
/// `pmaddwd` density wins over the plane kernel's build-free streaming (the
/// plane path re-reads all input planes once per output-channel pair).
const PLANE_MAX_KK: usize = 192;

/// The integer fast path. Dispatches per layer shape:
///
/// * 3×3 stride-1 layers whose reduction bound fits f32's exact-integer
///   range take the **plane shift-and-add kernel** (`qplane_conv`) — no
///   patch matrix at all;
/// * everything else quantizes to `i16`, im2cols per (batch, group), and
///   runs the widening dot-product GEMM.
///
/// Hot path — performs no allocation once `scratch` has grown to the
/// layer's working size.
pub(crate) fn qim2col_gemm(
    q: &QConv2d,
    padded: &Tensor,
    act_params: QParams,
    out: &mut Tensor,
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let [n, c_in, ph, pw] = padded.shape().dims();
    q.check_channels("QConv2d prepadded input channels", c_in)?;
    let [c_out, cin_per_group, k, _] = q.weight_dims;
    let s = q.geom.stride;
    let oh = conv_out_dim(ph, k, s, 0)?;
    let ow = conv_out_dim(pw, k, s, 0)?;
    let groups = q.groups;
    let cout_per_group = c_out / groups;
    let kk = cin_per_group * k * k;
    let nn = oh * ow;

    // Accumulation bound over any association of the reduction (each
    // partial sum is at most K * max|w_q| * qmax_act in magnitude).
    let bound = kk as i64 * q.packed.max_abs() as i64 * act_params.qmax() as i64;
    if k == 3 && s == 1 && bound < F32_EXACT_LIMIT && kk <= PLANE_MAX_KK {
        return qplane_conv(q, padded, act_params, out, scratch);
    }
    let QConvScratch { act16, cols, .. } = scratch;

    // Activations are quantized through the same QParams rounding as the
    // direct loop; every value fits i16 (|q| <= qmax <= 32767).
    act16.resize(padded.data().len(), 0);
    for (dst, &v) in act16.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value(v) as i16;
    }
    cols.resize(nn * kk, 0);

    // Accumulator width: i32 lanes are exact whenever the bound fits;
    // otherwise the i64 kernel computes the same value wider.
    let wide = bound > i32::MAX as i64;
    let act_scale = act_params.scale();

    out.reset([n, c_out, oh, ow]);
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            if k == 1 && s == 1 {
                // Pointwise: the patch matrix is the channel-plane
                // transpose; fill it column-by-column with contiguous
                // plane reads.
                for ci in 0..cin_per_group {
                    let c = grp * cin_per_group + ci;
                    let base = (ni * c_in + c) * ph * pw;
                    let plane = &act16[base..base + nn];
                    for (j, &v) in plane.iter().enumerate() {
                        cols[j * kk + ci] = v;
                    }
                }
            } else {
                // im2col, position-major: output position j's K taps are
                // contiguous, in the direct loop's (ci, kh, kw) tap order.
                // Positions iterate innermost over a hoisted source row so
                // the per-tap-row work is a handful of stores — a
                // `copy_from_slice` per k-tap row costs more in memcpy
                // dispatch than it moves at k == 3.
                for ohi in 0..oh {
                    let prow = &mut cols[ohi * ow * kk..(ohi + 1) * ow * kk];
                    let mut l = 0;
                    for ci in 0..cin_per_group {
                        let c = grp * cin_per_group + ci;
                        for khi in 0..k {
                            let base = ((ni * c_in + c) * ph + (ohi * s + khi)) * pw;
                            let src = &act16[base..base + pw];
                            if k == 3 {
                                for (owi, patch) in prow.chunks_exact_mut(kk).enumerate() {
                                    let b = owi * s;
                                    patch[l] = src[b];
                                    patch[l + 1] = src[b + 1];
                                    patch[l + 2] = src[b + 2];
                                }
                            } else {
                                for (owi, patch) in prow.chunks_exact_mut(kk).enumerate() {
                                    let b = owi * s;
                                    patch[l..l + k].copy_from_slice(&src[b..b + k]);
                                }
                            }
                            l += k;
                        }
                    }
                }
            }
            let mbase = grp * cout_per_group;
            let wgrp = q.packed.group_rows(grp, cout_per_group, kk);
            let c0 = oshape.index(ni, mbase, 0, 0);
            let cdst = &mut odata[c0..c0 + cout_per_group * nn];
            qgemm(
                wgrp,
                cols,
                &q.bias[mbase..mbase + cout_per_group],
                &q.wscales[mbase..mbase + cout_per_group],
                act_scale,
                cdst,
                kk,
                nn,
                wide,
            );
        }
    }
    Ok(())
}

/// The exact-f32 plane kernel for 3×3 stride-1 layers: activations are
/// quantized to **integer-valued f32** and the convolution runs as fused
/// nine-tap shift-and-add sweeps over accumulators kept in the padded-width
/// plane layout (the `pw - ow` junk columns where windows wrap rows are
/// computed but never extracted), so there is no patch matrix and no
/// horizontal reduction — the two costs that dominate the dot-product GEMM
/// at thin reduction lengths.
///
/// # Sweep shape
///
/// The accumulator span `(oh - 1)·pw + ow` is rounded up to whole
/// [`LANES`]-wide chunks and each chunk is summed over every input channel
/// in registers (`sweep_chunk`), two output channels at a time so each
/// source window is loaded once for both. There is no scalar tail and no
/// accumulator traffic inside the reduction, which is what block-sized
/// planes need: an 8×8 block's span is 78 lanes, and its 256
/// `(c_out, c_in)` sweeps used to spend as long in 14-element tails and
/// accumulator reloads as in vector code.
///
/// Lanes at and beyond the true span are **junk**: their windows run on
/// into the next channel's plane, the next image, or the [`LANES`] slack
/// lanes kept behind `QConvScratch::actf` (there so that every window is
/// in bounds, zeroed per call so that nothing computed depends on an
/// earlier one). Junk lanes are written to `accf`, but extraction reads
/// `acc[ohi·pw .. ohi·pw + ow]`, whose last index is `span - 1`: no junk
/// lane can reach the output.
///
/// # Bitwise parity with the direct loop
///
/// Caller guarantees `K * max|w_q| * qmax_act < 2^24`: every product and
/// every partial sum (in any association, junk lanes included) is then an
/// integer in f32's exact range, each f32 multiply and add is exact, and
/// the accumulated value equals the direct loop's i64 accumulator cast to
/// f32. For the same reason a fused multiply-add changes nothing here —
/// `a·b + c` is an exact integer below `2^24`, so rounding it once
/// (`mul_add`) or twice (`a * b + c`) returns the same value — and `mac`
/// uses the FMA unit wherever the target has one. The rescale
/// `acc * (wscale[m]*act_scale) + bias[m]` is the direct loop's expression
/// verbatim.
fn qplane_conv(
    q: &QConv2d,
    padded: &Tensor,
    act_params: QParams,
    out: &mut Tensor,
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let QConvScratch { actf, accf, .. } = scratch;
    let [n, c_in, ph, pw] = padded.shape().dims();
    let [c_out, cin_per_group, k, _] = q.weight_dims;
    debug_assert_eq!(k, 3);
    let oh = conv_out_dim(ph, k, 1, 0)?;
    let ow = conv_out_dim(pw, k, 1, 0)?;
    let groups = q.groups;
    let cout_per_group = c_out / groups;
    let kk = cin_per_group * 9;
    let plane = ph * pw;
    // Rows `0..oh` of the accumulator plane hold output rows at padded
    // width; the last row needs only `ow` columns.
    let span = (oh - 1) * pw + ow;
    let acc_len = span.next_multiple_of(LANES);

    // The last chunk's windows end `acc_len - span < LANES` elements past
    // the plane they start in: behind the very last plane that is the
    // slack.
    let len = padded.data().len();
    actf.resize(len + LANES, 0.0);
    let (acts, slack) = actf.split_at_mut(len);
    for (dst, &v) in acts.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value_f32(v);
    }
    slack.fill(0.0);
    // One accumulator plane per output channel of a pair.
    accf.resize(2 * acc_len, 0.0);
    let act_scale = act_params.scale();

    out.reset([n, c_out, oh, ow]);
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            let wgrp = q.packed.group_rows_f32(grp, cout_per_group, kk);
            let wrow = |mo: usize| &wgrp[mo * kk..(mo + 1) * kk];
            let group = &actf[(ni * c_in + grp * cin_per_group) * plane..];
            for mo in (0..cout_per_group).step_by(2) {
                if mo + 1 < cout_per_group {
                    sweep_plane(group, pw, plane, [wrow(mo), wrow(mo + 1)], accf);
                } else {
                    sweep_plane(group, pw, plane, [wrow(mo)], &mut accf[..acc_len]);
                }
                for (mo, acc) in (mo..cout_per_group).zip(accf.chunks_exact(acc_len)) {
                    let m = grp * cout_per_group + mo;
                    // The direct loop's rescale expression verbatim.
                    let os = q.wscales[m] * act_scale;
                    let bi = q.bias[m];
                    let o0 = oshape.index(ni, m, 0, 0);
                    for ohi in 0..oh {
                        let arow = &acc[ohi * pw..ohi * pw + ow];
                        let dst = &mut odata[o0 + ohi * ow..o0 + (ohi + 1) * ow];
                        for (o, &a) in dst.iter_mut().zip(arow) {
                            *o = a * os + bi;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Accumulator chunk width of the plane kernel: two 8-lane vectors, the
/// width at which the fixed-size inner loops below compile to straight
/// vector code (8 and 32 measured slower).
const LANES: usize = 16;

/// Fills `M` accumulator planes (`acc` = `M` runs of a whole number of
/// [`LANES`]-wide chunks) with the plane sums of the output channels whose
/// weight rows are `wrows`, over the input planes starting at `group`.
fn sweep_plane<const M: usize>(
    group: &[f32],
    pw: usize,
    plane: usize,
    wrows: [&[f32]; M],
    acc: &mut [f32],
) {
    let acc_len = acc.len() / M;
    for at in (0..acc_len).step_by(LANES) {
        let sums = sweep_chunk(group, at, pw, plane, wrows);
        for (m, sum) in sums.iter().enumerate() {
            acc[m * acc_len + at..m * acc_len + at + LANES].copy_from_slice(sum);
        }
    }
}

/// Lanes `at..at + LANES` of `M` output channels' accumulator planes:
/// `Σ_ci Σ_(r,c) w[ci][3r + c] · group[ci·plane + r·pw + at + lane + c]`,
/// held in registers across the whole reduction. Each source window is
/// loaded once and feeds all `M` channels.
fn sweep_chunk<const M: usize>(
    group: &[f32],
    at: usize,
    pw: usize,
    plane: usize,
    wrows: [&[f32]; M],
) -> [[f32; LANES]; M] {
    let mut acc = [[0.0f32; LANES]; M];
    for ci in 0..wrows[0].len() / 9 {
        let base = ci * plane + at;
        let (Some(r0), Some(r1), Some(r2)) =
            (window(group, base), window(group, base + pw), window(group, base + 2 * pw))
        else {
            debug_assert!(false, "qplane_conv keeps slack lanes behind actf for every window");
            return acc;
        };
        for (acc, wrow) in acc.iter_mut().zip(wrows) {
            let wt = &wrow[ci * 9..ci * 9 + 9];
            // Three independent chains, so short reductions are not bound
            // by one chain's latency.
            for (i, a) in acc.iter_mut().enumerate() {
                let t0 = mac(wt[2], r0[i + 2], mac(wt[1], r0[i + 1], wt[0] * r0[i]));
                let t1 = mac(wt[5], r1[i + 2], mac(wt[4], r1[i + 1], wt[3] * r1[i]));
                let t2 = mac(wt[8], r2[i + 2], mac(wt[7], r2[i + 1], wt[6] * r2[i]));
                *a += (t0 + t1) + t2;
            }
        }
    }
    acc
}

/// `a * b + c` on exact integers below `2^24` (see `qplane_conv`): fused
/// and unfused evaluation agree bit for bit, so the FMA unit is used
/// wherever the build targets one.
#[inline(always)]
fn mac(a: f32, b: f32, c: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The `LANES + 2` source elements one accumulator chunk reads from one
/// row, starting at `at`.
#[inline]
fn window(src: &[f32], at: usize) -> Option<&[f32; LANES + 2]> {
    src.get(at..)?.first_chunk()
}

/// Patch-tile width: how many output positions stay L1-resident while the
/// weight rows stream past them.
const JT: usize = 8;

/// `out[m][j] = dot(w[m], patch[j]) * (wscale[m]*act_scale) + bias[m]`.
///
/// Tiled so `JT` patch rows stay hot in L1 across the whole weight-row
/// sweep; each dot product is a straight widening reduction the
/// auto-vectorizer turns into `pmaddwd`-style lanes.
#[allow(clippy::too_many_arguments)] // flat hot-path signature, no temp structs
fn qgemm(
    w: &[i16],
    cols: &[i16],
    bias: &[f32],
    wscales: &[f32],
    act_scale: f32,
    out: &mut [f32],
    kk: usize,
    nn: usize,
    wide: bool,
) {
    // Monomorphize on the accumulator width: a per-dot branch in the inner
    // loop costs ~15% at thin reduction lengths.
    if wide {
        qgemm_body::<true>(w, cols, bias, wscales, act_scale, out, kk, nn);
    } else {
        qgemm_body::<false>(w, cols, bias, wscales, act_scale, out, kk, nn);
    }
}

#[allow(clippy::too_many_arguments)] // flat hot-path signature, no temp structs
fn qgemm_body<const WIDE: bool>(
    w: &[i16],
    cols: &[i16],
    bias: &[f32],
    wscales: &[f32],
    act_scale: f32,
    out: &mut [f32],
    kk: usize,
    nn: usize,
) {
    let mut jt = 0;
    while jt < nn {
        let jn = JT.min(nn - jt);
        for (mi, orow) in out.chunks_exact_mut(nn).enumerate() {
            let wrow = &w[mi * kk..(mi + 1) * kk];
            // The direct loop's rescale expression verbatim (same operand
            // order), so both kernels produce identical f32 bits.
            let os = wscales[mi] * act_scale;
            let bi = bias[mi];
            for j in jt..jt + jn {
                let patch = &cols[j * kk..(j + 1) * kk];
                let acc = if WIDE {
                    dot_i16_i64(wrow, patch) as f32
                } else {
                    dot_i16_i32(wrow, patch) as f32
                };
                orow[j] = acc * os + bi;
            }
        }
        jt += JT;
    }
}

/// Widening `i16` dot product with `i32` accumulation — exact when the
/// caller has bounded `K * max|w| * max|x|` to `i32` range (any partial
/// sum is then also in range, so vectorized reassociation is safe).
#[inline]
pub(crate) fn dot_i16_i32(a: &[i16], b: &[i16]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// Widening `i16` dot product with `i64` accumulation, for layers whose
/// reduction bound exceeds `i32` (e.g. wide-activation w8a16 layers).
#[inline]
pub(crate) fn dot_i16_i64(a: &[i16], b: &[i16]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as i64 * y as i64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packing_narrows_and_tracks_max() {
        let p = QPackedWeights::pack(&[3, -7, 0, 32767, -32767]);
        assert_eq!(p.max_abs(), 32767);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.group_rows(0, 1, 5), &[3, -7, 0, 32767, -32767]);
    }

    #[test]
    fn dot_products_agree_across_widths() {
        let a: Vec<i16> = (0..100).map(|i| (i * 37 % 255) as i16 - 127).collect();
        let b: Vec<i16> = (0..100).map(|i| (i * 91 % 255) as i16 - 127).collect();
        assert_eq!(dot_i16_i32(&a, &b) as i64, dot_i16_i64(&a, &b));
    }

    #[test]
    fn i32_bound_is_conservative() {
        // 127*127*k at k = 133,000 stays within i32: the w8a8 path never
        // needs the wide kernel at any realistic reduction length.
        let bound = 133_000i64 * 127 * 127;
        assert!(bound <= i32::MAX as i64);
    }
}
