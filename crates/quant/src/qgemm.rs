//! The integer fast path: the quantized counterpart of the float
//! [`KernelKind::Im2colGemm`].
//!
//! The direct loop in [`crate::qconv`] pays seven nested loops of strided
//! reads per output element. This module replaces it with two paths,
//! dispatched in `qim2col_gemm` on the **layer's shape alone** (plus the
//! exactness guard below — no reduction-length cutover, no knob):
//!
//! * 3×3 stride-1 layers run the exact-f32 **sweeps** shared with the float
//!   fast path (`exact_conv`: channel lanes, or spatial lanes for thin
//!   groups such as VDSR's 16→1 and VGG's 3→4 / 4→4);
//! * every other geometry — and any layer whose reduction bound leaves
//!   f32's exact-integer range — runs an im2col + widening GEMM built from
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
//! The two f32 sweeps carry the same integers in f32 lanes. Below `2^24`
//! (`F32_EXACT_LIMIT`, which the dispatch checks against that same bound)
//! every product and every partial sum is an integer f32 represents
//! exactly, so each multiply and add is exact *in any association* — which
//! is why either axis may take the lanes and why a tile or a one-channel
//! pass may sum its taps in whatever order keeps its registers busy — and a
//! fused multiply-add rounds to the same bits as a separate multiply and
//! add, so both sweeps go through `mac`, which uses the FMA unit when the
//! build targets one: the one `mul_add` the L6 lint allows.
//!
//! # Which axis gets the lanes
//!
//! The question and the answer are the float path's: both sweeps and the
//! choice between them are **shared**
//! ([`bconv_tensor::kernel::lane_tile::conv3x3`]; this module supplies the
//! exact arithmetic policy and the rescaling epilogue, `Emit`, and keeps
//! its own quantize pass for whole maps), and every 3×3 stride-1 layer
//! packs the one lane-major layout both read.
//!
//! A vector lane must be an output. With **output channels** in the lanes a
//! register tile is up to eight consecutive pixels of one output row × 16
//! channels, held across all input channels: per kernel row three
//! weight-vector loads and ten scalar broadcasts feed 48 FMAs, every lane
//! of every tile is an output (pixel tiles of 8 / 4 / 2 / 1 cover any width
//! exactly; only a ragged last channel tile carries zero lanes), and the
//! kernel reads the padded activations in place. With **plane positions**
//! in the lanes a chunk is 16 consecutive positions of the padded-width
//! span × up to four channels: per kernel row six source-vector loads and
//! twelve weight broadcasts feed 24 FMAs, and 80 lanes are computed for an
//! 8×8 block's 64 outputs. Channel lanes measured 38 GMAC/s per call against
//! 19–25 on 16→16 layers (`cargo bench -p bconv-bench -- qplane_`), on 8×8
//! blocks and whole maps alike, and 28 against 6 on 2×2 planes.
//!
//! What channel lanes pay is a transpose: a tile's lanes belong to
//! different planes of the NCHW output, so every output element costs a
//! scalar load and store where the spatial lanes store vectors. A 16-lane
//! tile amortises that from nine channels up (16→12 reads 27 against 13–23,
//! 16→15 34), and an 8-lane one from eight: at 8→8 it measured 1.3–1.4×
//! the spatial-lane sweep on a 10×10 block and 1.1× on a 34×34 plane, the
//! float tile 1.2–1.6× (10×10 to 58×58), so both precisions give the lanes to
//! channels from eight per group up. Thinner groups take spatial lanes (a
//! `c_out = 1` layer would fill one lane in eight) except where the span
//! is narrower than one chunk (square padded planes of 5×5 and below,
//! short strips): the tile runs them, on the same weights.
//!
//! # In a fused chain
//!
//! Both exact-f32 sweeps also run as a fused chain's stage
//! ([`QuantChainOp::forward_quantized_at`](crate::qconv::QuantChainOp::forward_quantized_at)):
//! the padded block they read already holds integer-valued f32 — the
//! previous stage quantized while it stored — so there is no quantize
//! pass, and they store at an [`OutGeom`] through an [`Epilogue`]:
//! rescale, the folded ReLU, then quantization at the **next** stage's
//! input parameters, straight into the interior of that stage's padded
//! buffer (or the group's output map, unquantized). Both sweeps store
//! through `Emit`, which carries the epilogue. A block padded with zeros
//! declares its halo, and the channel-lane tile skips every tap that reads
//! it — exact integers, so the skipped `w · 0` changes no bit
//! (`tests/plane_kernel_shapes.rs` sweeps every halo of up to two rows and
//! columns per side on every plane up to 9×9, declared against undeclared
//! and against the direct loop; debug builds check that a declared halo
//! really holds zeros). Whole maps and replicate / reflect halos declare
//! none; the spatial-lane sweep, whose chunks span rows, runs every tap
//! either way. Everything the GEMM runs (past the 2²⁴ bound, w8a16,
//! non-3×3) reads float blocks through `forward_prepadded_into` and its
//! compact output is copied through the same epilogue. A convolution a
//! max pooling follows stores the pooled block instead
//! ([`QuantChainOp::forward_quantized_pooled_at`](crate::qconv::QuantChainOp::forward_quantized_pooled_at)):
//! `conv3x3` runs the same sweeps over one rectangle of whole windows at a
//! time into a stage, each output through its own epilogue, and pools the
//! stage, each window's maximum through the pooling's epilogue, which
//! requantizes for the next stage. A declared zero halo is skipped in every
//! rectangle that reaches it.
//!
//! # No reduction-length cutover
//!
//! Neither f32 sweep builds a patch matrix, and per call both outrun the
//! GEMM at every reduction length measured (`qplane_kk_sweep`: 24→24 …
//! 96→96 run 36–43 GMAC/s on channel lanes against 12–21 on the GEMM; thin
//! 40→4 18 against 6), so `kk` plays no part in the dispatch: the GEMM
//! keeps only what the f32 sweeps cannot run. `tests/plane_kernel_shapes.rs`
//! sweeps every small plane shape and channel count of both sweeps, and
//! both sides of the `2^24` guard, against the direct loop.

use std::ops::Range;

use bconv_tensor::kernel::lane_tile::{self, conv3x3, no_pool, pack_lanes, Policy};
use bconv_tensor::kernel::{KernelKind, OutGeom};
use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::{Tensor, TensorError};

use crate::qconv::{QConv2d, QConvScratch};
use crate::QParams;

/// Quantized weights packed for the integer fast path, built once at
/// [`QConv2d`] construction: row-major `M×K` `i16` rows per group for the
/// GEMM (quantized at the layer's per-channel scales, narrowed from the
/// direct loop's `i32` storage — every representable weight fits `i16` at
/// bitwidths up to 16), plus — for 3×3 stride-1 layers only — the same
/// integers as `f32` in the **one** lane-major layout both exact-f32 sweeps
/// read: `[group][c_out tile][c_in][tap][lanes]` ([`pack_lanes`]), a tile
/// being 16 or 8 consecutive output channels of one group, a thin group one
/// 8-lane tile, and the lanes a ragged last tile has no channel for zero.
#[derive(Debug, Clone)]
pub struct QPackedWeights {
    data: Vec<i16>,
    lanes: Option<Vec<f32>>,
    max_abs: i32,
}

impl QPackedWeights {
    /// Packs the already-quantized `[c_out, c_in/g, k, k]` row-major
    /// weights of a layer with `groups` groups and stride `stride`.
    pub(crate) fn pack(
        weight_q: &[i32],
        [c_out, cin_per_group, k, _]: [usize; 4],
        groups: usize,
        stride: usize,
    ) -> Self {
        let max_abs = weight_q.iter().fold(0i32, |m, &w| m.max(w.abs()));
        let data = weight_q.iter().map(|&w| w as i16).collect();
        let lanes = lane_tile::takes(k, stride).then(|| {
            // `as f32` is exact: |w| <= 32767 is far inside f32's integer range.
            let rows: Vec<f32> = weight_q.iter().map(|&w| w as f32).collect();
            let mut lanes = Vec::new();
            pack_lanes(&rows, [groups, c_out / groups, cin_per_group * 9], &mut lanes);
            lanes
        });
        Self { data, lanes, max_abs }
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
}

/// How many partial-sum magnitudes f32 holds exactly: every integer below
/// `2^24` is representable, so integer accumulation carried in f32 lanes is
/// bit-exact as long as `K * max|w_q| * qmax_act` stays under this.
const F32_EXACT_LIMIT: i64 = 1 << 24;

/// What a fused stage does to every value it stores, after the rescale:
/// the ReLU stages that follow it, folded (`relu_inplace`'s exact `v < 0.0`
/// test — NaN and `-0.0` pass), then, when the value feeds an exact-f32
/// convolution, quantization at **that** convolution's input [`QParams`]
/// (`quantize_value_f32`) — so the next stage reads its activations where
/// they were stored, already in its own format. Bit for bit the same as
/// storing, applying the ReLU in place and quantizing inside the next
/// kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Epilogue {
    /// Apply a ReLU.
    pub relu: bool,
    /// Quantize at these parameters (the next convolution's input).
    pub requant: Option<QParams>,
}

impl Epilogue {
    /// Store the value as it is.
    pub const NONE: Self = Self { relu: false, requant: None };

    /// The stored value for `v`.
    #[inline(always)]
    pub fn apply(&self, v: f32) -> f32 {
        let v = if self.relu && v < 0.0 { 0.0 } else { v };
        match self.requant {
            Some(q) => q.quantize_value_f32(v),
            None => v,
        }
    }
}

/// Accumulation bound over any association of the reduction of `q` on
/// activations quantized at `act_params`: each partial sum is at most `K ·
/// max|w_q| · qmax_act` in magnitude.
fn reduction_bound(q: &QConv2d, act_params: QParams) -> i64 {
    let [_, cin_per_group, k, _] = q.weight_dims;
    (cin_per_group * k * k) as i64 * q.packed.max_abs() as i64 * act_params.qmax() as i64
}

/// The lane-major weights of `q`'s exact-f32 sweeps on activations
/// quantized at `act_params` — the layers [`quantized_conv_at`] takes — or
/// `None` where another kernel runs the layer: the direct loop, or the GEMM
/// (not 3×3 stride 1, or a reduction bound past f32's exact-integer range).
pub(crate) fn exact_weights(q: &QConv2d, act_params: QParams) -> Option<&[f32]> {
    let exact =
        q.kernel() == KernelKind::Im2colGemm && reduction_bound(q, act_params) < F32_EXACT_LIMIT;
    q.packed.lanes.as_deref().filter(|_| exact)
}

/// The fused-chain entry of the exact-f32 kernels: `acts` is a padded block
/// whose values are **already quantized** at `act_params` (integer-valued
/// f32, as a previous stage's [`Epilogue`] stored them), whose `[top,
/// bottom, left, right]` rows and columns `zero` hold zeros (`[0; 4]`:
/// none declared), and every output goes through `epi` and is stored at
/// `at` in `out` — or, with a `pool` `(k, post)`, `k × k`-max-pooled
/// through `post` on the way (`conv3x3`; `lane_tile::no_pool` for none).
/// Bit for bit `qim2col_gemm` on the dequantized block followed by a copy
/// through `epi` (and the pooling).
pub(crate) fn quantized_conv_at(
    q: &QConv2d,
    act_params: QParams,
    (acts, zero): (&Tensor, [usize; 4]),
    (out, at, epi): (&mut [f32], OutGeom, Epilogue),
    pool: Option<(impl Into<usize> + Copy, impl Fn(f32) -> f32 + Copy)>,
) -> Result<(), TensorError> {
    let dims @ [n, c_in, ph, pw] = acts.shape().dims();
    q.check_channels("QConv2d quantized input channels", c_in)?;
    let (oh, ow) = (conv_out_dim(ph, 3, 1, 0)?, conv_out_dim(pw, 3, 1, 0)?);
    let [sh, sw] = lane_tile::stored_dims([oh, ow], pool.map(|p| p.0.into()))?;
    at.check(n * q.c_out(), sh, sw, out.len())?;
    let [top, bottom, left, right] = zero;
    if top + bottom > ph || left + right > pw {
        return Err(TensorError::invalid("QConv2d: the declared zero halo exceeds the block"));
    }
    debug_assert!(
        halo_is_zero(acts.data(), [ph, pw], zero),
        "QConv2d: a cell of the declared zero halo is not zero"
    );
    let Some(wl) = exact_weights(q, act_params) else {
        return Err(TensorError::invalid("QConv2d: the layer runs no exact-f32 kernel"));
    };
    exact_conv(q, wl, (acts.data(), dims, zero), act_params.scale(), (out, at, epi), pool);
    Ok(())
}

/// Whether the `[top, bottom, left, right]` halo of every `ph × pw` plane
/// of `data` holds only zeros — the promise a declared zero halo makes.
fn halo_is_zero(
    data: &[f32],
    [ph, pw]: [usize; 2],
    [top, bottom, left, right]: [usize; 4],
) -> bool {
    data.chunks_exact(pw).enumerate().all(|(i, row)| {
        let y = i % ph;
        let halo = if y < top || y + bottom >= ph { row } else { &row[..left] };
        halo.iter().chain(&row[pw - right..]).all(|&v| v == 0.0)
    })
}

/// The integer fast path. Dispatches on the layer's shape (decided once,
/// when its weights were packed) and the exactness guard:
///
/// * 3×3 stride-1 layers whose reduction bound fits f32's exact-integer
///   range take the exact-f32 sweeps with no patch matrix at all
///   (`exact_conv`: channel or spatial lanes, as `conv3x3` chooses);
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

    if let Some(wl) = exact_weights(q, act_params) {
        let actf = &mut scratch.actf;
        actf.resize(padded.data().len(), 0.0);
        for (dst, &v) in actf.iter_mut().zip(padded.data()) {
            *dst = act_params.quantize_value_f32(v);
        }
        out.reset([n, c_out, oh, ow]);
        let to = (out.data_mut(), OutGeom::compact(oh, ow), Epilogue::NONE);
        // A whole map declares no zero halo: it runs every tap.
        exact_conv(q, wl, (actf, padded.shape().dims(), [0; 4]), act_params.scale(), to, no_pool());
        return Ok(());
    }
    let bound = reduction_bound(q, act_params);
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

/// `a * b + c` on exact integers below `2^24` (see `exact_conv`): fused
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

/// The exact-f32 sweeps of a 3×3 stride-1 layer whose lane-major weights
/// are `wl` on the quantized `acts` (`[n, c_in, ph, pw]`, whose declared
/// zero halo `zero` the channel-lane tile skips), storing every output at
/// `at` in `out` through `epi` (and `pool`): `bconv_tensor`'s `conv3x3`
/// under the exact policy, [`Emit`] — channel lanes (a tile of up to eight consecutive
/// output pixels of one row × 16 or 8 output channels held in registers
/// across all input channels) or spatial lanes (a chunk of sixteen
/// positions of the padded-width plane × up to four output channels), as
/// `conv3x3` chooses for both precisions.
///
/// Bitwise parity with the direct loop: the caller guarantees `K *
/// max|w_q| * qmax_act < 2^24`, so every product and partial sum (junk
/// lanes included) is an integer f32 holds exactly in *any* association,
/// fused or not, and the rescale is the direct loop's expression verbatim
/// — and for the same reason the taps that read the declared zero halo may
/// be skipped.
fn exact_conv(
    q: &QConv2d,
    wl: &[f32],
    (acts, dims, zero): (&[f32], [usize; 4], [usize; 4]),
    act_scale: f32,
    (out, at, epi): (&mut [f32], OutGeom, Epilogue),
    pool: Option<(impl Into<usize> + Copy, impl Fn(f32) -> f32 + Copy)>,
) {
    let [c_out, ..] = q.weight_dims;
    let emit =
        (|live| Emit::new(q, live, act_scale, epi), |live| Emit::new(q, live, act_scale, epi));
    conv3x3(wl, (acts, dims), [q.groups, c_out / q.groups], zero, (out, at), emit, pool);
}

/// The exact policy of the shared 3×3 sweeps
/// ([`bconv_tensor::kernel::lane_tile`]): lanes carry integers below 2²⁴, so
/// they start at zero, go through [`mac`] and may be summed in any
/// association; a finished sum of output channel `l` is rescaled with that
/// channel's factors (zero past the live ones) and, in a fused chain,
/// requantized for the next stage through its [`Epilogue`] — one policy, so
/// each sweep has one exact instantiation per shape.
struct Emit<const L: usize> {
    scale: [f32; L],
    bias: [f32; L],
    epi: Epilogue,
}

impl<const L: usize> Emit<L> {
    /// For the output channels `live` of `q`.
    fn new(q: &QConv2d, live: Range<usize>, act_scale: f32, epi: Epilogue) -> Self {
        let (mut scale, mut offset) = ([0.0f32; L], [0.0f32; L]);
        for (l, (&ws, &b)) in q.wscales[live.clone()].iter().zip(&q.bias[live]).enumerate() {
            // The direct loop's `out_scale`, same operand order.
            scale[l] = ws * act_scale;
            offset[l] = b;
        }
        Self { scale, bias: offset, epi }
    }
}

impl<const L: usize> Policy<L> for Emit<L> {
    const EXACT: bool = true;

    #[inline(always)]
    fn start(&self) -> [f32; L] {
        [0.0; L]
    }

    #[inline(always)]
    fn mac(w: f32, x: f32, acc: f32) -> f32 {
        mac(w, x, acc)
    }

    /// Rescales with the direct loop's expression verbatim — `acc *
    /// (wscale[m] * act_scale) + bias[m]`, a separate multiply and add: the
    /// result is no integer, so no [`mac`] — and passes the value through
    /// the epilogue in the same pass (a pass per step measured no faster,
    /// with three times the shuffles).
    #[inline(always)]
    fn emit(&self, l: usize, v: f32) -> f32 {
        self.epi.apply(v * self.scale[l] + self.bias[l])
    }

    /// Never: every sum is rescaled.
    #[inline(always)]
    fn keeps_sums(&self) -> bool {
        false
    }
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
    use bconv_tensor::kernel::lane_tile::lane_tiles;

    #[test]
    fn packing_narrows_and_tracks_max() {
        let p = QPackedWeights::pack(&[3, -7, 0, 32767, -32767], [1, 5, 1, 1], 1, 1);
        assert_eq!(p.max_abs(), 32767);
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(p.group_rows(0, 1, 5), &[3, -7, 0, 32767, -32767]);
    }

    #[test]
    fn each_layer_packs_exactly_one_f32_layout() {
        // c_out/g -> lanes per group: 16 -> one full tile; 17 -> a 16-lane
        // tile plus an 8-lane one with seven zero lanes; 9 -> one 16-lane
        // tile, seven zero lanes; 8 -> one full 8-lane tile; 1 -> one 8-lane
        // tile with seven zero lanes, which the spatial-lane sweep reads too.
        let layouts = [(16usize, 16usize), (17, 24), (9, 16), (8, 8), (1, 8)];
        for groups in [1usize, 2] {
            for (cout, group_lanes) in layouts {
                let (cin, kk) = (16usize, 16 * 9);
                let wq: Vec<i32> = (0..groups * cout * kk).map(|i| i as i32 % 251 - 125).collect();
                let p = QPackedWeights::pack(&wq, [groups * cout, cin, 3, 3], groups, 1);
                assert_eq!(p.len(), wq.len(), "i16 rows stay for the GEMM fallback");
                let data = p.lanes.as_deref().expect("3x3 stride-1 layers pack lanes");
                assert_eq!(data.len(), groups * kk * group_lanes, "{cout} g{groups}");
                // Every weight sits in its lane; what is left over is the
                // ragged tile's zero lanes.
                let mut tiles = data;
                for grp in 0..groups {
                    for (mo, lanes) in lane_tiles(cout) {
                        let tile;
                        (tile, tiles) = tiles.split_at(kk * lanes);
                        for (l, lane_vec) in tile.chunks_exact(lanes).enumerate() {
                            for (lane, &v) in lane_vec.iter().enumerate() {
                                let m = grp * cout + mo + lane;
                                let want = if mo + lane < cout { wq[m * kk + l] } else { 0 };
                                assert_eq!(v, want as f32, "{cout} g{groups} m{m} l{l}");
                            }
                        }
                    }
                }
                assert!(tiles.is_empty());
            }
        }
        // Anything but 3×3 stride 1 runs the GEMM only: no f32 copy.
        let wq = vec![1i32; 16 * 16 * 9];
        for (dims, stride) in [([16, 16, 3, 3], 2), ([16, 16 * 9, 1, 1], 1)] {
            let p = QPackedWeights::pack(&wq, dims, 1, stride);
            assert!(p.lanes.is_none(), "{dims:?} s{stride}");
        }
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
