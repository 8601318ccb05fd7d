//! The integer fast path: the quantized counterpart of the float
//! [`KernelKind::Im2colGemm`].
//!
//! The direct loop in [`crate::qconv`] pays seven nested loops of strided
//! reads per output element. This module replaces it with three kernels,
//! dispatched in `qim2col_gemm` on the **layer's shape alone** (plus the
//! exactness guard below — no reduction-length cutover, no knob):
//!
//! * 3×3 stride-1 layers with more than eight output channels per group
//!   run the exact-f32 **channel-lane kernel** (`qlane_conv`);
//! * thinner 3×3 stride-1 layers (VDSR's 16→1, VGG's 3→4 and 8→8) run the
//!   exact-f32 **spatial-lane plane kernel** (`qplane_conv`);
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
//! The two f32 kernels carry the same integers in f32 lanes. Below `2^24`
//! (`F32_EXACT_LIMIT`, which the dispatch checks against that same bound)
//! every product and every partial sum is an integer f32 represents
//! exactly, so each multiply and add is exact *in any association* — which
//! is why either axis may take the lanes and why a tile may sum its taps in
//! whatever order keeps its registers busy — and a fused multiply-add
//! rounds to the same bits as a separate multiply and add, so both kernels
//! go through `mac`, which uses the FMA unit when the build targets one:
//! the one `mul_add` the L6 lint allows.
//!
//! # Which axis gets the lanes
//!
//! The question and the answer apply to both precisions — the channel-lane
//! tile is **shared** with the float fast path
//! ([`bconv_tensor::kernel::lane_tile`]; this module supplies the exact
//! arithmetic policy and the rescaling epilogue, `Emit`, and keeps its own
//! quantize pass) — only the channel count at which the lanes change axis
//! differs, see the end of this section.
//!
//! A vector lane must be an output. With **output channels** in the lanes
//! (`qlane_conv`) a register tile is up to eight consecutive pixels of one
//! output row × 16 channels, held across all input channels: per kernel row
//! three weight-vector loads and ten scalar broadcasts feed 48 FMAs, every
//! lane of every tile is an output (pixel tiles of 8 / 4 / 2 / 1 cover any
//! width exactly; only a ragged last channel tile carries zero lanes), and
//! the kernel reads the padded activations in place — no wrap columns, no
//! slack, no accumulator plane. With **plane positions** in the lanes
//! (`qplane_conv`) a chunk is 16 consecutive positions of the padded-width
//! span × two channels: nine window loads and eighteen weight broadcasts
//! per 18 FMAs, 80 lanes computed for an 8×8 block's 64 outputs and 16 for
//! a 2×2 plane's 4. Channel lanes measured 38 GMAC/s per call against
//! 19–25 on 16→16 layers (`cargo bench -p bconv-bench -- qplane_`), on 8×8
//! blocks and whole maps alike, and 28 against 6 on 2×2 planes.
//!
//! What channel lanes pay is a transpose: a tile's lanes belong to
//! different planes of the NCHW output, so every output element costs a
//! scalar load and store where the spatial lanes store vectors. A 16-lane
//! tile amortises that from nine channels up (16→12 reads 27 against 13–23,
//! 16→15 34); a layer of eight channels or fewer would run 8-lane tiles —
//! half the FMAs per broadcast — and measured 16–19 against 18–22 at 8→8
//! on 14×14 and 26×26 planes, so it keeps the spatial lanes, as does every
//! thinner one (a `c_out = 1` layer would fill one lane in eight). 8-lane
//! tiles remain for the last tile of a group (24 = 16 + 8 channels). The
//! float path switches one channel earlier, at eight: its spatial-lane
//! kernel has no FMA and one chain per lane, and its 8-lane tiles measured
//! 26–30 GMAC/s against 23–27 at 8→8 on 30×30 planes.
//!
//! # In a fused chain
//!
//! Both exact-f32 kernels also run as a fused chain's stage
//! ([`QuantChainOp::forward_quantized_at`](crate::qconv::QuantChainOp::forward_quantized_at)):
//! the padded block they read already holds integer-valued f32 — the
//! previous stage quantized while it stored — so there is no quantize
//! pass, and they store at an [`OutGeom`] through an [`Epilogue`]:
//! rescale, the folded ReLU, then quantization at the **next** stage's
//! input parameters, straight into the interior of that stage's padded
//! buffer (or the group's output map, unquantized). The channel-lane store
//! is the shared `sweep_lanes` under `Emit`, which carries the epilogue;
//! the spatial-lane kernel applies it in its extraction. A block padded
//! with zeros declares its halo, and the channel-lane tile skips every tap
//! that reads it — exact integers, so the skipped `w · 0` changes no bit
//! (`tests/plane_kernel_shapes.rs` sweeps every halo of up to two rows and
//! columns per side on every plane up to 9×9, declared against undeclared
//! and against the direct loop; debug builds check that a declared halo
//! really holds zeros). Whole maps and replicate / reflect halos declare
//! none; the spatial-lane kernel, whose chunks span rows, runs every tap
//! either way. Everything the
//! GEMM runs (past the 2²⁴ bound, w8a16, non-3×3) reads float blocks
//! through `forward_prepadded_into` and its compact output is copied
//! through the same epilogue.
//!
//! # No reduction-length cutover
//!
//! Neither f32 kernel builds a patch matrix, and per call both outrun the
//! GEMM at every reduction length measured (`qplane_kk_sweep`: 24→24 …
//! 96→96 run 36–43 GMAC/s on channel lanes against 12–21 on the GEMM; thin
//! 40→4 18 against 6), so `kk` plays no part in the dispatch: the GEMM
//! keeps only what the f32 kernels cannot run. `tests/plane_kernel_shapes.rs`
//! sweeps every small plane shape and channel count of both kernels, and
//! both sides of the `2^24` guard, against the direct loop.

use bconv_tensor::kernel::lane_tile::{each_tile, pack_lanes, sweep_lanes, Policy, VEC};
use bconv_tensor::kernel::{KernelKind, OutGeom};
use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::{each_pixel, Tensor, TensorError};

use crate::qconv::{QConv2d, QConvScratch};
use crate::QParams;

/// Quantized weights packed for the integer fast path, built once at
/// [`QConv2d`] construction: row-major `M×K` `i16` rows per group for the
/// GEMM (quantized at the layer's per-channel scales, narrowed from the
/// direct loop's `i32` storage — every representable weight fits `i16` at
/// bitwidths up to 16), plus — for 3×3 stride-1 layers only — the same
/// integers as `f32` in the **one** layout the layer's exact-f32 kernel
/// reads (`PlaneWeights`).
#[derive(Debug, Clone)]
pub struct QPackedWeights {
    data: Vec<i16>,
    plane: PlaneWeights,
    max_abs: i32,
}

/// The integer-valued `f32` weights of a 3×3 stride-1 layer. Which
/// exact-f32 kernel runs a layer is a property of its shape, so each layer
/// packs exactly one layout.
#[derive(Debug, Clone)]
pub(crate) enum PlaneWeights {
    /// Not a 3×3 stride-1 layer: only the GEMM runs it.
    None,
    /// At most [`VEC`] output channels per group: the GEMM's row-major
    /// rows, for the spatial-lane kernel (`qplane_conv`).
    Rows(Vec<f32>),
    /// Lane-major `[group][c_out tile][c_in][tap][lanes]` for the
    /// channel-lane kernel (`qlane_conv`): a tile is `lanes` = 16 or 8
    /// consecutive output channels of one group (`lane_tiles`); the lanes a
    /// ragged last tile has no channel for are zero.
    Lanes(Vec<f32>),
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
        let cout_per_group = c_out / groups;
        // `as f32` is exact: |w| <= 32767 is far inside f32's integer range.
        let rows = || weight_q.iter().map(|&w| w as f32).collect::<Vec<_>>();
        let plane = if k != 3 || stride != 1 {
            PlaneWeights::None
        } else if cout_per_group <= VEC {
            PlaneWeights::Rows(rows())
        } else {
            let mut lanes = Vec::new();
            pack_lanes(&rows(), [groups, cout_per_group, cin_per_group * 9], &mut lanes);
            PlaneWeights::Lanes(lanes)
        };
        Self { data, plane, max_abs }
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

/// The weights of `q`'s exact-f32 kernel on activations quantized at
/// `act_params` — the layers [`quantized_conv_at`] takes — or `None` where
/// another kernel runs the layer: the direct loop, or the GEMM (not 3×3
/// stride 1, or a reduction bound past f32's exact-integer range).
pub(crate) fn exact_weights(q: &QConv2d, act_params: QParams) -> Option<&PlaneWeights> {
    let exact =
        q.kernel() == KernelKind::Im2colGemm && reduction_bound(q, act_params) < F32_EXACT_LIMIT;
    (exact && !matches!(q.packed.plane, PlaneWeights::None)).then_some(&q.packed.plane)
}

/// The fused-chain entry of the exact-f32 kernels: `acts` is a padded block
/// whose values are **already quantized** at `act_params` (integer-valued
/// f32, as a previous stage's [`Epilogue`] stored them), whose `[top,
/// bottom, left, right]` rows and columns `zero` hold zeros (`[0; 4]`:
/// none declared), and every output is stored at `at` in `out` through
/// `epi`. Bit for bit `qim2col_gemm` on the dequantized block followed by a
/// copy through `epi`.
pub(crate) fn quantized_conv_at(
    q: &QConv2d,
    act_params: QParams,
    (acts, zero): (&Tensor, [usize; 4]),
    (out, at, epi): (&mut [f32], OutGeom, Epilogue),
    scratch: &mut QConvScratch,
) -> Result<(), TensorError> {
    let dims @ [n, c_in, ph, pw] = acts.shape().dims();
    q.check_channels("QConv2d quantized input channels", c_in)?;
    let (oh, ow) = (conv_out_dim(ph, 3, 1, 0)?, conv_out_dim(pw, 3, 1, 0)?);
    at.check(n * q.c_out(), oh, ow, out.len())?;
    let [top, bottom, left, right] = zero;
    if top + bottom > ph || left + right > pw {
        return Err(TensorError::invalid("QConv2d: the declared zero halo exceeds the block"));
    }
    debug_assert!(
        halo_is_zero(acts.data(), [ph, pw], zero),
        "QConv2d: a cell of the declared zero halo is not zero"
    );
    let Some(weights) = exact_weights(q, act_params) else {
        return Err(TensorError::invalid("QConv2d: the layer runs no exact-f32 kernel"));
    };
    let QConvScratch { actf, accf, .. } = scratch;
    // Only a spatial-lane plane narrower than one chunk reads past its
    // planes: give it the slack lanes of a copy.
    let data = if matches!(weights, PlaneWeights::Rows(_)) && span(oh, ow) < LANES {
        actf.clear();
        actf.extend_from_slice(acts.data());
        actf.resize(acts.data().len() + LANES, 0.0);
        &actf[..]
    } else {
        acts.data()
    };
    exact_conv(q, weights, (data, dims, zero), act_params, (out, at, epi), accf);
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

/// The exact-f32 kernel of `weights` on the quantized `acts` (`[n, c_in,
/// ph, pw]`, plus the slack the spatial-lane kernel may need, and the zero
/// halo the channel-lane kernel skips), storing at `at` in `out` through
/// `epi`.
fn exact_conv(
    q: &QConv2d,
    weights: &PlaneWeights,
    acts: (&[f32], [usize; 4], [usize; 4]),
    act_params: QParams,
    to: (&mut [f32], OutGeom, Epilogue),
    accf: &mut Vec<f32>,
) {
    match weights {
        PlaneWeights::Lanes(wl) => qlane_conv(q, wl, acts, act_params.scale(), to),
        PlaneWeights::Rows(rows) => {
            let (data, dims, _) = acts;
            qplane_conv(q, rows, (data, dims), act_params.scale(), to, accf)
        }
        PlaneWeights::None => debug_assert!(false, "exact_weights never returns the GEMM's"),
    }
}

/// The integer fast path. Dispatches on the layer's shape (decided once,
/// when its weights were packed: [`PlaneWeights`]) and the exactness guard:
///
/// * 3×3 stride-1 layers whose reduction bound fits f32's exact-integer
///   range take an exact-f32 kernel with no patch matrix at all — channel
///   lanes (`qlane_conv`) above eight output channels per group, spatial
///   lanes (`qplane_conv`) up to eight;
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

    if let Some(weights) = exact_weights(q, act_params) {
        let QConvScratch { actf, accf, .. } = scratch;
        // Behind the last plane the spatial-lane kernel's windows may run
        // on into `LANES` slack lanes (see `qplane_conv`).
        quantize_f32(padded, act_params, actf, LANES);
        out.reset([n, c_out, oh, ow]);
        let to = (out.data_mut(), OutGeom::compact(oh, ow), Epilogue::NONE);
        // A whole map declares no zero halo: it runs every tap.
        let acts = (&actf[..], padded.shape().dims(), [0; 4]);
        exact_conv(q, weights, acts, act_params, to, accf);
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

/// The exact-f32 **spatial-lane plane kernel** for 3×3 stride-1 layers too
/// thin to fill a vector with output channels: activations are quantized
/// to **integer-valued f32** and the convolution runs as fused nine-tap
/// shift-and-add sweeps over accumulators kept in the padded-width plane
/// layout (the `pw - ow` junk columns where windows wrap rows are computed
/// but never extracted), so there is no patch matrix and no horizontal
/// reduction — the two costs that dominate the dot-product GEMM. `rows` is
/// the layer's [`PlaneWeights::Rows`] data.
///
/// # Sweep shape
///
/// The accumulator span `(oh - 1)·pw + ow` is swept in [`LANES`]-wide
/// chunks and each chunk is summed over every input channel in registers
/// (`sweep_chunk`), two output channels at a time so each source window is
/// loaded once for both. There is no scalar tail and no accumulator
/// traffic inside the reduction, which is what block-sized planes need: an
/// 8×8 block's span is 78 lanes, and its 256 `(c_out, c_in)` sweeps used
/// to spend as long in 14-element tails and accumulator reloads as in
/// vector code. The last chunk is moved back to end exactly with the span
/// (it recomputes a few lanes of its predecessor, to the same integers),
/// so every window lies inside its own plane and the kernel reads a padded
/// block in place; only a span narrower than one chunk runs past it, into
/// the [`LANES`] zeroed slack lanes the caller then puts behind the last
/// plane.
///
/// The `pw - ow` wrap lanes of every row are **junk** (their windows
/// straddle two rows, or a narrow span's run on into the next channel's
/// plane, the next image or the slack). Junk lanes are written to `accf`,
/// but extraction reads `acc[ohi·pw .. ohi·pw + ow]`, whose last index is
/// `span - 1`: no junk lane can reach the output. Extraction rescales,
/// applies the stage's [`Epilogue`] and stores each output row at the row
/// pitch of `at`.
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
    rows: &[f32],
    (acts, [n, c_in, ph, pw]): (&[f32], [usize; 4]),
    act_scale: f32,
    (out, at, epi): (&mut [f32], OutGeom, Epilogue),
    accf: &mut Vec<f32>,
) {
    let [c_out, cin_per_group, _, _] = q.weight_dims;
    let (oh, ow) = (ph - 2, pw - 2);
    let groups = q.groups;
    let cout_per_group = c_out / groups;
    let kk = cin_per_group * 9;
    let plane = ph * pw;
    // Rows `0..oh` of the accumulator plane hold output rows at padded
    // width; the last row needs only `ow` columns.
    let acc_len = span(oh, ow).max(LANES);
    // One accumulator plane per output channel of a pair.
    accf.resize(2 * acc_len, 0.0);

    for ni in 0..n {
        for grp in 0..groups {
            let wgrp = &rows[grp * cout_per_group * kk..(grp + 1) * cout_per_group * kk];
            let wrow = |mo: usize| &wgrp[mo * kk..(mo + 1) * kk];
            let group = &acts[(ni * c_in + grp * cin_per_group) * plane..];
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
                    let o0 = at.offset + (ni * c_out + m) * at.plane;
                    for ohi in 0..oh {
                        let arow = &acc[ohi * pw..ohi * pw + ow];
                        let dst = &mut out[o0 + ohi * at.row..][..ow];
                        for (o, &a) in dst.iter_mut().zip(arow) {
                            *o = epi.apply(a * os + bi);
                        }
                    }
                }
            }
        }
    }
}

/// The accumulator lanes that can hold an output of an `oh × ow` plane:
/// the padded-width layout up to the last output of the last row.
fn span(oh: usize, ow: usize) -> usize {
    (oh - 1) * (ow + 2) + ow
}

/// The activations of `padded` as integer-valued f32 in `actf` — the format
/// of both exact-f32 kernels — followed by `slack` zeroed elements (zeroed
/// per call, so that nothing computed depends on an earlier one).
fn quantize_f32(padded: &Tensor, act_params: QParams, actf: &mut Vec<f32>, slack: usize) {
    let len = padded.data().len();
    actf.resize(len + slack, 0.0);
    let (acts, tail) = actf.split_at_mut(len);
    for (dst, &v) in acts.iter_mut().zip(padded.data()) {
        *dst = act_params.quantize_value_f32(v);
    }
    tail.fill(0.0);
}

/// Accumulator chunk width of the plane kernel: two 8-lane vectors, the
/// width at which the fixed-size inner loops below compile to straight
/// vector code (8 and 32 measured slower).
const LANES: usize = 16;

/// Fills `M` accumulator planes (`acc` = `M` runs of at least [`LANES`]
/// lanes) with the plane sums of the output channels whose weight rows are
/// `wrows`, over the input planes starting at `group`; the last chunk ends
/// exactly with its run.
fn sweep_plane<const M: usize>(
    group: &[f32],
    pw: usize,
    plane: usize,
    wrows: [&[f32]; M],
    acc: &mut [f32],
) {
    let acc_len = acc.len() / M;
    for at in (0..acc_len).step_by(LANES) {
        let at = at.min(acc_len - LANES);
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
            debug_assert!(false, "qplane_conv keeps every window inside its planes or the slack");
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

/// The exact-f32 **channel-lane kernel** for 3×3 stride-1 layers with more
/// than [`VEC`] output channels per group: the vector lanes are
/// consecutive *output channels* (`lane_tiles`), and a tile of up to eight
/// consecutive output pixels of one row stays in registers across all input
/// channels (the shared `lane_tile`, under the exact policy). Every lane of every pixel tile is an output — no
/// wrap columns, no rounded-up chunk, no slack behind `actf`, no
/// accumulator plane — which is what block-sized planes need (an 8×8 block
/// is eight 8-pixel tiles per channel tile; the spatial-lane sweep computes
/// 80 lanes for its 64 outputs and reloads nine windows per 16 lanes).
///
/// Pixel tiles of 8 / 4 / 2 / 1 cover any output width exactly. Bitwise
/// parity is `qplane_conv`'s argument unchanged: the caller guarantees
/// `K * max|w_q| * qmax_act < 2^24`, so every product and partial sum is an
/// integer f32 holds exactly in *any* association, fused or not, and the
/// rescale is the direct loop's expression verbatim — and for the same
/// reason the taps that read the declared zero halo `zero` may be skipped
/// (`sweep_lanes`). `wl` is the layer's [`PlaneWeights::Lanes`] data;
/// outputs are stored at `at` through `epi`.
fn qlane_conv(
    q: &QConv2d,
    wl: &[f32],
    (acts, [n, _, ph, pw], zero): (&[f32], [usize; 4], [usize; 4]),
    act_scale: f32,
    (out, at, epi): (&mut [f32], OutGeom, Epilogue),
) {
    let [c_out, cin_per_group, _, _] = q.weight_dims;
    let dims = [ph - 2, pw - 2, pw, ph * pw];
    let shape = [n, q.groups, cin_per_group, c_out / q.groups];
    each_tile(wl, acts, (out, at), shape, ph * pw, |wt, group, live, lanes, dst| {
        let tile = (at, live.len());
        let (ws, bs) = (&q.wscales[live.clone()], &q.bias[live]);
        if lanes == 2 * VEC {
            let emit = Emit::<{ 2 * VEC }>::new(ws, act_scale, bs, epi);
            sweep_lanes(wt, group, dims, zero, tile, &emit, dst);
        } else {
            let emit = Emit::<VEC>::new(ws, act_scale, bs, epi);
            sweep_lanes(wt, group, dims, zero, tile, &emit, dst);
        }
    });
}

/// The exact policy of the shared channel-lane tile
/// ([`bconv_tensor::kernel::lane_tile`]): lanes carry integers below 2²⁴, so
/// they start at zero, go through [`mac`] and may be summed in any
/// association; a finished tile is rescaled with the factors of its `L`
/// lanes (zero past the live ones) and, in a fused chain, requantized for
/// the next stage through its [`Epilogue`] — one policy, so the tile has
/// one exact instantiation per shape.
struct Emit<const L: usize> {
    scale: [f32; L],
    bias: [f32; L],
    epi: Epilogue,
}

impl<const L: usize> Emit<L> {
    /// For the channels whose weight scales are `wscales` and biases
    /// `bias`.
    fn new(wscales: &[f32], act_scale: f32, bias: &[f32], epi: Epilogue) -> Self {
        let (mut scale, mut offset) = ([0.0f32; L], [0.0f32; L]);
        for (l, (&ws, &b)) in wscales.iter().zip(bias).enumerate() {
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

    /// Rescales a pixel tile with the direct loop's expression verbatim —
    /// `acc * (wscale[m] * act_scale) + bias[m]`, a separate multiply and
    /// add: the result is no integer, so no [`mac`] — and passes it through
    /// the epilogue in the same pass (a pass per step measured no faster,
    /// with three times the shuffles).
    #[inline(always)]
    fn finish<const P: usize>(&self, acc: &mut [[f32; L]; P]) {
        let epi = self.epi;
        for (l, (&scale, &bias)) in self.scale.iter().zip(&self.bias).enumerate() {
            each_pixel!(PX < P => {
                acc[PX][l] = epi.apply(acc[PX][l] * scale + bias);
            });
        }
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
        // tile, seven zero lanes; 8 and 1 -> the spatial-lane kernel's
        // rows, no lanes at all.
        let layouts =
            [(16usize, Some(16usize)), (17, Some(24)), (9, Some(16)), (8, None), (1, None)];
        for groups in [1usize, 2] {
            for (cout, group_lanes) in layouts {
                let (cin, kk) = (16usize, 16 * 9);
                let wq: Vec<i32> = (0..groups * cout * kk).map(|i| i as i32 % 251 - 125).collect();
                let p = QPackedWeights::pack(&wq, [groups * cout, cin, 3, 3], groups, 1);
                assert_eq!(p.len(), wq.len(), "i16 rows stay for the GEMM fallback");
                match (&p.plane, group_lanes) {
                    (PlaneWeights::Rows(rows), None) => {
                        assert!(rows.iter().zip(&wq).all(|(&r, &w)| r == w as f32));
                        assert_eq!(rows.len(), wq.len());
                    }
                    (PlaneWeights::Lanes(data), Some(group_lanes)) => {
                        assert_eq!(data.len(), groups * kk * group_lanes, "{cout} g{groups}");
                        // Every weight sits in its lane; what is left over
                        // is the ragged tile's zero lanes.
                        let mut tiles = data.as_slice();
                        for grp in 0..groups {
                            for (mo, lanes) in lane_tiles(cout) {
                                let tile;
                                (tile, tiles) = tiles.split_at(kk * lanes);
                                for (l, lane_vec) in tile.chunks_exact(lanes).enumerate() {
                                    for (lane, &v) in lane_vec.iter().enumerate() {
                                        let m = grp * cout + mo + lane;
                                        let want =
                                            if mo + lane < cout { wq[m * kk + l] } else { 0 };
                                        assert_eq!(v, want as f32, "{cout} g{groups} m{m} l{l}");
                                    }
                                }
                            }
                        }
                        assert!(tiles.is_empty());
                    }
                    (plane, _) => panic!("{cin}->{cout} g{groups} packed {plane:?}"),
                }
            }
        }
        // Anything but 3×3 stride 1 runs the GEMM only: no f32 copy.
        let wq = vec![1i32; 16 * 16 * 9];
        for (dims, stride) in [([16, 16, 3, 3], 2), ([16, 16 * 9, 1, 1], 1)] {
            let p = QPackedWeights::pack(&wq, dims, 1, stride);
            assert!(matches!(p.plane, PlaneWeights::None), "{dims:?} s{stride}");
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
