//! Convolution kernels: the *how* of a [`Conv2d`], separated from the
//! *what*.
//!
//! The layer definition ([`Conv2d`]) fixes the mathematics; a
//! [`KernelKind`] names the loop structure that evaluates it, and
//! [`Conv2d::forward_prepadded_into`] dispatches on it:
//!
//! * [`KernelKind::Direct`] — the naive seven-loop direct convolution.
//!   Minimal working memory; the oracle every other kernel is compared
//!   against.
//! * [`KernelKind::Im2colGemm`] — the **fast path**, dispatched by layer
//!   shape alone inside `im2col_gemm`, exactly as the integer fast path
//!   (`bconv_quant::qgemm`) does:
//!   * every 3×3 stride-1 layer reads **one** lane-major weight layout
//!     ([`lane_tile::pack_lanes`]) and runs one of two sweeps, chosen by
//!     [`lane_tile::conv3x3`] for both precisions under an order-preserving
//!     arithmetic policy: the **channel-lane kernel** ([`lane_tile`]; lanes
//!     are 16 or 8 consecutive output channels, a tile of up to eight
//!     pixels of one output row held in registers across all input
//!     channels) from eight output channels per group up, and on any plane
//!     too small to fill one sixteen-lane chunk; the **spatial-lane sweep**
//!     (`plane`; lanes are sixteen positions of the padded-width plane, up
//!     to four output channels per pass) for thinner groups, depthwise
//!     included. Both read the padded input in place — no patch matrix;
//!   * every other geometry (strided, 1×1, 5×5) lowers each (batch, group)
//!     to a `K×N` patch matrix (im2col) and multiplies it with the `M×K`
//!     weight matrix through a small register-blocked sgemm: the weight row
//!     is streamed once per output tile instead of once per output pixel.
//!
//! All of them accumulate each output element in the same order (bias
//! first, then taps in `(c_in, kh, kw)` order), so for a given layer they
//! produce bitwise-identical results — [`KernelPolicy::Auto`] can
//! therefore pick per layer, and the fast path per shape, without
//! perturbing numerics. This is an implementation property, not an API
//! guarantee; parity tests assert a 1e-4 relative tolerance (and, as a
//! stronger implementation check, equal bits).
//!
//! Two performance layers sit behind them:
//!
//! * [`PackedWeights`] — a build-time copy of the weights in the one
//!   layout the layer's kernel reads: lane-major for 3×3 stride-1 layers,
//!   panel-major (BLIS-style "A-packing": the sgemm inner loop reads `MR`
//!   weights contiguously instead of striding `K` apart) for the rest.
//!   Built **once** at plan/build time. Without it the layer is packed into
//!   the [`ConvScratch`] per call by the same packer, lanes and panels
//!   alike (`c_out · c_in/groups · k²` copies, rounded up to whole tiles —
//!   nothing on a map, a third of a 16→16 3×3 call on a 9×9 block), so
//!   every fast-path kernel reads one weight layout and there is one sgemm.
//! * An 8-wide manual lane type (`F32x8`) used by the sgemm microkernels:
//!   explicit unrolled lanes the auto-vectorizer maps onto SIMD registers
//!   (stable Rust, no cargo feature). Lane arithmetic is separate
//!   multiply-then-add — never fused — which keeps the bitwise
//!   accumulation contract above.
//!
//! Kernels write into caller-provided output tensors and draw temporary
//! storage from a [`ConvScratch`], so a blocked executor can run thousands
//! of per-block convolutions with zero steady-state allocation. `padded`
//! must already carry the layer's spatial padding (kernels never pad);
//! `out` is reshaped to `[n, c_out, oh, ow]` and every element is
//! overwritten. The 3×3 sweeps also store at an [`OutGeom`] — an
//! offset, a row pitch and a plane pitch into any slice
//! ([`PackedWeights::forward_prepadded_at`]) — which is how a fused chain's
//! stage writes the interior of the next stage's padded buffer, or its
//! block of the group's output map, with no copy in between. Given the
//! max pooling that follows a convolution, the same entry stores the
//! pooled block: the 3×3 sweeps run a rectangle of whole pooling windows
//! at a time into a small per-thread stage and pool it into the
//! destination (the module docs of [`lane_tile`]), so the pooling needs no
//! buffer of its own.

use crate::conv::Conv2d;
use crate::shape::conv_out_dim;
use crate::{Tensor, TensorError};

pub mod lane_tile;
mod plane;

/// How to choose the kernel implementation for a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPolicy {
    /// Choose per layer: the fast path (`im2col-gemm`, which itself
    /// dispatches by shape between its two 3×3 kernels and im2col+GEMM)
    /// everywhere except degenerate single-tap per-channel layers, which
    /// stay on the direct loop.
    #[default]
    Auto,
    /// Always the direct loop.
    Direct,
    /// Always the fast path: the channel-lane or the spatial-lane sweep
    /// for 3×3 stride-1 layers, im2col+GEMM otherwise.
    Im2colGemm,
}

impl KernelPolicy {
    /// Resolves the policy for one layer.
    ///
    /// The same resolution governs the integer path: a quantized layer
    /// shares its float twin's geometry, so `QConv2d` resolves through
    /// this policy at construction and picks its integer im2col+GEMM
    /// exactly where the float layer would pick [`KernelKind::Im2colGemm`]
    /// (`im2col-gemm` names the fast path on both sides; each dispatches by
    /// shape to its own patch-free kernels).
    pub fn resolve(self, conv: &Conv2d) -> KernelKind {
        match self {
            Self::Direct => KernelKind::Direct,
            Self::Im2colGemm => KernelKind::Im2colGemm,
            Self::Auto => {
                let g = conv.geom();
                let m = conv.c_out() / conv.groups();
                let k = g.kernel * g.kernel * (conv.c_in() / conv.groups());
                // Measured across dense, grouped, depthwise and pointwise
                // shapes at both whole-map and per-block sizes, the fast
                // path beats the direct loop essentially always: 3×3
                // stride-1 layers take a patch-free kernel, and for the rest
                // the patch matrix pays for itself even at m = 1 — the
                // contiguous columns beat the direct loop's strided reads.
                // Only a fully degenerate GEMM (scalar per-channel scaling:
                // one output channel per group, single-tap reduction) stays
                // direct.
                if m == 1 && k == 1 {
                    KernelKind::Direct
                } else {
                    KernelKind::Im2colGemm
                }
            }
        }
    }

    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Direct => "direct",
            Self::Im2colGemm => "im2col-gemm",
        }
    }
}

/// A resolved kernel choice for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// The direct loop.
    #[default]
    Direct,
    /// The fast path: channel-lane or spatial-lane sweep, or im2col + GEMM,
    /// by layer shape.
    Im2colGemm,
}

impl KernelKind {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Direct => "direct",
            Self::Im2colGemm => "im2col-gemm",
        }
    }
}

/// Where a kernel stores its output: element `(plane p, row y, column x)`
/// of an `oh × ow` output goes to `dst[offset + p·plane + y·row + x]`,
/// with `p = image · c_out + channel`. A compact NCHW tensor is
/// [`compact`](Self::compact); the interior of a padded block buffer and a
/// block's place in a whole feature map are the same three numbers with a
/// wider row and plane — which is how a fused chain's stages store straight
/// into the buffer the next stage reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutGeom {
    /// Index of the first output element.
    pub offset: usize,
    /// Distance between vertically adjacent outputs (row pitch).
    pub row: usize,
    /// Distance between the first outputs of consecutive planes.
    pub plane: usize,
}

impl OutGeom {
    /// A dense `oh × ow` layout: the geometry of a compact NCHW tensor.
    pub fn compact(oh: usize, ow: usize) -> Self {
        Self { offset: 0, row: ow, plane: oh * ow }
    }

    /// The geometry of a region whose first output is `(h0, w0)` of the
    /// planes of a `[.., .., map_h, map_w]` tensor.
    pub fn region(h0: usize, w0: usize, [map_h, map_w]: [usize; 2]) -> Self {
        Self { offset: h0 * map_w + w0, row: map_w, plane: map_h * map_w }
    }

    /// Checks that `planes` planes of `oh × ow` outputs fit a destination
    /// of `len` elements without overlapping rows or planes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when they do not.
    pub fn check(
        &self,
        planes: usize,
        oh: usize,
        ow: usize,
        len: usize,
    ) -> Result<(), TensorError> {
        let extent = if planes == 0 || oh == 0 || ow == 0 { 0 } else { (oh - 1) * self.row + ow };
        let fits = self.row >= ow
            && (planes <= 1 || self.plane >= extent)
            && (extent == 0 || self.offset + (planes - 1) * self.plane + extent <= len);
        if fits {
            Ok(())
        } else {
            Err(TensorError::out_of_bounds("the outputs do not fit the destination at OutGeom"))
        }
    }
}

/// Reusable temporary storage for kernel execution. One scratch per
/// worker thread; buffers grow to the largest layer seen and stay there.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// im2col patch matrix (`K × N`, reused across calls).
    pub(crate) cols: Vec<f32>,
    /// The layer at hand packed like [`PackedWeights`] (lanes or panels),
    /// for calls that bring none.
    pub(crate) packed: Vec<f32>,
}

impl ConvScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Validates the padded input against `conv` and shapes `out`; returns
/// `(n, oh, ow)`.
fn shape_out(
    conv: &Conv2d,
    padded: &Tensor,
    out: &mut Tensor,
) -> Result<(usize, usize, usize), TensorError> {
    let (n, oh, ow) = prepare_out(conv, padded)?;
    out.reset([n, conv.c_out(), oh, ow]);
    Ok((n, oh, ow))
}

/// Validates the padded input against `conv`; returns `(n, oh, ow)`.
fn prepare_out(conv: &Conv2d, padded: &Tensor) -> Result<(usize, usize, usize), TensorError> {
    let [n, c_in, ph, pw] = padded.shape().dims();
    if c_in != conv.c_in() {
        return Err(TensorError::shape_mismatch(
            "Conv2d input channels",
            format!("{}", conv.c_in()),
            format!("{c_in}"),
        ));
    }
    let g = conv.geom();
    let oh = conv_out_dim(ph, g.kernel, g.stride, 0)?;
    let ow = conv_out_dim(pw, g.kernel, g.stride, 0)?;
    Ok((n, oh, ow))
}

/// The naive direct convolution: seven nested loops, one accumulator per
/// output element.
pub(crate) fn direct(conv: &Conv2d, padded: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (n, oh, ow) = shape_out(conv, padded, out)?;
    let g = conv.geom();
    let (k, s) = (g.kernel, g.stride);
    let c_in = conv.c_in();
    let c_out = conv.c_out();
    let groups = conv.groups();
    let cin_per_group = c_in / groups;
    let cout_per_group = c_out / groups;
    let wshape = conv.weight().shape();
    let wdata = conv.weight().data();
    let idata = padded.data();
    let ishape = padded.shape();
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            for mo in 0..cout_per_group {
                let m = grp * cout_per_group + mo;
                let bias = conv.bias()[m];
                for ohi in 0..oh {
                    for owi in 0..ow {
                        let mut acc = bias;
                        for ci in 0..cin_per_group {
                            let c = grp * cin_per_group + ci;
                            for khi in 0..k {
                                let ih = ohi * s + khi;
                                let w_row = wshape.index(m, ci, khi, 0);
                                let i_row = ishape.index(ni, c, ih, owi * s);
                                // Inner product over the kernel row.
                                for kwi in 0..k {
                                    acc += wdata[w_row + kwi] * idata[i_row + kwi];
                                }
                            }
                        }
                        odata[oshape.index(ni, m, ohi, owi)] = acc;
                    }
                }
            }
        }
    }
    Ok(())
}

/// The layer's weights repacked for the fast path, in the **one** layout
/// the kernels its shape dispatches to read (like `QPackedWeights` on the
/// integer side): lane-major `[group][c_out tile][c_in][tap][lanes]` for
/// every 3×3 stride-1 layer (`lane_tile::pack_lanes`; a thin group is one
/// 8-lane tile, which both 3×3 sweeps read), and for every other layer the
/// sgemm's panels — per group, `ceil(M/MR)` panels of `MR × K` laid out
/// `panel[l*MR + i]`, so the microkernel's step over `l` reads `MR` weights
/// contiguously (tail panels are zero-padded). Built **once** — at session
/// build or via `BlockConv2d::with_packed_weights` — and shared by every
/// run; the hot path never repacks.
#[derive(Debug, Clone)]
pub struct PackedWeights {
    data: Vec<f32>,
    /// What was packed: the layer's weight dims, group count and stride.
    layer: ([usize; 4], usize, usize),
}

impl PackedWeights {
    fn layer_of(conv: &Conv2d) -> ([usize; 4], usize, usize) {
        (conv.weight().shape().dims(), conv.groups(), conv.geom().stride)
    }

    /// Packs `conv`'s weights. Allocation happens here, at build time.
    pub fn pack(conv: &Conv2d) -> Self {
        let mut data = Vec::new();
        pack_into(conv, &mut data);
        Self { data, layer: Self::layer_of(conv) }
    }

    /// Packed element count (includes zero-padded tail rows or lanes).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no weights are packed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Evaluates `conv` on a pre-padded input through the fast path
    /// reading these packed weights — bitwise identical to
    /// [`KernelKind::Im2colGemm`], without its per-call pack. Hot path.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on channel/shape mismatch, or when `conv` is
    /// not shaped like the layer these weights were packed from.
    pub fn forward_prepadded_into(
        &self,
        conv: &Conv2d,
        padded: &Tensor,
        out: &mut Tensor,
        scratch: &mut ConvScratch,
    ) -> Result<(), TensorError> {
        if self.layer != Self::layer_of(conv) {
            return Err(TensorError::invalid("PackedWeights were packed from a different layer"));
        }
        im2col_gemm(conv, &self.data, padded, out, &mut scratch.cols)
    }

    /// Whether [`forward_prepadded_at`](Self::forward_prepadded_at) takes
    /// this layer: every 3×3 stride-1 layer, on any plane. Everything else
    /// stores compact blocks only.
    pub fn stores_at(&self) -> bool {
        let ([_, _, k, _], _, stride) = self.layer;
        lane_tile::takes(k, stride)
    }

    /// [`forward_prepadded_into`](Self::forward_prepadded_into) storing at
    /// `at` in `out` instead of into a compact tensor, with `relu` folded
    /// into the store (`relu_inplace`'s `v < 0.0` test) — the fused-chain
    /// entry: a stage writes the interior of the next stage's padded
    /// buffer, or its block of the group's output map, and touches nothing
    /// else. Bit for bit the compact call followed by a copy (and a ReLU).
    ///
    /// With a `pool` `Some((k, pooled_relu))`, a `k × k` / stride-`k` max
    /// pooling follows, a ReLU after it when `pooled_relu`, and `at` is the
    /// geometry of the pooled outputs: a fused chain's convolution
    /// followed by a pooling stores the pooled block, bit for bit the
    /// compact call followed by a ReLU (when `relu`) and
    /// [`crate::pool::max_pool2d_at`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on channel/shape mismatch, when `conv` is
    /// not the packed layer, when the layer is not one
    /// [`stores_at`](Self::stores_at) takes, when the outputs do not fit
    /// `out` at `at`, or when the pooling window does not fit the outputs
    /// or is wider than [`lane_tile::MAX_POOL`].
    // Inlined, so that its caller calls one arm, each out of line: the
    // plain arm has the stack frame of an entry that never pools, and the
    // kernels below it keep their place on the stack, which moves their
    // speed; the pooled arm adds nothing to the caller's frame.
    #[inline]
    pub fn forward_prepadded_at(
        &self,
        conv: &Conv2d,
        padded: &Tensor,
        out: &mut [f32],
        at: OutGeom,
        relu: bool,
        pool: Option<(usize, bool)>,
    ) -> Result<(), TensorError> {
        match pool {
            None => self.store_plain(conv, padded, out, at, relu),
            Some(pool) => self.store_pooled(conv, padded, (out, at), relu, pool),
        }
    }

    /// The pooled arm of [`forward_prepadded_at`](Self::forward_prepadded_at).
    #[inline(never)]
    fn store_pooled(
        &self,
        conv: &Conv2d,
        padded: &Tensor,
        to: (&mut [f32], OutGeom),
        relu: bool,
        (k, pooled_relu): (usize, bool),
    ) -> Result<(), TensorError> {
        let post = move |v: f32| if pooled_relu && v < 0.0 { 0.0 } else { v };
        self.store_at(conv, padded, to, relu, Some((k, post)))
    }

    /// The plain arm of [`forward_prepadded_at`](Self::forward_prepadded_at).
    #[inline(never)]
    fn store_plain(
        &self,
        conv: &Conv2d,
        padded: &Tensor,
        out: &mut [f32],
        at: OutGeom,
        relu: bool,
    ) -> Result<(), TensorError> {
        self.store_at(conv, padded, (out, at), relu, lane_tile::no_pool())
    }

    /// The body of the fused-chain entry, pooling when `pool` says so.
    fn store_at(
        &self,
        conv: &Conv2d,
        padded: &Tensor,
        (out, at): (&mut [f32], OutGeom),
        relu: bool,
        pool: Option<(impl Into<usize> + Copy, impl Fn(f32) -> f32 + Copy)>,
    ) -> Result<(), TensorError> {
        if self.layer != Self::layer_of(conv) {
            return Err(TensorError::invalid("PackedWeights were packed from a different layer"));
        }
        let (n, oh, ow) = prepare_out(conv, padded)?;
        if !self.stores_at() {
            return Err(TensorError::invalid("this layer's kernel stores compact blocks only"));
        }
        let [sh, sw] = lane_tile::stored_dims([oh, ow], pool.map(|p| p.0.into()))?;
        at.check(n * conv.c_out(), sh, sw, out.len())?;
        lane_tile::lane_conv(conv, &self.data, padded, out, at, relu, pool);
        Ok(())
    }
}

/// Packs `conv`'s weights into `data` in the one layout its fast-path
/// kernel reads (see [`PackedWeights`]), overwriting every element — the
/// packer of [`PackedWeights::pack`] and of the unpacked
/// [`KernelKind::Im2colGemm`] entry, which packs into its [`ConvScratch`].
pub(crate) fn pack_into(conv: &Conv2d, data: &mut Vec<f32>) {
    let g = conv.geom();
    let groups = conv.groups();
    let mg = conv.c_out() / groups;
    let kk = (conv.c_in() / groups) * g.kernel * g.kernel;
    let wdata = conv.weight().data();
    if lane_tile::takes(g.kernel, g.stride) {
        lane_tile::pack_lanes(wdata, [groups, mg, kk], data);
        return;
    }
    data.resize(groups * mg.div_ceil(MR) * MR * kk, 0.0);
    for (grp, panels) in data.chunks_exact_mut(mg.div_ceil(MR) * MR * kk).enumerate() {
        for (p, panel) in panels.chunks_exact_mut(MR * kk).enumerate() {
            let it = grp * mg + p * MR;
            let live = MR.min(mg - p * MR);
            let rows = &wdata[it * kk..][..live * kk];
            for (l, vec) in panel.chunks_exact_mut(MR).enumerate() {
                for (dst, &w) in vec.iter_mut().zip(rows[l..].iter().step_by(kk)) {
                    *dst = w;
                }
                vec[live..].fill(0.0);
            }
        }
    }
}

/// The fast path (its name, `im2col-gemm` in reports and plan keys,
/// predates its patch-free kernels) over weights `wp` packed by
/// [`pack_into`]. 3×3 stride-1 layers go to the sweeps
/// `lane_tile::conv3x3` picks between (`lane_tile::takes`); for the rest,
/// lower each (batch, group) to a patch matrix in `cols` and multiply the
/// group's packed panels with it. Hot path — no allocation once `cols` has
/// grown.
pub(crate) fn im2col_gemm(
    conv: &Conv2d,
    wp: &[f32],
    padded: &Tensor,
    out: &mut Tensor,
    cols: &mut Vec<f32>,
) -> Result<(), TensorError> {
    let (n, oh, ow) = shape_out(conv, padded, out)?;
    let g = conv.geom();
    let (k, s) = (g.kernel, g.stride);
    let groups = conv.groups();
    let cin_per_group = conv.c_in() / groups;
    let cout_per_group = conv.c_out() / groups;
    let kk = cin_per_group * k * k; // GEMM reduction length K
    let nn = oh * ow; // GEMM width N

    // 3×3 stride-1 layers skip the patch matrix altogether.
    if lane_tile::takes(k, s) {
        let at = OutGeom::compact(oh, ow);
        lane_tile::lane_conv(conv, wp, padded, out.data_mut(), at, false, lane_tile::no_pool());
        return Ok(());
    }

    // 1×1 stride-1 (pointwise): the patch matrix would be bit-for-bit
    // the input's channel planes, so skip im2col and feed the input
    // slice to the GEMM directly (same layout, same result).
    let pointwise = k == 1 && s == 1;
    if !pointwise {
        cols.resize(kk * nn, 0.0);
    }
    let ishape = padded.shape();
    let idata = padded.data();
    let oshape = out.shape();
    let odata = out.data_mut();

    for ni in 0..n {
        for grp in 0..groups {
            let b: &[f32] = if pointwise {
                let i0 = ishape.index(ni, grp * cin_per_group, 0, 0);
                &idata[i0..i0 + kk * nn]
            } else {
                // im2col: row l = (ci, khi, kwi) of the patch at each
                // output position, matching the direct loop's tap order
                // so the sequential GEMM accumulation reproduces it
                // exactly.
                for ci in 0..cin_per_group {
                    let c = grp * cin_per_group + ci;
                    for khi in 0..k {
                        for kwi in 0..k {
                            let row = (ci * k + khi) * k + kwi;
                            let dst = &mut cols[row * nn..(row + 1) * nn];
                            for ohi in 0..oh {
                                let src = &idata[ishape.index(ni, c, ohi * s + khi, 0)..];
                                let drow = &mut dst[ohi * ow..(ohi + 1) * ow];
                                if s == 1 {
                                    drow.copy_from_slice(&src[kwi..kwi + ow]);
                                } else {
                                    for (owi, d) in drow.iter_mut().enumerate() {
                                        *d = src[owi * s + kwi];
                                    }
                                }
                            }
                        }
                    }
                }
                cols
            };
            // GEMM: out[g] = bias[g] + W[g] (M×K) · B (K×N).
            let bias = &conv.bias()[grp * cout_per_group..(grp + 1) * cout_per_group];
            let c0 = oshape.index(ni, grp * cout_per_group, 0, 0);
            let cdst = &mut odata[c0..c0 + cout_per_group * nn];
            let per_group = cout_per_group.div_ceil(MR) * MR * kk;
            let panels = &wp[grp * per_group..(grp + 1) * per_group];
            gemm_bias_packed(panels, b, bias, cdst, cout_per_group, kk, nn);
        }
    }
    Ok(())
}

/// Microkernel tile height (output channels per register block).
const MR: usize = 4;
/// Microkernel tile width (output positions per register block).
const NR: usize = 8;

/// Manual 8-wide f32 lanes for the sgemm microkernels: a plain `[f32; 8]`
/// with fully unrolled element-wise ops — the shape LLVM reliably
/// auto-vectorizes into one 256-bit (or two 128-bit) register per lane.
///
/// `add_scaled` is deliberately a separate multiply then add — **never**
/// `mul_add`/FMA — because fusing the rounding step would break the
/// bitwise parity between the direct loop and the GEMM kernels.
mod lanes {
    #[derive(Debug, Clone, Copy)]
    pub(super) struct F32x8([f32; 8]);

    impl F32x8 {
        /// All eight lanes set to `v`.
        #[inline]
        pub(super) fn splat(v: f32) -> Self {
            Self([v; 8])
        }

        /// Loads the first eight elements of `s`.
        #[inline]
        pub(super) fn load(s: &[f32]) -> Self {
            let mut a = [0.0f32; 8];
            a.copy_from_slice(&s[..8]);
            Self(a)
        }

        /// `self + a * b`, lane-wise, as separate multiply then add.
        #[inline]
        pub(super) fn add_scaled(self, a: Self, b: Self) -> Self {
            let mut out = self.0;
            for (o, (&x, &y)) in out.iter_mut().zip(a.0.iter().zip(&b.0)) {
                *o += x * y;
            }
            Self(out)
        }

        /// Stores the lanes into the first eight elements of `d`.
        #[inline]
        pub(super) fn store(self, d: &mut [f32]) {
            d[..8].copy_from_slice(&self.0);
        }
    }
}

use lanes::F32x8;

/// `c[i][j] = bias[i] + Σ_l A(i, l)·b[l][j]` over panel-major packed
/// weights: `A(i, l)` lives at `panel[l*MR + i]`, so the lane step over `l`
/// reads `MR` contiguous weights, with an `MR×NR` register tile. Each
/// output element uses one accumulator updated sequentially over `l`, so
/// the summation order matches the direct kernel's — tail panels carry
/// zero rows that are computed in lanes but never stored.
fn gemm_bias_packed(
    ap: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(ap.len(), m.div_ceil(MR) * MR * k);
    debug_assert_eq!(c.len(), m * n);
    let mut jt = 0;
    while jt < n {
        let nr = NR.min(n - jt);
        for (p, panel) in ap.chunks_exact(MR * k).enumerate() {
            let it = p * MR;
            let mr = MR.min(m - it);
            if nr == NR {
                // Full-width tile: lane accumulators for all MR panel rows
                // (zero-padded tail rows cost lanes but no stores).
                let mut acc = [F32x8::splat(0.0); MR];
                for (i, row) in acc.iter_mut().take(mr).enumerate() {
                    *row = F32x8::splat(bias[it + i]);
                }
                for l in 0..k {
                    let brow = F32x8::load(&b[l * n + jt..]);
                    let al = &panel[l * MR..(l + 1) * MR];
                    for (i, row) in acc.iter_mut().enumerate() {
                        *row = row.add_scaled(F32x8::splat(al[i]), brow);
                    }
                }
                for (i, row) in acc.iter().take(mr).enumerate() {
                    row.store(&mut c[(it + i) * n + jt..]);
                }
            } else {
                // Remainder columns: same accumulation order, narrow tile.
                for i in 0..mr {
                    let mut acc = [0.0f32; NR];
                    acc[..nr].fill(bias[it + i]);
                    for l in 0..k {
                        let a_il = panel[l * MR + i];
                        let brow = &b[l * n + jt..l * n + jt + nr];
                        for (j, &b_lj) in brow.iter().enumerate() {
                            acc[j] += a_il * b_lj;
                        }
                    }
                    c[(it + i) * n + jt..(it + i) * n + jt + nr].copy_from_slice(&acc[..nr]);
                }
            }
        }
        jt += NR;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::ConvGeom;
    use crate::init::{he_conv2d, seeded_rng, uniform_tensor};
    use crate::pad::{pad2d, PadMode};

    fn run(kind: KernelKind, conv: &Conv2d, input: &Tensor) -> Tensor {
        let padded = pad2d(input, conv.geom().padding, conv.geom().padding, PadMode::Zero).unwrap();
        let mut out = Tensor::zeros([1, 1, 1, 1]);
        let mut scratch = ConvScratch::new();
        conv.forward_prepadded_into(&padded, kind, &mut out, &mut scratch).unwrap();
        out
    }

    #[test]
    fn gemm_matches_direct_bitwise_on_dense_conv() {
        let mut rng = seeded_rng(3);
        let conv = he_conv2d(3, 8, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([2, 3, 11, 9], -1.0, 1.0, &mut rng);
        let d = run(KernelKind::Direct, &conv, &input);
        let g = run(KernelKind::Im2colGemm, &conv, &input);
        assert_eq!(d.shape(), g.shape());
        assert_eq!(d.data(), g.data(), "same accumulation order must be bit-exact");
    }

    #[test]
    fn gemm_handles_stride_groups_and_bias() {
        let mut rng = seeded_rng(7);
        let mut conv = he_conv2d(4, 6, ConvGeom::new(3, 2, 1), 2, &mut rng).unwrap();
        for (i, b) in conv.bias_mut().iter_mut().enumerate() {
            *b = i as f32 * 0.25 - 0.5;
        }
        let input = uniform_tensor([1, 4, 13, 10], -1.0, 1.0, &mut rng);
        let d = run(KernelKind::Direct, &conv, &input);
        let g = run(KernelKind::Im2colGemm, &conv, &input);
        assert_eq!(d.data(), g.data());
    }

    #[test]
    fn gemm_handles_depthwise_and_pointwise() {
        let mut rng = seeded_rng(11);
        let dw = he_conv2d(5, 5, ConvGeom::same(3), 5, &mut rng).unwrap();
        let pw = he_conv2d(5, 7, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 5, 9, 9], -1.0, 1.0, &mut rng);
        for conv in [&dw, &pw] {
            let d = run(KernelKind::Direct, conv, &input);
            let g = run(KernelKind::Im2colGemm, conv, &input);
            assert_eq!(d.data(), g.data());
        }
    }

    #[test]
    fn auto_policy_resolution() {
        let mut rng = seeded_rng(13);
        let dense = he_conv2d(16, 16, ConvGeom::same(3), 1, &mut rng).unwrap();
        let depthwise = he_conv2d(16, 16, ConvGeom::same(3), 16, &mut rng).unwrap();
        let scale = he_conv2d(16, 16, ConvGeom::new(1, 1, 0), 16, &mut rng).unwrap();
        assert_eq!(KernelPolicy::Auto.resolve(&dense), KernelKind::Im2colGemm);
        assert_eq!(KernelPolicy::Auto.resolve(&depthwise), KernelKind::Im2colGemm);
        // 1x1 depthwise is a per-channel scale: a degenerate GEMM.
        assert_eq!(KernelPolicy::Auto.resolve(&scale), KernelKind::Direct);
        assert_eq!(KernelPolicy::Direct.resolve(&dense), KernelKind::Direct);
        assert_eq!(KernelPolicy::Im2colGemm.resolve(&depthwise), KernelKind::Im2colGemm);
    }

    #[test]
    fn kernels_reject_channel_mismatch() {
        let conv = Conv2d::zeros(3, 4, ConvGeom::same(3)).unwrap();
        let bad = Tensor::zeros([1, 2, 8, 8]);
        let mut out = Tensor::zeros([1, 1, 1, 1]);
        let mut scratch = ConvScratch::new();
        for kind in [KernelKind::Direct, KernelKind::Im2colGemm] {
            assert!(conv.forward_prepadded_into(&bad, kind, &mut out, &mut scratch).is_err());
        }
    }

    #[test]
    fn a_pool_window_too_large_for_the_stage_is_refused() {
        // 12×12 windows of a 16-lane tile do not fit the pooled store's
        // stage; 11×11 ones do.
        let conv = he_conv2d(2, 16, ConvGeom::same(3), 1, &mut seeded_rng(18)).unwrap();
        let padded = Tensor::zeros([1, 2, 26, 26]);
        let packed = PackedWeights::pack(&conv);
        let mut out = vec![0.0; 16 * 4];
        for (k, fits) in [(12, false), (11, true)] {
            let at = OutGeom::compact(24 / k, 24 / k);
            let got =
                packed.forward_prepadded_at(&conv, &padded, &mut out, at, false, Some((k, false)));
            match got {
                Err(TensorError::InvalidParameter { .. }) => assert!(!fits, "k {k}"),
                got => assert!(fits && got.is_ok(), "k {k}: {got:?}"),
            }
        }
    }

    #[test]
    fn packed_weights_match_unpacked_bitwise() {
        let mut rng = seeded_rng(17);
        let cases = [
            he_conv2d(3, 8, ConvGeom::same(3), 1, &mut rng).unwrap(),
            he_conv2d(4, 6, ConvGeom::new(3, 2, 1), 2, &mut rng).unwrap(),
            he_conv2d(5, 5, ConvGeom::same(3), 5, &mut rng).unwrap(),
            he_conv2d(5, 7, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap(),
        ];
        for conv in &cases {
            let input = uniform_tensor([1, conv.c_in(), 9, 9], -1.0, 1.0, &mut rng);
            let padded =
                pad2d(&input, conv.geom().padding, conv.geom().padding, PadMode::Zero).unwrap();
            let mut scratch = ConvScratch::new();
            let mut plain = Tensor::default();
            conv.forward_prepadded_into(&padded, KernelKind::Im2colGemm, &mut plain, &mut scratch)
                .unwrap();
            let packed = PackedWeights::pack(conv);
            let mut fast = Tensor::default();
            packed.forward_prepadded_into(conv, &padded, &mut fast, &mut scratch).unwrap();
            assert_eq!(plain.data(), fast.data(), "packing must not change a single bit");
        }
    }

    #[test]
    fn packed_panels_zero_pad_the_tail() {
        let mut rng = seeded_rng(19);
        // c_out = 6 with MR = 4: one full panel + a 2-row tail panel (a
        // strided layer: 3×3 stride-1 ones pack lanes).
        let conv = he_conv2d(2, 6, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
        let packed = PackedWeights::pack(&conv);
        let kk = 2 * 9;
        assert_eq!(packed.len(), 8 * kk);
        assert!(!packed.is_empty());
        let tail = &packed.data[MR * kk..];
        for l in 0..kk {
            assert_eq!(tail[l * MR + 2], 0.0);
            assert_eq!(tail[l * MR + 3], 0.0);
        }
    }

    /// Packs the row-major `m×k` matrix `a` panel-major by hand, its tail
    /// panel's dead rows set to `dead`, runs the one GEMM on it and checks
    /// every output against the naive triple loop.
    fn check_gemm(m: usize, k: usize, n: usize, dead: f32) {
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 2.0).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut ap = vec![dead; m.div_ceil(MR) * MR * k];
        for i in 0..m {
            for l in 0..k {
                ap[(i / MR) * MR * k + l * MR + i % MR] = a[i * k + l];
            }
        }
        let mut c = vec![f32::NAN; m * n];
        gemm_bias_packed(&ap, &b, &bias, &mut c, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut want = bias[i];
                for l in 0..k {
                    want += a[i * k + l] * b[l * n + j];
                }
                assert_eq!(c[i * n + j], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_bias_packed_remainder_tiles() {
        // m=5, n=9, k=3: full 4x8 tile, tail panel, and column remainder.
        check_gemm(5, 3, 9, 0.0);
    }

    #[test]
    fn gemm_bias_remainder_tiles() {
        // m=7, n=17, k=4: a three-row tail panel whose dead row is NaN
        // (computed in lanes, never stored) and a one-column remainder.
        check_gemm(7, 4, 17, f32::NAN);
    }
}
