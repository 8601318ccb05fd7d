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
//! * [`KernelKind::Im2colGemm`] — the **fast path**, three kernels behind
//!   one name, dispatched by layer shape alone inside `im2col_gemm`,
//!   exactly as the integer fast path (`bconv_quant::qgemm`) does:
//!   * 3×3 stride-1 layers with eight or more output channels per group
//!     run the **channel-lane kernel** ([`lane_tile`]): lanes are 16 (or 8)
//!     consecutive output channels, a tile of up to eight pixels of one
//!     output row is held in registers across all input channels, the
//!     padded input is read in place — any plane size, 1×1 outputs
//!     included. It is the micro-kernel the integer path runs, under an
//!     order-preserving arithmetic policy;
//!   * thinner 3×3 stride-1 layers (up to seven output channels per group,
//!     depthwise included) run the **plane shift-and-add kernel**
//!     (`plane`): lanes are sixteen positions of the padded-width plane,
//!     up to four output channels per pass, no patch matrix;
//!   * every other geometry (strided, 1×1, 5×5, thin layers on planes too
//!     small to fill one sixteen-lane chunk) lowers each (batch, group) to
//!     a `K×N` patch matrix (im2col) and multiplies it with the `M×K`
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
//!   layout the layer's kernel reads: lane-major for the channel-lane
//!   kernel, panel-major (BLIS-style "A-packing": the sgemm inner loop
//!   reads `MR` weights contiguously instead of striding `K` apart) for the
//!   rest. Built **once** at plan/build time. Without it the channel-lane
//!   kernel lane-packs into the [`ConvScratch`] per call (`c_out · c_in ·
//!   9` copies — nothing on a map, a third of a 16→16 call on a 9×9 block);
//!   the plane kernel reads the layer's own row-major weights.
//! * An 8-wide manual lane type (`F32x8`) used by the sgemm microkernels
//!   and the plane kernel: explicit unrolled lanes the auto-vectorizer maps
//!   onto SIMD registers (stable Rust, no cargo feature). Lane arithmetic
//!   is separate multiply-then-add — never fused — which keeps the bitwise
//!   accumulation contract above.
//!
//! Kernels write into caller-provided output tensors and draw temporary
//! storage from a [`ConvScratch`], so a blocked executor can run thousands
//! of per-block convolutions with zero steady-state allocation. `padded`
//! must already carry the layer's spatial padding (kernels never pad);
//! `out` is reshaped to `[n, c_out, oh, ow]` and every element is
//! overwritten.

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
    /// Always the fast path: the channel-lane or the plane kernel for
    /// 3×3 stride-1 layers, im2col+GEMM otherwise.
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
    /// The fast path: channel-lane kernel, plane kernel or im2col + GEMM,
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

/// Reusable temporary storage for kernel execution. One scratch per
/// worker thread; buffers grow to the largest layer seen and stay there.
#[derive(Debug, Default)]
pub struct ConvScratch {
    /// im2col patch matrix (`K × N`, reused across calls).
    cols: Vec<f32>,
    /// Lane-major weights of the layer at hand, for channel-lane calls
    /// that bring no [`PackedWeights`].
    lanes: Vec<f32>,
}

impl ConvScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Validates the padded input against `conv` and shapes `out`; returns
/// `(n, oh, ow)`.
fn prepare_out(
    conv: &Conv2d,
    padded: &Tensor,
    out: &mut Tensor,
) -> Result<(usize, usize, usize), TensorError> {
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
    out.reset([n, conv.c_out(), oh, ow]);
    Ok((n, oh, ow))
}

/// The naive direct convolution: seven nested loops, one accumulator per
/// output element.
pub(crate) fn direct(conv: &Conv2d, padded: &Tensor, out: &mut Tensor) -> Result<(), TensorError> {
    let (n, oh, ow) = prepare_out(conv, padded, out)?;
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
/// the kernel its shape dispatches to reads (like `QPackedWeights` on the
/// integer side): lane-major `[group][c_out tile][c_in][tap][lanes]` for
/// layers the channel-lane kernel takes (`lane_tile::pack_lanes`), and for
/// every other layer the sgemm's panels — per group, `ceil(M/MR)` panels of
/// `MR × K` laid out `panel[l*MR + i]`, so the microkernel's step over `l`
/// reads `MR` weights contiguously (tail panels are zero-padded; thin 3×3
/// layers keep them for the planes too small for the plane kernel, which
/// itself reads the layer's own rows). Built **once** — at session build or
/// via `BlockConv2d::with_packed_weights` — and shared by every run; the hot
/// path never repacks.
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
        let g = conv.geom();
        let groups = conv.groups();
        let mg = conv.c_out() / groups;
        let kk = (conv.c_in() / groups) * g.kernel * g.kernel;
        let wdata = conv.weight().data();
        let mut data = Vec::new();
        if lane_tile::takes(g.kernel, g.stride, mg) {
            lane_tile::pack_lanes(wdata, [groups, mg, kk], &mut data);
        } else {
            let per_group = mg.div_ceil(MR) * MR * kk;
            data.resize(groups * per_group, 0.0);
            for grp in 0..groups {
                let a = &wdata[grp * mg * kk..(grp + 1) * mg * kk];
                let dst = &mut data[grp * per_group..(grp + 1) * per_group];
                for (p, panel) in dst.chunks_exact_mut(MR * kk).enumerate() {
                    let it = p * MR;
                    for i in 0..MR.min(mg - it) {
                        for l in 0..kk {
                            panel[l * MR + i] = a[(it + i) * kk + l];
                        }
                    }
                }
            }
        }
        Self { data, layer: Self::layer_of(conv) }
    }

    /// The packed panels of one group of a layer the GEMM runs.
    pub(crate) fn group_panels(&self, grp: usize) -> &[f32] {
        let (_, groups, _) = self.layer;
        let per_group = self.data.len() / groups;
        &self.data[grp * per_group..(grp + 1) * per_group]
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
    /// [`KernelKind::Im2colGemm`], without the per-call repack (lanes) or
    /// with faster weight streaming (panels). Hot path.
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
        im2col_gemm(conv, Some(self), padded, out, scratch)
    }
}

/// The fast path (its name, `im2col-gemm` in reports and plan keys,
/// predates its patch-free kernels). 3×3 stride-1 layers go to the
/// channel-lane kernel (`lane_tile::takes`) or the plane kernel
/// (`plane::takes`); for the rest, lower each (batch, group) to a patch
/// matrix and multiply with the weight matrix — packed panels when
/// available, the layer's row-major weights otherwise. Hot path — no
/// allocation once `scratch` has grown.
pub(crate) fn im2col_gemm(
    conv: &Conv2d,
    packed: Option<&PackedWeights>,
    padded: &Tensor,
    out: &mut Tensor,
    scratch: &mut ConvScratch,
) -> Result<(), TensorError> {
    let (n, oh, ow) = prepare_out(conv, padded, out)?;
    let g = conv.geom();
    let (k, s) = (g.kernel, g.stride);
    let groups = conv.groups();
    let cin_per_group = conv.c_in() / groups;
    let cout_per_group = conv.c_out() / groups;
    let kk = cin_per_group * k * k; // GEMM reduction length K
    let nn = oh * ow; // GEMM width N

    // 3×3 stride-1 layers skip the patch matrix altogether: channel lanes
    // from eight output channels per group up, spatial lanes below.
    if lane_tile::takes(k, s, cout_per_group) {
        let wl = match packed {
            Some(p) => &p.data,
            None => {
                let dims = [groups, cout_per_group, kk];
                lane_tile::pack_lanes(conv.weight().data(), dims, &mut scratch.lanes);
                &scratch.lanes
            }
        };
        lane_tile::lane_conv(conv, wl, padded, out);
        return Ok(());
    }
    if plane::takes(k, s, oh, ow) {
        plane::plane_conv(conv, padded, out);
        return Ok(());
    }

    // 1×1 stride-1 (pointwise): the patch matrix would be bit-for-bit
    // the input's channel planes, so skip im2col and feed the input
    // slice to the GEMM directly (same layout, same result).
    let pointwise = k == 1 && s == 1;
    if !pointwise {
        scratch.cols.resize(kk * nn, 0.0);
    }
    let ishape = padded.shape();
    let idata = padded.data();
    let wdata = conv.weight().data();
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
                            let dst = &mut scratch.cols[row * nn..(row + 1) * nn];
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
                &scratch.cols
            };
            // GEMM: out[g] = bias[g] + W[g] (M×K) · B (K×N).
            let bias = &conv.bias()[grp * cout_per_group..(grp + 1) * cout_per_group];
            let c0 = oshape.index(ni, grp * cout_per_group, 0, 0);
            let cdst = &mut odata[c0..c0 + cout_per_group * nn];
            match packed {
                Some(p) => {
                    gemm_bias_packed(p.group_panels(grp), b, bias, cdst, cout_per_group, kk, nn);
                }
                None => {
                    let a = &wdata[grp * cout_per_group * kk..(grp + 1) * cout_per_group * kk];
                    gemm_bias(a, b, bias, cdst, cout_per_group, kk, nn);
                }
            }
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

/// `c[i][j] = bias[i] + Σ_l a[i][l]·b[l][j]` with an `MR×NR` register
/// tile. Each output element uses one accumulator updated sequentially
/// over `l`, so the summation order matches the direct kernel's.
fn gemm_bias(a: &[f32], b: &[f32], bias: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    let mut jt = 0;
    while jt < n {
        let nr = NR.min(n - jt);
        let mut it = 0;
        while it < m {
            let mr = MR.min(m - it);
            if mr == MR && nr == NR {
                // Full tile: one 8-wide lane accumulator per row, kept in
                // registers; the b-row lane is reused by all MR rows.
                let mut acc = [F32x8::splat(0.0); MR];
                for (i, row) in acc.iter_mut().enumerate() {
                    *row = F32x8::splat(bias[it + i]);
                }
                for l in 0..k {
                    let brow = F32x8::load(&b[l * n + jt..]);
                    for (i, row) in acc.iter_mut().enumerate() {
                        *row = row.add_scaled(F32x8::splat(a[(it + i) * k + l]), brow);
                    }
                }
                for (i, row) in acc.iter().enumerate() {
                    row.store(&mut c[(it + i) * n + jt..]);
                }
            } else {
                // Remainder tile: same accumulation order, variable size.
                for i in 0..mr {
                    let arow = &a[(it + i) * k..(it + i + 1) * k];
                    let mut acc = [0.0f32; NR];
                    acc[..nr].fill(bias[it + i]);
                    for (l, &a_il) in arow.iter().enumerate() {
                        let brow = &b[l * n + jt..l * n + jt + nr];
                        for (j, &b_lj) in brow.iter().enumerate() {
                            acc[j] += a_il * b_lj;
                        }
                    }
                    c[(it + i) * n + jt..(it + i) * n + jt + nr].copy_from_slice(&acc[..nr]);
                }
            }
            it += MR;
        }
        jt += NR;
    }
}

/// [`gemm_bias`] over panel-major packed weights: `A(i, l)` lives at
/// `panel[l*MR + i]`, so the lane step over `l` reads `MR` contiguous
/// weights. Identical accumulation order (and therefore identical f32
/// bits) to the unpacked GEMM — tail panels carry zero rows that are
/// computed in lanes but never stored.
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
        // c_out = 6 with MR = 4: one full panel + a 2-row tail panel.
        let conv = he_conv2d(2, 6, ConvGeom::same(3), 1, &mut rng).unwrap();
        let packed = PackedWeights::pack(&conv);
        let kk = 2 * 9;
        assert_eq!(packed.len(), 8 * kk);
        assert!(!packed.is_empty());
        let tail = &packed.group_panels(0)[MR * kk..];
        for l in 0..kk {
            assert_eq!(tail[l * MR + 2], 0.0);
            assert_eq!(tail[l * MR + 3], 0.0);
        }
    }

    #[test]
    fn gemm_bias_packed_remainder_tiles() {
        // m=5, n=9, k=3: full 4x8 tile, tail panel, and column remainder.
        let (m, k, n) = (5usize, 3usize, 9usize);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 2.0).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut plain = vec![0.0f32; m * n];
        gemm_bias(&a, &b, &bias, &mut plain, m, k, n);
        // Pack `a` panel-major by hand.
        let mut ap = vec![0.0f32; m.div_ceil(MR) * MR * k];
        for i in 0..m {
            for l in 0..k {
                ap[(i / MR) * MR * k + l * MR + i % MR] = a[i * k + l];
            }
        }
        let mut fast = vec![0.0f32; m * n];
        gemm_bias_packed(&ap, &b, &bias, &mut fast, m, k, n);
        assert_eq!(plain, fast);
    }

    #[test]
    fn gemm_bias_remainder_tiles() {
        // m=5, n=9, k=3 exercises both the full 4x8 tile and all remainders.
        let (m, k, n) = (5usize, 3usize, 9usize);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 2.0).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32).collect();
        let mut c = vec![0.0f32; m * n];
        gemm_bias(&a, &b, &bias, &mut c, m, k, n);
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
}
