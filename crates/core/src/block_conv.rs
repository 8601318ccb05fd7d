//! The block convolution operator: split → block-pad → convolve → concat.
//!
//! Paper §II-C: the feature map is partitioned by a [`BlockGrid`]; each
//! block is padded *locally* (so its computation depends on nothing outside
//! the block) and convolved; the per-block outputs are concatenated.
//! FLOPs are identical to the conventional convolution; only pixels whose
//! receptive field crosses a block boundary can differ.

use std::sync::Arc;

use bconv_tensor::conv::Conv2d;
use bconv_tensor::kernel::{ConvScratch, KernelKind, KernelPolicy, PackedWeights};
use bconv_tensor::pad::{pad2d_asym_into, PadMode};
use bconv_tensor::{Tensor, TensorError};

use crate::blocking::{BlockGrid, BlockingPattern};
use crate::padding_solver::{plan_axis, AxisPlan};

/// A planned block convolution: a dense convolution plus a block grid, the
/// per-block padding schedule derived from the paper's Equation 2, a
/// block-padding mode, and the conv kernel the blocks execute through.
///
/// The convolution weights are held behind an [`Arc`], shared with
/// whoever planned the block convolution (e.g. a `bconv-graph` `Graph`
/// node) — planning never deep-clones weights. Executors that keep a plan
/// around call [`with_packed_weights`](Self::with_packed_weights) once at
/// build time to add a panel-major packed copy for the GEMM kernel;
/// planning itself never packs (cost-model trial walks plan thousands of
/// candidates and quantized chains use their own integer packing).
#[derive(Debug, Clone)]
pub struct BlockConv2d {
    conv: Arc<Conv2d>,
    grid: BlockGrid,
    rows: AxisPlan,
    cols: AxisPlan,
    pad_mode: PadMode,
    kernel: KernelKind,
    packed: Option<Arc<PackedWeights>>,
}

/// Reusable temporaries for per-block convolution: the padded block and
/// the kernel's own scratch. One per worker thread.
#[derive(Debug, Default)]
pub struct BlockConvScratch {
    /// The locally padded block. Crate-visible so a fused quantized stage
    /// pads into the same buffer its float twin would.
    pub(crate) padded: Tensor,
    conv: ConvScratch,
}

impl BlockConvScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlockConv2d {
    /// Plans a block convolution for inputs tiled by `grid`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when Equation 2 has no
    /// solution for the grid (e.g. a strided kernel with misaligned
    /// segments).
    ///
    /// # Examples
    ///
    /// ```
    /// use bconv_core::{BlockConv2d, blocking::{BlockGrid, BlockingPattern}};
    /// use bconv_tensor::{Tensor, PadMode, conv::{Conv2d, ConvGeom}};
    ///
    /// # fn main() -> Result<(), bconv_tensor::TensorError> {
    /// // Figure 3: 8x8x3 input, 3x3x3 filter, 2x2 blocks.
    /// let conv = Conv2d::identity_like(3, 3, ConvGeom::same(3))?;
    /// let grid = BlockGrid::from_pattern(8, 8, bconv_core::blocking::BlockingPattern::hierarchical(2))?;
    /// let bconv = BlockConv2d::plan(conv, grid, PadMode::Zero)?;
    /// let input = Tensor::filled([1, 3, 8, 8], 1.0);
    /// let out = bconv.forward(&input)?;
    /// assert_eq!(out.shape().dims(), [1, 3, 8, 8]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn plan(
        conv: impl Into<Arc<Conv2d>>,
        grid: BlockGrid,
        pad_mode: PadMode,
    ) -> Result<Self, TensorError> {
        Self::plan_with_kernel(conv, grid, pad_mode, KernelPolicy::default())
    }

    /// [`plan`](Self::plan) with an explicit [`KernelPolicy`] deciding how
    /// each block is convolved (direct loop vs im2col+GEMM).
    ///
    /// # Errors
    ///
    /// See [`BlockConv2d::plan`].
    pub fn plan_with_kernel(
        conv: impl Into<Arc<Conv2d>>,
        grid: BlockGrid,
        pad_mode: PadMode,
        policy: KernelPolicy,
    ) -> Result<Self, TensorError> {
        let conv = conv.into();
        let g = conv.geom();
        let rows = plan_axis(grid.row_segments(), g.kernel, g.stride, g.padding)?;
        let cols = plan_axis(grid.col_segments(), g.kernel, g.stride, g.padding)?;
        let kernel = policy.resolve(&conv);
        Ok(Self { conv, grid, rows, cols, pad_mode, kernel, packed: None })
    }

    /// Adds a build-time panel-major packed copy of the weights for the
    /// GEMM kernel (a no-op for layers resolved to the direct loop).
    /// Packing allocates once, here; every subsequent
    /// [`forward_block_into`](Self::forward_block_into) streams the packed
    /// panels instead of the row-major weight matrix, bitwise identically.
    #[must_use]
    pub fn with_packed_weights(mut self) -> Self {
        if self.kernel == KernelKind::Im2colGemm && self.packed.is_none() {
            self.packed = Some(Arc::new(PackedWeights::pack(&self.conv)));
        }
        self
    }

    /// The packed weight panels, if [`with_packed_weights`](Self::with_packed_weights)
    /// built them.
    pub fn packed_weights(&self) -> Option<&Arc<PackedWeights>> {
        self.packed.as_ref()
    }

    /// Plans a block convolution from a [`BlockingPattern`] on an `h × w`
    /// input.
    ///
    /// # Errors
    ///
    /// See [`BlockConv2d::plan`].
    pub fn from_pattern(
        conv: impl Into<Arc<Conv2d>>,
        h: usize,
        w: usize,
        pattern: BlockingPattern,
        pad_mode: PadMode,
    ) -> Result<Self, TensorError> {
        let grid = BlockGrid::from_pattern(h, w, pattern)?;
        Self::plan(conv, grid, pad_mode)
    }

    /// The underlying dense convolution.
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// The kernel implementation blocks execute through.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The block grid on the input.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Block-padding mode.
    pub fn pad_mode(&self) -> PadMode {
        self.pad_mode
    }

    /// The Equation 2 padding `(top, bottom, left, right)` of the block at
    /// grid position `(row, col)`.
    pub fn block_padding(&self, row: usize, col: usize) -> (usize, usize, usize, usize) {
        let (rp, cp) = (&self.rows.blocks[row], &self.cols.blocks[col]);
        (rp.pad_lo, rp.pad_hi, cp.pad_lo, cp.pad_hi)
    }

    /// The grid induced on the output feature map.
    ///
    /// # Errors
    ///
    /// Never fails for a successfully planned block convolution; kept
    /// fallible for API uniformity with [`BlockGrid::from_segments`].
    pub fn output_grid(&self) -> Result<BlockGrid, TensorError> {
        let seg = |plan: &AxisPlan| {
            let mut out = Vec::with_capacity(plan.blocks.len());
            let mut cursor = 0;
            for b in &plan.blocks {
                out.push((cursor, b.out));
                cursor += b.out;
            }
            out
        };
        let rows = seg(&self.rows);
        let cols = seg(&self.cols);
        let h = rows.iter().map(|&(_, s)| s).sum();
        let w = cols.iter().map(|&(_, s)| s).sum();
        BlockGrid::from_segments(h, w, rows, cols)
    }

    /// Convolves a single input block (already cropped out of the feature
    /// map) at grid position `(row, col)`: applies the planned block
    /// padding and the dense kernel.
    ///
    /// This is the primitive a fused multi-layer executor calls per block.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `block` does not match the planned block
    /// size at `(row, col)`.
    pub fn forward_block(
        &self,
        block: &Tensor,
        row: usize,
        col: usize,
    ) -> Result<Tensor, TensorError> {
        let mut scratch = BlockConvScratch::default();
        let mut out = Tensor::zeros([0, 0, 0, 0]);
        self.forward_block_into(block, row, col, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// [`forward_block`](Self::forward_block) into a caller-provided
    /// output, drawing the padded-block temporary and the kernel's patch
    /// matrix from `scratch`. Fused executors call this once per block
    /// per stage with a per-worker scratch, so steady-state execution
    /// performs no allocation.
    ///
    /// # Errors
    ///
    /// See [`forward_block`](Self::forward_block).
    pub fn forward_block_into(
        &self,
        block: &Tensor,
        row: usize,
        col: usize,
        out: &mut Tensor,
        scratch: &mut BlockConvScratch,
    ) -> Result<(), TensorError> {
        self.pad_block_into(block, row, col, &mut scratch.padded)?;
        match &self.packed {
            Some(p) => {
                p.forward_prepadded_into(&self.conv, &scratch.padded, out, &mut scratch.conv)
            }
            None => self.conv.forward_prepadded_into(
                &scratch.padded,
                self.kernel,
                out,
                &mut scratch.conv,
            ),
        }
    }

    /// Applies only the planned Equation 2 block padding for grid position
    /// `(row, col)` to an already-cropped block, in the planned pad mode.
    ///
    /// This exposes the padding half of
    /// [`forward_block_into`](Self::forward_block_into) so alternative
    /// per-block kernels — e.g.
    /// the quantized integer path — can consume locally-padded blocks
    /// without padding twice.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `block` does not match the planned block
    /// size at `(row, col)`.
    pub fn pad_block_into(
        &self,
        block: &Tensor,
        row: usize,
        col: usize,
        padded: &mut Tensor,
    ) -> Result<(), TensorError> {
        let rp = &self.rows.blocks[row];
        let cp = &self.cols.blocks[col];
        let [_, _, bh, bw] = block.shape().dims();
        if bh != rp.size || bw != cp.size {
            return Err(TensorError::shape_mismatch(
                "BlockConv2d::forward_block",
                format!("[{},{}]", rp.size, cp.size),
                format!("[{bh},{bw}]"),
            ));
        }
        let (top, bottom, left, right) = self.block_padding(row, col);
        pad2d_asym_into(block, top, bottom, left, right, self.pad_mode, padded)
    }

    /// Full block convolution: split by the grid, convolve each block via
    /// [`forward_block`](Self::forward_block), concatenate.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let [n, _, h, w] = input.shape().dims();
        if h != self.grid.h() || w != self.grid.w() {
            return Err(TensorError::shape_mismatch(
                "BlockConv2d::forward input",
                format!("[{},{}]", self.grid.h(), self.grid.w()),
                format!("[{h},{w}]"),
            ));
        }
        let out_grid = self.output_grid()?;
        let mut out = Tensor::zeros([n, self.conv.c_out(), out_grid.h(), out_grid.w()]);
        // One scratch set reused across every block of the map.
        let mut scratch = BlockConvScratch::default();
        let mut cropped = Tensor::zeros([0, 0, 0, 0]);
        let mut conv_out = Tensor::zeros([0, 0, 0, 0]);
        for row in 0..self.grid.num_rows() {
            for col in 0..self.grid.num_cols() {
                let b = self.grid.block(row, col);
                let ob = out_grid.block(row, col);
                input.crop_into(b.h0, b.w0, b.bh, b.bw, &mut cropped)?;
                self.forward_block_into(&cropped, row, col, &mut conv_out, &mut scratch)?;
                out.paste(&conv_out, ob.h0, ob.w0)?;
            }
        }
        Ok(out)
    }

    /// Multiply–accumulate count of the whole block convolution — equal to
    /// the conventional convolution's by construction (paper §II-C).
    pub fn macs(&self) -> u64 {
        let k = self.conv.geom().kernel as u64;
        let per_out =
            k * k * (self.conv.c_in() / self.conv.groups()) as u64 * self.conv.c_out() as u64;
        let out_area: u64 = self
            .rows
            .blocks
            .iter()
            .flat_map(|r| self.cols.blocks.iter().map(move |c| (r.out * c.out) as u64))
            .sum();
        per_out * out_area
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_tensor::conv::ConvGeom;
    use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};

    fn random_conv(c_in: usize, c_out: usize, k: usize, seed: u64) -> Conv2d {
        let mut rng = seeded_rng(seed);
        he_conv2d(c_in, c_out, ConvGeom::same(k), 1, &mut rng).unwrap()
    }

    #[test]
    fn figure3_shape_and_op_count() {
        // 8x8x3 input, 3x3x3 filter, 2x2 blocks: output 8x8, MACs equal.
        let conv = random_conv(3, 1, 3, 1);
        let dense_macs = conv.macs(8, 8).unwrap();
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        assert_eq!(bconv.macs(), dense_macs);
        let input = uniform_tensor([1, 3, 8, 8], -1.0, 1.0, &mut seeded_rng(2));
        let out = bconv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), [1, 1, 8, 8]);
    }

    #[test]
    fn interior_pixels_match_dense_convolution() {
        // Pixels whose 3x3 receptive field stays inside one block are
        // bit-identical to the conventional convolution.
        let conv = random_conv(2, 2, 3, 3);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(4));
        let dense = conv.forward(&input).unwrap();
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        let blocked = bconv.forward(&input).unwrap();
        // Interior of the top-left 4x4 block: rows/cols 1..3.
        for c in 0..2 {
            for h in 1..3 {
                for w in 1..3 {
                    assert!(
                        (dense.at(0, c, h, w) - blocked.at(0, c, h, w)).abs() < 1e-5,
                        "interior pixel ({c},{h},{w}) differs"
                    );
                }
            }
        }
        // Boundary pixels generally differ (zero block padding vs real data).
        let diff = dense.max_abs_diff(&blocked).unwrap();
        assert!(diff > 0.0, "blocking should perturb boundary pixels");
    }

    #[test]
    fn single_block_grid_is_exactly_dense_convolution() {
        let conv = random_conv(3, 4, 3, 5);
        let input = uniform_tensor([1, 3, 10, 10], -1.0, 1.0, &mut seeded_rng(6));
        let dense = conv.forward(&input).unwrap();
        let bconv = BlockConv2d::plan(conv, BlockGrid::single(10, 10), PadMode::Zero).unwrap();
        let blocked = bconv.forward(&input).unwrap();
        assert!(dense.approx_eq(&blocked, 1e-5).unwrap());
    }

    #[test]
    fn pointwise_block_conv_is_exactly_pointwise() {
        // §II-C: "when the kernel size is 1, block convolution is exactly
        // the pointwise convolution".
        let mut rng = seeded_rng(7);
        let conv = he_conv2d(4, 6, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let dense = conv.forward(&input).unwrap();
        for pattern in [BlockingPattern::hierarchical(2), BlockingPattern::fixed(3)] {
            let bconv =
                BlockConv2d::from_pattern(conv.clone(), 8, 8, pattern, PadMode::Zero).unwrap();
            let blocked = bconv.forward(&input).unwrap();
            assert!(dense.approx_eq(&blocked, 1e-5).unwrap(), "pattern {pattern}");
        }
    }

    #[test]
    fn depthwise_block_conv_keeps_shape() {
        let mut rng = seeded_rng(8);
        let conv = he_conv2d(4, 4, ConvGeom::same(3), 4, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 8, 8], -1.0, 1.0, &mut rng);
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        let out = bconv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), [1, 4, 8, 8]);
    }

    #[test]
    fn irregular_fixed_blocking_preserves_output_size() {
        // 41x41 "same" conv under F28 -> 28/13 splits, output still 41x41.
        let conv = random_conv(1, 1, 3, 9);
        let input = uniform_tensor([1, 1, 41, 41], -1.0, 1.0, &mut seeded_rng(10));
        let bconv =
            BlockConv2d::from_pattern(conv, 41, 41, BlockingPattern::fixed(28), PadMode::Zero)
                .unwrap();
        let out = bconv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), [1, 1, 41, 41]);
    }

    #[test]
    fn replicate_and_reflect_block_padding_work() {
        let conv = random_conv(2, 2, 3, 11);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(12));
        for mode in PadMode::ALL {
            let bconv = BlockConv2d::from_pattern(
                conv.clone(),
                8,
                8,
                BlockingPattern::hierarchical(2),
                mode,
            )
            .unwrap();
            let out = bconv.forward(&input).unwrap();
            assert_eq!(out.shape().dims(), [1, 2, 8, 8], "mode {mode:?}");
        }
    }

    #[test]
    fn packed_weights_do_not_change_blocked_output() {
        let conv = random_conv(3, 8, 3, 21);
        let input = uniform_tensor([1, 3, 16, 16], -1.0, 1.0, &mut seeded_rng(22));
        let plain = BlockConv2d::from_pattern(
            conv.clone(),
            16,
            16,
            BlockingPattern::hierarchical(2),
            PadMode::Zero,
        )
        .unwrap();
        let packed = plain.clone().with_packed_weights();
        assert!(packed.packed_weights().is_some());
        let a = plain.forward(&input).unwrap();
        let b = packed.forward(&input).unwrap();
        assert_eq!(a.data(), b.data(), "packing must be bitwise invisible");
    }

    #[test]
    fn packing_is_skipped_for_direct_kernel() {
        let conv = random_conv(3, 4, 3, 23);
        let bconv = BlockConv2d::plan_with_kernel(
            conv,
            BlockGrid::single(8, 8),
            PadMode::Zero,
            KernelPolicy::Direct,
        )
        .unwrap()
        .with_packed_weights();
        assert!(bconv.packed_weights().is_none());
    }

    #[test]
    fn wrong_input_size_is_an_error() {
        let conv = random_conv(1, 1, 3, 13);
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        let input = Tensor::zeros([1, 1, 9, 8]);
        assert!(bconv.forward(&input).is_err());
    }

    #[test]
    fn forward_block_validates_block_shape() {
        let conv = random_conv(1, 1, 3, 14);
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        let bad = Tensor::zeros([1, 1, 5, 4]);
        assert!(bconv.forward_block(&bad, 0, 0).is_err());
    }

    #[test]
    fn output_grid_tracks_block_outputs() {
        let conv = random_conv(1, 1, 3, 15);
        let bconv =
            BlockConv2d::from_pattern(conv, 41, 41, BlockingPattern::fixed(28), PadMode::Zero)
                .unwrap();
        let og = bconv.output_grid().unwrap();
        assert_eq!(og.h(), 41);
        assert_eq!(og.row_segments(), &[(0, 28), (28, 13)]);
    }
}
