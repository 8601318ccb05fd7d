//! Integer convolution simulation: quantized weights and activations with
//! wide (i64) accumulators, mirroring the MAC datapath of the paper's
//! accelerators (16/8-bit for VGG-16, 8-bit activations × 4-bit weights for
//! VDSR).
//!
//! Two entry points matter to executors:
//!
//! * [`QConv2d::forward`] — whole-map execution that pads the input itself,
//!   in an arbitrary [`PadMode`]. When the input is one *block* of a blocked
//!   feature map, the pad mode must match the session's block-padding mode
//!   (the paper's §II-F variable); hardcoding zero here silently diverges
//!   from the float path under replicate/reflect block padding.
//! * [`QConv2d::forward_prepadded_into`] — the fused-chain primitive: the
//!   caller has already applied the block padding from the Equation 2
//!   schedule, so no further padding is added (no double padding inside
//!   fusion groups). [`QuantChainOp`] bundles this with frozen activation
//!   [`QParams`] as one quantized chain stage.

use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::kernel::lane_tile::no_pool;
use bconv_tensor::kernel::{KernelKind, OutGeom};
use bconv_tensor::pad::{pad2d_asym_into, PadMode};
use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::{Tensor, TensorError};

use crate::qgemm::{self, qim2col_gemm, Epilogue, QPackedWeights};
use crate::QParams;

/// Reusable temporaries for quantized convolution: the padded block, the
/// quantized-activation buffers (i32 for the direct loop, i16 for the
/// integer GEMM, f32 for the exact-f32 sweeps) and the GEMM's im2col patch
/// matrix. One per worker thread; buffers grow to the largest input seen
/// and are reused across calls.
#[derive(Debug, Default)]
pub struct QConvScratch {
    padded: Tensor,
    act_q: Vec<i32>,
    /// i16 quantized activations for the integer GEMM path.
    pub(crate) act16: Vec<i16>,
    /// Position-major `N×K` i16 im2col patch matrix.
    pub(crate) cols: Vec<i16>,
    /// Integer-valued f32 activations for the exact-f32 sweeps on a float
    /// input; a stage whose input is already quantized reads it in place
    /// and never grows this.
    pub(crate) actf: Vec<f32>,
}

impl QConvScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A convolution with quantized weights, executing in integer arithmetic.
///
/// Weights are quantized **per output channel** by default (each channel
/// gets the tightest symmetric scale its own range allows, so narrow
/// channels stop paying for the widest one) and pre-packed at construction
/// into the layouts the integer fast path reads ([`QPackedWeights`]: the
/// GEMM's `i16` rows plus, for 3×3 stride-1 layers, the one f32 layout of
/// the layer's exact-f32 kernel) — built once, never repacked per run. Which kernel executes the layer (direct loop
/// vs integer im2col+GEMM) is resolved at construction time via
/// [`KernelKind`], mirroring the float path's plan-time resolution.
#[derive(Debug, Clone)]
pub struct QConv2d {
    weight_q: Vec<i32>,
    pub(crate) weight_dims: [usize; 4],
    pub(crate) bias: Vec<f32>,
    weight_params: QParams,
    /// Per-output-channel weight scales.
    pub(crate) wscales: Vec<f32>,
    /// The integer fast path's packed weights.
    pub(crate) packed: QPackedWeights,
    kernel: KernelKind,
    pub(crate) geom: ConvGeom,
    pub(crate) groups: usize,
}

impl QConv2d {
    /// Quantizes a float convolution's weights at `weight_bits` with
    /// per-channel scales, executing through the direct integer loop.
    ///
    /// Returns `None` if the weights are all zero (no meaningful scale).
    pub fn from_conv(conv: &Conv2d, weight_bits: u8) -> Option<Self> {
        Self::from_conv_with_kernel(conv, weight_bits, KernelKind::Direct)
    }

    /// [`from_conv`](Self::from_conv) with an explicit resolved kernel:
    /// `KernelKind::Im2colGemm` runs the layer through the integer
    /// im2col+GEMM fast path (bitwise identical to the direct loop).
    ///
    /// Returns `None` if the weights are all zero (no meaningful scale).
    pub fn from_conv_with_kernel(
        conv: &Conv2d,
        weight_bits: u8,
        kernel: KernelKind,
    ) -> Option<Self> {
        let wdata = conv.weight().data();
        let abs_max = wdata.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if abs_max == 0.0 {
            return None;
        }
        // The per-tensor envelope: scale of the widest channel; also the
        // fallback for all-zero channels (their quantized weights are all
        // zero, so any finite scale is exact for them).
        let weight_params = QParams::from_abs_max(abs_max, weight_bits);
        let dims = conv.weight().shape().dims();
        let (c_out, per_ch) = (dims[0], dims[1] * dims[2] * dims[3]);
        let mut wscales = Vec::with_capacity(c_out);
        let mut weight_q = Vec::with_capacity(wdata.len());
        for m in 0..c_out {
            let row = &wdata[m * per_ch..(m + 1) * per_ch];
            let cmax = row.iter().fold(0.0f32, |mx, &v| mx.max(v.abs()));
            let params =
                if cmax > 0.0 { QParams::from_abs_max(cmax, weight_bits) } else { weight_params };
            wscales.push(params.scale());
            weight_q.extend(row.iter().map(|&v| params.quantize_value(v)));
        }
        let packed = QPackedWeights::pack(&weight_q, dims, conv.groups(), conv.geom().stride);
        Some(Self {
            weight_q,
            weight_dims: dims,
            bias: conv.bias().to_vec(),
            weight_params,
            wscales,
            packed,
            kernel,
            geom: conv.geom(),
            groups: conv.groups(),
        })
    }

    /// Weight quantization parameters of the per-tensor envelope (the
    /// widest channel's scale; per-channel scales are at most this).
    pub fn weight_params(&self) -> QParams {
        self.weight_params
    }

    /// Per-output-channel weight scales.
    pub fn weight_scales(&self) -> &[f32] {
        &self.wscales
    }

    /// The integer fast path's packed weights.
    pub fn packed_weights(&self) -> &QPackedWeights {
        &self.packed
    }

    /// The kernel this layer executes through.
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The convolution geometry (shared with the source float convolution).
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// Group count (`1` = dense, `c_in` = depthwise).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.weight_dims[0]
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.weight_dims[1] * self.groups
    }

    /// Validates the input channel count (before any padding work).
    pub(crate) fn check_channels(&self, context: &str, c_in: usize) -> Result<(), TensorError> {
        if c_in != self.c_in() {
            return Err(TensorError::shape_mismatch(
                context,
                format!("{}", self.c_in()),
                format!("{c_in}"),
            ));
        }
        Ok(())
    }

    /// Runs the convolution on a float input, applying the layer's own
    /// symmetric padding in `pad_mode`, quantizing activations at
    /// `act_params` and accumulating in i64, then rescaling to float.
    ///
    /// `pad_mode` must match how the float path would pad this input: zero
    /// for whole feature maps (outer padding is always zero), the session's
    /// block-padding mode when `input` is one block of a blocked map.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the input channel count does not match
    /// (validated before padding, so a channel mismatch is never masked by
    /// a padding failure).
    pub fn forward(
        &self,
        input: &Tensor,
        act_params: QParams,
        pad_mode: PadMode,
    ) -> Result<Tensor, TensorError> {
        let mut out = Tensor::zeros([0, 0, 0, 0]);
        let mut scratch = QConvScratch::default();
        self.forward_into(input, act_params, pad_mode, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// [`forward`](Self::forward) into a caller-provided output, drawing
    /// the padded-input and quantized-activation temporaries from
    /// `scratch` — steady-state execution performs no allocation.
    ///
    /// # Errors
    ///
    /// See [`forward`](Self::forward).
    pub fn forward_into(
        &self,
        input: &Tensor,
        act_params: QParams,
        pad_mode: PadMode,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        self.check_channels("QConv2d input channels", input.shape().dims()[1])?;
        let p = self.geom.padding;
        // Take the padded buffer out of the scratch for the duration of the
        // kernel call: the kernel borrows it shared while drawing its other
        // temporaries from the scratch mutably.
        let mut padded = std::mem::take(&mut scratch.padded);
        let result = pad2d_asym_into(input, p, p, p, p, pad_mode, &mut padded).and_then(|()| {
            match self.kernel {
                KernelKind::Direct => {
                    self.conv_prepadded(&padded, act_params, out, &mut scratch.act_q)
                }
                KernelKind::Im2colGemm => qim2col_gemm(self, &padded, act_params, out, scratch),
            }
        });
        scratch.padded = padded;
        result
    }

    /// Convolves an input that has **already been padded** by the caller
    /// (no internal padding is added) — the fused-chain primitive: block
    /// executors apply their Equation 2 block padding once and hand the
    /// padded block straight to the integer kernel.
    ///
    /// # Errors
    ///
    /// Returns shape errors if the channel count does not match or the
    /// padded input is smaller than the kernel.
    pub fn forward_prepadded_into(
        &self,
        padded: &Tensor,
        act_params: QParams,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        match self.kernel {
            KernelKind::Direct => self.conv_prepadded(padded, act_params, out, &mut scratch.act_q),
            KernelKind::Im2colGemm => qim2col_gemm(self, padded, act_params, out, scratch),
        }
    }

    /// [`forward_prepadded_into`](Self::forward_prepadded_into) forced
    /// through the direct loop regardless of the resolved kernel — the
    /// reference implementation parity tests compare against.
    ///
    /// # Errors
    ///
    /// See [`forward_prepadded_into`](Self::forward_prepadded_into).
    pub fn forward_prepadded_direct_into(
        &self,
        padded: &Tensor,
        act_params: QParams,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        self.conv_prepadded(padded, act_params, out, &mut scratch.act_q)
    }

    /// The direct integer kernel: quantize activations, MAC in i64,
    /// rescale at the per-channel scale.
    fn conv_prepadded(
        &self,
        padded: &Tensor,
        act_params: QParams,
        out: &mut Tensor,
        act_q: &mut Vec<i32>,
    ) -> Result<(), TensorError> {
        let [n, c_in, ph, pw] = padded.shape().dims();
        self.check_channels("QConv2d prepadded input channels", c_in)?;
        let [c_out, cin_per_group, k, _] = self.weight_dims;
        let s = self.geom.stride;
        let oh = conv_out_dim(ph, k, s, 0)?;
        let ow = conv_out_dim(pw, k, s, 0)?;
        let cout_per_group = c_out / self.groups;

        // Quantize activations once, into the reusable buffer.
        act_q.clear();
        act_q.extend(padded.data().iter().map(|&v| act_params.quantize_value(v)));
        let act_scale = act_params.scale();

        out.reset([n, c_out, oh, ow]);
        let idx_in = |ni: usize, c: usize, h: usize, w: usize| ((ni * c_in + c) * ph + h) * pw + w;
        let idx_w =
            |m: usize, c: usize, kh: usize, kw: usize| ((m * cin_per_group + c) * k + kh) * k + kw;

        for ni in 0..n {
            for g in 0..self.groups {
                for mo in 0..cout_per_group {
                    let m = g * cout_per_group + mo;
                    let out_scale = self.wscales[m] * act_scale;
                    for ohi in 0..oh {
                        for owi in 0..ow {
                            let mut acc: i64 = 0;
                            for ci in 0..cin_per_group {
                                let c = g * cin_per_group + ci;
                                for khi in 0..k {
                                    for kwi in 0..k {
                                        let a = act_q[idx_in(ni, c, ohi * s + khi, owi * s + kwi)];
                                        let w = self.weight_q[idx_w(m, ci, khi, kwi)];
                                        acc += a as i64 * w as i64;
                                    }
                                }
                            }
                            *out.at_mut(ni, m, ohi, owi) = acc as f32 * out_scale + self.bias[m];
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// One quantized convolution stage of a fused chain: a [`QConv2d`] plus the
/// frozen (calibrated) quantization parameters of its input activations.
///
/// The stage runs on **already locally-padded** block tensors — the block
/// executor applies the Equation 2 block padding in the session's pad mode,
/// and the stage quantizes and convolves without padding again.
#[derive(Debug, Clone)]
pub struct QuantChainOp {
    qconv: QConv2d,
    act_params: QParams,
}

impl QuantChainOp {
    /// Builds a stage from an explicit quantized convolution.
    pub fn new(qconv: QConv2d, act_params: QParams) -> Self {
        Self { qconv, act_params }
    }

    /// Quantizes a float convolution's weights at `weight_bits` and pairs
    /// them with calibrated input-activation parameters.
    ///
    /// Returns `None` if the weights are all zero (no meaningful scale).
    pub fn from_conv(conv: &Conv2d, weight_bits: u8, act_params: QParams) -> Option<Self> {
        QConv2d::from_conv(conv, weight_bits).map(|qconv| Self { qconv, act_params })
    }

    /// [`from_conv`](Self::from_conv) with an explicit resolved kernel
    /// (direct loop vs integer im2col+GEMM) for the stage.
    ///
    /// Returns `None` if the weights are all zero (no meaningful scale).
    pub fn from_conv_with_kernel(
        conv: &Conv2d,
        weight_bits: u8,
        act_params: QParams,
        kernel: KernelKind,
    ) -> Option<Self> {
        QConv2d::from_conv_with_kernel(conv, weight_bits, kernel)
            .map(|qconv| Self { qconv, act_params })
    }

    /// The quantized convolution.
    pub fn qconv(&self) -> &QConv2d {
        &self.qconv
    }

    /// Frozen input-activation quantization parameters.
    pub fn act_params(&self) -> QParams {
        self.act_params
    }

    /// Runs the stage on an already locally-padded block (no further
    /// padding), writing the dequantized float result into `out`.
    ///
    /// # Errors
    ///
    /// See [`QConv2d::forward_prepadded_into`].
    pub fn forward_prepadded_into(
        &self,
        padded: &Tensor,
        out: &mut Tensor,
        scratch: &mut QConvScratch,
    ) -> Result<(), TensorError> {
        self.qconv.forward_prepadded_into(padded, self.act_params, out, scratch)
    }

    /// Whether the stage runs an exact-f32 kernel, and so reads its input
    /// already quantized: what [`forward_quantized_at`](Self::forward_quantized_at)
    /// takes. A fixed property of the layer and its activation range.
    pub fn reads_quantized(&self) -> bool {
        qgemm::exact_weights(&self.qconv, self.act_params).is_some()
    }

    /// The fused-chain entry: runs the stage on a locally padded block
    /// whose values are **already quantized** at the stage's
    /// [`act_params`](Self::act_params) (integer-valued f32, as the previous
    /// stage's [`Epilogue`] stored them) and stores every output at `at` in
    /// `out` through `epi` — the interior of the next stage's padded buffer
    /// in that stage's format, or the block's place in the group's output
    /// map. Bit for bit [`forward_prepadded_into`](Self::forward_prepadded_into)
    /// on the dequantized block followed by a copy through `epi`.
    ///
    /// `zero_halo` declares the `[top, bottom, left, right]` rows and
    /// columns of every plane of `acts` that hold zeros — a block's zero
    /// padding — and the channel-lane kernel skips the taps that read them;
    /// `[0; 4]` declares none (a replicate or reflect halo). Debug builds
    /// check the promise.
    ///
    /// With a `pool` `Some((k, pooled))`, a `k × k` / stride-`k` max
    /// pooling follows: every output goes through `epi` (the convolution's
    /// own epilogue) and into its window, and each window's maximum is
    /// stored through `pooled` at `at`, the geometry of the pooled outputs
    /// — a fused chain's convolution followed by a pooling stores the
    /// pooled block. Bit for bit the unpooled call into a compact block
    /// followed by [`bconv_tensor::pool::max_pool2d_at`] through `pooled`.
    ///
    /// # Errors
    ///
    /// Returns shape errors on a channel mismatch, when the stage does not
    /// [`read_quantized`](Self::reads_quantized), when the outputs do not
    /// fit `out` at `at`, when the declared halo is wider than the block,
    /// or when the pooling window does not fit the outputs or is wider
    /// than [`bconv_tensor::kernel::lane_tile::MAX_POOL`].
    pub fn forward_quantized_at(
        &self,
        acts: &Tensor,
        zero_halo: [usize; 4],
        out: &mut [f32],
        at: OutGeom,
        epi: Epilogue,
        pool: Option<(usize, Epilogue)>,
    ) -> Result<(), TensorError> {
        let (acts, to) = ((acts, zero_halo), (out, at, epi));
        match pool {
            None => qgemm::quantized_conv_at(&self.qconv, self.act_params, acts, to, no_pool()),
            Some(pool) => self.store_pooled(acts, to, pool),
        }
    }

    /// The pooled arm of [`forward_quantized_at`](Self::forward_quantized_at),
    /// out of line so that the entry keeps the stack frame of one that
    /// never pools, and the kernels below it their place on the stack,
    /// which moves their speed.
    #[inline(never)]
    fn store_pooled(
        &self,
        acts: (&Tensor, [usize; 4]),
        to: (&mut [f32], OutGeom, Epilogue),
        (k, pooled): (usize, Epilogue),
    ) -> Result<(), TensorError> {
        let post = move |v| pooled.apply(v);
        qgemm::quantized_conv_at(&self.qconv, self.act_params, acts, to, Some((k, post)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
    use bconv_tensor::pad::pad2d;

    #[test]
    fn int8_conv_tracks_float_conv() {
        let mut rng = seeded_rng(1);
        let conv = he_conv2d(3, 4, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 3, 8, 8], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let q_out = qconv.forward(&input, QParams::from_abs_max(1.0, 8), PadMode::Zero).unwrap();
        let err = float_out.max_abs_diff(&q_out).unwrap();
        let ref_mag = float_out.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(err / ref_mag < 0.05, "relative error {}", err / ref_mag);
    }

    #[test]
    fn wider_bitwidth_reduces_error() {
        let mut rng = seeded_rng(2);
        let conv = he_conv2d(2, 2, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let err_at = |bits: u8| {
            let q = QConv2d::from_conv(&conv, bits).unwrap();
            float_out.max_abs_diff(&q.forward(&input, act, PadMode::Zero).unwrap()).unwrap()
        };
        let (e4, e8, e16) = (err_at(4), err_at(8), err_at(16));
        assert!(e4 > e8, "4-bit {e4} should exceed 8-bit {e8}");
        assert!(e8 > e16, "8-bit {e8} should exceed 16-bit {e16}");
    }

    #[test]
    fn vdsr_style_4bit_weights_8bit_acts() {
        // The VDSR accelerator quantizes weights to 4 bits and activations
        // to 8 bits (§III-C1); the integer path must stay usable.
        let mut rng = seeded_rng(3);
        let conv = he_conv2d(4, 4, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 4, 8, 8], 0.0, 1.0, &mut rng);
        let float_out = conv.forward(&input).unwrap();
        let q_out = QConv2d::from_conv(&conv, 4)
            .unwrap()
            .forward(&input, QParams::from_abs_max(1.0, 8), PadMode::Zero)
            .unwrap();
        let err = float_out.max_abs_diff(&q_out).unwrap();
        let ref_mag = float_out.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        assert!(err / ref_mag < 0.25, "relative error {}", err / ref_mag);
    }

    #[test]
    fn zero_weights_yield_none() {
        let conv = Conv2d::zeros(1, 1, ConvGeom::same(3)).unwrap();
        assert!(QConv2d::from_conv(&conv, 8).is_none());
        assert!(QuantChainOp::from_conv(&conv, 8, QParams::from_abs_max(1.0, 8)).is_none());
    }

    #[test]
    fn a_pool_window_too_large_for_the_stage_is_refused() {
        let conv = he_conv2d(2, 16, ConvGeom::same(3), 1, &mut seeded_rng(5)).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
        let op = QuantChainOp::new(q, act);
        let acts = Tensor::zeros([1, 2, 26, 26]);
        let mut out = vec![0.0; 16 * 4];
        for (k, fits) in [(12, false), (11, true)] {
            let at = OutGeom::compact(24 / k, 24 / k);
            let pool = Some((k, Epilogue::NONE));
            let got = op.forward_quantized_at(&acts, [1; 4], &mut out, at, Epilogue::NONE, pool);
            match got {
                Err(TensorError::InvalidParameter { .. }) => assert!(!fits, "k {k}"),
                got => assert!(fits && got.is_ok(), "k {k}: {got:?}"),
            }
        }
    }

    #[test]
    fn channel_mismatch_is_an_error() {
        let mut rng = seeded_rng(4);
        let conv = he_conv2d(3, 4, ConvGeom::same(3), 1, &mut rng).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let input = Tensor::zeros([1, 2, 8, 8]);
        let act = QParams::from_abs_max(1.0, 8);
        assert!(qconv.forward(&input, act, PadMode::Zero).is_err());
    }

    #[test]
    fn channel_mismatch_is_validated_before_padding() {
        // Regression: the old forward padded first and validated after, so
        // a wrong-channel 1x1 input under reflect padding surfaced as a
        // reflect-padding error instead of the real channel mismatch.
        let mut rng = seeded_rng(5);
        let conv = he_conv2d(3, 4, ConvGeom::same(3), 1, &mut rng).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let input = Tensor::zeros([1, 2, 1, 1]);
        let act = QParams::from_abs_max(1.0, 8);
        let err = qconv.forward(&input, act, PadMode::Reflect).unwrap_err();
        assert!(
            matches!(err, TensorError::ShapeMismatch { ref context, .. }
                if context.contains("channels")),
            "expected a channel mismatch, got {err:?}"
        );
    }

    #[test]
    fn replicate_block_padding_is_honored() {
        // Regression for the hardcoded PadMode::Zero: under replicate
        // padding the quantized output must track the replicate-padded
        // float convolution; zero padding gives a visibly different answer.
        let mut rng = seeded_rng(6);
        let conv = he_conv2d(2, 2, ConvGeom::same(3), 1, &mut rng).unwrap();
        // Inputs bounded away from zero so replicate and zero padding
        // genuinely disagree on every border pixel.
        let input = uniform_tensor([1, 2, 6, 6], 0.5, 1.0, &mut rng);
        let float_rep =
            conv.forward_prepadded(&pad2d(&input, 1, 1, PadMode::Replicate).unwrap()).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let q_rep = qconv.forward(&input, act, PadMode::Replicate).unwrap();
        let q_zero = qconv.forward(&input, act, PadMode::Zero).unwrap();
        let mag = float_rep.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let err_rep = float_rep.max_abs_diff(&q_rep).unwrap() / mag;
        let err_zero = float_rep.max_abs_diff(&q_zero).unwrap() / mag;
        assert!(err_rep < 0.05, "replicate-padded quant diverges: {err_rep}");
        assert!(
            err_zero > 4.0 * err_rep,
            "zero padding should visibly differ (rep {err_rep}, zero {err_zero})"
        );
    }

    #[test]
    fn prepadded_matches_forward() {
        // forward == pad + forward_prepadded_into: no double padding.
        let mut rng = seeded_rng(7);
        let conv = he_conv2d(2, 3, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 2, 6, 6], -1.0, 1.0, &mut rng);
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        let act = QParams::from_abs_max(1.0, 8);
        let whole = qconv.forward(&input, act, PadMode::Replicate).unwrap();
        let padded = pad2d(&input, 1, 1, PadMode::Replicate).unwrap();
        let mut out = Tensor::zeros([0, 0, 0, 0]);
        let mut scratch = QConvScratch::new();
        qconv.forward_prepadded_into(&padded, act, &mut out, &mut scratch).unwrap();
        assert_eq!(whole.data(), out.data(), "prepadded path must be bitwise identical");
    }

    #[test]
    fn chain_op_runs_prepadded_blocks() {
        let mut rng = seeded_rng(8);
        let conv = he_conv2d(2, 2, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 2, 4, 4], -1.0, 1.0, &mut rng);
        let act = QParams::from_abs_max(1.0, 8);
        let op = QuantChainOp::from_conv(&conv, 8, act).unwrap();
        assert_eq!(op.act_params(), act);
        assert_eq!(op.qconv().c_out(), 2);
        let padded = pad2d(&input, 1, 1, PadMode::Zero).unwrap();
        let mut out = Tensor::zeros([0, 0, 0, 0]);
        let mut scratch = QConvScratch::new();
        op.forward_prepadded_into(&padded, &mut out, &mut scratch).unwrap();
        let direct = op.qconv().forward(&input, act, PadMode::Zero).unwrap();
        assert_eq!(out.data(), direct.data());
    }

    #[test]
    fn accessors_report_the_source_convolution() {
        let mut rng = seeded_rng(9);
        let conv = he_conv2d(4, 6, ConvGeom::new(3, 2, 1), 2, &mut rng).unwrap();
        let qconv = QConv2d::from_conv(&conv, 8).unwrap();
        assert_eq!(qconv.geom(), conv.geom());
        assert_eq!(qconv.groups(), 2);
        assert_eq!(qconv.c_in(), 4);
        assert_eq!(qconv.c_out(), 6);
        assert_eq!(qconv.weight_params().bits(), 8);
    }
}
