//! Symmetric fixed-point quantization for the block-convolution
//! reproduction.
//!
//! The paper uses fixed-point arithmetic throughout its hardware designs
//! (16/8-bit activations for the VGG-16 accelerator, 8-bit activations and
//! 4-bit weights for the VDSR accelerator) and evaluates 8-bit quantization
//! of blocked networks in Figure 7, both post-training (PTQ) and
//! training-aware (QAT). This crate provides:
//!
//! * [`QParams`] — per-tensor symmetric scale for a given bitwidth;
//! * [`QTensor`] / [`quantize`] / [`dequantize`] — integer tensors;
//! * [`fake_quant`] — the QAT forward hook (quantize–dequantize round trip);
//! * [`calibrate::Calibrator`] — moving-average range calibration for PTQ;
//! * [`qconv`] — integer convolution with exact integer accumulators:
//!   [`qconv::QConv2d`] pads in any block-padding mode (or runs prepadded
//!   inside fusion groups) and [`qconv::QuantChainOp`] packages one
//!   quantized fused-chain stage with its calibrated activation range;
//! * [`qgemm`] — the integer fast path: the shared channel-lane and
//!   spatial-lane sweeps in exact f32 for 3×3 stride-1 layers, `i16` im2col plus a
//!   widening `i16×i16→i32` GEMM otherwise, all over build-time packed
//!   weights and bitwise identical to the direct loop;
//! * [`qlinear`] — quantized fully-connected layers with per-output-row
//!   weight scales.
//!
//! # Example
//!
//! ```
//! use bconv_quant::{QParams, fake_quant};
//! use bconv_tensor::Tensor;
//!
//! let t = Tensor::from_fn(1, 1, 4, |_, _, w| w as f32 - 1.5);
//! let q = QParams::from_abs_max(1.5, 8);
//! let fq = fake_quant(&t, q);
//! // Round-trip error is bounded by half a quantization step.
//! assert!(t.max_abs_diff(&fq).unwrap() <= q.step() / 2.0 + 1e-6);
//! ```

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod qconv;
pub mod qgemm;
pub mod qlinear;

use bconv_tensor::{Tensor, TensorError};

/// Per-tensor symmetric quantization parameters: values in
/// `[-abs_max, abs_max]` map linearly to `[-qmax, qmax]` integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QParams {
    scale: f32,
    /// `1 / scale`, precomputed so the hot quantize loop multiplies
    /// instead of dividing (a vector divide costs ~10x a multiply).
    inv_scale: f32,
    bits: u8,
}

/// Bias that lands an integer-valued `f32` in the mantissa window where
/// its bits read off directly: `1.5 * 2^23`. Adding it also performs the
/// round-to-nearest (ties-to-even) in the same instruction, which keeps
/// [`QParams::quantize_value`] a pure mul/max/min/add pipeline the
/// auto-vectorizer handles — the saturating `as i32` conversion it
/// replaces defeats vectorization entirely.
const ROUND_BIAS: f32 = 12_582_912.0;
const ROUND_BIAS_BITS: i32 = 0x4B40_0000;

impl QParams {
    /// Parameters covering `[-abs_max, abs_max]` at `bits` width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=16` or `abs_max` is not positive
    /// and finite.
    pub fn from_abs_max(abs_max: f32, bits: u8) -> Self {
        assert!((2..=16).contains(&bits), "bits must be in 2..=16");
        assert!(abs_max.is_finite() && abs_max > 0.0, "abs_max must be positive and finite");
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let scale = abs_max / qmax;
        Self { scale, inv_scale: 1.0 / scale, bits }
    }

    /// Scale (the value of one integer step).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bitwidth.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Largest representable integer magnitude.
    pub fn qmax(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// The quantization step size (== scale).
    pub fn step(&self) -> f32 {
        self.scale
    }

    /// `v / scale` saturated to `[-qmax, qmax]` — the one place the
    /// saturation (and with it the fate of a NaN) is decided, for every
    /// integer kernel. A NaN fails every comparison, so written as two
    /// selects that keep `x` only when it compares inside the bound, **a
    /// NaN saturates to `-qmax`** like any other out-of-range value, where
    /// `clamp` would pass it through. Every other input gives the bits
    /// `clamp` gave, and each select is one `maxps` / `minps` (`f32::max` /
    /// `min` cost a NaN fix-up per vector on top, which showed as 5 % on
    /// the thin layers whose time is mostly this loop).
    #[inline]
    fn saturate(&self, v: f32) -> f32 {
        let qm = self.qmax() as f32;
        let x = v * self.inv_scale;
        let x = if x > -qm { x } else { -qm };
        if x < qm {
            x
        } else {
            qm
        }
    }

    /// Quantizes one value (round-to-nearest ties-to-even, saturating;
    /// NaN quantizes to `-qmax`).
    ///
    /// Saturating before rounding is equivalent to rounding first (both
    /// maps are monotone and `±qmax` are exact), and the saturated
    /// magnitude is far below the `2^22` limit of the `ROUND_BIAS` trick,
    /// so the bit extraction is exact.
    pub fn quantize_value(&self, v: f32) -> i32 {
        ((self.saturate(v) + ROUND_BIAS).to_bits() as i32).wrapping_sub(ROUND_BIAS_BITS)
    }

    /// [`quantize_value`](Self::quantize_value) returning the quantized
    /// integer **as an `f32`** (e.g. `-3.0` for quantized level `-3`) —
    /// the activation format of the exact-f32 kernels in [`qgemm`]. Same
    /// mul/saturate/bias pipeline, minus the bit extraction: subtracting
    /// `ROUND_BIAS` back out is exact, so this equals
    /// `self.quantize_value(v) as f32` bit for bit, NaN included.
    #[inline]
    pub fn quantize_value_f32(&self, v: f32) -> f32 {
        (self.saturate(v) + ROUND_BIAS) - ROUND_BIAS
    }

    /// Dequantizes one integer.
    pub fn dequantize_value(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

/// An integer tensor with its quantization parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    /// Quantized values, row-major NCHW, same layout as the source tensor.
    pub data: Vec<i32>,
    /// Shape dims `[n, c, h, w]` of the source tensor.
    pub dims: [usize; 4],
    /// Quantization parameters.
    pub params: QParams,
}

/// Quantizes a tensor with the given parameters.
pub fn quantize(t: &Tensor, params: QParams) -> QTensor {
    QTensor {
        data: t.data().iter().map(|&v| params.quantize_value(v)).collect(),
        dims: t.shape().dims(),
        params,
    }
}

/// Dequantizes back to floating point.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the stored dims are
/// inconsistent with the data length (cannot happen for values produced by
/// [`quantize`]).
pub fn dequantize(q: &QTensor) -> Result<Tensor, TensorError> {
    Tensor::from_vec(q.dims, q.data.iter().map(|&v| q.params.dequantize_value(v)).collect())
}

/// Quantize–dequantize round trip: the "fake quantization" used in
/// training-aware quantization's forward pass.
pub fn fake_quant(t: &Tensor, params: QParams) -> Tensor {
    t.map(|v| params.dequantize_value(params.quantize_value(v)))
}

/// Convenience: fake-quantize with the tensor's own absolute maximum as the
/// range (per-tensor dynamic quantization).
pub fn fake_quant_dynamic(t: &Tensor, bits: u8) -> Tensor {
    let abs_max = t.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if abs_max == 0.0 {
        return t.clone();
    }
    fake_quant(t, QParams::from_abs_max(abs_max, bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_roundtrip_error_is_half_step() {
        let q = QParams::from_abs_max(1.0, 8);
        for v in [-1.0f32, -0.5, 0.0, 0.123, 0.999] {
            let rt = q.dequantize_value(q.quantize_value(v));
            assert!((rt - v).abs() <= q.step() / 2.0 + 1e-7, "v={v}, rt={rt}");
        }
    }

    #[test]
    fn saturation_clamps_out_of_range() {
        let q = QParams::from_abs_max(1.0, 8);
        assert_eq!(q.quantize_value(10.0), 127);
        assert_eq!(q.quantize_value(-10.0), -127);
    }

    #[test]
    fn nan_saturates_to_minus_qmax_in_both_quantizers() {
        // `clamp` passed NaN through: quantize_value(NaN) read the NaN's
        // bits (880 803 840, truncating to 0 as i16) while
        // quantize_value_f32(NaN) stayed NaN, so the three integer conv
        // paths disagreed on a NaN activation.
        for bits in [4u8, 8, 11, 16] {
            let q = QParams::from_abs_max(0.7, bits);
            for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7FA0_0001)] {
                assert_eq!(q.quantize_value(nan), -q.qmax());
                assert_eq!(q.quantize_value_f32(nan).to_bits(), (-q.qmax() as f32).to_bits());
            }
            // Everything that is not NaN keeps the bits `clamp` produced.
            let qm = q.qmax() as f32;
            let specials = [0.0, -0.0, f32::MIN_POSITIVE, 1e-42, f32::INFINITY, f32::NEG_INFINITY];
            let sweep = (-2000..=2000).map(|i| i as f32 * 0.000_61);
            for v in specials.into_iter().chain(sweep) {
                let clamped = ((v * q.inv_scale).clamp(-qm, qm) + ROUND_BIAS) - ROUND_BIAS;
                assert_eq!(q.quantize_value_f32(v).to_bits(), clamped.to_bits(), "v = {v}");
                assert_eq!(q.quantize_value(v) as f32, clamped, "v = {v}");
            }
        }
    }

    #[test]
    fn bitwidths_give_expected_qmax() {
        assert_eq!(QParams::from_abs_max(1.0, 8).qmax(), 127);
        assert_eq!(QParams::from_abs_max(1.0, 16).qmax(), 32767);
        assert_eq!(QParams::from_abs_max(1.0, 4).qmax(), 7);
    }

    #[test]
    fn lower_bitwidth_means_larger_error() {
        let t = Tensor::from_fn(1, 4, 4, |c, h, w| ((c * 16 + h * 4 + w) as f32).sin());
        let e8 = t.max_abs_diff(&fake_quant_dynamic(&t, 8)).unwrap();
        let e4 = t.max_abs_diff(&fake_quant_dynamic(&t, 4)).unwrap();
        assert!(e4 > e8);
    }

    #[test]
    fn fake_quant_of_zero_tensor_is_identity() {
        let t = Tensor::zeros([1, 1, 2, 2]);
        assert_eq!(fake_quant_dynamic(&t, 8), t);
    }

    #[test]
    fn quantize_dequantize_tensor_roundtrip() {
        let t = Tensor::from_fn(2, 3, 3, |c, h, w| (c + h + w) as f32 / 10.0 - 0.3);
        let q = quantize(&t, QParams::from_abs_max(1.0, 8));
        let back = dequantize(&q).unwrap();
        assert!(t.max_abs_diff(&back).unwrap() <= 1.0 / 127.0 / 2.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=16")]
    fn bits_out_of_range_panics() {
        let _ = QParams::from_abs_max(1.0, 1);
    }

    #[test]
    #[should_panic(expected = "abs_max must be positive")]
    fn non_positive_abs_max_panics() {
        let _ = QParams::from_abs_max(0.0, 8);
    }
}
