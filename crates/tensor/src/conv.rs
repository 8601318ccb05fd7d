//! Direct 2-D convolution with stride, padding and groups.
//!
//! Grouped convolution with `groups == channels` is depthwise convolution
//! (MobileNet-V1); a 1×1 kernel is pointwise convolution. Both are required
//! by the paper's §II-E evaluation.

use crate::kernel::{self, ConvScratch, KernelKind};
use crate::pad::{pad2d, PadMode};
use crate::shape::conv_out_dim;
use crate::{Tensor, TensorError};

/// Convolution geometry: square kernel, uniform stride and symmetric padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeom {
    /// Square kernel size `k`.
    pub kernel: usize,
    /// Stride `s` in both spatial dimensions.
    pub stride: usize,
    /// Symmetric zero-padding `p` on each spatial side.
    pub padding: usize,
}

impl ConvGeom {
    /// Creates a geometry from `(k, s, p)`.
    pub fn new(kernel: usize, stride: usize, padding: usize) -> Self {
        Self { kernel, stride, padding }
    }

    /// "Same" geometry for odd `k`: stride 1, padding `k/2`, preserving the
    /// spatial size.
    pub fn same(kernel: usize) -> Self {
        Self::new(kernel, 1, kernel / 2)
    }

    /// Output spatial size for an input of `(h, w)` (paper Equation 1).
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError::InvalidParameter`] from [`conv_out_dim`].
    pub fn out_hw(&self, h: usize, w: usize) -> Result<(usize, usize), TensorError> {
        Ok((
            conv_out_dim(h, self.kernel, self.stride, self.padding)?,
            conv_out_dim(w, self.kernel, self.stride, self.padding)?,
        ))
    }
}

/// A 2-D convolution layer: weights `[c_out, c_in/groups, k, k]`, per-output
/// channel bias, geometry and group count.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    weight: Tensor,
    bias: Vec<f32>,
    geom: ConvGeom,
    groups: usize,
}

impl Conv2d {
    /// Creates a convolution from explicit weights and bias.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if the weight kernel does
    /// not match `geom.kernel`, the bias length does not match the output
    /// channel count, or the groups do not divide the channel counts.
    pub fn new(
        weight: Tensor,
        bias: Vec<f32>,
        geom: ConvGeom,
        groups: usize,
    ) -> Result<Self, TensorError> {
        let [c_out, _c_in_per_group, kh, kw] = weight.shape().dims();
        if kh != geom.kernel || kw != geom.kernel {
            return Err(TensorError::invalid(format!(
                "weight kernel ({kh},{kw}) does not match geometry kernel {}",
                geom.kernel
            )));
        }
        if bias.len() != c_out {
            return Err(TensorError::shape_mismatch(
                "Conv2d bias",
                format!("{c_out}"),
                format!("{}", bias.len()),
            ));
        }
        if groups == 0 || c_out % groups != 0 {
            return Err(TensorError::invalid(format!(
                "groups {groups} must divide output channels {c_out}"
            )));
        }
        Ok(Self { weight, bias, geom, groups })
    }

    /// Zero-initialised convolution with `c_in -> c_out` channels.
    ///
    /// # Errors
    ///
    /// See [`Conv2d::new`].
    pub fn zeros(c_in: usize, c_out: usize, geom: ConvGeom) -> Result<Self, TensorError> {
        Self::new(Tensor::zeros([c_out, c_in, geom.kernel, geom.kernel]), vec![0.0; c_out], geom, 1)
    }

    /// A convolution whose centre tap is 1 so that (with "same" geometry) it
    /// reproduces its input; useful in tests and doc examples.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] if `c_in != c_out` or the
    /// kernel is even.
    pub fn identity_like(c_in: usize, c_out: usize, geom: ConvGeom) -> Result<Self, TensorError> {
        if c_in != c_out {
            return Err(TensorError::invalid("identity convolution needs c_in == c_out"));
        }
        if geom.kernel.is_multiple_of(2) {
            return Err(TensorError::invalid("identity convolution needs an odd kernel"));
        }
        let mut conv = Self::zeros(c_in, c_out, geom)?;
        let centre = geom.kernel / 2;
        for c in 0..c_out {
            *conv.weight.at_mut(c, c, centre, centre) = 1.0;
        }
        Ok(conv)
    }

    /// The weight tensor `[c_out, c_in/groups, k, k]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight tensor (used by the training crate).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Per-output-channel bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias (used by the training crate).
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The convolution geometry.
    pub fn geom(&self) -> ConvGeom {
        self.geom
    }

    /// Group count (`1` = dense, `c_in` = depthwise).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Output channel count.
    pub fn c_out(&self) -> usize {
        self.weight.shape().dims()[0]
    }

    /// Input channel count.
    pub fn c_in(&self) -> usize {
        self.weight.shape().dims()[1] * self.groups
    }

    /// Applies the convolution with its own symmetric zero padding.
    ///
    /// # Errors
    ///
    /// Returns an error if the input channel count does not match or the
    /// geometry is infeasible for the input size.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let padded = pad2d(input, self.geom.padding, self.geom.padding, PadMode::Zero)?;
        self.forward_prepadded(&padded)
    }

    /// Applies the convolution to an input that has **already been padded**
    /// by the caller (no internal padding is added).
    ///
    /// This is the entry point used by block convolution, which performs its
    /// own per-block padding in an arbitrary [`PadMode`] before convolving.
    ///
    /// # Errors
    ///
    /// Returns an error if the input channel count does not match or the
    /// input is smaller than the kernel.
    pub fn forward_prepadded(&self, padded: &Tensor) -> Result<Tensor, TensorError> {
        self.forward_prepadded_with(padded, KernelKind::Direct)
    }

    /// [`forward_prepadded`](Self::forward_prepadded) through an explicit
    /// [`KernelKind`] (see [`crate::kernel`] for the implementations).
    ///
    /// # Errors
    ///
    /// See [`forward_prepadded`](Self::forward_prepadded).
    pub fn forward_prepadded_with(
        &self,
        padded: &Tensor,
        kind: KernelKind,
    ) -> Result<Tensor, TensorError> {
        let mut out = Tensor::zeros([0, 0, 0, 0]);
        let mut scratch = ConvScratch::new();
        self.forward_prepadded_into(padded, kind, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Scratch-buffer variant of
    /// [`forward_prepadded_with`](Self::forward_prepadded_with): writes
    /// into `out` (reshaped to fit) and reuses `scratch` across calls —
    /// the entry point for per-block executors that must not allocate in
    /// steady state.
    ///
    /// # Errors
    ///
    /// See [`forward_prepadded`](Self::forward_prepadded).
    pub fn forward_prepadded_into(
        &self,
        padded: &Tensor,
        kind: KernelKind,
        out: &mut Tensor,
        scratch: &mut ConvScratch,
    ) -> Result<(), TensorError> {
        match kind {
            KernelKind::Direct => kernel::direct(self, padded, out),
            KernelKind::Im2colGemm => kernel::im2col_gemm(self, None, padded, out, scratch),
        }
    }

    /// Multiply–accumulate count (FLOPs/2) for an input of `(h, w)`,
    /// counting only the convolution arithmetic (paper §II-C notes block
    /// convolution leaves this unchanged).
    ///
    /// # Errors
    ///
    /// Propagates geometry errors from [`ConvGeom::out_hw`].
    pub fn macs(&self, h: usize, w: usize) -> Result<u64, TensorError> {
        let (oh, ow) = self.geom.out_hw(h, w)?;
        let k = self.geom.kernel as u64;
        let per_out = k * k * (self.c_in() / self.groups) as u64;
        Ok(per_out * (oh * ow) as u64 * self.c_out() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_convolution_reproduces_input() {
        let input = Tensor::from_fn(3, 5, 5, |c, h, w| (c * 25 + h * 5 + w) as f32);
        let conv = Conv2d::identity_like(3, 3, ConvGeom::same(3)).unwrap();
        let out = conv.forward(&input).unwrap();
        assert!(out.approx_eq(&input, 1e-6).unwrap());
    }

    #[test]
    fn known_3x3_convolution() {
        // 1-channel 3x3 input of ones, 3x3 kernel of ones, padding 1:
        // corners see 4 taps, edges 6, centre 9.
        let input = Tensor::filled([1, 1, 3, 3], 1.0);
        let conv = Conv2d::new(Tensor::filled([1, 1, 3, 3], 1.0), vec![0.0], ConvGeom::same(3), 1)
            .unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 4.0);
        assert_eq!(out.at(0, 0, 0, 1), 6.0);
        assert_eq!(out.at(0, 0, 1, 1), 9.0);
    }

    #[test]
    fn bias_is_added_once_per_output() {
        let input = Tensor::zeros([1, 1, 4, 4]);
        let conv =
            Conv2d::new(Tensor::zeros([2, 1, 1, 1]), vec![1.5, -2.0], ConvGeom::new(1, 1, 0), 1)
                .unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 2, 2), 1.5);
        assert_eq!(out.at(0, 1, 2, 2), -2.0);
    }

    #[test]
    fn stride_2_halves_resolution() {
        let input = Tensor::filled([1, 1, 8, 8], 1.0);
        let conv =
            Conv2d::new(Tensor::filled([1, 1, 3, 3], 1.0), vec![0.0], ConvGeom::new(3, 2, 1), 1)
                .unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape().dims(), [1, 1, 4, 4]);
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        // Depthwise conv: channel 0 scaled by 2, channel 1 scaled by 3.
        let input = Tensor::from_fn(2, 2, 2, |c, _, _| (c + 1) as f32);
        let mut weight = Tensor::zeros([2, 1, 1, 1]);
        *weight.at_mut(0, 0, 0, 0) = 2.0;
        *weight.at_mut(1, 0, 0, 0) = 3.0;
        let conv = Conv2d::new(weight, vec![0.0; 2], ConvGeom::new(1, 1, 0), 2).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 2.0);
        assert_eq!(out.at(0, 1, 0, 0), 6.0);
    }

    #[test]
    fn pointwise_mixes_channels() {
        let input = Tensor::from_fn(2, 1, 1, |c, _, _| (c + 1) as f32); // [1, 2]
        let mut weight = Tensor::zeros([1, 2, 1, 1]);
        *weight.at_mut(0, 0, 0, 0) = 10.0;
        *weight.at_mut(0, 1, 0, 0) = 100.0;
        let conv = Conv2d::new(weight, vec![0.0], ConvGeom::new(1, 1, 0), 1).unwrap();
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.at(0, 0, 0, 0), 10.0 + 200.0);
    }

    #[test]
    fn macs_matches_hand_count() {
        // Figure 3 example: 8x8x3 input, 3x3x3 filter, same conv ->
        // 64 spatial positions x 27 taps x 1 output channel.
        let conv = Conv2d::zeros(3, 1, ConvGeom::same(3)).unwrap();
        assert_eq!(conv.macs(8, 8).unwrap(), 64 * 27);
    }

    #[test]
    fn channel_mismatch_is_an_error() {
        let conv = Conv2d::zeros(3, 4, ConvGeom::same(3)).unwrap();
        let input = Tensor::zeros([1, 2, 8, 8]);
        assert!(conv.forward(&input).is_err());
    }

    #[test]
    fn constructor_validations() {
        // Kernel mismatch between weight and geometry.
        assert!(
            Conv2d::new(Tensor::zeros([1, 1, 3, 3]), vec![0.0], ConvGeom::new(5, 1, 2), 1).is_err()
        );
        // Bias length mismatch.
        assert!(Conv2d::new(Tensor::zeros([2, 1, 3, 3]), vec![0.0], ConvGeom::same(3), 1).is_err());
        // Groups must divide channels.
        assert!(
            Conv2d::new(Tensor::zeros([3, 1, 3, 3]), vec![0.0; 3], ConvGeom::same(3), 2).is_err()
        );
    }
}
