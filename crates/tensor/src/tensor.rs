//! The dense NCHW [`Tensor`] type and its spatial crop/paste primitives.
//!
//! Block convolution (paper §II-C) is a *split–pad–conv–concat* mechanism;
//! [`Tensor::crop`] and [`Tensor::paste`] are the split and concat halves.

use std::fmt;

use crate::{Shape, TensorError};

/// A dense, owned, `f32`, 4-D tensor in NCHW layout.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use bconv_tensor::Tensor;
    /// let t = Tensor::zeros([1, 3, 8, 8]);
    /// assert_eq!(t.data().iter().sum::<f32>(), 0.0);
    /// ```
    pub fn zeros(dims: impl Into<Shape>) -> Self {
        let shape = dims.into();
        Self { data: vec![0.0; shape.numel()], shape }
    }

    /// Creates a tensor with every element set to `value`.
    pub fn filled(dims: impl Into<Shape>, value: f32) -> Self {
        let shape = dims.into();
        Self { data: vec![value; shape.numel()], shape }
    }

    /// Creates a tensor from a flat row-major NCHW vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` differs from
    /// the number of elements implied by `dims`.
    pub fn from_vec(dims: impl Into<Shape>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = dims.into();
        if data.len() != shape.numel() {
            return Err(TensorError::shape_mismatch(
                "Tensor::from_vec",
                format!("{} elements", shape.numel()),
                format!("{} elements", data.len()),
            ));
        }
        Ok(Self { shape, data })
    }

    /// Creates a single-batch tensor whose element at `(0, c, h, w)` is
    /// `f(c, h, w)`. Handy for constructing test fixtures.
    pub fn from_fn(
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut t = Self::zeros([1, c, h, w]);
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    *t.at_mut(0, ci, hi, wi) = f(ci, hi, wi);
                }
            }
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Borrow of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable borrow of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the tensor in place, reusing its allocation. Element
    /// values after a reset are unspecified — this is a scratch-buffer
    /// primitive for writers that overwrite every element (conv kernels,
    /// pad, crop, pool).
    pub fn reset(&mut self, dims: impl Into<Shape>) {
        self.shape = dims.into();
        self.data.resize(self.shape.numel(), 0.0);
    }

    /// Element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline(always)]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.index(n, c, h, w)]
    }

    /// Mutable reference to the element at `(n, c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    #[inline(always)]
    pub fn at_mut(&mut self, n: usize, c: usize, h: usize, w: usize) -> &mut f32 {
        let idx = self.shape.index(n, c, h, w);
        &mut self.data[idx]
    }

    /// Extracts the spatial region `[h0, h0+bh) x [w0, w0+bw)` across all
    /// batches and channels — the *split* half of block convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the region does not fit.
    ///
    /// # Examples
    ///
    /// ```
    /// use bconv_tensor::Tensor;
    /// let t = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
    /// let block = t.crop(2, 2, 2, 2)?;
    /// assert_eq!(block.at(0, 0, 0, 0), 10.0);
    /// # Ok::<(), bconv_tensor::TensorError>(())
    /// ```
    pub fn crop(&self, h0: usize, w0: usize, bh: usize, bw: usize) -> Result<Self, TensorError> {
        let mut out = Self::zeros([0, 0, 0, 0]);
        self.crop_into(h0, w0, bh, bw, &mut out)?;
        Ok(out)
    }

    /// [`crop`](Self::crop) into a caller-provided tensor, reusing its
    /// allocation (`out` is reshaped to fit).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if the region does not fit.
    pub fn crop_into(
        &self,
        h0: usize,
        w0: usize,
        bh: usize,
        bw: usize,
        out: &mut Self,
    ) -> Result<(), TensorError> {
        let [n, c, h, w] = self.shape.dims();
        if h0 + bh > h || w0 + bw > w {
            return Err(TensorError::out_of_bounds(format!(
                "crop [{h0}..{},{w0}..{}) from {}",
                h0 + bh,
                w0 + bw,
                self.shape
            )));
        }
        out.reset([n, c, bh, bw]);
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..bh {
                    let src = self.shape.index(ni, ci, h0 + hi, w0);
                    let dst = out.shape.index(ni, ci, hi, 0);
                    out.data[dst..dst + bw].copy_from_slice(&self.data[src..src + bw]);
                }
            }
        }
        Ok(())
    }

    /// Writes `block` into the spatial region starting at `(h0, w0)` — the
    /// *concat* half of block convolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if batch/channel counts differ
    /// and [`TensorError::OutOfBounds`] if the region does not fit.
    pub fn paste(&mut self, block: &Tensor, h0: usize, w0: usize) -> Result<(), TensorError> {
        let [n, c, h, w] = self.shape.dims();
        let [bn, bc, bh, bw] = block.shape.dims();
        if bn != n || bc != c {
            return Err(TensorError::shape_mismatch(
                "Tensor::paste batch/channels",
                format!("n={n}, c={c}"),
                format!("n={bn}, c={bc}"),
            ));
        }
        if h0 + bh > h || w0 + bw > w {
            return Err(TensorError::out_of_bounds(format!(
                "paste {} at ({h0},{w0}) into {}",
                block.shape, self.shape
            )));
        }
        for ni in 0..n {
            for ci in 0..c {
                for hi in 0..bh {
                    let dst = self.shape.index(ni, ci, h0 + hi, w0);
                    let src = block.shape.index(ni, ci, hi, 0);
                    self.data[dst..dst + bw].copy_from_slice(&block.data[src..src + bw]);
                }
            }
        }
        Ok(())
    }

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self { shape: self.shape, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Extracts batch `n` as a single-batch tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] if `n` is out of range.
    pub fn batch(&self, n: usize) -> Result<Self, TensorError> {
        let [bn, c, h, w] = self.shape.dims();
        if n >= bn {
            return Err(TensorError::out_of_bounds(format!("batch {n} of {}", self.shape)));
        }
        let per = c * h * w;
        Ok(Self {
            shape: Shape::new([1, c, h, w]),
            data: self.data[n * per..(n + 1) * per].to_vec(),
        })
    }

    /// Maximum absolute difference against `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32, TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::shape_mismatch(
                "Tensor::max_abs_diff",
                self.shape.to_string(),
                other.shape.to_string(),
            ));
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max))
    }

    /// Returns true if every element is within `tol` of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> Result<bool, TensorError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }
}

impl Default for Tensor {
    /// An empty (zero-element) tensor — the natural seed for scratch
    /// buffers that are [`reset`](Tensor::reset) before first use.
    fn default() -> Self {
        Self::zeros([0, 0, 0, 0])
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}, {} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(h: usize, w: usize) -> Tensor {
        Tensor::from_fn(2, h, w, |c, hi, wi| (c * 100 + hi * w + wi) as f32)
    }

    #[test]
    fn crop_then_paste_roundtrips() {
        let t = ramp(6, 8);
        let block = t.crop(2, 3, 3, 4).unwrap();
        let mut out = Tensor::zeros(t.shape());
        out.paste(&block, 2, 3).unwrap();
        // Pasted region matches the original.
        for c in 0..2 {
            for h in 2..5 {
                for w in 3..7 {
                    assert_eq!(out.at(0, c, h, w), t.at(0, c, h, w));
                }
            }
        }
        // Outside the region stays zero.
        assert_eq!(out.at(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn four_quadrant_split_concat_is_identity() {
        // The split/concat mechanism of Figure 3: 2x2 blocking of an 8x8 map.
        let t = ramp(8, 8);
        let mut rebuilt = Tensor::zeros(t.shape());
        for bh in 0..2 {
            for bw in 0..2 {
                let block = t.crop(bh * 4, bw * 4, 4, 4).unwrap();
                rebuilt.paste(&block, bh * 4, bw * 4).unwrap();
            }
        }
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn crop_out_of_bounds_errors() {
        let t = ramp(4, 4);
        assert!(t.crop(2, 2, 3, 2).is_err());
        assert!(t.crop(0, 3, 1, 2).is_err());
    }

    #[test]
    fn paste_shape_mismatch_errors() {
        let mut t = Tensor::zeros([1, 2, 4, 4]);
        let block = Tensor::zeros([1, 3, 2, 2]);
        assert!(t.paste(&block, 0, 0).is_err());
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec([1, 1, 2, 2], vec![0.0; 3]).is_err());
        assert!(Tensor::from_vec([1, 1, 2, 2], vec![0.0; 4]).is_ok());
    }

    #[test]
    fn batch_extraction() {
        let mut t = Tensor::zeros([2, 1, 2, 2]);
        *t.at_mut(1, 0, 1, 1) = 7.0;
        let b1 = t.batch(1).unwrap();
        assert_eq!(b1.at(0, 0, 1, 1), 7.0);
        assert!(t.batch(2).is_err());
    }

    #[test]
    fn max_abs_diff_and_approx_eq() {
        let a = Tensor::filled([1, 1, 2, 2], 1.0);
        let mut b = a.clone();
        *b.at_mut(0, 0, 0, 1) = 1.5;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.approx_eq(&b, 0.5).unwrap());
        assert!(!a.approx_eq(&b, 0.4).unwrap());
    }
}
