//! Element-wise activation functions.

use crate::Tensor;

/// Rectified linear unit, `max(0, x)`.
///
/// # Examples
///
/// ```
/// use bconv_tensor::{Tensor, activation::relu};
/// let t = Tensor::from_fn(1, 1, 2, |_, _, w| if w == 0 { -1.0 } else { 2.0 });
/// let r = relu(&t);
/// assert_eq!(r.data(), &[0.0, 2.0]);
/// ```
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|v| v.max(0.0))
}

/// In-place ReLU, avoiding an allocation on hot paths.
pub fn relu_inplace(input: &mut Tensor) {
    for v in input.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives_only() {
        let t = Tensor::from_fn(1, 1, 3, |_, _, w| w as f32 - 1.0);
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_inplace_matches_relu() {
        let t = Tensor::from_fn(1, 2, 2, |c, h, w| (c + h + w) as f32 - 1.5);
        let mut inplace = t.clone();
        relu_inplace(&mut inplace);
        assert_eq!(inplace, relu(&t));
    }
}
