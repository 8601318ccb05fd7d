//! The paper's Equation 2: converting a conventional convolution into a
//! block convolution by finding a blocking number `N` and block padding
//! `pt` that keep the output size unchanged.
//!
//! ```text
//! floor((I + 2p - k) / s) + 1 = N * (floor((I/N + 2pt - k) / s) + 1)
//! ```

use bconv_tensor::shape::conv_out_dim;
use bconv_tensor::TensorError;

/// A solution of Equation 2 for one spatial axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockPadding {
    /// Blocking number `N` (blocks along the axis).
    pub n: usize,
    /// Symmetric block padding `pt` applied to each block.
    pub pt: usize,
}

/// Solves Equation 2 for `pt` given the axis size `I`, kernel `k`, stride
/// `s`, original padding `p` and blocking number `n`.
///
/// Returns `None` if no symmetric `pt` satisfies the equation (the paper
/// notes block padding "can be asymmetric, especially when convolutional
/// stride is larger than 1" — asymmetric cases are handled by
/// [`solve_asymmetric`]).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] if the base geometry itself is
/// infeasible or `n` does not divide the axis.
///
/// # Examples
///
/// ```
/// use bconv_core::padding_solver::solve_symmetric;
/// // Paper §II-C example: I=8, k=3, s=1, p=1, N=2 -> pt=1
/// // (each 4-pixel block padded to 6 gives a 4-pixel output; 2*4 = 8).
/// assert_eq!(solve_symmetric(8, 3, 1, 1, 2)?, Some(1));
/// # Ok::<(), bconv_tensor::TensorError>(())
/// ```
pub fn solve_symmetric(
    i: usize,
    k: usize,
    s: usize,
    p: usize,
    n: usize,
) -> Result<Option<usize>, TensorError> {
    if n == 0 {
        return Err(TensorError::invalid("blocking number must be non-zero"));
    }
    if !i.is_multiple_of(n) {
        return Err(TensorError::invalid(format!("blocking number {n} must divide axis size {i}")));
    }
    let target = conv_out_dim(i, k, s, p)?;
    let block = i / n;
    // pt is bounded: beyond k + s the output only grows; search the small
    // feasible window exhaustively.
    for pt in 0..=(k + s) {
        if let Ok(out) = conv_out_dim(block, k, s, pt) {
            if n * out == target {
                return Ok(Some(pt));
            }
            if n * out > target {
                break;
            }
        }
    }
    Ok(None)
}

/// Asymmetric block padding `(lo, hi)` for one block of size `b` that must
/// produce exactly `out_b` outputs under kernel `k`, stride `s`.
///
/// Returns the padding with the smallest total `lo + hi`, preferring the
/// more balanced split (`lo <= hi`).
pub fn solve_asymmetric(b: usize, k: usize, s: usize, out_b: usize) -> Option<(usize, usize)> {
    // Need: floor((b + lo + hi - k) / s) + 1 == out_b with lo+hi minimal.
    // Smallest total padding t satisfying (b + t - k)/s + 1 >= out_b:
    let needed = (out_b - 1) * s + k;
    let total = needed.checked_sub(b)?;
    let lo = total / 2;
    let hi = total - lo;
    // Verify (guards against s not dividing evenly producing a larger out).
    let out = (b + total - k) / s + 1;
    (out == out_b).then_some((lo, hi))
}

/// Full per-axis blocking plan: for each block along the axis, the block
/// size, its (possibly asymmetric) padding and its output size. Produced by
/// [`plan_axis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisPlan {
    /// Per-block `(input_size, pad_lo, pad_hi, output_size)`.
    pub blocks: Vec<AxisBlockPlan>,
}

/// Geometry of one block along one axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxisBlockPlan {
    /// Block input extent.
    pub size: usize,
    /// Padding before the block.
    pub pad_lo: usize,
    /// Padding after the block.
    pub pad_hi: usize,
    /// Block output extent.
    pub out: usize,
}

/// Plans block padding along one axis for arbitrary (possibly unequal)
/// block segments, distributing the full output proportionally.
///
/// The full output `O = floor((I + 2p - k)/s) + 1` is split across blocks
/// proportionally to their input sizes (exactly when `s` divides every
/// segment), and each block receives the minimal padding that produces its
/// share. This generalises Equation 2 to the irregular/rectangular blocking
/// the paper uses in §II-F and Table VI.
///
/// A one-segment axis is the dense convolution at every stride: the block
/// keeps the layer's own padding `(p, p)` and its output size (a normal
/// convolution is block convolution with one block).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when the output cannot be
/// distributed (a segment not divisible by the stride) or a block cannot
/// reach its output share with non-negative padding.
pub fn plan_axis(
    segments: &[(usize, usize)],
    k: usize,
    s: usize,
    p: usize,
) -> Result<AxisPlan, TensorError> {
    if let [(_, size)] = *segments {
        let out = conv_out_dim(size, k, s, p)?;
        return Ok(AxisPlan { blocks: vec![AxisBlockPlan { size, pad_lo: p, pad_hi: p, out }] });
    }
    let i: usize = segments.iter().map(|&(_, size)| size).sum();
    let target = conv_out_dim(i, k, s, p)?;
    // Distribute the output over the blocks proportionally to input size.
    let mut outs = Vec::with_capacity(segments.len());
    if s == 1 {
        // Stride 1: every input pixel maps to one output pixel when the
        // total output equals the input (the "same" case); otherwise the
        // deficit/surplus is carried by the last block.
        let mut remaining = target;
        for (idx, &(_, size)) in segments.iter().enumerate() {
            let out = if idx + 1 == segments.len() { remaining } else { size.min(remaining) };
            outs.push(out);
            remaining -= out;
        }
        if outs.iter().sum::<usize>() != target {
            return Err(TensorError::invalid("cannot distribute outputs across blocks"));
        }
    } else {
        for &(start, size) in segments {
            if start % s != 0 || size % s != 0 {
                return Err(TensorError::invalid(format!(
                    "segment ({start},{size}) not divisible by stride {s}; \
                     use stride-1 + pooling as in the paper's baselines"
                )));
            }
            outs.push(size / s);
        }
        if outs.iter().sum::<usize>() != target {
            return Err(TensorError::invalid(format!(
                "strided blocking produces {} outputs, target {target}",
                outs.iter().sum::<usize>()
            )));
        }
    }
    let blocks = segments
        .iter()
        .zip(&outs)
        .map(|(&(_, size), &out)| {
            solve_asymmetric(size, k, s, out)
                .map(|(pad_lo, pad_hi)| AxisBlockPlan { size, pad_lo, pad_hi, out })
                .ok_or_else(|| {
                    TensorError::invalid(format!(
                        "no block padding lets a {size}-pixel block produce {out} outputs \
                         (k={k}, s={s})"
                    ))
                })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(AxisPlan { blocks })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_8x8_two_blocks() {
        // §II-C: 8-wide axis, k=3, s=1, p=1, N=2 -> each 4-block padded by 1.
        assert_eq!(solve_symmetric(8, 3, 1, 1, 2).unwrap(), Some(1));
    }

    #[test]
    fn pointwise_needs_no_padding() {
        // k=1: block convolution is exactly pointwise convolution (§II-C).
        assert_eq!(solve_symmetric(8, 1, 1, 0, 4).unwrap(), Some(0));
    }

    #[test]
    fn five_by_five_kernel() {
        // k=5, p=2 same conv: blocks need pt=2.
        assert_eq!(solve_symmetric(16, 5, 1, 2, 2).unwrap(), Some(2));
    }

    #[test]
    fn strided_symmetric_case() {
        // I=8, k=2, s=2, p=0 -> out 4; N=2 -> each 4-block must give 2: pt=0.
        assert_eq!(solve_symmetric(8, 2, 2, 0, 2).unwrap(), Some(0));
    }

    #[test]
    fn strided_case_floor_division_admits_symmetric_solution() {
        // I=8, k=3, s=2, p=1 -> out 4; N=2 -> each block of 4 must give 2:
        // floor((4 + 2*1 - 3)/2) + 1 = 2, so pt = 1 works (the extra padded
        // pixel is simply never the start of a stride-2 window).
        assert_eq!(solve_symmetric(8, 3, 2, 1, 2).unwrap(), Some(1));
        // The asymmetric solver finds the minimal-total variant (0,1).
        assert_eq!(solve_asymmetric(4, 3, 2, 2), Some((0, 1)));
    }

    #[test]
    fn genuinely_unsolvable_symmetric_case() {
        // I=6, k=2, s=2, p=1 -> out = (6+2-2)/2+1 = 4; N=3 -> each block of
        // 2 must give 4/3 outputs: impossible, no pt exists.
        assert_eq!(solve_symmetric(6, 2, 2, 1, 3).unwrap(), None);
    }

    #[test]
    fn invalid_blocking_numbers_rejected() {
        assert!(solve_symmetric(8, 3, 1, 1, 0).is_err());
        assert!(solve_symmetric(8, 3, 1, 1, 3).is_err());
    }

    #[test]
    fn plan_axis_same_conv_equal_blocks() {
        let plan = plan_axis(&[(0, 4), (4, 4)], 3, 1, 1).unwrap();
        assert_eq!(plan.blocks.len(), 2);
        for b in &plan.blocks {
            assert_eq!((b.pad_lo, b.pad_hi, b.out), (1, 1, 4));
        }
    }

    #[test]
    fn plan_axis_irregular_blocks() {
        // 41 = 28 + 13, same 3x3 conv: each block keeps its size.
        let plan = plan_axis(&[(0, 28), (28, 13)], 3, 1, 1).unwrap();
        assert_eq!(plan.blocks[0].out, 28);
        assert_eq!(plan.blocks[1].out, 13);
        let total: usize = plan.blocks.iter().map(|b| b.out).sum();
        assert_eq!(total, 41);
    }

    #[test]
    fn plan_axis_valid_conv_shrinking_output() {
        // I=8, k=3, s=1, p=0 -> out 6. Blocks 4+4 -> outputs 4+2.
        let plan = plan_axis(&[(0, 4), (4, 4)], 3, 1, 0).unwrap();
        let outs: Vec<usize> = plan.blocks.iter().map(|b| b.out).collect();
        assert_eq!(outs.iter().sum::<usize>(), 6);
        assert_eq!(outs[0], 4);
        assert_eq!(outs[1], 2);
    }

    #[test]
    fn plan_axis_rejects_misaligned_stride() {
        assert!(plan_axis(&[(0, 3), (3, 5)], 3, 2, 1).is_err());
    }

    #[test]
    fn asymmetric_prefers_minimal_balanced_padding() {
        // Block of 4, k=3, s=1, out 4 -> total pad 2, balanced (1,1).
        assert_eq!(solve_asymmetric(4, 3, 1, 4), Some((1, 1)));
        // Block of 4, k=3, s=1, out 3 -> total pad 1 -> (0,1).
        assert_eq!(solve_asymmetric(4, 3, 1, 3), Some((0, 1)));
        // Infeasible: block already longer than needed.
        assert_eq!(solve_asymmetric(10, 3, 1, 2), None);
    }
}
