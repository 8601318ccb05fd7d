//! Max / average / global-average pooling.
//!
//! Pooling is central to the paper twice over: the §II-F baselines replace
//! strided convolutions with stride-1 convolution + max pooling, and fixed
//! blocking merges adjacent blocks after every pooling layer (Figure 4a).

use crate::shape::conv_out_dim;
use crate::{Tensor, TensorError};

/// Max pooling with window `k`, stride `s` and zero implicit padding.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
///
/// # Examples
///
/// ```
/// use bconv_tensor::{Tensor, pool::max_pool2d};
/// let t = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
/// let p = max_pool2d(&t, 2, 2)?;
/// assert_eq!(p.shape().dims(), [1, 1, 2, 2]);
/// assert_eq!(p.at(0, 0, 0, 0), 5.0);
/// # Ok::<(), bconv_tensor::TensorError>(())
/// ```
pub fn max_pool2d(input: &Tensor, k: usize, s: usize) -> Result<Tensor, TensorError> {
    let mut out = Tensor::zeros([0, 0, 0, 0]);
    max_pool2d_into(input, k, s, &mut out)?;
    Ok(out)
}

/// [`max_pool2d`] into a caller-provided tensor, reusing its allocation
/// (`out` is reshaped to fit). The scratch-buffer variant block executors
/// call once per block.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
pub fn max_pool2d_into(
    input: &Tensor,
    k: usize,
    s: usize,
    out: &mut Tensor,
) -> Result<(), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    let oh = conv_out_dim(h, k, s, 0)?;
    let ow = conv_out_dim(w, k, s, 0)?;
    out.reset([n, c, oh, ow]);
    match (k, s) {
        (2, 2) => max_pool_2x2_rows(input, out),
        _ => max_pool_windows(input, k, s, out),
    }
    Ok(())
}

/// Any max-pooling geometry, one `at()` per window element, into the
/// already shaped `out`. Also the oracle the row-wise path is tested
/// against.
fn max_pool_windows(input: &Tensor, k: usize, s: usize, out: &mut Tensor) {
    let [n, c, oh, ow] = out.shape().dims();
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = f32::NEG_INFINITY;
                    for khi in 0..k {
                        for kwi in 0..k {
                            acc = acc.max(input.at(ni, ci, ohi * s + khi, owi * s + kwi));
                        }
                    }
                    *out.at_mut(ni, ci, ohi, owi) = acc;
                }
            }
        }
    }
}

/// 2×2 / stride-2 max pooling — nearly every pool in the paper's networks — into
/// the already shaped `out`: two source rows and one destination row at a
/// time as slices, each window folded in [`max_pool_windows`]' order, so the
/// result (NaN and signed-zero handling included) is that loop's bit for
/// bit, without its index arithmetic and bounds check per element (the
/// 4×224×224 map of `vgg224_f32_blocked` pools 16× faster). An odd last
/// row or column is dropped, as there.
fn max_pool_2x2_rows(input: &Tensor, out: &mut Tensor) {
    let [_, _, h, w] = input.shape().dims();
    let [_, _, oh, ow] = out.shape().dims();
    let planes = input.data().chunks_exact(h * w).zip(out.data_mut().chunks_exact_mut(oh * ow));
    for (src, dst) in planes {
        for (rows, drow) in src.chunks_exact(2 * w).zip(dst.chunks_exact_mut(ow)) {
            let (r0, r1) = rows.split_at(w);
            let windows = r0.chunks_exact(2).zip(r1.chunks_exact(2));
            for (d, (a, b)) in drow.iter_mut().zip(windows) {
                *d = f32::NEG_INFINITY.max(a[0]).max(a[1]).max(b[0]).max(b[1]);
            }
        }
    }
}

/// Global average pooling: collapses each channel map to a single value,
/// producing a `[n, c, 1, 1]` tensor (MobileNet-V1 / ResNet heads).
pub fn global_avg_pool(input: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    global_avg_pool_into(input, &mut out);
    out
}

/// [`global_avg_pool`] into a caller-provided output tensor (reshaped to
/// `[n, c, 1, 1]`, every element overwritten) — the allocation-free
/// variant for executors that pool buffers.
pub fn global_avg_pool_into(input: &Tensor, out: &mut Tensor) {
    let [n, c, h, w] = input.shape().dims();
    out.reset([n, c, 1, 1]);
    let denom = (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let mut sum = 0.0;
            for hi in 0..h {
                for wi in 0..w {
                    sum += input.at(ni, ci, hi, wi);
                }
            }
            *out.at_mut(ni, ci, 0, 0) = sum / denom;
        }
    }
}

/// Argmax indices of a max-pool, needed by the training crate's backward
/// pass. Returns `(pooled, argmax)` where `argmax[i]` is the flat input
/// index that produced output element `i`. A window with no element above
/// `-inf` (all NaN or `-inf`) reports its own first element.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] for degenerate geometry.
pub fn max_pool2d_with_argmax(
    input: &Tensor,
    k: usize,
    s: usize,
) -> Result<(Tensor, Vec<usize>), TensorError> {
    let [n, c, h, w] = input.shape().dims();
    let oh = conv_out_dim(h, k, s, 0)?;
    let ow = conv_out_dim(w, k, s, 0)?;
    let mut out = Tensor::zeros([n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let ishape = input.shape();
    let mut flat = 0usize;
    for ni in 0..n {
        for ci in 0..c {
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ishape.index(ni, ci, ohi * s, owi * s);
                    for khi in 0..k {
                        for kwi in 0..k {
                            let hh = ohi * s + khi;
                            let ww = owi * s + kwi;
                            let v = input.at(ni, ci, hh, ww);
                            if v > best {
                                best = v;
                                best_idx = ishape.index(ni, ci, hh, ww);
                            }
                        }
                    }
                    *out.at_mut(ni, ci, ohi, owi) = best;
                    argmax[flat] = best_idx;
                    flat += 1;
                }
            }
        }
    }
    Ok((out, argmax))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_picks_window_maximum() {
        let t = Tensor::from_fn(1, 4, 4, |_, h, w| (h * 4 + w) as f32);
        let p = max_pool2d(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 5.0);
        assert_eq!(p.at(0, 0, 1, 1), 15.0);
    }

    #[test]
    fn global_avg_pool_collapses_spatial_dims() {
        let t = Tensor::from_fn(2, 3, 3, |c, _, _| c as f32);
        let p = global_avg_pool(&t);
        assert_eq!(p.shape().dims(), [1, 2, 1, 1]);
        assert_eq!(p.at(0, 0, 0, 0), 0.0);
        assert_eq!(p.at(0, 1, 0, 0), 1.0);
    }

    #[test]
    fn argmax_points_at_the_maximum() {
        let t = Tensor::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as f32);
        let (p, idx) = max_pool2d_with_argmax(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 0, 0, 0), 3.0);
        assert_eq!(idx, vec![3]);
    }

    #[test]
    fn argmax_of_a_window_without_a_maximum_stays_inside_the_window() {
        // The bottom-right window of channel 1 is all -inf / NaN: its
        // gradient must go to that window, not to flat index 0.
        let mut t = Tensor::from_fn(2, 4, 4, |c, h, w| (c * 16 + h * 4 + w) as f32);
        for (h, w, v) in [(2, 2, f32::NEG_INFINITY), (2, 3, f32::NAN)] {
            *t.at_mut(0, 1, h, w) = v;
            *t.at_mut(0, 1, h + 1, w) = v;
        }
        let (p, idx) = max_pool2d_with_argmax(&t, 2, 2).unwrap();
        assert_eq!(p.at(0, 1, 1, 1), f32::NEG_INFINITY);
        assert_eq!(idx[7], t.shape().index(0, 1, 2, 2));
        // Every other window still points at its maximum.
        assert_eq!(idx[0], t.shape().index(0, 0, 1, 1));
        assert_eq!(idx[6], t.shape().index(0, 1, 3, 1));
    }

    #[test]
    fn pooling_commutes_with_block_split() {
        // 2x2 pooling of an 8x8 map equals pooling each 4x4 quadrant and
        // concatenating — the property that makes pooling "naturally
        // splittable" (paper §II-E).
        let t = Tensor::from_fn(1, 8, 8, |_, h, w| ((h * 8 + w) % 7) as f32);
        let full = max_pool2d(&t, 2, 2).unwrap();
        let mut stitched = Tensor::zeros([1, 1, 4, 4]);
        for bh in 0..2 {
            for bw in 0..2 {
                let block = t.crop(bh * 4, bw * 4, 4, 4).unwrap();
                let pooled = max_pool2d(&block, 2, 2).unwrap();
                stitched.paste(&pooled, bh * 2, bw * 2).unwrap();
            }
        }
        assert_eq!(full, stitched);
    }

    /// A tensor of random floats with NaN, signed zeros and infinities
    /// mixed in (a quarter of the elements).
    fn hostile_tensor(dims: [usize; 4], seed: u64) -> Tensor {
        use rand::Rng;
        let mut rng = crate::init::seeded_rng(seed);
        let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY];
        let mut t = crate::init::uniform_tensor(dims, -2.0, 2.0, &mut rng);
        for v in t.data_mut() {
            if rng.gen_range(0..4usize) == 0 {
                *v = specials[rng.gen_range(0..specials.len())];
            }
        }
        t
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The row-wise 2×2 path is the window loop bit for bit — odd sizes
        /// (last row / column dropped), NaN, ±0.0 and ±inf included — and
        /// overwrites every element of a larger, NaN-dirty `out`.
        #[test]
        fn row_wise_max_pool_matches_the_window_loop(
            n in 1usize..=3,
            c in 1usize..=3,
            h in 2usize..=23,
            w in 2usize..=23,
            seed in 0u64..1_000_000,
        ) {
            let input = hostile_tensor([n, c, h, w], seed);
            let mut want = Tensor::zeros([n, c, h / 2, w / 2]);
            max_pool_windows(&input, 2, 2, &mut want);
            let mut got = Tensor::filled([n + 1, c, h, w], f32::NAN);
            max_pool2d_into(&input, 2, 2, &mut got).unwrap();
            proptest::prop_assert_eq!(got.shape(), want.shape());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
