//! Analytical properties of block convolution: operation-count parity
//! (Figure 3), boundary perturbation, receptive-field growth under the two
//! blocking patterns, and blocking-ratio accounting (Table I's last column).

use bconv_tensor::conv::Conv2d;
use bconv_tensor::pad::PadMode;
use bconv_tensor::{Tensor, TensorError};

use crate::block_conv::BlockConv2d;
use crate::blocking::{BlockGrid, BlockingPattern};

/// Number of spatial kernel applications (the paper's Figure 3 count): one
/// per output position per input channel.
///
/// For the conventional convolution on an `h × w` "same" layer this is
/// `h * w * c_in`; for block convolution it is the sum over blocks — equal
/// by construction.
pub fn spatial_kernel_ops(out_h: usize, out_w: usize, c_in: usize) -> usize {
    out_h * out_w * c_in
}

/// Figure 3's parity check for a planned block convolution: total per-block
/// spatial kernel applications, which must equal the conventional count.
pub fn block_spatial_kernel_ops(bconv: &BlockConv2d) -> Result<usize, TensorError> {
    let c_in = bconv.conv().c_in();
    let og = bconv.output_grid()?;
    Ok(og.blocks().map(|b| b.area() * c_in).sum())
}

/// Pixel-level comparison between conventional and block convolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryError {
    /// Maximum absolute difference over all pixels.
    pub max_abs: f32,
    /// Mean absolute difference over all pixels.
    pub mean_abs: f32,
    /// Fraction of pixels that differ by more than `1e-5`.
    pub frac_perturbed: f32,
    /// Maximum absolute difference over *interior* pixels — pixels whose
    /// receptive field does not cross a block boundary. Must be ~0.
    pub interior_max_abs: f32,
}

/// Compares block convolution against the conventional convolution on a
/// given input, separating boundary pixels from interior pixels.
///
/// The paper's correctness claim is exactly this: only pixels whose
/// receptive field crosses a block boundary are perturbed.
///
/// # Errors
///
/// Propagates shape errors from the two convolutions.
pub fn boundary_error(
    conv: &Conv2d,
    grid: &BlockGrid,
    pad_mode: PadMode,
    input: &Tensor,
) -> Result<BoundaryError, TensorError> {
    let dense = conv.forward(input)?;
    let bconv = BlockConv2d::plan(conv.clone(), grid.clone(), pad_mode)?;
    let blocked = bconv.forward(input)?;
    let out_grid = bconv.output_grid()?;

    let [n, c, oh, ow] = dense.shape().dims();
    let halo = conv.geom().kernel / 2;
    let mut max_abs: f32 = 0.0;
    let mut sum_abs: f64 = 0.0;
    let mut perturbed = 0usize;
    let mut interior_max: f32 = 0.0;

    // Interior mask per output pixel: inside some block, at distance >= halo
    // from every block edge that is not also a map edge.
    let interior = |pos: usize, len: usize, segs: &[(usize, usize)]| -> bool {
        for &(start, size) in segs {
            if pos >= start && pos < start + size {
                let lo_ok = start == 0 || pos >= start + halo;
                let hi_ok = start + size == len || pos + halo < start + size;
                return lo_ok && hi_ok;
            }
        }
        false
    };

    for ni in 0..n {
        for ci in 0..c {
            for h in 0..oh {
                let h_int = interior(h, oh, out_grid.row_segments());
                for w in 0..ow {
                    let d = (dense.at(ni, ci, h, w) - blocked.at(ni, ci, h, w)).abs();
                    max_abs = max_abs.max(d);
                    sum_abs += d as f64;
                    if d > 1e-5 {
                        perturbed += 1;
                    }
                    if h_int && interior(w, ow, out_grid.col_segments()) {
                        interior_max = interior_max.max(d);
                    }
                }
            }
        }
    }
    let total = (n * c * oh * ow) as f32;
    Ok(BoundaryError {
        max_abs,
        mean_abs: (sum_abs / total as f64) as f32,
        frac_perturbed: perturbed as f32 / total,
        interior_max_abs: interior_max,
    })
}

/// Receptive-field size (one axis) of an output block after `depth` stacked
/// 3×3 stride-1 blocked layers under a pattern.
///
/// Under **hierarchical** blocking the receptive field of a block never
/// grows past the block itself; under **fixed** blocking, pooling merges
/// blocks so the receptive field keeps growing — the mechanism the paper
/// credits for fixed blocking's higher accuracy (§II-F conclusion 2).
pub fn receptive_field(pattern: BlockingPattern, map: usize, depth: usize) -> usize {
    match pattern {
        BlockingPattern::Hierarchical { gh, .. } => {
            // Blocks stay independent: RF saturates at the block size.
            map / gh
        }
        BlockingPattern::Fixed { th, .. } => {
            // Each pooling (every `depth` proxy step) merges 2x2 blocks.
            // RF in input pixels doubles per merge until it covers the map.
            let mut rf = th;
            for _ in 0..depth {
                rf = (rf * 2).min(map);
            }
            rf
        }
    }
}

/// A conv layer's spatial facts needed for blocking-ratio accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvLayerSpatial {
    /// Spatial height at which the convolution computes (after the paper's
    /// stride-to-pooling rewrite, compute resolution = input resolution).
    pub h: usize,
    /// Spatial width at which the convolution computes.
    pub w: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::NetworkPlan;
    use bconv_tensor::conv::ConvGeom;
    use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};

    #[test]
    fn figure3_parity_192_ops() {
        // 8x8x3 input, 3x3x3 filter: 8*8*3 = 192 conventional ops;
        // (4*4*3)*4 = 192 blocked ops.
        assert_eq!(spatial_kernel_ops(8, 8, 3), 192);
        let conv = Conv2d::zeros(3, 1, ConvGeom::same(3)).unwrap();
        let bconv =
            BlockConv2d::from_pattern(conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)
                .unwrap();
        assert_eq!(block_spatial_kernel_ops(&bconv).unwrap(), 192);
    }

    #[test]
    fn interior_is_exact_boundary_is_not() {
        let mut rng = seeded_rng(1);
        let conv = he_conv2d(2, 2, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut rng);
        let grid = BlockGrid::from_pattern(16, 16, BlockingPattern::hierarchical(2)).unwrap();
        let err = boundary_error(&conv, &grid, PadMode::Zero, &input).unwrap();
        assert!(err.interior_max_abs < 1e-5, "interior must match exactly");
        assert!(err.max_abs > 1e-3, "boundary must be perturbed");
        assert!(err.frac_perturbed > 0.0 && err.frac_perturbed < 0.5);
    }

    #[test]
    fn single_block_has_zero_error() {
        let mut rng = seeded_rng(2);
        let conv = he_conv2d(1, 1, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut rng);
        let err = boundary_error(&conv, &BlockGrid::single(8, 8), PadMode::Zero, &input).unwrap();
        assert!(err.max_abs < 1e-5);
        assert_eq!(err.frac_perturbed, 0.0);
    }

    #[test]
    fn finer_blocking_perturbs_more_pixels() {
        let mut rng = seeded_rng(3);
        let conv = he_conv2d(1, 1, ConvGeom::same(3), 1, &mut rng).unwrap();
        let input = uniform_tensor([1, 1, 32, 32], -1.0, 1.0, &mut rng);
        let coarse = BlockGrid::from_pattern(32, 32, BlockingPattern::hierarchical(2)).unwrap();
        let fine = BlockGrid::from_pattern(32, 32, BlockingPattern::hierarchical(8)).unwrap();
        let e_coarse = boundary_error(&conv, &coarse, PadMode::Zero, &input).unwrap();
        let e_fine = boundary_error(&conv, &fine, PadMode::Zero, &input).unwrap();
        assert!(e_fine.frac_perturbed > e_coarse.frac_perturbed);
    }

    #[test]
    fn receptive_field_grows_only_under_fixed_blocking() {
        let map = 224;
        let fixed = BlockingPattern::fixed(28);
        let hier = BlockingPattern::hierarchical(8);
        // Same initial granularity (28-pixel blocks).
        assert_eq!(receptive_field(hier, map, 0), 28);
        assert_eq!(receptive_field(fixed, map, 0), 28);
        // After repeated pooling+merge, fixed blocking sees the whole map.
        assert_eq!(receptive_field(fixed, map, 3), 224);
        assert_eq!(receptive_field(hier, map, 3), 28);
    }

    #[test]
    fn blocking_ratio_matches_vgg16_table1() {
        // VGG-16 conv compute resolutions: 224x2, 112x2, 56x3, 28x3, 14x3.
        let layers: Vec<ConvLayerSpatial> =
            [224, 224, 112, 112, 56, 56, 56, 28, 28, 28, 14, 14, 14]
                .into_iter()
                .map(|r| ConvLayerSpatial { h: r, w: r })
                .collect();
        let ratio =
            NetworkPlan::by_resolution(&layers, BlockingPattern::fixed(28)).blocking_ratio();
        assert!((ratio - 10.0 / 13.0).abs() < 1e-9);
        // Paper reports 76.92%.
        assert!((ratio * 100.0 - 76.92).abs() < 0.01);
    }

    #[test]
    fn blocking_ratio_empty_is_zero() {
        let plan = NetworkPlan::by_resolution(&[], BlockingPattern::fixed(28));
        assert_eq!(plan.blocking_ratio(), 0.0);
    }
}
