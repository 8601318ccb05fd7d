//! Feature-map volume analysis — the data behind Figures 1 and 9 and the
//! blocking-ratio column of Table I.

use bconv_core::analysis::ConvLayerSpatial;
use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_tensor::TensorError;

use crate::layer::Network;

/// One point of a Figure 1 / Figure 9 series.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMapPoint {
    /// Layer name.
    pub name: String,
    /// Output feature-map volume in megabits at the chosen bitwidth.
    pub mbits: f64,
    /// True for the first conv of a residual block (Figure 9's marking).
    pub residual_first: bool,
}

/// Per-layer output feature-map volumes for conv layers (the series plotted
/// in Figures 1 and 9), at `bitwidth`-bit activations.
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn feature_map_series(
    net: &Network,
    bitwidth: usize,
) -> Result<Vec<FeatureMapPoint>, TensorError> {
    Ok(net
        .trace()?
        .iter()
        .filter(|l| l.is_conv)
        .map(|l| FeatureMapPoint {
            name: l.name.clone(),
            mbits: l.out_shape.mbits(bitwidth),
            residual_first: l.residual_first,
        })
        .collect())
}

/// Peak single-layer output volume in megabits (what must fit on-chip to
/// hold one whole feature map).
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn peak_feature_map_mbits(net: &Network, bitwidth: usize) -> Result<f64, TensorError> {
    Ok(feature_map_series(net, bitwidth)?.iter().map(|p| p.mbits).fold(0.0, f64::max))
}

/// Total volume of all conv-layer outputs in megabits — the "volume of
/// intermediate feature maps" bars of Figure 1.
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn total_feature_map_mbits(net: &Network, bitwidth: usize) -> Result<f64, TensorError> {
    Ok(feature_map_series(net, bitwidth)?.iter().map(|p| p.mbits).sum())
}

/// Spatial compute resolutions of all conv layers, the input to blocking
/// ratio accounting ([`NetworkPlan::by_resolution`]).
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn conv_spatial(net: &Network) -> Result<Vec<ConvLayerSpatial>, TensorError> {
    Ok(net
        .trace()?
        .iter()
        .filter(|l| l.is_conv)
        .map(|l| ConvLayerSpatial { h: l.in_shape.h, w: l.in_shape.w })
        .collect())
}

/// Blocking plan for a network under the paper's resolution rule.
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn plan_for(net: &Network, pattern: BlockingPattern) -> Result<NetworkPlan, TensorError> {
    Ok(NetworkPlan::by_resolution(&conv_spatial(net)?, pattern))
}

/// Index of the earliest conv layer after which every subsequent layer's
/// whole output fits within `budget_mbits` — the paper's §III-A fusion
/// depth rule ("fuse multiple layers until a layer's entire output feature
/// maps can be accommodated on-chip").
///
/// Returns `None` when no prefix fusion ever brings the tail under budget.
///
/// # Errors
///
/// Propagates [`Network::trace`] errors.
pub fn fusion_depth(
    net: &Network,
    bitwidth: usize,
    budget_mbits: f64,
) -> Result<Option<usize>, TensorError> {
    let series = feature_map_series(net, bitwidth)?;
    for (idx, _) in series.iter().enumerate() {
        if series[idx..].iter().all(|p| p.mbits <= budget_mbits) {
            return Ok(Some(idx));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobilenet::mobilenet_v1;
    use crate::vdsr::vdsr;
    use crate::vgg::vgg16;

    #[test]
    fn vgg_volume_decreases_with_depth() {
        // Figure 1 / §II-A: VGG-16's intermediate volume shrinks as the
        // network deepens.
        let series = feature_map_series(&vgg16(224), 16).unwrap();
        assert!(series.first().unwrap().mbits > 50.0);
        assert!(series.last().unwrap().mbits < 2.0);
    }

    #[test]
    fn vdsr_volume_is_constant_and_huge() {
        // Figure 1: VDSR keeps full resolution everywhere; every 64-channel
        // layer at 256x256 @16-bit is 67.1 Mbits.
        let series = feature_map_series(&vdsr(256, 256), 16).unwrap();
        for p in &series[..series.len() - 1] {
            assert!((p.mbits - 67.108864).abs() < 1e-6, "{}: {}", p.name, p.mbits);
        }
    }

    #[test]
    fn neither_model_fits_zc706_bram() {
        // Figure 1's point: ZC706 has 19.62 Mbits of BRAM; single layers
        // exceed it for both models.
        let zc706_mbits = 1090.0 * 18.0 * 1024.0 / 1e6;
        assert!(peak_feature_map_mbits(&vgg16(224), 16).unwrap() > zc706_mbits);
        assert!(peak_feature_map_mbits(&vdsr(256, 256), 16).unwrap() > zc706_mbits);
    }

    #[test]
    fn fusion_depth_finds_mobilenet_cutover() {
        // §III-A: with the ZU3EG's 7.6 Mb budget, fusing the first four
        // layers of MobileNet-V1 lets conv2_1's output stay on-chip.
        let net = mobilenet_v1(224, false);
        let depth = fusion_depth(&net, 16, 7.6).unwrap().unwrap();
        let series = feature_map_series(&net, 16).unwrap();
        // Everything from the fusion point on fits.
        assert!(series[depth..].iter().all(|p| p.mbits <= 7.6));
        // Something before it did not.
        assert!(series[..depth].iter().any(|p| p.mbits > 7.6));
        // The cut happens within the first few layers.
        assert!(depth <= 5, "depth {depth}");
    }

    #[test]
    fn vgg_blocking_ratio_under_f28() {
        let plan = plan_for(&vgg16(224), BlockingPattern::fixed(28)).unwrap();
        assert!((plan.blocking_ratio() * 100.0 - 76.92).abs() < 0.01);
    }

    #[test]
    fn fusion_depth_none_when_budget_tiny() {
        let net = vdsr(256, 256);
        // VDSR's tail never fits a 1-Mbit budget (last conv output is 1 map
        // but the 19th layer's output is 67 Mbits; prefix must cover all).
        assert_eq!(fusion_depth(&net, 16, 1.0).unwrap(), None);
    }
}
