//! Network-level blocking plans: which conv layers of a network are blocked
//! and how (Table I's "block everything ≥ 28×28" rule, and the VDSR
//! blocking-depth schedule of Table IV).

use crate::analysis::ConvLayerSpatial;
use crate::blocking::BlockingPattern;

/// Per-layer decision of a network blocking plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerBlocking {
    /// The layer runs as a conventional convolution (an information-fusion
    /// and off-chip-transfer point in the VDSR blocking-depth scheme).
    Normal,
    /// The layer runs as a block convolution under the given pattern.
    Blocked(BlockingPattern),
}

impl LayerBlocking {
    /// True when the layer is blocked.
    pub fn is_blocked(&self) -> bool {
        matches!(self, Self::Blocked(_))
    }
}

/// A blocking plan over the conv layers of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    per_layer: Vec<LayerBlocking>,
}

impl NetworkPlan {
    /// Plan that blocks every conv layer whose compute resolution is at
    /// least the pattern's block size (fixed) or is splittable (hierarchical
    /// — every layer). This is the paper's "block the convolutional layers
    /// as many as possible, including the input layer" rule specialised to
    /// `F(th×tw)` / `H(gh×gw)`.
    pub fn by_resolution(layers: &[ConvLayerSpatial], pattern: BlockingPattern) -> Self {
        let per_layer = layers
            .iter()
            .map(|l| {
                let splittable = match pattern {
                    BlockingPattern::Fixed { th, tw } => l.h >= th && l.w >= tw,
                    BlockingPattern::Hierarchical { gh, gw } => l.h >= gh && l.w >= gw,
                };
                if splittable {
                    LayerBlocking::Blocked(pattern)
                } else {
                    LayerBlocking::Normal
                }
            })
            .collect();
        Self { per_layer }
    }

    /// The VDSR blocking-depth plan (§II-F, Table IV): block every `depth`
    /// consecutive layers, then leave one layer normal so information fuses
    /// across blocks (and, on hardware, one off-chip transfer occurs).
    ///
    /// `depth == usize::MAX` blocks every layer (end-to-end fusion).
    pub fn by_blocking_depth(num_layers: usize, pattern: BlockingPattern, depth: usize) -> Self {
        let per_layer = (0..num_layers)
            .map(|i| {
                if depth == usize::MAX || (i + 1) % (depth + 1) != 0 {
                    LayerBlocking::Blocked(pattern)
                } else {
                    LayerBlocking::Normal
                }
            })
            .collect();
        Self { per_layer }
    }

    /// Plan with every layer normal (the unblocked baseline).
    pub fn unblocked(num_layers: usize) -> Self {
        Self { per_layer: vec![LayerBlocking::Normal; num_layers] }
    }

    /// Per-layer decisions.
    pub fn per_layer(&self) -> &[LayerBlocking] {
        &self.per_layer
    }

    /// Number of layers covered by the plan.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// True when the plan covers no layers.
    pub fn is_empty(&self) -> bool {
        self.per_layer.is_empty()
    }

    /// Fraction of layers that are blocked (Table I's "Blocking Ratio").
    pub fn blocking_ratio(&self) -> f64 {
        if self.per_layer.is_empty() {
            return 0.0;
        }
        self.per_layer.iter().filter(|l| l.is_blocked()).count() as f64
            / self.per_layer.len() as f64
    }

    /// Indices of normal (fusion-point) layers — where off-chip transfer
    /// happens in the VDSR blocking-depth scheme.
    pub fn fusion_points(&self) -> Vec<usize> {
        self.per_layer
            .iter()
            .enumerate()
            .filter_map(|(i, l)| (!l.is_blocked()).then_some(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vgg_resolutions() -> Vec<ConvLayerSpatial> {
        [224, 224, 112, 112, 56, 56, 56, 28, 28, 28, 14, 14, 14]
            .into_iter()
            .map(|r| ConvLayerSpatial { h: r, w: r })
            .collect()
    }

    #[test]
    fn resolution_plan_blocks_layers_at_or_above_block_size() {
        let plan = NetworkPlan::by_resolution(&vgg_resolutions(), BlockingPattern::fixed(28));
        assert_eq!(plan.len(), 13);
        assert!((plan.blocking_ratio() - 10.0 / 13.0).abs() < 1e-9);
        assert!(plan.per_layer()[0].is_blocked());
        assert!(!plan.per_layer()[12].is_blocked());
    }

    #[test]
    fn hierarchical_plan_blocks_everything_splittable() {
        let plan = NetworkPlan::by_resolution(&vgg_resolutions(), BlockingPattern::hierarchical(2));
        assert_eq!(plan.blocking_ratio(), 1.0);
    }

    #[test]
    fn blocking_depth_2_places_fusion_every_third_layer() {
        // depth=2: B B N B B N ... (paper: "block every n consecutive
        // layer followed by a normal convolutional layer").
        let plan = NetworkPlan::by_blocking_depth(9, BlockingPattern::hierarchical(2), 2);
        assert_eq!(plan.fusion_points(), vec![2, 5, 8]);
        assert!((plan.blocking_ratio() - 6.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn blocking_depth_4() {
        let plan = NetworkPlan::by_blocking_depth(20, BlockingPattern::hierarchical(2), 4);
        assert_eq!(plan.fusion_points(), vec![4, 9, 14, 19]);
    }

    #[test]
    fn full_depth_blocks_all_layers() {
        let plan = NetworkPlan::by_blocking_depth(20, BlockingPattern::hierarchical(2), usize::MAX);
        assert_eq!(plan.blocking_ratio(), 1.0);
        assert!(plan.fusion_points().is_empty());
    }

    #[test]
    fn unblocked_plan_has_ratio_zero() {
        let plan = NetworkPlan::unblocked(13);
        assert_eq!(plan.blocking_ratio(), 0.0);
        assert_eq!(plan.fusion_points().len(), 13);
    }
}
