//! Small trainable counterparts of the paper's networks (see the
//! [crate docs](crate#substitutions) for the scaling rationale): a
//! VGG-style plain classifier, a ResNet-style residual classifier, a
//! MobileNet-style depthwise classifier, a reduced VDSR, and an SSD-style
//! single-object detector.
//!
//! Every network exposes [`apply_blocking`](SmallClassifier::apply_blocking)
//! so the experiment harnesses can convert a trained baseline into its
//! block-convolution variant (the paper's fine-tuning path) or train the
//! blocked network from scratch.

use bconv_core::blocking::BlockingPattern;
use bconv_core::plan::LayerBlocking;
use bconv_tensor::pad::PadMode;
use bconv_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;

use crate::layers::{
    Blocking, ConvLayer, LinearLayer, MaxPoolLayer, ReluLayer, SgdConfig, TrainLayer,
};

/// Decides the blocking of a conv layer given its compute resolution.
pub type BlockingRule = dyn Fn(usize) -> Option<(BlockingPattern, PadMode)>;

/// The paper's Table I rule: fixed blocking of size `t` with zero block
/// padding on every layer whose resolution is at least `t`.
pub fn fixed_rule(t: usize) -> impl Fn(usize) -> Option<(BlockingPattern, PadMode)> {
    move |res| (res >= t).then_some((BlockingPattern::fixed(t), PadMode::Zero))
}

/// Hierarchical blocking of `g × g` blocks on every splittable layer.
pub fn hierarchical_rule(g: usize) -> impl Fn(usize) -> Option<(BlockingPattern, PadMode)> {
    move |res| (res >= g).then_some((BlockingPattern::hierarchical(g), PadMode::Zero))
}

// ---------------------------------------------------------------------------
// Residual block
// ---------------------------------------------------------------------------

/// A basic residual block: `y = relu(conv2(relu(conv1(x))) + x)`.
pub struct ResidualBlock {
    conv1: ConvLayer,
    relu1: ReluLayer,
    conv2: ConvLayer,
    relu_out: ReluLayer,
}

impl ResidualBlock {
    /// He-initialised residual block with `c` channels.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors.
    pub fn new(c: usize, rng: &mut StdRng) -> Result<Self, TensorError> {
        Ok(Self {
            conv1: ConvLayer::new(c, c, 3, 1, Blocking::None, rng)?,
            relu1: ReluLayer::new(),
            conv2: ConvLayer::new(c, c, 3, 1, Blocking::None, rng)?,
            relu_out: ReluLayer::new(),
        })
    }

    /// Sets blocking on both convolutions (the element-wise sum is
    /// naturally splittable, §II-E).
    pub fn set_blocking(&mut self, blocking: Blocking) {
        self.conv1.set_blocking(blocking);
        self.conv2.set_blocking(blocking);
    }

    /// Enables fake-quantized weights on both convolutions.
    pub fn set_fake_quant(&mut self, bits: Option<u8>) {
        self.conv1.fake_quant_bits = bits;
        self.conv2.fake_quant_bits = bits;
    }
}

impl TrainLayer for ResidualBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let t = self.conv1.forward(x, train)?;
        let t = self.relu1.forward(&t, train)?;
        let t = self.conv2.forward(&t, train)?;
        let sum = bconv_tensor::elementwise::add(&t, x)?;
        self.relu_out.forward(&sum, train)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let d_sum = self.relu_out.backward(d_out)?;
        let d_main = self.relu1.backward(&self.conv2.backward(&d_sum)?)?;
        let d_main = self.conv1.backward(&d_main)?;
        bconv_tensor::elementwise::add(&d_main, &d_sum)
    }

    fn step(&mut self, cfg: SgdConfig) {
        self.conv1.step(cfg);
        self.conv2.step(cfg);
    }
}

// ---------------------------------------------------------------------------
// Small classifier (VGG / ResNet / MobileNet styles)
// ---------------------------------------------------------------------------

/// One stage of a [`SmallClassifier`].
#[allow(clippy::large_enum_variant)] // conv stages dominate by design
pub enum Stage {
    /// Convolution (+ReLU), annotated with its compute resolution.
    Conv {
        /// The convolution.
        layer: ConvLayer,
        /// ReLU after the conv.
        relu: ReluLayer,
        /// Spatial resolution the conv computes at.
        res: usize,
    },
    /// Residual block, annotated with its compute resolution.
    Residual {
        /// The block.
        block: ResidualBlock,
        /// Spatial resolution.
        res: usize,
    },
    /// 2×2 max pooling.
    Pool(MaxPoolLayer),
}

/// Style of a small classifier — scaled-down versions of the paper's
/// Table I networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetStyle {
    /// Plain stacked convolutions (VGG-16 analogue).
    Vgg,
    /// Residual blocks (ResNet analogue).
    ResNet,
    /// Depthwise-separable convolutions (MobileNet-V1 analogue).
    MobileNet,
}

impl NetStyle {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            NetStyle::Vgg => "VGG-16 (small)",
            NetStyle::ResNet => "ResNet-18 (small)",
            NetStyle::MobileNet => "MobileNet-V1 (small)",
        }
    }
}

/// A small image classifier over the synthetic blob-offset task.
///
/// Ends with flatten + fully-connected rather than global average pooling:
/// the blob-offset task carries its class information in spatially sparse
/// activations, which GAP dilutes so heavily that plain (non-residual)
/// nets cannot escape the uniform-prediction plateau.
pub struct SmallClassifier {
    stages: Vec<Stage>,
    fc: LinearLayer,
}

impl SmallClassifier {
    /// Builds a classifier of the given style with base width `c`,
    /// consuming `classes`-way 1-channel 32×32 inputs.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors.
    pub fn new(
        style: NetStyle,
        c: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> Result<Self, TensorError> {
        let mut stages = Vec::new();
        match style {
            NetStyle::Vgg => {
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(1, c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(c, c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(c, 2 * c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 16,
                });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(2 * c, 2 * c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 8,
                });
            }
            NetStyle::ResNet => {
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(1, c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                stages.push(Stage::Residual { block: ResidualBlock::new(c, rng)?, res: 32 });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
                stages.push(Stage::Residual { block: ResidualBlock::new(c, rng)?, res: 16 });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(c, 2 * c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 8,
                });
            }
            NetStyle::MobileNet => {
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(1, c, 3, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                // Depthwise + pointwise pairs.
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(c, c, 3, c, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(c, 2 * c, 1, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 32,
                });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(2 * c, 2 * c, 3, 2 * c, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 16,
                });
                stages.push(Stage::Conv {
                    layer: ConvLayer::new(2 * c, 2 * c, 1, 1, Blocking::None, rng)?,
                    relu: ReluLayer::new(),
                    res: 16,
                });
                stages.push(Stage::Pool(MaxPoolLayer::new(2)));
            }
        }
        // Every style ends at an 8x8 grid of 2c channels.
        let feat = 2 * c * 8 * 8;
        Ok(Self { stages, fc: LinearLayer::new(feat, classes, rng)? })
    }

    /// Applies a blocking rule to every conv stage (by resolution). The
    /// rule receives the stage's compute resolution and returns `None` to
    /// leave it conventional.
    pub fn apply_blocking(&mut self, rule: &BlockingRule) {
        for stage in &mut self.stages {
            match stage {
                Stage::Conv { layer, res, .. } => {
                    let blocking = match rule(*res) {
                        Some((p, m)) => Blocking::Pattern(p, m),
                        None => Blocking::None,
                    };
                    layer.set_blocking(blocking);
                }
                Stage::Residual { block, res } => {
                    let blocking = match rule(*res) {
                        Some((p, m)) => Blocking::Pattern(p, m),
                        None => Blocking::None,
                    };
                    block.set_blocking(blocking);
                }
                Stage::Pool(_) => {}
            }
        }
    }

    /// Fraction of conv layers currently blocked under `rule` (Table I's
    /// blocking-ratio column for the small nets).
    pub fn blocking_ratio(&self, rule: &BlockingRule) -> f64 {
        let mut total = 0usize;
        let mut blocked = 0usize;
        for stage in &self.stages {
            let res = match stage {
                Stage::Conv { res, .. } => *res,
                Stage::Residual { res, .. } => *res,
                Stage::Pool(_) => continue,
            };
            let n = if matches!(stage, Stage::Residual { .. }) { 2 } else { 1 };
            total += n;
            if rule(res).is_some() {
                blocked += n;
            }
        }
        if total == 0 {
            0.0
        } else {
            blocked as f64 / total as f64
        }
    }

    /// Enables (or disables) training-aware fake quantization on every
    /// convolution (Figure 7's QAT path).
    pub fn set_fake_quant(&mut self, bits: Option<u8>) {
        for stage in &mut self.stages {
            match stage {
                Stage::Conv { layer, .. } => layer.fake_quant_bits = bits,
                Stage::Residual { block, .. } => block.set_fake_quant(bits),
                Stage::Pool(_) => {}
            }
        }
    }
}

impl TrainLayer for SmallClassifier {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut cur = x.clone();
        for stage in &mut self.stages {
            cur = match stage {
                Stage::Conv { layer, relu, .. } => {
                    let t = layer.forward(&cur, train)?;
                    relu.forward(&t, train)?
                }
                Stage::Residual { block, .. } => block.forward(&cur, train)?,
                Stage::Pool(pool) => pool.forward(&cur, train)?,
            };
        }
        self.fc.forward(&cur, train)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let mut d = self.fc.backward(d_out)?;
        for stage in self.stages.iter_mut().rev() {
            d = match stage {
                Stage::Conv { layer, relu, .. } => layer.backward(&relu.backward(&d)?)?,
                Stage::Residual { block, .. } => block.backward(&d)?,
                Stage::Pool(pool) => pool.backward(&d)?,
            };
        }
        Ok(d)
    }

    fn step(&mut self, cfg: SgdConfig) {
        for stage in &mut self.stages {
            match stage {
                Stage::Conv { layer, .. } => layer.step(cfg),
                Stage::Residual { block, .. } => block.step(cfg),
                Stage::Pool(_) => {}
            }
        }
        self.fc.step(cfg);
    }
}

// ---------------------------------------------------------------------------
// Small VDSR
// ---------------------------------------------------------------------------

/// Reduced-depth VDSR: `depth` 3×3 convolutions of `width` channels with a
/// global residual connection (`y = x + net(x)`).
pub struct SmallVdsr {
    convs: Vec<ConvLayer>,
    relus: Vec<ReluLayer>,
}

impl SmallVdsr {
    /// He-initialised small VDSR.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors.
    ///
    /// # Panics
    ///
    /// Panics if `depth < 2`.
    pub fn new(depth: usize, width: usize, rng: &mut StdRng) -> Result<Self, TensorError> {
        assert!(depth >= 2, "VDSR needs at least 2 layers");
        let mut convs = Vec::with_capacity(depth);
        convs.push(ConvLayer::new(1, width, 3, 1, Blocking::None, rng)?);
        for _ in 1..depth - 1 {
            convs.push(ConvLayer::new(width, width, 3, 1, Blocking::None, rng)?);
        }
        let mut last = ConvLayer::new(width, 1, 3, 1, Blocking::None, rng)?;
        // Zero-init the residual head so training starts exactly at the
        // identity mapping (PSNR can only improve from the input's).
        for v in last.conv_weight_mut().data_mut() {
            *v = 0.0;
        }
        convs.push(last);
        let relus = (0..depth - 1).map(|_| ReluLayer::new()).collect();
        Ok(Self { convs, relus })
    }

    /// Number of conv layers.
    pub fn depth(&self) -> usize {
        self.convs.len()
    }

    /// Applies a per-layer blocking plan (e.g. from
    /// [`bconv_core::plan::NetworkPlan::by_blocking_depth`], Table IV).
    ///
    /// # Panics
    ///
    /// Panics if `plan.len() != self.depth()`.
    pub fn apply_plan(&mut self, plan: &[LayerBlocking], pad_mode: PadMode) {
        assert_eq!(plan.len(), self.depth(), "plan length mismatch");
        for (conv, decision) in self.convs.iter_mut().zip(plan) {
            conv.set_blocking(match decision {
                LayerBlocking::Normal => Blocking::None,
                LayerBlocking::Blocked(p) => Blocking::Pattern(*p, pad_mode),
            });
        }
    }

    /// Applies explicit per-layer blocking (used for the irregular fixed
    /// split of Table IV's third column).
    ///
    /// # Panics
    ///
    /// Panics if `blockings.len() != self.depth()`.
    pub fn apply_blocking(&mut self, blockings: &[Blocking]) {
        assert_eq!(blockings.len(), self.depth(), "blocking length mismatch");
        for (conv, blocking) in self.convs.iter_mut().zip(blockings) {
            conv.set_blocking(*blocking);
        }
    }
}

impl TrainLayer for SmallVdsr {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut cur = x.clone();
        let depth = self.convs.len();
        for i in 0..depth {
            cur = self.convs[i].forward(&cur, train)?;
            if i < depth - 1 {
                cur = self.relus[i].forward(&cur, train)?;
            }
        }
        bconv_tensor::elementwise::add(&cur, x)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let depth = self.convs.len();
        let mut d = d_out.clone();
        for i in (0..depth).rev() {
            if i < depth - 1 {
                d = self.relus[i].backward(&d)?;
            }
            d = self.convs[i].backward(&d)?;
        }
        bconv_tensor::elementwise::add(&d, d_out)
    }

    fn step(&mut self, cfg: SgdConfig) {
        for conv in &mut self.convs {
            conv.step(cfg);
        }
    }
}

// ---------------------------------------------------------------------------
// Small detector
// ---------------------------------------------------------------------------

/// Per-cell output channels of the detector head: 1 objectness logit,
/// `NUM_DET_CLASSES` class logits, 4 box parameters.
pub const DET_HEAD_CHANNELS: usize = 1 + crate::datasets::NUM_DET_CLASSES + 4;

/// SSD-style single-object detector: a conv backbone downsampling 32×32 to
/// an 8×8 grid, and a 3×3 conv head predicting per-cell objectness, class
/// and box. The backbone and head can be blocked independently — Figure 8's
/// backbone-only vs backbone+heads comparison.
pub struct SmallDetector {
    backbone: Vec<Stage>,
    head: ConvLayer,
}

impl SmallDetector {
    /// He-initialised detector with base width `c`.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors.
    pub fn new(c: usize, rng: &mut StdRng) -> Result<Self, TensorError> {
        let backbone = vec![
            Stage::Conv {
                layer: ConvLayer::new(1, c, 3, 1, Blocking::None, rng)?,
                relu: ReluLayer::new(),
                res: 32,
            },
            Stage::Conv {
                layer: ConvLayer::new(c, c, 3, 1, Blocking::None, rng)?,
                relu: ReluLayer::new(),
                res: 32,
            },
            Stage::Pool(MaxPoolLayer::new(2)),
            Stage::Conv {
                layer: ConvLayer::new(c, 2 * c, 3, 1, Blocking::None, rng)?,
                relu: ReluLayer::new(),
                res: 16,
            },
            Stage::Pool(MaxPoolLayer::new(2)),
            Stage::Conv {
                layer: ConvLayer::new(2 * c, 2 * c, 3, 1, Blocking::None, rng)?,
                relu: ReluLayer::new(),
                res: 8,
            },
        ];
        Ok(Self {
            backbone,
            head: ConvLayer::new(2 * c, DET_HEAD_CHANNELS, 3, 1, Blocking::None, rng)?,
        })
    }

    /// Blocks backbone conv layers by resolution rule.
    pub fn apply_backbone_blocking(&mut self, rule: &BlockingRule) {
        for stage in &mut self.backbone {
            if let Stage::Conv { layer, res, .. } = stage {
                layer.set_blocking(match rule(*res) {
                    Some((p, m)) => Blocking::Pattern(p, m),
                    None => Blocking::None,
                });
            }
        }
    }

    /// Blocks the detection head (computes at the 8×8 grid).
    pub fn apply_head_blocking(&mut self, rule: &BlockingRule) {
        self.head.set_blocking(match rule(8) {
            Some((p, m)) => Blocking::Pattern(p, m),
            None => Blocking::None,
        });
    }
}

impl TrainLayer for SmallDetector {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut cur = x.clone();
        for stage in &mut self.backbone {
            cur = match stage {
                Stage::Conv { layer, relu, .. } => {
                    let t = layer.forward(&cur, train)?;
                    relu.forward(&t, train)?
                }
                Stage::Residual { block, .. } => block.forward(&cur, train)?,
                Stage::Pool(pool) => pool.forward(&cur, train)?,
            };
        }
        self.head.forward(&cur, train)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let mut d = self.head.backward(d_out)?;
        for stage in self.backbone.iter_mut().rev() {
            d = match stage {
                Stage::Conv { layer, relu, .. } => layer.backward(&relu.backward(&d)?)?,
                Stage::Residual { block, .. } => block.backward(&d)?,
                Stage::Pool(pool) => pool.backward(&d)?,
            };
        }
        Ok(d)
    }

    fn step(&mut self, cfg: SgdConfig) {
        for stage in &mut self.backbone {
            match stage {
                Stage::Conv { layer, .. } => layer.step(cfg),
                Stage::Residual { block, .. } => block.step(cfg),
                Stage::Pool(_) => {}
            }
        }
        self.head.step(cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_tensor::init::{seeded_rng, uniform_tensor};

    #[test]
    fn all_styles_forward_and_backward() {
        for style in [NetStyle::Vgg, NetStyle::ResNet, NetStyle::MobileNet] {
            let mut rng = seeded_rng(1);
            let mut net = SmallClassifier::new(style, 4, 4, &mut rng).unwrap();
            let x = uniform_tensor([2, 1, 32, 32], -1.0, 1.0, &mut rng);
            let out = net.forward(&x, true).unwrap();
            assert_eq!(out.shape().dims(), [2, 4, 1, 1], "{style:?}");
            let d = net.backward(&Tensor::filled(out.shape(), 1.0)).unwrap();
            assert_eq!(d.shape().dims(), [2, 1, 32, 32]);
            net.step(SgdConfig::default());
        }
    }

    #[test]
    fn blocking_changes_forward_output() {
        let mut rng = seeded_rng(2);
        let mut net = SmallClassifier::new(NetStyle::Vgg, 4, 4, &mut rng).unwrap();
        let x = uniform_tensor([1, 1, 32, 32], -1.0, 1.0, &mut rng);
        let base = net.forward(&x, false).unwrap();
        net.apply_blocking(&hierarchical_rule(4));
        let blocked = net.forward(&x, false).unwrap();
        assert!(base.max_abs_diff(&blocked).unwrap() > 0.0);
        // Reverting restores the original output.
        net.apply_blocking(&|_| None);
        let restored = net.forward(&x, false).unwrap();
        assert!(base.approx_eq(&restored, 1e-6).unwrap());
    }

    #[test]
    fn blocking_ratio_counts_conv_layers() {
        let mut rng = seeded_rng(3);
        let net = SmallClassifier::new(NetStyle::Vgg, 4, 4, &mut rng).unwrap();
        // VGG-small resolutions: 32, 32, 16, 8 -> F16 blocks 3 of 4.
        assert!((net.blocking_ratio(&fixed_rule(16)) - 0.75).abs() < 1e-9);
        assert_eq!(net.blocking_ratio(&fixed_rule(64)), 0.0);
        assert_eq!(net.blocking_ratio(&hierarchical_rule(2)), 1.0);
    }

    #[test]
    fn vdsr_residual_identity_at_init_bias_zero() {
        // With zero-initialised final conv bias the residual path dominates:
        // output stays close to input early in training.
        let mut rng = seeded_rng(4);
        let mut net = SmallVdsr::new(4, 8, &mut rng).unwrap();
        let x = uniform_tensor([1, 1, 16, 16], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, false).unwrap();
        assert_eq!(y.shape().dims(), x.shape().dims());
    }

    #[test]
    fn vdsr_apply_plan_matches_depth() {
        let mut rng = seeded_rng(5);
        let mut net = SmallVdsr::new(6, 8, &mut rng).unwrap();
        let plan = bconv_core::plan::NetworkPlan::by_blocking_depth(
            6,
            BlockingPattern::hierarchical(2),
            2,
        );
        net.apply_plan(plan.per_layer(), PadMode::Zero);
        let x = uniform_tensor([1, 1, 16, 16], 0.0, 1.0, &mut rng);
        assert!(net.forward(&x, false).is_ok());
    }

    #[test]
    #[should_panic(expected = "plan length mismatch")]
    fn vdsr_plan_length_mismatch_panics() {
        let mut rng = seeded_rng(6);
        let mut net = SmallVdsr::new(4, 8, &mut rng).unwrap();
        let plan = bconv_core::plan::NetworkPlan::unblocked(3);
        net.apply_plan(plan.per_layer(), PadMode::Zero);
    }

    #[test]
    fn detector_output_grid_is_8x8() {
        let mut rng = seeded_rng(7);
        let mut det = SmallDetector::new(4, &mut rng).unwrap();
        let x = uniform_tensor([2, 1, 32, 32], -1.0, 1.0, &mut rng);
        let out = det.forward(&x, false).unwrap();
        assert_eq!(out.shape().dims(), [2, DET_HEAD_CHANNELS, 8, 8]);
    }

    #[test]
    fn detector_head_and_backbone_block_independently() {
        let mut rng = seeded_rng(8);
        let mut det = SmallDetector::new(4, &mut rng).unwrap();
        let x = uniform_tensor([1, 1, 32, 32], -1.0, 1.0, &mut rng);
        let base = det.forward(&x, false).unwrap();
        det.apply_backbone_blocking(&hierarchical_rule(2));
        let bb = det.forward(&x, false).unwrap();
        assert!(base.max_abs_diff(&bb).unwrap() > 0.0);
        det.apply_head_blocking(&hierarchical_rule(2));
        let both = det.forward(&x, false).unwrap();
        assert!(bb.max_abs_diff(&both).unwrap() > 0.0);
    }

    #[test]
    fn residual_block_gradcheck() {
        let mut rng = seeded_rng(9);
        let mut block = ResidualBlock::new(2, &mut rng).unwrap();
        let x = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let out = block.forward(&x, true).unwrap();
        let d = block.backward(&Tensor::filled(out.shape(), 1.0)).unwrap();
        // Finite-difference check at one pixel.
        let eps = 1e-2;
        let eval = |delta: f32| -> f32 {
            let mut probe = ResidualBlock::new(2, &mut seeded_rng(9)).unwrap();
            let mut xp = x.clone();
            *xp.at_mut(0, 1, 3, 3) += delta;
            probe.forward(&xp, false).unwrap().data().iter().sum()
        };
        let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
        let analytic = d.at(0, 1, 3, 3);
        assert!(
            (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
            "numeric {numeric} analytic {analytic}"
        );
    }
}
