//! From-scratch training framework for the block-convolution accuracy
//! experiments.
//!
//! The paper's algorithm-side evaluation (Tables I/II/IV/V, Figures 5–8)
//! trains ImageNet/COCO/Set5 models in PyTorch. Training those models is
//! out of scope for a CPU-only Rust reproduction, so this crate provides
//! the scaled-down substitutes described under *Substitutions* below:
//!
//! * [`layers`] — conv (conventional **or blocked**), pooling, ReLU,
//!   linear and global-average-pool layers with hand-written backward
//!   passes; SGD with momentum and weight decay;
//! * [`models`] — small VGG/ResNet/MobileNet-style classifiers, a reduced
//!   VDSR and an SSD-style detector, each supporting post-hoc conversion
//!   to block convolution (the paper's fine-tuning path);
//! * [`datasets`] — deterministic synthetic classification,
//!   super-resolution and detection data;
//! * [`loss`], [`metrics`], [`trainer`] — losses, top-1/PSNR/AP metrics
//!   and the training/evaluation loops.
//!
//! # Substitutions
//!
//! Every substitute keeps the paper's *relative* claim testable:
//!
//! * **ImageNet → the synthetic blob-offset task** (32×32 inputs): the
//!   class is the offset between two blobs, so recognising it needs a
//!   receptive field spanning both, and blocking — which severs
//!   cross-block information flow — costs accuracy the way it does on
//!   ImageNet. F16 plays the role of the paper's F28 (half the input
//!   side). Claims under test: blocked accuracy within ~1 % of the
//!   baseline, falling with the blocking ratio, fixed above hierarchical.
//! * **Set5 41×41 patches → 24×24 patches** of procedural images, so
//!   scales 2/3/4 divide the patch exactly and the irregular F16 split
//!   (16+8) mirrors the paper's F28 (28+13); a 6-layer width-12 net
//!   stands in for the 20-layer width-64 VDSR. Claim under test: PSNR
//!   loss under blocking ≤ 0.5 dB.
//! * **COCO SSD / FPN → a small SSD-style detector** on a synthetic
//!   single-object task (box regression + texture class). Claim under
//!   test: a small AP drop when the backbone is blocked, more when the
//!   heads are too.
//!
//! # Example: train a blocked classifier
//!
//! ```
//! use bconv_train::models::{SmallClassifier, NetStyle, hierarchical_rule};
//! use bconv_train::trainer::{train_classifier, eval_classifier, TrainConfig};
//! use bconv_tensor::init::seeded_rng;
//!
//! # fn main() -> Result<(), bconv_tensor::TensorError> {
//! let mut rng = seeded_rng(0);
//! let mut net = SmallClassifier::new(NetStyle::Vgg, 4, 4, &mut rng)?;
//! net.apply_blocking(&hierarchical_rule(2));
//! let cfg = TrainConfig { steps: 10, ..TrainConfig::default() };
//! train_classifier(&mut net, "doc", &cfg)?;
//! let accuracy = eval_classifier(&mut net, "doc", 32)?;
//! assert!(accuracy >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod datasets;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod trainer;

pub use layers::{Blocking, SgdConfig, TrainLayer};
pub use trainer::TrainConfig;
