//! Facade crate re-exporting the whole block-convolution reproduction.
//!
//! The front door is the [`Session`] API: compile any [`models`] network
//! descriptor into an executable blocked/fused pipeline and run it.
//!
//! ```
//! use bconv::{PlanSpec, Session, core::BlockingPattern, tensor::{PadMode, Tensor}};
//!
//! # fn main() -> Result<(), bconv::tensor::TensorError> {
//! let session = Session::builder()
//!     .network(bconv::models::small::vgg16_small(32))
//!     .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).pad(PadMode::Zero))
//!     .build()?;
//! let report = session.run(&Tensor::filled([1, 3, 32, 32], 0.5))?;
//! assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
//! # Ok(())
//! # }
//! ```
//!
//! See [`bconv_core`] for the paper's primary contribution (the block
//! convolution operator and fusion machinery) and [`bconv_graph`] for the
//! compiler stages behind [`Session`].

#![forbid(unsafe_code)]

pub use bconv_accel as accel;
pub use bconv_core as core;
pub use bconv_graph as graph;
pub use bconv_models as models;
pub use bconv_quant as quant;
pub use bconv_tensor as tensor;
pub use bconv_train as train;

pub use bconv_graph::{Backend, KernelPolicy, PlanSpec, Session};
