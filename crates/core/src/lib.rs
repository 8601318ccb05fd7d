//! Block convolution — the primary contribution of *"Block Convolution:
//! Towards Memory-Efficient Inference of Large-Scale CNNs on FPGA"*
//! (DATE 2018 / arXiv:2105.08937).
//!
//! Conventional spatial tiling couples adjacent tiles at their boundaries,
//! so consecutive conv layers cannot be fused without buffering entire
//! intermediate feature maps off-chip. Block convolution removes the
//! coupling: the feature map is split into independent blocks
//! ([`blocking::BlockGrid`]), each block is padded *locally*
//! ([`padding_solver`], the paper's Equation 2) and convolved on its own
//! ([`BlockConv2d`]), and the results are concatenated. Consecutive layers
//! then fuse block-by-block ([`fusion::FusedChain`]) with zero off-chip
//! transfer of intermediate results.
//!
//! # Quick start
//!
//! ```
//! use bconv_core::{BlockConv2d, blocking::BlockingPattern};
//! use bconv_tensor::{PadMode, Tensor, conv::{Conv2d, ConvGeom}};
//!
//! # fn main() -> Result<(), bconv_tensor::TensorError> {
//! // The paper's Figure 3: an 8x8x3 input under 2x2 blocking.
//! let conv = Conv2d::identity_like(3, 3, ConvGeom::same(3))?;
//! let bconv = BlockConv2d::from_pattern(
//!     conv, 8, 8, BlockingPattern::hierarchical(2), PadMode::Zero)?;
//! let out = bconv.forward(&Tensor::filled([1, 3, 8, 8], 1.0))?;
//! assert_eq!(out.shape().dims(), [1, 3, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod block_conv;
pub mod blocking;
pub mod fusion;
pub mod padding_solver;
pub mod plan;

pub use block_conv::BlockConv2d;
pub use blocking::{Block, BlockGrid, BlockingPattern};
pub use fusion::{BlockScratch, ChainOp, FusedChain, FusedPipeline, MemStats, PipelineScratch};
pub use plan::{LayerBlocking, NetworkPlan};
