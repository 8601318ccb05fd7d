//! Dense NCHW tensor substrate and reference CNN operators.
//!
//! This crate is the numerical foundation of the block-convolution
//! reproduction. It provides:
//!
//! * [`Tensor`] — a dense, owned, `f32`, NCHW 4-D tensor with spatial
//!   crop/paste views (the primitives block convolution is built from);
//! * [`pad`] — zero / replicate / reflect spatial padding (paper §II-F
//!   evaluates all three as *block padding* modes);
//! * [`conv`] — 2-D convolution with stride, padding and groups
//!   (grouped convolution covers the depthwise case of MobileNet-V1);
//! * [`kernel`] — the two conv kernels a [`KernelKind`] names: the direct
//!   loop and the fast path (channel-lane or spatial-lane sweep, or
//!   im2col and a register-blocked sgemm, by layer shape), selected per
//!   layer by a [`KernelPolicy`];
//! * [`pool`] — max / average / global-average pooling;
//! * [`activation`], [`elementwise`], [`upsample`], [`linear`] — the rest of
//!   the operators required by the seven networks evaluated in the paper;
//! * [`init`] — seeded weight initialisation so every experiment is
//!   deterministic.
//!
//! # Example
//!
//! ```
//! use bconv_tensor::{Tensor, conv::{Conv2d, ConvGeom}};
//!
//! # fn main() -> Result<(), bconv_tensor::TensorError> {
//! let input = Tensor::filled([1, 3, 8, 8], 1.0);
//! let conv = Conv2d::identity_like(3, 3, ConvGeom::same(3))?;
//! let output = conv.forward(&input)?;
//! assert_eq!(output.shape().dims(), [1, 3, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod activation;
pub mod conv;
pub mod elementwise;
pub mod error;
pub mod init;
pub mod kernel;
pub mod linear;
pub mod pad;
pub mod pool;
pub mod shape;
pub mod tensor;
pub mod upsample;

pub use error::TensorError;
pub use kernel::{ConvScratch, KernelKind, KernelPolicy};
pub use pad::PadMode;
pub use shape::Shape;
pub use tensor::Tensor;
