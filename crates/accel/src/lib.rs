//! Analytic FPGA accelerator models for the block-convolution paper's
//! hardware evaluation (§III).
//!
//! The paper's hardware results are loop-nest cycle counts (its Equations
//! 3–4), Vivado resource reports and DRAM traffic accounting; this crate
//! implements the same cost models so every hardware table and figure can
//! be regenerated:
//!
//! * [`platform`] — ZC706 / Ultra96 descriptors, DRAM bandwidth and the
//!   DRAM-vs-SRAM energy model;
//! * [`baseline`] — the Qiu-style loop-tiled accelerator (Listing 1) with
//!   Eq 3/4 cycle counts, halo'd DRAM traffic and host-interrupt overhead;
//! * [`memory`] — BRAM estimation, buffer plans, and the §III-B2
//!   rectangular-blocking memory-utilisation argument;
//! * [`fusion`] — fused block-convolution designs, Table VI's A–G;
//! * [`dse`] — brute-force design-space exploration (Figure 12);
//! * [`vdsr_accel`] — the DaDianNao-like VDSR baseline and its
//!   block-convolution variant (Table IX);
//! * [`report`] — Table VII's published comparison rows.
//!
//! # Example
//!
//! ```
//! use bconv_accel::{fusion::{table6_configs, vgg16_shapes}, platform::zc706};
//!
//! let shapes = vgg16_shapes();
//! let platform = zc706();
//! let g = &table6_configs()[6]; // design G, the paper's headline config
//! let eval = g.evaluate(&shapes, &platform);
//! assert!(eval.bram18 <= platform.bram18_blocks); // fits on-chip
//! assert!(eval.gops(&platform) > 100.0);
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod dse;
pub mod fusion;
pub mod memory;
pub mod platform;
pub mod report;
pub mod vdsr_accel;

pub use baseline::{ConvShape, TileConfig};
pub use fusion::FusedDesign;
pub use platform::FpgaPlatform;
