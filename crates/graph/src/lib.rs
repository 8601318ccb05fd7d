//! Compile [`bconv_models::Network`] descriptors into executable blocked /
//! fused pipelines — the load-bearing spine between the paper's operator
//! (`bconv-core`) and its whole-network claims.
//!
//! The crate is a three-stage compiler plus a facade:
//!
//! 1. **Lowering** ([`ir::Graph::lower`]) — turns an architectural
//!    descriptor into a typed graph of executable nodes, binding
//!    deterministic He-initialised weights via [`bconv_tensor::init`];
//! 2. **Planning** ([`plan::Planner`]) — consumes a
//!    [`bconv_core::plan::NetworkPlan`] (or derives the paper's
//!    resolution rule) plus an on-chip budget, and partitions the graph
//!    into [`bconv_core::fusion::FusedChain`] fusion groups — the plan is
//!    the compiled artifact, float or (after [`quantize`]'s calibration)
//!    integer;
//! 3. **Execution** ([`exec::Executor`]) — [`exec::ReferenceExecutor`]
//!    (dense layer-wise, the oracle) and [`exec::PlanExecutor`] (the
//!    plan's segment loop: per-block fused, reporting
//!    [`bconv_core::fusion::MemStats`] at the plan's word width).
//!
//! [`Session`] ties the stages together behind a builder:
//!
//! ```
//! use bconv_graph::{PlanSpec, Session};
//! use bconv_core::BlockingPattern;
//! use bconv_models::small::vgg16_small;
//! use bconv_tensor::{PadMode, Tensor};
//!
//! # fn main() -> Result<(), bconv_tensor::TensorError> {
//! let session = Session::builder()
//!     .network(vgg16_small(32))
//!     .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).pad(PadMode::Zero))
//!     .build()?;
//! let report = session.run(&Tensor::filled([1, 3, 32, 32], 0.5))?;
//! println!("{} -> {:?}, {} off-chip elements",
//!     session.graph().name(), report.output.shape(), report.stats.offchip_elems);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod exec;
pub mod ir;
pub mod json;
pub mod plan;
pub mod quantize;
pub mod serve;
pub mod session;
pub mod tune;

pub use cache::{graph_content_hash, host_fingerprint, PlanCache, PlanCacheError, PlanKey};
pub use cost::{AccelCost, CostModel, ElementBudget, SpliceCost, StageCost};
pub use exec::{ExecScratch, Executor, PlanExecutor, ReferenceExecutor, RunReport};
pub use ir::{Graph, LowerOptions, Node, NodeId, NodeOp, NodeRef};
pub use plan::{
    ExecPlan, PlanProvenance, PlanReport, Planner, PlannerOptions, Segment, SpliceReport,
};
pub use quantize::GraphQuantSpec;
pub use serve::metrics::ServeMetrics;
pub use serve::router::{Router, RouterTicket};
pub use serve::{ServeConfig, ServeEngine, SubmitOptions, TicketId, Waker};
pub use session::{Backend, PlanSpec, Session, SessionBuilder, DEFAULT_CALIBRATION_BATCHES};
pub use tune::{
    load_cached_winner, modeled_offchip_elems, tune, tune_lowered, TuneOptions, TunePoint,
    TuneReport, TuneWinner,
};

// Re-exported so session callers can pick a conv kernel without a direct
// bconv-tensor dependency.
pub use bconv_tensor::kernel::{KernelKind, KernelPolicy};
