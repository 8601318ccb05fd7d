//! The [`Session`] entry point: compile a network descriptor once, run it
//! many times.
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
//! assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
//! # Ok(())
//! # }
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use bconv_core::blocking::BlockingPattern;
use bconv_core::plan::NetworkPlan;
use bconv_models::Network;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::{Tensor, TensorError};

use bconv_tensor::init::{seeded_rng, uniform_tensor};

use crate::cache::{PlanCache, PlanKey};
use crate::cost::CostModel;
use crate::exec::{ExecScratch, Executor, PlanExecutor, ReferenceExecutor, RunReport};
use crate::ir::{Graph, LowerOptions, NodeOp};
use crate::plan::{ExecPlan, PlanProvenance, Planner, PlannerOptions, QuantSingle, Segment};
use crate::quantize::GraphQuantSpec;
use crate::serve::router::Router;
use crate::serve::{ServeConfig, ServeEngine};
use crate::tune::{self, TuneOptions};

/// Which executor backend a session compiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Dense layer-wise execution (numerical/memory baseline).
    Reference,
    /// Blocked, fused execution per the compiled plan (the default).
    #[default]
    Blocked,
    /// The blocked schedule with every convolution in calibrated integer
    /// arithmetic — the paper's deployment path (§III-C, Figure 7:
    /// `weight_bits: 8, act_bits: 16` for the VGG-16 accelerator,
    /// `weight_bits: 4, act_bits: 8` for VDSR). Building this backend runs
    /// a post-training calibration pass (see [`crate::quantize`]);
    /// [`RunReport`] traffic is reported at
    /// `act_bits` per feature-map element.
    Quantized {
        /// Convolution weight bitwidth (2..=16).
        weight_bits: u8,
        /// Activation bitwidth (2..=16); also the off-chip word width.
        act_bits: u8,
    },
}

/// Number of synthesised calibration batches when the quantized backend is
/// built without [`SessionBuilder::calibration`] data.
pub const DEFAULT_CALIBRATION_BATCHES: usize = 4;

/// Deterministic stand-in calibration set: seeded uniform batches over the
/// network's input shape. Real calibration data gives real activation
/// ranges; this keeps `Backend::Quantized` buildable out of the box with
/// the same reproducibility guarantees as weight binding.
fn default_calibration(graph: &Graph, seed: u64) -> Vec<Tensor> {
    let s = graph.input_shape();
    (0..DEFAULT_CALIBRATION_BATCHES)
        .map(|i| {
            let mut rng = seeded_rng(seed ^ 0x5143_414C ^ ((i as u64 + 1) << 32));
            uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut rng)
        })
        .collect()
}

/// Resolves the blocked backend's worker-thread count: the builder's
/// setting, else 1 — on every row measured so far the threaded path is
/// the slower one (ROADMAP item 4 flips the default back when a threaded
/// row first beats serial).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when the requested count is
/// zero.
fn resolve_threads(requested: Option<usize>) -> Result<usize, TensorError> {
    match requested {
        Some(0) => Err(TensorError::invalid(
            "SessionBuilder::threads must be >= 1 (0 worker threads cannot execute)",
        )),
        Some(n) => Ok(n),
        None => Ok(1),
    }
}

/// The cache-aware planning funnel: on a [`PlanKey`] hit the pinned
/// decisions are assembled and the planner walk never runs (the plan's
/// provenance is `CacheLoaded`); otherwise the planner runs under the given
/// provenance and the plan is stored best-effort. Every cache failure —
/// missing file, corrupt JSON, stale key, incompatible schema — falls back
/// to fresh planning; none is fatal.
fn plan_or_load(
    cache: Option<(&PlanCache, &PlanKey)>,
    planner: &Planner,
    graph: &Graph,
    pad: PadMode,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
    provenance: PlanProvenance,
) -> Result<ExecPlan, TensorError> {
    if let Some((cache, key)) = cache {
        if let Ok(plan) = cache.load(key, graph, pad, kernel, quant) {
            return Ok(plan);
        }
    }
    let plan = planner.compile(graph, quant, provenance)?;
    if let Some((cache, key)) = cache {
        let _ = cache.store(key, &plan);
    }
    Ok(plan)
}

/// The planning configuration, as one value: everything that decides
/// *what plan* a session compiles (as opposed to which backend executes
/// it, how many worker threads run it, or where compiled plans are
/// cached). [`SessionBuilder::planner`] is the only way to hand it to a
/// session.
///
/// ```
/// use bconv_graph::session::PlanSpec;
/// use bconv_core::BlockingPattern;
///
/// let spec = PlanSpec::new()
///     .pattern(BlockingPattern::hierarchical(2))
///     .on_chip_budget(1500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlanSpec {
    /// Blocking pattern (`None` = the `H2×2` default).
    pub pattern: Option<BlockingPattern>,
    /// Explicit per-conv-layer blocking decisions (`None` derives the
    /// paper's resolution rule under the session pattern). Use
    /// [`NetworkPlan::by_blocking_depth`] for the VDSR fusion-point
    /// schedule or [`NetworkPlan::unblocked`] for a pure dense baseline.
    pub network_plan: Option<NetworkPlan>,
    /// Cap on the per-block on-chip working buffers, in elements, for the
    /// default [`crate::cost::ElementBudget`] model: fusion groups are cut
    /// at the boundary where they would exceed it. Mutually exclusive with
    /// [`Self::cost_model`] (rejected at build time as ambiguous).
    pub budget_elems: Option<usize>,
    /// Fusion cost model deciding where the planner cuts fusion groups and
    /// whether adjacent groups splice into a `FusedPipeline` (see
    /// [`crate::cost`]); e.g. [`crate::cost::AccelCost`] plans against the
    /// `bconv-accel` cycle/memory model.
    pub cost_model: Option<Arc<dyn CostModel>>,
    /// Block-padding mode (default zero padding).
    pub pad: PadMode,
    /// Conv kernel policy, for blocked and whole-map convolutions alike
    /// (default [`KernelPolicy::Auto`]: the fast path — channel-lane
    /// kernel, plane kernel or im2col+GEMM by layer shape — everywhere but
    /// degenerate single-tap layers, which keep the direct loop).
    pub kernel: KernelPolicy,
    /// Run the per-host autotuner ([`mod@crate::tune`]) — or load its
    /// winner from the per-host winner cache, when the session has a
    /// [`SessionBuilder::plan_cache`] — and plan under the winning
    /// pattern / buffer split. Knobs the caller pinned explicitly keep
    /// their values; only unset ones take the winner's. Kernel policy and
    /// thread count are not tuned: they resolve as in any other build.
    pub tuned: bool,
}

impl PlanSpec {
    /// An empty spec (all defaults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the blocking pattern.
    pub fn pattern(mut self, pattern: BlockingPattern) -> Self {
        self.pattern = Some(pattern);
        self
    }

    /// Sets explicit per-conv-layer blocking decisions.
    pub fn network_plan(mut self, plan: NetworkPlan) -> Self {
        self.network_plan = Some(plan);
        self
    }

    /// Caps the per-block on-chip working buffers, in elements.
    pub fn on_chip_budget(mut self, elems: usize) -> Self {
        self.budget_elems = Some(elems);
        self
    }

    /// Sets the fusion cost model.
    pub fn cost_model(mut self, model: impl CostModel + 'static) -> Self {
        self.cost_model = Some(Arc::new(model));
        self
    }

    /// Sets the block-padding mode.
    pub fn pad(mut self, pad: PadMode) -> Self {
        self.pad = pad;
        self
    }

    /// Sets the conv kernel policy.
    pub fn kernel(mut self, policy: KernelPolicy) -> Self {
        self.kernel = policy;
        self
    }

    /// Enables per-host autotuning.
    pub fn tuned(mut self) -> Self {
        self.tuned = true;
        self
    }
}

/// Builder for [`Session`].
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    network: Option<Network>,
    spec: PlanSpec,
    cache_dir: Option<PathBuf>,
    backend: Backend,
    seed: Option<u64>,
    relu_after_conv: bool,
    threads: Option<usize>,
    calibration: Option<Vec<Tensor>>,
}

impl SessionBuilder {
    /// Sets the network descriptor to compile (required).
    pub fn network(mut self, net: Network) -> Self {
        self.network = Some(net);
        self
    }

    /// Sets the planning configuration (default [`PlanSpec::new`]).
    pub fn planner(mut self, spec: PlanSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Enables the plan compilation cache under `dir`: a [`PlanKey`] hit
    /// loads the pinned plan (bitwise-identical execution, no planner
    /// walk); a miss plans fresh and stores the result. A
    /// [`PlanSpec::tuned`] build keeps its per-host winner there too.
    pub fn plan_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Selects the executor backend (default [`Backend::Blocked`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seed for deterministic weight binding (default 2018). Sessions
    /// built from the same network with the same seed share weights
    /// regardless of backend — the basis of cross-backend parity tests.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Inserts a ReLU after every convolution during lowering.
    pub fn relu_after_conv(mut self, yes: bool) -> Self {
        self.relu_after_conv = yes;
        self
    }

    /// Sets the worker-thread count for block dispatch on the blocked
    /// backend; 1 when unset. Outputs are bitwise-identical at any thread
    /// count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Calibration inputs for the quantized backend's post-training range
    /// calibration (ignored by the float backends). When unset, the build
    /// synthesises [`DEFAULT_CALIBRATION_BATCHES`] seeded uniform batches
    /// over the network's input shape — deterministic, like weight binding,
    /// but real data gives real activation ranges.
    pub fn calibration(mut self, inputs: Vec<Tensor>) -> Self {
        self.calibration = Some(inputs);
        self
    }

    /// Compiles the session: lowers the descriptor to a [`Graph`], plans
    /// fusion groups, and builds the selected executor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when no network was given, the descriptor
    /// fails to lower, or planning fails.
    pub fn build(self) -> Result<Session, TensorError> {
        let net = self
            .network
            .ok_or_else(|| TensorError::invalid("SessionBuilder::network is required"))?;
        let mut spec = self.spec;
        if spec.cost_model.is_some() && spec.budget_elems.is_some() {
            return Err(TensorError::invalid(
                "PlanSpec::cost_model and ::on_chip_budget are mutually exclusive; \
                 encode the budget in the model (e.g. ElementBudget::with_budget)",
            ));
        }
        let lower_opts =
            LowerOptions { seed: self.seed.unwrap_or(2018), relu_after_conv: self.relu_after_conv };
        let graph = Arc::new(Graph::lower(&net, &lower_opts)?);

        let mut provenance = PlanProvenance::Fresh;
        if spec.tuned {
            let topts = TuneOptions {
                seed: lower_opts.seed,
                relu_after_conv: self.relu_after_conv,
                cache_dir: self.cache_dir.clone(),
                ..TuneOptions::default()
            };
            let cached = self.cache_dir.as_ref().and_then(|d| {
                tune::load_cached_winner(d, &graph, lower_opts.seed, &topts.platform, topts.npe)
            });
            let (winner, key) = match cached {
                Some(hit) => hit,
                None => {
                    let report = tune::tune_lowered(&graph, &topts)?;
                    if let Some(dir) = self.cache_dir.as_ref() {
                        tune::store_winner(dir, &report.key, &report.winner);
                    }
                    (report.winner, report.key)
                }
            };
            // The winner only fills knobs the caller left at their
            // defaults — an explicit pattern or model always wins over the
            // tuner.
            if spec.pattern.is_none() {
                spec.pattern = Some(winner.pattern);
            }
            if spec.cost_model.is_none() && spec.budget_elems.is_none() {
                spec.cost_model =
                    Some(Arc::new(winner.cost_model(topts.platform.clone(), topts.npe)));
            }
            provenance = PlanProvenance::TuneSelected { key };
        }

        let pattern = spec.pattern.unwrap_or(BlockingPattern::hierarchical(2));
        let (kernel, pad) = (spec.kernel, spec.pad);
        let network_plan = spec.network_plan;
        let cache = self.cache_dir.map(PlanCache::new);
        let planner = Planner::new(PlannerOptions {
            pattern,
            plan: network_plan.clone(),
            pad_mode: pad,
            budget_elems: spec.budget_elems,
            kernel,
            cost_model: spec.cost_model,
        });
        let key = cache.as_ref().map(|_| {
            PlanKey::for_build(
                &graph,
                lower_opts.seed,
                pattern,
                network_plan.as_ref(),
                self.backend,
                planner.cost_model(),
                kernel,
                pad,
            )
        });
        let threads = resolve_threads(self.threads)?;
        let qspec = match self.backend {
            Backend::Quantized { weight_bits, act_bits } => {
                // Calibration always runs — a cached plan pins the fusion
                // decisions, not the activation ranges.
                let inputs = match self.calibration {
                    Some(inputs) => inputs,
                    None => default_calibration(&graph, lower_opts.seed),
                };
                Some(GraphQuantSpec::calibrate(&graph, &inputs, weight_bits, act_bits)?)
            }
            Backend::Reference | Backend::Blocked => None,
        };
        // The plan carries its precision: everything integer is compiled
        // here, once, and the calibrated spec is not needed afterwards.
        let exec_plan = Arc::new(plan_or_load(
            cache.as_ref().zip(key.as_ref()),
            &planner,
            &graph,
            pad,
            kernel,
            qspec.as_ref(),
            provenance,
        )?);
        let executor: Arc<dyn Executor> = match self.backend {
            Backend::Reference => Arc::new(ReferenceExecutor::new(Arc::clone(&graph))),
            Backend::Blocked | Backend::Quantized { .. } => {
                Arc::new(PlanExecutor::new(Arc::clone(&graph), Arc::clone(&exec_plan), threads))
            }
        };
        Ok(Session { graph, exec_plan, backend: self.backend, threads, executor })
    }
}

/// A compiled, executable network.
///
/// The executor behind a session is immutable and `Send + Sync`: `run`
/// takes `&self`, so one session can serve concurrent callers directly,
/// or be turned into a worker-pool serving engine with
/// [`into_engine`](Session::into_engine).
pub struct Session {
    graph: Arc<Graph>,
    exec_plan: Arc<ExecPlan>,
    backend: Backend,
    threads: usize,
    executor: Arc<dyn Executor>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Runs the network on `input` (NCHW, any batch size).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on input-shape mismatch or operator failure.
    pub fn run(&self, input: &Tensor) -> Result<RunReport, TensorError> {
        self.executor.run(input)
    }

    /// [`run`](Session::run) reusing caller-owned scratch buffers across
    /// requests: outputs are bitwise-identical, but a warm scratch makes
    /// steady-state execution allocation-free apart from the output
    /// tensor returned in the [`RunReport`]. One scratch serves one
    /// caller at a time — clone nothing, just keep it between calls.
    ///
    /// # Errors
    ///
    /// See [`run`](Session::run).
    pub fn run_with(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        self.executor.run_scratch(input, scratch)
    }

    /// Consumes the session and spins up a [`ServeEngine`]: a pool of
    /// worker threads sharing this session's compiled executor, each with
    /// its own reusable [`ExecScratch`], behind a bounded request queue
    /// with ticketed (`submit`/`wait`) and batched (`run_batch`) entry
    /// points. See [`crate::serve`] for the serving semantics.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `config` is invalid
    /// (zero workers, queue depth, or batch size).
    pub fn into_engine(self, config: ServeConfig) -> Result<ServeEngine, TensorError> {
        ServeEngine::new(self, config)
    }

    /// Consumes the session and builds a [`Router`]: `replicas` serving
    /// engines, each configured with `config`, sharing this session's
    /// graph, plan, executor (and, for the quantized backend, its one
    /// calibration pass) through [`fork`](Session::fork). See
    /// [`crate::serve::router`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `replicas` is zero or
    /// `config` is invalid.
    pub fn into_router(self, replicas: usize, config: ServeConfig) -> Result<Router, TensorError> {
        Router::new(self, replicas, config)
    }

    /// A second handle to the same compiled session: the fork shares the
    /// lowered graph, the fusion plan, and the executor (including conv
    /// weights — `Arc<Conv2d>` everywhere — and the integer ops a
    /// quantized plan compiled from its one calibration pass) with `self`
    /// by reference count, so forking is a few atomic increments. Nothing
    /// is re-lowered, re-planned, or re-calibrated. This is how [`Router`]
    /// stamps out engine replicas from one build.
    pub fn fork(&self) -> Session {
        Session {
            graph: Arc::clone(&self.graph),
            exec_plan: Arc::clone(&self.exec_plan),
            backend: self.backend,
            threads: self.threads,
            executor: Arc::clone(&self.executor),
        }
    }

    /// The shared executor and graph, for the serving engine.
    pub(crate) fn shared_parts(&self) -> (Arc<Graph>, Arc<dyn Executor>) {
        (Arc::clone(&self.graph), Arc::clone(&self.executor))
    }

    /// Test hook: swap the compiled executor (e.g. for one that panics on
    /// a marker input) so serve-layer failure paths can be driven
    /// deterministically.
    #[cfg(test)]
    pub(crate) fn swap_executor(&mut self, executor: Arc<dyn Executor>) {
        self.executor = executor;
    }

    /// The lowered graph (weights bound).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The compiled fusion plan (what the blocked backend executes).
    pub fn plan(&self) -> &ExecPlan {
        &self.exec_plan
    }

    /// The shared plan handle itself — [`fork`](Session::fork)s and
    /// [`Router`] replicas hold clones of this `Arc`, so plan identity
    /// across handles is checkable with [`Arc::ptr_eq`].
    pub fn plan_handle(&self) -> &Arc<ExecPlan> {
        &self.exec_plan
    }

    /// The selected backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Worker threads the blocked backend dispatches blocks across (the
    /// reference backend ignores this).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The conv kernel policy the session was compiled under.
    pub fn kernel(&self) -> KernelPolicy {
        self.exec_plan.kernel()
    }

    /// Resolved convolution kernel per conv node, in execution order, as
    /// `(layer name, kernel name)` pairs, read off what the plan compiled:
    /// fused and spliced convolutions report the kernel their chain
    /// carries, integer whole-map convs the kernel their `QConv2d` was
    /// built with, float whole-map convs what the plan's policy resolves
    /// for them at dispatch — except on the reference backend, which keeps
    /// the direct loop as an oracle that shares no kernel with the others.
    pub fn conv_kernels(&self) -> Vec<(String, &'static str)> {
        let nodes = self.graph.nodes();
        let conv_names = |ids: &[crate::ir::NodeId]| -> Vec<String> {
            ids.iter()
                .filter(|id| matches!(nodes[**id].op, NodeOp::Conv { .. }))
                .map(|id| nodes[*id].name.clone())
                .collect()
        };
        let mut out = Vec::new();
        for seg in self.exec_plan.segments() {
            for (chain, ids) in seg.groups() {
                out.extend(
                    conv_names(ids).into_iter().zip(chain.convs().map(|b| b.kernel().name())),
                );
            }
            if let Segment::Single(id) = seg {
                if let NodeOp::Conv { conv, .. } = &nodes[*id].op {
                    let kind = match (self.backend, self.exec_plan.quant_single(*id)) {
                        (Backend::Reference, _) => bconv_tensor::kernel::KernelKind::Direct,
                        (_, Some(QuantSingle::Conv(q, _))) => q.kernel(),
                        _ => self.exec_plan.kernel().resolve(conv),
                    };
                    out.push((nodes[*id].name.clone(), kind.name()));
                }
            }
        }
        out
    }

    /// Human-readable summary of what this session will execute. The
    /// reference backend ignores the fused plan, so its description says
    /// so rather than listing segments it won't run.
    pub fn describe(&self) -> String {
        match self.backend {
            Backend::Reference => format!(
                "{} on reference backend: dense layer-wise over {} nodes (fused plan unused)\n",
                self.graph.name(),
                self.graph.nodes().len(),
            ),
            Backend::Blocked => format!(
                "{} on blocked backend: {} segments, {} fusion groups, blocking ratio {:.0}%, \
                 {} worker thread(s)\n{}",
                self.graph.name(),
                self.exec_plan.segments().len(),
                self.exec_plan.fusion_groups(),
                self.exec_plan.blocking_ratio() * 100.0,
                self.threads,
                self.exec_plan.describe(&self.graph),
            ),
            Backend::Quantized { weight_bits, act_bits } => format!(
                "{} on quantized backend (w{weight_bits}a{act_bits}): {} segments, {} fusion \
                 groups, blocking ratio {:.0}%, {} worker thread(s)\n{}",
                self.graph.name(),
                self.exec_plan.segments().len(),
                self.exec_plan.fusion_groups(),
                self.exec_plan.blocking_ratio() * 100.0,
                self.threads,
                self.exec_plan.describe(&self.graph),
            ),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("network", &self.graph.name())
            .field("backend", &self.backend)
            .field("segments", &self.exec_plan.segments().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_models::small::vgg16_small;

    #[test]
    fn builder_requires_a_network() {
        assert!(Session::builder().build().is_err());
    }

    #[test]
    fn default_backend_is_blocked() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        assert_eq!(s.backend(), Backend::Blocked);
        assert!(s.plan().fusion_groups() > 0);
    }

    #[test]
    fn run_rejects_wrong_input_shape() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        assert!(s.run(&Tensor::zeros([1, 3, 16, 16])).is_err());
    }

    #[test]
    fn describe_mentions_backend_and_groups() {
        let s = Session::builder().network(vgg16_small(32)).build().unwrap();
        let d = s.describe();
        assert!(d.contains("blocked"), "{d}");
        assert!(d.contains("fusion groups"), "{d}");
    }

    #[test]
    fn quantized_backend_builds_and_describes_bitwidths() {
        let s = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .build()
            .unwrap();
        assert_eq!(s.backend(), Backend::Quantized { weight_bits: 8, act_bits: 8 });
        assert!(s.plan().fusion_groups() > 0, "quantized plan keeps the fused structure");
        let d = s.describe();
        assert!(d.contains("quantized") && d.contains("w8a8"), "{d}");
        let report = s.run(&Tensor::filled([1, 3, 32, 32], 0.5)).unwrap();
        assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
        assert_eq!(report.stats.bits_per_elem, 8);
    }

    #[test]
    fn whole_map_integer_convs_fail_at_plan_time_fresh_and_from_the_cache() {
        use bconv_models::small::vdsr_small;
        use bconv_tensor::conv::Conv2d;
        // Every conv of an unblocked plan is a whole-map node: its integer
        // form is compiled by the planner, so what cannot be compiled is a
        // planning error — no plan exists that an executor could refuse.
        let graph = Graph::lower(&vdsr_small(24, 4, 8), &LowerOptions::default()).unwrap();
        let unblocked = NetworkPlan::unblocked(graph.conv_count());
        let planner = Planner::new(PlannerOptions {
            plan: Some(unblocked.clone()),
            ..PlannerOptions::default()
        });
        let input = uniform_tensor([1, 1, 24, 24], -1.0, 1.0, &mut seeded_rng(5));
        let spec = GraphQuantSpec::calibrate(&graph, &[input], 8, 8).unwrap();
        assert!(planner.plan_quantized(&graph, &spec).is_ok());

        // An all-zero calibration set leaves the first conv without a range.
        let blind =
            GraphQuantSpec::calibrate(&graph, &[Tensor::zeros([1, 1, 24, 24])], 8, 8).unwrap();
        let mut zeroed = graph.clone();
        let NodeOp::Conv { conv, .. } = &mut zeroed.nodes_mut()[1].op else {
            panic!("vdsr_small is a chain of convs");
        };
        *conv = Arc::new(Conv2d::zeros(conv.c_in(), conv.c_out(), conv.geom()).unwrap());

        let dir = std::env::temp_dir().join(format!("bconv-plan-time-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PlanCache::new(&dir);
        let cases = [
            (&graph, blind, "no calibrated activation range"),
            (&zeroed, spec, "all-zero weights"),
        ];
        for (graph, spec, want) in &cases {
            let fresh = planner.plan_quantized(graph, spec).unwrap_err().to_string();
            assert!(fresh.contains(want), "{fresh}");
            // A cache entry for this graph: the float plan's decisions are
            // the quantized plan's (all whole-map), stored under its key.
            let key = PlanKey::for_build(
                graph,
                2018,
                BlockingPattern::hierarchical(2),
                Some(&unblocked),
                Backend::Quantized { weight_bits: 8, act_bits: 8 },
                planner.cost_model(),
                KernelPolicy::Auto,
                PadMode::Zero,
            );
            cache.store(&key, &planner.plan(graph).unwrap()).unwrap();
            let hit = cache.load(&key, graph, PadMode::Zero, KernelPolicy::Auto, Some(spec));
            assert!(matches!(hit, Err(crate::cache::PlanCacheError::Incompatible(_))), "{hit:?}");
            // The builder's funnel falls back to fresh planning, which
            // surfaces the planner's own error.
            let funnel = plan_or_load(
                Some((&cache, &key)),
                &planner,
                graph,
                PadMode::Zero,
                KernelPolicy::Auto,
                Some(spec),
                PlanProvenance::Fresh,
            );
            assert_eq!(funnel.unwrap_err().to_string(), fresh);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quantized_backend_rejects_bad_bitwidths() {
        for (w, a) in [(1, 8), (8, 32), (0, 0)] {
            let r = Session::builder()
                .network(vgg16_small(32))
                .backend(Backend::Quantized { weight_bits: w, act_bits: a })
                .build();
            assert!(r.is_err(), "w{w}a{a} should be rejected");
        }
    }

    #[test]
    fn quantized_backend_accepts_explicit_calibration_data() {
        let cal: Vec<Tensor> = (0..2).map(|i| Tensor::filled([1, 3, 32, 32], i as f32)).collect();
        let s = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .calibration(cal)
            .build()
            .unwrap();
        assert!(s.run(&Tensor::filled([1, 3, 32, 32], 0.5)).is_ok());
        // An empty calibration set is an error, not a silent default.
        let r = Session::builder()
            .network(vgg16_small(32))
            .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
            .calibration(Vec::new())
            .build();
        assert!(r.is_err());
    }
}
