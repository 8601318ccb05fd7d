//! The planner: partitions a [`Graph`] into fusion groups under a
//! network-level blocking plan and a pluggable fusion [`CostModel`].
//!
//! This is where [`bconv_core::plan::NetworkPlan`] decisions become actual
//! execution: each conv the plan marks `Blocked` runs as a block
//! convolution inside a [`FusedChain`] fusion group; `Normal` convs (the
//! information-fusion points of the VDSR blocking-depth scheme) and every
//! op the fused dataflow cannot express (strided conv, padded or
//! non-matching pooling, residual `Add`, FC, GAP, upsampling) become
//! whole-map segments with an off-chip boundary on either side.
//!
//! Group *depth* is the cost model's call: the default [`ElementBudget`]
//! cuts on a flat element budget, while [`crate::cost::AccelCost`] asks
//! the `bconv-accel` cycle/memory model and additionally **splices**
//! adjacent compatible groups into a [`FusedPipeline`] (Figure 10's
//! fixed-blocking splice), keeping the group-boundary map in the on-chip
//! extra buffer instead of a DRAM round trip. Every decision is recorded
//! in the plan's [`PlanReport`], so benches and tests can assert the
//! planner's choices, not just its outputs.
//!
//! Planning is one pipeline, and the plan is the compiled artifact. The
//! greedy walk and the splice pass produce a crate-private `PlanDecisions`
//! value — which consecutive nodes fuse under which input [`BlockGrid`],
//! and which groups splice — and `assemble` is the only code that turns
//! decisions into something executable: [`FusedChain`]s,
//! [`FusedPipeline`]s and [`Segment`]s, and, for a quantized plan, the
//! integer form of every whole-map conv / FC node. Every conv is compiled
//! there once; [`crate::exec::PlanExecutor`] is a loop over the result. A
//! fresh plan is walk → assemble; a [`crate::cache::PlanCache`] hit is
//! parse → the same assemble. The walk's own block-convolution solves only
//! validate candidates and are discarded.

use std::sync::Arc;

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{ChainOp, FusedChain, FusedPipeline};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_core::BlockConv2d;
use bconv_quant::qconv::QConv2d;
use bconv_quant::qlinear::QLinear;
use bconv_quant::QParams;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::TensorError;

use crate::cost::{CostModel, ElementBudget, SpliceCost, StageCost};
use crate::ir::{Graph, Node, NodeId, NodeOp, NodeRef};
use crate::quantize::GraphQuantSpec;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerOptions {
    /// Blocking pattern applied to blocked convolutions.
    pub pattern: BlockingPattern,
    /// Per-conv-layer blocking decisions. `None` derives the paper's
    /// "block everything splittable" resolution rule from the graph.
    pub plan: Option<NetworkPlan>,
    /// Block-padding mode (paper §II-F evaluates zero/replicate/reflect).
    pub pad_mode: PadMode,
    /// On-chip working-buffer budget in **elements** for the default
    /// [`ElementBudget`] cost model: a fusion group is cut when extending
    /// it would push the per-block ping-pong buffer pair past the budget.
    /// `None` fuses maximal chains. Ignored when [`Self::cost_model`] is
    /// set. Like [`bconv_core::fusion::MemStats`], this models the
    /// accelerator's feature-map buffers; host-side kernel temporaries
    /// (e.g. the im2col patch matrix) are CPU execution details outside
    /// the budget.
    pub budget_elems: Option<usize>,
    /// Per-layer conv kernel selection for blocked convolutions (direct
    /// loop vs im2col+GEMM; see [`bconv_tensor::kernel`]).
    pub kernel: KernelPolicy,
    /// Fusion cost model deciding group cuts and splices. `None` uses
    /// [`ElementBudget`] over [`Self::budget_elems`] — the planner's
    /// historical behaviour, bitwise.
    pub cost_model: Option<Arc<dyn CostModel>>,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        Self {
            pattern: BlockingPattern::hierarchical(2),
            plan: None,
            pad_mode: PadMode::Zero,
            budget_elems: None,
            kernel: KernelPolicy::default(),
            cost_model: None,
        }
    }
}

/// One executable unit of the compiled plan.
#[derive(Debug, Clone)]
pub enum Segment {
    /// A fusion group executed block-by-block; only its input and output
    /// cross the off-chip boundary.
    Fused {
        /// Node ids covered by the group, in execution order.
        nodes: Vec<NodeId>,
        /// The planned chain.
        chain: FusedChain,
        /// What the group reads.
        input: NodeRef,
    },
    /// Adjacent fusion groups spliced into one pipeline (Figure 10's
    /// fixed-blocking splice): group-boundary maps stay in the on-chip
    /// extra buffer, so only the pipeline's input and final output cross
    /// the off-chip boundary. Numerically identical to running the groups
    /// as separate [`Segment::Fused`] segments — the splice is a schedule
    /// change only.
    Spliced {
        /// Node ids covered by all groups, in execution order.
        nodes: Vec<NodeId>,
        /// The spliced groups.
        pipeline: FusedPipeline,
        /// What the first group reads.
        input: NodeRef,
    },
    /// A single node executed on whole feature maps.
    Single(NodeId),
}

impl Segment {
    /// Id of the node whose output this segment produces. Fused segments
    /// always cover at least one node; an empty list would be a
    /// construction bug and falls back to node 0 rather than panicking.
    pub fn output_node(&self) -> NodeId {
        match self {
            Self::Fused { nodes, .. } | Self::Spliced { nodes, .. } => {
                nodes.last().copied().unwrap_or_default()
            }
            Self::Single(id) => *id,
        }
    }

    /// The fusion groups of the segment, each with the nodes it covers
    /// (every chain stage covers exactly one node, so the flat node list
    /// splits back into groups by chain length). Empty for whole-map
    /// segments.
    pub fn groups(&self) -> impl Iterator<Item = (&FusedChain, &[NodeId])> {
        let (chains, mut rest): (&[FusedChain], &[NodeId]) = match self {
            Self::Fused { nodes, chain, .. } => (std::slice::from_ref(chain), nodes),
            Self::Spliced { nodes, pipeline, .. } => (pipeline.groups(), nodes),
            Self::Single(_) => (&[], &[]),
        };
        chains.iter().map(move |chain| {
            let (span, tail) = rest.split_at(chain.len().min(rest.len()));
            rest = tail;
            (chain, span)
        })
    }
}

/// One splice the planner took: the fused-group boundary whose feature map
/// now stays on chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceReport {
    /// Last node of the upstream group.
    pub from_node: NodeId,
    /// First node of the downstream group.
    pub to_node: NodeId,
    /// Off-chip elements the splice saves per batch element (the boundary
    /// map's write + read-back round trip).
    pub saved_offchip_elems: usize,
}

/// Where a compiled plan came from. Recorded in [`PlanReport`] so callers
/// (and `BENCH_serve.json` rows) can tell a freshly planned session from
/// one that loaded a pinned plan or a tuned winner.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PlanProvenance {
    /// The planner walked the graph in this build.
    #[default]
    Fresh,
    /// Deserialized from a [`crate::cache::PlanCache`] entry; no planner
    /// walk ran.
    CacheLoaded {
        /// Canonical form of the [`crate::cache::PlanKey`] that hit.
        key: String,
    },
    /// Planned under a [`mod@crate::tune`] winner's configuration (the walk
    /// ran, but its knobs came from the autotuner, not the caller).
    TuneSelected {
        /// Canonical form of the per-host tune key the winner was cached
        /// under.
        key: String,
    },
}

impl std::fmt::Display for PlanProvenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fresh => write!(f, "fresh"),
            Self::CacheLoaded { key } => write!(f, "cache-loaded:{key}"),
            Self::TuneSelected { key } => write!(f, "tune-selected:{key}"),
        }
    }
}

impl PlanProvenance {
    /// Short label without the key ("fresh" / "cache-loaded" /
    /// "tune-selected") for bench rows and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Fresh => "fresh",
            Self::CacheLoaded { .. } => "cache-loaded",
            Self::TuneSelected { .. } => "tune-selected",
        }
    }
}

/// The planner's decisions, segment structure aside: which cost model
/// ruled, where it cut, and which boundaries it spliced. Benches and
/// tests assert against this instead of reverse-engineering segments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanReport {
    /// Name of the cost model that made the decisions.
    pub cost_model: String,
    /// Nodes the cost model refused to fuse into the running group (a
    /// group cut fell right before each). Structural cuts — fan-out,
    /// non-fusable ops, `Normal` plan entries — are not listed; they are
    /// not the model's choice.
    pub cost_cuts: Vec<NodeId>,
    /// Splices taken, in plan order.
    pub splices: Vec<SpliceReport>,
    /// How the plan reached this session: fresh walk, cache hit, or tuned
    /// configuration.
    pub provenance: PlanProvenance,
}

impl PlanReport {
    /// Total off-chip elements saved per batch element by the splices.
    pub fn spliced_offchip_elems_saved(&self) -> usize {
        self.splices.iter().map(|s| s.saved_offchip_elems).sum()
    }
}

/// One fusion group as the planner decided it: the consecutive nodes it
/// covers and the block grid on its input.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupDecision {
    pub(crate) nodes: Vec<NodeId>,
    pub(crate) grid: BlockGrid,
}

/// One segment of the planner's decisions.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SegmentDecision {
    /// A node executed on whole feature maps.
    Single(NodeId),
    /// One fusion group, or several spliced into a pipeline.
    Groups(Vec<GroupDecision>),
}

/// Everything a compiled plan reduces to: the output of the planner walk,
/// the content of a [`crate::cache::PlanCache`] entry, and the only input
/// (beside the graph and the execution knobs) of [`assemble`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlanDecisions {
    pub(crate) pattern: BlockingPattern,
    /// Covers every graph node exactly once, in node order.
    pub(crate) segments: Vec<SegmentDecision>,
    pub(crate) report: PlanReport,
}

/// The integer form of one whole-map node of a quantized plan, with the
/// calibrated range of the activations it reads. Kept beside the segment
/// list, by node id, because [`Segment::Single`] carries the id alone.
#[derive(Debug, Clone)]
pub(crate) enum QuantSingle {
    /// A dense integer convolution.
    Conv(Arc<QConv2d>, QParams),
    /// An integer FC layer.
    Fc(Arc<QLinear>, QParams),
}

/// A compiled execution plan: the planner's decisions and everything
/// executable assembled from them — the ordered segment list and, for a
/// quantized plan, the integer whole-map ops.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    segments: Vec<Segment>,
    /// Per node id; empty for a float plan.
    quant_singles: Vec<Option<QuantSingle>>,
    decisions: PlanDecisions,
    blocked_convs: usize,
    total_convs: usize,
    act_bits: Option<u8>,
    kernel: KernelPolicy,
}

impl ExecPlan {
    /// The conv kernel policy the plan was assembled under: its fused
    /// stages and integer whole-map convs carry the kernels it resolved,
    /// and the float whole-map convolutions of [`Segment::Single`] nodes
    /// run what it resolves for them.
    pub fn kernel(&self) -> KernelPolicy {
        self.kernel
    }

    /// The integer form of whole-map node `id`: `None` on a float plan,
    /// for ops that stay float on every plan, and for an FC head whose
    /// weights or calibration leave no integer form.
    pub(crate) fn quant_single(&self, id: NodeId) -> Option<&QuantSingle> {
        self.quant_singles.get(id)?.as_ref()
    }

    /// The decisions the plan was assembled from (what a plan cache
    /// stores).
    pub(crate) fn decisions(&self) -> &PlanDecisions {
        &self.decisions
    }

    /// Blocking pattern the plan was compiled under.
    pub fn pattern(&self) -> BlockingPattern {
        self.decisions.pattern
    }

    /// Total convolutions in the source graph (blocked or not).
    pub fn total_convs(&self) -> usize {
        self.total_convs
    }

    /// Activation bitwidth the plan was compiled for: `Some` for a
    /// [`Planner::plan_quantized`] plan (whose fused chains carry integer
    /// stages and whose whole-map convs run as integer ops), `None` for a
    /// float plan. Also the word width feature maps cross the off-chip
    /// boundary at.
    pub fn act_bits(&self) -> Option<u8> {
        self.act_bits
    }

    /// Ordered segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The planner's decision report (cost model, cuts, splices).
    pub fn report(&self) -> &PlanReport {
        &self.decisions.report
    }

    /// Number of fusion groups (spliced pipelines count each constituent
    /// group).
    pub fn fusion_groups(&self) -> usize {
        self.segments.iter().map(|s| s.groups().count()).sum()
    }

    /// Number of convolutions executing as block convolutions.
    pub fn blocked_convs(&self) -> usize {
        self.blocked_convs
    }

    /// Fraction of convolutions that are blocked (Table I's metric, now
    /// measured on the *executable* plan).
    pub fn blocking_ratio(&self) -> f64 {
        if self.total_convs == 0 {
            return 0.0;
        }
        self.blocked_convs as f64 / self.total_convs as f64
    }

    /// Human-readable plan summary, one line per segment.
    pub fn describe(&self, graph: &Graph) -> String {
        let names = |ids: &[NodeId]| -> String {
            let names: Vec<&str> = ids.iter().map(|&n| graph.nodes()[n].name.as_str()).collect();
            names.join(" -> ")
        };
        let pattern = self.pattern();
        let mut out = String::new();
        for (i, seg) in self.segments.iter().enumerate() {
            match seg {
                Segment::Fused { nodes, chain, .. } => {
                    out.push_str(&format!(
                        "segment {i}: fused [{}] under {pattern} ({} blocks)\n",
                        names(nodes),
                        chain.in_grid().num_blocks(),
                    ));
                }
                Segment::Spliced { pipeline, .. } => {
                    let groups: Vec<String> =
                        seg.groups().map(|(_, ids)| format!("[{}]", names(ids))).collect();
                    out.push_str(&format!(
                        "segment {i}: spliced {} under {pattern} ({} groups)\n",
                        groups.join(" => "),
                        pipeline.groups().len(),
                    ));
                }
                Segment::Single(id) => {
                    let node = &graph.nodes()[*id];
                    out.push_str(&format!(
                        "segment {i}: {} ({}, whole-map)\n",
                        node.name,
                        node.op.mnemonic(),
                    ));
                }
            }
        }
        out
    }
}

/// Turns decisions into an executable plan — the only code that solves
/// fused stages and builds [`FusedChain`]s, [`FusedPipeline`]s and
/// [`Segment`]s, shared by fresh planning and cache loads, so the two
/// cannot drift apart. With a quantization spec every conv is built on the
/// integer path here, fused or whole-map, carrying the calibrated
/// activation range of its graph node; an FC head gets an integer form
/// when its weights and calibration allow one and stays float otherwise
/// (not worth failing a build over, unlike a conv trunk).
///
/// Decisions may come from a cache file, so they are checked against the
/// graph rather than trusted: segments must cover the nodes exactly once
/// in order, every fused node but a segment's first must be the sole
/// reader of its predecessor, and each group's grid must tile its input
/// map.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when the decisions do not fit
/// the graph, a stage cannot be blocked under its group's grid, or a conv
/// node has no calibrated activation range in `quant` or all-zero weights.
pub(crate) fn assemble(
    decisions: PlanDecisions,
    graph: &Graph,
    pad: PadMode,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
) -> Result<ExecPlan, TensorError> {
    let nodes = graph.nodes();
    let mut segments = Vec::with_capacity(decisions.segments.len());
    let mut quant_singles = vec![None; quant.map_or(0, |_| nodes.len())];
    let mut blocked_convs = 0usize;
    let mut next_id: NodeId = 0;
    for seg in &decisions.segments {
        match seg {
            SegmentDecision::Single(id) => {
                if *id != next_id || *id >= nodes.len() {
                    return Err(misfit(format!("whole-map node {id} where {next_id} is due")));
                }
                next_id += 1;
                if let Some(spec) = quant {
                    quant_singles[*id] = quant_single(&nodes[*id], *id, spec, kernel)?;
                }
                segments.push(Segment::Single(*id));
            }
            SegmentDecision::Groups(groups) => {
                let first = next_id;
                let mut chains = Vec::with_capacity(groups.len());
                for group in groups {
                    let opens_segment = next_id == first;
                    let chain =
                        assemble_group(group, graph, next_id, opens_segment, pad, kernel, quant)?;
                    blocked_convs += chain.convs().count();
                    next_id += group.nodes.len();
                    chains.push(chain);
                }
                if chains.is_empty() {
                    return Err(misfit("a fused segment without groups".to_string()));
                }
                let (ids, input) = ((first..next_id).collect(), nodes[first].input);
                segments.push(match <[FusedChain; 1]>::try_from(chains) {
                    Ok([chain]) => Segment::Fused { nodes: ids, chain, input },
                    Err(chains) => Segment::Spliced {
                        nodes: ids,
                        pipeline: FusedPipeline::new(chains)?,
                        input,
                    },
                });
            }
        }
    }
    if next_id != nodes.len() {
        return Err(misfit(format!("cover {next_id} of {} nodes", nodes.len())));
    }
    Ok(ExecPlan {
        segments,
        quant_singles,
        decisions,
        blocked_convs,
        total_convs: graph.conv_count(),
        act_bits: quant.map(|spec| spec.act_bits),
        kernel,
    })
}

fn misfit(what: String) -> TensorError {
    TensorError::invalid(format!("plan decisions: {what}"))
}

/// The calibrated input range of conv node `id`.
fn calibrated(spec: &GraphQuantSpec, id: NodeId, node: &Node) -> Result<QParams, TensorError> {
    spec.act_params(id).ok_or_else(|| {
        TensorError::invalid(format!("no calibrated activation range for conv node {}", node.name))
    })
}

/// Compiles the integer form of whole-map node `id`, if the op has one.
fn quant_single(
    node: &Node,
    id: NodeId,
    spec: &GraphQuantSpec,
    kernel: KernelPolicy,
) -> Result<Option<QuantSingle>, TensorError> {
    Ok(match &node.op {
        NodeOp::Conv { conv, .. } => {
            let params = calibrated(spec, id, node)?;
            let q = QConv2d::from_conv_with_kernel(conv, spec.weight_bits, kernel.resolve(conv))
                .ok_or_else(|| {
                    TensorError::invalid(format!("conv node {} has all-zero weights", node.name))
                })?;
            Some(QuantSingle::Conv(Arc::new(q), params))
        }
        NodeOp::Fc(linear) => spec.act_params(id).and_then(|params| {
            let q = QLinear::from_linear(linear, spec.weight_bits)?;
            Some(QuantSingle::Fc(Arc::new(q), params))
        }),
        _ => None,
    })
}

/// Builds the chain of one decided group, which must cover the nodes from
/// `start` on. A group that opens its segment reads a materialised map;
/// any other continues the pipeline of the group before it.
fn assemble_group(
    group: &GroupDecision,
    graph: &Graph,
    start: NodeId,
    opens_segment: bool,
    pad: PadMode,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
) -> Result<FusedChain, TensorError> {
    let end = start + group.nodes.len();
    let span = graph
        .nodes()
        .get(start..end)
        .filter(|span| !span.is_empty() && group.nodes.iter().copied().eq(start..end))
        .ok_or_else(|| {
            misfit(format!("a group of nodes {:?} where node {start} is due", group.nodes))
        })?;
    let s = span[0].in_shape;
    if (group.grid.h(), group.grid.w()) != (s.h, s.w) {
        return Err(misfit(format!("grid {} on the {s} input of node {start}", group.grid)));
    }
    let mut ops = Vec::with_capacity(span.len());
    let mut params = Vec::new();
    for (id, node) in (start..end).zip(span) {
        if (id > start || !opens_segment)
            && (node.input != NodeRef::Node(id - 1) || graph.consumer_count(id - 1) != 1)
        {
            return Err(misfit(format!("node {id} is not fed by node {} alone", id - 1)));
        }
        ops.push(match &node.op {
            NodeOp::Conv { conv, .. } => {
                if let Some(spec) = quant {
                    params.push(calibrated(spec, id, node)?);
                }
                // Weights are shared, not cloned: the chain stage and the
                // graph node hold the same Arc<Conv2d> allocation.
                ChainOp::Conv(Arc::clone(conv))
            }
            NodeOp::Relu => ChainOp::Relu,
            NodeOp::MaxPool { k, s, p } if k == s && *p == 0 => ChainOp::MaxPool { k: *k },
            op => {
                return Err(misfit(format!(
                    "node {id} ({}) cannot be a fused stage",
                    op.mnemonic()
                )));
            }
        });
    }
    let quant = quant.map(|spec| (spec.weight_bits, params.as_slice()));
    FusedChain::plan(ops, group.grid.clone(), pad, kernel, quant)
}

/// Compiles [`Graph`]s into [`ExecPlan`]s.
#[derive(Debug, Clone)]
pub struct Planner {
    opts: PlannerOptions,
    model: Arc<dyn CostModel>,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new(PlannerOptions::default())
    }
}

/// A run of fused groups as the walk and the splice pass see it: the
/// decisions, plus what the cost model needs to judge extending or splicing
/// it. One group while the walk extends it; more once the splice pass has
/// merged neighbours.
struct FusedRun {
    groups: Vec<GroupDecision>,
    first_node: NodeId,
    last_node: NodeId,
    /// Grid on the run's output.
    out_grid: BlockGrid,
    /// The conv/pool stages of every group, in [`StageCost`] units.
    costs: Vec<StageCost>,
    /// Boundary-map sizes at the group joints (elements).
    boundaries: Vec<usize>,
}

/// One walked segment, before the splice pass.
enum Walked {
    Single(NodeId),
    Fused(FusedRun),
}

impl Planner {
    /// Planner with the given options. The effective cost model is
    /// [`PlannerOptions::cost_model`] when set, otherwise [`ElementBudget`]
    /// over [`PlannerOptions::budget_elems`].
    pub fn new(opts: PlannerOptions) -> Self {
        let model = opts
            .cost_model
            .clone()
            .unwrap_or_else(|| Arc::new(ElementBudget::from_option(opts.budget_elems)));
        Self { opts, model }
    }

    /// The effective fusion cost model.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.model.as_ref()
    }

    /// Per-conv-ordinal decisions: the explicit plan when given, otherwise
    /// the resolution rule over the graph's conv nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when an explicit plan does
    /// not cover exactly the graph's conv layers — silently defaulting the
    /// tail would execute a different plan than the caller asked for.
    fn layer_blocking(&self, graph: &Graph) -> Result<Vec<LayerBlocking>, TensorError> {
        if let Some(plan) = &self.opts.plan {
            if plan.len() != graph.conv_count() {
                return Err(TensorError::invalid(format!(
                    "NetworkPlan covers {} conv layers but {} has {}",
                    plan.len(),
                    graph.name(),
                    graph.conv_count()
                )));
            }
            return Ok(plan.per_layer().to_vec());
        }
        let spatial: Vec<bconv_core::analysis::ConvLayerSpatial> = graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, NodeOp::Conv { .. }))
            .map(|n| bconv_core::analysis::ConvLayerSpatial { h: n.in_shape.h, w: n.in_shape.w })
            .collect();
        Ok(NetworkPlan::by_resolution(&spatial, self.opts.pattern).per_layer().to_vec())
    }

    /// Compiles the graph into a segment plan.
    ///
    /// The walk is greedy: a fusion group opens at the first blocked,
    /// fusable conv and extends through consecutive single-consumer
    /// conv/relu/pool nodes while (a) the running [`BlockGrid`] stays
    /// valid (Equation 2 solvable, pooling aligned) and (b) the cost model
    /// accepts the extension. Anything else cuts the group — an off-chip
    /// boundary, exactly as the paper's normal-convolution fusion points
    /// do. A second pass then offers adjacent compatible groups to the
    /// cost model for splicing into [`FusedPipeline`] segments, and the
    /// resulting decisions are assembled into chains.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when an explicit [`NetworkPlan`] does not
    /// cover exactly the graph's conv layers, or if a planned chain fails
    /// to re-validate (cannot happen for grids the trial walk accepted).
    pub fn plan(&self, graph: &Graph) -> Result<ExecPlan, TensorError> {
        self.compile(graph, None, PlanProvenance::Fresh)
    }

    /// [`plan`](Self::plan) with every fused convolution compiled to the
    /// quantized integer path: the fusion-group walk (and therefore the
    /// segment structure) is the float plan's, judged at the spec's
    /// activation bitwidth, and chains are assembled with `spec`'s weight
    /// bitwidth and the calibrated per-node activation ranges. Splices are
    /// taken under the same rules — every group of a quantized plan shares
    /// the spec's activation bitwidth, so [`FusedPipeline`]'s
    /// single-precision rule always permits them.
    ///
    /// Whole-map convs and FC heads are compiled to their integer form
    /// here too, so the plan is all an executor needs.
    ///
    /// # Errors
    ///
    /// As [`plan`](Self::plan), plus [`TensorError::InvalidParameter`] when
    /// a conv node has no calibrated activation range in `spec` or all-zero
    /// weights.
    pub fn plan_quantized(
        &self,
        graph: &Graph,
        spec: &GraphQuantSpec,
    ) -> Result<ExecPlan, TensorError> {
        self.compile(graph, Some(spec), PlanProvenance::Fresh)
    }

    /// Walk → assemble, stamping where the configuration came from.
    pub(crate) fn compile(
        &self,
        graph: &Graph,
        quant: Option<&GraphQuantSpec>,
        provenance: PlanProvenance,
    ) -> Result<ExecPlan, TensorError> {
        let mut decisions = self.walk(graph, quant.map_or(32, |spec| spec.act_bits))?;
        decisions.report.provenance = provenance;
        assemble(decisions, graph, self.opts.pad_mode, self.opts.kernel, quant)
    }

    /// The greedy walk plus the splice pass, for feature maps of `bits`
    /// per element: the planner's decisions, nothing built.
    pub(crate) fn walk(&self, graph: &Graph, bits: u8) -> Result<PlanDecisions, TensorError> {
        let layer_blocking = self.layer_blocking(graph)?;
        let mut report =
            PlanReport { cost_model: self.model.name().to_string(), ..PlanReport::default() };
        let mut walked: Vec<Walked> = Vec::new();
        let mut open: Option<FusedRun> = None;

        for (id, node) in graph.nodes().iter().enumerate() {
            // Can this node extend the currently open group?
            if let Some(mut run) = open.take() {
                let prev = run.last_node;
                let continues =
                    node.input == NodeRef::Node(prev) && graph.consumer_count(prev) == 1;
                if continues {
                    match self.try_extend(&mut run, id, node, &layer_blocking, bits) {
                        Extend::Extended => {
                            open = Some(run);
                            continue;
                        }
                        Extend::CutByModel => report.cost_cuts.push(id),
                        Extend::Cut => {}
                    }
                }
                // The node did not join: close the group.
                walked.push(Walked::Fused(run));
            }

            // Try to open a new group at this node; otherwise run it whole.
            open = self.try_open(id, node, &layer_blocking, bits);
            if open.is_none() {
                walked.push(Walked::Single(id));
            }
        }
        walked.extend(open.map(Walked::Fused));

        let segments = self.splice_pass(graph, walked, bits, &mut report);
        Ok(PlanDecisions { pattern: self.opts.pattern, segments, report })
    }

    /// Offers every adjacent pair of fused groups to the cost model for
    /// splicing: the downstream group must read exactly the upstream
    /// group's (single-consumer) output, and the boundary maps must line
    /// up — then the boundary map stays on chip. A pipeline keeps growing
    /// while the model keeps accepting, so three or more groups can splice
    /// into one segment.
    fn splice_pass(
        &self,
        graph: &Graph,
        walked: Vec<Walked>,
        bits: u8,
        report: &mut PlanReport,
    ) -> Vec<SegmentDecision> {
        let mut out: Vec<Walked> = Vec::with_capacity(walked.len());
        for cur in walked {
            let next = match cur {
                Walked::Fused(run) => run,
                single @ Walked::Single(_) => {
                    out.push(single);
                    continue;
                }
            };
            if let Some(Walked::Fused(prev)) = out.last_mut() {
                if let Some(boundary_elems) = self.offer_splice(graph, prev, &next, bits) {
                    report.splices.push(SpliceReport {
                        from_node: prev.last_node,
                        to_node: next.first_node,
                        saved_offchip_elems: 2 * boundary_elems,
                    });
                    prev.groups.extend(next.groups);
                    prev.last_node = next.last_node;
                    prev.out_grid = next.out_grid;
                    prev.costs.extend(next.costs);
                    prev.boundaries.push(boundary_elems);
                    continue;
                }
            }
            out.push(Walked::Fused(next));
        }
        out.into_iter()
            .map(|w| match w {
                Walked::Single(id) => SegmentDecision::Single(id),
                Walked::Fused(run) => SegmentDecision::Groups(run.groups),
            })
            .collect()
    }

    /// Whether `next` can and should splice onto `prev`: the size of the
    /// boundary map that then stays on chip, in elements.
    fn offer_splice(
        &self,
        graph: &Graph,
        prev: &FusedRun,
        next: &FusedRun,
        bits: u8,
    ) -> Option<usize> {
        // The downstream group must read exactly the upstream group's
        // output, the boundary must have no other consumer, and the maps
        // must line up — the conditions FusedPipeline::new validates
        // (one precision throughout holds for every plan).
        let compatible = graph.nodes()[next.first_node].input == NodeRef::Node(prev.last_node)
            && graph.consumer_count(prev.last_node) == 1
            && next.groups.first().is_some_and(|g| {
                (prev.out_grid.h(), prev.out_grid.w()) == (g.grid.h(), g.grid.w())
            });
        let boundary_elems = {
            let s = graph.nodes()[prev.last_node].out_shape;
            s.c * s.h * s.w
        };
        // Peak extra-buffer occupancy of the prospective pipeline: while a
        // middle group runs, its source and destination boundary maps are
        // both resident, so the peak is the largest adjacent-boundary pair.
        let peak_extra_elems = prev
            .boundaries
            .last()
            .map_or(boundary_elems, |&b| b + boundary_elems)
            .max(prev.boundaries.windows(2).map(|w| w[0] + w[1]).max().unwrap_or(0));
        let boundary = SpliceCost { boundary_elems, peak_extra_elems, bits_per_elem: bits };
        (compatible && self.model.allow_splice(&prev.costs, &next.costs, &boundary))
            .then_some(boundary_elems)
    }

    /// Solves one stage on the running grid: the grid it leaves behind and
    /// its [`StageCost`] (`None` for the in-place ReLU, which costs the
    /// model nothing). `None` overall when `node` cannot be a fused stage
    /// here — a structural cut, not the model's.
    fn solve_stage(
        &self,
        node: &Node,
        layer_blocking: &[LayerBlocking],
        grid: &BlockGrid,
        bits: u8,
    ) -> Option<(BlockGrid, Option<StageCost>)> {
        let (out_grid, macs) = match &node.op {
            NodeOp::Relu => return Some((grid.clone(), None)),
            // Fused pooling is k×k/stride-k only, on aligned block borders.
            NodeOp::MaxPool { k, s, p } if k == s && *p == 0 => (grid.downscale(*k).ok()?, 0),
            NodeOp::Conv { conv, conv_ordinal } => {
                // Strided convs run whole-map (paper §II-F rewrites them
                // to conv + pool instead); a Normal conv is a fusion
                // point; and in mixed-pattern plans only the session
                // pattern fuses.
                let blocked = layer_blocking.get(*conv_ordinal).copied();
                if conv.geom().stride != 1
                    || blocked != Some(LayerBlocking::Blocked(self.opts.pattern))
                {
                    return None;
                }
                // `None` here: Equation 2 unsolvable for this geometry.
                let bconv = BlockConv2d::plan_with_kernel(
                    Arc::clone(conv),
                    grid.clone(),
                    self.opts.pad_mode,
                    self.opts.kernel,
                )
                .ok()?;
                (bconv.output_grid().ok()?, bconv.macs())
            }
            _ => return None,
        };
        let (i, o) = (node.in_shape, node.out_shape);
        let cost = StageCost {
            in_block_elems: grid.max_block_area() * i.c,
            out_block_elems: out_grid.max_block_area() * o.c,
            in_map_elems: i.c * i.h * i.w,
            out_map_elems: o.c * o.h * o.w,
            macs,
            bits_per_elem: bits,
        };
        Some((out_grid, Some(cost)))
    }

    /// Opens a fusion group if `node` is a blocked, fusable convolution.
    /// The cost model governs fusion-group *depth*, not blocking itself — a
    /// blocked conv whose own buffers exceed the model's capacity still
    /// opens a (single-op) group, so plan semantics stay numerically
    /// invariant under any model.
    fn try_open(
        &self,
        id: NodeId,
        node: &Node,
        layer_blocking: &[LayerBlocking],
        bits: u8,
    ) -> Option<FusedRun> {
        if !matches!(node.op, NodeOp::Conv { .. }) {
            return None;
        }
        // `None` here: resolution too small to split.
        let grid =
            BlockGrid::from_pattern(node.in_shape.h, node.in_shape.w, self.opts.pattern).ok()?;
        let (out_grid, cost) = self.solve_stage(node, layer_blocking, &grid, bits)?;
        Some(FusedRun {
            groups: vec![GroupDecision { nodes: vec![id], grid }],
            first_node: id,
            last_node: id,
            out_grid,
            costs: cost.into_iter().collect(),
            boundaries: Vec::new(),
        })
    }

    /// Attempts to extend the open group with `node`.
    fn try_extend(
        &self,
        run: &mut FusedRun,
        id: NodeId,
        node: &Node,
        layer_blocking: &[LayerBlocking],
        bits: u8,
    ) -> Extend {
        let Some((out_grid, cost)) = self.solve_stage(node, layer_blocking, &run.out_grid, bits)
        else {
            return Extend::Cut;
        };
        if let Some(cost) = cost {
            if !self.model.allow_extend(&run.costs, &cost) {
                return Extend::CutByModel;
            }
            run.costs.push(cost);
        }
        if let Some(group) = run.groups.last_mut() {
            group.nodes.push(id);
        }
        run.last_node = id;
        run.out_grid = out_grid;
        Extend::Extended
    }
}

enum Extend {
    Extended,
    /// Structural cut: the node cannot join any fused group here.
    Cut,
    /// The cost model refused the extension (recorded in the report).
    CutByModel,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AccelCost;
    use crate::ir::{Graph, LowerOptions};
    use bconv_accel::platform::zc706;
    use bconv_models::small::{resnet18_small, vgg16_small};
    use bconv_models::vdsr::vdsr_with_depth;

    fn lower(net: &bconv_models::Network) -> Graph {
        Graph::lower(net, &LowerOptions::default()).unwrap()
    }

    #[test]
    fn vgg_plan_fuses_conv_pool_stages() {
        let g = lower(&vgg16_small(32));
        let plan = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        assert!(plan.fusion_groups() >= 1, "{}", plan.describe(&g));
        // Every conv in VGG-small is stride-1 and splittable at 32x32 under
        // H2x2, so the executable blocking ratio is 1.
        assert!((plan.blocking_ratio() - 1.0).abs() < 1e-9);
        // FC / GAP segments stay whole-map.
        assert!(plan.segments().iter().any(|s| matches!(s, Segment::Single(_))));
        // The default model is the element budget, and with no budget it
        // neither cuts nor splices.
        assert_eq!(plan.report().cost_model, "element-budget");
        assert!(plan.report().cost_cuts.is_empty());
        assert!(plan.report().splices.is_empty());
    }

    #[test]
    fn unblocked_plan_has_no_fusion_groups() {
        let g = lower(&vgg16_small(32));
        let opts = PlannerOptions {
            plan: Some(NetworkPlan::unblocked(g.conv_count())),
            ..PlannerOptions::default()
        };
        let plan = Planner::new(opts).plan(&g).unwrap();
        assert_eq!(plan.fusion_groups(), 0);
        assert_eq!(plan.blocking_ratio(), 0.0);
        assert_eq!(plan.segments().len(), g.nodes().len());
    }

    #[test]
    fn residual_sources_cut_fusion_groups() {
        let g = lower(&resnet18_small(32));
        let plan = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        // No fused group may contain a node with fan-out except as its last
        // node (its output is materialised at the segment boundary).
        for seg in plan.segments() {
            if let Segment::Fused { nodes, .. } = seg {
                for &n in &nodes[..nodes.len() - 1] {
                    assert_eq!(g.consumer_count(n), 1, "fused interior node {n} fans out");
                }
            }
        }
    }

    #[test]
    fn blocking_depth_plan_places_fusion_points() {
        // VDSR with blocking depth 2: every third conv is a whole-map
        // fusion point, so the 6-conv net splits into 2-conv fused groups.
        let net = vdsr_with_depth(24, 24, 6, 8);
        let g = lower(&net);
        let opts = PlannerOptions {
            plan: Some(NetworkPlan::by_blocking_depth(6, BlockingPattern::hierarchical(2), 2)),
            ..PlannerOptions::default()
        };
        let plan = Planner::new(opts).plan(&g).unwrap();
        assert_eq!(plan.fusion_groups(), 2, "{}", plan.describe(&g));
        assert_eq!(plan.blocked_convs(), 4);
    }

    #[test]
    fn mismatched_plan_length_is_rejected() {
        // A plan covering the wrong number of conv layers must error, not
        // silently default the tail to Normal.
        let g = lower(&vgg16_small(32)); // 13 convs
        for wrong in [12, 14, 1] {
            let opts = PlannerOptions {
                plan: Some(NetworkPlan::unblocked(wrong)),
                ..PlannerOptions::default()
            };
            assert!(Planner::new(opts).plan(&g).is_err(), "plan of length {wrong} accepted");
        }
    }

    #[test]
    fn budget_limits_group_depth() {
        let net = vdsr_with_depth(24, 24, 6, 8);
        let g = lower(&net);
        let unlimited = Planner::new(PlannerOptions::default()).plan(&g).unwrap();
        // 12x12 blocks, 8 channels: one conv stage pair needs
        // 12*12*1 + 12*12*8 elements; a budget below two wide stages forces
        // cuts after the first conv.
        let tight = Planner::new(PlannerOptions {
            budget_elems: Some(12 * 12 * 8 + 12 * 12 * 2),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        assert!(tight.fusion_groups() >= unlimited.fusion_groups());
        // Each cut the budget forces is recorded in the report.
        assert!(!tight.report().cost_cuts.is_empty());
        let max_group = |p: &ExecPlan| {
            p.segments()
                .iter()
                .filter_map(|s| match s {
                    Segment::Fused { nodes, .. } => Some(nodes.len()),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        };
        assert!(max_group(&tight) < max_group(&unlimited));
    }

    /// An AccelCost model whose intermediate capacity matches an element
    /// budget of `elems` at 32-bit words, with a generous extra buffer.
    fn accel_like_budget(elems: usize) -> Arc<dyn CostModel> {
        Arc::new(AccelCost::with_buffers(zc706(), (elems as u64) * 32 / 2, 1 << 24))
    }

    #[test]
    fn accel_cost_splices_adjacent_groups() {
        // A budget that cuts VGG-small after conv1-1 leaves two adjacent
        // fused groups; the accel model takes the Figure 10 splice, the
        // element budget does not.
        let g = lower(&vgg16_small(32));
        let budget = 1500usize;
        let element = Planner::new(PlannerOptions {
            budget_elems: Some(budget),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let accel = Planner::new(PlannerOptions {
            cost_model: Some(accel_like_budget(budget)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        assert!(element.report().splices.is_empty());
        assert!(
            !accel.report().splices.is_empty(),
            "accel model took no splice:\n{}",
            accel.describe(&g)
        );
        assert!(accel.segments().iter().any(|s| matches!(s, Segment::Spliced { .. })));
        assert_eq!(accel.report().cost_model, "accel-cost");
        // Both models cut somewhere; the splice re-fuses the boundary.
        assert!(!accel.report().cost_cuts.is_empty());
        assert!(accel.report().spliced_offchip_elems_saved() > 0);
        // Splicing merges segments but keeps every fusion group.
        assert_eq!(accel.fusion_groups(), element.fusion_groups());
        assert!(accel.segments().len() < element.segments().len());
    }

    #[test]
    fn splice_pass_gates_on_adjacent_boundary_pairs() {
        // VDSR under a cut-per-conv budget has 5 fused groups with 4
        // equal boundaries (8ch x 24x24 = 4608 elems). An extra buffer
        // that holds one boundary but not two must stop every pipeline at
        // 2 groups — a middle group would keep both its boundaries
        // resident at once.
        let g = lower(&vdsr_with_depth(24, 24, 6, 8));
        let budget = 12 * 12 * 8 + 12 * 12 * 2;
        let one_boundary_bits = 4608u64 * 32;
        let model = Arc::new(AccelCost::with_buffers(
            zc706(),
            budget as u64 * 32 / 2,
            one_boundary_bits, // < 2 boundaries
        ));
        let plan =
            Planner::new(PlannerOptions { cost_model: Some(model), ..PlannerOptions::default() })
                .plan(&g)
                .unwrap();
        assert!(!plan.report().splices.is_empty(), "{}", plan.describe(&g));
        for seg in plan.segments() {
            if let Segment::Spliced { pipeline, .. } = seg {
                assert_eq!(
                    pipeline.groups().len(),
                    2,
                    "pair-limited extra buffer must cap pipelines at 2 groups:\n{}",
                    plan.describe(&g)
                );
            }
        }
        // A roomy extra buffer splices deeper on the same cuts.
        let deep = Planner::new(PlannerOptions {
            cost_model: Some(Arc::new(AccelCost::with_buffers(
                zc706(),
                budget as u64 * 32 / 2,
                1 << 24,
            ))),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let max_groups = deep
            .segments()
            .iter()
            .filter_map(|s| match s {
                Segment::Spliced { pipeline, .. } => Some(pipeline.groups().len()),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        assert!(max_groups > 2, "{}", deep.describe(&g));
    }

    #[test]
    fn describe_prints_spliced_pipelines() {
        let g = lower(&vgg16_small(32));
        let plan = Planner::new(PlannerOptions {
            cost_model: Some(accel_like_budget(1500)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let d = plan.describe(&g);
        assert!(d.contains("spliced"), "{d}");
        assert!(d.contains("=>"), "{d}");
    }

    #[test]
    fn splice_pass_respects_boundary_fanout() {
        // ResNet residual sources fan out: even a splice-everything model
        // must never splice across a boundary another node still reads.
        let g = lower(&resnet18_small(32));
        let plan = Planner::new(PlannerOptions {
            cost_model: Some(Arc::new(AccelCost::for_platform(zc706()))),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        for seg in plan.segments() {
            let spans: Vec<&[NodeId]> = seg.groups().map(|(_, ids)| ids).collect();
            for upstream in &spans[..spans.len().saturating_sub(1)] {
                let boundary = *upstream.last().unwrap();
                assert_eq!(g.consumer_count(boundary), 1, "spliced boundary {boundary} fans out");
            }
        }
    }

    #[test]
    fn segment_groups_split_the_node_list_by_chain_length() {
        let g = lower(&vgg16_small(32));
        let plan = Planner::new(PlannerOptions {
            cost_model: Some(accel_like_budget(1500)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        for seg in plan.segments() {
            let groups: Vec<_> = seg.groups().collect();
            match seg {
                Segment::Single(_) => assert!(groups.is_empty()),
                Segment::Fused { nodes, chain, .. } => {
                    assert_eq!(groups.len(), 1);
                    assert!(std::ptr::eq(groups[0].0, chain));
                    assert_eq!(groups[0].1, nodes.as_slice());
                }
                Segment::Spliced { nodes, pipeline, .. } => {
                    assert_eq!(groups.len(), pipeline.groups().len());
                    let flat: Vec<NodeId> =
                        groups.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
                    assert_eq!(&flat, nodes);
                    for (chain, ids) in groups {
                        assert_eq!(chain.len(), ids.len());
                    }
                }
            }
        }
    }

    #[test]
    fn assemble_rejects_decisions_that_do_not_fit_the_graph() {
        // Decisions can come from a cache file: anything that is not the
        // in-order partition into wired chains the walk produces must be a
        // typed error, never a plan that executes something else.
        let g = lower(&resnet18_small(32));
        let planner = Planner::new(PlannerOptions::default());
        let good = planner.walk(&g, 32).unwrap();
        let build = |d: PlanDecisions| assemble(d, &g, PadMode::Zero, KernelPolicy::Auto, None);
        assert!(build(good.clone()).is_ok());

        let first_group = good
            .segments
            .iter()
            .position(|s| matches!(s, SegmentDecision::Groups(_)))
            .expect("resnet plans at least one fused group");
        let mutate = |f: &dyn Fn(&mut Vec<SegmentDecision>)| {
            let mut d = good.clone();
            f(&mut d.segments);
            d
        };
        let bad = [
            // A segment dropped, duplicated, or out of order.
            mutate(&|s| drop(s.remove(0))),
            mutate(&|s| s.insert(0, s[0].clone())),
            mutate(&|s| s.swap(0, 1)),
            mutate(&|s| drop(s.pop())),
            // A node past the end of the graph.
            mutate(&|s| s.push(SegmentDecision::Single(g.nodes().len()))),
            // Empty groups.
            mutate(&|s| s[first_group] = SegmentDecision::Groups(Vec::new())),
            mutate(&|s| {
                if let SegmentDecision::Groups(groups) = &mut s[first_group] {
                    groups[0].nodes.clear();
                }
            }),
            // A grid that does not tile the group's input map.
            mutate(&|s| {
                if let SegmentDecision::Groups(groups) = &mut s[first_group] {
                    groups[0].grid = BlockGrid::single(3, 3);
                }
            }),
            // Everything in one "group": Add / GAP / FC nodes cannot fuse
            // and residual sources fan out.
            mutate(&|s| {
                let grid = BlockGrid::single(32, 32);
                *s = vec![SegmentDecision::Groups(vec![GroupDecision {
                    nodes: (0..g.nodes().len()).collect(),
                    grid,
                }])];
            }),
        ];
        for (i, d) in bad.into_iter().enumerate() {
            assert!(build(d).is_err(), "misfit decisions #{i} were assembled");
        }

        // Splicing two groups across a boundary another node still reads
        // (a residual source) would keep that map on chip and starve the
        // other reader.
        let mut fanout_pairs = 0;
        for i in 0..good.segments.len() - 1 {
            let (SegmentDecision::Groups(a), SegmentDecision::Groups(b)) =
                (&good.segments[i], &good.segments[i + 1])
            else {
                continue;
            };
            let boundary = *a.last().and_then(|grp| grp.nodes.last()).unwrap();
            if g.consumer_count(boundary) == 1 {
                continue;
            }
            fanout_pairs += 1;
            let mut d = good.clone();
            d.segments[i] = SegmentDecision::Groups([a.as_slice(), b.as_slice()].concat());
            d.segments.remove(i + 1);
            assert!(build(d).is_err(), "spliced across fan-out boundary {boundary}");
        }
        assert!(fanout_pairs > 0, "resnet should have adjacent groups cut by fan-out");
    }

    #[test]
    fn cost_model_and_budget_resolution() {
        // An explicit cost model wins over budget_elems; without one the
        // budget is wrapped in ElementBudget.
        let p = Planner::new(PlannerOptions {
            budget_elems: Some(10),
            cost_model: Some(Arc::new(ElementBudget::unbounded())),
            ..PlannerOptions::default()
        });
        assert_eq!(p.cost_model().name(), "element-budget");
        let g = lower(&vdsr_with_depth(24, 24, 6, 8));
        // Unbounded explicit model: one fused group despite the budget.
        let plan = p.plan(&g).unwrap();
        assert!(plan.report().cost_cuts.is_empty(), "{}", plan.describe(&g));
    }
}
