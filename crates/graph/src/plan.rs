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
//! Group *depth* is the cost model's call wherever a stage would grow the
//! group's block buffers: the default [`ElementBudget`]
//! cuts on a flat element budget, while [`crate::cost::AccelCost`] asks
//! the `bconv-accel` buffer-capacity model and additionally **splices**
//! adjacent compatible groups, keeping the group-boundary map on chip
//! instead of a DRAM round trip. Every decision is recorded in the plan's
//! [`PlanReport`], so benches and tests can assert the planner's choices,
//! not just its outputs.
//!
//! Planning is one pipeline, and the plan is the compiled artifact. The
//! greedy walk and the splice pass produce a crate-private `PlanDecisions`
//! value — which consecutive nodes fuse under which input [`BlockGrid`],
//! and which groups splice — and `assemble` is the only code that turns
//! decisions into something executable: [`FusedChain`]s,
//! [`FusedPipeline`]s and [`Segment`]s, plus the compiled form of every
//! whole-map conv — a one-step chain on [`BlockGrid::single`], since a
//! normal convolution is block convolution with one block — and, for a
//! quantized plan, of every FC node. Spliced groups that
//! share one block layout — each opening on the grid the one before
//! leaves behind, as under hierarchical blocking — assemble into one
//! chain, so each block flows through all their stages (the paper's
//! independent spatial sub-networks); only a joint that re-grids (fixed
//! blocking cut after a pool, Figure 10's extra buffer) becomes a
//! [`FusedPipeline`]. Every conv is compiled
//! there once; [`crate::exec::PlanExecutor`] is a loop over the result. A
//! fresh plan is walk → assemble; a [`crate::cache::PlanCache`] hit is
//! parse → the same assemble. The walk's own block-convolution solves only
//! validate candidates and are discarded.

use std::sync::Arc;

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{ChainOp, FusedChain, FusedPipeline};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_core::BlockConv2d;
use bconv_quant::qlinear::QLinear;
use bconv_quant::QParams;
use bconv_tensor::kernel::{lane_tile, KernelPolicy};
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
    /// `None` fuses maximal chains. [`Planner::new`] prefers
    /// [`Self::cost_model`] when both are set, while a session build
    /// refuses the pair as ambiguous (`PlanSpec::cost_model` and
    /// `PlanSpec::on_chip_budget` are exclusive). Like
    /// [`bconv_core::fusion::MemStats`], this models the
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
    /// cross the off-chip boundary. A run of spliced groups that share one
    /// block layout — each reading exactly the grid the one before leaves
    /// behind, so block *i* of a group reads only block *i* of its
    /// predecessor — compiles into this one chain too: every block flows
    /// through all of the run's stages, and no boundary map exists.
    Fused {
        /// Node ids covered by the group, in execution order.
        nodes: Vec<NodeId>,
        /// The planned chain.
        chain: FusedChain,
        /// What the group reads.
        input: NodeRef,
    },
    /// Spliced fusion groups whose joints re-grid (Figure 10's
    /// fixed-blocking splice, e.g. fixed blocks merged after a pooling):
    /// each joint's boundary map stays in the on-chip extra buffer and is
    /// re-tiled for the next chain, so only the pipeline's input and final
    /// output cross the off-chip boundary. Aligned groups between two such
    /// joints are one chain of the pipeline. Numerically identical to
    /// running the groups as separate [`Segment::Fused`] segments — the
    /// splice is a schedule change only.
    Spliced {
        /// Node ids covered by all groups, in execution order.
        nodes: Vec<NodeId>,
        /// The chains, one per run of aligned groups.
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

    /// The chains of the segment, each with the nodes it covers (every
    /// chain stage covers exactly one node, so the flat node list splits
    /// back into chains by chain length). A chain may hold several aligned
    /// fusion groups; [`ExecPlan::fusion_groups`] counts the groups. Empty
    /// for whole-map segments.
    pub fn chains(&self) -> impl Iterator<Item = (&FusedChain, &[NodeId])> {
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
        /// The exploration's identity, [`crate::tune::TuneReport::key`].
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
    /// One fusion group, or several spliced together.
    Groups(Vec<GroupDecision>),
}

impl SegmentDecision {
    /// The number of fusion groups the segment holds.
    pub(crate) fn groups(&self) -> usize {
        match self {
            Self::Single(_) => 0,
            Self::Groups(groups) => groups.len(),
        }
    }
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

/// The compiled form of one whole-map node, kept beside the segment list
/// by node id because [`Segment::Single`] carries the id alone.
#[derive(Debug, Clone)]
pub(crate) enum WholeMap {
    /// A convolution, at either precision: a one-step chain on one block,
    /// zero-padded whatever the session's block pad mode. It may read a
    /// map its producer staged, and stage its own output for its reader
    /// ([`FusedChain::stage_into`]).
    Conv(FusedChain),
    /// An integer FC layer with the calibrated range of its input.
    Fc(Arc<QLinear>, QParams),
}

/// A compiled execution plan: the planner's decisions and everything
/// executable assembled from them — the ordered segment list and the
/// compiled whole-map nodes.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    segments: Vec<Segment>,
    /// Per node id: set for whole-map convs, and for the FC nodes of a
    /// quantized plan that have an integer form.
    whole_map: Vec<Option<WholeMap>>,
    /// Per node id: set for an `Add` folded into the fused segment before
    /// it ([`FusedChain::run_residual_into`]). The `Add` keeps its own
    /// [`Segment::Single`], which runs nothing.
    folded: Vec<bool>,
    decisions: PlanDecisions,
    blocked_convs: usize,
    total_convs: usize,
    act_bits: Option<u8>,
    kernel: KernelPolicy,
}

impl ExecPlan {
    /// The conv kernel policy the plan was assembled under: every conv it
    /// runs, fused or whole-map, at either precision, sits in a chain that
    /// carries the kernel this policy resolved for it.
    pub fn kernel(&self) -> KernelPolicy {
        self.kernel
    }

    /// The compiled form of whole-map node `id`: `None` for ops the
    /// executor evaluates as they are (pools, ReLU, `Add`, GAP, upsampling,
    /// float FCs, and an FC head whose weights or calibration leave no
    /// integer form).
    pub(crate) fn whole_map(&self, id: NodeId) -> Option<&WholeMap> {
        self.whole_map.get(id)?.as_ref()
    }

    /// Whether node `id` is an `Add` folded into the fused segment before
    /// it: that segment's chain stores the sum as the `Add`'s value, and the
    /// `Add`'s own segment runs nothing.
    pub(crate) fn folded(&self, id: NodeId) -> bool {
        self.folded.get(id).copied().unwrap_or(false)
    }

    /// The chains of `seg` with the nodes each covers: a fused or spliced
    /// segment's ([`Segment::chains`]), or the one-block chain of a
    /// whole-map conv.
    pub(crate) fn chains_of<'a>(
        &'a self,
        seg: &'a Segment,
    ) -> impl Iterator<Item = (&'a FusedChain, &'a [NodeId])> {
        let single = match seg {
            Segment::Single(id) => match self.whole_map(*id) {
                Some(WholeMap::Conv(chain)) => Some((chain, std::slice::from_ref(id))),
                _ => None,
            },
            _ => None,
        };
        seg.chains().chain(single)
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

    /// Number of fusion groups the planner decided (spliced segments count
    /// each constituent group, also where aligned groups run as one chain).
    pub fn fusion_groups(&self) -> usize {
        self.decisions.segments.iter().map(SegmentDecision::groups).sum()
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

    /// Human-readable plan summary, one line per segment. A fused segment
    /// that holds several aligned groups says how many, and one that folds
    /// the residual add after it names the add, whose line says so.
    pub fn describe(&self, graph: &Graph) -> String {
        let names = |ids: &[NodeId]| -> String {
            let names: Vec<&str> = ids.iter().map(|&n| graph.nodes()[n].name.as_str()).collect();
            names.join(" -> ")
        };
        let pattern = self.pattern();
        let mut out = String::new();
        // Assembly keeps one segment per decided segment.
        for (i, (seg, decided)) in self.segments.iter().zip(&self.decisions.segments).enumerate() {
            let groups = decided.groups();
            match seg {
                Segment::Fused { nodes, chain, .. } => {
                    let aligned = if groups > 1 {
                        format!("; {groups} aligned groups")
                    } else {
                        String::new()
                    };
                    let add = seg.output_node() + 1;
                    let residual = match self.folded(add) {
                        true => format!(" + {}", graph.nodes()[add].name),
                        false => String::new(),
                    };
                    out.push_str(&format!(
                        "segment {i}: fused [{}] under {pattern} ({} blocks{aligned}){residual}\n",
                        names(nodes),
                        chain.in_grid().num_blocks(),
                    ));
                }
                Segment::Spliced { .. } => {
                    let chains: Vec<String> =
                        seg.chains().map(|(_, ids)| format!("[{}]", names(ids))).collect();
                    out.push_str(&format!(
                        "segment {i}: spliced {} under {pattern} ({groups} groups)\n",
                        chains.join(" => "),
                    ));
                }
                Segment::Single(id) => {
                    let node = &graph.nodes()[*id];
                    let how = match self.folded(*id) {
                        true => format!("folded into segment {}", i.saturating_sub(1)),
                        false => "whole-map".to_string(),
                    };
                    out.push_str(&format!(
                        "segment {i}: {} ({}, {how})\n",
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
/// cannot drift apart. Every conv becomes a chain here, a whole-map one a
/// one-step chain on one block; with a quantization spec every conv is
/// built on the integer path, carrying the calibrated activation range of
/// its graph node, and an FC head gets an integer form when its weights
/// and calibration allow one and stays float otherwise (not worth failing
/// a build over, unlike a conv trunk). Staging is one rule: the chain that
/// stores a segment's output stages it for the node's sole reader when
/// that is a one-block chain on an exact-f32 conv
/// ([`FusedChain::stage_into`]). Folding is another: a residual `Add` that
/// sums a fused segment's output with the segment's own input runs inside
/// that segment's chain when the fold holds no more on chip than the add
/// ([`folds_residual`]).
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
    // Whole-map nodes first: a segment may stage its output for one.
    let mut whole_map = vec![None; nodes.len()];
    for seg in &decisions.segments {
        if let SegmentDecision::Single(id) = *seg {
            if let Some(node) = nodes.get(id) {
                whole_map[id] = compile_whole_map(node, id, kernel, quant)?;
            }
        }
    }
    let mut folded = vec![false; nodes.len()];
    let mut blocked_convs = 0usize;
    let mut next_id: NodeId = 0;
    for seg in &decisions.segments {
        match seg {
            SegmentDecision::Single(id) => {
                if *id != next_id || *id >= nodes.len() {
                    return Err(misfit(format!("whole-map node {id} where {next_id} is due")));
                }
                next_id += 1;
                let mut entry = whole_map[*id].take();
                if let Some(WholeMap::Conv(chain)) = &mut entry {
                    stage_output(graph, &mut whole_map, *id, chain);
                }
                whole_map[*id] = entry;
                segments.push(Segment::Single(*id));
            }
            SegmentDecision::Groups(groups) => {
                // Each maximal run of aligned groups — every one reading
                // the grid the one before leaves — compiles into one
                // chain; a pipeline joins the chains where the grid
                // changes.
                let first = next_id;
                let mut chains: Vec<FusedChain> = Vec::with_capacity(groups.len());
                for group in groups {
                    let (ops, params) = group_ops(group, graph, next_id, next_id == first, quant)?;
                    next_id += group.nodes.len();
                    let quant = quant.map(|spec| (spec.weight_bits, params.as_slice()));
                    let chain = match chains.pop() {
                        Some(run) if *run.out_grid() == group.grid => {
                            run.extend(ops, pad, kernel, quant)?
                        }
                        run => {
                            // The joint re-grids: the chain before it stays.
                            chains.extend(run);
                            FusedChain::plan(ops, group.grid.clone(), pad, kernel, quant)?
                        }
                    };
                    chains.push(chain);
                }
                let Some(last) = chains.last_mut() else {
                    return Err(misfit("a fused segment without groups".to_string()));
                };
                stage_output(graph, &mut whole_map, next_id - 1, last);
                blocked_convs += chains.iter().map(|chain| chain.convs().count()).sum::<usize>();
                let (ids, input) = ((first..next_id).collect(), nodes[first].input);
                segments.push(match <[FusedChain; 1]>::try_from(chains) {
                    Ok([chain]) => {
                        if folds_residual(graph, next_id - 1, input, &chain) {
                            folded[next_id] = true;
                        }
                        Segment::Fused { nodes: ids, chain, input }
                    }
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
        whole_map,
        folded,
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

/// Compiles whole-map node `id`: a conv into a one-step chain on one
/// zero-padded block at the plan's precision, an FC head on a quantized
/// plan into its integer form when its weights and calibration allow one.
fn compile_whole_map(
    node: &Node,
    id: NodeId,
    kernel: KernelPolicy,
    quant: Option<&GraphQuantSpec>,
) -> Result<Option<WholeMap>, TensorError> {
    Ok(match &node.op {
        NodeOp::Conv { conv, .. } => {
            let params = quant.map(|spec| calibrated(spec, id, node)).transpose()?;
            let quant = quant.zip(params.as_ref());
            let quant = quant.map(|(spec, p)| (spec.weight_bits, std::slice::from_ref(p)));
            let grid = BlockGrid::single(node.in_shape.h, node.in_shape.w);
            let ops = vec![ChainOp::Conv(Arc::clone(conv))];
            Some(WholeMap::Conv(FusedChain::plan(ops, grid, PadMode::Zero, kernel, quant)?))
        }
        NodeOp::Fc(linear) => quant.and_then(|spec| {
            let params = spec.act_params(id)?;
            let q = QLinear::from_linear(linear, spec.weight_bits)?;
            Some(WholeMap::Fc(Arc::new(q), params))
        }),
        _ => None,
    })
}

/// Stages the map `from` stores as node `id`'s value for the node's sole
/// reader, when that reader is a whole-map conv whose chain reads staged
/// maps ([`FusedChain::stage_into`]). The graph output is never staged.
fn stage_output(
    graph: &Graph,
    whole_map: &mut [Option<WholeMap>],
    id: NodeId,
    from: &mut FusedChain,
) {
    if graph.consumer_count(id) != 1 || id == graph.output_id() {
        return;
    }
    let reader = graph.nodes().iter().position(|node| node.input == NodeRef::Node(id));
    if let Some(Some(WholeMap::Conv(to))) = reader.map(|j| &mut whole_map[j]) {
        from.stage_into(to);
    }
}

/// Whether the node after fused segment output `id` is a residual `Add`
/// that folds into the segment's chain ([`FusedChain::run_residual_into`]):
/// it reads `id`, the only reader of `id`, and the segment's `input`, in
/// either order; the chain's output map has its input's shape; and the
/// chain's one-image peak with the residual's input block held
/// ([`FusedChain::residual_peak`]) is at most the add's own three maps, so
/// the fold never raises a plan's peak. A spliced pipeline never folds: it
/// runs every block of a group before the next group, so it would hold the
/// whole input map.
fn folds_residual(graph: &Graph, id: NodeId, input: NodeRef, chain: &FusedChain) -> bool {
    let Some(add) = graph.nodes().get(id + 1) else {
        return false;
    };
    let NodeOp::Add { other } = add.op else {
        return false;
    };
    let out = NodeRef::Node(id);
    let operands = [(out, input), (input, out)].contains(&(add.input, other));
    let add_live = 3 * add.out_shape.numel();
    operands
        && graph.consumer_count(id) == 1
        && chain.residual_peak().is_some_and(|peak| peak <= add_live)
}

/// The chain ops of one decided group, which must cover the nodes from
/// `start` on, with the calibrated input range of each of its convs on a
/// quantized plan. A group that opens its segment reads a materialised
/// map; any other continues the group before it.
fn group_ops(
    group: &GroupDecision,
    graph: &Graph,
    start: NodeId,
    opens_segment: bool,
    quant: Option<&GraphQuantSpec>,
) -> Result<(Vec<ChainOp>, Vec<QParams>), TensorError> {
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
    Ok((ops, params))
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
    /// Whether a pooling can fold here: the run ends at a convolution, or
    /// at ReLUs after one, that no pooling has folded into.
    poolable: bool,
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
    /// valid (Equation 2 solvable, pooling aligned, every conv on the
    /// pattern's grid at its input size) and (b) the stage's ping-pong pair
    /// fits the largest one the group already holds, or the cost model
    /// accepts the larger pair. Anything else cuts the group — an off-chip
    /// boundary, exactly as the paper's normal-convolution fusion points
    /// do. A second pass then offers adjacent compatible groups to the
    /// cost model for splicing, and the resulting decisions are assembled
    /// into chains (aligned spliced groups into one, re-gridding joints
    /// into [`FusedPipeline`] segments).
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
        let out_grid = match &node.op {
            NodeOp::Relu => return Some((grid.clone(), None)),
            // Fused pooling is k×k/stride-k only, on aligned block borders.
            NodeOp::MaxPool { k, s, p } if k == s && *p == 0 => grid.downscale(*k).ok()?,
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
                // A conv runs on the pattern's grid at its own input size,
                // wherever the cost model cut. Under a fixed pattern a pool
                // keeps the block count, not the block size, so a pool that
                // re-grids ends the group and the next conv opens afresh.
                let (h, w) = (node.in_shape.h, node.in_shape.w);
                if BlockGrid::from_pattern(h, w, self.opts.pattern).ok().as_ref() != Some(grid) {
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
                bconv.output_grid().ok()?
            }
            _ => return None,
        };
        let cost = StageCost {
            in_block_elems: grid.max_block_area() * node.in_shape.c,
            out_block_elems: out_grid.max_block_area() * node.out_shape.c,
            bits_per_elem: bits,
        };
        Some((out_grid, Some(cost)))
    }

    /// Opens a fusion group if `node` is a blocked, fusable convolution.
    /// The cost model governs fusion-group *depth*, not blocking itself — a
    /// blocked conv whose own buffers exceed the model's capacity still
    /// opens a (single-op) group, so plan semantics stay numerically
    /// invariant under any model. Its ping-pong pair is then granted:
    /// [`try_extend`](Self::try_extend) lets later stages reuse it without
    /// asking the model.
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
            poolable: true,
        })
    }

    /// Attempts to extend the open group with `node`. A max pooling joins
    /// only by folding into the store of the convolution before it (ReLUs
    /// between them allowed; one pooling per convolution, at most
    /// [`lane_tile::MAX_POOL`] wide); any other pooling is a structural cut
    /// and runs on the whole map. A stage whose ping-pong pair fits the
    /// largest pair the group already holds reuses buffers that are
    /// granted, so it extends without asking the cost model; only a stage
    /// that would grow the group's buffers is the model's decision.
    fn try_extend(
        &self,
        run: &mut FusedRun,
        id: NodeId,
        node: &Node,
        layer_blocking: &[LayerBlocking],
        bits: u8,
    ) -> Extend {
        let pool = match node.op {
            NodeOp::MaxPool { k, .. } => Some(k),
            _ => None,
        };
        if pool.is_some_and(|k| !run.poolable || k > lane_tile::MAX_POOL) {
            return Extend::Cut;
        }
        let Some((out_grid, cost)) = self.solve_stage(node, layer_blocking, &run.out_grid, bits)
        else {
            return Extend::Cut;
        };
        if let Some(cost) = cost {
            let granted = run.costs.iter().map(StageCost::pair_elems).max().unwrap_or(0);
            if cost.pair_elems() > granted && !self.model.allow_extend(&cost) {
                return Extend::CutByModel;
            }
            run.costs.push(cost);
        }
        if let Some(group) = run.groups.last_mut() {
            group.nodes.push(id);
        }
        run.last_node = id;
        run.out_grid = out_grid;
        run.poolable = match node.op {
            NodeOp::Conv { .. } => true,
            NodeOp::MaxPool { .. } => false,
            _ => run.poolable,
        };
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

    #[test]
    fn stages_within_the_granted_pair_extend_without_asking() {
        // H2 on 16x16 (8x8 blocks, 64 px): conv1's pair (2 + 8) x 64 =
        // 640 elements opens over a capacity of 300 and is granted;
        // conv2's (8 + 1) x 64 = 576 is over capacity but fits the
        // granted pair; conv3's (1 + 16) x 64 = 1088 would grow the
        // buffers, so the model is asked and refuses.
        use bconv_models::builder::{conv, NetBuilder};
        let mut b = NetBuilder::new("granted", bconv_models::ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, 8));
        b.push("conv2", conv(3, 1, 1, 8, 1));
        b.push("conv3", conv(3, 1, 1, 1, 16));
        let g = lower(&b.build());
        let capacity = 300;
        let budget = PlannerOptions { budget_elems: Some(capacity), ..PlannerOptions::default() };
        let accel = PlannerOptions {
            cost_model: Some(accel_like_budget(capacity)),
            ..PlannerOptions::default()
        };
        for opts in [budget, accel] {
            let plan = Planner::new(opts).plan(&g).unwrap();
            let groups: Vec<Vec<NodeId>> = plan
                .decisions()
                .segments
                .iter()
                .flat_map(|s| match s {
                    SegmentDecision::Groups(groups) => groups.clone(),
                    SegmentDecision::Single(_) => Vec::new(),
                })
                .map(|group| group.nodes)
                .collect();
            assert_eq!(groups, [vec![0, 1], vec![2]], "{}", plan.describe(&g));
            assert_eq!(plan.report().cost_cuts, [2], "{}", plan.describe(&g));
        }
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
        // The spliced groups share one block layout (H2x2 throughout), so
        // each splice runs inside one chain: no pipeline, no boundary map.
        assert!(!accel.segments().iter().any(|s| matches!(s, Segment::Spliced { .. })));
        for splice in &accel.report().splices {
            let joined = |s: &Segment| match s {
                Segment::Fused { nodes, .. } => {
                    nodes.contains(&splice.from_node) && nodes.contains(&splice.to_node)
                }
                _ => false,
            };
            assert!(accel.segments().iter().any(joined), "{splice:?}:\n{}", accel.describe(&g));
        }
        assert_eq!(accel.report().cost_model, "accel-cost");
        // Both models cut somewhere; the splice re-fuses the boundary.
        assert!(!accel.report().cost_cuts.is_empty());
        assert!(accel.report().spliced_offchip_elems_saved() > 0);
        // Splicing merges segments but keeps every fusion group.
        assert_eq!(accel.fusion_groups(), element.fusion_groups());
        assert!(accel.segments().len() < element.segments().len());
    }

    /// Six 3×3 convs on a 1×24×24 input, 1 → 4 → 5 → … → 9 channels:
    /// every conv's ping-pong pair is larger than the one before, so a
    /// small enough capacity cuts at every conv.
    fn widening_net() -> bconv_models::Network {
        use bconv_models::builder::{conv, NetBuilder};
        let mut b = NetBuilder::new("widening", bconv_models::ActShape { c: 1, h: 24, w: 24 });
        let mut c_in = 1;
        for (i, c_out) in (4..=9).enumerate() {
            b.push(format!("conv{}", i + 1), conv(3, 1, 1, c_in, c_out));
            c_in = c_out;
        }
        b.build()
    }

    #[test]
    fn splice_pass_gates_on_adjacent_boundary_pairs() {
        // The widening net under a cut-per-conv capacity (H2: 12x12
        // blocks) has 6 fused groups with 5 boundaries of 4..8 channels
        // x 24x24. An extra buffer that holds the largest boundary but no
        // two adjacent ones must stop every pipeline at 2 groups — a
        // middle group would keep both its boundaries resident at once.
        let g = lower(&widening_net());
        let budget = 12 * 12 * 8;
        let one_boundary_bits = 8 * 24 * 24 * 32;
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
        let spliced_groups = |plan: &ExecPlan| -> Vec<usize> {
            plan.decisions()
                .segments
                .iter()
                .map(SegmentDecision::groups)
                .filter(|&n| n > 1)
                .collect()
        };
        assert!(
            spliced_groups(&plan).iter().all(|&n| n == 2),
            "pair-limited extra buffer must cap splices at 2 groups:\n{}",
            plan.describe(&g)
        );
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
        let max_groups = spliced_groups(&deep).into_iter().max().unwrap_or(0);
        assert!(max_groups > 2, "{}", deep.describe(&g));
        // Every widening-net group keeps the grid, so each splice is one chain.
        for plan in [&plan, &deep] {
            assert!(plan.segments().iter().all(|s| !matches!(s, Segment::Spliced { .. })));
        }
    }

    /// A net whose splice re-grids: under F4 the pool re-grids, so its
    /// group ends there and conv2 opens the next group on 4×4 blocks of
    /// the pooled map, which the pooled grid tiles in 2×2 ones; conv3's
    /// pair is larger than conv2's, so it cuts, and that joint is aligned.
    fn regrid_net() -> bconv_models::Network {
        use bconv_models::builder::{conv, maxpool, NetBuilder};
        let mut b = NetBuilder::new("regrid", bconv_models::ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, 2));
        b.push("pool", maxpool(2, 2, 0));
        b.push("conv2", conv(3, 1, 1, 2, 32));
        b.push("conv3", conv(3, 1, 1, 32, 4));
        b.build()
    }

    #[test]
    fn only_regridding_joints_become_pipelines() {
        let g = lower(&regrid_net());
        let plan = Planner::new(PlannerOptions {
            pattern: BlockingPattern::fixed(4),
            cost_model: Some(accel_like_budget(100)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        assert_eq!(plan.report().splices.len(), 2, "{}", plan.describe(&g));
        assert_eq!((plan.fusion_groups(), plan.segments().len()), (3, 1));
        let Segment::Spliced { pipeline, .. } = &plan.segments()[0] else {
            panic!("the pooled joint re-grids:\n{}", plan.describe(&g));
        };
        // [conv1, pool] => [conv2, conv3]: the aligned joint is one chain.
        let lens: Vec<usize> = pipeline.groups().iter().map(FusedChain::len).collect();
        assert_eq!(lens, [2, 2]);
        let [head, tail] = pipeline.groups() else { unreachable!() };
        assert_eq!(head.out_grid().merge(2).unwrap(), *tail.in_grid());
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
        // vgg16_small's splice is aligned: one chain names both groups.
        let d = plan.describe(&g);
        assert!(d.contains("(4 blocks; 2 aligned groups)"), "{d}");
        assert!(!d.contains("spliced"), "{d}");
        let g = lower(&regrid_net());
        let plan = Planner::new(PlannerOptions {
            pattern: BlockingPattern::fixed(4),
            cost_model: Some(accel_like_budget(100)),
            ..PlannerOptions::default()
        })
        .plan(&g)
        .unwrap();
        let d = plan.describe(&g);
        assert!(d.contains("spliced [conv1 -> pool] => [conv2 -> conv3]"), "{d}");
        assert!(d.contains("(3 groups)"), "{d}");
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
            let spans: Vec<&[NodeId]> = seg.chains().map(|(_, ids)| ids).collect();
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
            let groups: Vec<_> = seg.chains().collect();
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
    fn whole_map_nodes_compile_at_the_plan_precision() {
        // Unblocked: every conv is a one-block chain at the plan's
        // precision, and an FC head has an integer form on a quantized
        // plan only.
        let g = lower(&vgg16_small(32));
        let opts = PlannerOptions {
            plan: Some(NetworkPlan::unblocked(g.conv_count())),
            ..PlannerOptions::default()
        };
        let input = bconv_tensor::init::uniform_tensor(
            [1, 3, 32, 32],
            -1.0,
            1.0,
            &mut bconv_tensor::init::seeded_rng(3),
        );
        let spec = GraphQuantSpec::calibrate(&g, &[input], 8, 8).unwrap();
        let planner = Planner::new(opts);
        for (plan, bits) in [
            (planner.plan(&g).unwrap(), None),
            (planner.plan_quantized(&g, &spec).unwrap(), Some(8)),
        ] {
            for (id, node) in g.nodes().iter().enumerate() {
                match (&node.op, plan.whole_map(id)) {
                    (NodeOp::Conv { .. }, Some(WholeMap::Conv(chain))) => {
                        assert_eq!(chain.in_grid().num_blocks(), 1);
                        assert_eq!(chain.act_bits(), bits, "{}", node.name);
                    }
                    (NodeOp::Fc(_), Some(WholeMap::Fc(..))) => assert!(bits.is_some()),
                    (NodeOp::Fc(_) | NodeOp::Conv { .. }, entry) => {
                        assert!(bits.is_none() && entry.is_none(), "{}: {entry:?}", node.name)
                    }
                    (_, entry) => assert!(entry.is_none(), "{}", node.name),
                }
            }
        }
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
