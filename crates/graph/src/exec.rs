//! Executors: what runs a compiled [`Graph`].
//!
//! The plan is compiled once; the executor is a loop. Two executors ship
//! with the crate:
//!
//! * [`ReferenceExecutor`] — dense layer-wise execution on whole feature
//!   maps; every intermediate makes a DRAM round trip. The numerical and
//!   memory-accounting baseline, on the direct loop on purpose.
//! * [`PlanExecutor`] — walks an [`ExecPlan`]'s segments: fusion groups run
//!   block-by-block through [`bconv_core::fusion::FusedChain`], whole-map
//!   nodes run densely, and [`MemStats`] records the off-chip traffic the
//!   fused schedule avoids. A multi-image input is walked image by image
//!   (the unit of work is one image in one block), so no segment ever
//!   holds more than one image's buffers; its stats follow the batch rule
//!   documented on [`MemStats`]. Precision is a property of the plan, not
//!   of the executor: a plan from
//!   [`crate::plan::Planner::plan_quantized`] carries integer stages in
//!   its chains and an integer form for every whole-map conv / FC node
//!   (the paper's deployment path; see [`crate::quantize`]), a float plan
//!   carries neither, and the same loop runs both.
//!
//! Whole-map integer convs store where the next conv reads, as fused
//! chains do between their stages: an exact-f32 conv
//! ([`bconv_quant::qconv::QuantChainOp::reads_quantized`]) whose sole
//! consumer is another whole-map exact conv writes its output quantized
//! at that conv's input parameters into the interior of a pooled,
//! zero-bordered buffer, and the consumer runs on it in place, skipping
//! the border's taps — no pad copy, no quantize pass. Any other exact conv
//! pads and quantizes its input in one pass; the direct loop, the GEMM and
//! w8a16 layers pad and quantize inside
//! [`bconv_quant::qconv::QConv2d::forward_into`]. The
//! bits are those of the per-layer path, and so are the stats: a staged
//! map counts at its logical size, its border being the padding the
//! consumer adds on the way in, not part of a feature map.
//!
//! Float execution shares one node evaluator, so a graph with an unblocked
//! plan produces bit-identical outputs on `Reference` and `Blocked`;
//! blocking itself only perturbs block-boundary pixels (paper §II-C). A
//! quantized plan substitutes integer convolutions, so it tracks — rather
//! than matches — the float results.
//!
//! Executors are **immutable after construction** ([`Executor`] requires
//! `Send + Sync`): one compiled backend can serve concurrent callers.
//! All per-run mutable state lives in an [`ExecScratch`] owned by the
//! caller — [`Executor::run_scratch`] reuses it across requests so
//! steady-state serving performs no allocation beyond the output tensor
//! handed back in each [`RunReport`] (see [`crate::serve`]).

use std::sync::Arc;

use bconv_core::fusion::{MemStats, PipelineScratch};
use bconv_quant::qconv::QConvScratch;
use bconv_quant::qgemm::Epilogue;
use bconv_quant::qlinear::QLinearScratch;
use bconv_quant::QParams;
use bconv_tensor::activation::relu_inplace;
use bconv_tensor::elementwise::add_into;
use bconv_tensor::kernel::{ConvScratch, KernelPolicy, OutGeom};
use bconv_tensor::pad::{pad2d_asym_into, PadMode};
use bconv_tensor::pool::{global_avg_pool_into, max_pool2d_into};
use bconv_tensor::upsample::upsample_nearest_into;
use bconv_tensor::{Tensor, TensorError};

use crate::ir::{Graph, NodeOp, NodeRef};
use crate::plan::{ExecPlan, MapConv, MapRead, QuantSingle, Segment};

/// Result of one execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The network output.
    pub output: Tensor,
    /// Memory/traffic statistics in elements (multiply by the bitwidth for
    /// bits, as the paper's figures do).
    pub stats: MemStats,
    /// Number of executed segments (nodes for the reference backend).
    pub segments: usize,
}

/// Reusable per-caller execution state: the node-value table, a pool of
/// recycled intermediate tensors, and the kernel scratch buffers. One
/// scratch belongs to one caller at a time (a serving worker owns one for
/// its lifetime); the executor itself stays shared and immutable.
///
/// Buffers grow to the largest request seen and are reused afterwards:
/// once warm, a run's only allocation is the output tensor that leaves in
/// its [`RunReport`] (it is handed to the caller, so it cannot return to
/// the pool).
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Materialised per-node values of the in-flight run.
    values: Vec<Option<Tensor>>,
    /// Remaining-use counters (consumer counts) of the in-flight run.
    remaining: Vec<usize>,
    /// Recycled value buffers: released intermediates land here and are
    /// reshaped for the next node instead of reallocating.
    pool: Vec<Tensor>,
    /// Per-block intermediates for serial fused-chain execution plus the
    /// boundary maps of spliced pipelines (one
    /// [`bconv_core::fusion::BlockScratch`] serves both the plain-chain
    /// and pipeline paths — see [`PipelineScratch::block_mut`]).
    pipeline: PipelineScratch,
    /// Whole-map (single-segment) kernel temporaries.
    single: SingleScratch,
    /// One image of a multi-image input: [`PlanExecutor`] walks a batch
    /// through it image by image.
    image: Tensor,
}

impl ExecScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a tensor to the scratch's recycle pool — typically the
    /// [`RunReport::output`] of a finished request. The output buffer is
    /// the one allocation a warm [`run_scratch`](Executor::run_scratch)
    /// still performs (it leaves in the report, so it cannot return to the
    /// pool by itself); a caller that hands it back after consuming the
    /// result makes steady-state execution **fully** allocation-free,
    /// which `tests/alloc_gate.rs` asserts to the byte.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.pool.push(tensor);
    }
}

/// Kernel temporaries for whole-map (`Segment::Single`) node evaluation.
#[derive(Debug, Default)]
struct SingleScratch {
    /// Float conv kernel temporaries (im2col patches etc.).
    conv: ConvScratch,
    /// Integer conv temporaries (quantized activations).
    qconv: QConvScratch,
    /// Integer FC temporaries (quantized activations).
    qlinear: QLinearScratch,
    /// Padded-input staging buffer (conv geometry padding, pool `-inf`
    /// padding).
    padded: Tensor,
}

/// A compiled execution backend. Implementations are immutable after
/// construction and shareable across threads; all per-run mutable state
/// is confined to the caller's [`ExecScratch`].
pub trait Executor: Send + Sync {
    /// Runs the network on `input` (NCHW, any batch size) with one-shot
    /// scratch buffers. Prefer [`run_scratch`](Self::run_scratch) when
    /// running many requests.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when `input` does not match the graph's
    /// input shape or an operator fails.
    fn run(&self, input: &Tensor) -> Result<RunReport, TensorError> {
        self.run_scratch(input, &mut ExecScratch::new())
    }

    /// [`run`](Self::run) reusing caller-owned buffers across requests —
    /// the serving entry point. Outputs are bitwise-identical to
    /// [`run`](Self::run); only the allocation behaviour differs.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError>;
}

/// Validates the per-element input shape against the graph.
pub(crate) fn check_input(graph: &Graph, input: &Tensor) -> Result<(), TensorError> {
    let [_, c, h, w] = input.shape().dims();
    let want = graph.input_shape();
    if (c, h, w) != (want.c, want.h, want.w) {
        return Err(TensorError::shape_mismatch(
            format!("{} input", graph.name()),
            want.to_string(),
            format!("{c}x{h}x{w}"),
        ));
    }
    Ok(())
}

/// Max pooling with symmetric padding, padding with `-inf` so border
/// windows ignore the synthetic pixels (descriptor pools may carry `p>0`,
/// e.g. the ResNet stem's 3/2/1). The padded staging buffer comes from
/// the caller's scratch.
fn max_pool_padded_into(
    input: &Tensor,
    k: usize,
    s: usize,
    p: usize,
    out: &mut Tensor,
    padded: &mut Tensor,
) -> Result<(), TensorError> {
    if p == 0 {
        return max_pool2d_into(input, k, s, out);
    }
    let [n, c, h, w] = input.shape().dims();
    padded.reset([n, c, h + 2 * p, w + 2 * p]);
    padded.data_mut().fill(f32::NEG_INFINITY);
    padded.paste(input, p, p)?;
    max_pool2d_into(padded, k, s, out)
}

/// Shared node evaluator: the single source of truth for what each op
/// computes, used by every backend. Writes into `out` (reshaped to fit,
/// every element overwritten), drawing temporaries from `scratch`. Conv
/// nodes run the float kernel `kernel` resolves per layer; the kernels are
/// bit-identical by contract, so the choice moves time only.
fn eval_node_into(
    op: &NodeOp,
    input: &Tensor,
    aux: Option<&Tensor>,
    out: &mut Tensor,
    scratch: &mut SingleScratch,
    kernel: KernelPolicy,
) -> Result<(), TensorError> {
    match op {
        NodeOp::Conv { conv, .. } => {
            // Whole-map convs pad with their own symmetric zero geometry
            // padding (exactly `Conv2d::forward`), staged in scratch.
            let p = conv.geom().padding;
            pad2d_asym_into(input, p, p, p, p, PadMode::Zero, &mut scratch.padded)?;
            conv.forward_prepadded_into(
                &scratch.padded,
                kernel.resolve(conv),
                out,
                &mut scratch.conv,
            )
        }
        NodeOp::Relu => {
            out.reset(input.shape());
            out.data_mut().copy_from_slice(input.data());
            relu_inplace(out);
            Ok(())
        }
        NodeOp::MaxPool { k, s, p } => {
            max_pool_padded_into(input, *k, *s, *p, out, &mut scratch.padded)
        }
        NodeOp::GlobalAvgPool => {
            global_avg_pool_into(input, out);
            Ok(())
        }
        NodeOp::Fc(linear) => linear.forward_into(input, out),
        NodeOp::Add { .. } => {
            let other = aux.ok_or_else(|| TensorError::invalid("Add without second input"))?;
            add_into(input, other, out)
        }
        NodeOp::Upsample { factor } => upsample_nearest_into(input, *factor, out),
    }
}

/// One whole-map integer conv of a quantized plan (see [`MapConv`]) on
/// `input` — a float map, or the zero-bordered quantized map its producer
/// staged — into `out`: compact float, or, when the conv stages its
/// consumer's input, that map. Returns the **logical** element counts of
/// input and output, the ones [`MemStats`] counts: a staged border is the
/// padding a whole-map conv adds on the way in, never a feature map that
/// crosses the off-chip boundary.
fn run_map_conv(
    conv: &MapConv,
    input: &Tensor,
    out: &mut Tensor,
    scratch: &mut SingleScratch,
) -> Result<(usize, usize), TensorError> {
    let SingleScratch { qconv, padded, .. } = scratch;
    let (op, p) = (&*conv.op, conv.op.qconv().geom().padding);
    let acts = match conv.read {
        // Whole-map outer padding is zero, exactly as the float path pads.
        MapRead::Float => {
            op.qconv().forward_into(input, op.act_params(), PadMode::Zero, out, qconv)?;
            return Ok((input.shape().numel(), out.shape().numel()));
        }
        MapRead::Quantize => {
            pad_quantize_into(input, p, op.act_params(), padded);
            &*padded
        }
        MapRead::Staged => input,
    };
    // Exact kernels are 3×3 stride 1: a `p`-padded map of `h` rows has
    // `h + 2p - 2` output rows.
    let [n, c, ph, pw] = acts.shape().dims();
    let in_elems = n * c * ph.saturating_sub(2 * p) * pw.saturating_sub(2 * p);
    let dims = [n, op.qconv().c_out(), ph.saturating_sub(2), pw.saturating_sub(2)];
    let (at, epi) = match conv.stage {
        Some((next, pad)) => {
            (zero_bordered(out, dims, pad), Epilogue { relu: false, requant: Some(next) })
        }
        None => {
            out.reset(dims);
            (OutGeom::compact(dims[2], dims[3]), Epilogue::NONE)
        }
    };
    op.forward_quantized_at(acts, [p; 4], out.data_mut(), at, epi)?;
    Ok((in_elems, dims.iter().product()))
}

/// Shapes `buf` as the `[n, c, h, w]` map `dims` inside a `p`-wide border,
/// zeroes the border (a recycled buffer holds stale values) and returns
/// where the map's values go.
fn zero_bordered(buf: &mut Tensor, [n, c, h, w]: [usize; 4], p: usize) -> OutGeom {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    buf.reset([n, c, ph, pw]);
    if p > 0 {
        for plane in buf.data_mut().chunks_exact_mut(ph * pw) {
            let (top, rest) = plane.split_at_mut(p * pw);
            let (rows, bottom) = rest.split_at_mut(h * pw);
            top.fill(0.0);
            bottom.fill(0.0);
            for row in rows.chunks_exact_mut(pw) {
                row[..p].fill(0.0);
                row[p + w..].fill(0.0);
            }
        }
    }
    OutGeom::region(p, p, [ph, pw])
}

/// The one pass that readies a float map for an exact conv: `input`
/// quantized at `params` into `buf`, inside a zero border `p` wide.
fn pad_quantize_into(input: &Tensor, p: usize, params: QParams, buf: &mut Tensor) {
    let dims @ [.., h, w] = input.shape().dims();
    let at = zero_bordered(buf, dims, p);
    let data = buf.data_mut();
    for (i, src) in input.data().chunks_exact(w.max(1)).enumerate() {
        let dst = &mut data[at.offset + i / h * at.plane + i % h * at.row..][..w];
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = params.quantize_value_f32(v);
        }
    }
}

/// Resolves a [`NodeRef`] against stored values.
pub(crate) fn resolve<'a>(
    values: &'a [Option<Tensor>],
    input: &'a Tensor,
    r: NodeRef,
) -> Result<&'a Tensor, TensorError> {
    match r {
        NodeRef::Input => Ok(input),
        NodeRef::Node(i) => values[i]
            .as_ref()
            .ok_or_else(|| TensorError::invalid(format!("node {i} value not materialised"))),
    }
}

/// Dense layer-wise backend: the conventional accelerator dataflow where
/// every intermediate feature map is written to and read back from DRAM.
#[derive(Debug, Clone)]
pub struct ReferenceExecutor {
    graph: Arc<Graph>,
}

impl ReferenceExecutor {
    /// Compiles the backend (trivially) from a graph.
    pub fn new(graph: Arc<Graph>) -> Self {
        Self { graph }
    }
}

impl Executor for ReferenceExecutor {
    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        let last = self.graph.output_id();
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            ..MemStats::default()
        };
        // The direct loop on purpose: the reference stays an oracle that
        // shares no kernel with the backends it is compared against.
        let kernel = KernelPolicy::Direct;
        let output =
            run_dense_scratch(&self.graph, input, scratch, kernel, |id, node, in_t, aux, out| {
                let live = in_t.shape().numel()
                    + out.shape().numel()
                    + aux.map_or(0, |t| t.shape().numel());
                stats.peak_working_elems = stats.peak_working_elems.max(live);
                // ReLU runs in place on hardware: no extra DRAM round trip
                // (matching FusedChain::run_layerwise's accounting).
                if !matches!(node.op, NodeOp::Relu) {
                    stats.offchip_elems +=
                        if id == last { out.shape().numel() } else { 2 * out.shape().numel() };
                }
            })?;
        Ok(RunReport { output, stats, segments: self.graph.nodes().len() })
    }
}

/// The dense layer-wise graph walk shared by the reference backend and the
/// calibration pass: resolve inputs (including `Add` second operands),
/// evaluate through [`eval_node_into`], recycle intermediates after their
/// last consumer, return the graph output. `observe` sees every node's
/// inputs and output as it executes — the reference backend accumulates
/// [`MemStats`] there, calibration feeds conv inputs to its range
/// trackers. Keeping the walk here once guarantees calibration runs
/// exactly the numerics the reference backend reports (`kernel` picks the
/// float conv kernel only; every choice yields the same bits).
pub(crate) fn run_dense_scratch(
    graph: &Graph,
    input: &Tensor,
    scratch: &mut ExecScratch,
    kernel: KernelPolicy,
    mut observe: impl FnMut(crate::ir::NodeId, &crate::ir::Node, &Tensor, Option<&Tensor>, &Tensor),
) -> Result<Tensor, TensorError> {
    check_input(graph, input)?;
    let nodes = graph.nodes();
    let ExecScratch { values, remaining, pool, single, .. } = scratch;
    // A cleared table drops any values a previously failed run left
    // behind; the Vec allocations themselves persist across requests.
    values.clear();
    values.resize_with(nodes.len(), || None);
    remaining.clear();
    remaining.extend((0..nodes.len()).map(|i| graph.consumer_count(i)));
    for (id, node) in nodes.iter().enumerate() {
        let mut out = pool.pop().unwrap_or_default();
        let in_t = resolve(values, input, node.input)?;
        let aux = match node.op {
            NodeOp::Add { other } => Some(resolve(values, input, other)?),
            _ => None,
        };
        eval_node_into(&node.op, in_t, aux, &mut out, single, kernel)?;
        observe(id, node, in_t, aux, &out);
        values[id] = Some(out);
        release_used(values, remaining, pool, node);
    }
    values[graph.output_id()].take().ok_or_else(|| TensorError::invalid("graph produced no output"))
}

/// [`run_dense_scratch`] with one-shot buffers (the calibration entry
/// point, which walks a graph only a handful of times).
pub(crate) fn run_dense(
    graph: &Graph,
    input: &Tensor,
    kernel: KernelPolicy,
    observe: impl FnMut(crate::ir::NodeId, &crate::ir::Node, &Tensor, Option<&Tensor>, &Tensor),
) -> Result<Tensor, TensorError> {
    run_dense_scratch(graph, input, &mut ExecScratch::new(), kernel, observe)
}

/// Decrements one reference's remaining-use counter, recycling the value
/// into the buffer pool once all its consumers have run. The graph output
/// has consumer count 0 and is therefore never recycled here.
pub(crate) fn release_ref(
    values: &mut [Option<Tensor>],
    remaining: &mut [usize],
    pool: &mut Vec<Tensor>,
    r: NodeRef,
) {
    if let NodeRef::Node(i) = r {
        remaining[i] = remaining[i].saturating_sub(1);
        if remaining[i] == 0 {
            if let Some(t) = values[i].take() {
                pool.push(t);
            }
        }
    }
}

/// Releases every tensor `node` just read.
pub(crate) fn release_used(
    values: &mut [Option<Tensor>],
    remaining: &mut [usize],
    pool: &mut Vec<Tensor>,
    node: &crate::ir::Node,
) {
    release_ref(values, remaining, pool, node.input);
    if let NodeOp::Add { other } = node.op {
        release_ref(values, remaining, pool, other);
    }
}

/// The plan executor: walks an [`ExecPlan`] segment by segment, streaming
/// fusion groups block-by-block so their intermediates never cross the
/// off-chip boundary. Blocks of a fusion group are spatially independent by
/// construction (paper §II-C), so with `threads > 1` they are dispatched
/// across scoped worker threads, each with its own scratch buffers;
/// outputs are bitwise-identical at any thread count.
///
/// Everything executable was compiled into the plan by the planner — fused
/// stages (float or integer) and the integer form of whole-map conv / FC
/// nodes, including which whole-map convs stage their consumer's
/// quantized, zero-bordered input (`MapConv`) — so the executor holds
/// no tables of its own and cannot pair a plan with the wrong precision.
/// [`MemStats`] stay on logical shapes: a staged map's border never
/// counts.
#[derive(Debug, Clone)]
pub struct PlanExecutor {
    graph: Arc<Graph>,
    plan: Arc<ExecPlan>,
    threads: usize,
}

impl PlanExecutor {
    /// An executor for `plan` (compiled from `graph`) dispatching blocks
    /// across `threads` workers (`0` is treated as `1`). The plan is
    /// shared, not cloned; its `FusedChain` stages in turn share the
    /// graph's `Arc<Conv2d>` weights.
    pub fn new(graph: Arc<Graph>, plan: Arc<ExecPlan>, threads: usize) -> Self {
        Self { graph, plan, threads: threads.max(1) }
    }

    /// A multi-image input, one image at a time: each image is copied into
    /// `image`, runs the segment loop alone, and lands in its slot of a
    /// pooled batch output, so every segment — fused, spliced or whole-map
    /// — only ever holds one image's buffers. Stats follow the batch rule
    /// on [`MemStats`]: traffic sums, the working-set peak is `n` × the
    /// one-image peak.
    fn run_images(
        &self,
        input: &Tensor,
        image: &mut Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        check_input(&self.graph, input)?;
        let [n, c, h, w] = input.shape().dims();
        image.reset([1, c, h, w]);
        let mut output = scratch.pool.pop().unwrap_or_default();
        let mut stats = MemStats::default();
        let mut segments = 0;
        for (i, src) in input.data().chunks_exact(c * h * w).enumerate() {
            image.data_mut().copy_from_slice(src);
            let report = self.run_image(image, scratch)?;
            let [_, oc, oh, ow] = report.output.shape().dims();
            let per_image = oc * oh * ow;
            if i == 0 {
                output.reset([n, oc, oh, ow]);
            }
            output.data_mut()[i * per_image..(i + 1) * per_image]
                .copy_from_slice(report.output.data());
            stats = MemStats {
                peak_working_elems: stats.peak_working_elems.max(report.stats.peak_working_elems),
                offchip_elems: stats.offchip_elems + report.stats.offchip_elems,
                bits_per_elem: report.stats.bits_per_elem,
            };
            segments = report.segments;
            scratch.pool.push(report.output);
        }
        stats.peak_working_elems *= n;
        Ok(RunReport { output, stats, segments })
    }

    /// The segment loop, on one image. All [`MemStats`] accounting
    /// conventions — peak-working tracking, the write + read-back rule for
    /// non-final segment outputs, the in-place-ReLU exemption — live here
    /// once, for float and quantized plans alike; feature maps cross the
    /// off-chip boundary at the plan's activation bitwidth (the paper's
    /// Figure 7 memory accounting). All mutable run state draws from
    /// `scratch`.
    fn run_image(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        let (graph, plan, threads) = (&*self.graph, &*self.plan, self.threads);
        check_input(graph, input)?;
        let nodes = graph.nodes();
        let ExecScratch { values, remaining, pool, pipeline, single, .. } = scratch;
        values.clear();
        values.resize_with(nodes.len(), || None);
        // Remaining-use counters, as in the reference backend. Fused-group
        // interiors are never materialised, so only segment inputs (and
        // Add second operands) are counted down here.
        remaining.clear();
        remaining.extend((0..nodes.len()).map(|i| graph.consumer_count(i)));
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: plan.act_bits().unwrap_or(32),
        };
        let segments = plan.segments();
        let last_seg = segments.len().saturating_sub(1);
        for (si, seg) in segments.iter().enumerate() {
            let mut out = pool.pop().unwrap_or_default();
            // The output's logical size: a staged map counts without the
            // zero border only its consumer reads.
            let (out_id, out_elems) = match seg {
                Segment::Fused { nodes: ids, chain, input: src } => {
                    let in_t = resolve(values, input, *src)?;
                    let gs = chain.run_fused_into(in_t, threads, &mut out, pipeline.block_mut())?;
                    // Per-block buffers are the group's working set; its
                    // input/output traffic is accounted at the segment
                    // boundaries below.
                    stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
                    let id = ids.last();
                    let id =
                        id.ok_or_else(|| TensorError::invalid("fused segment covers no nodes"))?;
                    (*id, out.shape().numel())
                }
                Segment::Spliced { nodes: ids, pipeline: pipe, input: src } => {
                    let in_t = resolve(values, input, *src)?;
                    let gs = pipe.run_fused_into(in_t, threads, &mut out, pipeline)?;
                    // Group-boundary maps stayed on chip: they are part of the
                    // pipeline's working-set peak, and the only off-chip
                    // traffic is the segment input/output accounted below.
                    stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
                    let id = ids.last();
                    let id =
                        id.ok_or_else(|| TensorError::invalid("spliced segment covers no nodes"))?;
                    (*id, out.shape().numel())
                }
                Segment::Single(id) => {
                    let node = &nodes[*id];
                    let in_t = resolve(values, input, node.input)?;
                    let aux = match node.op {
                        NodeOp::Add { other } => Some(resolve(values, input, other)?),
                        _ => None,
                    };
                    let (in_elems, out_elems) = match plan.quant_single(*id) {
                        Some(QuantSingle::Conv(conv)) => {
                            run_map_conv(conv, in_t, &mut out, single)?
                        }
                        Some(QuantSingle::Fc(q, params)) => {
                            q.forward_into(in_t, *params, &mut out, &mut single.qlinear)?;
                            (in_t.shape().numel(), out.shape().numel())
                        }
                        // Float: the kernel the plan's policy resolves, like
                        // its fused stages (every kernel yields the same bits).
                        None => {
                            eval_node_into(&node.op, in_t, aux, &mut out, single, plan.kernel())?;
                            (in_t.shape().numel(), out.shape().numel())
                        }
                    };
                    let live = in_elems + out_elems + aux.map_or(0, |t| t.shape().numel());
                    stats.peak_working_elems = stats.peak_working_elems.max(live);
                    (*id, out_elems)
                }
            };
            // Segment outputs are materialised off-chip: written once, and
            // read back unless this is the network output. In-place ReLU
            // singles transfer nothing (parity with the reference backend).
            let in_place_relu =
                matches!(seg, Segment::Single(id) if matches!(nodes[*id].op, NodeOp::Relu));
            if !in_place_relu {
                stats.offchip_elems += if si == last_seg { out_elems } else { 2 * out_elems };
            }
            values[out_id] = Some(out);
            match seg {
                Segment::Fused { input: src, .. } | Segment::Spliced { input: src, .. } => {
                    release_ref(values, remaining, pool, *src);
                }
                Segment::Single(id) => release_used(values, remaining, pool, &nodes[*id]),
            }
        }
        let output = values[graph.output_id()]
            .take()
            .ok_or_else(|| TensorError::invalid("plan did not produce the graph output"))?;
        Ok(RunReport { output, stats, segments: segments.len() })
    }
}

impl Executor for PlanExecutor {
    /// One image runs the segment loop directly; more are walked image by
    /// image (see [`MemStats`] for what the batch's stats then mean).
    fn run_scratch(
        &self,
        input: &Tensor,
        scratch: &mut ExecScratch,
    ) -> Result<RunReport, TensorError> {
        if input.shape().dims()[0] <= 1 {
            return self.run_image(input, scratch);
        }
        let mut image = std::mem::take(&mut scratch.image);
        let report = self.run_images(input, &mut image, scratch);
        scratch.image = image;
        report
    }
}
