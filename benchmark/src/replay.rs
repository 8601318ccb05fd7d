//! Replays a request through the compiled plan from outside, segment by
//! segment and block by block, with a span around every call into a layer.
//!
//! Two passes per request, both over the public plan
//! (`ExecPlan::segments`):
//!
//! * **segments** — each fused or spliced segment as one call
//!   (`run_fused_into`, span `fusion.chain`), each whole-map node through
//!   the kernel it executes with (`kernel.conv`, `qgemm.map_conv`, `pool`,
//!   `single.other`), back to back as the executor runs them;
//! * **blocks** — each fused group once more by hand: crop, then per stage
//!   `BlockConv2d::pad_block_into` (`fusion.pad`), the block's convolution
//!   (`fusion.conv` for float, `qgemm.block_conv` for integer), pooling
//!   (`pool`), paste.
//!
//! Both passes must reproduce the session's output bit for bit, which is
//! what ties the attribution to the code that actually ran.

#![forbid(unsafe_code)]

use bconv_core::fusion::{BlockScratch, FusedChain, PipelineScratch};
use bconv_graph::{ExecPlan, Graph, GraphQuantSpec, NodeId, NodeOp, NodeRef, Segment, Session};
use bconv_quant::qconv::{QConv2d, QConvScratch, QuantChainOp};
use bconv_quant::qlinear::{QLinear, QLinearScratch};
use bconv_tensor::activation::relu_inplace;
use bconv_tensor::elementwise::add_into;
use bconv_tensor::kernel::{ConvScratch, KernelKind};
use bconv_tensor::pad::{pad2d_asym_into, PadMode};
use bconv_tensor::pool::{global_avg_pool_into, max_pool2d_into};
use bconv_tensor::upsample::upsample_nearest_into;
use bconv_tensor::{Tensor, TensorError};

use crate::trace::Tracer;
use crate::workloads::bitwise_eq;

/// Integer twins of the plan's convolutions and FC layers, rebuilt from
/// public constructors on the same calibration the session used.
struct QuantParts {
    spec: GraphQuantSpec,
    /// Per conv node inside a fused group: the per-block integer stage.
    chain_ops: Vec<Option<QuantChainOp>>,
    /// Per whole-map conv node.
    qconvs: Vec<Option<QConv2d>>,
    /// Per whole-map FC node that has an integer form.
    qlinears: Vec<Option<QLinear>>,
}

/// Counts that follow from the plan's geometry alone.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Geometry {
    /// Blocks summed over fused groups.
    pub blocks: u64,
    /// Per-block convolution calls (blocks × conv stages).
    pub block_calls: u64,
    /// Halo elements added by block padding over block elements.
    pub halo_share: f64,
    /// MACs of the convolutions inside fused groups / on whole maps.
    pub block_macs: u64,
    pub map_macs: u64,
}

pub struct Replayer<'a> {
    graph: &'a Graph,
    plan: &'a ExecPlan,
    quant: Option<QuantParts>,
    /// Output of every segment, by output node.
    values: Vec<Tensor>,
    block: BlockScratch,
    pipe: PipelineScratch,
    padded: Tensor,
    conv: ConvScratch,
    qconv: QConvScratch,
    qlinear: QLinearScratch,
    cur: Tensor,
    next: Tensor,
    /// Hand-assembled group outputs of the block pass.
    ping: Tensor,
    pong: Tensor,
    pub geometry: Geometry,
}

fn err(context: &str, e: TensorError) -> String {
    format!("replay: {context}: {e}")
}

impl<'a> Replayer<'a> {
    /// Prepares the replay of `session`'s plan. `quant` is the session's
    /// calibration, redone on the same inputs, for a quantized session.
    pub fn new(session: &'a Session, quant: Option<GraphQuantSpec>) -> Result<Self, String> {
        let graph = session.graph();
        let plan = session.plan();
        let nodes = graph.nodes();
        let mut geometry = Geometry::default();
        let mut parts = quant.map(|spec| QuantParts {
            spec,
            chain_ops: vec![None; nodes.len()],
            qconvs: vec![None; nodes.len()],
            qlinears: vec![None; nodes.len()],
        });
        let (mut halo_elems, mut block_elems) = (0u64, 0u64);
        for seg in plan.segments() {
            for (chain, ids) in groups_of(seg) {
                let blocks = chain.in_grid().num_blocks() as u64;
                geometry.blocks += blocks;
                let conv_ids =
                    ids.iter().filter(|id| matches!(nodes[**id].op, NodeOp::Conv { .. }));
                for (bconv, &id) in chain.convs().zip(conv_ids) {
                    geometry.block_calls += blocks;
                    geometry.block_macs += bconv.macs();
                    // What Equation 2 adds around each block, read off the
                    // planned padding itself (one channel is enough).
                    let (grid, mut padded) = (bconv.grid(), Tensor::default());
                    for row in 0..grid.num_rows() {
                        for col in 0..grid.num_cols() {
                            let b = grid.block(row, col);
                            bconv
                                .pad_block_into(
                                    &Tensor::zeros([1, 1, b.bh, b.bw]),
                                    row,
                                    col,
                                    &mut padded,
                                )
                                .map_err(|e| err("block padding geometry", e))?;
                            block_elems += (b.bh * b.bw) as u64;
                            halo_elems += (padded.shape().numel() - b.bh * b.bw) as u64;
                        }
                    }
                    if let Some(q) = parts.as_mut() {
                        let params = q.spec.act_params(id).ok_or_else(|| {
                            format!("replay: no calibrated range for conv node {}", nodes[id].name)
                        })?;
                        q.chain_ops[id] = QuantChainOp::from_conv_with_kernel(
                            bconv.conv(),
                            q.spec.weight_bits,
                            params,
                            bconv.kernel(),
                        );
                    }
                }
            }
            if let Segment::Single(id) = seg {
                match &nodes[*id].op {
                    NodeOp::Conv { conv, .. } => {
                        geometry.map_macs += conv
                            .macs(nodes[*id].in_shape.h, nodes[*id].in_shape.w)
                            .map_err(|e| err("conv geometry", e))?;
                        if let Some(q) = parts.as_mut() {
                            q.qconvs[*id] = QConv2d::from_conv_with_kernel(
                                conv,
                                q.spec.weight_bits,
                                session.kernel().resolve(conv),
                            );
                        }
                    }
                    NodeOp::Fc(linear) => {
                        if let Some(q) = parts.as_mut().filter(|q| q.spec.act_params(*id).is_some())
                        {
                            q.qlinears[*id] = QLinear::from_linear(linear, q.spec.weight_bits);
                        }
                    }
                    _ => {}
                }
            }
        }
        if block_elems > 0 {
            geometry.halo_share = halo_elems as f64 / block_elems as f64;
        }
        Ok(Self {
            graph,
            plan,
            quant: parts,
            values: vec![Tensor::default(); nodes.len()],
            block: BlockScratch::new(),
            pipe: PipelineScratch::new(),
            padded: Tensor::default(),
            conv: ConvScratch::new(),
            qconv: QConvScratch::new(),
            qlinear: QLinearScratch::new(),
            cur: Tensor::default(),
            next: Tensor::default(),
            ping: Tensor::default(),
            pong: Tensor::default(),
            geometry,
        })
    }

    /// The segment pass. Returns the network output it produced.
    pub fn segments(&mut self, input: &Tensor, tracer: &mut Tracer) -> Result<&Tensor, String> {
        let nodes = self.graph.nodes();
        for seg in self.plan.segments() {
            let out_id = seg.output_node();
            let mut out = std::mem::take(&mut self.values[out_id]);
            let result = match seg {
                Segment::Fused { chain, input: src, .. } => {
                    let in_t = resolve(&self.values, input, *src);
                    let span = tracer.open("fusion.chain");
                    let r = chain.run_fused_into(in_t, 1, &mut out, &mut self.block);
                    tracer.close(span);
                    r.map(|_| ())
                }
                Segment::Spliced { pipeline, input: src, .. } => {
                    let in_t = resolve(&self.values, input, *src);
                    let span = tracer.open("fusion.chain");
                    let r = pipeline.run_fused_into(in_t, 1, &mut out, &mut self.pipe);
                    tracer.close(span);
                    r.map(|_| ())
                }
                Segment::Single(id) => {
                    let node = &nodes[*id];
                    let in_t = resolve(&self.values, input, node.input);
                    let aux = match node.op {
                        NodeOp::Add { other } => Some(resolve(&self.values, input, other)),
                        _ => None,
                    };
                    let quantized = self.quant.is_some();
                    let span = tracer.open(match node.op {
                        NodeOp::Conv { .. } if quantized => "qgemm.map_conv",
                        NodeOp::Conv { .. } => "kernel.conv",
                        NodeOp::MaxPool { .. } => "pool",
                        _ => "single.other",
                    });
                    let r = eval_single(
                        *id,
                        &node.op,
                        in_t,
                        aux,
                        &mut out,
                        self.quant.as_ref(),
                        &mut self.padded,
                        &mut self.conv,
                        &mut self.qconv,
                        &mut self.qlinear,
                    );
                    tracer.close(span);
                    r
                }
            };
            self.values[out_id] = out;
            result
                .map_err(|e| err(&format!("segment producing node {}", nodes[out_id].name), e))?;
        }
        Ok(&self.values[self.graph.output_id()])
    }

    /// The block pass, over the segment inputs the segment pass left behind
    /// (run [`segments`](Self::segments) on the same input first). Every
    /// hand-assembled group output must equal the segment pass's bit for bit.
    pub fn blocks(&mut self, input: &Tensor, tracer: &mut Tracer) -> Result<(), String> {
        let nodes = self.graph.nodes();
        for seg in self.plan.segments() {
            let (Segment::Fused { input: src, .. } | Segment::Spliced { input: src, .. }) = seg
            else {
                continue;
            };
            let groups = groups_of(seg);
            let last = groups.len() - 1;
            for (gi, (chain, ids)) in groups.into_iter().enumerate() {
                // Group 0 reads the segment input; later groups read the
                // boundary map the previous group assembled into `ping`.
                let mut out = std::mem::take(&mut self.pong);
                let source = if gi == 0 { resolve(&self.values, input, *src) } else { &self.ping };
                let r = run_group_by_blocks(
                    chain,
                    ids,
                    self.graph,
                    self.quant.as_ref(),
                    source,
                    &mut out,
                    &mut self.cur,
                    &mut self.next,
                    &mut self.padded,
                    &mut self.conv,
                    &mut self.qconv,
                    tracer,
                );
                self.pong = out;
                r?;
                std::mem::swap(&mut self.ping, &mut self.pong);
                if gi == last && !bitwise_eq(&self.ping, &self.values[seg.output_node()]) {
                    return Err(format!(
                        "replay: blocks of the segment producing {} do not reproduce it bitwise",
                        nodes[seg.output_node()].name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The fused groups of a segment with the nodes each covers (every chain
/// stage covers exactly one node, in order).
fn groups_of(seg: &Segment) -> Vec<(&FusedChain, &[NodeId])> {
    match seg {
        Segment::Fused { nodes, chain, .. } => vec![(chain, nodes.as_slice())],
        Segment::Spliced { nodes, pipeline, .. } => {
            let mut cursor = 0;
            pipeline
                .groups()
                .iter()
                .map(|g| {
                    let ids = &nodes[cursor..cursor + g.len()];
                    cursor += g.len();
                    (g, ids)
                })
                .collect()
        }
        Segment::Single(_) => Vec::new(),
    }
}

fn resolve<'t>(values: &'t [Tensor], input: &'t Tensor, r: NodeRef) -> &'t Tensor {
    match r {
        NodeRef::Input => input,
        NodeRef::Node(i) => &values[i],
    }
}

/// One whole-map node, as the executor of the session's backend evaluates
/// it: integer convolution / FC where the quantized backend has one, the
/// shared float operators otherwise.
#[allow(clippy::too_many_arguments)]
fn eval_single(
    id: NodeId,
    op: &NodeOp,
    input: &Tensor,
    aux: Option<&Tensor>,
    out: &mut Tensor,
    quant: Option<&QuantParts>,
    padded: &mut Tensor,
    conv_scratch: &mut ConvScratch,
    qconv_scratch: &mut QConvScratch,
    qlinear_scratch: &mut QLinearScratch,
) -> Result<(), TensorError> {
    if let Some(q) = quant {
        if let (Some(qconv), Some(params)) = (&q.qconvs[id], q.spec.act_params(id)) {
            return qconv.forward_into(input, params, PadMode::Zero, out, qconv_scratch);
        }
        if let (Some(qlinear), Some(params)) = (&q.qlinears[id], q.spec.act_params(id)) {
            return qlinear.forward_into(input, params, out, qlinear_scratch);
        }
    }
    match op {
        NodeOp::Conv { conv, .. } => {
            let p = conv.geom().padding;
            pad2d_asym_into(input, p, p, p, p, PadMode::Zero, padded)?;
            conv.forward_prepadded_into(padded, KernelKind::Direct, out, conv_scratch)
        }
        NodeOp::Relu => {
            out.reset(input.shape());
            out.data_mut().copy_from_slice(input.data());
            relu_inplace(out);
            Ok(())
        }
        NodeOp::MaxPool { k, s, p: 0 } => max_pool2d_into(input, *k, *s, out),
        NodeOp::MaxPool { k, s, p } => {
            // Padded pooling ignores its border: pad with -inf.
            let [n, c, h, w] = input.shape().dims();
            padded.reset([n, c, h + 2 * p, w + 2 * p]);
            padded.data_mut().fill(f32::NEG_INFINITY);
            padded.paste(input, *p, *p)?;
            max_pool2d_into(padded, *k, *s, out)
        }
        NodeOp::GlobalAvgPool => {
            global_avg_pool_into(input, out);
            Ok(())
        }
        NodeOp::Fc(linear) => linear.forward_into(input, out),
        NodeOp::Add { .. } => match aux {
            Some(other) => add_into(input, other, out),
            None => Err(TensorError::invalid("Add without second input")),
        },
        NodeOp::Upsample { factor } => upsample_nearest_into(input, *factor, out),
    }
}

/// One fused group by hand: every block through every stage, one span per
/// call into a layer.
#[allow(clippy::too_many_arguments)]
fn run_group_by_blocks(
    chain: &FusedChain,
    ids: &[NodeId],
    graph: &Graph,
    quant: Option<&QuantParts>,
    source: &Tensor,
    out: &mut Tensor,
    cur: &mut Tensor,
    next: &mut Tensor,
    padded: &mut Tensor,
    conv_scratch: &mut ConvScratch,
    qconv_scratch: &mut QConvScratch,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let nodes = graph.nodes();
    let [n, c, _, _] = source.shape().dims();
    let (in_grid, out_grid) = (chain.in_grid(), chain.out_grid());
    out.reset([n, chain.out_channels(c), out_grid.h(), out_grid.w()]);
    for row in 0..in_grid.num_rows() {
        for col in 0..in_grid.num_cols() {
            let b = in_grid.block(row, col);
            source.crop_into(b.h0, b.w0, b.bh, b.bw, cur).map_err(|e| err("crop", e))?;
            let mut convs = chain.convs();
            for &id in ids {
                match &nodes[id].op {
                    NodeOp::Conv { .. } => {
                        let bconv =
                            convs.next().ok_or("replay: chain has fewer convs than nodes")?;
                        let span = tracer.open("fusion.pad");
                        let r = bconv.pad_block_into(cur, row, col, padded);
                        tracer.close(span);
                        r.map_err(|e| err("block padding", e))?;
                        let r = match quant {
                            Some(q) => {
                                let op = q.chain_ops[id]
                                    .as_ref()
                                    .ok_or("replay: conv stage has no integer form")?;
                                let span = tracer.open("qgemm.block_conv");
                                let r = op.forward_prepadded_into(padded, next, qconv_scratch);
                                tracer.close(span);
                                r
                            }
                            None => {
                                let span = tracer.open("fusion.conv");
                                let r = match bconv.packed_weights() {
                                    Some(packed) => packed.forward_prepadded_into(
                                        bconv.conv(),
                                        padded,
                                        next,
                                        conv_scratch,
                                    ),
                                    None => bconv.conv().forward_prepadded_into(
                                        padded,
                                        bconv.kernel(),
                                        next,
                                        conv_scratch,
                                    ),
                                };
                                tracer.close(span);
                                r
                            }
                        };
                        r.map_err(|e| err("block convolution", e))?;
                        std::mem::swap(cur, next);
                    }
                    NodeOp::Relu => relu_inplace(cur),
                    NodeOp::MaxPool { k, .. } => {
                        let span = tracer.open("pool");
                        let r = max_pool2d_into(cur, *k, *k, next);
                        tracer.close(span);
                        r.map_err(|e| err("block pooling", e))?;
                        std::mem::swap(cur, next);
                    }
                    other => {
                        return Err(format!(
                            "replay: {} cannot be a fused stage",
                            other.mnemonic()
                        ));
                    }
                }
            }
            let ob = out_grid.block(row, col);
            out.paste(cur, ob.h0, ob.w0).map_err(|e| err("paste", e))?;
        }
    }
    Ok(())
}
