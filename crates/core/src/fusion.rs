//! Block-wise multi-layer fusion (paper §II-B, §III).
//!
//! With block convolution the computation of several consecutive layers can
//! be carried out *per block*: a block flows through conv → relu → pool →
//! conv → ... entirely in on-chip-sized buffers, and only the first input
//! and the final output ever cross the off-chip boundary. [`FusedChain`]
//! models one such fusion group. Groups that share one block layout — each
//! planned on the grid the one before leaves behind, as hierarchical
//! blocking always does — are one chain too ([`FusedChain::extend`]):
//! block *i* of a group reads only block *i* of its predecessor, so a block
//! flows through all their stages with no map between them.
//! [`FusedPipeline`] chains groups whose joint re-grids, with an on-chip
//! "extra buffer" concatenation between them (Figure 10's CONV4 stage,
//! where fixed blocking splices pooled blocks back together).
//!
//! # One block loop: every stage stores where the next one reads
//!
//! A chain is a list of convolutions: each *step* is one convolution, with
//! the ReLUs and the max pooling that follow it folded into its store. A
//! block runs through the steps in one routine with no copy between them:
//!
//! * the first step reads the block straight out of the group's input map
//!   (no crop): the rows go into the interior of its padded buffer;
//! * every step stores into the interior of the next step's buffer, padded
//!   with that block's Equation 2 pads, so nothing is padded by copying;
//! * the last step stores into the group's output map at the block's
//!   origin (no paste).
//!
//! A store is one output geometry ([`OutGeom`]: offset, row pitch, plane
//! pitch) taken by the three 3×3 kernels' stores and the pooling; every
//! other kernel (both GEMMs, the direct loops, integer layers past the
//! exact-f32 bound, w8a16) writes its compact block and copies it into the
//! same destination. What a store does to each value is the step's
//! [`Epilogue`]: the folded ReLU and, on integer chains whose next
//! convolution runs an exact-f32 kernel, quantization at *that*
//! convolution's input parameters, so it reads its activations in place.
//!
//! A convolution a max pooling follows stores the pooled block: the 3×3
//! sweeps run one rectangle of whole pooling windows at a time into a
//! small stage and pool it from there with the pooling's own code
//! ([`bconv_tensor::kernel::lane_tile`]), each output through the
//! convolution's epilogue and each window's maximum through the pooling's
//! (its ReLUs, the next convolution's quantization). The pooling has no
//! step, no buffer and no pass of its own, and the convolution's ping-pong
//! pair holds its input and the pooled output — the paper's "a pool after
//! a conv needs no buffer of its own". Compact-store kernels pool their
//! block straight into the destination. A pooling folds into the
//! convolution before it or into nothing: a chain refuses an op ahead of
//! its first convolution, a second pooling on one convolution and a window
//! wider than [`lane_tile::MAX_POOL`] (11), and the planner runs such a
//! pooling on the whole map.
//! Halos follow each block's pads: a zero halo is written by one fill of
//! the buffer when its padded geometry changes (and stays zero, since
//! stores touch only interiors); a replicate or reflect halo is copied from
//! the freshly stored interior ([`fill_halo`]). The result is bit for bit
//! the crop → pad → (quantize) → conv → (rescale) → ReLU → paste schedule
//! [`FusedChain::run_layerwise`] runs through
//! [`BlockConv2d::forward_blocks`], and the per-stage public entries
//! (`pad_block_into`, `conv_block_into`, `forward_prepadded_into`) still
//! spell out.
//!
//! # One block: the dense convolution
//!
//! A grid of one block is the dense convolution at any stride (its block
//! keeps the layer's own padding), so a whole-map convolution is a
//! one-step chain on [`BlockGrid::single`] and runs the same block loop.
//! Chains also meet across a materialised map: when a one-block chain on
//! an exact-f32 convolution is the sole reader of another chain's output,
//! [`FusedChain::stage_into`] has the producer's last store write that
//! map as the reader's first step reads it — quantized, inside a zero
//! border of its padding — and the reader runs on it in place, skipping
//! the border's taps, as a step inside one chain would.
//!
//! # A residual add: the last store plus the input block
//!
//! An element-wise add of two maps on one grid is block-local too. When a
//! chain keeps its map's shape, [`FusedChain::run_residual_into`] adds
//! each input block to the output block its last step stored — VDSR's
//! global residual, a ResNet identity block's shortcut — so the chain's
//! output map never makes the off-chip round trip the add would read it
//! back through. The add is its own out-of-line pass after the block, in
//! f32 on the stored values, bit for bit the whole-map add; the input
//! block it reads counts in the block's peak.

use std::sync::Arc;

use bconv_quant::qconv::{QConvScratch, QuantChainOp};
use bconv_quant::qgemm::Epilogue;
use bconv_quant::QParams;
use bconv_tensor::activation::relu_inplace;
use bconv_tensor::conv::Conv2d;
use bconv_tensor::kernel::{lane_tile, ConvScratch, KernelPolicy, OutGeom};
use bconv_tensor::pad::{fill_halo, PadMode};
use bconv_tensor::pool::{max_pool2d, max_pool2d_at};
use bconv_tensor::{Tensor, TensorError};

use crate::block_conv::BlockConv2d;
use crate::blocking::{Block, BlockGrid};

/// One operation in a fusion group.
///
/// Convolution weights are held behind an [`Arc`]: planning a chain from
/// a weight-bound graph shares the graph's weight tensors instead of
/// deep-cloning them.
#[derive(Debug, Clone)]
pub enum ChainOp {
    /// A convolution, executed as a block convolution: stride-1 on a grid
    /// of more than one block, any stride on one block.
    Conv(Arc<Conv2d>),
    /// Element-wise ReLU, folded into the store of the convolution before
    /// it.
    Relu,
    /// `k × k` max pooling with stride `k` (the paper's baselines replace
    /// strided convolution with stride-1 convolution + pooling, §II-F),
    /// folded into the store of the convolution before it.
    MaxPool {
        /// Pooling window and stride.
        k: usize,
    },
}

impl ChainOp {
    /// Convenience constructor wrapping a convolution (owned or shared)
    /// into the chain.
    pub fn conv(conv: impl Into<Arc<Conv2d>>) -> Self {
        Self::Conv(conv.into())
    }
}

/// A step of a chain: one block convolution, with the ReLUs that follow it
/// and the max pooling after them folded into its store.
#[derive(Debug, Clone)]
struct Step {
    /// The Equation 2 padding schedule and grids (plus, on the float path,
    /// the packed weights).
    plan: BlockConv2d,
    /// The integer arithmetic of a quantized step.
    qop: Option<QuantChainOp>,
    /// Grid on the step's output (pooled, when a pooling is folded in).
    out_grid: BlockGrid,
    /// What the step does to each value it computes: the folded ReLUs,
    /// and quantization at the next step's input parameters when that step
    /// reads quantized activations (never before a folded pooling).
    epi: Epilogue,
    /// A `k × k` max pooling folded into the store, with what is done to
    /// each pooled value — the ReLUs after it and the next step's
    /// quantization — in place of a step, buffer and pass of its own.
    pool: Option<(usize, Epilogue)>,
}

impl Step {
    /// The epilogue of the values the step stores: the folded pooling's,
    /// or its own.
    fn out_epi(&mut self) -> &mut Epilogue {
        match &mut self.pool {
            Some((_, post)) => post,
            None => &mut self.epi,
        }
    }

    /// The input parameters a step's producer quantizes at, if the step
    /// reads quantized activations.
    fn reads_at(step: Option<&Step>) -> Option<QParams> {
        step?.qop.as_ref().filter(|op| op.reads_quantized()).map(QuantChainOp::act_params)
    }

    /// Stores the compact `block` a kernel without an [`OutGeom`] store
    /// wrote at `to` in `out`: every value through the step's epilogue, and
    /// with a pooling folded in, each window's maximum through the
    /// pooling's.
    fn store(&self, block: &Tensor, (out, to): (&mut [f32], OutGeom)) -> Result<(), TensorError> {
        let epi = self.epi;
        match self.pool {
            None => {
                let [n, c, h, w] = block.shape().dims();
                store_rows((block.data(), OutGeom::compact(h, w)), (out, to), [n * c, h, w], epi);
                Ok(())
            }
            Some((k, post)) => {
                max_pool2d_at(block, k, out, to, (|v| epi.apply(v), |v| post.apply(v)))
            }
        }
    }
}

/// Memory and traffic statistics of one execution, in **elements** (multiply
/// by the bitwidth to get bits, as Figures 1/9 and Table IX do).
///
/// These model the paper's **accelerator dataflow** — feature-map block
/// buffers and off-chip feature-map transfers — not host-process memory.
/// CPU-side kernel temporaries (the padded block, the im2col patch
/// matrix of [`bconv_tensor::kernel`]) are execution details of *this*
/// reference implementation and are excluded, as is weight storage. So is
/// the stage a pooled store runs through ([`lane_tile::STAGE`], at most
/// 2 048 elements): a kernel line buffer, like the tile's registers.
/// Both fields are scheduling-invariant: identical for any worker-thread
/// count and any kernel choice. A chain that folds a residual add
/// ([`FusedChain::run_residual_into`]) counts the input block the add
/// holds in each block's peak; reading it is not a second off-chip read,
/// since it is the block the chain loaded for its first step, and the
/// input map counts once, as the chain's input.
///
/// Element counts are bitwidth-agnostic; `bits_per_elem` records the word
/// width one feature-map element occupies on the wire (32 for the float
/// backends, the activation bitwidth for the quantized backend), so
/// [`offchip_bits`](Self::offchip_bits) reports traffic the way the paper's
/// memory figures do.
///
/// **Batches.** The stats of a run over `n` images are `n` × those of one
/// image: traffic is the sum over the images, and `peak_working_elems` is
/// `n` × the one-image peak, even where the images run one after another
/// and never share the buffers at once. Every term therefore carries the
/// batch factor: a batch's report is the sum of its images' solo reports,
/// so `stats / n` is the one-image figure at any batch size and no
/// figure depends on which images happened to run together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Peak number of elements simultaneously alive in working buffers.
    pub peak_working_elems: usize,
    /// Elements transferred across the off-chip boundary (reads + writes of
    /// feature maps; weights excluded).
    pub offchip_elems: usize,
    /// Bits per feature-map element at the executing precision (32 = f32).
    pub bits_per_elem: u8,
}

impl Default for MemStats {
    fn default() -> Self {
        Self { peak_working_elems: 0, offchip_elems: 0, bits_per_elem: 32 }
    }
}

impl MemStats {
    /// Off-chip traffic in bits at the executing precision.
    pub fn offchip_bits(&self) -> u64 {
        self.offchip_elems as u64 * self.bits_per_elem as u64
    }

    /// Peak working-buffer footprint in bits at the executing precision.
    pub fn peak_working_bits(&self) -> u64 {
        self.peak_working_elems as u64 * self.bits_per_elem as u64
    }
}

/// Reusable per-worker buffers for block-by-block chain execution: one
/// padded input buffer per convolution of the chain (Figure 10's
/// intermediate buffers), a compact block for the kernels that store only
/// compact blocks, a threaded worker's output block, and the convolution
/// temporaries. Buffers grow to the largest block seen and are reused
/// across blocks, chains and runs — steady-state fused execution
/// allocates nothing.
#[derive(Debug, Default)]
pub struct BlockScratch {
    bufs: Vec<StepBuf>,
    block: Tensor,
    /// The output block of a block run on a worker thread, which pastes it
    /// into the output map.
    last: Tensor,
    conv: ConvScratch,
    qconv: QConvScratch,
}

impl BlockScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The input buffer of one step, and whether its halo is known to be zero.
#[derive(Debug, Default)]
struct StepBuf {
    t: Tensor,
    /// The padded geometry (`dims` and the `(top, bottom, left, right)`
    /// pads) whose halo holds zeros: stores touch only interiors, so a zero
    /// halo outlives every block of the same geometry.
    zero_halo: Option<([usize; 4], [usize; 4])>,
}

impl StepBuf {
    /// Shapes the buffer for `step`'s input block `(row, col)` of `n`
    /// images × `c` channels and returns where that block's values go: the
    /// interior of the padded block, whose zero halo is rewritten — one
    /// fill — only when the padded geometry changes.
    fn prepare(&mut self, step: &Step, (row, col): (usize, usize), n: usize, c: usize) -> OutGeom {
        let (plan, b) = (&step.plan, step.plan.grid().block(row, col));
        let (top, bottom, left, right) = plan.block_padding(row, col);
        let pads = [top, bottom, left, right];
        let dims @ [.., ph, pw] = [n, c, b.bh + top + bottom, b.bw + left + right];
        if plan.pad_mode() != PadMode::Zero {
            self.t.reset(dims);
            self.zero_halo = None;
        } else if self.zero_halo != Some((dims, pads)) {
            self.t.reset(dims);
            self.t.data_mut().fill(0.0);
            self.zero_halo = Some((dims, pads));
        }
        OutGeom::region(top, left, [ph, pw])
    }
}

/// Reusable buffers for spliced-pipeline execution: the per-block
/// [`BlockScratch`] shared by every group, plus the two alternating
/// group-boundary maps (the accelerator's extra buffer of Figure 10 —
/// one holds the upstream group's spliced output while the downstream
/// group writes the next boundary into the other). Only a joint that
/// re-grids needs them; aligned groups run as one chain.
#[derive(Debug, Default)]
pub struct PipelineScratch {
    block: BlockScratch,
    ping: Tensor,
    pong: Tensor,
}

impl PipelineScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-block scratch, for callers that interleave plain
    /// [`FusedChain`] runs with pipeline runs and want one set of block
    /// buffers rather than two (e.g. an executor's per-worker scratch).
    pub fn block_mut(&mut self) -> &mut BlockScratch {
        &mut self.block
    }
}

/// A fusion group: a chain of ops executed block-by-block under one grid.
#[derive(Debug, Clone)]
pub struct FusedChain {
    steps: Vec<Step>,
    /// The input parameters the group input is quantized at as a block is
    /// read in, when the first step reads quantized activations.
    load: Option<QParams>,
    /// Planned ops, ReLUs included.
    len: usize,
    in_grid: BlockGrid,
    out_grid: BlockGrid,
    /// `Some(p)` when the input map is staged ([`Self::stage_into`]): the
    /// first step's quantized input inside its zero padding `p` wide.
    staged_in: Option<usize>,
    /// The zero border the output map is stored inside (`0`: compact).
    out_border: usize,
}

impl FusedChain {
    /// Plans a fusion group for inputs tiled by `grid` — the one way to
    /// build a chain ([`extend`](Self::extend) continues one).
    ///
    /// A chain opens at a convolution, and every ReLU and max pooling
    /// folds into the convolution before it: at most one pooling per
    /// convolution, at most [`lane_tile::MAX_POOL`] wide, on a grid it
    /// keeps aligned ([`BlockGrid::downscale`]). Convolutions on a grid of
    /// more than one block must be stride-1 (strided layers are expressed
    /// as conv + pool per the paper's baseline rewrite); on one block any
    /// stride is the dense convolution. Every conv stage
    /// resolves its kernel (direct loop vs im2col+GEMM) under `policy` at
    /// plan time, so execution carries no per-run dispatch.
    ///
    /// `quant` selects the precision. `None` plans a float chain. `Some((
    /// weight_bits, act_params))` plans a **quantized** one: every
    /// convolution executes through the integer path of
    /// [`bconv_quant::qconv::QConv2d`] — i32 activations, i64 accumulators,
    /// the direct loop or the `i16` im2col+GEMM exactly where the float
    /// path would pick its twin — with its input activations requantized at
    /// `act_params[i]`, the frozen input-activation [`QParams`] of the
    /// `i`-th [`ChainOp::Conv`]. Block padding follows the same Equation 2
    /// schedule and `pad_mode` on both paths, applied once per block.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when the chain holds no
    /// convolution, an op comes before the first one, a pooling does not
    /// fold into the convolution before it, a stage cannot be blocked
    /// under the running grid, when `act_params` does not cover
    /// exactly the chain's convolutions, or when a quantized convolution's
    /// weights are all zero (no quantized form).
    pub fn plan(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
        policy: KernelPolicy,
        quant: Option<(u8, &[QParams])>,
    ) -> Result<Self, TensorError> {
        let empty = Self {
            steps: Vec::with_capacity(ops.len()),
            load: None,
            len: 0,
            in_grid: grid.clone(),
            out_grid: grid,
            staged_in: None,
            out_border: 0,
        };
        empty.extend(ops, pad_mode, policy, quant)
    }

    /// Plans `ops` on the chain's output grid and appends them: the body of
    /// [`plan`](Self::plan), which starts from an empty chain, so a chain
    /// planned group by group is the chain planned over the union of the
    /// groups' ops on the first group's grid. This is how aligned fusion
    /// groups — each reading exactly the grid the one before leaves behind
    /// — compile into one chain, every conv planned once. `quant` is the
    /// chain's precision and covers the convolutions of `ops` only; ReLUs
    /// at the head of `ops` fold into the chain's last step, and so does a
    /// pooling into its store if none has, as inside one group.
    ///
    /// # Errors
    ///
    /// As [`plan`](Self::plan).
    pub fn extend(
        mut self,
        ops: Vec<ChainOp>,
        pad_mode: PadMode,
        policy: KernelPolicy,
        quant: Option<(u8, &[QParams])>,
    ) -> Result<Self, TensorError> {
        self.len += ops.len();
        let mut conv_idx = 0usize;
        for op in ops {
            let conv = match op {
                ChainOp::Conv(conv) => conv,
                ChainOp::Relu => {
                    last_conv(&mut self.steps)?.out_epi().relu = true;
                    continue;
                }
                ChainOp::MaxPool { k } => {
                    let step = last_conv(&mut self.steps)?;
                    if step.pool.is_some() || k > lane_tile::MAX_POOL {
                        return Err(TensorError::invalid(format!(
                            "FusedChain: a {k}×{k} pooling does not fold into the convolution \
                             before it"
                        )));
                    }
                    step.out_grid = step.out_grid.downscale(k)?;
                    step.pool = Some((k, Epilogue::NONE));
                    self.out_grid = step.out_grid.clone();
                    continue;
                }
            };
            let cur = &self.out_grid;
            if conv.geom().stride != 1 && cur.num_blocks() > 1 {
                return Err(TensorError::invalid(
                    "fused convolutions must be stride-1; express stride as conv + pool",
                ));
            }
            let plan =
                BlockConv2d::plan_with_kernel(Arc::clone(&conv), cur.clone(), pad_mode, policy)?;
            let out_grid = plan.output_grid()?;
            let (plan, qop) = match quant {
                None => (plan.with_packed_weights(), None),
                // The plan's resolved kernel drives the *integer* loops.
                // Float weight packing is skipped — this plan only ever
                // pads blocks.
                Some((weight_bits, act_params)) => {
                    let params = act_params.get(conv_idx).copied().ok_or_else(|| {
                        TensorError::invalid(format!(
                            "FusedChain::plan: {} act-param sets for conv stage {}",
                            act_params.len(),
                            conv_idx + 1
                        ))
                    })?;
                    let qop = QuantChainOp::from_conv_with_kernel(
                        &conv,
                        weight_bits,
                        params,
                        plan.kernel(),
                    )
                    .ok_or_else(|| {
                        TensorError::invalid(format!(
                            "FusedChain::plan: conv stage {} has all-zero weights",
                            conv_idx + 1
                        ))
                    })?;
                    (plan, Some(qop))
                }
            };
            conv_idx += 1;
            self.out_grid = out_grid.clone();
            self.steps.push(Step { plan, qop, out_grid, epi: Epilogue::NONE, pool: None });
        }
        if self.steps.is_empty() {
            return Err(TensorError::invalid("FusedChain: a chain needs a convolution"));
        }
        if let Some((_, act_params)) = quant {
            if act_params.len() != conv_idx {
                return Err(TensorError::invalid(format!(
                    "FusedChain::plan: {} act-param sets for {} conv stages",
                    act_params.len(),
                    conv_idx
                )));
            }
        }
        // Every store lands in the format of the step that reads it.
        let steps = &mut self.steps;
        self.load = Step::reads_at(steps.first());
        for i in 0..steps.len() {
            let next = Step::reads_at(steps.get(i + 1));
            steps[i].out_epi().requant = next;
        }
        Ok(self)
    }

    /// Stages the chain's output for `next`, its sole reader, when `next`
    /// is one block whose first step is a zero-padded convolution on an
    /// exact-f32 kernel ([`QuantChainOp::reads_quantized`]): the last
    /// store's [`Epilogue`] (a folded pooling's, if any) then stores the
    /// output map quantized at that convolution's input parameters, inside
    /// a zero border of its padding, and `next` reads the map in place — no
    /// load into its padded buffer, no taps on the border. Returns whether
    /// the pair staged. The bits are those of the unstaged pair (`next`
    /// would quantize the same values on its load, and quantize(0) = 0),
    /// and so are the [`MemStats`]: a border is the padding the reader
    /// adds, not part of the map. Only
    /// [`run_fused_into`](Self::run_fused_into) stores and reads staged
    /// maps; stage complete chains.
    pub fn stage_into(&mut self, next: &mut FusedChain) -> bool {
        let (Some(last), Some(first), Some(params)) =
            (self.steps.last_mut(), next.steps.first(), next.load)
        else {
            return false;
        };
        if next.in_grid.num_blocks() != 1 || first.plan.pad_mode() != PadMode::Zero {
            return false;
        }
        // One block keeps the layer's symmetric padding.
        let (p, ..) = first.plan.block_padding(0, 0);
        last.out_epi().requant = Some(params);
        self.out_border = p;
        next.staged_in = Some(p);
        true
    }

    /// Activation bitwidth of the chain's quantized stages, `None` for a
    /// float chain. Quantized chains are planned with one activation
    /// bitwidth throughout, so the first quantized stage is authoritative.
    pub fn act_bits(&self) -> Option<u8> {
        self.steps.iter().find_map(|s| Some(s.qop.as_ref()?.act_params().bits()))
    }

    /// Grid on the group's input.
    pub fn in_grid(&self) -> &BlockGrid {
        &self.in_grid
    }

    /// Grid on the group's output.
    pub fn out_grid(&self) -> &BlockGrid {
        &self.out_grid
    }

    /// Number of stages in the group.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the group has no stages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Output channel count given the input channel count.
    pub fn out_channels(&self, c_in: usize) -> usize {
        self.steps.last().map_or(c_in, |s| s.plan.conv().c_out())
    }

    /// The block-convolution plans of the chain's conv stages (float and
    /// quantized), in order.
    pub fn convs(&self) -> impl Iterator<Item = &BlockConv2d> {
        self.steps.iter().map(|s| &s.plan)
    }

    /// Checks that every convolution receives the channels it was built
    /// for, given `c` input channels.
    fn check_channels(&self, mut c: usize) -> Result<(), TensorError> {
        for plan in self.convs() {
            if plan.conv().c_in() != c {
                return Err(TensorError::invalid(
                    "FusedChain: input channels do not match the convolution's",
                ));
            }
            c = plan.conv().c_out();
        }
        Ok(())
    }

    /// Runs block `(row, col)` of `input` through every step — the one
    /// block loop (module docs): the block is read from `input` in place
    /// (a staged input is the first step's padded buffer itself), each
    /// step stores into the next step's buffer in `scratch`, and the last
    /// stores at the block's place in the group's output map `dst`, inside
    /// its border (`None`: into the scratch's compact
    /// [`BlockScratch::last`] block).
    /// Returns the block's working-set peak: the largest unpadded input +
    /// output block pair of a step (a convolution's output being the pooled
    /// block when a pooling is folded into its store).
    fn run_block(
        &self,
        input: &Tensor,
        (row, col): (usize, usize),
        mut dst: Option<&mut Tensor>,
        scratch: &mut BlockScratch,
    ) -> Result<usize, TensorError> {
        let [n, c, h, w] = input.shape().dims();
        let BlockScratch { bufs, block, last, conv, qconv } = scratch;
        if bufs.len() < self.steps.len() {
            bufs.resize_with(self.steps.len(), StepBuf::default);
        }
        if let (None, Some(first), Some(buf)) =
            (self.staged_in, self.steps.first(), bufs.first_mut())
        {
            let b = self.in_grid.block(row, col);
            let from = OutGeom::region(b.h0, b.w0, [h, w]);
            let to = buf.prepare(first, (row, col), n, c);
            let load = Epilogue { relu: false, requant: self.load };
            store_rows((input.data(), from), (buf.t.data_mut(), to), [n * c, b.bh, b.bw], load);
        }
        let (mut peak, mut c) = (0, c);
        for (i, step) in self.steps.iter().enumerate() {
            let (plan, c_out) = (&step.plan, step.plan.conv().c_out());
            let (ib, ob) = (plan.grid().block(row, col), step.out_grid.block(row, col));
            // Input and output block buffers are alive simultaneously (the
            // paper's ping-pong intermediate buffers, Figure 10).
            peak = peak.max(n * (c * ib.area() + c_out * ob.area()));
            let Some((cur, rest)) = bufs[i..].split_first_mut() else {
                break;
            };
            let (out, to) = match (self.steps.get(i + 1), rest.first_mut()) {
                (Some(next), Some(buf)) => {
                    let to = buf.prepare(next, (row, col), n, c_out);
                    (buf.t.data_mut(), to)
                }
                _ => last_store(dst.as_deref_mut(), last, ob, [n, c_out], self.out_border),
            };
            let pads @ (top, bottom, left, right) = plan.block_padding(row, col);
            let padded = match self.staged_in {
                Some(_) if i == 0 => input,
                _ => {
                    fill_halo(&mut cur.t, pads, plan.pad_mode())?;
                    &cur.t
                }
            };
            match (&step.qop, plan.packed_weights()) {
                (Some(op), _) if op.reads_quantized() => {
                    // A zero halo is free: the kernel skips its taps.
                    let zero = match plan.pad_mode() {
                        PadMode::Zero => [top, bottom, left, right],
                        _ => [0; 4],
                    };
                    op.forward_quantized_at(padded, zero, out, to, step.epi, step.pool)?;
                }
                (Some(op), _) => {
                    op.forward_prepadded_into(padded, block, qconv)?;
                    step.store(block, (out, to))?;
                }
                // A float chain quantizes nothing: a pooling's epilogue is
                // its ReLU.
                (None, Some(p)) if p.stores_at() => {
                    let pool = step.pool.map(|(k, post)| (k, post.relu));
                    p.forward_prepadded_at(plan.conv(), padded, out, to, step.epi.relu, pool)?;
                }
                (None, _) => {
                    plan.conv_block_into(padded, block, conv)?;
                    step.store(block, (out, to))?;
                }
            }
            c = c_out;
        }
        Ok(peak)
    }

    /// Executes the group block-by-block (*fused* dataflow): only the input
    /// and the group output cross the off-chip boundary.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn run_fused(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut out = Tensor::default();
        let stats = self.run_fused_into(input, 1, &mut out, &mut BlockScratch::new())?;
        Ok((out, stats))
    }

    /// [`run_fused`](Self::run_fused) into caller-owned buffers — the
    /// serving-path primitive — with the blocks dispatched across
    /// `threads` scoped worker threads (clamped to the block count; `<= 1`
    /// runs serially). `out` is reshaped to the group's output map and
    /// every element is overwritten (the output grid tiles it exactly); on
    /// the serial path `scratch` carries all block buffers, so a caller
    /// that reuses both across requests performs **zero steady-state
    /// allocation** per run. Every block runs the one block loop (module
    /// docs): read from `input` in place, stored into `out` at its origin.
    /// A staged chain ([`stage_into`](Self::stage_into)) reads `input` as
    /// its first step's zero-bordered quantized buffer, or stores `out`
    /// inside a zero border its reader's padding wide (the border is
    /// zeroed on every run: `out` may be a recycled buffer). Inputs may
    /// carry any batch size `n` (a block then holds every image's rows;
    /// the serving executor walks a batch image by image and hands this
    /// one image at a time); block buffers grow with `n` the first time
    /// and are handed back through `scratch` for the next run.
    ///
    /// Blocks are independent by construction and write disjoint output
    /// regions, so every block runs the same per-block routine as the
    /// serial path and the output is **bitwise identical at any thread
    /// count**. [`MemStats`] stay exact: off-chip traffic is the group
    /// input + output and the working-set peak is a max over blocks — both
    /// scheduling-invariant. With `threads > 1` each scoped worker owns a
    /// private scratch for the duration of the call and reuses it across
    /// its contiguous chunk (`scratch` is bypassed — per-worker buffers
    /// cannot outlive the scope); its last step stores into a worker-local
    /// block, which it pastes into `out` under a lock.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid or
    /// a convolution's channels.
    pub fn run_fused_into(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut BlockScratch,
    ) -> Result<MemStats, TensorError> {
        self.run_blocks(input, threads, out, scratch, false)
    }

    /// [`run_fused_into`](Self::run_fused_into) with the residual add of
    /// the chain's input folded in: `out` receives `chain(input) + input`,
    /// bit for bit the sum an element-wise add of the two maps computes
    /// (IEEE-754 addition commutes, so in either operand order, but for
    /// which payload the sum of two NaNs carries). Blocks
    /// are independent, so the sum is too: after each block's last store,
    /// an out-of-line helper adds the input block at the output block's
    /// origin — into `out` on the serial path, into a worker's block
    /// before its paste when threaded. Off-chip traffic stays the input
    /// and output maps (the residual reads the block the chain already
    /// loaded), and each block's peak counts the input block it holds
    /// (`n × c ×` block area) on top of the chain's pair;
    /// [`residual_peak`](Self::residual_peak) is that peak for one image.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] for a staged chain
    /// ([`stage_into`](Self::stage_into)) and a chain whose output map
    /// shape differs from its input's, and otherwise the errors of
    /// [`run_fused_into`](Self::run_fused_into).
    pub fn run_residual_into(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut BlockScratch,
    ) -> Result<MemStats, TensorError> {
        if !self.keeps_map_shape() {
            return Err(TensorError::invalid(
                "FusedChain::run_residual_into: the chain is staged or changes the map's shape",
            ));
        }
        self.run_blocks(input, threads, out, scratch, true)
    }

    /// The one-image working-set peak of
    /// [`run_residual_into`](Self::run_residual_into): the largest, over
    /// the blocks, of a block's widest step pair plus the input block the
    /// residual holds. `None` for a chain that refuses a residual.
    pub fn residual_peak(&self) -> Option<usize> {
        let c = self.steps.first()?.plan.conv().c_in();
        if !self.keeps_map_shape() {
            return None;
        }
        let cols = self.in_grid.num_cols();
        (0..self.in_grid.num_rows() * cols)
            .map(|i| {
                let (row, col) = (i / cols, i % cols);
                let pairs = self.steps.iter().map(|s| {
                    let conv = s.plan.conv();
                    let (ib, ob) = (s.plan.grid().block(row, col), s.out_grid.block(row, col));
                    conv.c_in() * ib.area() + conv.c_out() * ob.area()
                });
                pairs.max().unwrap_or(0) + c * self.out_grid.block(row, col).area()
            })
            .max()
    }

    /// Whether a residual add folds into the chain: it reads and stores
    /// plain maps (nothing staged), and its output map has its input's
    /// shape.
    fn keeps_map_shape(&self) -> bool {
        let (Some(first), Some(last)) = (self.steps.first(), self.steps.last()) else {
            return false;
        };
        self.staged_in.is_none()
            && self.out_border == 0
            && first.plan.conv().c_in() == last.plan.conv().c_out()
            && (self.in_grid.h(), self.in_grid.w()) == (self.out_grid.h(), self.out_grid.w())
    }

    /// The block loop of [`run_fused_into`](Self::run_fused_into) and, with
    /// `residual`, of [`run_residual_into`](Self::run_residual_into), which
    /// adds each block's input block after its last store ([`add_block`]).
    /// Inlined into both, where `residual` is a constant, so the plain
    /// loop keeps its stack frame (`scripts/same_code.sh`).
    #[inline(always)]
    fn run_blocks(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut BlockScratch,
        residual: bool,
    ) -> Result<MemStats, TensorError> {
        let [n, c, h, w] = input.shape().dims();
        let (ih, iw) = (self.in_grid.h(), self.in_grid.w());
        let lead = 2 * self.staged_in.unwrap_or(0);
        if (h, w) != (ih + lead, iw + lead) {
            return Err(TensorError::shape_mismatch(
                "FusedChain::run_fused input",
                format!("[{},{}]", ih + lead, iw + lead),
                format!("[{h},{w}]"),
            ));
        }
        self.check_channels(c)?;
        let c_out = self.out_channels(c);
        let (oh, ow) = (self.out_grid.h(), self.out_grid.w());
        reset_bordered(out, [n, c_out, oh, ow], self.out_border);
        // Off-chip traffic counts the maps, never a staged border.
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: n * (c * ih * iw + c_out * oh * ow),
            bits_per_elem: self.act_bits().unwrap_or(32),
        };
        // Blocks are walked row-major by linear index — never materialised
        // as a list, so the serial (serving) path below performs zero
        // steady-state allocation (gated by `bconv-analyze` lint L1 and
        // the alloc-gate test).
        let cols = self.in_grid.num_cols();
        let num_blocks = self.in_grid.num_rows() * cols;
        let workers = threads.min(num_blocks).max(1);

        if workers <= 1 {
            // The caller's scratch serves every block and step of the run.
            for i in 0..num_blocks {
                let peak = self.run_block(input, (i / cols, i % cols), Some(&mut *out), scratch)?;
                let peak = if residual {
                    let ob = self.out_grid.block(i / cols, i % cols);
                    let to = OutGeom::region(ob.h0, ob.w0, [oh, ow]);
                    peak + add_block(input, ob, (out.data_mut(), to))
                } else {
                    peak
                };
                stats.peak_working_elems = stats.peak_working_elems.max(peak);
            }
            return Ok(stats);
        }

        // Static contiguous partition; workers paste their (disjoint)
        // output blocks under a short-held lock, so the outcome cannot
        // depend on timing.
        let chunk = num_blocks.div_ceil(workers);
        let out_slot = std::sync::Mutex::new(out);
        std::thread::scope(|scope| -> Result<(), TensorError> {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let (start, end) = (w * chunk, ((w + 1) * chunk).min(num_blocks));
                if start >= end {
                    break;
                }
                let out_slot = &out_slot;
                handles.push(scope.spawn(move || -> Result<usize, TensorError> {
                    let mut scratch = BlockScratch::new();
                    let mut peak = 0;
                    for i in start..end {
                        let (row, col) = (i / cols, i % cols);
                        let mut block_peak =
                            self.run_block(input, (row, col), None, &mut scratch)?;
                        if residual {
                            let ob = self.out_grid.block(row, col);
                            let to = OutGeom::compact(ob.bh, ob.bw);
                            block_peak += add_block(input, ob, (scratch.last.data_mut(), to));
                        }
                        peak = peak.max(block_peak);
                        // Poison-tolerant: pastes are disjoint, and a peer
                        // panic is surfaced as a typed error at join below
                        // (the partial output is discarded with it).
                        let mut guard =
                            out_slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        let (ob, b) = (self.out_grid.block(row, col), self.out_border);
                        guard.paste(&scratch.last, ob.h0 + b, ob.w0 + b)?;
                    }
                    Ok(peak)
                }));
            }
            for handle in handles {
                let peak = handle
                    .join()
                    .map_err(|_| TensorError::invalid("fused-chain block worker panicked"))??;
                stats.peak_working_elems = stats.peak_working_elems.max(peak);
            }
            Ok(())
        })?;
        Ok(stats)
    }

    /// Executes the group layer-by-layer on whole feature maps (the
    /// conventional accelerator dataflow): every intermediate map is
    /// written to and read back from off-chip memory.
    ///
    /// Numerically identical to [`run_fused`](Self::run_fused) — fusion
    /// changes the schedule, not the mathematics.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `input` does not match the planned grid.
    pub fn run_layerwise(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: self.act_bits().unwrap_or(32),
        };
        let mut cur = input.clone();
        // Each layer reads `cur` and writes `next`. Intermediate maps make a
        // DRAM round trip (write + read); the final output is written once.
        let layer = |stats: &mut MemStats, cur: &Tensor, next: &Tensor, last: bool| {
            let (i, o) = (cur.shape().numel(), next.shape().numel());
            stats.peak_working_elems = stats.peak_working_elems.max(i + o);
            stats.offchip_elems += if last { o } else { 2 * o };
        };
        // The chain output is whatever the last step produces — a trailing
        // in-place ReLU must not push the final conv back into the 2x
        // (write + read-back) intermediate bucket.
        let last = self.steps.len().saturating_sub(1);
        for (idx, step) in self.steps.iter().enumerate() {
            let mut next = match &step.qop {
                None => step.plan.forward(&cur)?,
                Some(op) => {
                    let mut scratch = QConvScratch::new();
                    step.plan.forward_blocks(&cur, op.qconv().c_out(), |padded, out| {
                        op.forward_prepadded_into(padded, out, &mut scratch)
                    })?
                }
            };
            if step.epi.relu {
                relu_inplace(&mut next);
            }
            // A pooling folded into a convolution's store is a layer of its
            // own here, on the convolution's map.
            if let Some((k, post)) = step.pool {
                let mut pooled = max_pool2d(&next, k, k)?;
                if post.relu {
                    relu_inplace(&mut pooled);
                }
                layer(&mut stats, &cur, &next, false);
                cur = std::mem::replace(&mut next, pooled);
            }
            layer(&mut stats, &cur, &next, idx == last);
            cur = next;
        }
        Ok((cur, stats))
    }
}

/// The chain's last step, which a ReLU or a pooling folds into.
fn last_conv(steps: &mut [Step]) -> Result<&mut Step, TensorError> {
    steps
        .last_mut()
        .ok_or_else(|| TensorError::invalid("FusedChain: a chain opens at a convolution"))
}

/// Where the last step of a block whose output block is `ob` stores: at
/// its place in the output map `map`, inside the map's zero border
/// `border` wide, or (`None`) into the compact `last`, shaped for `n`
/// images × `c_out` channels.
fn last_store<'a>(
    map: Option<&'a mut Tensor>,
    last: &'a mut Tensor,
    ob: Block,
    [n, c_out]: [usize; 2],
    border: usize,
) -> (&'a mut [f32], OutGeom) {
    match map {
        Some(map) => {
            let [.., map_h, map_w] = map.shape().dims();
            (map.data_mut(), OutGeom::region(ob.h0 + border, ob.w0 + border, [map_h, map_w]))
        }
        None => {
            last.reset([n, c_out, ob.bh, ob.bw]);
            (last.data_mut(), OutGeom::compact(ob.bh, ob.bw))
        }
    }
}

/// Adds block `ob` of `input` to the values stored at `to` in `dst` — the
/// residual add of [`FusedChain::run_residual_into`], after a block's last
/// store, kept out of the block loop's own code — and returns the elements
/// of the input block it holds.
#[inline(never)]
fn add_block(input: &Tensor, ob: Block, (dst, to): (&mut [f32], OutGeom)) -> usize {
    let [n, c, h, w] = input.shape().dims();
    let from = OutGeom::region(ob.h0, ob.w0, [h, w]);
    let src = input.data();
    for p in 0..n * c {
        for y in 0..ob.bh {
            let s = &src[from.offset + p * from.plane + y * from.row..][..ob.bw];
            let d = &mut dst[to.offset + p * to.plane + y * to.row..][..ob.bw];
            for (d, &s) in d.iter_mut().zip(s) {
                *d += s;
            }
        }
    }
    n * c * ob.area()
}

/// Shapes `map` as the `[n, c, h, w]` map `dims` inside a zero border `p`
/// wide, zeroing only the border (the interior is about to be stored).
/// Inlined into both block loops: called out of line, it shrinks
/// `run_fused_into`'s stack frame, which moves every kernel below it on
/// the stack (`scripts/same_code.sh`).
#[inline(always)]
fn reset_bordered(map: &mut Tensor, [n, c, h, w]: [usize; 4], p: usize) {
    let (ph, pw) = (h + 2 * p, w + 2 * p);
    map.reset([n, c, ph, pw]);
    if p == 0 {
        return;
    }
    for plane in map.data_mut().chunks_exact_mut(ph * pw) {
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

/// Copies `[planes, h, w]` values from `from` in `src` to `to` in `dst`
/// through `epi` — the store of a kernel that writes only compact blocks,
/// and the first step's read of its block from the group's input map.
fn store_rows(
    (src, from): (&[f32], OutGeom),
    (dst, to): (&mut [f32], OutGeom),
    [planes, h, w]: [usize; 3],
    epi: Epilogue,
) {
    for p in 0..planes {
        for y in 0..h {
            let s = &src[from.offset + p * from.plane + y * from.row..][..w];
            let d = &mut dst[to.offset + p * to.plane + y * to.row..][..w];
            if epi == Epilogue::NONE {
                d.copy_from_slice(s);
            } else {
                for (d, &s) in d.iter_mut().zip(s) {
                    *d = epi.apply(s);
                }
            }
        }
    }
}

/// A pipeline of fusion groups. Between groups the (now smaller) feature
/// map is concatenated in an on-chip extra buffer and re-gridded — the
/// fixed-blocking splice of Figure 4(a)/Figure 10. Groups whose joint
/// keeps the grid need no pipeline: [`FusedChain::extend`] makes them one
/// chain.
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    groups: Vec<FusedChain>,
}

impl FusedPipeline {
    /// Builds a pipeline from planned groups, validating that each group's
    /// output map feeds the next group's input map and that all groups
    /// execute at one precision ([`MemStats`] carries a single
    /// `bits_per_elem`, so a mixed float/quantized pipeline would
    /// misreport its traffic in bits).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on inconsistent group sizes
    /// and [`TensorError::InvalidParameter`] on mixed-precision groups.
    pub fn new(groups: Vec<FusedChain>) -> Result<Self, TensorError> {
        for pair in groups.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            if a.out_grid().h() != b.in_grid().h() || a.out_grid().w() != b.in_grid().w() {
                return Err(TensorError::shape_mismatch(
                    "FusedPipeline group boundary",
                    format!("[{},{}]", a.out_grid().h(), a.out_grid().w()),
                    format!("[{},{}]", b.in_grid().h(), b.in_grid().w()),
                ));
            }
            if a.act_bits() != b.act_bits() {
                return Err(TensorError::invalid(format!(
                    "FusedPipeline groups must share one precision, got {:?} then {:?} act bits",
                    a.act_bits(),
                    b.act_bits()
                )));
            }
        }
        Ok(Self { groups })
    }

    /// The fusion groups.
    pub fn groups(&self) -> &[FusedChain] {
        &self.groups
    }

    /// Executes all groups fused; intermediate maps between groups stay in
    /// the on-chip extra buffer, so off-chip traffic is still input + final
    /// output only.
    ///
    /// # Errors
    ///
    /// Propagates per-group execution errors.
    pub fn run_fused(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut out = Tensor::default();
        let stats = self.run_fused_into(input, 1, &mut out, &mut PipelineScratch::new())?;
        Ok((out, stats))
    }

    /// [`run_fused`](Self::run_fused) into caller-owned buffers, each
    /// group's blocks dispatched across `threads` scoped workers (see
    /// [`FusedChain::run_fused_into`]): `out` receives the final group's
    /// output and `scratch` carries the per-block intermediates plus the
    /// two alternating group-boundary maps (the accelerator's extra
    /// buffer), so a caller that reuses both performs no steady-state
    /// allocation. Groups still run in order — the splice is a sequencing
    /// point — so the output is bitwise identical at any thread count.
    ///
    /// [`MemStats`] stay exact and scheduling-invariant: off-chip traffic
    /// is the pipeline input + final output only, and the working-set peak
    /// adds the on-chip boundary maps alive around each group (its source
    /// map unless that is the off-chip input, and its destination map
    /// unless that is the off-chip output) to the group's own ping-pong
    /// block peak.
    ///
    /// # Errors
    ///
    /// Propagates per-group execution errors; an empty pipeline is
    /// rejected (it has no output map to produce).
    pub fn run_fused_into(
        &self,
        input: &Tensor,
        threads: usize,
        out: &mut Tensor,
        scratch: &mut PipelineScratch,
    ) -> Result<MemStats, TensorError> {
        let Some(last) = self.groups.len().checked_sub(1) else {
            return Err(TensorError::invalid("cannot run an empty FusedPipeline"));
        };
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: 0,
            bits_per_elem: self.groups.iter().find_map(FusedChain::act_bits).unwrap_or(32),
        };
        let PipelineScratch { block, ping, pong } = scratch;
        for (idx, group) in self.groups.iter().enumerate() {
            // Source: the pipeline input for the first group, the previous
            // group's boundary map (in `ping`) afterwards. Destination: the
            // caller's output for the last group, `pong` otherwise.
            let gs = match (idx == 0, idx == last) {
                (true, true) => group.run_fused_into(input, threads, out, block)?,
                (true, false) => group.run_fused_into(input, threads, pong, block)?,
                (false, true) => group.run_fused_into(ping, threads, out, block)?,
                (false, false) => group.run_fused_into(ping, threads, pong, block)?,
            };
            let src_elems = if idx == 0 { 0 } else { ping.shape().numel() };
            let dst_elems = if idx == last { 0 } else { pong.shape().numel() };
            stats.peak_working_elems =
                stats.peak_working_elems.max(gs.peak_working_elems + src_elems + dst_elems);
            // Each group counts its input and output maps; the boundary
            // maps between groups stay on chip.
            stats.offchip_elems += gs.offchip_elems - src_elems - dst_elems;
            std::mem::swap(ping, pong);
        }
        Ok(stats)
    }

    /// Executes all groups layer-by-layer (conventional dataflow).
    ///
    /// # Errors
    ///
    /// Propagates per-group execution errors.
    pub fn run_layerwise(&self, input: &Tensor) -> Result<(Tensor, MemStats), TensorError> {
        let mut cur = input.clone();
        let mut stats = MemStats {
            peak_working_elems: 0,
            offchip_elems: input.shape().numel(),
            bits_per_elem: self.groups.iter().find_map(FusedChain::act_bits).unwrap_or(32),
        };
        let last = self.groups.len().saturating_sub(1);
        for (idx, group) in self.groups.iter().enumerate() {
            let (next, gs) = group.run_layerwise(&cur)?;
            stats.peak_working_elems = stats.peak_working_elems.max(gs.peak_working_elems);
            // Group outputs also round-trip through DRAM layer-wise.
            stats.offchip_elems += gs.offchip_elems - cur.shape().numel() - next.shape().numel()
                + if idx == last { next.shape().numel() } else { 2 * next.shape().numel() };
            cur = next;
        }
        Ok((cur, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::BlockingPattern;
    use bconv_tensor::conv::ConvGeom;
    use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};

    fn conv(c_in: usize, c_out: usize, seed: u64) -> Conv2d {
        he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut seeded_rng(seed)).unwrap()
    }

    /// A float chain under the default kernel policy.
    fn plan_float(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
    ) -> Result<FusedChain, TensorError> {
        FusedChain::plan(ops, grid, pad_mode, KernelPolicy::default(), None)
    }

    /// A quantized chain under the default kernel policy.
    fn plan_quant(
        ops: Vec<ChainOp>,
        grid: BlockGrid,
        pad_mode: PadMode,
        weight_bits: u8,
        act_params: &[QParams],
    ) -> Result<FusedChain, TensorError> {
        let quant = Some((weight_bits, act_params));
        FusedChain::plan(ops, grid, pad_mode, KernelPolicy::default(), quant)
    }

    fn three_layer_chain(grid: BlockGrid) -> FusedChain {
        // The Figure 2(b) scenario: three consecutive 3x3 convolutions.
        plan_float(
            vec![
                ChainOp::conv(conv(2, 4, 1)),
                ChainOp::Relu,
                ChainOp::conv(conv(4, 4, 2)),
                ChainOp::Relu,
                ChainOp::conv(conv(4, 2, 3)),
            ],
            grid,
            PadMode::Zero,
        )
        .unwrap()
    }

    #[test]
    fn fused_equals_layerwise_exactly() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = three_layer_chain(grid);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(4));
        let (fused, _) = chain.run_fused(&input).unwrap();
        let (layerwise, _) = chain.run_layerwise(&input).unwrap();
        assert_eq!(fused.data(), layerwise.data(), "fusion is a schedule change only");
    }

    #[test]
    fn fused_eliminates_intermediate_offchip_traffic() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = three_layer_chain(grid);
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(5));
        let (_, fs) = chain.run_fused(&input).unwrap();
        let (_, ls) = chain.run_layerwise(&input).unwrap();
        // Fused: input + output only.
        assert_eq!(fs.offchip_elems, 2 * 8 * 8 + 2 * 8 * 8);
        // Layer-wise: input + output + 2x both intermediates (4ch 8x8 each).
        assert_eq!(ls.offchip_elems, 2 * 64 + 2 * 64 + 2 * (4 * 64) + 2 * (4 * 64));
        assert!(fs.offchip_elems < ls.offchip_elems);
    }

    #[test]
    fn fused_working_set_is_block_sized() {
        let grid = BlockGrid::from_pattern(16, 16, BlockingPattern::hierarchical(4)).unwrap();
        let chain = plan_float(
            vec![ChainOp::conv(conv(2, 2, 7)), ChainOp::conv(conv(2, 2, 8))],
            grid,
            PadMode::Zero,
        )
        .unwrap();
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(9));
        let (_, fs) = chain.run_fused(&input).unwrap();
        let (_, ls) = chain.run_layerwise(&input).unwrap();
        // Fused working set: two 4x4x2 block buffers = 64 elements,
        // vs layer-wise two full 16x16x2 maps = 1024.
        assert_eq!(fs.peak_working_elems, 2 * (2 * 4 * 4));
        assert_eq!(ls.peak_working_elems, 2 * (2 * 16 * 16));
    }

    #[test]
    fn pooling_inside_a_fused_group() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let chain = plan_float(
            vec![
                ChainOp::conv(conv(1, 2, 11)),
                ChainOp::Relu,
                ChainOp::MaxPool { k: 2 },
                ChainOp::conv(conv(2, 1, 12)),
            ],
            grid,
            PadMode::Zero,
        )
        .unwrap();
        let input = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut seeded_rng(13));
        let (fused, _) = chain.run_fused(&input).unwrap();
        let (layerwise, _) = chain.run_layerwise(&input).unwrap();
        assert_eq!(fused.shape().dims(), [1, 1, 4, 4]);
        assert_eq!(fused.data(), layerwise.data(), "fusion is a schedule change only");
    }

    #[test]
    fn a_chain_refuses_ops_that_fold_into_no_convolution() {
        // A chain is its convolutions: an op before the first one, a
        // second pooling on one, and a window wider than the pooled
        // store's stage (12×12 windows of a 16-lane tile are 2 304
        // outputs) are refused by `plan` and by `extend`, at both
        // precisions.
        let grid = BlockGrid::single(24, 24);
        let act = [QParams::from_abs_max(1.0, 8)];
        let plan = |ops: Vec<ChainOp>, quant: bool| {
            let quant = quant.then_some((8, &act[..]));
            FusedChain::plan(ops, grid.clone(), PadMode::Zero, KernelPolicy::default(), quant)
        };
        let refused = |got: Result<FusedChain, TensorError>| {
            matches!(got, Err(TensorError::InvalidParameter { .. }))
        };
        let cv = || ChainOp::conv(conv(3, 16, 16));
        let pool = |k| ChainOp::MaxPool { k };
        for quant in [false, true] {
            for ops in [
                vec![],
                vec![ChainOp::Relu, cv()],
                vec![pool(2), cv()],
                vec![cv(), pool(2), pool(2)],
                vec![cv(), ChainOp::Relu, pool(2), ChainOp::Relu, pool(2)],
                vec![cv(), ChainOp::Relu, pool(12)],
            ] {
                assert!(refused(plan(ops.clone(), quant)), "{ops:?} quant {quant}");
            }
            let extend = |head: Vec<ChainOp>, tail: Vec<ChainOp>| {
                let quant = quant.then_some((8, &[][..]));
                plan(head, quant.is_some()).unwrap().extend(
                    tail,
                    PadMode::Zero,
                    KernelPolicy::default(),
                    quant,
                )
            };
            assert!(refused(extend(vec![cv(), pool(2)], vec![pool(2)])), "quant {quant}");
            assert!(refused(extend(vec![cv(), ChainOp::Relu], vec![pool(12)])), "quant {quant}");
            // A pooling at the head of a group folds into the chain's last
            // convolution when that has none.
            assert!(extend(vec![cv()], vec![ChainOp::Relu, pool(2)]).is_ok(), "quant {quant}");
        }
        // An 8×8 window folds, and the peak counts the pooled output.
        let input = uniform_tensor([1, 3, 24, 24], -1.0, 1.0, &mut seeded_rng(15));
        for quant in [false, true] {
            let chain = plan(vec![cv(), ChainOp::Relu, pool(8)], quant).unwrap();
            assert_eq!(chain.steps.len(), 1);
            let (fused, stats) = chain.run_fused(&input).unwrap();
            let (layerwise, _) = chain.run_layerwise(&input).unwrap();
            assert_eq!(fused.shape().dims(), [1, 16, 3, 3]);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&layerwise), "quant {quant}");
            assert_eq!(stats.peak_working_elems, 3 * 24 * 24 + 16 * 3 * 3, "quant {quant}");
        }
    }

    #[test]
    fn strided_conv_in_chain_is_rejected() {
        // Only on a grid of several blocks: one block is the dense
        // convolution at any stride.
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let mut rng = seeded_rng(14);
        let strided = he_conv2d(1, 1, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
        assert!(plan_float(vec![ChainOp::conv(strided.clone())], grid, PadMode::Zero).is_err());
        let single =
            plan_float(vec![ChainOp::conv(strided)], BlockGrid::single(8, 8), PadMode::Zero);
        assert_eq!(single.unwrap().out_grid().h(), 4);
    }

    #[test]
    fn one_block_chains_are_the_dense_layer() {
        // A whole-map layer is a one-step chain on one block: at both
        // precisions, every stride and any thread count, its bits are the
        // dense layer's, and a staged pair's are the unstaged pair's.
        use bconv_quant::qconv::QConv2d;
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let shapes = crate::block_conv::tests::DENSE_SHAPES;
        for (i, &(c_in, c_out, k, s, p, groups)) in shapes.iter().enumerate() {
            let mut rng = seeded_rng(60 + i as u64);
            let cv =
                Arc::new(he_conv2d(c_in, c_out, ConvGeom::new(k, s, p), groups, &mut rng).unwrap());
            let input = uniform_tensor([1, c_in, 24, 24], -1.0, 1.0, &mut rng);
            let grid = BlockGrid::single(24, 24);
            let run = |chain: &FusedChain, threads| {
                let mut out = Tensor::default();
                chain.run_fused_into(&input, threads, &mut out, &mut BlockScratch::new()).unwrap();
                out
            };
            let dense = cv.forward(&input).unwrap();
            for policy in [KernelPolicy::Auto, KernelPolicy::Direct] {
                let ops = vec![ChainOp::Conv(Arc::clone(&cv))];
                let chain =
                    FusedChain::plan(ops, grid.clone(), PadMode::Zero, policy, None).unwrap();
                assert!(bits(&run(&chain, 2)) == bits(&dense), "shape {i} {policy:?}");
            }
            for (wb, ab) in [(8, 8), (4, 8), (8, 16)] {
                let params = [calibrated(&input, ab)];
                let ops = vec![ChainOp::Conv(Arc::clone(&cv))];
                let chain = plan_quant(ops, grid.clone(), PadMode::Zero, wb, &params).unwrap();
                let kind = chain.convs().next().unwrap().kernel();
                let q = QConv2d::from_conv_with_kernel(&cv, wb, kind).unwrap();
                let want = q.forward(&input, params[0], PadMode::Zero).unwrap();
                assert!(bits(&run(&chain, 2)) == bits(&want), "shape {i} w{wb}a{ab}");
            }
        }
    }

    #[test]
    fn staged_maps_keep_the_bits_and_the_stats() {
        // A 2×2-block chain and a one-block chain storing a staged map for
        // a one-block exact conv: same bits and traffic as the compact
        // hand-over, through recycled buffers holding stale values.
        let grid = BlockGrid::from_pattern(12, 12, BlockingPattern::hierarchical(2)).unwrap();
        let input = uniform_tensor([1, 2, 12, 12], -1.0, 1.0, &mut seeded_rng(81));
        let (a, b) = (Arc::new(conv(2, 16, 82)), Arc::new(conv(16, 2, 83)));
        let params = [calibrated(&input, 8)];
        let mid = QParams::from_abs_max(2.0, 8);
        for producer_grid in [grid, BlockGrid::single(12, 12)] {
            let plan = |op: &Arc<Conv2d>, grid: BlockGrid, params: &[QParams]| {
                plan_quant(
                    vec![ChainOp::Conv(Arc::clone(op)), ChainOp::Relu],
                    grid,
                    PadMode::Zero,
                    8,
                    params,
                )
                .unwrap()
            };
            let (from, to) = (
                plan(&a, producer_grid.clone(), &params),
                plan(&b, BlockGrid::single(12, 12), &[mid]),
            );
            let (mut staged_from, mut staged_to) = (from.clone(), to.clone());
            assert!(staged_from.stage_into(&mut staged_to));
            // Only a one-block reader stages.
            let one_block = from.in_grid().num_blocks() == 1;
            assert_eq!(to.clone().stage_into(&mut from.clone()), one_block);
            let (want_mid, _) = from.run_fused(&input).unwrap();
            let (want, _) = to.run_fused(&want_mid).unwrap();
            let mut scratch = BlockScratch::new();
            for threads in [1, 2] {
                let (mut map, mut out) =
                    (Tensor::filled([1, 16, 14, 14], f32::NAN), Tensor::filled([1, 1, 1, 3], 7.0));
                let fs =
                    staged_from.run_fused_into(&input, threads, &mut map, &mut scratch).unwrap();
                assert_eq!(map.shape().dims(), [1, 16, 14, 14]);
                let ts = staged_to.run_fused_into(&map, threads, &mut out, &mut scratch).unwrap();
                assert_eq!(out.data(), want.data(), "threads {threads}");
                assert_eq!(fs.offchip_elems, (2 + 16) * 144);
                assert_eq!(ts.offchip_elems, (16 + 2) * 144);
            }
        }
    }

    #[test]
    fn pipeline_regrids_between_groups() {
        // Group 1: conv+pool under 4x4 blocks of an 16x16 map -> 8x8 map of
        // 2x2 blocks; splice into a single block for group 2 (Figure 10).
        let g1_grid = BlockGrid::from_pattern(16, 16, BlockingPattern::fixed(4)).unwrap();
        let g1 = plan_float(
            vec![ChainOp::conv(conv(1, 2, 21)), ChainOp::MaxPool { k: 2 }],
            g1_grid,
            PadMode::Zero,
        )
        .unwrap();
        let g2_grid = g1.out_grid().clone().merge(4).unwrap();
        assert_eq!(g2_grid.num_blocks(), 1);
        let g2 = plan_float(vec![ChainOp::conv(conv(2, 1, 22))], g2_grid, PadMode::Zero).unwrap();
        let pipeline = FusedPipeline::new(vec![g1, g2]).unwrap();
        let input = uniform_tensor([1, 1, 16, 16], -1.0, 1.0, &mut seeded_rng(23));
        let (fused, fs) = pipeline.run_fused(&input).unwrap();
        let (layerwise, ls) = pipeline.run_layerwise(&input).unwrap();
        assert_eq!(fused.data(), layerwise.data(), "fusion is a schedule change only");
        assert!(fs.offchip_elems < ls.offchip_elems);
        // Fused pipeline off-chip = input + final output only.
        assert_eq!(fs.offchip_elems, 16 * 16 + 8 * 8);
    }

    #[test]
    fn pipeline_scratch_execution_is_thread_invariant() {
        let g1_grid = BlockGrid::from_pattern(16, 16, BlockingPattern::fixed(4)).unwrap();
        let g1 = plan_float(
            vec![ChainOp::conv(conv(1, 2, 71)), ChainOp::MaxPool { k: 2 }],
            g1_grid,
            PadMode::Zero,
        )
        .unwrap();
        let g2_grid = g1.out_grid().clone().merge(2).unwrap();
        let g2 = plan_float(vec![ChainOp::conv(conv(2, 1, 72))], g2_grid, PadMode::Zero).unwrap();
        let pipeline = FusedPipeline::new(vec![g1, g2]).unwrap();
        let input = uniform_tensor([1, 1, 16, 16], -1.0, 1.0, &mut seeded_rng(73));
        let (serial, ss) = pipeline.run_fused(&input).unwrap();
        let mut scratch = PipelineScratch::new();
        for threads in [1usize, 2, 8] {
            let mut out = Tensor::default();
            // Reusing one scratch across runs and thread counts must not
            // leak state into outputs or stats.
            let stats = pipeline.run_fused_into(&input, threads, &mut out, &mut scratch).unwrap();
            assert_eq!(out.data(), serial.data(), "threads={threads}");
            assert_eq!(stats, ss, "threads={threads}");
        }
    }

    #[test]
    fn empty_pipeline_is_rejected_at_run() {
        let p = FusedPipeline::new(Vec::new()).unwrap();
        assert!(p.run_fused(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    /// Per-tensor abs-max params, as a calibration pass would freeze them.
    fn calibrated(t: &Tensor, bits: u8) -> QParams {
        let m = t.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        QParams::from_abs_max(m, bits)
    }

    #[test]
    fn quantized_chain_is_schedule_invariant_and_tracks_float() {
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let ops = vec![ChainOp::conv(conv(2, 4, 31)), ChainOp::Relu, ChainOp::conv(conv(4, 2, 32))];
        let input = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(33));
        let float_chain = plan_float(ops.clone(), grid.clone(), PadMode::Zero).unwrap();
        assert_eq!(float_chain.act_bits(), None);
        let (float_out, fs) = float_chain.run_fused(&input).unwrap();
        // Calibrate each conv stage's input from the float path.
        let head = plan_float(ops[..2].to_vec(), grid.clone(), PadMode::Zero).unwrap();
        let (mid, _) = head.run_fused(&input).unwrap();
        let params = [calibrated(&input, 8), calibrated(&mid, 8)];
        let qchain = plan_quant(ops, grid, PadMode::Zero, 8, &params).unwrap();
        assert_eq!(qchain.act_bits(), Some(8));
        let (q_fused, qs) = qchain.run_fused(&input).unwrap();
        let (q_layer, _) = qchain.run_layerwise(&input).unwrap();
        assert_eq!(
            q_fused.data(),
            q_layer.data(),
            "quantized fusion must be a schedule change only"
        );
        // Same element traffic, narrower words: bits shrink 32 -> 8.
        assert_eq!(qs.offchip_elems, fs.offchip_elems);
        assert_eq!(qs.bits_per_elem, 8);
        assert_eq!(fs.bits_per_elem, 32);
        assert_eq!(qs.offchip_bits(), qs.offchip_elems as u64 * 8);
        assert_eq!(fs.offchip_bits(), 4 * qs.offchip_bits());
        let mag = float_out.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let err = float_out.max_abs_diff(&q_fused).unwrap() / mag;
        assert!(err < 0.1, "8-bit quantized chain error too large: {err}");
    }

    #[test]
    fn quantized_chain_honors_block_pad_mode() {
        // The motivating bug: quantized block execution under replicate
        // padding must track the replicate float chain, not zero padding.
        let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
        let cv = conv(1, 1, 35);
        let input = uniform_tensor([1, 1, 8, 8], 0.5, 1.0, &mut seeded_rng(36));
        let params = [calibrated(&input, 8)];
        let run = |mode| {
            let chain = plan_quant(vec![ChainOp::conv(cv.clone())], grid.clone(), mode, 8, &params)
                .unwrap();
            chain.run_fused(&input).unwrap().0
        };
        let float_rep =
            plan_float(vec![ChainOp::conv(cv.clone())], grid.clone(), PadMode::Replicate)
                .unwrap()
                .run_fused(&input)
                .unwrap()
                .0;
        let mag = float_rep.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
        let err_rep = float_rep.max_abs_diff(&run(PadMode::Replicate)).unwrap() / mag;
        let err_zero = float_rep.max_abs_diff(&run(PadMode::Zero)).unwrap() / mag;
        assert!(err_rep < 0.05, "replicate quant chain diverges: {err_rep}");
        assert!(err_zero > 4.0 * err_rep, "zero padding should visibly differ");
    }

    #[test]
    fn plan_quantized_validates_param_count() {
        let grid = BlockGrid::single(8, 8);
        let ops = vec![ChainOp::conv(conv(2, 2, 41))];
        let p = QParams::from_abs_max(1.0, 8);
        assert!(plan_quant(ops.clone(), grid.clone(), PadMode::Zero, 8, &[]).is_err());
        assert!(plan_quant(ops, grid, PadMode::Zero, 8, &[p, p]).is_err());
    }

    #[test]
    fn pipeline_rejects_mixed_precision_groups() {
        // One MemStats word width per pipeline: float + quantized groups
        // cannot share a run without misreporting offchip_bits.
        let f =
            plan_float(vec![ChainOp::conv(conv(1, 1, 51))], BlockGrid::single(8, 8), PadMode::Zero)
                .unwrap();
        let q = plan_quant(
            vec![ChainOp::conv(conv(1, 1, 52))],
            BlockGrid::single(8, 8),
            PadMode::Zero,
            8,
            &[QParams::from_abs_max(1.0, 8)],
        )
        .unwrap();
        assert!(FusedPipeline::new(vec![f.clone(), q]).is_err());
        assert!(FusedPipeline::new(vec![f.clone(), f]).is_ok());
    }

    #[test]
    fn pipeline_rejects_mismatched_groups() {
        let g1 = plan_float(
            vec![ChainOp::conv(conv(1, 1, 53)), ChainOp::MaxPool { k: 2 }],
            BlockGrid::single(8, 8),
            PadMode::Zero,
        )
        .unwrap();
        let g2 =
            plan_float(vec![ChainOp::conv(conv(1, 1, 54))], BlockGrid::single(8, 8), PadMode::Zero)
                .unwrap();
        assert!(FusedPipeline::new(vec![g1, g2]).is_err());
    }
}
