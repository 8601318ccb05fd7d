//! Property test of the fused block loop: random chains of 3×3 and 1×1
//! convolutions, ReLUs and 2×2 / 3×3 poolings — as the planner builds
//! them: each opens at a convolution, and a pooling folds into the store
//! of the convolution before it — at every precision, under every
//! block-padding mode and on hierarchical, fixed and irregular fixed grids,
//! run fused at one and two threads, must equal the layer-by-layer schedule
//! bit for bit, and report the unpadded working-set peak of the grids: a
//! convolution and its pooling are one input / output pair. Aligned fusion
//! groups — each planned on the grid the one before leaves behind —
//! planned as one chain over their union must run exactly like the
//! pipeline of the groups.

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::fusion::{BlockScratch, ChainOp, FusedChain, FusedPipeline};
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;
use bconv_tensor::Tensor;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A small deterministic generator for the chain's shape (splitmix64).
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }
}

/// `(weight bits, activation bits)`; `None` is the float chain.
const PRECISIONS: [Option<(u8, u8)>; 4] = [None, Some((8, 8)), Some((4, 8)), Some((8, 16))];

/// A random conv with `c_in` inputs: 3×3 or 1×1, `c_out / groups` from the
/// kernels' dispatch boundaries (up to 9 on a big map, to keep the
/// layer-wise oracle quick), one or two groups, random biases.
fn random_conv(d: &mut Draw, c_in: usize, big_map: bool) -> Conv2d {
    let geom = if d.below(4) == 0 { ConvGeom::new(1, 1, 0) } else { ConvGeom::same(3) };
    let groups = if c_in.is_multiple_of(2) && d.below(3) == 0 { 2 } else { 1 };
    let per_group = if big_map { d.pick(&[1, 7, 8, 9]) } else { d.pick(&[1, 7, 8, 9, 16, 17]) };
    let mut rng = seeded_rng(d.below(1 << 20) as u64);
    let mut conv = he_conv2d(c_in, per_group * groups, geom, groups, &mut rng).unwrap();
    for b in conv.bias_mut() {
        *b = d.below(200) as f32 / 100.0 - 1.0;
    }
    conv
}

/// A step of a chain as the oracle sees it: input grid and channels,
/// output grid and channels.
type OracleStep = (BlockGrid, usize, BlockGrid, usize);

/// The unpadded `cur + next` peak of running `ops` on `n` images of `c`
/// channels tiled by the chain's input grid — per step, the largest input
/// block plus its output block, where a step is a conv with the pooling
/// that follows it (ReLUs between them included) folded in — and how many
/// poolings folded right after their conv and after a ReLU.
fn grid_peak(chain: &FusedChain, ops: &[ChainOp], n: usize, mut c: usize) -> (usize, [usize; 2]) {
    let mut grid = chain.in_grid().clone();
    let mut convs = chain.convs();
    let (mut steps, mut folds, mut after_relu) = (Vec::<OracleStep>::new(), [0; 2], false);
    for op in ops {
        match op {
            ChainOp::Conv(conv) => {
                let plan = convs.next().unwrap();
                assert_eq!(plan.grid(), &grid);
                let out_grid = plan.output_grid().unwrap();
                steps.push((grid, c, out_grid.clone(), conv.c_out()));
                (grid, c) = (out_grid, conv.c_out());
            }
            ChainOp::MaxPool { k } => {
                grid = grid.downscale(*k).unwrap();
                steps.last_mut().unwrap().2 = grid.clone();
                folds[after_relu as usize] += 1;
            }
            ChainOp::Relu => {}
        }
        after_relu = matches!(op, ChainOp::Relu);
    }
    let mut peak = 0;
    for (in_grid, c, out_grid, c_out) in steps {
        for row in 0..in_grid.num_rows() {
            for col in 0..in_grid.num_cols() {
                let (ib, ob) = (in_grid.block(row, col), out_grid.block(row, col));
                peak = peak.max(n * (c * ib.bh * ib.bw + c_out * ob.bh * ob.bw));
            }
        }
    }
    (peak, folds)
}

/// A `k × k` pooling of the grid `g`, `k` 2 or, at times, 3, if it stays
/// aligned; `g` is left at its output.
fn random_pool(d: &mut Draw, g: &mut BlockGrid) -> Option<ChainOp> {
    let k = if d.below(4) == 0 { 3 } else { 2 };
    let pooled = g.downscale(k).or_else(|_| g.downscale(2)).ok()?;
    let k = g.w() / pooled.w();
    *g = pooled;
    Some(ChainOp::MaxPool { k })
}

/// 1–`max_ops` random ops on `c` channels tiled by `g`, opening at a
/// convolution, pooling only where the grid stays aligned and only after a
/// convolution no pooling has folded into yet — two convolutions in three
/// go on to a pooling, half of them after a ReLU; `c` and `g` are left at
/// the ops' output.
fn random_ops(
    d: &mut Draw,
    c: &mut usize,
    g: &mut BlockGrid,
    max_ops: usize,
    big_map: bool,
) -> Vec<ChainOp> {
    let mut ops = Vec::new();
    // Whether a pooling may follow: the last conv has none yet.
    let mut poolable = false;
    for i in 0..1 + d.below(max_ops) {
        match d.below(5) {
            kind if i == 0 || kind < 2 => {
                let conv = random_conv(d, *c, big_map);
                *c = conv.c_out();
                ops.push(ChainOp::conv(conv));
                poolable = true;
                if d.below(3) > 0 {
                    let relu = d.below(2) == 0;
                    if let Some(pool) = random_pool(d, g) {
                        ops.extend(relu.then_some(ChainOp::Relu));
                        ops.push(pool);
                        poolable = false;
                    }
                }
            }
            3 | 4 if poolable => match random_pool(d, g) {
                Some(pool) => {
                    ops.push(pool);
                    poolable = false;
                }
                None => ops.push(ChainOp::Relu),
            },
            _ => ops.push(ChainOp::Relu),
        }
    }
    ops
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Cases of `fused_block_loop_equals_layerwise_bit_for_bit`.
const CASES: usize = 96;

/// Cases of `fused_block_loop_equals_layerwise_bit_for_bit` run so far, and
/// the poolings its chains folded into a conv's store per precision, right
/// after the conv and after a ReLU: every kind must occur in the run.
static CASES_RUN: AtomicUsize = AtomicUsize::new(0);
static FOLDS: [[AtomicUsize; 2]; 4] = [const { [const { AtomicUsize::new(0) }; 2] }; 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES as u32))]

    #[test]
    fn fused_block_loop_equals_layerwise_bit_for_bit(
        seed in 0u64..1_000_000_000,
        grid_kind in 0usize..3,
        mode in 0usize..3,
        precision in 0usize..4,
    ) {
        let mut d = Draw(seed);
        let (h, w, pattern) = match grid_kind {
            0 => {
                let g = 1 + d.below(3);
                (8 + 2 * d.below(6), 8 + 2 * d.below(6), BlockingPattern::hierarchical(g))
            }
            1 => (8 + d.below(12), 8 + d.below(12), BlockingPattern::fixed(2 + 2 * d.below(4))),
            // Irregular fixed blocking: F28 on 41 splits 28 + 13.
            _ => (41, 41, BlockingPattern::fixed(28)),
        };
        let grid = BlockGrid::from_pattern(h, w, pattern).unwrap();
        let pad_mode = PadMode::ALL[mode];
        let precision_index = precision;
        let precision = PRECISIONS[precision];
        let n = 1 + d.below(2);
        let c0 = d.pick(&[1, 2, 3, 4]);
        let big_map = h * w > 400;

        let ops = random_ops(&mut d, &mut c0.clone(), &mut grid.clone(), 5, big_map);
        let convs = ops.iter().filter(|op| matches!(op, ChainOp::Conv(_))).count();
        let params: Vec<QParams> = (0..convs)
            .map(|_| {
                let act_bits = precision.map_or(8, |(_, a)| a);
                QParams::from_abs_max(0.25 + d.below(300) as f32 / 100.0, act_bits)
            })
            .collect();
        let policy = if d.below(6) == 0 { KernelPolicy::Direct } else { KernelPolicy::Auto };
        let quant = precision.map(|(wb, _)| (wb, &params[..]));
        let chain = FusedChain::plan(ops.clone(), grid, pad_mode, policy, quant).unwrap();
        let (peak, folds) = grid_peak(&chain, &ops, n, c0);
        for (count, folded) in FOLDS[precision_index].iter().zip(folds) {
            count.fetch_add(folded, Ordering::Relaxed);
        }

        let mut input = uniform_tensor([n, c0, h, w], -1.5, 1.5, &mut seeded_rng(seed ^ 7));
        // A NaN activation takes every path's saturation rule too.
        if d.below(4) == 0 {
            let at = d.below(input.data().len());
            input.data_mut()[at] = f32::NAN;
        }
        let layerwise = chain.run_layerwise(&input);
        let mut scratch = BlockScratch::new();
        for threads in [1usize, 2, 1] {
            let mut out = Tensor::filled([1, 1, 1, 1], f32::NAN);
            let fused = chain.run_fused_into(&input, threads, &mut out, &mut scratch);
            match (&layerwise, fused) {
                (Ok((want, _)), Ok(stats)) => {
                    prop_assert_eq!(out.shape(), want.shape());
                    prop_assert_eq!(bits(&out), bits(want), "threads {}: {:?}", threads, ops);
                    prop_assert_eq!(stats.peak_working_elems, peak);
                    prop_assert_eq!(stats.offchip_elems, input.shape().numel() + want.shape().numel());
                }
                // Reflect padding wider than a block fails on both schedules.
                (Err(_), Err(_)) => prop_assert_eq!(pad_mode, PadMode::Reflect),
                (l, f) => prop_assert!(false, "layerwise {:?} vs fused {:?}", l.is_ok(), f.is_ok()),
            }
        }
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            let folds = FOLDS.each_ref().map(|f| f.each_ref().map(|n| n.load(Ordering::Relaxed)));
            prop_assert!(folds.iter().flatten().all(|&n| n > 0), "folds per precision: {:?}", folds);
        }
    }

    /// 2–4 aligned groups — each planned on the grid the group before
    /// leaves behind, with and without pools — planned as one chain
    /// over their union on the first grid: the pipeline's and the
    /// layer-wise bits, the same off-chip elements, the union's own peak,
    /// and for every conv the grid and per-block padding its own group
    /// gives it. The chain `extend` grows
    /// group by group is the same chain.
    #[test]
    fn aligned_groups_plan_as_one_chain(
        seed in 0u64..1_000_000_000,
        hierarchical in 0usize..2,
        mode in 0usize..3,
        precision in 0usize..3,
    ) {
        let mut d = Draw(seed);
        let g = 2 + 2 * hierarchical;
        let (h, w) = (4 * g * (1 + d.below(3)), 4 * g * (1 + d.below(3)));
        let grid = BlockGrid::from_pattern(h, w, BlockingPattern::hierarchical(g)).unwrap();
        let pad_mode = PadMode::ALL[mode];
        let precision = PRECISIONS[precision];
        let (n, c0) = (1 + d.below(2), d.pick(&[1, 2, 3]));
        // 2–4 groups of 1–4 random ops, each opening at a conv.
        let (mut ops, mut bounds, mut c, mut g) = (Vec::new(), vec![], c0, grid.clone());
        for _ in 0..2 + d.below(3) {
            bounds.push(ops.len());
            ops.extend(random_ops(&mut d, &mut c, &mut g, 4, h * w > 400));
        }
        bounds.push(ops.len());
        let convs_in = |ops: &[ChainOp]| ops.iter().filter(|op| matches!(op, ChainOp::Conv(_))).count();
        let act_bits = precision.map_or(8, |(_, a)| a);
        let params: Vec<QParams> = (0..convs_in(&ops))
            .map(|_| QParams::from_abs_max(0.25 + d.below(300) as f32 / 100.0, act_bits))
            .collect();
        let policy = if d.below(6) == 0 { KernelPolicy::Direct } else { KernelPolicy::Auto };
        let plan = |ops: &[ChainOp], grid: BlockGrid, params: &[QParams]| {
            let quant = precision.map(|(wb, _)| (wb, params));
            FusedChain::plan(ops.to_vec(), grid, pad_mode, policy, quant)
        };

        let union = plan(&ops, grid.clone(), &params).unwrap();
        let (mut groups, mut chained) = (Vec::<FusedChain>::new(), None::<FusedChain>);
        let mut first_param = 0;
        for span in bounds.windows(2) {
            let group_ops = &ops[span[0]..span[1]];
            let group_params = &params[first_param..first_param + convs_in(group_ops)];
            first_param += group_params.len();
            let in_grid = groups.last().map_or(&grid, |g| g.out_grid()).clone();
            groups.push(plan(group_ops, in_grid, group_params).unwrap());
            let quant = precision.map(|(wb, _)| (wb, group_params));
            chained = Some(match chained {
                None => groups[0].clone(),
                Some(chain) => chain.extend(group_ops.to_vec(), pad_mode, policy, quant).unwrap(),
            });
        }
        let chained = chained.unwrap();
        prop_assert_eq!(union.len(), ops.len());
        prop_assert_eq!(union.out_grid(), groups.last().unwrap().out_grid());

        // Every conv is planned on its own group's grids and pads.
        let own: Vec<_> = groups.iter().flat_map(FusedChain::convs).collect();
        let merged: Vec<_> = union.convs().collect();
        prop_assert_eq!(merged.len(), own.len());
        for (m, o) in merged.iter().zip(&own) {
            prop_assert_eq!(m.grid(), o.grid());
            prop_assert_eq!(m.output_grid().unwrap(), o.output_grid().unwrap());
            for row in 0..m.grid().num_rows() {
                for col in 0..m.grid().num_cols() {
                    prop_assert_eq!(m.block_padding(row, col), o.block_padding(row, col));
                }
            }
        }

        let mut input = uniform_tensor([n, c0, h, w], -1.5, 1.5, &mut seeded_rng(seed ^ 11));
        if d.below(4) == 0 {
            let at = d.below(input.data().len());
            input.data_mut()[at] = f32::NAN;
        }
        let pipeline = FusedPipeline::new(groups.clone()).unwrap().run_fused(&input);
        match (union.run_layerwise(&input), pipeline) {
            (Ok((want, _)), Ok((piped, _))) => {
                prop_assert_eq!(bits(&piped), bits(&want), "pipeline: {:?}", ops);
                // Each group on the boundary map the group before produced.
                let mut map = input.clone();
                for (group, span) in groups.iter().zip(bounds.windows(2)) {
                    let (next, stats) = group.run_fused(&map).unwrap();
                    let c = map.shape().dims()[1];
                    let (peak, _) = grid_peak(group, &ops[span[0]..span[1]], n, c);
                    prop_assert_eq!(stats.peak_working_elems, peak);
                    map = next;
                }
                let (union_peak, _) = grid_peak(&union, &ops, n, c0);
                let mut scratch = BlockScratch::new();
                for (chain, threads) in [(&union, 1usize), (&union, 2), (&chained, 1)] {
                    let mut out = Tensor::filled([1, 1, 1, 1], f32::NAN);
                    let stats = chain.run_fused_into(&input, threads, &mut out, &mut scratch).unwrap();
                    prop_assert_eq!(bits(&out), bits(&want), "threads {}: {:?}", threads, ops);
                    let offchip = input.shape().numel() + want.shape().numel();
                    prop_assert_eq!(stats.offchip_elems, offchip);
                    prop_assert_eq!(stats.peak_working_elems, union_peak);
                }
            }
            // Reflect padding wider than a block fails on every schedule.
            (Err(_), Err(_)) => prop_assert_eq!(pad_mode, PadMode::Reflect),
            (l, p) => prop_assert!(false, "layerwise {:?} vs pipeline {:?}", l.is_ok(), p.is_ok()),
        }
    }
}

/// Why the float channel-lane tile keeps the taps that read a block's zero
/// halo, which the integer tile skips: its lanes start at the bias, and a
/// `-0.0` bias plus a `+0.0` product is `+0.0`. Output channel `m` of this
/// conv weighs tap `m` positively and every other tap negatively, so on an
/// all-zero input each output is `+0.0` only through tap `m`'s product —
/// every tap of every pixel is needed for the direct loop's bits, and a
/// float tile that dropped the halo's taps would leave `-0.0` behind.
#[test]
fn float_chains_keep_every_halo_tap() {
    let c_out = 9;
    let weight: Vec<f32> =
        (0..c_out * 9).map(|i| if i % 9 == i / 9 { 0.5 } else { -0.25 }).collect();
    let weight = Tensor::from_vec([c_out, 1, 3, 3], weight).unwrap();
    let conv = Conv2d::new(weight, vec![-0.0; c_out], ConvGeom::same(3), 1).unwrap();
    let grid = BlockGrid::from_pattern(8, 8, BlockingPattern::hierarchical(2)).unwrap();
    let ops = vec![ChainOp::conv(conv)];
    let chain = FusedChain::plan(ops, grid, PadMode::Zero, KernelPolicy::Auto, None).unwrap();
    let input = Tensor::zeros([1, 1, 8, 8]);
    let (layerwise, _) = chain.run_layerwise(&input).unwrap();
    let (fused, _) = chain.run_fused(&input).unwrap();
    assert_eq!(bits(&fused), bits(&layerwise));
    // The direct loop: `-0.0`, then every tap's product in order.
    assert!(fused.data().iter().all(|v| v.to_bits() == 0.0f32.to_bits()), "{:?}", fused.data());
}

/// Pooled convolutions on one block wide enough that the pooled store
/// splits a row of windows into rectangles by columns (16 channels of
/// 2×2 windows across 70 columns, or of 3×3 ones across 69, do not fit its
/// stage), at every precision, zero-padded — whose exact kernels skip the
/// zero halo in every rectangle that reaches it — and replicate-padded, at
/// one and two threads: the layer-wise bits, and the (input, pooled output)
/// peak of the one step.
#[test]
fn wide_pooled_blocks_split_their_windows_by_columns() {
    for (c_in, c_out) in [(16, 16), (3, 7)] {
        for (side, k) in [(70, 2), (69, 3)] {
            let mut rng = seeded_rng((c_in * 100 + side) as u64);
            let mut conv = he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut rng).unwrap();
            for (m, b) in conv.bias_mut().iter_mut().enumerate() {
                *b = 0.1 * m as f32 - 0.3;
            }
            let ops = vec![ChainOp::conv(conv), ChainOp::Relu, ChainOp::MaxPool { k }];
            let input = uniform_tensor([1, c_in, side, side], -1.5, 1.5, &mut rng);
            let params = [QParams::from_abs_max(1.5, 8)];
            for precision in PRECISIONS {
                for pad_mode in [PadMode::Zero, PadMode::Replicate] {
                    let quant = precision.map(|(wb, ab)| {
                        (
                            wb,
                            if ab == 8 {
                                params.to_vec()
                            } else {
                                vec![QParams::from_abs_max(1.5, ab)]
                            },
                        )
                    });
                    let quant = quant.as_ref().map(|(wb, p)| (*wb, &p[..]));
                    let grid = BlockGrid::single(side, side);
                    let chain =
                        FusedChain::plan(ops.clone(), grid, pad_mode, KernelPolicy::Auto, quant)
                            .unwrap();
                    let (want, _) = chain.run_layerwise(&input).unwrap();
                    let pooled = side / k;
                    assert_eq!(want.shape().dims(), [1, c_out, pooled, pooled]);
                    let mut scratch = BlockScratch::new();
                    for threads in [1, 2] {
                        let mut out = Tensor::filled([1, 1, 1, 1], f32::NAN);
                        let stats =
                            chain.run_fused_into(&input, threads, &mut out, &mut scratch).unwrap();
                        let what =
                            format!("{c_in}->{c_out} {side}² k{k} {precision:?} {pad_mode:?}");
                        assert_eq!(bits(&out), bits(&want), "{what} threads {threads}");
                        let peak = c_in * side * side + c_out * pooled * pooled;
                        assert_eq!(stats.peak_working_elems, peak, "{what}");
                    }
                }
            }
        }
    }
}
