//! Cost-model / splice contract tests: a fusion cost model is a **schedule
//! policy** — swapping [`ElementBudget`] for [`AccelCost`] (same capacity)
//! must never change what a session computes, only how much off-chip
//! traffic the plan needs. Spliced pipelines are bitwise identical to
//! their unspliced counterparts (float and quantized, at any thread
//! count), `offchip_bits()` never increases when a splice is taken — and
//! strictly decreases when one is — and the `PlanReport` records exactly
//! the decisions the segments embody.
//!
//! Spliced groups that share one block layout compile into one chain, so
//! an aligned splice keeps the working-set peak of the unspliced plan. The
//! peak may grow only under a splice whose joint re-grids: that boundary
//! map moves from DRAM into the on-chip extra buffer, which is the whole
//! trade.
//!
//! A residual add folds into the chain that computes it when its other
//! operand is the chain's own input and the fold fits in the add's three
//! maps: the output keeps the bits of the unfolded schedule, the chain's
//! output map no longer makes its off-chip round trip, and no peak rises.

mod common;

use bconv_accel::platform::zc706;
use bconv_core::analysis::ConvLayerSpatial;
use bconv_core::blocking::BlockGrid;
use bconv_core::fusion::BlockScratch;
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_core::{BlockConv2d, BlockingPattern};
use bconv_graph::{
    modeled_offchip_elems, AccelCost, Backend, Graph, GraphQuantSpec, NodeOp, NodeRef,
    PlanProvenance, PlanSpec, Segment, Session, SessionBuilder, DEFAULT_CALIBRATION_BATCHES,
};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};
use bconv_quant::qlinear::{QLinear, QLinearScratch};
use bconv_tensor::elementwise::add;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;
use bconv_tensor::pool::global_avg_pool;
use bconv_tensor::Tensor;
use proptest::prelude::*;

/// A random-but-valid small network: stride-1 convs on a 16x16 map (so
/// every hierarchical grid divides), optional pooling tail — the same
/// family as the serving determinism suite.
fn random_net(c1: usize, c2: usize, with_pool: bool) -> Network {
    let mut b = NetBuilder::new("splice_prop", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("conv2", conv(3, 1, 1, c1, c2));
    if with_pool {
        b.push("pool", maxpool(2, 2, 0));
        b.push("conv3", conv(3, 1, 1, c2, 2));
    }
    b.build()
}

/// A random sequential net on a 2×`side`×`side` input: `widths.len()`
/// 3×3 stride-1 convs, conv `i` followed by a 2×2 pool when bit `i` of
/// `pools` is set and the map is still at least 8 wide.
fn pooled_net(side: usize, widths: &[usize], pools: u32) -> Network {
    let mut b = NetBuilder::new("pooled_prop", ActShape { c: 2, h: side, w: side });
    let (mut c, mut h) = (2, side);
    for (i, &width) in widths.iter().enumerate() {
        b.push(format!("conv{}", i + 1), conv(3, 1, 1, c, width));
        c = width;
        if pools >> i & 1 == 1 && h >= 8 {
            b.push(format!("pool{}", i + 1), maxpool(2, 2, 0));
            h /= 2;
        }
    }
    b.build()
}

/// What the cut-at-every-conv plan computes, layer by layer off the
/// session's own graph: every conv the resolution rule blocks (the
/// planner's input, not its decision) runs on `pattern`'s grid at its own
/// input size, every other one on one block — the paper's blocking, with
/// every intermediate map off chip. FC heads run dense.
fn cut_at_every_conv(graph: &Graph, pattern: BlockingPattern, input: &Tensor) -> Tensor {
    let spatial: Vec<ConvLayerSpatial> = graph
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, NodeOp::Conv { .. }))
        .map(|n| ConvLayerSpatial { h: n.in_shape.h, w: n.in_shape.w })
        .collect();
    let blocking = NetworkPlan::by_resolution(&spatial, pattern);
    let mut x = input.clone();
    for node in graph.nodes() {
        let (h, w) = (node.in_shape.h, node.in_shape.w);
        x = match &node.op {
            NodeOp::Conv { conv, conv_ordinal } => {
                let grid = match blocking.per_layer()[*conv_ordinal] {
                    LayerBlocking::Blocked(p) => BlockGrid::from_pattern(h, w, p).unwrap(),
                    LayerBlocking::Normal => BlockGrid::single(h, w),
                };
                BlockConv2d::plan(conv.clone(), grid, PadMode::Zero).unwrap().forward(&x).unwrap()
            }
            NodeOp::Relu => bconv_tensor::activation::relu(&x),
            NodeOp::MaxPool { k, s, p: 0 } => bconv_tensor::pool::max_pool2d(&x, *k, *s).unwrap(),
            NodeOp::Fc(linear) => linear.forward(&x).unwrap(),
            op => panic!("{} is not a node of these nets", op.mnemonic()),
        };
    }
    x
}

/// Every blocked conv of `session`'s plan runs on `pattern`'s grid at its
/// own input size, whatever the cost model cut.
fn every_conv_on_the_pattern_grid(session: &Session, pattern: BlockingPattern) -> bool {
    session.plan().segments().iter().flat_map(Segment::chains).all(|(chain, _)| {
        chain.convs().all(|c| {
            let g = c.grid();
            BlockGrid::from_pattern(g.h(), g.w(), pattern).as_ref() == Ok(g)
        })
    })
}

fn builder(net: &Network, backend: Backend, seed: u64) -> SessionBuilder {
    Session::builder()
        .network(net.clone())
        .backend(backend)
        .seed(seed)
        .threads(1)
        .relu_after_conv(true)
}

/// The AccelCost twin of an element budget at the plan's word width: cuts
/// land at the same stage pairs, splices become available.
fn accel_twin(budget_elems: usize, bits: u8) -> AccelCost {
    AccelCost::with_buffers(zc706(), budget_elems as u64 * bits as u64 / 2, 1 << 24)
}

fn plan_bits(backend: Backend) -> u8 {
    match backend {
        Backend::Quantized { act_bits, .. } => act_bits,
        _ => 32,
    }
}

const BACKENDS: [Backend; 2] =
    [Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Spliced vs unspliced plans: bitwise-identical outputs (float and
    /// quantized), off-chip traffic never increases, and strictly
    /// decreases whenever a splice was taken. Each splice joins two
    /// segments. Every splice of the H2 family is aligned: no pipeline
    /// remains, and the peak is the unspliced plan's. The F4 family cuts
    /// after its pool, so its splice re-grids and keeps a pipeline.
    #[test]
    fn spliced_plans_are_bitwise_identical_and_never_cost_traffic(
        c1 in 1usize..4,
        c2 in 1usize..4,
        pool_idx in 0usize..2,
        fixed in 0usize..2,
        budget in 150usize..400,
        seed in 0u64..1000,
    ) {
        let (net, pattern, budget) = if fixed == 1 {
            // The pool re-grids, so its group ends there whatever the
            // capacity; conv2's group may cut again before conv3.
            (common::regrid_net(c1), BlockingPattern::fixed(4), 80 + budget % 52)
        } else {
            (random_net(c1, c2, pool_idx == 1), BlockingPattern::hierarchical(2), budget)
        };
        let input = uniform_tensor([1, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed ^ 0x51CE));
        for backend in BACKENDS {
            let unspliced = builder(&net, backend, seed)
                .planner(PlanSpec::new().pattern(pattern).on_chip_budget(budget))
                .build()
                .expect("budget session");
            let spliced = builder(&net, backend, seed)
                .planner(
                    PlanSpec::new()
                        .pattern(pattern)
                        .cost_model(accel_twin(budget, plan_bits(backend))),
                )
                .build()
                .expect("accel session");
            prop_assert!(unspliced.plan().report().splices.is_empty());

            let a = unspliced.run(&input).expect("unspliced run");
            let b = spliced.run(&input).expect("spliced run");
            prop_assert_eq!(
                a.output.data(), b.output.data(),
                "{:?} budget={}: cost model changed numerics", backend, budget
            );
            prop_assert!(
                b.stats.offchip_elems <= a.stats.offchip_elems,
                "{:?} budget={}: splice increased off-chip elems ({} > {})",
                backend, budget, b.stats.offchip_elems, a.stats.offchip_elems
            );
            prop_assert!(b.stats.offchip_bits() <= a.stats.offchip_bits());

            let report = spliced.plan().report();
            // The twin cuts exactly where the budget does: `AccelCost`
            // decides extension on buffer capacity alone.
            prop_assert_eq!(
                &report.cost_cuts, &unspliced.plan().report().cost_cuts,
                "{:?} budget={}", backend, budget
            );
            let segments = |s: &Session| s.plan().segments().len();
            prop_assert_eq!(
                segments(&spliced),
                segments(&unspliced) - report.splices.len(),
                "{:?} budget={}:\n{}", backend, budget, spliced.describe()
            );
            let pipelines = spliced
                .plan()
                .segments()
                .iter()
                .filter(|s| matches!(s, Segment::Spliced { .. }))
                .count();
            // A hierarchical grid pools onto the grid the next group opens
            // on, so every H2 splice is aligned.
            if fixed == 0 {
                prop_assert_eq!(pipelines, 0, "{:?} budget={}:\n{}", backend, budget, spliced.describe());
            }
            if pipelines == 0 {
                prop_assert_eq!(
                    b.stats.peak_working_elems, a.stats.peak_working_elems,
                    "{:?} budget={}: an aligned splice holds a boundary map:\n{}",
                    backend, budget, spliced.describe()
                );
            }
            if report.splices.is_empty() {
                // No splice taken: the plans must agree exactly.
                prop_assert_eq!(a.stats, b.stats, "{:?} budget={}", backend, budget);
            } else {
                // Each splice saves exactly the boundary map's round trip.
                prop_assert_eq!(
                    a.stats.offchip_elems - b.stats.offchip_elems,
                    report.spliced_offchip_elems_saved(),
                    "{:?} budget={}: report disagrees with measured savings", backend, budget
                );
                prop_assert!(b.stats.offchip_bits() < a.stats.offchip_bits());
            }
        }
    }

    /// No cost model changes a bit, under either pattern: through random
    /// nets with pools, every budget and both models compute exactly what
    /// the cut-at-every-conv plan computes, and every blocked conv runs on
    /// the pattern's grid at its own input size. Under a fixed pattern a
    /// pool keeps the block count, so a pool that re-grids ends its group.
    #[test]
    fn cost_models_never_change_a_bit_through_pools(
        side_idx in 0usize..2,
        convs in 2usize..5,
        w1 in 1usize..5,
        w2 in 1usize..5,
        w3 in 1usize..5,
        w4 in 1usize..5,
        pools in 0u32..16,
        pattern_idx in 0usize..4,
        tight in 40usize..1200,
        seed in 0u64..1000,
    ) {
        let side = [16, 32][side_idx];
        let net = pooled_net(side, &[w1, w2, w3, w4][..convs], pools);
        let pattern = [
            BlockingPattern::fixed(4),
            BlockingPattern::fixed(8),
            BlockingPattern::hierarchical(2),
            BlockingPattern::hierarchical(4),
        ][pattern_idx];
        let input = uniform_tensor([1, 2, side, side], -1.0, 1.0, &mut seeded_rng(seed ^ 0xF1ED));
        let mut want: Option<Tensor> = None;
        // Unbounded, a tight capacity, and one that cuts wherever the
        // model is asked.
        for budget in [None, Some(tight), Some(1)] {
            let specs = [
                budget.map_or(PlanSpec::new(), |b| PlanSpec::new().on_chip_budget(b)),
                PlanSpec::new().cost_model(accel_twin(budget.unwrap_or(1 << 30), 32)),
            ];
            for spec in specs {
                let session = builder(&net, Backend::Blocked, seed)
                    .planner(spec.pattern(pattern))
                    .build()
                    .expect("session");
                let want = want.get_or_insert_with(|| {
                    cut_at_every_conv(session.graph(), pattern, &input)
                });
                prop_assert!(
                    every_conv_on_the_pattern_grid(&session, pattern),
                    "{:?} budget={:?}:\n{}", pattern, budget, session.describe()
                );
                let got = session.run(&input).expect("run").output;
                prop_assert_eq!(
                    got.data(), want.data(),
                    "{:?} budget={:?}: the plan changed a bit:\n{}",
                    pattern, budget, session.describe()
                );
            }
        }
    }

    /// Spliced execution is a schedule: thread count never leaks into
    /// outputs or stats, through a pipeline whose joint re-grids.
    #[test]
    fn spliced_execution_is_thread_invariant(
        c1 in 1usize..4,
        seed in 0u64..1000,
    ) {
        let net = common::regrid_net(c1);
        let input = uniform_tensor([2, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed ^ 0x7A1));
        let serial = builder(&net, Backend::Blocked, seed)
            .planner(common::regrid_spec(32))
            .build()
            .expect("serial session");
        let pipelines = serial.plan().segments().iter();
        prop_assert!(
            pipelines.filter(|s| matches!(s, Segment::Spliced { .. })).count() == 1,
            "no pipeline to exercise:\n{}", serial.describe()
        );
        let want = serial.run(&input).expect("serial run");
        for threads in [2usize, 8] {
            let s = builder(&net, Backend::Blocked, seed)
                .planner(common::regrid_spec(32))
                .threads(threads)
                .build()
                .expect("threaded session");
            let got = s.run(&input).expect("threaded run");
            prop_assert_eq!(got.output.data(), want.output.data(), "threads={}", threads);
            prop_assert_eq!(got.stats, want.stats, "threads={}", threads);
        }
    }
}

/// The ISSUE acceptance scenario on vgg16_small: under a capacity that
/// forces cuts, `AccelCost` takes at least one decision `ElementBudget`
/// does not (the splice), the spliced plan's `offchip_bits()` is strictly
/// lower, and outputs stay bitwise identical — the cost model changed the
/// schedule, not the mathematics.
#[test]
fn vgg16_small_accel_cost_beats_element_budget_on_traffic() {
    let net = bconv_models::small::vgg16_small(32);
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2018));
    let budget = 1500usize; // cuts after conv1-1 (16x16 blocks, 4 channels)
    let element = Session::builder()
        .network(net.clone())
        .seed(2018)
        .threads(1)
        .planner(PlanSpec::new().on_chip_budget(budget))
        .build()
        .expect("element session");
    let accel = Session::builder()
        .network(net.clone())
        .seed(2018)
        .threads(1)
        .planner(PlanSpec::new().cost_model(accel_twin(budget, 32)))
        .build()
        .expect("accel session");

    let er = element.plan().report();
    let ar = accel.plan().report();
    assert!(er.splices.is_empty() && !er.cost_cuts.is_empty(), "budget must cut, never splice");
    assert!(!ar.splices.is_empty(), "accel model must splice:\n{}", accel.describe());

    let e = element.run(&input).expect("element run");
    let a = accel.run(&input).expect("accel run");
    assert_eq!(a.output.data(), e.output.data(), "cost models must not change numerics");
    assert!(
        a.stats.offchip_bits() < e.stats.offchip_bits(),
        "splice must strictly lower off-chip traffic ({} vs {})",
        a.stats.offchip_bits(),
        e.stats.offchip_bits()
    );

    // And the quantized deployment path splices under the same rules
    // (FusedPipeline's single-precision constraint is satisfied — every
    // group carries the spec's activation bitwidth).
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let qe = Session::builder()
        .network(net.clone())
        .seed(2018)
        .threads(1)
        .backend(backend)
        .planner(PlanSpec::new().on_chip_budget(budget))
        .build()
        .expect("quant element session");
    let qa = Session::builder()
        .network(net)
        .seed(2018)
        .threads(1)
        .backend(backend)
        .planner(PlanSpec::new().cost_model(accel_twin(budget, 8)))
        .build()
        .expect("quant accel session");
    assert!(!qa.plan().report().splices.is_empty(), "{}", qa.describe());
    let eq = qe.run(&input).expect("quant element run");
    let aq = qa.run(&input).expect("quant accel run");
    assert_eq!(aq.output.data(), eq.output.data());
    assert!(aq.stats.offchip_bits() < eq.stats.offchip_bits());
    assert_eq!(aq.stats.bits_per_elem, 8);
}

/// Conflicting budget + cost model requests are rejected at build time.
#[test]
fn cost_model_and_budget_are_mutually_exclusive() {
    let r = Session::builder()
        .network(bconv_models::small::vgg16_small(32))
        .planner(PlanSpec::new().on_chip_budget(1000).cost_model(accel_twin(1000, 32)))
        .build();
    assert!(r.is_err());
}

/// Fixed blocking keeps its block size whatever the budget: under `F16`,
/// vgg16_small(64) once fused conv1-2 … pool3 at a budget of 2000
/// elements, so conv2-1 ran on 16 blocks of 8×8, against 4 blocks of
/// 16×16 at 1000, and the two outputs differed.
#[test]
fn fixed_blocking_keeps_its_block_size_under_any_budget() {
    let net = bconv_models::small::vgg16_small(64);
    let pattern = BlockingPattern::fixed(16);
    let input = uniform_tensor([1, 3, 64, 64], -1.0, 1.0, &mut seeded_rng(2018));
    let run = |budget: usize| {
        let session = builder(&net, Backend::Blocked, 2018)
            .relu_after_conv(false)
            .planner(PlanSpec::new().pattern(pattern).on_chip_budget(budget))
            .build()
            .expect("session");
        assert!(every_conv_on_the_pattern_grid(&session, pattern), "{}", session.describe());
        session.run(&input).expect("run").output
    };
    assert_eq!(run(2000).data(), run(1000).data());
}

/// The repo benchmark's `vgg224_f32_blocked` plan: conv1-2's ping-pong
/// pair is granted when it opens its group, so pool1 and everything up to
/// conv4-3 reuse it; pool4 (7×7 blocks) and pool5 run whole-map. Pools 1–3
/// fold into the stores of conv1-2, conv2-2 and conv3-3, whose pairs then
/// hold the pooled outputs (conv1-2's 56²×4 + 28²×4), so the peak is
/// conv1-1's pair, 56²×(3 + 4).
#[test]
fn vgg224_fuses_pool1_inside_the_granted_buffers() {
    let net = bconv_models::small::vgg16_small(224);
    let pattern = BlockingPattern::hierarchical(4);
    let session = builder(&net, Backend::Blocked, 2018)
        .relu_after_conv(false)
        .planner(PlanSpec::new().pattern(pattern).cost_model(AccelCost::with_buffers(
            zc706(),
            200_000,
            8_000_000,
        )))
        .build()
        .expect("session");
    let names = |seg: &Segment| -> Vec<&str> {
        match seg {
            Segment::Single(id) => vec![session.graph().nodes()[*id].name.as_str()],
            seg => seg
                .chains()
                .flat_map(|(_, ids)| ids)
                .map(|&id| session.graph().nodes()[id].name.as_str())
                .collect(),
        }
    };
    let segments: Vec<Vec<&str>> = session.plan().segments().iter().map(names).collect();
    let chain = [
        "conv1-1", "conv1-2", "pool1", "conv2-1", "conv2-2", "pool2", "conv3-1", "conv3-2",
        "conv3-3", "pool3", "conv4-1", "conv4-2", "conv4-3",
    ];
    let want: Vec<Vec<&str>> = vec![
        chain.to_vec(),
        vec!["pool4"],
        vec!["conv5-1", "conv5-2", "conv5-3"],
        vec!["pool5"],
        vec!["fc6"],
        vec!["fc7"],
        vec!["fc8"],
    ];
    assert_eq!(segments, want, "{}", session.describe());
    // `[conv1-1]` spliced to `[conv1-2 … conv4-3]`: one aligned chain.
    let report = session.plan().report();
    assert_eq!(report.splices.len(), 1, "{}", session.describe());
    assert!(matches!(session.plan().segments()[0], Segment::Fused { .. }));
    let input = uniform_tensor([1, 3, 224, 224], -1.0, 1.0, &mut seeded_rng(2018));
    let run = session.run(&input).expect("run");
    assert_eq!(run.stats.offchip_bits(), 6_075_712);
    assert_eq!(run.stats.peak_working_elems, 21_952);
    assert_eq!(run.output.data(), cut_at_every_conv(session.graph(), pattern, &input).data());
}

/// FNV-1a over the bit patterns of `t`'s elements.
fn fnv1a(t: &Tensor) -> u64 {
    t.data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The repo benchmark's `serve_burst_w8a8` plan: vgg16_small on a 32×32
/// input at w8a8 under the default planning. Every pool inside a chain
/// folds into its conv's store, so the peak is conv1-1's pair, 16²×(3 + 4)
/// on its 2×2 grid, and the output keeps the bits of the engine that ran
/// each such pool as a step of its own (the hash below was taken there).
#[test]
fn serve_burst_plan_peaks_at_conv1_1() {
    let net = bconv_models::small::vgg16_small(32);
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let session = Session::builder()
        .network(net)
        .backend(backend)
        .planner(PlanSpec::new())
        .seed(2018)
        .threads(1)
        .build()
        .expect("session");
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2018));
    let run = session.run(&input).expect("run");
    assert_eq!(run.stats.offchip_bits(), 26_960, "{}", session.describe());
    assert_eq!(run.stats.peak_working_elems, 1_792, "{}", session.describe());
    assert_eq!(fnv1a(&run.output), 12_861_610_307_657_037_131, "{}", session.describe());
}

/// A pooling that does not fold into the store of the convolution before
/// it — a second pooling on one conv, or a window wider than the pooled
/// store's stage (`lane_tile::MAX_POOL`, 11) — is a structural cut: it runs
/// on the whole map as a segment of its own, at both precisions. The
/// outputs keep the bits of the engine that ran such a pooling as a fused
/// step of its own (the hashes below were taken there), and the map the
/// cut reads makes one off-chip round trip more: written, then read back.
#[test]
fn pools_that_do_not_fold_are_whole_map_cuts() {
    let input = uniform_tensor([1, 2, 48, 48], -1.0, 1.0, &mut seeded_rng(2018));
    // Per net: the poolings, the fused plan's off-chip elements (input +
    // output), the elements of the map the cut reads, and the output
    // hashes at float and w8a8.
    let nets: [(&[usize], usize, usize, [u64; 2]); 2] = [
        (
            &[2, 2],
            2 * 48 * 48 + 4 * 12 * 12,
            4 * 24 * 24,
            [13_470_229_360_025_324_266, 8_247_295_682_399_236_955],
        ),
        (
            &[12],
            2 * 48 * 48 + 4 * 4 * 4,
            4 * 48 * 48,
            [18_123_797_657_567_451_799, 7_060_548_307_360_089_280],
        ),
    ];
    for (pools, fused_elems, cut_map, hashes) in nets {
        let mut b = NetBuilder::new("unfolded_pools", ActShape { c: 2, h: 48, w: 48 });
        b.push("conv1", conv(3, 1, 1, 2, 4));
        for (i, &k) in pools.iter().enumerate() {
            b.push(format!("pool{}", i + 1), maxpool(k, k, 0));
        }
        let net = b.build();
        for (backend, hash) in BACKENDS.into_iter().zip(hashes) {
            let session = builder(&net, backend, 2018)
                .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)))
                .build()
                .expect("session");
            let (segments, nodes) = (session.plan().segments(), session.graph().nodes());
            let last = format!("pool{}", pools.len());
            assert!(
                matches!(segments, [Segment::Fused { .. }, Segment::Single(id)] if nodes[*id].name == last),
                "{}",
                session.describe()
            );
            let run = session.run(&input).expect("run");
            assert_eq!(fnv1a(&run.output), hash, "{pools:?} {backend:?}");
            let bits = u64::from(plan_bits(backend));
            let offchip = (fused_elems + 2 * cut_map) as u64 * bits;
            assert_eq!(run.stats.offchip_bits(), offchip, "{pools:?} {backend:?}");
        }
    }
}

/// What the walk of a plan's segments measured, in the executor's terms.
struct Walk {
    output: Tensor,
    offchip_elems: usize,
    peak_working_elems: usize,
}

/// `session`'s plan walked segment by segment, as the repo benchmark's
/// replay walks it (`--trace 1`): every chain through `run_fused_into`,
/// every `Add` — folded or not — through `add_into` on its two maps, and
/// GAP and FC heads as the executor runs them (an FC at `quant`'s
/// calibrated input range when it has an integer form). Traffic and peak
/// follow the executor's rules for unfolded plans: the input, then every
/// segment output written and, unless it is the network output, read back;
/// a whole-map node's peak is its live maps. Covers the plans below.
fn unfolded_walk(session: &Session, quant: Option<&GraphQuantSpec>, input: &Tensor) -> Walk {
    let nodes = session.graph().nodes();
    let mut values: Vec<Option<Tensor>> = vec![None; nodes.len()];
    let value = |values: &[Option<Tensor>], r: NodeRef| match r {
        NodeRef::Input => input.clone(),
        NodeRef::Node(i) => values[i].clone().expect("a value the walk produced"),
    };
    let (mut offchip, mut peak) = (input.shape().numel(), 0);
    for seg in session.plan().segments() {
        let out = match seg {
            Segment::Fused { chain, input: src, .. } => {
                let mut out = Tensor::default();
                let from = value(&values, *src);
                let stats = chain.run_fused_into(&from, 1, &mut out, &mut BlockScratch::new());
                peak = peak.max(stats.unwrap().peak_working_elems);
                out
            }
            Segment::Spliced { .. } => panic!("no pipeline in these plans"),
            Segment::Single(id) => {
                let node = &nodes[*id];
                let x = value(&values, node.input);
                let (out, aux) = match &node.op {
                    NodeOp::Add { other } => {
                        let y = value(&values, *other);
                        (add(&x, &y).unwrap(), y.shape().numel())
                    }
                    NodeOp::GlobalAvgPool => (global_avg_pool(&x), 0),
                    NodeOp::Fc(linear) => {
                        let integer = quant.and_then(|q| {
                            Some((QLinear::from_linear(linear, q.weight_bits)?, q.act_params(*id)?))
                        });
                        let out = match integer {
                            Some((q, params)) => {
                                let mut out = Tensor::default();
                                let mut scratch = QLinearScratch::new();
                                q.forward_into(&x, params, &mut out, &mut scratch).unwrap();
                                out
                            }
                            None => linear.forward(&x).unwrap(),
                        };
                        (out, 0)
                    }
                    op => panic!("{} is not a whole-map node of these plans", op.mnemonic()),
                };
                peak = peak.max(x.shape().numel() + out.shape().numel() + aux);
                out
            }
        };
        let id = seg.output_node();
        offchip += if id + 1 == nodes.len() { 1 } else { 2 } * out.shape().numel();
        values[id] = Some(out);
    }
    let output = values.pop().flatten().expect("the network output");
    Walk { output, offchip_elems: offchip, peak_working_elems: peak }
}

/// The `Add` nodes `session`'s plan folds into the fused segment before
/// them, as `describe()` names them.
fn folded_adds(session: &Session) -> Vec<usize> {
    let (segments, describe) = (session.plan().segments(), session.describe());
    describe
        .lines()
        .filter(|line| line.contains(", folded into segment "))
        .map(|line| {
            let i: usize = line["segment ".len()..line.find(':').unwrap()].parse().unwrap();
            match segments[i] {
                Segment::Single(id) => id,
                _ => panic!("a folded add is a whole-map segment: {line}"),
            }
        })
        .collect()
}

/// Calibration inputs and a session built as the repo benchmark builds
/// `vdsr96_w8a8_blocked` / `_direct`: vdsr_small(96, 10, 16) at w8a8 under
/// F8, blocked or with every conv on the whole map.
fn vdsr96_session(blocked: bool, cache: Option<&std::path::Path>) -> (Session, Vec<Tensor>) {
    let net = bconv_models::small::vdsr_small(96, 10, 16);
    let calibration: Vec<Tensor> = (0..DEFAULT_CALIBRATION_BATCHES as u64)
        .map(|i| {
            let mut rng = seeded_rng(2018 ^ 0x5143_414C ^ ((i + 1) << 32));
            uniform_tensor([1, 1, 96, 96], -1.0, 1.0, &mut rng)
        })
        .collect();
    let mut spec = PlanSpec::new().pattern(BlockingPattern::fixed(8));
    if !blocked {
        spec = spec.network_plan(NetworkPlan::unblocked(10));
    }
    let builder = Session::builder()
        .network(net)
        .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
        .planner(spec)
        .seed(2018)
        .threads(1)
        .relu_after_conv(false)
        .calibration(calibration.clone());
    let builder = match cache {
        Some(dir) => builder.plan_cache(dir),
        None => builder,
    };
    (builder.build().expect("session"), calibration)
}

/// The repo benchmark's `vdsr96_w8a8_blocked`: the global residual add
/// folds into the F8 chain of the ten convs, so only the input and the
/// output cross the off-chip boundary (2 × 96² elements, half the unfolded
/// plan's) and the peak is the chain's widest pair, 16 channels in and out
/// of an 8×8 block, plus the one-channel input block the residual holds.
/// The output keeps the bits of the schedule the benchmark's replay runs —
/// the chain, then the add on the whole maps — and so does a plan-cache
/// hit. Unblocked, conv10 is a whole-map conv: its add stays whole-map,
/// the paper's layer-by-layer baseline, and its numbers do not move.
#[test]
fn vdsr96_blocked_folds_its_residual_add() {
    let input = uniform_tensor([1, 1, 96, 96], -1.0, 1.0, &mut seeded_rng(7));
    let (session, calibration) = vdsr96_session(true, None);
    let spec = GraphQuantSpec::calibrate(session.graph(), &calibration, 8, 8).unwrap();
    let run = session.run(&input).expect("run");
    assert_eq!(folded_adds(&session).len(), 1, "{}", session.describe());
    assert_eq!(run.stats.offchip_elems, 18_432, "{}", session.describe());
    assert_eq!(run.stats.offchip_bits(), 147_456);
    assert_eq!(run.stats.peak_working_elems, 2 * 16 * 64 + 64);
    // The modeled traffic the tuner ranks plans by, and the benchmark's
    // `cost.model_gap_share` reads, counts the pair as one segment.
    assert_eq!(modeled_offchip_elems(session.graph(), session.plan()), 18_432);
    let walk = unfolded_walk(&session, Some(&spec), &input);
    assert_eq!(fnv1a(&run.output), fnv1a(&walk.output));
    assert_eq!(walk.offchip_elems, 2 * 18_432);
    assert_eq!(walk.peak_working_elems, 3 * 96 * 96);

    let dir = std::env::temp_dir().join(format!("bconv-residual-fold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cold, _) = vdsr96_session(true, Some(&dir));
    let (warm, _) = vdsr96_session(true, Some(&dir));
    assert!(matches!(warm.plan().report().provenance, PlanProvenance::CacheLoaded { .. }));
    assert_eq!(warm.describe(), session.describe().replace("fresh", "cache-loaded"));
    for cached in [&cold, &warm] {
        let got = cached.run(&input).expect("run");
        assert_eq!(got.stats, run.stats);
        assert_eq!(fnv1a(&got.output), fnv1a(&run.output));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (direct, _) = vdsr96_session(false, None);
    let stats = direct.run(&input).expect("run").stats;
    assert!(folded_adds(&direct).is_empty(), "{}", direct.describe());
    assert_eq!((stats.offchip_bits(), stats.peak_working_bits()), (21_528_576, 2_359_296));
}

/// Every identity block of resnet18_small(64) under H2 is one chain whose
/// residual add folds into it, at float and w8a8: the outputs keep the
/// bits of the unfolded walk, each folded add's map no longer makes its
/// off-chip round trip, and the peak does not rise. vdsr_small(24, 6, 8)
/// under H2 does not fold: its chain's widest pair on a 12×12 block plus
/// the held block (2 304 + 144 elements) outgrows the add's three maps
/// (1 728).
#[test]
fn identity_blocks_fold_their_residual_adds_where_the_fold_fits() {
    let cases = [
        (bconv_models::small::resnet18_small(64), 5),
        (bconv_models::small::vdsr_small(24, 6, 8), 0),
    ];
    for (net, folds) in cases {
        let s = net.input;
        let input = uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(2018));
        let calibration = vec![uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(9))];
        for backend in BACKENDS {
            let session = builder(&net, backend, 2018)
                .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)))
                .calibration(calibration.clone())
                .build()
                .expect("session");
            let quant = match backend {
                Backend::Quantized { weight_bits, act_bits } => Some(
                    GraphQuantSpec::calibrate(session.graph(), &calibration, weight_bits, act_bits)
                        .unwrap(),
                ),
                _ => None,
            };
            let what = format!("{} {backend:?}\n{}", net.name, session.describe());
            let folded = folded_adds(&session);
            assert_eq!(folded.len(), folds, "{what}");
            let run = session.run(&input).expect("run");
            let walk = unfolded_walk(&session, quant.as_ref(), &input);
            assert_eq!(fnv1a(&run.output), fnv1a(&walk.output), "{what}");
            let nodes = session.graph().nodes();
            let saved: usize = folded.iter().map(|&id| 2 * nodes[id].out_shape.numel()).sum();
            assert_eq!(run.stats.offchip_elems + saved, walk.offchip_elems, "{what}");
            assert!(run.stats.peak_working_elems <= walk.peak_working_elems, "{what}");
            if folds == 0 {
                assert_eq!(run.stats.peak_working_elems, walk.peak_working_elems, "{what}");
            }
        }
    }
}
