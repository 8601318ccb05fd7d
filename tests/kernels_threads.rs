//! The pluggable-kernel / thread-parallel execution contract:
//!
//! * `Session` outputs are **bitwise identical** at any worker-thread
//!   count and for either conv kernel — blocks are independent by
//!   construction (paper §II-C), so scheduling must never leak into the
//!   numerics, and `MemStats` accounting stays exact;
//! * `FusedChain` stages share the `Graph`'s `Arc<Conv2d>` weights
//!   (no deep clones — blocked-conv weights exist once per session);
//! * an unset thread count is 1; an explicit one wins and must be >= 1.

use std::sync::Arc;

use bconv_core::BlockingPattern;
use bconv_graph::{KernelPolicy, NodeOp, PlanSpec, Segment, Session};
use bconv_models::small::{resnet18_small, vgg16_small};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

fn vgg_session(kernel: KernelPolicy, threads: usize) -> Session {
    Session::builder()
        .network(vgg16_small(32))
        .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).kernel(kernel))
        .threads(threads)
        .seed(2018)
        .build()
        .unwrap()
}

fn vgg_input(seed: u64) -> Tensor {
    uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(seed))
}

#[test]
fn outputs_are_bitwise_identical_across_thread_counts() {
    let input = vgg_input(41);
    for kernel in [KernelPolicy::Direct, KernelPolicy::Im2colGemm, KernelPolicy::Auto] {
        let base = vgg_session(kernel, 1).run(&input).unwrap();
        for threads in [2usize, 8] {
            let report = vgg_session(kernel, threads).run(&input).unwrap();
            assert_eq!(
                base.output.data(),
                report.output.data(),
                "{} threads changed the output under {kernel:?}",
                threads
            );
            // MemStats model on-chip buffers and off-chip traffic of the
            // fused schedule; both are scheduling-invariant.
            assert_eq!(base.stats, report.stats, "stats drifted at {threads} threads");
            assert_eq!(base.segments, report.segments);
        }
    }
}

#[test]
fn kernel_choice_does_not_change_session_numerics() {
    // Both kernels accumulate in the same order, so the whole-network
    // outputs match bit for bit, and the schedule's accounting with them.
    let input = vgg_input(43);
    let direct = vgg_session(KernelPolicy::Direct, 2).run(&input).unwrap();
    let gemm = vgg_session(KernelPolicy::Im2colGemm, 2).run(&input).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&direct.output), bits(&gemm.output), "kernel choice perturbed the output");
    assert_eq!(direct.stats, gemm.stats);
    assert_eq!(direct.segments, gemm.segments);
}

#[test]
fn oversubscribed_threads_are_harmless() {
    // More workers than blocks: the dispatcher clamps to the block count.
    let input = vgg_input(47);
    let few_blocks = vgg_session(KernelPolicy::Auto, 64).run(&input).unwrap();
    let serial = vgg_session(KernelPolicy::Auto, 1).run(&input).unwrap();
    assert_eq!(few_blocks.output.data(), serial.output.data());
}

#[test]
fn fused_chains_share_graph_weights() {
    for net in [vgg16_small(32), resnet18_small(32)] {
        let session = Session::builder()
            .network(net)
            .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)))
            .threads(1)
            .build()
            .unwrap();
        let nodes = session.graph().nodes();
        let mut fused_convs = 0usize;
        for seg in session.plan().segments() {
            let Segment::Fused { nodes: ids, chain, .. } = seg else {
                continue;
            };
            let node_arcs: Vec<&Arc<_>> = ids
                .iter()
                .filter_map(|&id| match &nodes[id].op {
                    NodeOp::Conv { conv, .. } => Some(conv),
                    _ => None,
                })
                .collect();
            let stage_convs: Vec<_> = chain.convs().map(|b| b.conv()).collect();
            assert_eq!(node_arcs.len(), stage_convs.len());
            for (node_arc, stage_conv) in node_arcs.iter().zip(&stage_convs) {
                assert!(
                    std::ptr::eq(Arc::as_ptr(node_arc), *stage_conv),
                    "chain stage deep-cloned its weights instead of sharing the graph's Arc"
                );
                fused_convs += 1;
            }
        }
        assert!(fused_convs > 0, "expected fused conv stages to check");
    }
}

#[test]
fn zero_builder_threads_is_rejected() {
    let err = Session::builder().network(vgg16_small(32)).threads(0).build();
    assert!(err.is_err(), "threads(0) must not build");
}

#[test]
fn unset_thread_count_is_one_and_an_explicit_one_wins() {
    let session = Session::builder().network(vgg16_small(32)).build().unwrap();
    assert_eq!(session.threads(), 1);
    let session = Session::builder().network(vgg16_small(32)).threads(3).build().unwrap();
    assert_eq!(session.threads(), 3);
}
