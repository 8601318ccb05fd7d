//! A multi-image input is walked image by image: `Session::run` on `n`
//! images equals the concatenation of `n` solo runs bit for bit, and its
//! `MemStats` follow the batch rule documented on `MemStats` — traffic is
//! the sum over the images, the working-set peak is `n` × the one-image
//! peak — on every segment kind (fused, spliced, whole-map), at both
//! precisions and at any thread count.

use bconv_accel::platform::zc706;
use bconv_core::fusion::MemStats;
use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_graph::{AccelCost, Backend, PlanSpec, Segment, Session};
use bconv_models::small::vgg16_small;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

const BACKENDS: [Backend; 2] =
    [Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

/// The three plan shapes, each checked to be what its name says.
fn plans(backend: Backend, convs: usize) -> [(&'static str, PlanSpec); 3] {
    let bits = match backend {
        Backend::Quantized { act_bits, .. } => act_bits,
        _ => 32,
    };
    // The capacity `tests/plan_splice.rs` splices vgg16_small under.
    let splicing = AccelCost::with_buffers(zc706(), 1500 * u64::from(bits) / 2, 1 << 24);
    [
        ("fused H2", PlanSpec::new().pattern(BlockingPattern::hierarchical(2))),
        ("spliced", PlanSpec::new().cost_model(splicing)),
        ("unblocked", PlanSpec::new().network_plan(NetworkPlan::unblocked(convs))),
    ]
}

fn assert_plan_is(name: &str, session: &Session) {
    let plan = session.plan();
    let has = |pred: fn(&Segment) -> bool| plan.segments().iter().any(pred);
    let ok = match name {
        "fused H2" => has(|s| matches!(s, Segment::Fused { .. })),
        "spliced" => has(|s| matches!(s, Segment::Spliced { .. })),
        _ => plan.fusion_groups() == 0,
    };
    assert!(ok, "{name}: the plan is not what the case needs:\n{}", session.describe());
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn a_batch_is_its_images_run_alone() {
    let net = vgg16_small(32);
    let s = net.input;
    let convs = Session::builder().network(net.clone()).build().unwrap().graph().conv_count();
    for backend in BACKENDS {
        for (name, spec) in plans(backend, convs) {
            for threads in [1usize, 2] {
                let session = Session::builder()
                    .network(net.clone())
                    .backend(backend)
                    .planner(spec.clone())
                    .seed(2018)
                    .threads(threads)
                    .build()
                    .expect("session builds");
                assert_plan_is(name, &session);
                for n in [2usize, 3, 8] {
                    let what = format!("{backend:?} {name} threads={threads} n={n}");
                    let batch =
                        uniform_tensor([n, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(n as u64));
                    let got = session.run(&batch).expect("batched run");
                    let per_image = s.c * s.h * s.w;
                    let solo: Vec<_> = batch
                        .data()
                        .chunks_exact(per_image)
                        .map(|image| {
                            let image = Tensor::from_vec([1, s.c, s.h, s.w], image.to_vec());
                            session.run(&image.unwrap()).expect("solo run")
                        })
                        .collect();
                    let want: Vec<u32> = solo.iter().flat_map(|r| bits(&r.output)).collect();
                    assert_eq!(got.output.shape().dims()[0], n, "{what}");
                    assert_eq!(bits(&got.output), want, "{what}: outputs differ");
                    let one = solo[0].stats;
                    assert!(solo.iter().all(|r| r.stats == one), "{what}: images differ in stats");
                    let rule = MemStats {
                        peak_working_elems: n * one.peak_working_elems,
                        offchip_elems: n * one.offchip_elems,
                        bits_per_elem: one.bits_per_elem,
                    };
                    assert_eq!(got.stats, rule, "{what}: stats break the batch rule");
                    assert_eq!(got.segments, solo[0].segments, "{what}");
                }
            }
        }
    }
}
