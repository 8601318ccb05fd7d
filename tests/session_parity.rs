//! Session-level parity between the two executor backends.
//!
//! The contract under test (paper §II-C, §III):
//!
//! * fused/blocked scheduling with a single-block grid is *numerically
//!   identical* to dense layer-wise execution — fusion changes the
//!   schedule, not the mathematics;
//! * under real blocking only pixels whose receptive field crosses a block
//!   boundary may differ, so block interiors stay exact and overall error
//!   is bounded;
//! * the fused schedule strictly reduces off-chip traffic.

use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_graph::{Backend, KernelPolicy, PlanSpec, Session};
use bconv_models::small::{resnet18_small, vdsr_small, vgg16_small};
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

fn input_for(net: &Network, seed: u64) -> Tensor {
    let s = net.input;
    uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed))
}

fn run_both(net: &Network, pattern: BlockingPattern, seed: u64) -> (Tensor, Tensor, usize, usize) {
    let input = input_for(net, seed ^ 0xABCD);
    let blocked = Session::builder()
        .network(net.clone())
        .planner(PlanSpec::new().pattern(pattern))
        .seed(seed)
        .backend(Backend::Blocked)
        .build()
        .unwrap();
    let reference = Session::builder()
        .network(net.clone())
        .planner(PlanSpec::new().pattern(pattern))
        .seed(seed)
        .backend(Backend::Reference)
        .build()
        .unwrap();
    let br = blocked.run(&input).unwrap();
    let rr = reference.run(&input).unwrap();
    assert_eq!(br.output.shape(), rr.output.shape());
    (br.output, rr.output, blocked.plan().fusion_groups(), br.stats.offchip_elems)
}

/// Relative max-abs error between two tensors.
fn rel_err(a: &Tensor, b: &Tensor) -> f32 {
    let mag = b.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    a.max_abs_diff(b).unwrap() / mag
}

#[test]
fn single_block_fusion_is_exact_on_all_three_networks() {
    // H1x1 keeps the fused, per-block schedule (fusion groups exist!) but
    // the one block covers the whole map, so blocked == reference exactly.
    for (name, net) in
        [("vgg", vgg16_small(32)), ("resnet", resnet18_small(32)), ("vdsr", vdsr_small(24, 4, 8))]
    {
        let (blocked, reference, groups, _) = run_both(&net, BlockingPattern::hierarchical(1), 7);
        assert!(groups > 0, "{name}: fused schedule must actually engage");
        let err = rel_err(&blocked, &reference);
        assert!(err < 1e-5, "{name}: single-block fusion diverged, rel err {err}");
    }
}

#[test]
fn resolution_rule_blocking_keeps_error_bounded_on_classifiers() {
    // Under the paper's resolution rule (block the high-resolution layers;
    // F16 on these 32px inputs mirrors Table I's F28-on-224 regime) the
    // boundary perturbation of an untrained network stays moderate even at
    // the logits. The bound is an order-of-magnitude sanity check on a
    // fixed seed (observed ~0.03–0.27 across weight draws), not a tight
    // statistical claim — blocking everything instead (H2x2 end-to-end)
    // pushes this past 0.7.
    for (name, net, bound) in [("vgg", vgg16_small(32), 0.5), ("resnet", resnet18_small(32), 0.5)] {
        let (blocked, reference, groups, _) = run_both(&net, BlockingPattern::fixed(16), 11);
        assert!(groups > 0, "{name}: expected fusion groups under F16");
        let err = rel_err(&blocked, &reference);
        println!("{name}: F16 relative boundary error {err}");
        assert!(err < bound, "{name}: boundary perturbation out of bounds, rel err {err}");
        assert!(err > 0.0, "{name}: blocking should perturb boundary pixels");
    }
}

#[test]
fn vdsr_blocking_error_is_boundary_localized() {
    // End-to-end H2x2 on VDSR: pixels may deviate near the internal cut
    // lines, but the perturbed set is confined to the boundary bands
    // (within conv-depth pixels of a cut), i.e. error never spreads into
    // block interiors.
    let depth = 4usize;
    let res = 24usize;
    let net = vdsr_small(res, depth, 8);
    let (blocked, reference, groups, _) = run_both(&net, BlockingPattern::hierarchical(2), 11);
    assert!(groups > 0);
    let perturbed = blocked
        .data()
        .iter()
        .zip(reference.data())
        .filter(|(a, b)| (**a - **b).abs() > 1e-4)
        .count();
    let frac = perturbed as f64 / (res * res) as f64;
    // Band of `depth` pixels on each side of the cut line per axis: the
    // unperturbed core is ((res - 2*depth)/res)^2 of the map.
    let band_bound = 1.0 - ((res - 2 * depth) as f64 / res as f64).powi(2) + 0.02;
    println!("vdsr: {:.1}% pixels perturbed (bound {:.1}%)", frac * 100.0, band_bound * 100.0);
    assert!(frac > 0.0, "blocking should perturb boundary pixels");
    assert!(frac < band_bound, "perturbation escaped the boundary bands: {frac}");
}

#[test]
fn vdsr_block_interiors_are_exact_under_h2() {
    // Hierarchical blocking severs the map into independent sub-networks;
    // after d conv layers (3x3), perturbation reaches at most d pixels from
    // each internal cut line. Pixels deeper than that are bit-exact.
    let depth = 4usize;
    let res = 24usize;
    let net = vdsr_small(res, depth, 8);
    let input = input_for(&net, 3);
    let mk = |backend| {
        Session::builder()
            .network(net.clone())
            .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)))
            .seed(5)
            .backend(backend)
            .build()
            .unwrap()
    };
    let blocked = mk(Backend::Blocked).run(&input).unwrap().output;
    let reference = mk(Backend::Reference).run(&input).unwrap().output;
    let cut = res / 2; // the internal H2 cut line
    let margin = depth; // k/2 = 1 per conv layer
    let mut checked = 0usize;
    for h in 0..res {
        for w in 0..res {
            let dh = h.abs_diff(cut).min(h.abs_diff(cut.saturating_sub(1)));
            let dw = w.abs_diff(cut).min(w.abs_diff(cut.saturating_sub(1)));
            if dh < margin || dw < margin {
                continue; // within reach of a cut line
            }
            let d = (blocked.at(0, 0, h, w) - reference.at(0, 0, h, w)).abs();
            assert!(d < 1e-4, "interior pixel ({h},{w}) differs by {d}");
            checked += 1;
        }
    }
    assert!(checked > res * res / 3, "interior region unexpectedly small");
}

#[test]
fn fused_offchip_traffic_strictly_decreases() {
    for (name, net, pattern) in [
        ("vgg-h2", vgg16_small(32), BlockingPattern::hierarchical(2)),
        ("vgg-h1", vgg16_small(32), BlockingPattern::hierarchical(1)),
        ("resnet-h2", resnet18_small(32), BlockingPattern::hierarchical(2)),
        ("vdsr-h2", vdsr_small(24, 4, 8), BlockingPattern::hierarchical(2)),
    ] {
        let input = input_for(&net, 17);
        let mk = |backend| {
            Session::builder()
                .network(net.clone())
                .planner(PlanSpec::new().pattern(pattern))
                .seed(23)
                .backend(backend)
                .build()
                .unwrap()
        };
        let fused = mk(Backend::Blocked).run(&input).unwrap().stats;
        let layerwise = mk(Backend::Reference).run(&input).unwrap().stats;
        println!(
            "{name}: off-chip fused {} vs layerwise {} elems",
            fused.offchip_elems, layerwise.offchip_elems
        );
        assert!(
            fused.offchip_elems < layerwise.offchip_elems,
            "{name}: fused {} !< layerwise {}",
            fused.offchip_elems,
            layerwise.offchip_elems
        );
    }
}

#[test]
fn unfused_convs_run_the_session_kernel_and_stay_bit_exact() {
    // An unblocked plan leaves every conv a whole-map `Segment::Single`.
    // Those used to run the naive direct loop whatever the session's
    // policy; they now run what the policy resolves, to the same bits.
    for (name, net) in [("vgg", vgg16_small(32)), ("resnet", resnet18_small(32))] {
        let input = input_for(&net, 53);
        let convs = Session::builder().network(net.clone()).build().unwrap().graph().conv_count();
        let build = |backend| {
            Session::builder()
                .network(net.clone())
                .planner(PlanSpec::new().network_plan(NetworkPlan::unblocked(convs)))
                .seed(59)
                .backend(backend)
                .build()
                .unwrap()
        };
        let blocked = build(Backend::Blocked);
        assert_eq!(blocked.kernel(), KernelPolicy::Auto);
        assert_eq!(blocked.plan().fusion_groups(), 0, "{name}: nothing may fuse");
        let kernels = blocked.conv_kernels();
        assert_eq!(kernels.len(), convs, "{name}");
        for (layer, kernel) in &kernels {
            assert_ne!(*kernel, "direct", "{name}: {layer} must not run the naive loop");
        }
        let reference = build(Backend::Reference);
        assert!(reference.conv_kernels().iter().all(|(_, kernel)| *kernel == "direct"));
        assert_eq!(
            blocked.run(&input).unwrap().output.data(),
            reference.run(&input).unwrap().output.data(),
            "{name}: unblocked == reference bit for bit on any kernel"
        );
    }
}

#[test]
fn blocking_depth_schedule_flows_through_session() {
    // The VDSR Table-IV schedule: depth-2 blocking leaves every third conv
    // a whole-map fusion point, trading traffic for information fusion.
    let net = vdsr_small(24, 6, 8);
    let input = input_for(&net, 29);
    let mk = |plan: NetworkPlan| {
        Session::builder()
            .network(net.clone())
            .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).network_plan(plan))
            .seed(31)
            .build()
            .unwrap()
    };
    let end_to_end =
        mk(NetworkPlan::by_blocking_depth(6, BlockingPattern::hierarchical(2), usize::MAX));
    let depth2 = mk(NetworkPlan::by_blocking_depth(6, BlockingPattern::hierarchical(2), 2));
    assert_eq!(end_to_end.plan().fusion_groups(), 1);
    assert_eq!(depth2.plan().fusion_groups(), 2);
    let e2e_stats = end_to_end.run(&input).unwrap().stats;
    let d2_stats = depth2.run(&input).unwrap().stats;
    // More fusion points => more off-chip transfers.
    assert!(e2e_stats.offchip_elems < d2_stats.offchip_elems);
}

#[test]
fn on_chip_budget_is_respected_by_the_compiled_plan() {
    let net = vdsr_small(24, 6, 8);
    let budget = 12 * 12 * 8 + 12 * 12 * 2;
    let tight = Session::builder()
        .network(net.clone())
        .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).on_chip_budget(budget))
        .seed(37)
        .build()
        .unwrap();
    let free = Session::builder()
        .network(net)
        .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)))
        .seed(37)
        .build()
        .unwrap();
    let input = uniform_tensor([1, 1, 24, 24], -1.0, 1.0, &mut seeded_rng(41));
    let tr = tight.run(&input).unwrap();
    let fr = free.run(&input).unwrap();
    // The budget governs fused-group block buffers: every fused segment of
    // the tight plan must fit, so plans get shorter groups / more segments.
    assert!(tight.plan().fusion_groups() >= free.plan().fusion_groups());
    assert!(tr.segments > fr.segments, "budget must cut fusion groups");
    // Identical numerics regardless of the fusion schedule chosen.
    assert!(tr.output.approx_eq(&fr.output, 1e-4).unwrap());
}
