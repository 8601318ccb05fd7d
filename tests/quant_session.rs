//! End-to-end tests of the quantized executor backend — the paper's
//! deployment path (§III-C, Figure 7) driven entirely through [`Session`].
//!
//! The contract:
//!
//! * `Backend::Quantized` compiles and runs the paper's two deployment
//!   configurations (VGG-16-small at 8/8, VDSR-small at 8-bit activations ×
//!   4-bit weights) end to end;
//! * blocked-quantized execution stays within the dense-quantized error
//!   envelope relative to the float run of the same schedule — quantization
//!   error does not compound with blocking;
//! * the quantized backend honors the session's block-padding mode (the
//!   original `QConv2d` bug hardcoded zero);
//! * off-chip traffic is element-identical to the float blocked schedule
//!   but shrinks in bits with the activation width;
//! * an unblocked quantized plan on the fast kernels — whole-map convs
//!   that store where the next conv reads — matches the direct integer
//!   loop bit for bit, `MemStats` included.

use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_graph::{Backend, ExecScratch, KernelPolicy, PlanSpec, Session};
use bconv_models::layer::LayerKind;
use bconv_models::small::{resnet18_small, vdsr_small, vgg16_small};
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{PadMode, Tensor};

#[path = "common/strided.rs"]
mod strided;

fn input_for(net: &Network, seed: u64) -> Tensor {
    let s = net.input;
    uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed))
}

fn conv_count(net: &Network) -> usize {
    net.layers.iter().filter(|l| matches!(l.kind, LayerKind::Conv { .. })).count()
}

fn rel_err(a: &Tensor, b: &Tensor) -> f32 {
    let mag = b.data().iter().fold(1e-6f32, |m, &v| m.max(v.abs()));
    a.max_abs_diff(b).unwrap() / mag
}

fn session(net: &Network, backend: Backend, pad: PadMode, blocked: bool) -> Session {
    let mut spec = PlanSpec::new().pad(pad);
    if !blocked {
        spec = spec.network_plan(NetworkPlan::unblocked(conv_count(net)));
    }
    Session::builder()
        .network(net.clone())
        .seed(2018)
        .planner(spec)
        .backend(backend)
        .build()
        .unwrap()
}

#[test]
fn vgg_quantized_session_runs_end_to_end() {
    // The acceptance configuration: VGG-16-small, 8-bit weights and
    // activations, blocked-fused schedule.
    let net = vgg16_small(32);
    let input = input_for(&net, 1);
    let q = session(&net, Backend::Quantized { weight_bits: 8, act_bits: 8 }, PadMode::Zero, true);
    assert!(q.plan().fusion_groups() > 0, "quantized plan must keep fusion groups");
    assert!((q.plan().blocking_ratio() - 1.0).abs() < 1e-9);
    let report = q.run(&input).unwrap();
    assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
    assert_eq!(report.stats.bits_per_elem, 8);
    // Close to the float run of the same (blocked) schedule.
    let f = session(&net, Backend::Blocked, PadMode::Zero, true);
    let err = rel_err(&report.output, &f.run(&input).unwrap().output);
    assert!(err < 0.3, "8/8 quantized VGG drifted from float blocked: {err}");
}

#[test]
fn vdsr_8x4_deployment_variant_runs() {
    // The paper's Ultra96 VDSR configuration: 8-bit activations, 4-bit
    // weights (§III-C1).
    let net = vdsr_small(24, 6, 8);
    let input = input_for(&net, 2);
    let q = session(&net, Backend::Quantized { weight_bits: 4, act_bits: 8 }, PadMode::Zero, true);
    let report = q.run(&input).unwrap();
    assert_eq!(report.output.shape().dims(), [1, 1, 24, 24]);
    assert_eq!(report.stats.bits_per_elem, 8);
    let f = session(&net, Backend::Blocked, PadMode::Zero, true);
    let err = rel_err(&report.output, &f.run(&input).unwrap().output);
    assert!(err < 0.4, "8x4 quantized VDSR drifted from float blocked: {err}");
}

#[test]
fn blocked_quant_stays_within_dense_quant_envelope() {
    // Quantization error must not compound with blocking: the blocked
    // quantized run tracks its float schedule about as well as the dense
    // quantized run tracks dense float.
    for (name, net) in [("vgg", vgg16_small(32)), ("vdsr", vdsr_small(24, 6, 8))] {
        let input = input_for(&net, 3);
        let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
        let dense_env = rel_err(
            &session(&net, backend, PadMode::Zero, false).run(&input).unwrap().output,
            &session(&net, Backend::Blocked, PadMode::Zero, false).run(&input).unwrap().output,
        );
        let blocked_env = rel_err(
            &session(&net, backend, PadMode::Zero, true).run(&input).unwrap().output,
            &session(&net, Backend::Blocked, PadMode::Zero, true).run(&input).unwrap().output,
        );
        assert!(
            blocked_env <= 2.0 * dense_env + 0.02,
            "{name}: blocked-quant error {blocked_env} escapes the dense-quant envelope \
             {dense_env}"
        );
    }
}

#[test]
fn quantized_backend_honors_block_pad_mode() {
    // Regression for the hardcoded-zero padding bug, now at session level:
    // under replicate block padding the quantized run must track the
    // replicate float run, and differ from a zero-padded quantized run.
    let net = vdsr_small(24, 4, 8);
    let input = input_for(&net, 4);
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let f_rep =
        session(&net, Backend::Blocked, PadMode::Replicate, true).run(&input).unwrap().output;
    let q_rep = session(&net, backend, PadMode::Replicate, true).run(&input).unwrap().output;
    let q_zero = session(&net, backend, PadMode::Zero, true).run(&input).unwrap().output;
    let err_rep = rel_err(&q_rep, &f_rep);
    let err_zero = rel_err(&q_zero, &f_rep);
    assert!(err_rep < 0.1, "replicate quant session diverges from replicate float: {err_rep}");
    assert!(
        err_zero > 2.0 * err_rep,
        "zero-padded quant should visibly differ from the replicate float run \
         (rep {err_rep}, zero {err_zero})"
    );
}

#[test]
fn quantized_backend_honors_reflect_pad_mode() {
    // Reflect was the uncovered third of PadMode::ALL at session level:
    // under reflect block padding the quantized run must track the
    // reflect float run and visibly differ from a zero-padded quantized
    // run (reflection repeats interior pixels, zero injects black).
    let net = vdsr_small(24, 4, 8);
    let input = input_for(&net, 6);
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let f_reflect =
        session(&net, Backend::Blocked, PadMode::Reflect, true).run(&input).unwrap().output;
    let q_reflect = session(&net, backend, PadMode::Reflect, true).run(&input).unwrap().output;
    let q_zero = session(&net, backend, PadMode::Zero, true).run(&input).unwrap().output;
    let err_reflect = rel_err(&q_reflect, &f_reflect);
    let err_zero = rel_err(&q_zero, &f_reflect);
    assert!(err_reflect < 0.1, "reflect quant session diverges from reflect float: {err_reflect}");
    assert!(
        err_zero > 2.0 * err_reflect,
        "zero-padded quant should visibly differ from the reflect float run \
         (reflect {err_reflect}, zero {err_zero})"
    );
}

#[test]
fn reflect_blocked_quant_stays_within_dense_quant_envelope() {
    // The error-envelope contract of blocked_quant_stays_within_dense_
    // quant_envelope, under reflect block padding: quantization error must
    // not compound with blocking for any supported pad mode. The dense
    // yardstick is pad-mode-free (an unblocked plan applies no block
    // padding), so the same envelope bounds every mode's blocked run.
    // VDSR variants only: reflection needs pad < block dim, which VGG's
    // deepest 1x1 blocks cannot satisfy (the same reason Figure 6's pad
    // study runs on VDSR).
    for (name, net) in [("vdsr6x8", vdsr_small(24, 6, 8)), ("vdsr4x6", vdsr_small(24, 4, 6))] {
        let input = input_for(&net, 7);
        let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
        let dense_env = rel_err(
            &session(&net, backend, PadMode::Zero, false).run(&input).unwrap().output,
            &session(&net, Backend::Blocked, PadMode::Zero, false).run(&input).unwrap().output,
        );
        let blocked_reflect_env = rel_err(
            &session(&net, backend, PadMode::Reflect, true).run(&input).unwrap().output,
            &session(&net, Backend::Blocked, PadMode::Reflect, true).run(&input).unwrap().output,
        );
        assert!(
            blocked_reflect_env <= 2.0 * dense_env + 0.02,
            "{name}: reflect blocked-quant error {blocked_reflect_env} escapes the dense-quant \
             envelope {dense_env}"
        );
    }
}

#[test]
fn offchip_bits_shrink_with_act_width() {
    // Same schedule, same element traffic, narrower words: the paper's
    // Figure 7 memory claim, now measured on the executable plan.
    let net = vgg16_small(32);
    let input = input_for(&net, 5);
    let float_stats =
        session(&net, Backend::Blocked, PadMode::Zero, true).run(&input).unwrap().stats;
    let stats_at = |act_bits: u8| {
        session(&net, Backend::Quantized { weight_bits: 8, act_bits }, PadMode::Zero, true)
            .run(&input)
            .unwrap()
            .stats
    };
    let (a16, a8) = (stats_at(16), stats_at(8));
    assert_eq!(float_stats.offchip_elems, a16.offchip_elems);
    assert_eq!(a16.offchip_elems, a8.offchip_elems);
    assert_eq!(float_stats.bits_per_elem, 32);
    assert!(
        float_stats.offchip_bits() > a16.offchip_bits() && a16.offchip_bits() > a8.offchip_bits(),
        "off-chip bits must shrink with activation width: f32 {} a16 {} a8 {}",
        float_stats.offchip_bits(),
        a16.offchip_bits(),
        a8.offchip_bits()
    );
    assert_eq!(a8.offchip_bits() * 4, float_stats.offchip_bits());
}

#[test]
fn quantized_segments_mirror_the_float_plan() {
    // The quantized planner reuses the float fusion-group walk, so the
    // segment structure (and fused/whole-map split) is identical.
    let net = vgg16_small(32);
    let f = session(&net, Backend::Blocked, PadMode::Zero, true);
    let q = session(&net, Backend::Quantized { weight_bits: 8, act_bits: 8 }, PadMode::Zero, true);
    assert_eq!(f.plan().segments().len(), q.plan().segments().len());
    assert_eq!(f.plan().fusion_groups(), q.plan().fusion_groups());
    assert_eq!(f.plan().blocked_convs(), q.plan().blocked_convs());
    // Different blocking patterns compile to different quantized plans too.
    let q4 = Session::builder()
        .network(net)
        .planner(PlanSpec::new().pattern(BlockingPattern::fixed(8)))
        .backend(Backend::Quantized { weight_bits: 8, act_bits: 8 })
        .build()
        .unwrap();
    assert!(q4.plan().fusion_groups() > 0);
    assert!(q4.run(&input_for(&vgg16_small(32), 6)).is_ok());
}

/// An unblocked quantized session under `kernel`.
fn quant_session(
    net: &Network,
    plan: NetworkPlan,
    backend: Backend,
    kernel: KernelPolicy,
    relu: bool,
) -> Session {
    Session::builder()
        .network(net.clone())
        .seed(2018)
        .relu_after_conv(relu)
        .planner(PlanSpec::new().network_plan(plan).kernel(kernel))
        .backend(backend)
        .build()
        .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn whole_map_integer_chains_match_the_direct_loop_bit_for_bit() {
    // Every whole-map conv is a one-block chain. Under `Auto` a chain whose
    // output's sole reader is a whole-map exact conv stores that conv's
    // input — quantized, inside a zero border — and the reader reads it in
    // place, skipping the border's taps; under `Direct` every conv pads and
    // quantizes its own input for the i64 loop. vdsr stages every conv
    // pair (16 and 8 channels: channel lanes; its last, one-channel conv
    // runs spatial lanes), vgg's pools break the runs, resnet's residual
    // convs have two consumers and its 1x1 convs run the GEMM, the strided
    // net's stride-2 convs (GEMM and direct loop) stage for the 3x3 behind
    // them; w8a16 leaves the exact range and stages nothing; ReLU nodes
    // break every pair. Under depth-2 blocking vdsr's fused groups each
    // stage the input of the whole-map fusion-point conv after them. One
    // scratch per session serves 1- and 3-image inputs in turn, outputs
    // recycled, so a pooled buffer that kept stale values would show.
    // `(name, net, blocking depth)`: `None` blocks nothing.
    let nets = [
        ("vdsr16", vdsr_small(24, 5, 16), None),
        ("vdsr8", vdsr_small(24, 4, 8), None),
        ("vgg", vgg16_small(32), None),
        ("resnet", resnet18_small(32), None),
        ("strided", strided::strided_net(), None),
        ("vdsr16-depth2", vdsr_small(24, 8, 16), Some(2)),
    ];
    for (name, net, depth) in &nets {
        let plan = || match depth {
            None => NetworkPlan::unblocked(conv_count(net)),
            Some(d) => NetworkPlan::by_blocking_depth(
                conv_count(net),
                BlockingPattern::hierarchical(2),
                *d,
            ),
        };
        let s = net.input;
        let inputs: Vec<Tensor> = [(1, 11), (3, 12), (1, 13), (3, 14), (1, 15)]
            .into_iter()
            .map(|(n, seed)| uniform_tensor([n, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed)))
            .collect();
        for (weight_bits, act_bits) in [(8, 8), (4, 8), (8, 16)] {
            for relu in [false, true] {
                let backend = Backend::Quantized { weight_bits, act_bits };
                let direct = quant_session(net, plan(), backend, KernelPolicy::Direct, relu);
                let fast = quant_session(net, plan(), backend, KernelPolicy::Auto, relu);
                let groups = fast.plan().fusion_groups();
                assert_eq!(groups == 0, depth.is_none(), "{name}: {groups} fusion groups");
                let (mut direct_scratch, mut fast_scratch) =
                    (ExecScratch::new(), ExecScratch::new());
                for (i, input) in inputs.iter().enumerate() {
                    let want = direct.run_with(input, &mut direct_scratch).unwrap();
                    let got = fast.run_with(input, &mut fast_scratch).unwrap();
                    let what = format!("{name} w{weight_bits}a{act_bits} relu={relu} run {i}");
                    assert!(bits(&got.output) == bits(&want.output), "{what}: outputs differ");
                    assert_eq!(got.output.shape(), want.output.shape(), "{what}");
                    assert_eq!(got.stats, want.stats, "{what}: stats differ");
                    assert_eq!(got.segments, want.segments, "{what}");
                    fast_scratch.recycle(got.output);
                }
            }
        }
    }
}
