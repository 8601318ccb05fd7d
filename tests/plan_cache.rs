//! Plan-cache and autotuner contract tests.
//!
//! The contract under test:
//!
//! * a plan-cache hit produces a session whose execution is **bitwise
//!   identical** to a freshly planned one, on every backend;
//! * a cache hit skips planning entirely — its plan carries
//!   [`PlanProvenance::CacheLoaded`], which only the load path stamps and
//!   which cannot reach the planner walk;
//! * corrupted, hostile or stale cache files are rejected with a typed
//!   error and fall back to fresh planning, never a panic or an abort;
//! * `planner` and `plan_cache` configure a builder in either order;
//! * the tuner's winner never models more off-chip traffic than the
//!   default configuration, and tuned builds cache their winner per host;
//! * `Session::fork` and `Session::into_router` share the already-built
//!   plan (`Arc::ptr_eq`) rather than re-planning.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bconv_accel::platform::zc706;
use bconv_core::plan::NetworkPlan;
use bconv_core::BlockingPattern;
use bconv_graph::cache::{PlanCache, PlanCacheError, PlanKey};
use bconv_graph::cost::ElementBudget;
use bconv_graph::json::Json;
use bconv_graph::tune::{tune, TuneOptions};
use bconv_graph::{
    AccelCost, Backend, ExecPlan, Executor, GraphQuantSpec, KernelPolicy, PlanExecutor,
    PlanProvenance, PlanSpec, Planner, PlannerOptions, RunReport, Segment, ServeConfig, Session,
    SessionBuilder,
};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::small::{vdsr_small, vgg16_small};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;
use bconv_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty cache directory unique to this test run.
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bconv-plan-cache-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn input_for(net: &Network, seed: u64) -> Tensor {
    let s = net.input;
    uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed))
}

const BACKENDS: [Backend; 3] =
    [Backend::Reference, Backend::Blocked, Backend::Quantized { weight_bits: 8, act_bits: 8 }];

/// The key a default-seed session of `spec` on `backend` is cached under.
fn key_for(session: &Session, spec: &PlanSpec, backend: Backend, seed: u64) -> PlanKey {
    let planner = Planner::new(PlannerOptions {
        budget_elems: spec.budget_elems,
        cost_model: spec.cost_model.clone(),
        ..PlannerOptions::default()
    });
    PlanKey::for_build(
        session.graph(),
        seed,
        spec.pattern.unwrap_or(BlockingPattern::hierarchical(2)),
        spec.network_plan.as_ref(),
        backend,
        planner.cost_model(),
        spec.kernel,
        spec.pad,
    )
}

#[test]
fn cache_round_trip_is_bitwise_identical_on_every_backend() {
    for (name, net) in [("vgg16_small", vgg16_small(32)), ("vdsr_small", vdsr_small(24, 4, 8))] {
        let input = input_for(&net, 0xCAFE);
        for backend in BACKENDS {
            let dir = temp_cache_dir("roundtrip");
            let fresh = Session::builder()
                .network(net.clone())
                .backend(backend)
                .plan_cache(&dir)
                .build()
                .unwrap();
            assert_eq!(
                fresh.plan().report().provenance,
                PlanProvenance::Fresh,
                "{name}/{backend:?}: first build must plan fresh"
            );
            let cached = Session::builder()
                .network(net.clone())
                .backend(backend)
                .plan_cache(&dir)
                .build()
                .unwrap();
            assert!(
                matches!(cached.plan().report().provenance, PlanProvenance::CacheLoaded { .. }),
                "{name}/{backend:?}: a cache hit must skip the planner, got {:?}",
                cached.plan().report().provenance
            );
            let a = fresh.run(&input).unwrap();
            let b = cached.run(&input).unwrap();
            assert_eq!(
                a.output.data(),
                b.output.data(),
                "{name}/{backend:?}: cache-loaded execution must be bitwise identical"
            );
            assert_eq!(a.stats, b.stats, "{name}/{backend:?}");
            assert_eq!(
                fresh.plan().fusion_groups(),
                cached.plan().fusion_groups(),
                "{name}/{backend:?}: plan structure must survive the round trip"
            );
            assert_eq!(fresh.describe(), cached.describe(), "{name}/{backend:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn corrupted_cache_files_fall_back_to_fresh_planning() {
    let dir = temp_cache_dir("corrupt");
    let net = vgg16_small(32);
    let first = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();

    // The stored file sits exactly where the key says it does.
    let cache = PlanCache::new(dir.clone());
    let key = key_for(&first, &PlanSpec::new(), Backend::Blocked, 2018);
    let path = cache.path_for(&key);
    assert!(path.is_file(), "expected the first build to store {}", path.display());
    let load = || cache.load(&key, first.graph(), PadMode::Zero, KernelPolicy::Auto, None);
    assert!(load().is_ok());

    // Corrupt it — garbage, or 20 kB of `[` that used to overflow the
    // parser's stack and abort the process: load reports a typed parse
    // error, never a panic, and the builder silently re-plans fresh (and
    // re-stores).
    for hostile in ["{ this is not json".to_string(), "[".repeat(20_000), "{\"a\":".repeat(20_000)]
    {
        std::fs::write(&path, hostile).unwrap();
        let err = load().unwrap_err();
        assert!(matches!(err, PlanCacheError::Parse(_)), "got {err}");

        let rebuilt = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
        assert_eq!(
            rebuilt.plan().report().provenance,
            PlanProvenance::Fresh,
            "corrupt file must force a fresh plan"
        );

        // The re-store healed the cache.
        let healed = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
        assert!(matches!(healed.plan().report().provenance, PlanProvenance::CacheLoaded { .. }));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte ranges of the JSON number tokens of `text` (digit runs outside
/// strings).
fn number_tokens(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let (mut out, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'0'..=b'9' if !in_string => {
                let start = i;
                while i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
                    i += 1;
                }
                out.push(start..i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    out
}

#[test]
fn integers_past_u64_in_a_plan_file_are_typed_errors() {
    // 2^64 used to slip through the integer check (the bound compared
    // against `u64::MAX as f64`, which *is* 2^64, and the cast saturates)
    // and overflow the sum of stored group lengths. Put it in place of
    // every number of a stored plan with splices, one at a time.
    let dir = temp_cache_dir("overflow");
    let net = vgg16_small(32);
    let spec = PlanSpec::new().cost_model(AccelCost::with_buffers(zc706(), 1500 * 32 / 2, 1 << 24));
    let session =
        Session::builder().network(net).planner(spec.clone()).plan_cache(&dir).build().unwrap();
    assert!(session.plan().segments().iter().any(|s| matches!(s, Segment::Spliced { .. })));
    let cache = PlanCache::new(dir.clone());
    let key = key_for(&session, &spec, Backend::Blocked, 2018);
    let path = cache.path_for(&key);
    let stored = std::fs::read_to_string(&path).unwrap();
    let tokens = number_tokens(&stored);
    assert!(tokens.len() > 20, "a spliced plan stores many integers");
    for token in tokens {
        let mut text = stored.clone();
        text.replace_range(token.clone(), "18446744073709551616");
        std::fs::write(&path, &text).unwrap();
        let result = cache.load(&key, session.graph(), PadMode::Zero, KernelPolicy::Auto, None);
        assert!(result.is_err(), "2^64 at bytes {token:?} was accepted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_keys_are_rejected_with_a_typed_mismatch() {
    let dir = temp_cache_dir("stale");
    let net = vgg16_small(32);
    let first = Session::builder().network(net.clone()).plan_cache(&dir).build().unwrap();
    let cache = PlanCache::new(dir.clone());
    let key =
        |seed: u64, session: &Session| key_for(session, &PlanSpec::new(), Backend::Blocked, seed);
    let stored = cache.path_for(&key(2018, &first));

    // A session with a different seed hashes to a different key: drop the
    // seed-2018 plan file onto the seed-2019 key's path and the stored
    // key string betrays it.
    let other = Session::builder().network(net).seed(2019).build().unwrap();
    let stale_key = key(2019, &other);
    std::fs::copy(&stored, cache.path_for(&stale_key)).unwrap();
    let err =
        cache.load(&stale_key, other.graph(), PadMode::Zero, KernelPolicy::Auto, None).unwrap_err();
    assert!(matches!(err, PlanCacheError::KeyMismatch { .. }), "got {err}");

    // A missing file is a typed IO error, not a panic.
    let miss = key(2020, &first);
    let err =
        cache.load(&miss, first.graph(), PadMode::Zero, KernelPolicy::Auto, None).unwrap_err();
    assert!(matches!(err, PlanCacheError::Io(_)), "got {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planner_and_plan_cache_compose_in_either_order() {
    // `planner(spec)` used to replace the spec the cache directory had
    // been written into, so `.plan_cache(dir).planner(spec)` silently
    // built an uncached session.
    let net = vdsr_small(24, 4, 8);
    let input = input_for(&net, 0x0D3);
    let spec = || PlanSpec::new().pattern(BlockingPattern::fixed(8)).on_chip_budget(600);
    type Configure = fn(SessionBuilder, PlanSpec, &Path) -> SessionBuilder;
    let orders: [(&str, Configure); 2] = [
        ("planner-then-cache", |b, spec, dir| b.planner(spec).plan_cache(dir)),
        ("cache-then-planner", |b, spec, dir| b.plan_cache(dir).planner(spec)),
    ];
    for (name, configure) in orders {
        let dir = temp_cache_dir(name);
        let build = || configure(Session::builder().network(net.clone()), spec(), &dir).build();
        let first = build().unwrap();
        assert_eq!(first.plan().report().provenance, PlanProvenance::Fresh, "{name}");
        assert!(!first.plan().report().cost_cuts.is_empty(), "{name}: the spec must apply");
        let second = build().unwrap();
        assert!(
            matches!(second.plan().report().provenance, PlanProvenance::CacheLoaded { .. }),
            "{name}: second build must hit the cache, got {:?}",
            second.plan().report().provenance
        );
        assert_eq!(second.plan().report().cost_cuts, first.plan().report().cost_cuts, "{name}");
        assert_eq!(
            first.run(&input).unwrap().output.data(),
            second.run(&input).unwrap().output.data(),
            "{name}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn tune_winner_never_models_more_offchip_than_the_default() {
    let report = tune(&vgg16_small(32), &TuneOptions::default()).unwrap();
    assert!(report.points.len() > 1, "the DSE must explore beyond the default");
    assert!(!report.pareto.is_empty());
    for &i in &report.pareto {
        assert!(i < report.points.len());
    }
    assert!(
        report.winner_point().offchip_bits <= report.default_point().offchip_bits,
        "winner {} > default {}",
        report.winner_point().offchip_bits,
        report.default_point().offchip_bits
    );
    // The report serialises (CI uploads it as an artifact) to a document
    // the shared reader accepts, field for field.
    let doc = Json::parse(&report.to_json()).unwrap();
    assert_eq!(doc.get("network").and_then(Json::as_str), Some(&*report.network));
    assert_eq!(doc.get("net_hash").and_then(Json::as_str).map(str::len), Some(16));
    assert_eq!(doc.get("host").and_then(Json::as_str), Some(&*report.host));
    assert_eq!(doc.get("key").and_then(Json::as_str), Some(&*report.key));
    assert_eq!(doc.get("points_explored").and_then(Json::as_usize), Some(report.points.len()));
    assert_eq!(doc.get("winner_index").and_then(Json::as_usize), Some(report.winner_index));
    let pareto = doc.get("pareto").and_then(Json::as_array).unwrap();
    assert_eq!(pareto.iter().filter_map(Json::as_usize).collect::<Vec<_>>(), report.pareto);
    let points = doc.get("points").and_then(Json::as_array).unwrap();
    assert_eq!(points.len(), report.points.len());
    for (row, p) in points.iter().zip(&report.points) {
        assert_eq!(row.get("pattern").and_then(Json::as_str), Some(&*p.pattern));
        assert_eq!(row.get("offchip_bits").and_then(Json::as_u64), Some(p.offchip_bits));
        assert_eq!(row.get("predicted_cycles").and_then(Json::as_u64), Some(p.predicted_cycles));
        let ints = [
            ("intermediate_buffer_bits", p.intermediate_buffer_bits as usize),
            ("extra_buffer_bits", p.extra_buffer_bits as usize),
            ("fusion_groups", p.fusion_groups),
            ("splices", p.splices),
            ("merge_ready_splices", p.merge_ready_splices),
        ];
        for (name, want) in ints {
            assert_eq!(row.get(name).and_then(Json::as_usize), Some(want), "{name}");
        }
    }
}

#[test]
fn tuned_builds_cache_their_winner_and_stay_bitwise_identical() {
    let dir = temp_cache_dir("tuned");
    let net = vgg16_small(32);
    let input = input_for(&net, 0xBEEF);
    let tuned = || {
        Session::builder().network(net.clone()).planner(PlanSpec::new().tuned()).plan_cache(&dir)
    };

    let first = tuned().build().unwrap();
    assert!(
        matches!(first.plan().report().provenance, PlanProvenance::TuneSelected { .. }),
        "got {:?}",
        first.plan().report().provenance
    );
    // The tuner explores what its score sees — pattern and buffer split —
    // so a tuned build resolves its thread count like any other build (it
    // used to pin 1: the first-enumerated of candidates that all tied).
    let untuned = Session::builder().network(net.clone()).build().unwrap();
    assert_eq!(first.threads(), untuned.threads());

    // Second tuned build: winner loaded from the per-host cache, plan
    // loaded from the plan cache — nothing plans, nothing re-tunes.
    let second = tuned().build().unwrap();
    assert!(
        matches!(second.plan().report().provenance, PlanProvenance::CacheLoaded { .. }),
        "cached winner + cached plan must skip planning, got {:?}",
        second.plan().report().provenance
    );
    let a = first.run(&input).unwrap();
    let b = second.run(&input).unwrap();
    assert_eq!(a.output.data(), b.output.data(), "tuned execution must be reproducible bitwise");

    // A fresh session pinned to the winner's exact knobs executes
    // bitwise identically to the tune-selected one.
    let topts = TuneOptions::default();
    let report = tune(&net, &topts).unwrap();
    let w = report.winner;
    let explicit = Session::builder()
        .network(net.clone())
        .planner(
            PlanSpec::new()
                .pattern(w.pattern)
                .cost_model(w.cost_model(topts.platform.clone(), topts.npe)),
        )
        .build()
        .unwrap();
    let c = explicit.run(&input).unwrap();
    assert_eq!(a.output.data(), c.output.data(), "tune-selected == fresh with the same knobs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fork_and_router_share_the_compiled_plan() {
    let session = Session::builder().network(vgg16_small(32)).build().unwrap();
    let fork = session.fork();
    assert!(
        Arc::ptr_eq(session.plan_handle(), fork.plan_handle()),
        "fork must share the ExecPlan allocation, not re-plan"
    );
    let router = fork.into_router(3, ServeConfig::default()).unwrap();
    let engines = router.replicas();
    assert_eq!(engines.len(), 3);
    assert!(
        engines.iter().all(|e| engines[0].shares_model_with(e)),
        "router replicas must reuse the built plan"
    );
    router.shutdown();
}

#[test]
fn a_budget_and_a_cost_model_in_one_spec_are_rejected() {
    let err = Session::builder()
        .network(vdsr_small(24, 4, 8))
        .planner(PlanSpec::new().on_chip_budget(10).cost_model(ElementBudget::unbounded()))
        .build()
        .unwrap_err();
    assert!(format!("{err}").contains("mutually exclusive"), "{err}");
}

/// One random edit of `bytes`: flip a bit, insert a byte, delete a byte,
/// or truncate.
fn mutate(bytes: &[u8], rng: &mut impl Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.gen_range(0..out.len());
    match rng.gen_range(0..4u8) {
        0 => out[at] ^= 1 << rng.gen_range(0..8u8),
        1 => out.insert(at, rng.gen_range(0..=255u8)),
        2 => drop(out.remove(at)),
        _ => out.truncate(at),
    }
    out
}

#[test]
fn mutated_plan_files_never_panic_and_never_change_results() {
    // Seeded byte-mutation fuzz of stored plan files. Whatever a mutant
    // looks like, `PlanCache::load` returns a plan or a typed error; a
    // plan it does return executes exactly like the fresh one (decisions
    // are checked against the graph, so a surviving mutant can only have
    // touched white space or the report); and a builder pointed at the
    // mutated directory builds and runs bitwise equal to a fresh session.
    const MUTANTS_PER_TARGET: usize = 700;
    let w8a8 = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let f8 = PlanSpec::new().pattern(BlockingPattern::fixed(8));
    let spliced =
        PlanSpec::new().cost_model(AccelCost::with_buffers(zc706(), 1500 * 32 / 2, 1 << 24));
    // Every conv of the four-conv VDSR a whole-map integer op.
    let unblocked = PlanSpec::new().network_plan(NetworkPlan::unblocked(4));
    let targets = [
        ("vgg16_small", vgg16_small(32), Backend::Blocked, PlanSpec::new()),
        ("vdsr_small", vdsr_small(24, 4, 8), w8a8, f8),
        ("vgg16_small-spliced", vgg16_small(32), Backend::Blocked, spliced),
        ("vdsr_small-unblocked", vdsr_small(24, 4, 8), w8a8, unblocked),
        // Integer FC heads behind the fused integer trunk.
        ("vgg16_small-w8a8", vgg16_small(32), w8a8, PlanSpec::new()),
    ];
    let (mut loaded, mut rejected) = (0usize, 0usize);
    for (name, net, backend, spec) in targets {
        let dir = temp_cache_dir("fuzz");
        let input = input_for(&net, 0xF422);
        let calibration = vec![input_for(&net, 0xCA11)];
        let builder = || {
            Session::builder()
                .network(net.clone())
                .backend(backend)
                .planner(spec.clone())
                .calibration(calibration.clone())
                .threads(1)
                .plan_cache(&dir)
        };
        let fresh = builder().build().unwrap();
        let want = fresh.run(&input).unwrap();
        if name.ends_with("spliced") {
            assert!(!fresh.plan().report().splices.is_empty(), "{name} must store splices");
        }
        assert_eq!(fresh.plan().fusion_groups() == 0, name.ends_with("unblocked"), "{name}");

        // What the builder does with a loaded plan, by hand.
        let graph = Arc::new(fresh.graph().clone());
        let quant = match backend {
            Backend::Quantized { weight_bits, act_bits } => Some(
                GraphQuantSpec::calibrate(&graph, &calibration, weight_bits, act_bits).unwrap(),
            ),
            _ => None,
        };
        let execute = |plan: ExecPlan| -> RunReport {
            PlanExecutor::new(Arc::clone(&graph), Arc::new(plan), 1).run(&input).unwrap()
        };

        let cache = PlanCache::new(dir.clone());
        let key = key_for(&fresh, &spec, backend, 2018);
        let path = cache.path_for(&key);
        let stored = std::fs::read(&path).unwrap();
        let mut rng = seeded_rng(0x5EED ^ stored.len() as u64);
        for i in 0..MUTANTS_PER_TARGET {
            std::fs::write(&path, mutate(&stored, &mut rng)).unwrap();
            let hit = match cache.load(&key, &graph, spec.pad, spec.kernel, quant.as_ref()) {
                Ok(plan) => {
                    let got = execute(plan);
                    assert_eq!(got.output.data(), want.output.data(), "{name}: mutant #{i}");
                    assert_eq!(got.stats, want.stats, "{name}: mutant #{i}");
                    true
                }
                Err(_) => false,
            };
            if hit || i % 10 == 0 {
                // The builder loads the mutant, or falls back to a fresh
                // plan (healing the file, which the next mutant replaces).
                let session = builder().build().unwrap_or_else(|e| panic!("{name} #{i}: {e}"));
                let loads = matches!(
                    session.plan().report().provenance,
                    PlanProvenance::CacheLoaded { .. }
                );
                assert_eq!(loads, hit, "{name}: mutant #{i}");
                let got = session.run(&input).unwrap();
                assert_eq!(got.output.data(), want.output.data(), "{name}: built on mutant #{i}");
                assert_eq!(got.stats, want.stats, "{name}: built on mutant #{i}");
            }
            if hit {
                loaded += 1;
            } else {
                rejected += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(loaded > 0, "some mutants (white space, report fields) must still load");
    assert!(rejected > loaded, "most mutants must be rejected");
}

fn random_net(c1: usize, c2: usize) -> Network {
    let mut b = NetBuilder::new("prop-cache", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("conv2", conv(3, 1, 1, c1, c2));
    b.push("pool", maxpool(2, 2, 0));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serialize → deserialize → execute round-trips bitwise on random
    /// small nets, across all three backends.
    #[test]
    fn random_nets_round_trip_bitwise(
        c1 in 1usize..4,
        c2 in 1usize..4,
        seed in 0u64..200,
        backend_idx in 0usize..3,
    ) {
        let backend = BACKENDS[backend_idx];
        let net = random_net(c1, c2);
        let input = input_for(&net, seed ^ 0x51AB);
        let dir = temp_cache_dir("prop");

        let fresh = Session::builder()
            .network(net.clone())
            .seed(seed)
            .backend(backend)
            .plan_cache(&dir)
            .build()
            .unwrap();
        let cached = Session::builder()
            .network(net)
            .seed(seed)
            .backend(backend)
            .plan_cache(&dir)
            .build()
            .unwrap();
        prop_assert!(matches!(
            cached.plan().report().provenance,
            PlanProvenance::CacheLoaded { .. }
        ));
        let a = fresh.run(&input).unwrap();
        let b = cached.run(&input).unwrap();
        prop_assert_eq!(a.output.data(), b.output.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Quantized fused == layer-wise == cache-loaded, bitwise, over random
    /// nets × patterns × bitwidths: fusion and the cache change the
    /// schedule and the start-up path, never the integers.
    #[test]
    fn quantized_fused_layerwise_and_cached_agree_bitwise(
        c1 in 1usize..4,
        c2 in 1usize..4,
        seed in 0u64..200,
        pattern_idx in 0usize..3,
        bits_idx in 0usize..3,
    ) {
        let pattern = [
            BlockingPattern::hierarchical(2),
            BlockingPattern::hierarchical(4),
            BlockingPattern::fixed(8),
        ][pattern_idx];
        let (weight_bits, act_bits) = [(8, 8), (4, 8), (8, 16)][bits_idx];
        let net = random_net(c1, c2);
        let input = input_for(&net, seed ^ 0x0A17);
        let dir = temp_cache_dir("prop-quant");
        let build = || {
            Session::builder()
                .network(net.clone())
                .seed(seed)
                .backend(Backend::Quantized { weight_bits, act_bits })
                .planner(PlanSpec::new().pattern(pattern))
                .plan_cache(&dir)
                .build()
                .unwrap()
        };
        let fresh = build();
        let cached = build();
        prop_assert_eq!(&fresh.plan().report().provenance, &PlanProvenance::Fresh);
        prop_assert!(matches!(
            cached.plan().report().provenance,
            PlanProvenance::CacheLoaded { .. }
        ));
        let fused = fresh.run(&input).unwrap();
        prop_assert_eq!(fused.stats.bits_per_elem, act_bits);
        let reloaded = cached.run(&input).unwrap();
        prop_assert_eq!(fused.output.data(), reloaded.output.data());

        // The net is one chain of fusable stages, so its plan is fused
        // segments only: fold their layer-wise schedules over the input.
        for plan in [fresh.plan(), cached.plan()] {
            let mut value = input.clone();
            for seg in plan.segments() {
                value = match seg {
                    Segment::Fused { chain, .. } => chain.run_layerwise(&value).unwrap().0,
                    Segment::Spliced { pipeline, .. } => pipeline.run_layerwise(&value).unwrap().0,
                    Segment::Single(id) => panic!("node {id} of a conv/pool chain ran whole-map"),
                };
            }
            prop_assert_eq!(fused.output.data(), value.data());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
