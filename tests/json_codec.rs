//! Contract tests of the workspace's one JSON codec (`bconv_graph::json`)
//! across everything that travels through it:
//!
//! * `parse(write(v)) == v` over random trees (any Unicode, control
//!   characters, integers to 2⁵³, finite floats, depth to the cap);
//! * byte-mutated copies of the four committed `BENCH_*.json` parse or fail
//!   with a typed error, and `check_bench` never panics on what parses;
//! * files written by the previous (string-formatting) writers still load,
//!   and the shared writer emits the same fields with the same types;
//! * hostile names (control characters, quotes) in a cost model or network
//!   produce plan files and tune reports any strict JSON reader accepts;
//! * the analyzer's own write-only emitter — kept separate on purpose, it
//!   must build when the crates it lints do not — produces documents the
//!   shared reader accepts.

use std::path::PathBuf;

use bconv_accel::platform::zc706;
use bconv_analyze::lints::Config;
use bconv_analyze::{analyze_sources, apply_allowlist, render_json};
use bconv_bench::check::check_bench;
use bconv_core::BlockingPattern;
use bconv_graph::cache::{host_fingerprint, PlanCache, PlanKey};
use bconv_graph::cost::{CostModel, StageCost};
use bconv_graph::json::{Json, MAX_DEPTH};
use bconv_graph::tune::{tune, TuneOptions};
use bconv_graph::{AccelCost, Backend, KernelPolicy, PlanProvenance, PlanSpec, Session};
use bconv_models::builder::{conv, NetBuilder};
use bconv_models::small::vgg16_small;
use bconv_models::ActShape;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::pad::PadMode;
use proptest::prelude::*;
use rand::Rng;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bconv-json-codec-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// (a) Round-trip property
// ---------------------------------------------------------------------

fn random_string(rng: &mut impl Rng) -> String {
    let len = rng.gen_range(0..8usize);
    (0..len)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => char::from(rng.gen_range(0..0x20u8)),
            1 => ['"', '\\', '/', '\u{7f}', '\u{2028}', '\u{feff}'][rng.gen_range(0..6usize)],
            2 => char::from(rng.gen_range(0x20..0x7fu8)),
            // Any scalar value; the surrogate gap falls back to U+FFFD.
            _ => char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}'),
        })
        .collect()
}

fn random_number(rng: &mut impl Rng) -> f64 {
    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
    match rng.gen_range(0..3u8) {
        0 => sign * rng.gen_range(0..=1u64 << 53) as f64,
        1 => sign * rng.gen_range(0..10_000_000u64) as f64 / 1000.0,
        _ => {
            // Any finite double: huge, tiny and subnormal magnitudes.
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                0.0
            }
        }
    }
}

/// A random tree nesting at most `depth_left` containers.
fn random_tree(rng: &mut impl Rng, depth_left: usize) -> Json {
    let kinds = if depth_left == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0u8 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(random_number(rng)),
        3 => Json::Str(random_string(rng)),
        kind => {
            let children: Vec<Json> =
                (0..rng.gen_range(0..4usize)).map(|_| random_tree(rng, depth_left - 1)).collect();
            if kind == 4 {
                Json::Arr(children)
            } else {
                Json::object(children.into_iter().map(|v| (random_string(rng), v)))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `wraps` single-child containers around a random tree push the
    /// nesting to the reader's cap in a good share of the cases.
    #[test]
    fn random_trees_round_trip(seed in 0u64..u64::MAX, wraps in 0usize..=MAX_DEPTH) {
        let mut rng = seeded_rng(seed);
        let mut value = random_tree(&mut rng, MAX_DEPTH - wraps);
        for i in 0..wraps {
            value = if i % 2 == 0 {
                Json::Arr(vec![value])
            } else {
                Json::object([(random_string(&mut rng), value)])
            };
        }
        let text = value.to_string();
        prop_assert_eq!(Json::parse(&text), Ok(value), "{}", text);
    }
}

// ---------------------------------------------------------------------
// (b) Byte-mutation fuzz of the committed bench documents
// ---------------------------------------------------------------------

const BENCH_FILES: [(&str, &str); 4] = [
    ("kernels", include_str!("../BENCH_kernels.json")),
    ("quant", include_str!("../BENCH_quant.json")),
    ("serve", include_str!("../BENCH_serve.json")),
    ("planner", include_str!("../BENCH_planner.json")),
];

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
fn mutated_bench_files_parse_or_fail_typed_and_never_panic_the_gate() {
    const MUTANTS_PER_FILE: usize = 600;
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for (bench, text) in BENCH_FILES {
        let baseline = Json::parse(text).unwrap_or_else(|e| panic!("BENCH_{bench}.json: {e}"));
        assert!(check_bench(bench, &baseline, &baseline, 25.0).is_empty(), "{bench} vs itself");
        let mut rng = seeded_rng(0xBE7C ^ text.len() as u64);
        for _ in 0..MUTANTS_PER_FILE {
            let mutant = mutate(text.as_bytes(), &mut rng);
            let mutant = String::from_utf8_lossy(&mutant);
            match Json::parse(&mutant) {
                Ok(doc) => {
                    // Whatever survived the reader, the gate must digest it
                    // on either side of the comparison.
                    let _ = check_bench(bench, &baseline, &doc, 25.0);
                    let _ = check_bench(bench, &doc, &baseline, 25.0);
                    parsed += 1;
                }
                Err(e) => {
                    assert!(e.offset <= mutant.len(), "{bench}: {e}");
                    rejected += 1;
                }
            }
        }
    }
    assert!(parsed > 100 && rejected > 100, "parsed {parsed}, rejected {rejected}");
}

// ---------------------------------------------------------------------
// (d) Files written by the previous writers still load
// ---------------------------------------------------------------------

/// `PlanCache::store` output of the last hand-formatted writer, for
/// vgg16_small under the splicing `AccelCost` below, on a 2-core host.
const PARENT_PLAN_FILE: &str = r#"{
  "version": 2,
  "key": "VGG-16-small|4098af0d77063ff4|H2x2|resolution-rule|blocked|accel-cost(Zynq ZC706,bram1090x18432,f150,dram34,ib24000,eb16777216,granted)|auto|zero|cores2",
  "pattern": "H2x2",
  "report": {"cost_model":"accel-cost","cost_cuts":[1],"splices":[{"from":0,"to":1,"saved":8192}]},
  "segments": [
    {"groups":[{"nodes":[0],"grid":{"h":32,"w":32,"rows":[[0,16],[16,16]],"cols":[[0,16],[16,16]]}},{"nodes":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"grid":{"h":32,"w":32,"rows":[[0,16],[16,16]],"cols":[[0,16],[16,16]]}}]},
    {"node":17},
    {"node":18},
    {"node":19},
    {"node":20}
  ]
}
"#;

#[test]
fn a_plan_file_from_the_previous_writer_loads_and_runs_bitwise() {
    let dir = temp_dir("fixture");
    let net = vgg16_small(32);
    let model = AccelCost::with_buffers(zc706(), 1500 * 32 / 2, 1 << 24);
    let spec = PlanSpec::new().cost_model(model.clone());
    let build = |cache: bool| {
        let builder = Session::builder().network(net.clone()).planner(spec.clone());
        if cache { builder.plan_cache(&dir) } else { builder }.build().unwrap()
    };
    let fresh = build(false);
    let key = PlanKey::for_build(
        fresh.graph(),
        2018,
        BlockingPattern::hierarchical(2),
        None,
        Backend::Blocked,
        &model,
        KernelPolicy::Auto,
        PadMode::Zero,
    );
    // The host fingerprint is part of the key; everything else in the
    // fixture is host-independent.
    let old_text = PARENT_PLAN_FILE.replace("cores2", &host_fingerprint());
    assert!(old_text.contains(&key.canonical()), "fixture key drifted from {}", key.canonical());
    let path = PlanCache::new(dir.clone()).path_for(&key);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&path, &old_text).unwrap();

    let cached = build(true);
    assert!(
        matches!(cached.plan().report().provenance, PlanProvenance::CacheLoaded { .. }),
        "got {:?}",
        cached.plan().report().provenance
    );
    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(0xF1C5));
    let (a, b) = (fresh.run(&input).unwrap(), cached.run(&input).unwrap());
    assert_eq!(a.output.data(), b.output.data());
    assert_eq!(a.stats, b.stats);

    // The shared writer stores the same document: same fields, same
    // order, same types — only the white space differs.
    std::fs::remove_file(&path).unwrap();
    assert_eq!(build(true).plan().report().provenance, PlanProvenance::Fresh);
    let new_text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(Json::parse(&new_text).unwrap(), Json::parse(&old_text).unwrap(), "{new_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Hostile names
// ---------------------------------------------------------------------

const EVIL_MODEL: &str = "evil\u{1}\"model\\\n\u{1f}";
const EVIL_NET: &str = "net\u{1}\t\"quoted\"\u{0}";

#[derive(Debug)]
struct EvilModel;

impl CostModel for EvilModel {
    fn name(&self) -> &'static str {
        EVIL_MODEL
    }

    fn allow_extend(&self, _candidate: &StageCost) -> bool {
        true
    }
}

#[test]
fn control_characters_in_names_produce_strict_json() {
    let dir = temp_dir("evil");
    let mut b = NetBuilder::new(EVIL_NET, ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, 3));
    b.push("conv2", conv(3, 1, 1, 3, 2));
    let net = b.build();
    let build = || {
        Session::builder()
            .network(net.clone())
            .planner(PlanSpec::new().cost_model(EvilModel))
            .plan_cache(&dir)
            .build()
            .unwrap()
    };
    assert_eq!(build().plan().report().provenance, PlanProvenance::Fresh);

    let stored: Vec<PathBuf> =
        std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert_eq!(stored.len(), 1, "{stored:?}");
    let text = std::fs::read_to_string(&stored[0]).unwrap();
    // No raw control byte but the layout's own newlines: what
    // `python3 -c 'json.load'` and every other strict reader require.
    assert!(text.bytes().all(|b| b >= 0x20 || b == b'\n'), "{text:?}");
    let doc = Json::parse(&text).unwrap();
    let model = doc.get("report").and_then(|r| r.get("cost_model")).and_then(Json::as_str);
    assert_eq!(model, Some(EVIL_MODEL));
    let key = doc.get("key").and_then(Json::as_str).unwrap();
    assert!(key.starts_with(EVIL_NET) && key.contains(EVIL_MODEL), "{key:?}");

    // The names round-trip exactly, so the second build is a cache hit.
    let hit = build();
    assert!(matches!(hit.plan().report().provenance, PlanProvenance::CacheLoaded { .. }));

    let report = tune(&net, &TuneOptions::default()).unwrap().to_json();
    assert!(report.bytes().all(|b| b >= 0x20 || b == b'\n'), "{report:?}");
    let report = Json::parse(&report).unwrap();
    assert_eq!(report.get("network").and_then(Json::as_str), Some(EVIL_NET));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The analyzer's separate emitter
// ---------------------------------------------------------------------

#[test]
fn the_analyzer_report_parses_with_the_shared_reader() {
    // A path full of characters its escape must handle, on a file with one
    // L4 site and one L3 finding so no section of the report is trivial.
    let file = "we\"ird\\\u{1}\n\t/crates/graph/src/plan.rs".to_string();
    let source = "use std::collections::HashMap;\n\
                  pub fn f(v: Option<u8>) -> u8 { let _m: HashMap<u8, u8> = HashMap::new(); v.unwrap() }\n";
    let report = analyze_sources(&[(file.clone(), source.to_string())], &Config::workspace());
    let gate = apply_allowlist(&report.findings, &[]);
    let doc = Json::parse(&render_json(&report, &gate)).unwrap();

    assert_eq!(doc.get("files").and_then(Json::as_usize), Some(1));
    for section in ["hot_fns", "panic_counts", "frontier", "lock_orders"] {
        assert!(doc.get(section).and_then(Json::as_array).is_some(), "missing {section}");
    }
    let findings = doc.get("findings").and_then(Json::as_array).unwrap();
    assert!(!findings.is_empty(), "HashMap in a plan module is an L3 finding");
    assert!(findings.iter().all(|f| f.get("file").and_then(Json::as_str) == Some(&file)));
    let counts = doc.get("panic_counts").and_then(Json::as_array).unwrap();
    assert_eq!(counts.len(), 1);
    assert_eq!(counts[0].get("file").and_then(Json::as_str), Some(file.as_str()));
    assert_eq!(counts[0].get("count").and_then(Json::as_usize), Some(1));
    let gate = doc.get("gate").unwrap();
    assert_eq!(gate.get("clean").and_then(Json::as_bool), Some(false));
    let violations = gate.get("violations").and_then(Json::as_array).unwrap();
    assert_eq!(violations.len(), findings.len());
}
