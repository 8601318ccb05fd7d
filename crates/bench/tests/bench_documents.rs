//! Every `bench_*` binary's document, written through the shared codec,
//! parses with the shared reader and still carries every field of the
//! committed baseline with the same JSON type — so `bench_check` keeps
//! gating fresh runs against files written by the previous writers.

use std::mem::discriminant;
use std::process::Command;

use bconv_bench::check::{check_bench, load, FindingKind, Json};

/// Every member of `baseline` must exist in `fresh` as the same kind of
/// value. Arrays of rows are compared through the baseline's first row,
/// which every fresh row must cover.
fn assert_covers(what: &str, baseline: &Json, fresh: &Json) {
    let Json::Obj(fields) = baseline else { return };
    for (name, old) in fields {
        let new = fresh.get(name).unwrap_or_else(|| panic!("{what}: field {name:?} is gone"));
        assert_eq!(discriminant(old), discriminant(new), "{what}: {name:?} changed type");
        if let (Some([first, ..]), Some(rows)) = (old.as_array(), new.as_array()) {
            assert!(!rows.is_empty(), "{what}: {name:?} is empty");
            for row in rows {
                assert_covers(&format!("{what}.{name}[]"), first, row);
            }
        }
    }
}

#[test]
fn every_bench_document_parses_and_keeps_the_committed_fields() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = std::env::temp_dir().join(format!("bconv-bench-docs-{}", std::process::id()));
    std::fs::create_dir_all(&out).unwrap();
    let bins = [
        ("kernels", env!("CARGO_BIN_EXE_bench_kernels")),
        ("quant", env!("CARGO_BIN_EXE_bench_quant")),
        ("serve", env!("CARGO_BIN_EXE_bench_serve")),
        ("planner", env!("CARGO_BIN_EXE_bench_planner")),
    ];
    for (bench, exe) in bins {
        let fresh_path = out.join(format!("BENCH_{bench}.fresh.json"));
        let run = Command::new(exe).arg("--quick").arg("--out").arg(&fresh_path).output().unwrap();
        assert!(run.status.success(), "bench_{bench}: {}", String::from_utf8_lossy(&run.stderr));
        let fresh = load(fresh_path.to_str().unwrap()).unwrap();
        let baseline = load(&format!("{root}/BENCH_{bench}.json")).unwrap();
        assert_covers(bench, &baseline, &fresh);
        assert_eq!(fresh.get("quick").and_then(Json::as_bool), Some(true));
        // Timings of an unoptimised test build mean nothing; what must hold
        // is that no baseline row or gated column went missing and the
        // deterministic memory columns (off-chip traffic, working-set
        // peak) did not grow.
        for f in check_bench(bench, &baseline, &fresh, 25.0) {
            assert!(
                !matches!(f.kind, FindingKind::MissingEntry | FindingKind::MemoryIncrease),
                "{f}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}
