//! Benchmark regression checking: compare a fresh `BENCH_*.json` run
//! against the committed baseline and flag throughput regressions and
//! off-chip-traffic increases — the logic behind the `bench_check` CI
//! gate.
//!
//! Bench documents are read through the workspace's one JSON codec,
//! [`bconv_graph::json`] ([`Json`] here is a re-export): a hostile or
//! truncated file is a typed error from [`load`], never a panic.

use std::fmt;

pub use bconv_graph::json::Json;

/// Reads and parses one bench document.
///
/// # Errors
///
/// A message naming `path` when the file cannot be read or is not JSON.
pub fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e} (run the bench first)"))?;
    Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

/// What the checker found for one baseline entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// Throughput regressed beyond the tolerance — fails the gate.
    Regression,
    /// Off-chip traffic increased (any amount) — fails the gate.
    OffchipIncrease,
    /// A baseline entry — or a gated metric of one — has no fresh
    /// counterpart and no skip flag excuses it — fails the gate (silent
    /// coverage loss).
    MissingEntry,
    /// A baseline entry was skipped-and-flagged by the fresh run (e.g.
    /// threaded configs on a 1-core host) — exempt, reported for
    /// visibility.
    Skipped,
}

impl FindingKind {
    /// Whether this finding fails the gate.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Self::Skipped)
    }
}

/// One checker finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Bench name (e.g. `kernels`).
    pub bench: String,
    /// Entry key within the bench (joined identity fields).
    pub entry: String,
    /// What happened.
    pub kind: FindingKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            FindingKind::Regression => "REGRESSION",
            FindingKind::OffchipIncrease => "OFFCHIP-INCREASE",
            FindingKind::MissingEntry => "MISSING",
            FindingKind::Skipped => "skipped",
        };
        write!(f, "[{tag}] {}/{}: {}", self.bench, self.entry, self.detail)
    }
}

/// How far a `blocked_over_direct` ratio may rise over its baseline.
pub const BLOCKED_OVER_DIRECT_SLACK_PCT: f64 = 10.0;

/// Fields that identify an entry across runs, in priority order.
const IDENTITY_KEYS: [&str; 6] =
    ["network", "name", "backend", "cost_model", "workers_requested", "streams"];

/// Joined identity of a result entry.
fn entry_key(entry: &Json) -> String {
    let mut parts = Vec::new();
    for key in IDENTITY_KEYS {
        if let Some(v) = entry.get(key) {
            match v {
                Json::Str(s) => parts.push(s.clone()),
                Json::Num(n) => parts.push(format!("{n}")),
                other => parts.push(format!("{other:?}")),
            }
        }
    }
    if parts.is_empty() {
        "<unkeyed>".to_string()
    } else {
        parts.join("/")
    }
}

/// True when the fresh run declared any top-level `*_skipped` flag (the
/// skip-and-flag convention of `bench_kernels`/`bench_serve` on hosts that
/// cannot run a configuration meaningfully).
fn fresh_declares_skips(fresh: &Json) -> bool {
    match fresh {
        Json::Obj(fields) => {
            fields.iter().any(|(k, v)| k.ends_with("_skipped") && v.as_bool().unwrap_or(false))
        }
        _ => false,
    }
}

/// True when a baseline entry is a parallel configuration — the only kind
/// a host-capability skip flag can legitimately excuse. Serial entries
/// going missing is coverage loss no matter what the fresh run skipped.
fn entry_is_parallel(entry: &Json) -> bool {
    ["threads_requested", "workers_requested"]
        .iter()
        .filter_map(|k| entry.get(k).and_then(Json::as_f64))
        .any(|n| n > 1.0)
}

/// Compares a fresh bench document against its baseline.
///
/// Gate rules, per baseline `results[]` entry (matched to fresh by its
/// identity fields):
///
/// * `min_us`/`median_us` growing beyond `tolerance_pct` →
///   [`FindingKind::Regression`];
/// * `throughput_rps` shrinking beyond `tolerance_pct` → regression;
/// * `offchip_bits` / `offchip_elems` increasing at all →
///   [`FindingKind::OffchipIncrease`] (these are deterministic);
/// * per-entry `"skipped": true` in the fresh run, or a missing fresh
///   *parallel* entry under a top-level `*_skipped` flag →
///   [`FindingKind::Skipped`] (exempt);
/// * a missing fresh entry otherwise → [`FindingKind::MissingEntry`];
/// * a gated metric the baseline row records that is absent, `null` or
///   not a number in the matched fresh row (for timing: when the fresh row
///   has neither `min_us` nor `median_us`) → [`FindingKind::MissingEntry`]
///   naming the metric, on any host — dropping the column must not bypass
///   the gate.
///
/// Wall-clock metrics are only comparable between like hosts: when both
/// documents record a top-level `available_parallelism` and the values
/// differ, every timing comparison is skipped-and-flagged (one finding
/// per bench) while the deterministic metrics still gate.
///
/// Additionally, every baseline `batch_amortization[]` entry gates the
/// fresh run's `speedup` against an **absolute** floor of 1.0 on like
/// hosts: `run_batch` coalescing must never lose to per-request
/// submit/wait through the same engine. Cross-host the floor is
/// skipped-and-flagged; a baseline backend with no fresh amortization
/// entry is [`FindingKind::MissingEntry`] either way.
///
/// Every baseline `blocked_over_direct[]` entry (the blocked schedule's
/// time over the direct schedule's, per network and precision) gates the
/// fresh `ratio` against a rise of more than
/// [`BLOCKED_OVER_DIRECT_SLACK_PCT`] over the baseline's, under the same
/// like-host / missing-entry rules.
pub fn check_bench(bench: &str, baseline: &Json, fresh: &Json, tolerance_pct: f64) -> Vec<Finding> {
    let mut findings = Vec::new();
    let base_results = baseline.get("results").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_results = fresh.get("results").and_then(Json::as_array).unwrap_or(&[]);
    let skips_declared = fresh_declares_skips(fresh);
    let finding = |entry: &str, kind, detail: String| Finding {
        bench: bench.to_string(),
        entry: entry.to_string(),
        kind,
        detail,
    };
    let host = |doc: &Json| doc.get("available_parallelism").and_then(Json::as_f64);
    let timing_comparable = match (host(baseline), host(fresh)) {
        (Some(b), Some(f)) if b != f => {
            findings.push(finding(
                "<host>",
                FindingKind::Skipped,
                format!(
                    "timing comparisons skipped: baseline host has {b} core(s), fresh host {f} \
                     (deterministic metrics still gated)"
                ),
            ));
            false
        }
        _ => true,
    };

    for base in base_results {
        let key = entry_key(base);
        let Some(new) = fresh_results.iter().find(|e| entry_key(e) == key) else {
            // A host-capability skip flag only excuses parallel configs;
            // a missing serial entry is silent coverage loss either way.
            let kind = if skips_declared && entry_is_parallel(base) {
                FindingKind::Skipped
            } else {
                FindingKind::MissingEntry
            };
            findings.push(finding(&key, kind, "no fresh entry for baseline config".into()));
            continue;
        };
        if new.get("skipped").and_then(Json::as_bool).unwrap_or(false) {
            findings.push(finding(&key, FindingKind::Skipped, "fresh run flagged skip".into()));
            continue;
        }
        let num = |entry: &Json, metric: &str| entry.get(metric).and_then(Json::as_f64);
        // A column the baseline records must still be a number in the
        // fresh row: a dropped, `null` (the writer's non-finite) or
        // stringified metric would otherwise pass every comparison below.
        let dropped = |metric: &str| {
            let detail = format!("baseline records {metric}, fresh entry has no such number");
            finding(&key, FindingKind::MissingEntry, detail)
        };
        // Lower-is-better timing. Prefer `min_us` (best-of-reps, robust
        // against external load, which only ever adds time) and fall back
        // to `median_us` for baselines that predate the field.
        let timings = ["min_us", "median_us"];
        let slack = tolerance_pct / 100.0;
        match timings.into_iter().find_map(|m| Some((m, num(base, m)?, num(new, m)?))) {
            Some((metric, b, f)) if timing_comparable && b > 0.0 && f > b * (1.0 + slack) => {
                findings.push(finding(
                    &key,
                    FindingKind::Regression,
                    format!("{metric} {b:.1} -> {f:.1} (> {tolerance_pct}% slower)"),
                ))
            }
            None if timings.iter().any(|m| num(base, m).is_some())
                && timings.iter().all(|m| num(new, m).is_none()) =>
            {
                findings.push(dropped("min_us/median_us"));
            }
            _ => {}
        }
        // Higher-is-better throughput.
        match (num(base, "throughput_rps"), num(new, "throughput_rps")) {
            (Some(b), Some(f)) if timing_comparable && b > 0.0 && f < b * (1.0 - slack) => findings
                .push(finding(
                    &key,
                    FindingKind::Regression,
                    format!("throughput_rps {b:.1} -> {f:.1} (> {tolerance_pct}% drop)"),
                )),
            (Some(_), None) => findings.push(dropped("throughput_rps")),
            _ => {}
        }
        // Off-chip traffic is deterministic: any increase fails.
        for metric in ["offchip_bits", "offchip_elems"] {
            match (num(base, metric), num(new, metric)) {
                (Some(b), Some(f)) if f > b => findings.push(finding(
                    &key,
                    FindingKind::OffchipIncrease,
                    format!("{metric} {b} -> {f}"),
                )),
                (Some(_), None) => findings.push(dropped(metric)),
                _ => {}
            }
        }
    }

    // Batch-amortization floor: unlike the relative gates above, this one
    // is absolute — a fresh speedup below 1.0 means batching made serving
    // slower than per-request submit/wait, which is a bug regardless of
    // what the baseline recorded.
    let base_amort = baseline.get("batch_amortization").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_amort = fresh.get("batch_amortization").and_then(Json::as_array).unwrap_or(&[]);
    for base in base_amort {
        let key = format!("amortization/{}", entry_key(base));
        let Some(new) = fresh_amort.iter().find(|e| entry_key(e) == entry_key(base)) else {
            findings.push(finding(
                &key,
                FindingKind::MissingEntry,
                "no fresh amortization entry for baseline backend".into(),
            ));
            continue;
        };
        if !timing_comparable {
            findings.push(finding(
                &key,
                FindingKind::Skipped,
                "amortization floor not gated across unlike hosts".into(),
            ));
            continue;
        }
        match new.get("speedup").and_then(Json::as_f64) {
            Some(s) if s >= 1.0 => {}
            Some(s) => findings.push(finding(
                &key,
                FindingKind::Regression,
                format!(
                    "run_batch speedup {s:.3} < 1.0 — coalescing must not lose to \
                     per-request submit/wait"
                ),
            )),
            None => findings.push(finding(
                &key,
                FindingKind::MissingEntry,
                "fresh amortization entry lacks a speedup field".into(),
            )),
        }
    }

    // Blocking must stay (nearly) free: the blocked-over-direct time ratio
    // is relative to the baseline's, with its own tighter slack — both
    // schedules run in the same process on the same host state, so the
    // ratio is steadier than either timing.
    let base_ratios = baseline.get("blocked_over_direct").and_then(Json::as_array).unwrap_or(&[]);
    let fresh_ratios = fresh.get("blocked_over_direct").and_then(Json::as_array).unwrap_or(&[]);
    for base in base_ratios {
        let key = format!("blocked_over_direct/{}", entry_key(base));
        let fresh_ratio = fresh_ratios
            .iter()
            .find(|e| entry_key(e) == entry_key(base))
            .and_then(|e| e.get("ratio").and_then(Json::as_f64));
        let (kind, detail) = match (base.get("ratio").and_then(Json::as_f64), fresh_ratio) {
            (_, None) => (
                FindingKind::MissingEntry,
                "no fresh blocked_over_direct ratio for baseline config".to_string(),
            ),
            _ if !timing_comparable => (
                FindingKind::Skipped,
                "blocked_over_direct not gated across unlike hosts".to_string(),
            ),
            (Some(b), Some(f)) if f > b * (1.0 + BLOCKED_OVER_DIRECT_SLACK_PCT / 100.0) => (
                FindingKind::Regression,
                format!(
                    "blocked/direct {b:.3} -> {f:.3} (> {BLOCKED_OVER_DIRECT_SLACK_PCT}% higher)"
                ),
            ),
            _ => continue,
        };
        findings.push(finding(&key, kind, detail));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(results: &str, extra: &str) -> Json {
        Json::parse(&format!("{{\"bench\": \"t\"{extra}, \"results\": [{results}]}}")).unwrap()
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = doc(r#"{"name": "a", "median_us": 100.0}"#, "");
        let ok = doc(r#"{"name": "a", "median_us": 124.0}"#, "");
        let bad = doc(r#"{"name": "a", "median_us": 126.0}"#, "");
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        let f = check_bench("t", &base, &bad, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Regression);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn min_us_is_preferred_over_median_when_both_present() {
        // A noisy median with a stable minimum passes; a regressed minimum
        // fails regardless of the median.
        let base = doc(r#"{"name": "a", "median_us": 100.0, "min_us": 90.0}"#, "");
        let noisy = doc(r#"{"name": "a", "median_us": 400.0, "min_us": 95.0}"#, "");
        assert!(check_bench("t", &base, &noisy, 25.0).is_empty());
        let slow = doc(r#"{"name": "a", "median_us": 100.0, "min_us": 140.0}"#, "");
        assert_eq!(check_bench("t", &base, &slow, 25.0)[0].kind, FindingKind::Regression);
    }

    #[test]
    fn throughput_drop_beyond_tolerance_fails() {
        let base =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 1000.0}"#, "");
        let ok =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 760.0}"#, "");
        let bad =
            doc(r#"{"backend": "blocked", "workers_requested": 2, "throughput_rps": 740.0}"#, "");
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        assert_eq!(check_bench("t", &base, &bad, 25.0)[0].kind, FindingKind::Regression);
    }

    #[test]
    fn any_offchip_increase_fails() {
        let base = doc(r#"{"name": "a", "offchip_bits": 1000, "offchip_elems": 10}"#, "");
        let same = doc(r#"{"name": "a", "offchip_bits": 1000, "offchip_elems": 10}"#, "");
        let worse = doc(r#"{"name": "a", "offchip_bits": 1001, "offchip_elems": 10}"#, "");
        assert!(check_bench("t", &base, &same, 25.0).is_empty());
        let f = check_bench("t", &base, &worse, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::OffchipIncrease);
    }

    #[test]
    fn a_dropped_or_stringified_metric_cannot_bypass_the_gate() {
        let base = doc(r#"{"name": "a", "min_us": 10.0, "offchip_bits": 100}"#, "");
        let missing = |fresh: &str| -> Vec<String> {
            check_bench("t", &base, &doc(fresh, ""), 25.0)
                .into_iter()
                .map(|f| {
                    assert_eq!(f.kind, FindingKind::MissingEntry, "{f}");
                    f.detail
                })
                .collect()
        };
        // The whole row emptied: both recorded metrics are named.
        let details = missing(r#"{"name": "a"}"#);
        assert_eq!(details.len(), 2, "{details:?}");
        assert!(details[0].contains("min_us/median_us"), "{details:?}");
        assert!(details[1].contains("offchip_bits"), "{details:?}");
        // A stringified or nulled column is as absent as a dropped one.
        for column in [r#""100""#, "null", "true"] {
            let fresh = format!(r#"{{"name": "a", "median_us": 9.0, "offchip_bits": {column}}}"#);
            let details = missing(&fresh);
            assert_eq!(details.len(), 1, "{column}: {details:?}");
            assert!(details[0].contains("offchip_bits"), "{details:?}");
        }
        // Either timing column satisfies a baseline that has one.
        assert!(missing(r#"{"name": "a", "min_us": 9.0, "offchip_bits": 100}"#).is_empty());
        // Throughput and element traffic are held the same way, on any host.
        let base = doc(
            r#"{"backend": "b", "throughput_rps": 1000.0, "offchip_elems": 7}"#,
            ", \"available_parallelism\": 1",
        );
        let fresh = doc(r#"{"backend": "b"}"#, ", \"available_parallelism\": 4");
        let f = check_bench("t", &base, &fresh, 25.0);
        let failing: Vec<_> = f.iter().filter(|x| x.kind.is_failure()).collect();
        assert_eq!(failing.len(), 2, "{f:?}");
        assert!(failing.iter().all(|x| x.kind == FindingKind::MissingEntry));
        // A skip-flagged fresh row stays exempt wholesale.
        let skipped = doc(r#"{"backend": "b", "skipped": true}"#, "");
        let f = check_bench("t", &base, &skipped, 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
    }

    #[test]
    fn hostile_bench_files_are_errors_or_findings_never_a_crash() {
        let dir = std::env::temp_dir().join(format!("bconv-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.fresh.json");
        let path = path.to_str().unwrap();
        let good = r#"{"results": [{"name": "a", "min_us": 10.0, "offchip_bits": 100}]}"#;
        // Deep nesting used to overflow the parser's stack (SIGABRT), and
        // `1e999` used to load as `inf`.
        let hostile = [
            "[".repeat(100_000),
            good[..good.len() - 9].to_string(),
            good.replace("10.0", "1e999"),
        ];
        for text in hostile {
            std::fs::write(path, &text).unwrap();
            let err = load(path).unwrap_err();
            assert!(err.contains("is not valid JSON") && err.contains("at byte"), "{err}");
        }
        assert!(load(dir.join("absent.json").to_str().unwrap())
            .unwrap_err()
            .contains("cannot read"));
        // A NaN timing is written as `null` by the shared writer and comes
        // back as a failing finding, not an unparseable token.
        let baseline = Json::parse(good).unwrap();
        let row = Json::object([("name", Json::from("a")), ("min_us", Json::fixed(f64::NAN, 1))]);
        let fresh = Json::object([("results", Json::array([row]))]);
        std::fs::write(path, fresh.to_string()).unwrap();
        let f = check_bench("t", &baseline, &load(path).unwrap(), 25.0);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.kind == FindingKind::MissingEntry), "{f:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn skip_and_flag_entries_are_exempt() {
        let base = doc(r#"{"name": "gemm_tN", "threads_requested": 8, "median_us": 50.0}"#, "");
        // Missing without a skip flag: coverage loss, fails.
        let missing = doc(r#"{"name": "direct_t1", "median_us": 10.0}"#, "");
        let f = check_bench("t", &base, &missing, 25.0);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
        // Missing parallel config under a declared top-level skip: exempt.
        let skipped = doc(
            r#"{"name": "direct_t1", "median_us": 10.0}"#,
            ", \"threaded_configs_skipped\": true",
        );
        let f = check_bench("t", &base, &skipped, 25.0);
        assert_eq!(f[0].kind, FindingKind::Skipped);
        assert!(!f[0].kind.is_failure());
        // Per-entry skip flag: exempt even if slower.
        let entry_skip = doc(
            r#"{"name": "gemm_tN", "threads_requested": 8, "median_us": 500.0, "skipped": true}"#,
            "",
        );
        let f = check_bench("t", &base, &entry_skip, 25.0);
        assert_eq!(f[0].kind, FindingKind::Skipped);
    }

    #[test]
    fn skip_flags_cannot_excuse_missing_serial_entries() {
        // A top-level host-capability skip must not silence the loss of a
        // serial (threads/workers = 1) config.
        let base = doc(r#"{"name": "gemm_t1", "threads_requested": 1, "median_us": 50.0}"#, "");
        let fresh = doc(
            r#"{"name": "direct_t1", "threads_requested": 1, "median_us": 10.0}"#,
            ", \"threaded_configs_skipped\": true",
        );
        let f = check_bench("t", &base, &fresh, 25.0);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn cross_host_runs_skip_timing_but_still_gate_offchip() {
        let base = doc(
            r#"{"name": "a", "min_us": 100.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 1",
        );
        // Different core count: a 10x slower timing is flagged skipped,
        // not failed...
        let slow = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 4",
        );
        let f = check_bench("t", &base, &slow, 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
        // ...but an off-chip increase still fails cross-host.
        let worse = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1001}"#,
            ", \"available_parallelism\": 4",
        );
        let f = check_bench("t", &base, &worse, 25.0);
        assert!(f.iter().any(|x| x.kind == FindingKind::OffchipIncrease));
        // Same core count: the timing gate is armed.
        let same_host = doc(
            r#"{"name": "a", "min_us": 1000.0, "offchip_bits": 1000}"#,
            ", \"available_parallelism\": 1",
        );
        let f = check_bench("t", &base, &same_host, 25.0);
        assert!(f.iter().any(|x| x.kind == FindingKind::Regression));
    }

    #[test]
    fn amortization_speedup_below_one_fails_on_like_hosts() {
        let amort = |speedup: f64| {
            format!(
                ", \"available_parallelism\": 1, \"batch_amortization\": \
                 [{{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": {speedup}}}]"
            )
        };
        let base = doc("", &amort(1.05));
        let ok = doc("", &amort(1.01));
        assert!(check_bench("t", &base, &ok, 25.0).is_empty());
        // The floor is absolute: 0.95 fails even though it is within 25%
        // of the baseline's own figure.
        let bad = doc("", &amort(0.95));
        let f = check_bench("t", &base, &bad, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::Regression);
        assert!(f[0].entry.starts_with("amortization/"), "{}", f[0].entry);
    }

    #[test]
    fn amortization_floor_is_skipped_across_unlike_hosts() {
        let base = doc(
            "",
            ", \"available_parallelism\": 1, \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 1.05}]",
        );
        let fresh = doc(
            "",
            ", \"available_parallelism\": 8, \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 0.7}]",
        );
        let f = check_bench("t", &base, &fresh, 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
        assert!(f.iter().any(|x| x.entry.starts_with("amortization/")));
    }

    #[test]
    fn missing_amortization_entry_is_coverage_loss() {
        let base = doc(
            "",
            ", \"batch_amortization\": \
             [{\"backend\": \"blocked\", \"batch\": 8, \"speedup\": 1.05}]",
        );
        let fresh = doc("", ", \"batch_amortization\": []");
        let f = check_bench("t", &base, &fresh, 25.0);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::MissingEntry);
        assert!(f[0].kind.is_failure());
    }

    #[test]
    fn blocked_over_direct_may_not_rise_more_than_ten_percent() {
        let ratios = |host: u8, w8a8: &str| {
            format!(
                ", \"available_parallelism\": {host}, \"blocked_over_direct\": \
                 [{{\"network\": \"vdsr\", \"name\": \"w8a8\", \"ratio\": {w8a8}}}, \
                  {{\"network\": \"vdsr\", \"name\": \"float\", \"ratio\": 0.9}}]"
            )
        };
        let base = doc("", &ratios(2, "1.2"));
        // Within 10 % of the baseline's own ratio (and any improvement): fine.
        assert!(check_bench("t", &base, &doc("", &ratios(2, "1.31")), 25.0).is_empty());
        assert!(check_bench("t", &base, &doc("", &ratios(2, "0.8")), 25.0).is_empty());
        // Beyond it: a regression, whatever the timing tolerance says.
        let f = check_bench("t", &base, &doc("", &ratios(2, "1.33")), 90.0);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, FindingKind::Regression);
        assert_eq!(f[0].entry, "blocked_over_direct/vdsr/w8a8");
        // Across unlike hosts every ratio is a listed exemption...
        let f = check_bench("t", &base, &doc("", &ratios(1, "5.0")), 25.0);
        assert!(f.iter().all(|x| x.kind == FindingKind::Skipped), "{f:?}");
        assert_eq!(f.iter().filter(|x| x.entry.starts_with("blocked_over_direct/")).count(), 2);
        // ...but a dropped or non-numeric ratio is coverage loss on any host.
        for gone in [", \"available_parallelism\": 1".to_string(), ratios(1, "null")] {
            let f = check_bench("t", &base, &doc("", &gone), 25.0);
            assert!(
                f.iter().any(|x| x.kind == FindingKind::MissingEntry && x.entry.ends_with("w8a8")),
                "{f:?}"
            );
        }
    }

    #[test]
    fn entries_match_on_compound_identity() {
        // Two entries sharing "name" but differing in "network" must not
        // cross-match.
        let base = doc(
            r#"{"network": "vgg", "name": "x", "median_us": 100.0},
               {"network": "vdsr", "name": "x", "median_us": 10.0}"#,
            "",
        );
        let fresh = doc(
            r#"{"network": "vgg", "name": "x", "median_us": 100.0},
               {"network": "vdsr", "name": "x", "median_us": 10.0}"#,
            "",
        );
        assert!(check_bench("t", &base, &fresh, 25.0).is_empty());
    }
}
