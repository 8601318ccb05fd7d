//! The tools the acceptance criteria are checked with: `collect` runs every
//! workload a number of times (each run a fresh process, each with another
//! seed) into a *set file*, `agree` compares two set files metric by
//! metric against each metric's own bound, `selfcheck` does both.
//!
//! Two sets agree when, for every workload and end-to-end metric, the set
//! medians differ by no more than the bound and each set's quartile spread
//! (the driver's rule) stays inside it; exact metrics must be identical to
//! the last digit; every run must be correct with nothing failed. The
//! max−min spread is printed beside it, and runs whose calibration floor
//! sits more than 10 % above their set's lowest are listed: they never saw
//! a quiet core.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::args::SetArgs;
use crate::json::{self, Json};
use crate::spec;
use crate::stats;
use crate::traced::out_dir;

/// A calibration floor this far above the set's lowest marks a run that
/// never saw a quiet core.
const NEVER_QUIET_MARGIN: f64 = 0.10;

/// One run of a set file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub correct: bool,
    pub failed: u64,
    /// End-to-end metric values by name.
    pub metrics: Vec<(String, f64)>,
    pub calib_floor_ms: f64,
}

impl Record {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(self.metrics.iter().map(|(n, v)| (n.clone(), Json::Num(*v))))),
            ("calib_floor_ms", Json::Num(self.calib_floor_ms)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("record without {key:?}"));
        let num =
            |key: &str| field(key)?.as_f64().ok_or_else(|| format!("{key:?} is not a number"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" is not an object")?
            .iter()
            .map(|(n, v)| {
                v.as_f64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("metric {n} is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: num("seed")? as u64,
            correct: field("correct")? == &Json::Bool(true),
            failed: num("failed")? as u64,
            metrics,
            calib_floor_ms: num("calib_floor_ms")?,
        })
    }

    /// Builds a record from the lines one `--trace 0` run printed: the
    /// diagnostics line, then — last — the result line.
    pub fn from_run_output(workload: &str, seed: u64, stdout: &str) -> Result<Self, String> {
        let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
        let result = json::parse(lines.next().ok_or("the run printed nothing")?)?;
        let diag = lines.next().map(json::parse).transpose()?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("result line without metrics")?
            .iter()
            .map(|(n, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("metric {n} without a value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            workload: workload.to_string(),
            seed,
            correct: result.get("correct") == Some(&Json::Bool(true)),
            failed: result
                .get("failed")
                .and_then(Json::as_f64)
                .ok_or("result line without failed")? as u64,
            metrics,
            calib_floor_ms: diag
                .as_ref()
                .and_then(|d| d.get("diag"))
                .and_then(|d| d.get("bench.calib_floor_ms"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// Parses a set file: one record per line.
pub fn parse_set(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            json::parse(line)
                .and_then(|doc| Record::from_json(&doc))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

fn read_set(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_set(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload `set.runs` times with `--trace 0`, each run a fresh
/// process of this executable with seed `first_seed`, `first_seed + 1`, …,
/// and writes the set file `out`.
pub fn collect(set: &SetArgs, first_seed: u64, out: &str) -> Result<Vec<Record>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut records = Vec::new();
    for run in 0..set.runs as u64 {
        for w in &spec::WORKLOADS {
            let seed = first_seed + run;
            let output = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--seconds", &set.seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed} exited with {}: {}",
                    w.name,
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            let record =
                Record::from_run_output(w.name, seed, &String::from_utf8_lossy(&output.stdout))
                    .map_err(|e| format!("{} seed {seed}: {e}", w.name))?;
            eprintln!(
                "{out}: {} seed {seed}: p50 {:.4} ms, setup {:.4} s, calib floor {:.4} ms{}",
                w.name,
                value(&record, "quiet_latency_ms_p50"),
                value(&record, "setup_s"),
                record.calib_floor_ms,
                if record.correct { "" } else { " — INCORRECT" },
            );
            records.push(record);
        }
    }
    let text: String = records.iter().map(|r| r.to_json().to_line() + "\n").collect();
    if let Some(dir) = Path::new(out).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, text).map_err(|e| format!("{out}: {e}"))?;
    Ok(records)
}

fn value(record: &Record, metric: &str) -> f64 {
    record.metrics.iter().find(|(n, _)| n == metric).map_or(f64::NAN, |(_, v)| *v)
}

/// One workload × metric row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub bound: f64,
    pub median_a: f64,
    pub median_b: f64,
    /// `|median_b − median_a| / median_a`.
    pub median_diff: f64,
    pub iqr_a: f64,
    pub iqr_b: f64,
    pub range_a: f64,
    pub range_b: f64,
    pub pass: bool,
}

/// The verdict on two sets.
#[derive(Debug, Default)]
pub struct Agreement {
    pub rows: Vec<Row>,
    /// Incorrect runs, runs with failures, missing workloads.
    pub faults: Vec<String>,
    /// Runs that never saw a quiet core (informational).
    pub never_quiet: Vec<String>,
}

impl Agreement {
    pub fn pass(&self) -> bool {
        self.faults.is_empty() && self.rows.iter().all(|r| r.pass)
    }

    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:<23} {:>13} {:>13} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7}  verdict",
            "workload",
            "metric",
            "median A",
            "median B",
            "Δmed %",
            "iqr A%",
            "iqr B%",
            "rng A%",
            "rng B%",
            "bound%"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<20} {:<23} {:>13.6} {:>13.6} {:>8.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3}  {}",
                r.workload,
                r.metric,
                r.median_a,
                r.median_b,
                r.median_diff * 100.0,
                r.iqr_a * 100.0,
                r.iqr_b * 100.0,
                r.range_a * 100.0,
                r.range_b * 100.0,
                r.bound * 100.0,
                if r.pass { "PASS" } else { "FAIL" },
            );
        }
        for fault in &self.faults {
            let _ = writeln!(out, "FAULT: {fault}");
        }
        for run in &self.never_quiet {
            let _ = writeln!(out, "never quiet (may be rerun once): {run}");
        }
        let _ = writeln!(
            out,
            "{}",
            if self.pass() { "PASS: the two sets agree" } else { "FAIL: the two sets disagree" }
        );
        out
    }
}

/// Compares two sets.
pub fn agree(a: &[Record], b: &[Record]) -> Agreement {
    let mut verdict = Agreement::default();
    for (label, set) in [("A", a), ("B", b)] {
        for r in set.iter().filter(|r| !r.correct || r.failed > 0) {
            verdict.faults.push(format!(
                "set {label}: {} seed {} is incorrect ({} failed)",
                r.workload, r.seed, r.failed
            ));
        }
    }
    for w in &spec::WORKLOADS {
        let of = |set: &[Record]| -> Vec<Record> {
            set.iter().filter(|r| r.workload == w.name).cloned().collect()
        };
        let (runs_a, runs_b) = (of(a), of(b));
        if runs_a.is_empty() || runs_b.is_empty() {
            verdict.faults.push(format!("{}: a set holds no run of it", w.name));
            continue;
        }
        for (label, runs) in [("A", &runs_a), ("B", &runs_b)] {
            let floors: Vec<f64> = runs.iter().map(|r| r.calib_floor_ms).collect();
            let lowest = stats::floor(&floors);
            for r in runs.iter().filter(|r| r.calib_floor_ms > lowest * (1.0 + NEVER_QUIET_MARGIN))
            {
                verdict.never_quiet.push(format!(
                    "set {label}: {} seed {} (calibration floor {:.4} ms against {lowest:.4} ms)",
                    w.name, r.seed, r.calib_floor_ms
                ));
            }
        }
        for m in &spec::END_TO_END {
            let values =
                |runs: &[Record]| -> Vec<f64> { runs.iter().map(|r| value(r, m.name)).collect() };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let bound = m.bound.unwrap_or(0.0);
            let (median_a, median_b) = (stats::median(&va), stats::median(&vb));
            let median_diff = (median_b - median_a).abs() / median_a.abs();
            let row = Row {
                workload: w.name,
                metric: m.name,
                bound,
                median_a,
                median_b,
                median_diff,
                iqr_a: stats::iqr_share(&va),
                iqr_b: stats::iqr_share(&vb),
                range_a: stats::range_share(&va),
                range_b: stats::range_share(&vb),
                pass: false,
            };
            let exact = bound <= spec::EXACT;
            let pass = if exact {
                row.range_a == 0.0 && row.range_b == 0.0 && median_a == median_b
            } else {
                median_diff.is_finite()
                    && median_diff <= bound
                    && row.iqr_a <= bound
                    && row.iqr_b <= bound
            };
            verdict.rows.push(Row { pass, ..row });
        }
    }
    verdict
}

/// `agree A.json B.json`: prints the table; an error when the sets
/// disagree.
pub fn agree_files(a: &str, b: &str) -> Result<(), String> {
    let verdict = agree(&read_set(a)?, &read_set(b)?);
    print!("{}", verdict.table());
    if verdict.pass() {
        Ok(())
    } else {
        Err(format!("{a} and {b} disagree"))
    }
}

/// `selfcheck`: two sets of the same build, each with its own seeds, then
/// [`agree`].
pub fn selfcheck(set: &SetArgs) -> Result<(), String> {
    let path = |name: &str| out_dir().join(name).to_string_lossy().into_owned();
    let (path_a, path_b) = (path("selfcheck-a.jsonl"), path("selfcheck-b.jsonl"));
    let a = collect(set, set.first_seed, &path_a)?;
    let b = collect(set, set.first_seed + set.runs as u64, &path_b)?;
    let verdict = agree(&a, &b);
    print!("{}", verdict.table());
    if verdict.pass() {
        Ok(())
    } else {
        Err(format!("{path_a} and {path_b} disagree"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set of `n` correct runs per workload around the given latency.
    fn set(n: u64, first_seed: u64, p50_ms: f64, wobble: f64) -> Vec<Record> {
        let mut records = Vec::new();
        for run in 0..n {
            for w in &spec::WORKLOADS {
                let jitter = 1.0 + wobble * (run as f64 / (n - 1).max(1) as f64 - 0.5);
                records.push(Record {
                    workload: w.name.to_string(),
                    seed: first_seed + run,
                    correct: true,
                    failed: 0,
                    metrics: vec![
                        ("quiet_latency_ms_p50".into(), p50_ms * jitter),
                        ("quiet_latency_ms_p95".into(), 1.2 * p50_ms * jitter),
                        ("setup_s".into(), 0.7 * jitter),
                        ("offchip_bits_per_image".into(), 294_912.0),
                        ("peak_onchip_bits".into(), 221_184.0),
                        ("output_rel_err".into(), 0.0123),
                    ],
                    calib_floor_ms: 0.09,
                });
            }
        }
        records
    }

    #[test]
    fn set_files_round_trip_and_run_output_parses() {
        let records = set(2, 5, 5.0, 0.01);
        let text: String = records.iter().map(|r| r.to_json().to_line() + "\n").collect();
        assert_eq!(parse_set(&text).unwrap(), records);
        assert!(parse_set("{\"workload\":\"x\"}\n").is_err());
        let stdout = "note\n{\"diag\":{\"bench.calib_floor_ms\":0.0875}}\n\
            {\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.75,\"unit\":\"s\"}}}\n";
        let record = Record::from_run_output("w", 3, stdout).unwrap();
        assert_eq!((record.correct, record.failed, record.calib_floor_ms), (true, 0, 0.0875));
        assert_eq!(record.metrics, [("setup_s".to_string(), 0.75)]);
        assert!(Record::from_run_output("w", 3, "").is_err());
    }

    #[test]
    fn steady_sets_agree_and_a_shifted_set_does_not() {
        let base = set(5, 1, 5.0, 0.02);
        let same = agree(&base, &set(5, 6, 5.05, 0.02));
        assert!(same.pass(), "{}", same.table());
        assert_eq!(same.rows.len(), spec::WORKLOADS.len() * spec::END_TO_END.len());
        // 9 % slower medians break the 8 % bound of the p50 row only.
        let shifted = agree(&base, &set(5, 6, 5.45, 0.02));
        assert!(!shifted.pass());
        let failing: Vec<&str> =
            shifted.rows.iter().filter(|r| !r.pass).map(|r| r.metric).collect();
        assert!(failing.iter().all(|m| *m == "quiet_latency_ms_p50"), "{failing:?}");
        // A set that spreads wider than the bound fails on its own.
        assert!(!agree(&base, &set(5, 6, 5.0, 0.5)).pass());
    }

    #[test]
    fn exact_metrics_faults_and_never_quiet_runs_are_reported() {
        let base = set(5, 1, 5.0, 0.0);
        let mut off_by_one = set(5, 6, 5.0, 0.0);
        off_by_one[0].metrics[3].1 += 1.0;
        let verdict = agree(&base, &off_by_one);
        assert!(verdict.rows.iter().any(|r| r.metric == "offchip_bits_per_image" && !r.pass));
        let mut faulty = set(5, 6, 5.0, 0.0);
        faulty[1].failed = 2;
        faulty[2].calib_floor_ms = 0.12;
        let verdict = agree(&base, &faulty);
        assert_eq!(verdict.faults.len(), 1);
        assert_eq!(verdict.never_quiet.len(), 1);
        assert!(!verdict.pass() && verdict.table().contains("never quiet"));
        assert!(!agree(&base, &[]).pass());
    }
}
