//! `bconv-benchmark`: the repo benchmark. One run measures one workload
//! and prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

#![deny(unsafe_code)]

mod alloc;
mod args;
mod calib;
mod compare;
mod harness;
mod json;
mod replay;
mod serve;
mod solo;
mod spec;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use args::{Command, RunArgs};
use harness::Outcome;
use json::Json;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Runs one workload once.
fn run(args: &RunArgs) -> Result<Outcome, String> {
    let workload = Workload::new(args.workload);
    match (args.trace, workload.is_serve()) {
        (true, _) => traced::run_traced(&workload, args),
        (false, true) => serve::run(&workload, args),
        (false, false) => solo::run(&workload, args),
    }
}

/// `{"name": {"value": v, "unit": u}, …}` for `specs`, in their order. A
/// per-layer metric that does not apply to the workload reads 0; a missing
/// end-to-end metric is a bug and an error.
fn metrics_json(
    specs: &[spec::MetricSpec],
    values: &[(&'static str, f64)],
) -> Result<Json, String> {
    let mut pairs = Vec::with_capacity(specs.len());
    for m in specs {
        let value = match values.iter().find(|(name, _)| *name == m.name) {
            Some((_, v)) if v.is_finite() => *v,
            Some((_, v)) => return Err(format!("metric {} is not a number: {v}", m.name)),
            None if m.bound.is_none() => 0.0,
            None => return Err(format!("metric {} was not measured", m.name)),
        };
        pairs.push((m.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))])));
    }
    if let Some((stray, _)) = values.iter().find(|(n, _)| !specs.iter().any(|m| m.name == *n)) {
        return Err(format!("metric {stray} is not in BENCHMARK.json"));
    }
    Ok(Json::obj(pairs))
}

/// The lines a run prints: with `--trace 0` the `bench.*` diagnostics, then
/// — always last — the result.
fn result_lines(args: &RunArgs, out: &Outcome) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    let specs: &[spec::MetricSpec] = if args.trace { &spec::PER_LAYER } else { &spec::END_TO_END };
    if !args.trace {
        let diag = Json::obj(out.diag.iter().map(|(n, v)| (*n, Json::Num(*v))));
        lines.push(Json::obj([("diag", diag)]).to_line());
    }
    lines.push(
        Json::obj([
            ("correct", Json::Bool(out.correct())),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json(specs, &out.metrics)?),
        ])
        .to_line(),
    );
    Ok(lines)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&argv) {
        Ok(command) => command,
        Err(e) => {
            eprintln!("error: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    let done = match command {
        Command::Run(run_args) => run(&run_args).and_then(|out| {
            for problem in &out.problems {
                eprintln!("incorrect: {problem}");
            }
            result_lines(&run_args, &out).map(|lines| lines.iter().for_each(|l| println!("{l}")))
        }),
        Command::BenchmarkJson => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(())
        }
        Command::Collect { set, out } => compare::collect(&set, set.first_seed, &out).map(|_| ()),
        Command::Agree { a, b } => compare::agree_files(&a, &b),
        Command::SelfCheck(set) => compare::selfcheck(&set),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(name: &str, trace: bool) -> RunArgs {
        RunArgs {
            workload: spec::workload(name).unwrap(),
            seed: 3,
            seconds: args::SMOKE_SECONDS,
            trace,
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let args = run_args(spec::VGG224, false);
        let out = Outcome {
            attempted: 12,
            metrics: spec::END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
            diag: vec![("bench.calib_floor_ms", 0.09)],
            ..Outcome::default()
        };
        let lines = result_lines(&args, &out).unwrap();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"diag\":{\"bench.calib_floor_ms\":0.09}}");
        let result = json::parse(lines.last().unwrap()).unwrap();
        let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(result.get("attempted").and_then(Json::as_f64), Some(12.0));
        let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), spec::END_TO_END.len());
        assert_eq!(metrics[2].0, "setup_s");
        assert_eq!(metrics[2].1.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(metrics[2].1.get("value").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn missing_stray_and_non_finite_metrics_are_refused() {
        let mut values: Vec<(&'static str, f64)> =
            spec::END_TO_END.iter().map(|m| (m.name, 1.0)).collect();
        assert!(metrics_json(&spec::END_TO_END, &values[1..]).is_err());
        values.push(("made.up", 1.0));
        assert!(metrics_json(&spec::END_TO_END, &values).is_err());
        assert!(metrics_json(&spec::PER_LAYER, &[("exec.run_ms", f64::NAN)]).is_err());
        // A per-layer metric that does not apply reads 0.
        let layers = metrics_json(&spec::PER_LAYER, &[("exec.run_ms", 2.0)]).unwrap();
        let layers = layers.as_obj().unwrap();
        assert_eq!(layers.len(), spec::PER_LAYER.len());
        assert_eq!(layers[0].1.get("value").and_then(Json::as_f64), Some(0.0));
    }

    /// Every workload end to end in smoke mode: correct, nothing failed,
    /// every end-to-end metric positive.
    #[test]
    fn smoke_every_workload_untraced() {
        for w in &spec::WORKLOADS {
            let args = run_args(w.name, false);
            let out = run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(out.correct(), "{}: {:?}", w.name, out.problems);
            assert!(out.attempted >= 2 && out.failed == 0, "{}", w.name);
            let lines = result_lines(&args, &out).unwrap();
            let result = json::parse(lines.last().unwrap()).unwrap();
            for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
                assert!(m.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{}: {name}", w.name);
            }
        }
    }

    /// The traced run of the workloads with the most distinct layers:
    /// every metric it sets is a per-layer metric, the replay reproduces
    /// the outputs, and the attribution closes.
    #[test]
    fn smoke_traced_runs_attribute_the_request() {
        for name in [spec::VGG224, spec::SERVE_BURST] {
            let args = run_args(name, true);
            let out = run(&args).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.correct(), "{name}: {:?}", out.problems);
            result_lines(&args, &out).unwrap();
            let get =
                |metric: &str| out.metrics.iter().find(|(n, _)| *n == metric).map_or(0.0, |m| m.1);
            assert!(get("exec.run_ms") > 0.0 && get("exec.fused_ms") > 0.0, "{name}");
            assert!(get("exec.unattributed_share").abs() < 0.5, "{name}");
            assert!(get("fusion.blocks_per_image") >= 4.0, "{name}");
            assert_eq!(get("serve.shed_unexpected"), 0.0, "{name}");
        }
        let vgg = run(&run_args(spec::VGG224, true)).unwrap();
        let get =
            |metric: &str| vgg.metrics.iter().find(|(n, _)| *n == metric).map_or(0.0, |m| m.1);
        assert!(get("plan.splices") >= 1.0 && get("plan.cost_cuts") >= 1.0);
        assert!(get("kernel.macs_per_image") > 4.0e7);
    }
}
