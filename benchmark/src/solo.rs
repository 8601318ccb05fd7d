//! The closed-loop workloads: one client sends its next request when the
//! previous one completes — warm `Session::run_with` plus
//! `ExecScratch::recycle` — for the whole run, with the set-up repetitions
//! spread through it. Every output is compared bitwise with the oracle the
//! solo `Session::run` produced at set-up.

#![forbid(unsafe_code)]

use std::time::Instant;

use bconv_graph::{ExecScratch, RunReport, Session};
use bconv_tensor::Tensor;

use crate::args::RunArgs;
use crate::harness::{output_rel_err, Harness, Outcome};
use crate::stats::{self, Round};
use crate::workloads::{bitwise_eq, Workload};

/// A compiled workload with everything a request is checked against.
pub struct SoloSetup {
    pub session: Session,
    pub scratch: ExecScratch,
    pub inputs: Vec<Tensor>,
    /// `Session::run` of each input: expected output and memory counts.
    pub oracle: Vec<RunReport>,
    pub reference: Session,
    pub rel_err: f64,
}

/// One set-up repetition: build the session, then serve a first request
/// from a fresh scratch.
pub fn build_and_first_request(
    w: &Workload,
    input: &Tensor,
) -> Result<(Session, ExecScratch, RunReport), String> {
    let session = w.build()?;
    let mut scratch = ExecScratch::new();
    let first = session.run_with(input, &mut scratch).map_err(|e| format!("first request: {e}"))?;
    Ok((session, scratch, first))
}

/// True when `got` is the answer the oracle expects: same bits, same
/// memory counts.
pub fn matches_oracle(got: &RunReport, want: &RunReport) -> bool {
    bitwise_eq(&got.output, &want.output) && got.stats == want.stats
}

/// The first set-up repetition plus the oracle and the accuracy probe.
pub fn set_up(
    w: &Workload,
    h: &mut Harness,
    seed: u64,
    tally: &mut Outcome,
) -> Result<SoloSetup, String> {
    let inputs = w.inputs(seed, w.request_inputs());
    let (session, mut scratch, first) = h.setup_rep(|| build_and_first_request(w, &inputs[0]))?;
    let oracle = inputs
        .iter()
        .map(|input| session.run(input).map_err(|e| format!("oracle: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    tally.attempted += 1;
    if !matches_oracle(&first, &oracle[0]) {
        tally.fail(|| "set-up repetition 0: first output differs from the oracle".to_string());
    }
    scratch.recycle(first.output);
    let reference = w.build_reference()?;
    let rel_err = output_rel_err(w, &session, &reference)?;
    Ok(SoloSetup { session, scratch, inputs, oracle, reference, rel_err })
}

/// Sends requests back to back until `until`, running a set-up repetition
/// whenever the next of `rep_due` has come. Returns the latency of every
/// correct request, in milliseconds.
pub fn request_loop(
    w: &Workload,
    setup: &mut SoloSetup,
    h: &mut Harness,
    until: Instant,
    rep_due: &[Instant],
    tally: &mut Outcome,
) -> Vec<f64> {
    let mut latencies_ms = Vec::with_capacity(1 << 16);
    let mut next_rep = 0;
    let mut last_s = 0.0f64;
    let mut i = 0usize;
    loop {
        let now = Instant::now();
        if until.saturating_duration_since(now).as_secs_f64() <= 1.5 * last_s {
            break;
        }
        if rep_due.get(next_rep).is_some_and(|due| now >= *due) {
            next_rep += 1;
            tally.attempted += 1;
            match h.setup_rep(|| build_and_first_request(w, &setup.inputs[0])) {
                Ok((_, _, first)) if matches_oracle(&first, &setup.oracle[0]) => {}
                Ok(_) => {
                    tally.fail(|| format!("set-up repetition {next_rep}: first output differs"))
                }
                Err(e) => tally.fail(|| format!("set-up repetition {next_rep}: {e}")),
            }
            continue;
        }
        h.tick_calib();
        let slot = i % setup.inputs.len();
        let start = Instant::now();
        let result = setup.session.run_with(&setup.inputs[slot], &mut setup.scratch);
        last_s = start.elapsed().as_secs_f64();
        tally.attempted += 1;
        match result {
            Ok(report) => {
                if matches_oracle(&report, &setup.oracle[slot]) {
                    latencies_ms.push(last_s * 1e3);
                } else {
                    tally.fail(|| {
                        format!("request {i}: output or memory counts differ from the oracle")
                    });
                }
                setup.scratch.recycle(report.output);
            }
            Err(e) => tally.fail(|| format!("request {i}: {e}")),
        }
        i += 1;
    }
    latencies_ms
}

/// The six end-to-end metrics of a closed-loop workload.
pub fn end_to_end(
    h: &Harness,
    setup: &SoloSetup,
    latencies_ms: &[f64],
) -> Vec<(&'static str, f64)> {
    // One request per round: both floors are the fastest request.
    let rounds: Vec<Round> =
        latencies_ms.iter().map(|&l| Round { latencies_ms: vec![l] }).collect();
    let (p50, p95) = stats::quiet_floor(&rounds);
    let stats = setup.oracle[0].stats;
    vec![
        ("quiet_latency_ms_p50", p50),
        ("quiet_latency_ms_p95", p95),
        ("setup_s", h.setup_s()),
        ("offchip_bits_per_image", stats.offchip_bits() as f64),
        ("peak_onchip_bits", stats.peak_working_bits() as f64),
        ("output_rel_err", setup.rel_err),
    ]
}

/// The raw-percentile diagnostics of a latency sample.
pub fn raw_diagnostics(latencies_ms: &[f64]) -> Vec<(&'static str, f64)> {
    let sorted = stats::sorted(latencies_ms);
    vec![
        ("bench.samples", sorted.len() as f64),
        ("bench.raw_latency_ms_p50", stats::percentile_sorted(&sorted, 50.0)),
        ("bench.raw_latency_ms_p95", stats::percentile_sorted(&sorted, 95.0)),
    ]
}

/// A `--trace 0` run of a closed-loop workload.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let mut h = Harness::new(args.seconds);
    let mut out = Outcome::default();
    let mut setup = set_up(w, &mut h, args.seed, &mut out)?;
    let rep_due = h.plan_reps(w.setup_reps());
    let until = h.deadline();
    let latencies_ms = request_loop(w, &mut setup, &mut h, until, &rep_due, &mut out);
    if latencies_ms.is_empty() {
        out.problem(|| "no request completed inside the run".to_string());
    }
    out.metrics = end_to_end(&h, &setup, &latencies_ms);
    out.diag = raw_diagnostics(&latencies_ms);
    out.diag.extend(h.diagnostics());
    Ok(out)
}
