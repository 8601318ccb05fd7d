//! The open-loop workload: every 32 ms a burst of 32 distinct single-image
//! requests is due, whatever the engine is doing, and goes out back to back
//! through `ServeEngine::submit_with_waker`. Request `i` has priority 1 if
//! `i % 4 == 0`, else 0; the four last-submitted priority-0 requests carry a
//! deadline 0.5 ms after the burst is due, which cannot be met, so they must
//! be shed.
//!
//! The burst finds the worker busy: one *lead* request — a full batch of
//! [`MAX_BATCH`] images at the highest priority — goes out right before it
//! and runs alone (≈2 ms) while the 32 queue up behind it. A burst's clock
//! starts when the lead completes, the instant the worker turns to the
//! queue; latency runs from there to each request's waker call, over the 28
//! requests that are served. A burst that was not wholly queued by then is
//! *late* and no floor is taken over it.
//!
//! Why not simply time from the due instant with an idle worker: on this
//! 2-vCPU host the scheduler then decides the result. Woken by the first
//! submit, the worker either starts on another core after a wake-up latency
//! that depends on how long the host has been idle (≈0.4 ms apart between
//! a run that follows a build and one that does not), or it takes the
//! generator's core and serves the burst one request at a time as the
//! generator gets to submit them — a schedule whose burst median is 12 %
//! *lower*. With the lead, the generator's 33 submits take ≈0.02 ms and
//! the worker needs 2 ms before it looks at the queue again, so wherever
//! the two threads run, priority order and coalescing alone decide what
//! happens next, and wake-up latency stays outside the clock.
//!
//! This thread is the generator; the engine's one worker is the only other
//! thread, and the two are never busy at once: the generator sleeps until a
//! burst is due (no spinning: a thread that has just burnt its time slice
//! loses its core to the worker it wakes), submits, and sleeps again until
//! the queue has drained; only then does it redeem the tickets, check the
//! outputs and prepare the next burst.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bconv_graph::{RunReport, ServeEngine, ServeMetrics, Session, SubmitOptions, Waker};
use bconv_tensor::{Tensor, TensorError};

use crate::args::RunArgs;
use crate::harness::{output_rel_err, Harness, Outcome};
use crate::solo::matches_oracle;
use crate::stats::{self, Round};
use crate::trace::Tracer;
use crate::workloads::{
    Workload, BURST_PERIOD_MS, BURST_REQUESTS, LEAD_PRIORITY, MAX_BATCH, SHED_DEADLINE_MS,
    SHED_PER_BURST,
};

/// How long after a burst is due the generator comes back for the results
/// (lead and burst drain in 7–14 ms; the period is 32 ms).
const DRAIN_WAIT: Duration = Duration::from_millis(20);

/// Longest wait for a waker that must already be running.
const WAKER_GRACE: Duration = Duration::from_secs(2);

/// A running engine with everything a burst is checked against.
pub struct ServeSetup {
    pub engine: ServeEngine,
    pub inputs: Vec<Tensor>,
    /// Solo `Session::run` of each input on an identically built session.
    pub oracle: Vec<RunReport>,
    /// The full-batch request that leads every burst, and its solo run.
    pub lead: Tensor,
    pub lead_oracle: RunReport,
    pub oracle_session: Session,
    pub reference: Session,
    pub rel_err: f64,
}

/// Priority of request `i` of a burst.
pub fn priority(i: usize) -> u8 {
    u8::from(i.is_multiple_of(4))
}

/// The requests of a burst that carry the unmeetable deadline: the
/// [`SHED_PER_BURST`] last-submitted priority-0 ones.
pub fn shed_slots() -> [bool; BURST_REQUESTS] {
    let mut slots = [false; BURST_REQUESTS];
    let last = (0..BURST_REQUESTS).rev().filter(|&i| priority(i) == 0).take(SHED_PER_BURST);
    last.for_each(|i| slots[i] = true);
    slots
}

/// One set-up repetition: build the session, start the engine, serve a
/// first request through it.
pub fn build_and_first_request(
    w: &Workload,
    input: &Tensor,
) -> Result<(ServeEngine, RunReport), String> {
    let engine = w
        .build()?
        .into_engine(w.serve_config())
        .map_err(|e| format!("engine start failed: {e}"))?;
    let first = engine
        .submit(input.clone())
        .and_then(|ticket| engine.wait(ticket))
        .map_err(|e| format!("first request: {e}"))?;
    Ok((engine, first))
}

/// The first set-up repetition plus the oracle and the accuracy probe.
pub fn set_up(
    w: &Workload,
    h: &mut Harness,
    seed: u64,
    tally: &mut Outcome,
) -> Result<ServeSetup, String> {
    let inputs = w.inputs(seed, w.request_inputs());
    let (engine, first) = h.setup_rep(|| build_and_first_request(w, &inputs[0]))?;
    // The engine consumed its session; the oracle runs on a twin (same
    // network, weights and calibration data, so the same bits).
    let oracle_session = w.build()?;
    let oracle = inputs
        .iter()
        .map(|input| oracle_session.run(input).map_err(|e| format!("oracle: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let lead = w.lead_input(seed);
    let lead_oracle = oracle_session.run(&lead).map_err(|e| format!("oracle: {e}"))?;
    tally.attempted += 1;
    if !matches_oracle(&first, &oracle[0]) {
        tally.fail(|| "set-up repetition 0: first output differs from the oracle".to_string());
    }
    let reference = w.build_reference()?;
    let rel_err = output_rel_err(w, &oracle_session, &reference)?;
    Ok(ServeSetup { engine, inputs, oracle, lead, lead_oracle, oracle_session, reference, rel_err })
}

/// What the bursts of one loop measured.
#[derive(Debug, Default)]
pub struct BurstStats {
    /// One round per burst that went out on time: latencies of its served
    /// requests. Every floor is taken over these.
    pub rounds: Vec<Round>,
    /// The bursts that were not wholly queued when the lead completed: the
    /// generator was held up, the worker found part of a burst.
    pub late: Vec<Round>,
    /// Per on-time burst: median latency of the served priority-1 /
    /// priority-0 requests, and the last completion.
    pub hi_prio_p50_ms: Vec<f64>,
    pub lo_prio_p50_ms: Vec<f64>,
    pub drain_ms: Vec<f64>,
    /// Per burst: how long after it was due the first submit started.
    pub gen_late_ms: Vec<f64>,
    /// Every served request of every burst, late ones too, timed as an
    /// open loop is by the book: from the instant its burst was due. The
    /// raw percentiles are taken over these.
    pub raw_ms: Vec<f64>,
    pub shed_expected: u64,
    pub shed_unexpected: u64,
}

impl BurstStats {
    /// The rounds the quiet floor is taken over: the on-time bursts, or
    /// every burst on a host that let none out on time.
    pub fn quiet_rounds(&self) -> &[Round] {
        if self.rounds.iter().any(|r| !r.latencies_ms.is_empty()) {
            &self.rounds
        } else {
            &self.late
        }
    }

    /// Share of the bursts that went out on time.
    pub fn on_time_share(&self) -> f64 {
        let all = self.rounds.len() + self.late.len();
        self.rounds.len() as f64 / all.max(1) as f64
    }
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn sleep_until(at: Instant) {
    std::thread::sleep(at.saturating_duration_since(Instant::now()));
}

/// A waker that stamps `slots[i]` with the nanoseconds since `base`.
fn stamp(slots: &Arc<Vec<AtomicU64>>, i: usize, base: Instant) -> Waker {
    slots[i].store(0, Ordering::Relaxed);
    let slots = Arc::clone(slots);
    Box::new(move |_| {
        // Release: pairs with the generator's Acquire load in `stamped`.
        slots[i].store((base.elapsed().as_nanos() as u64).max(1), Ordering::Release);
    })
}

/// The stamp of a request whose result has been redeemed: `wait` returns
/// once the result is published, the waker runs right after, on the worker.
fn stamped(slot: &AtomicU64) -> Option<u64> {
    let patience = Instant::now() + WAKER_GRACE;
    loop {
        match slot.load(Ordering::Acquire) {
            0 if Instant::now() < patience => std::hint::spin_loop(),
            0 => return None,
            ns => return Some(ns),
        }
    }
}

/// Sends one burst due at `due` behind its lead request and checks the 33
/// outcomes. `woken_ns` has a slot per request of the burst and a last one
/// for the lead.
fn burst(
    setup: &ServeSetup,
    base: Instant,
    due: Instant,
    woken_ns: &Arc<Vec<AtomicU64>>,
    stats: &mut BurstStats,
    tally: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) {
    let shed = shed_slots();
    // Everything a submit needs is made before the burst is due.
    let deadline = due + Duration::from_secs_f64(SHED_DEADLINE_MS / 1e3);
    let mut prepared: Vec<(Tensor, SubmitOptions, Waker)> = (0..BURST_REQUESTS)
        .map(|i| {
            let opts =
                SubmitOptions { priority: priority(i), deadline: shed[i].then_some(deadline) };
            (setup.inputs[i].clone(), opts, stamp(woken_ns, i, base))
        })
        .collect();
    prepared.reverse(); // popped front to back
    let mut tickets = Vec::with_capacity(BURST_REQUESTS);
    let lead_input = setup.lead.clone();
    let lead_opts = SubmitOptions { priority: LEAD_PRIORITY, deadline: None };
    let lead_waker = stamp(woken_ns, BURST_REQUESTS, base);

    sleep_until(due);
    let burst_span = tracer.as_deref_mut().map(|t| t.open("burst"));
    stats.gen_late_ms.push(ms_between(due, Instant::now()));
    let lead = setup.engine.submit_with_waker(lead_input, lead_opts, lead_waker);
    while let Some((input, opts, waker)) = prepared.pop() {
        let span = tracer.as_deref_mut().map(|t| t.open("serve.submit"));
        tickets.push(setup.engine.submit_with_waker(input, opts, waker));
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
    }
    let submitted_ns = base.elapsed().as_nanos() as u64;
    // The wakers time the completions; the generator stays out of the
    // worker's way until the queue has drained, then redeems the tickets.
    sleep_until(due + DRAIN_WAIT);
    let results: Vec<Result<RunReport, TensorError>> = tickets
        .into_iter()
        .map(|ticket| {
            let span = tracer.as_deref_mut().map(|t| t.open("serve.wait"));
            let result = ticket.and_then(|t| setup.engine.wait(t));
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.close(id);
            }
            result
        })
        .collect();
    let lead = lead.and_then(|t| setup.engine.wait(t));
    if let (Some(t), Some(id)) = (tracer, burst_span) {
        t.close(id);
    }

    // The burst's clock starts when the lead completes.
    tally.attempted += 1;
    let service_start_ns = match lead {
        Ok(report) if matches_oracle(&report, &setup.lead_oracle) => {
            stamped(&woken_ns[BURST_REQUESTS])
        }
        _ => None,
    };
    let due_ns = due.saturating_duration_since(base).as_nanos() as u64;
    let Some(service_start_ns) = service_start_ns else {
        tally.fail(|| "lead request: error, wrong output or counts, or no waker call".to_string());
        return;
    };
    let mut round = Round::default();
    let (mut hi, mut lo) = (Vec::new(), Vec::new());
    for (i, result) in results.into_iter().enumerate() {
        tally.attempted += 1;
        match result {
            Err(TensorError::DeadlineExpired) if shed[i] => stats.shed_expected += 1,
            Err(TensorError::DeadlineExpired) => {
                stats.shed_unexpected += 1;
                tally.fail(|| format!("burst request {i}: shed without a deadline"));
            }
            Err(e) => tally.fail(|| format!("burst request {i}: {e}")),
            Ok(_) if shed[i] => {
                stats.shed_unexpected += 1;
                tally.fail(|| format!("burst request {i}: served past its deadline, not shed"));
            }
            Ok(report) if !matches_oracle(&report, &setup.oracle[i]) => {
                tally.fail(|| {
                    format!("burst request {i}: output or memory counts differ from the oracle")
                });
            }
            Ok(_) => {
                let Some(woke) = stamped(&woken_ns[i]) else {
                    tally.fail(|| format!("burst request {i}: waker never ran"));
                    continue;
                };
                let latency_ms = woke.saturating_sub(service_start_ns) as f64 / 1e6;
                round.latencies_ms.push(latency_ms);
                stats.raw_ms.push(woke.saturating_sub(due_ns) as f64 / 1e6);
                (if priority(i) == 1 { &mut hi } else { &mut lo }).push(latency_ms);
            }
        }
    }
    // Late: the worker was through with the lead before the whole burst
    // was queued.
    if submitted_ns >= service_start_ns {
        stats.late.push(round);
        return;
    }
    if !round.latencies_ms.is_empty() {
        stats.hi_prio_p50_ms.push(stats::percentile(&hi, 50.0));
        stats.lo_prio_p50_ms.push(stats::percentile(&lo, 50.0));
        stats.drain_ms.push(round.latencies_ms.iter().copied().fold(0.0, f64::max));
    }
    stats.rounds.push(round);
}

/// Sends bursts on the 32 ms grid until `until`, running a set-up
/// repetition (in place of the bursts it covers) whenever the next of
/// `rep_due` has come.
pub fn burst_loop(
    w: &Workload,
    setup: &ServeSetup,
    h: &mut Harness,
    until: Instant,
    rep_due: &[Instant],
    tally: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> BurstStats {
    let period = Duration::from_secs_f64(BURST_PERIOD_MS / 1e3);
    let woken_ns: Arc<Vec<AtomicU64>> =
        Arc::new((0..=BURST_REQUESTS).map(|_| AtomicU64::new(0)).collect());
    let base = Instant::now();
    let mut stats = BurstStats::default();
    let mut next_rep = 0;
    // The first burst is due one period from now, leaving time to prepare.
    let mut due = base + period;
    while due + period <= until {
        if rep_due.get(next_rep).is_some_and(|at| Instant::now() >= *at) {
            next_rep += 1;
            tally.attempted += 1;
            match h.setup_rep(|| build_and_first_request(w, &setup.inputs[0])) {
                Ok((engine, first)) => {
                    if !matches_oracle(&first, &setup.oracle[0]) {
                        tally
                            .fail(|| format!("set-up repetition {next_rep}: first output differs"));
                    }
                    engine.shutdown();
                }
                Err(e) => tally.fail(|| format!("set-up repetition {next_rep}: {e}")),
            }
            // Skip the grid slots the repetition covered.
            while due < Instant::now() + period / 2 {
                due += period;
            }
            continue;
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.set_request((stats.rounds.len() + stats.late.len()) as u32);
        }
        burst(setup, base, due, &woken_ns, &mut stats, tally, tracer.as_deref_mut());
        h.tick_calib();
        due += period;
    }
    stats
}

/// The six end-to-end metrics of the open-loop workload.
pub fn end_to_end(h: &Harness, setup: &ServeSetup, stats: &BurstStats) -> Vec<(&'static str, f64)> {
    let (p50, p95) = stats::quiet_floor(stats.quiet_rounds());
    let mem = setup.oracle[0].stats;
    vec![
        ("quiet_latency_ms_p50", p50),
        ("quiet_latency_ms_p95", p95),
        ("setup_s", h.setup_s()),
        ("offchip_bits_per_image", mem.offchip_bits() as f64),
        ("peak_onchip_bits", mem.peak_working_bits() as f64),
        ("output_rel_err", setup.rel_err),
    ]
}

/// The `serve.*` metrics one burst loop and the engine's own counters give.
pub fn layer_metrics(stats: &BurstStats, engine: &ServeMetrics) -> Vec<(&'static str, f64)> {
    let batches = engine.batches.max(1) as f64;
    let full = engine.batch_hist.get(MAX_BATCH).copied().unwrap_or(0);
    vec![
        ("serve.mean_batch", engine.batched_samples as f64 / batches),
        ("serve.full_batch_share", full as f64 / batches),
        ("serve.hi_prio_latency_ms_p50", stats::floor(&stats.hi_prio_p50_ms)),
        ("serve.lo_prio_latency_ms_p50", stats::floor(&stats.lo_prio_p50_ms)),
        ("serve.burst_drain_ms", stats::floor(&stats.drain_ms)),
        ("serve.shed_expected", stats.shed_expected as f64),
        ("serve.shed_unexpected", stats.shed_unexpected as f64),
        ("serve.engine_p50_us", engine.p50_latency_us as f64),
        ("serve.engine_p99_us", engine.p99_latency_us as f64),
        ("serve.gen_late_ms_p99", stats::percentile(&stats.gen_late_ms, 99.0)),
        ("serve.on_time_share", stats.on_time_share()),
    ]
}

/// A `--trace 0` run of the open-loop workload.
pub fn run(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let mut h = Harness::new(args.seconds);
    let mut out = Outcome::default();
    let setup = set_up(w, &mut h, args.seed, &mut out)?;
    let rep_due = h.plan_reps(w.setup_reps());
    let until = h.deadline();
    let stats = burst_loop(w, &setup, &mut h, until, &rep_due, &mut out, None);
    if stats.quiet_rounds().iter().all(|r| r.latencies_ms.is_empty()) {
        out.problem(|| "no burst completed inside the run".to_string());
    }
    out.metrics = end_to_end(&h, &setup, &stats);
    out.diag = crate::solo::raw_diagnostics(&stats.raw_ms);
    out.diag.extend(h.diagnostics());
    out.diag.extend([
        ("serve.shed_unexpected", stats.shed_unexpected as f64),
        ("serve.gen_late_ms_p99", stats::percentile(&stats.gen_late_ms, 99.0)),
        ("serve.on_time_share", stats.on_time_share()),
    ]);
    setup.engine.shutdown();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_request_in_four_is_urgent_and_the_last_four_others_must_shed() {
        assert_eq!((0..8).map(priority).collect::<Vec<_>>(), [1, 0, 0, 0, 1, 0, 0, 0]);
        let shed: Vec<usize> =
            shed_slots().iter().enumerate().filter(|(_, s)| **s).map(|(i, _)| i).collect();
        assert_eq!(shed, [27, 29, 30, 31]);
        assert!(shed.iter().all(|&i| priority(i) == 0));
    }

    #[test]
    fn floors_are_taken_over_on_time_bursts_unless_there_are_none() {
        let round = |ms: f64| Round { latencies_ms: vec![ms; 28] };
        let mut stats = BurstStats { late: vec![round(2.0), round(2.5)], ..BurstStats::default() };
        // A host that let no burst out on time still gets a number.
        assert_eq!(stats::quiet_floor(stats.quiet_rounds()), (2.0, 2.0));
        assert_eq!(stats.on_time_share(), 0.0);
        // One on-time burst, and the faster late ones no longer count.
        stats.rounds.push(round(3.0));
        assert_eq!(stats::quiet_floor(stats.quiet_rounds()), (3.0, 3.0));
        assert!((stats.on_time_share() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(BurstStats::default().on_time_share(), 0.0);
    }
}
