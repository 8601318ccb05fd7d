//! What every run shares: the run's clock and time budget, the calibration
//! kernel with its samples, the set-up repetitions, and the result a run
//! hands back to `main`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use bconv_graph::Session;

use crate::calib::Calib;
use crate::stats::{self, CalibratedRep};
use crate::workloads::{rel_err, Workload};

/// Gap between the calibration samples taken while requests run.
const CALIB_EVERY: Duration = Duration::from_millis(100);

/// Share of a run that set-up repetitions may take.
const SETUP_SHARE: f64 = 0.2;

/// The run's clock. The budget starts when the process does: the first
/// session build is the first set-up repetition, so a run of `--seconds`
/// takes that long in all, not that long plus preparation.
pub struct Harness {
    start: Instant,
    seconds: f64,
    pub calib: Calib,
    pub reps: Vec<CalibratedRep>,
    next_calib: Instant,
}

impl Harness {
    pub fn new(seconds: f64) -> Self {
        let start = Instant::now();
        Self { start, seconds, calib: Calib::new(), reps: Vec::new(), next_calib: start }
    }

    /// The instant `share` (0..=1) of the run's budget has passed.
    pub fn at(&self, share: f64) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds * share.clamp(0.0, 1.0))
    }

    pub fn deadline(&self) -> Instant {
        self.at(1.0)
    }

    /// Seconds left in the budget (0 once it is spent).
    pub fn remaining_s(&self) -> f64 {
        self.deadline().saturating_duration_since(Instant::now()).as_secs_f64()
    }

    /// Runs one set-up repetition `f` between two calibration brackets and
    /// records it.
    pub fn setup_rep<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let calib_before_ms = self.calib.bracket();
        let start = Instant::now();
        let out = f()?;
        let rep_s = start.elapsed().as_secs_f64();
        let calib_after_ms = self.calib.bracket();
        self.reps.push(CalibratedRep { rep_s, calib_before_ms, calib_after_ms });
        Ok(out)
    }

    /// When the remaining set-up repetitions are due: the first repetition
    /// (already run) sizes the plan — at most `nominal` in all, spread
    /// evenly through the run, together at most [`SETUP_SHARE`] of it.
    pub fn plan_reps(&self, nominal: usize) -> Vec<Instant> {
        let first_s = self.reps.first().map_or(0.0, |r| r.rep_s).max(1e-4);
        let affordable = (SETUP_SHARE * self.seconds / first_s).floor() as usize;
        let total = affordable.clamp(1, nominal.max(1));
        (1..total).map(|k| self.at(k as f64 / total as f64)).collect()
    }

    /// Takes a calibration sample if one is due.
    pub fn tick_calib(&mut self) {
        let now = Instant::now();
        if now >= self.next_calib {
            self.calib.bracket();
            self.next_calib = now + CALIB_EVERY;
        }
    }

    /// `setup_s`: the calibrated median over the repetitions.
    pub fn setup_s(&self) -> f64 {
        stats::calibrated_median(&self.reps)
    }

    /// The host-noise evidence every run prints beside its metrics.
    pub fn diagnostics(&self) -> Vec<(&'static str, f64)> {
        let samples = self.calib.samples_ms();
        let raw: Vec<f64> = self.reps.iter().map(|r| r.rep_s).collect();
        vec![
            ("bench.calib_floor_ms", stats::floor(samples)),
            ("bench.calib_ms_p50", stats::percentile(samples, 50.0)),
            ("bench.host_slow_share", stats::slow_share(samples, 0.10)),
            ("bench.setup_raw_s_min", stats::floor(&raw)),
        ]
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (first few reasons); empty when it is.
    pub problems: Vec<String>,
    /// The metrics of the final result line, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// `bench.*` numbers printed beside the end-to-end metrics.
    pub diag: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Records a failed request (or a failed check) with its reason.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a reason the run is not correct, without a failed request.
    pub fn problem(&mut self, why: impl FnOnce() -> String) {
        if self.problems.len() < 8 {
            self.problems.push(why());
        }
    }
}

/// `output_rel_err`: the largest relative error of `session` against the
/// dense float `reference` over the workload's fixed probe inputs.
pub fn output_rel_err(w: &Workload, session: &Session, reference: &Session) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for probe in w.probe_inputs() {
        let got = session.run(&probe).map_err(|e| format!("accuracy probe: {e}"))?;
        let want = reference.run(&probe).map_err(|e| format!("accuracy reference: {e}"))?;
        worst = worst.max(rel_err(&got.output, &want.output)?);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitions_are_spread_evenly_and_capped_by_the_budget() {
        let mut h = Harness::new(30.0);
        h.setup_rep(|| Ok(())).unwrap();
        h.reps[0].rep_s = 0.75;
        // 20 % of 30 s affords eight 0.75 s repetitions; the nominal count
        // caps it at five, the first of which has already run.
        let due = h.plan_reps(5);
        assert_eq!(due.len(), 4);
        assert_eq!(due[0], h.at(0.2));
        assert_eq!(due[3], h.at(0.8));
        // A 2 s smoke run cannot afford a second 0.75 s repetition.
        let mut smoke = Harness::new(2.0);
        smoke.setup_rep(|| Ok(())).unwrap();
        smoke.reps[0].rep_s = 0.75;
        assert!(smoke.plan_reps(5).is_empty());
        assert!(h.remaining_s() <= 30.0 && h.deadline() > Instant::now());
    }

    #[test]
    fn a_failed_repetition_is_not_recorded() {
        let mut h = Harness::new(1.0);
        assert!(h.setup_rep(|| Err::<(), _>("boom".to_string())).is_err());
        assert!(h.reps.is_empty());
        assert!(h.setup_rep(|| Ok(3)).is_ok());
        assert_eq!(h.reps.len(), 1);
        assert!(h.setup_s() > 0.0);
        let names: Vec<&str> = h.diagnostics().iter().map(|d| d.0).collect();
        assert!(names.iter().all(|n| crate::spec::PER_LAYER.iter().any(|m| m.name == *n)));
    }

    #[test]
    fn an_outcome_is_correct_only_without_failures_or_problems() {
        let mut out = Outcome { attempted: 10, ..Outcome::default() };
        assert!(out.correct());
        out.fail(|| "request 3: output differs".to_string());
        assert_eq!((out.failed, out.correct()), (1, false));
        let mut odd = Outcome { attempted: 10, ..Outcome::default() };
        odd.problem(|| "no request completed".to_string());
        assert_eq!((odd.failed, odd.correct()), (0, false));
        assert!(!Outcome::default().correct(), "nothing attempted is not correct");
        let mut many = Outcome::default();
        (0..20).for_each(|i| many.problem(|| format!("p{i}")));
        assert_eq!(many.problems.len(), 8);
    }
}
