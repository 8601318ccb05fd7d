//! The estimators behind every timing the benchmark reports.
//!
//! The host this repo is measured on flips each core between speed states
//! ≈1.3× apart that last from under a second to tens of seconds, so a raw
//! median or percentile of one run mostly reports which state the run
//! happened to sit in. Two estimators repeat across runs instead:
//!
//! * the **quiet floor** ([`quiet_floor`]) for short repeated operations:
//!   group samples into rounds, take each round's median / p95, report the
//!   minimum over rounds — the latency on a quiet core;
//! * the **calibrated median** ([`calibrated_median`]) for long one-shot
//!   operations: scale each repetition by how fast a fixed kernel ran right
//!   before and after it, then take the median.
//!
//! Raw medians and percentiles stay available as ungated per-layer numbers.

#![forbid(unsafe_code)]

/// Sorts ascending (NaN-free inputs; timings never are NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `pct` percent of the samples at or below it. `pct` 50 of an even
/// count is the lower middle value. Empty input reads 0.
pub fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] of an unsorted slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    percentile_sorted(&sorted(values), pct)
}

/// Median with the midpoint rule for even counts (what
/// `statistics.median` gives); used where values are compared across
/// runs, not ranked within one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Minimum of a slice (0 when empty).
pub fn floor(values: &[f64]) -> f64 {
    finite_or_zero(values.iter().copied().fold(f64::INFINITY, f64::min))
}

fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One round of an open- or closed-loop workload: the latencies of the
/// requests that were served. Shed requests never enter a round — they are
/// counted, not timed.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Latencies of the served requests, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// The quiet floor over rounds: `(min over rounds of the round median,
/// min over rounds of the round's nearest-rank p95)`. Rounds without a
/// served request are skipped; with one request per round both values are
/// the fastest request.
pub fn quiet_floor(rounds: &[Round]) -> (f64, f64) {
    let mut p50 = f64::INFINITY;
    let mut p95 = f64::INFINITY;
    for round in rounds.iter().filter(|r| !r.latencies_ms.is_empty()) {
        let s = sorted(&round.latencies_ms);
        p50 = p50.min(percentile_sorted(&s, 50.0));
        p95 = p95.min(percentile_sorted(&s, 95.0));
    }
    (finite_or_zero(p50), finite_or_zero(p95))
}

/// Reference duration of the calibration kernel: a repetition measured
/// while the kernel takes exactly this long is reported unscaled.
pub const CALIB_REF_MS: f64 = 0.100;

/// One repetition of a long one-shot operation, bracketed by the
/// calibration kernel.
#[derive(Debug, Clone, Copy)]
pub struct CalibratedRep {
    /// Wall time of the repetition, seconds.
    pub rep_s: f64,
    /// Calibration kernel right before, milliseconds (best of a few).
    pub calib_before_ms: f64,
    /// Calibration kernel right after, milliseconds (best of a few).
    pub calib_after_ms: f64,
}

impl CalibratedRep {
    /// The repetition scaled to a host on which the calibration kernel
    /// takes [`CALIB_REF_MS`].
    pub fn calibrated_s(&self) -> f64 {
        let calib = (self.calib_before_ms + self.calib_after_ms) / 2.0;
        if calib > 0.0 {
            self.rep_s * CALIB_REF_MS / calib
        } else {
            self.rep_s
        }
    }
}

/// Median over repetitions of the calibrated duration.
pub fn calibrated_median(reps: &[CalibratedRep]) -> f64 {
    median(&reps.iter().map(CalibratedRep::calibrated_s).collect::<Vec<_>>())
}

/// Share of `samples` more than `margin` (a ratio, e.g. 0.10) above their
/// own minimum — how much of a run the host spent in a slow state.
pub fn slow_share(samples: &[f64], margin: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let lo = floor(samples);
    let slow = samples.iter().filter(|&&s| s > lo * (1.0 + margin)).count();
    slow as f64 / samples.len() as f64
}

/// Quartile spread as the driver computes it: the distance between the
/// first and third quartile (Python's `statistics.quantiles(v, n=4)`,
/// exclusive method) as a share of the median. Fewer than two values
/// spread 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| -> f64 {
        // Position k(n+1)/4 in 1-based ranks, linearly interpolated between
        // the neighbouring samples (extrapolated past the ends, as Python
        // does for tiny samples).
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

/// `(max − min) / median` of a set of values.
pub fn range_share(values: &[f64]) -> f64 {
    let med = median(values);
    if values.is_empty() || med == 0.0 {
        return 0.0;
    }
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - floor(values)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_matches_hand_counts() {
        let v: Vec<f64> = (1..=28).map(f64::from).collect();
        // ceil(0.95 * 28) = 27 → second largest; ceil(0.5 * 28) = 14.
        assert_eq!(percentile_sorted(&v, 95.0), 27.0);
        assert_eq!(percentile_sorted(&v, 50.0), 14.0);
        assert_eq!(percentile_sorted(&v, 100.0), 28.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_floor_is_the_best_round_and_skips_empty_rounds() {
        let slow = Round { latencies_ms: (0..28).map(|i| 10.0 + f64::from(i)).collect() };
        let quiet = Round { latencies_ms: (0..28).map(|i| 5.0 + f64::from(i) / 10.0).collect() };
        // A round whose requests were all shed holds no latency.
        let shed_only = Round::default();
        let (p50, p95) = quiet_floor(&[slow, shed_only, quiet]);
        assert!((p50 - 6.3).abs() < 1e-12, "{p50}");
        assert!((p95 - 7.6).abs() < 1e-12, "{p95}");
        assert_eq!(quiet_floor(&[]), (0.0, 0.0));
    }

    #[test]
    fn single_request_rounds_report_the_fastest_request_twice() {
        let rounds: Vec<Round> =
            [7.5, 5.25, 9.0].iter().map(|&l| Round { latencies_ms: vec![l] }).collect();
        assert_eq!(quiet_floor(&rounds), (5.25, 5.25));
    }

    #[test]
    fn calibration_cancels_a_uniformly_slow_host() {
        // The same work measured in a fast and a 1.3x slower state.
        let fast = CalibratedRep { rep_s: 0.60, calib_before_ms: 0.08, calib_after_ms: 0.08 };
        let slow = CalibratedRep { rep_s: 0.78, calib_before_ms: 0.104, calib_after_ms: 0.104 };
        assert!((fast.calibrated_s() - slow.calibrated_s()).abs() < 1e-12);
        assert!((fast.calibrated_s() - 0.75).abs() < 1e-12);
        // A state flip mid-repetition is averaged by the two brackets.
        let flip = CalibratedRep { rep_s: 0.69, calib_before_ms: 0.08, calib_after_ms: 0.104 };
        assert!((flip.calibrated_s() - 0.75).abs() < 1e-12);
        assert!((calibrated_median(&[fast, slow, flip]) - 0.75).abs() < 1e-12);
        let zero = CalibratedRep { rep_s: 1.0, calib_before_ms: 0.0, calib_after_ms: 0.0 };
        assert_eq!(zero.calibrated_s(), 1.0);
    }

    #[test]
    fn slow_share_counts_samples_above_the_floor_margin() {
        assert_eq!(slow_share(&[1.0, 1.05, 1.2, 1.3], 0.10), 0.5);
        assert_eq!(slow_share(&[], 0.10), 0.0);
    }

    #[test]
    fn iqr_share_follows_the_exclusive_quantile_rule() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        assert!((range_share(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
