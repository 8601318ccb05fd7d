//! Lock-light serving observability: every counter a [`ServeEngine`]
//! maintains is a relaxed atomic, so recording a request costs a handful
//! of uncontended `fetch_add`s and reading a [`ServeMetrics`] snapshot
//! never blocks the serving path (no mutex, no histogram lock — the
//! snapshot is a racy-but-monotone read, which is exactly what a metrics
//! scrape wants).
//!
//! Latency is tracked in a log-linear histogram (exact below 16 µs, then
//! four sub-buckets per power of two — ≤ 12.5% relative resolution), the
//! same layout HDR-style histograms use. Percentiles are computed from
//! the bucket counts in **integer microseconds**; this module performs no
//! float arithmetic at all, keeping it trivially inside the analyzer's
//! L6 float-determinism policy for serve modules.
//!
//! [`ServeEngine`]: crate::serve::ServeEngine

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of exact buckets (values 0..16 µs map to their own bucket).
const EXACT: usize = 16;
/// Sub-buckets per octave above the exact range.
const SUBS: usize = 4;
/// Total latency buckets: exact range + 4 sub-buckets for each octave
/// from 2^4 µs up to 2^63 µs (far beyond any real request latency).
const LAT_BUCKETS: usize = EXACT + (64 - 4) * SUBS;
/// Batch sizes tracked individually; larger batches land in the last
/// (overflow) bucket.
const BATCH_TRACKED: usize = 32;

/// EWMA smoothing: `ewma += (sample - ewma) / 2^EWMA_SHIFT`, in 1/16ths.
const EWMA_SHIFT: u32 = 2;
/// Fixed-point scale of the stored queue-depth EWMA.
const EWMA_FP: u64 = 16;

/// Latency bucket index for a microsecond value: identity below
/// [`EXACT`], then `(octave, top-two-mantissa-bits)`.
fn lat_bucket(us: u64) -> usize {
    if us < EXACT as u64 {
        return us as usize;
    }
    let oct = 63 - us.leading_zeros() as usize; // >= 4 here
    let sub = ((us >> (oct - 2)) & 0x3) as usize;
    EXACT + (oct - 4) * SUBS + sub
}

/// Lower bound of a latency bucket, in microseconds — the value a
/// percentile query reports (conservative: never over-states latency by
/// more than one sub-bucket, ≤ 12.5%).
fn lat_bucket_floor(idx: usize) -> u64 {
    if idx < EXACT {
        return idx as u64;
    }
    let oct = 4 + (idx - EXACT) / SUBS;
    let sub = ((idx - EXACT) % SUBS) as u64;
    (1u64 << oct) + (sub << (oct - 2))
}

/// The live counters, shared by clients and workers. All updates are
/// `Ordering::Relaxed`: metrics never synchronise the request path, and
/// every field is independently monotone (the gauges are last-writer-wins,
/// which is fine for an instantaneous depth reading).
#[derive(Debug)]
pub(crate) struct MetricsCore {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    batches: AtomicU64,
    batched_samples: AtomicU64,
    queue_jobs: AtomicU64,
    queue_samples: AtomicU64,
    /// Queue-depth EWMA in samples, fixed-point 1/16ths — the signal the
    /// adaptive batch cap reads.
    depth_ewma_fp: AtomicU64,
    lat_count: AtomicU64,
    lat_sum_us: AtomicU64,
    lat_max_us: AtomicU64,
    lat: [AtomicU64; LAT_BUCKETS],
    batch_hist: [AtomicU64; BATCH_TRACKED + 1],
}

impl MetricsCore {
    pub(crate) fn new() -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_samples: AtomicU64::new(0),
            queue_jobs: AtomicU64::new(0),
            queue_samples: AtomicU64::new(0),
            depth_ewma_fp: AtomicU64::new(0),
            lat_count: AtomicU64::new(0),
            lat_sum_us: AtomicU64::new(0),
            lat_max_us: AtomicU64::new(0),
            lat: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// `n` requests (tickets) accepted by `submit`/`run_batch`.
    pub(crate) fn on_submit(&self, n: u64) {
        self.submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Cheap single-gauge read for load balancing (avoids a full
    /// snapshot on the router's submit path).
    pub(crate) fn snapshot_queue_samples(&self) -> u64 {
        self.queue_samples.load(Ordering::Relaxed)
    }

    /// Queue state after a push or pop, from inside the queue's critical
    /// section (so the gauge pair is coherent); also advances the depth
    /// EWMA the adaptive batch cap consumes.
    pub(crate) fn on_queue_depth(&self, jobs: u64, samples: u64) {
        self.queue_jobs.store(jobs, Ordering::Relaxed);
        self.queue_samples.store(samples, Ordering::Relaxed);
        // Racy read-modify-write is acceptable: a lost EWMA update skews a
        // smoothing term, not correctness (outputs never depend on it).
        // The step is clamped to at least one fixed-point unit so the
        // average converges to the sustained value instead of stalling
        // when the remaining gap is below 2^EWMA_SHIFT units.
        let old = self.depth_ewma_fp.load(Ordering::Relaxed);
        let sample = samples * EWMA_FP;
        let new = if sample >= old {
            old + ((sample - old) >> EWMA_SHIFT).max((sample > old) as u64)
        } else {
            old - ((old - sample) >> EWMA_SHIFT).max(1)
        };
        self.depth_ewma_fp.store(new, Ordering::Relaxed);
    }

    /// Smoothed queue depth in whole samples, rounded up so a non-empty
    /// queue never reads as zero.
    pub(crate) fn depth_ewma_samples(&self) -> u64 {
        self.depth_ewma_fp.load(Ordering::Relaxed).div_ceil(EWMA_FP)
    }

    /// A request shed on deadline expiry (counted per ticket).
    pub(crate) fn on_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A request delivered successfully, with its submit→fulfil latency.
    pub(crate) fn on_complete(&self, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.lat_count.fetch_add(1, Ordering::Relaxed);
        self.lat_sum_us.fetch_add(latency_us, Ordering::Relaxed);
        self.lat_max_us.fetch_max(latency_us, Ordering::Relaxed);
        self.lat[lat_bucket(latency_us)].fetch_add(1, Ordering::Relaxed);
    }

    /// A request resolved with an error (executor failure, worker panic).
    pub(crate) fn on_fail(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One worker dequeue group (a batch) of `samples` samples.
    pub(crate) fn on_batch(&self, samples: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_samples.fetch_add(samples as u64, Ordering::Relaxed);
        self.batch_hist[samples.min(BATCH_TRACKED)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot (relaxed reads; monotone counters may be
    /// mutually off by an in-flight request — fine for observability).
    pub(crate) fn snapshot(&self) -> ServeMetrics {
        let mut lat = [0u64; LAT_BUCKETS];
        for (out, b) in lat.iter_mut().zip(&self.lat) {
            *out = b.load(Ordering::Relaxed);
        }
        let count: u64 = lat.iter().sum();
        let mut batch_hist = [0u64; BATCH_TRACKED + 1];
        for (out, b) in batch_hist.iter_mut().zip(&self.batch_hist) {
            *out = b.load(Ordering::Relaxed);
        }
        ServeMetrics {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_samples: self.batched_samples.load(Ordering::Relaxed),
            queue_jobs: self.queue_jobs.load(Ordering::Relaxed),
            queue_samples: self.queue_samples.load(Ordering::Relaxed),
            queue_depth_ewma_x16: self.depth_ewma_fp.load(Ordering::Relaxed),
            p50_latency_us: percentile(&lat, count, 50),
            p99_latency_us: percentile(&lat, count, 99),
            max_latency_us: self.lat_max_us.load(Ordering::Relaxed),
            mean_latency_us: self
                .lat_sum_us
                .load(Ordering::Relaxed)
                .checked_div(self.lat_count.load(Ordering::Relaxed))
                .unwrap_or(0),
            batch_hist,
        }
    }
}

/// `pct`-th percentile (nearest-rank) over the captured bucket counts,
/// reported as the matched bucket's floor. Zero when nothing completed.
fn percentile(lat: &[u64; LAT_BUCKETS], count: u64, pct: u64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Exclusive nearest-rank: the smallest bucket whose cumulative count
    // *exceeds* pct% of the population, so p99 over 100 requests lands on
    // the slowest one (the tail reading an operator wants) rather than
    // the 99th-fastest.
    let rank = ((pct * count) / 100 + 1).min(count);
    let mut seen = 0u64;
    for (idx, &c) in lat.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return lat_bucket_floor(idx);
        }
    }
    lat_bucket_floor(LAT_BUCKETS - 1)
}

/// A point-in-time reading of one engine's counters — plain data, safe to
/// ship across threads, print, or serialise. Obtained from
/// [`ServeEngine::metrics`](crate::serve::ServeEngine::metrics) or
/// aggregated across replicas by
/// [`Router::metrics`](crate::serve::router::Router::metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Requests accepted (one per ticket, including later-shed ones).
    pub submitted: u64,
    /// Requests delivered successfully.
    pub completed: u64,
    /// Requests resolved with an error (executor failure, worker panic,
    /// engine death) — excludes sheds.
    pub failed: u64,
    /// Requests shed because their deadline expired before execution.
    pub shed: u64,
    /// Batches: worker dequeue groups, whose jobs run back to back.
    pub batches: u64,
    /// Total samples across all batches; `batched_samples / batches` is
    /// the realised mean batch size.
    pub batched_samples: u64,
    /// Jobs sitting in the queue right now.
    pub queue_jobs: u64,
    /// Samples sitting in the queue right now.
    pub queue_samples: u64,
    /// Smoothed queue depth (samples, fixed-point 1/16ths) — the signal
    /// driving the adaptive batch cap.
    pub queue_depth_ewma_x16: u64,
    /// Median submit→fulfil latency, µs (log-linear buckets, ≤ 12.5%
    /// resolution; conservative floor).
    pub p50_latency_us: u64,
    /// 99th-percentile submit→fulfil latency, µs.
    pub p99_latency_us: u64,
    /// Worst observed latency, µs (exact, not bucketed).
    pub max_latency_us: u64,
    /// Mean latency, µs (exact sum/count).
    pub mean_latency_us: u64,
    /// Batch count per batch size in samples; index 0 is unused, the
    /// last slot aggregates batches larger than 32 samples.
    pub batch_hist: [u64; BATCH_TRACKED + 1],
}

impl ServeMetrics {
    /// Element-wise sum of two snapshots: counters add; the percentile,
    /// max and EWMA fields take the worse (larger) reading, which is the
    /// conservative aggregate a router reports for its replica set.
    #[must_use]
    pub fn merged(&self, other: &ServeMetrics) -> ServeMetrics {
        let mut batch_hist = self.batch_hist;
        for (a, b) in batch_hist.iter_mut().zip(&other.batch_hist) {
            *a += b;
        }
        ServeMetrics {
            submitted: self.submitted + other.submitted,
            completed: self.completed + other.completed,
            failed: self.failed + other.failed,
            shed: self.shed + other.shed,
            batches: self.batches + other.batches,
            batched_samples: self.batched_samples + other.batched_samples,
            queue_jobs: self.queue_jobs + other.queue_jobs,
            queue_samples: self.queue_samples + other.queue_samples,
            queue_depth_ewma_x16: self.queue_depth_ewma_x16.max(other.queue_depth_ewma_x16),
            p50_latency_us: self.p50_latency_us.max(other.p50_latency_us),
            p99_latency_us: self.p99_latency_us.max(other.p99_latency_us),
            max_latency_us: self.max_latency_us.max(other.max_latency_us),
            mean_latency_us: self.mean_latency_us.max(other.mean_latency_us),
            batch_hist,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_exact_then_log_linear() {
        // Exact range: identity.
        for us in 0..16u64 {
            assert_eq!(lat_bucket(us), us as usize);
            assert_eq!(lat_bucket_floor(us as usize), us);
        }
        // Above: floor(bucket(v)) <= v, within 12.5%.
        for us in [16u64, 17, 100, 1000, 12_345, 1 << 20, u64::MAX / 2] {
            let idx = lat_bucket(us);
            let floor = lat_bucket_floor(idx);
            assert!(floor <= us, "floor {floor} > value {us}");
            assert!(us - floor <= us / 8, "bucket floor {floor} too far below {us}");
            // Buckets are monotone in the value.
            assert!(lat_bucket(us + 1) >= idx);
        }
    }

    #[test]
    fn percentiles_read_back_recorded_latencies() {
        let m = MetricsCore::new();
        // 99 fast requests at 10 µs, one slow one at ~10 ms.
        for _ in 0..99 {
            m.on_complete(10);
        }
        m.on_complete(10_000);
        let s = m.snapshot();
        assert_eq!(s.completed, 100);
        assert_eq!(s.p50_latency_us, 10);
        assert!(s.p99_latency_us <= 10_000 && s.p99_latency_us > 8_000, "{}", s.p99_latency_us);
        assert_eq!(s.max_latency_us, 10_000);
        assert!(s.mean_latency_us >= 100 && s.mean_latency_us <= 110, "{}", s.mean_latency_us);
    }

    #[test]
    fn empty_metrics_report_zero_percentiles() {
        let s = MetricsCore::new().snapshot();
        assert_eq!((s.p50_latency_us, s.p99_latency_us, s.max_latency_us), (0, 0, 0));
        assert_eq!(s.completed, 0);
    }

    #[test]
    fn batch_histogram_tracks_and_overflows() {
        let m = MetricsCore::new();
        m.on_batch(1);
        m.on_batch(4);
        m.on_batch(4);
        m.on_batch(1000); // overflow bucket
        let s = m.snapshot();
        assert_eq!(s.batches, 4);
        assert_eq!(s.batched_samples, 1 + 4 + 4 + 1000);
        assert_eq!(s.batch_hist[1], 1);
        assert_eq!(s.batch_hist[4], 2);
        assert_eq!(s.batch_hist[BATCH_TRACKED], 1);
    }

    #[test]
    fn depth_ewma_tracks_queue_depth() {
        let m = MetricsCore::new();
        assert_eq!(m.depth_ewma_samples(), 0);
        for _ in 0..64 {
            m.on_queue_depth(8, 8);
        }
        // Converges to the sustained depth.
        assert_eq!(m.depth_ewma_samples(), 8);
        for _ in 0..64 {
            m.on_queue_depth(0, 0);
        }
        assert_eq!(m.depth_ewma_samples(), 0);
        // A single spike moves it only fractionally.
        m.on_queue_depth(100, 100);
        assert!(m.depth_ewma_samples() <= 100 / 2, "{}", m.depth_ewma_samples());
    }

    #[test]
    fn merged_adds_counters_and_maxes_latencies() {
        let a = MetricsCore::new();
        a.on_complete(10);
        a.on_batch(2);
        let b = MetricsCore::new();
        b.on_complete(100);
        b.on_shed();
        let m = a.snapshot().merged(&b.snapshot());
        assert_eq!(m.completed, 2);
        assert_eq!(m.shed, 1);
        assert_eq!(m.batches, 1);
        assert_eq!(m.max_latency_us, 100);
    }
}
