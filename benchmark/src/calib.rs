//! The calibration kernel: a fixed piece of work that lives in the
//! benchmark, never changes with the code under test, and takes ≈0.1 ms —
//! a 96×96 f32 multiply–accumulate (compute-bound, vectorised) followed by
//! a 1 MB streaming add (cache/memory-bound). How long it takes *right now*
//! says which speed state the core is in; see [`crate::stats`].

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::time::Instant;

const MAC_ELEMS: usize = 96 * 96;
const MAC_ROUNDS: usize = 100;
const STREAM_ELEMS: usize = 256 * 1024; // 1 MB of f32

/// Runs of the kernel per bracket; the bracket reports the best. The first
/// run after other work finds the caches cold, so a single run would
/// measure what ran before it.
pub const BRACKET_RUNS: usize = 5;

/// The kernel's buffers plus every bracket it has produced in this run.
pub struct Calib {
    acc: Vec<f32>,
    mul: Vec<f32>,
    stream: Vec<f32>,
    samples_ms: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        let mut calib = Self {
            acc: vec![1.0; MAC_ELEMS],
            mul: (0..MAC_ELEMS).map(|i| 0.25 + (i % 7) as f32 * 0.125).collect(),
            stream: vec![0.0; STREAM_ELEMS],
            samples_ms: Vec::with_capacity(4096),
        };
        // Touch every page and warm the caches before the first sample.
        for _ in 0..3 {
            calib.kernel();
        }
        calib
    }

    fn kernel(&mut self) {
        for round in 0..MAC_ROUNDS {
            let bias = round as f32 * 1.0e-3;
            for (a, m) in self.acc.iter_mut().zip(&self.mul) {
                *a = *a * 0.5 + *m * bias;
            }
        }
        let carry = self.acc[0];
        for s in &mut self.stream {
            *s += carry;
        }
        black_box(&mut self.stream);
        // Keep the values bounded so the work never drifts into denormals
        // or infinities over a long run.
        if self.stream[0].abs() > 1.0e6 {
            self.stream.fill(0.0);
        }
    }

    /// One timed run of the kernel, in milliseconds.
    fn timed(&mut self) -> f64 {
        let start = Instant::now();
        self.kernel();
        start.elapsed().as_secs_f64() * 1e3
    }

    /// Best of [`BRACKET_RUNS`] runs, in milliseconds; recorded as one
    /// sample. Brackets a long one-shot operation, and samples the host's
    /// speed while requests run.
    pub fn bracket(&mut self) -> f64 {
        let best = (0..BRACKET_RUNS).map(|_| self.timed()).fold(f64::INFINITY, f64::min);
        self.samples_ms.push(best);
        best
    }

    /// Every bracket taken so far, in milliseconds.
    pub fn samples_ms(&self) -> &[f64] {
        &self.samples_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brackets_are_positive_and_recorded_once_each() {
        let mut calib = Calib::new();
        let one = calib.timed();
        let best = calib.bracket();
        assert!(one > 0.0 && best > 0.0);
        assert_eq!(calib.samples_ms(), [best]);
        calib.bracket();
        assert_eq!(calib.samples_ms().len(), 2);
        assert!(calib.stream.iter().all(|v| v.is_finite()));
    }
}
