//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this shim provides
//! the subset of the criterion API the workspace's benches use:
//! [`Criterion`], `benchmark_group` / `bench_function`, [`Bencher::iter`],
//! [`BenchmarkGroup::throughput`] and the [`criterion_group!`] /
//! [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple — a short calibration pass sizes the
//! iteration count to a wall-clock budget, then the median per-iteration
//! time is reported on stdout. Good enough to compare kernels on one
//! machine; not a statistical engine.

use std::time::{Duration, Instant};

/// Wall-clock budget per benchmark.
const TARGET: Duration = Duration::from_millis(300);

/// Re-export matching `criterion::black_box` (same contract as std's).
pub use std::hint::black_box;

/// Runs closures and reports timings.
pub struct Bencher {
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration samples.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: how many iterations fit in ~1/10 of the budget?
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(50));
        let per_sample = ((TARGET.as_nanos() / 10 / once.as_nanos()).max(1)) as u32;
        let deadline = Instant::now() + TARGET;
        while Instant::now() < deadline && self.samples.len() < 64 {
            let t = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            self.samples.push(t.elapsed() / per_sample);
        }
    }

    fn median(&mut self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort();
        self.samples[self.samples.len() / 2]
    }
}

/// Work done by one iteration, mirroring `criterion::Throughput`.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (here: multiply-accumulates) processed per iteration.
    Elements(u64),
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration work of the benchmarks that follow, so each
    /// reports a rate beside its median.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id.into()), self.throughput, &mut f);
        self
    }

    /// Ends the group (formatting parity with upstream; no-op here).
    pub fn finish(&mut self) {}
}

/// Benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { name: name.into(), throughput: None, _parent: self }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.into(), None, &mut f);
        self
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, throughput: Option<Throughput>, f: &mut F) {
    // Like criterion: a positional argument keeps only the benchmarks whose
    // name contains it (`cargo bench -p bconv-bench -- plane_`).
    if std::env::args().skip(1).any(|a| !a.starts_with('-') && !name.contains(a.as_str())) {
        return;
    }
    let mut b = Bencher { samples: Vec::new() };
    f(&mut b);
    let med = b.median();
    match throughput {
        Some(Throughput::Elements(n)) if med > Duration::ZERO => println!(
            "bench {name:<40} median {med:>12.3?}  thrpt {:>7.2} Gelem/s",
            n as f64 / med.as_nanos() as f64
        ),
        _ => println!("bench {name:<40} median {med:>12.3?}"),
    }
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench entry point, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        g.finish();
    }

    criterion_group!(benches, trivial);

    #[test]
    fn harness_runs() {
        benches();
    }
}
