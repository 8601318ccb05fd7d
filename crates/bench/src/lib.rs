//! Shared helpers for the `paper` harness binary (one entry per paper
//! table and figure — `paper list` prints the index), the `bench_*`
//! binaries and the Criterion benches.

#![forbid(unsafe_code)]

pub mod check;

use bconv_graph::json::Json;
use bconv_train::layers::SgdConfig;
use bconv_train::trainer::TrainConfig;

/// Times `reps` invocations of `f`, returning `(median_us, min_us)`.
///
/// The median is the honest "typical run" number the bench tables print;
/// the minimum is the noise-robust capability estimator the CI regression
/// gate compares (external load only ever adds time, so best-of-reps is
/// stable across runs where the median of a small sample is not).
pub fn time_us(mut f: impl FnMut(), reps: usize) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[samples.len() / 2], samples[0])
}

/// [`time_us`] over `reps` session runs with one warm-up off the clock
/// (growing scratch buffers and faulting in weights) — the shared timing
/// policy of every bench binary feeding the regression gate.
///
/// # Errors
///
/// The first error a run returned.
pub fn session_times(
    session: &bconv_graph::Session,
    input: &bconv_tensor::Tensor,
    reps: usize,
) -> Result<(f64, f64), bconv_tensor::TensorError> {
    session.run(input)?;
    let mut failed = None;
    let times = time_us(
        || match session.run(input) {
            Ok(report) => drop(std::hint::black_box(report)),
            Err(e) => failed = Some(e),
        },
        reps,
    );
    failed.map_or(Ok(times), Err)
}

/// What the four `bench_*` binaries feeding the regression gate share:
/// the `[--quick] [--out PATH]` command line and the header every
/// `BENCH_*.json` document starts with.
#[derive(Debug)]
pub struct BenchRun {
    bench: &'static str,
    args: Vec<String>,
    /// `--quick`: trimmed repetitions, for CI.
    pub quick: bool,
    /// The host's `available_parallelism`, recorded in every document so
    /// `bench_check` compares timings only between like hosts.
    pub available_parallelism: usize,
}

impl BenchRun {
    /// Reads the process arguments of the `bench_<bench>` binary.
    pub fn from_args(bench: &'static str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let quick = args.iter().any(|a| a == "--quick");
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self { bench, args, quick, available_parallelism }
    }

    /// The value following `flag` on the command line, if given.
    pub fn option(&self, flag: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == flag)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// Writes the bench document — the common header (`bench`, `reps`,
    /// `quick`, `available_parallelism`) followed by `fields` — to the
    /// `--out` path, by default `BENCH_<bench>.json`.
    ///
    /// # Errors
    ///
    /// The I/O error of the write.
    pub fn write(
        &self,
        reps: usize,
        fields: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> std::io::Result<()> {
        let header = [
            ("bench", Json::from(self.bench)),
            ("reps", reps.into()),
            ("quick", self.quick.into()),
            ("available_parallelism", self.available_parallelism.into()),
        ];
        let doc = Json::object(header.into_iter().chain(fields));
        let default_path = format!("BENCH_{}.json", self.bench);
        let path = self.option("--out").unwrap_or(&default_path);
        std::fs::write(path, format!("{doc}\n"))?;
        println!("wrote {path}");
        Ok(())
    }
}

/// Standard training configuration for the small classifiers
/// (Tables I/II, Figures 5–7). Adam: the plain small networks need its
/// per-parameter scaling to escape the uniform-prediction plateau reliably
/// across seeds (30/30 in the calibration sweep vs ~60% with SGD).
pub fn classifier_config() -> TrainConfig {
    TrainConfig {
        steps: 400,
        batch: 16,
        sgd: SgdConfig { lr: 0.005, adam: true, ..SgdConfig::default() },
        lr_halve_every: 150,
    }
}

/// Shorter fine-tuning configuration (the paper fine-tunes from the
/// pre-trained baseline with unchanged hyperparameters, at a lower rate).
pub fn finetune_config() -> TrainConfig {
    TrainConfig {
        steps: 200,
        batch: 16,
        sgd: SgdConfig { lr: 0.002, adam: true, ..SgdConfig::default() },
        lr_halve_every: 80,
    }
}

/// Training configuration for the small VDSR (Table IV).
pub fn vdsr_config() -> TrainConfig {
    TrainConfig {
        steps: 300,
        batch: 8,
        sgd: SgdConfig { lr: 0.05, weight_decay: 1e-5, ..SgdConfig::default() },
        lr_halve_every: 120,
    }
}

/// Training configuration for the small detector (Table V, Figure 8).
pub fn detector_config() -> TrainConfig {
    TrainConfig {
        steps: 400,
        batch: 16,
        sgd: SgdConfig { lr: 0.02, ..SgdConfig::default() },
        lr_halve_every: 150,
    }
}

/// Patch size for the super-resolution experiments: the paper trains on
/// 41×41 Set5 patches; we use 24 so scales 2/3/4 divide exactly and the
/// fixed-irregular split (F16 → 16+8) mirrors the paper's F28 → 28+13.
pub const SR_PATCH: usize = 24;

/// Evaluation sample counts for classification.
pub const EVAL_SAMPLES: usize = 256;

/// Number of held-out samples for detection evaluation.
pub const DET_EVAL_SAMPLES: usize = 128;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_sane() {
        assert!(classifier_config().steps > finetune_config().steps);
        assert_eq!(SR_PATCH % 2, 0);
        assert_eq!(SR_PATCH % 3, 0);
        assert_eq!(SR_PATCH % 4, 0);
    }
}
