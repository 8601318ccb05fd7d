//! Kernel-layer benchmark: direct vs im2col+GEMM conv kernels, serial vs
//! thread-parallel block dispatch, on the vgg16_small fused pipeline.
//!
//! Writes `BENCH_kernels.json` (machine-readable, one entry per
//! configuration, speedups relative to the direct serial baseline — the
//! seed repo's execution mode) so successive PRs accumulate a perf
//! trajectory. `--quick` trims repetitions for CI.
//!
//! Usage: `bench_kernels [--quick] [--out PATH]`

use bconv_bench::{session_times, BenchRun};
use bconv_core::BlockingPattern;
use bconv_graph::json::Json;
use bconv_graph::{KernelPolicy, PlanSpec, Segment, Session};
use bconv_models::small::vgg16_small;
use bconv_tensor::error::TensorError;
use bconv_tensor::init::{seeded_rng, uniform_tensor};

struct Config {
    name: &'static str,
    kernel: KernelPolicy,
    threads: usize,
}

fn build(kernel: KernelPolicy, threads: usize) -> Result<Session, TensorError> {
    Session::builder()
        .network(vgg16_small(32))
        .planner(PlanSpec::new().pattern(BlockingPattern::hierarchical(2)).kernel(kernel))
        .threads(threads)
        .seed(2018)
        .build()
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let bench = BenchRun::from_args("kernels");
    let reps = if bench.quick { 9 } else { 30 };
    let avail = bench.available_parallelism;
    let many = avail.max(2);

    // On a 1-core host the *_tN configs cannot run in parallel: reporting
    // their (slower, contention-only) timings reads as a threading
    // regression, so they are skipped and flagged in the JSON instead.
    let threaded_configs_skipped = avail == 1;
    let mut configs = vec![
        Config { name: "direct_t1", kernel: KernelPolicy::Direct, threads: 1 },
        Config { name: "gemm_t1", kernel: KernelPolicy::Im2colGemm, threads: 1 },
    ];
    if threaded_configs_skipped {
        println!(
            "available_parallelism is 1: skipping direct_tN/gemm_tN (no parallel speedup is \
             measurable on this host)"
        );
    } else {
        configs.push(Config { name: "direct_tN", kernel: KernelPolicy::Direct, threads: many });
        configs.push(Config { name: "gemm_tN", kernel: KernelPolicy::Im2colGemm, threads: many });
    }

    let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(7));
    let baseline_session = build(configs[0].kernel, configs[0].threads)?;
    let baseline_out = baseline_session.run(&input)?.output;
    let baseline_times = session_times(&baseline_session, &input, reps)?;

    if threaded_configs_skipped {
        println!("vgg16_small fused pipeline, {reps} reps, serial configs only");
    } else {
        println!("vgg16_small fused pipeline, {reps} reps, {many} worker threads for tN configs");
    }
    let (mut results, mut all_match) = (Vec::new(), true);
    for cfg in &configs {
        let session = build(cfg.kernel, cfg.threads)?;
        let (us, min_us) = if cfg.name == "direct_t1" {
            baseline_times
        } else {
            session_times(&session, &input, reps)?
        };
        let out = session.run(&input)?.output;
        let matches = out.data() == baseline_out.data();
        let speedup = baseline_times.0 / us;
        // Requested = what the config asks the session for; effective =
        // how many workers can actually run concurrently: the executor
        // clamps to the chain's block count, the host to its cores.
        let blocks = session
            .plan()
            .segments()
            .iter()
            .flat_map(Segment::chains)
            .map(|(chain, _)| chain.in_grid().num_blocks())
            .max()
            .unwrap_or(1);
        let effective = cfg.threads.min(avail).min(blocks);
        println!(
            "{:<10} kernel={:<12} threads={:<2} (effective {:<2}) median {:>9.1} us  \
             speedup {:>5.2}x  bitwise-match {}",
            cfg.name,
            cfg.kernel.name(),
            cfg.threads,
            effective,
            us,
            speedup,
            matches
        );
        all_match &= matches;
        results.push(Json::object([
            ("name", cfg.name.into()),
            ("kernel", cfg.kernel.name().into()),
            ("threads_requested", cfg.threads.into()),
            ("threads_effective", effective.into()),
            ("median_us", Json::fixed(us, 1)),
            ("min_us", Json::fixed(min_us, 1)),
            ("speedup_vs_direct_t1", Json::fixed(speedup, 3)),
            ("output_matches_baseline", matches.into()),
        ]));
    }

    bench.write(
        reps,
        [
            ("network", "vgg16_small".into()),
            ("pattern", "H2x2".into()),
            ("threaded_configs_skipped", threaded_configs_skipped.into()),
            ("baseline", "direct_t1".into()),
            ("results", Json::Arr(results)),
        ],
    )?;

    assert!(all_match, "kernel/thread configurations must agree bitwise");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run()
}
