//! Kernel-layer benchmark: direct vs im2col+GEMM conv kernels, serial vs
//! thread-parallel block dispatch, on the vgg16_small fused pipeline.
//!
//! Writes `BENCH_kernels.json` (machine-readable, one entry per
//! configuration, speedups relative to the direct serial baseline — the
//! seed repo's execution mode) so successive PRs accumulate a perf
//! trajectory. `--quick` trims repetitions for CI.
//!
//! Usage: `bench_kernels [--quick] [--out PATH]`

use bconv_bench::session_times;
use bconv_core::BlockingPattern;
use bconv_graph::{KernelPolicy, PlanSpec, Segment, Session};
use bconv_models::small::vgg16_small;
use bconv_tensor::error::TensorError;
use bconv_tensor::init::{seeded_rng, uniform_tensor};

struct Config {
    name: &'static str,
    kernel: KernelPolicy,
    threads: usize,
}

struct Measurement {
    name: String,
    kernel: &'static str,
    threads_requested: usize,
    threads_effective: usize,
    median_us: f64,
    min_us: f64,
    speedup: f64,
    output_matches_baseline: bool,
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let reps = if quick { 9 } else { 30 };
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
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
    let baseline_times = session_times(&baseline_session, &input, reps);

    if threaded_configs_skipped {
        println!("vgg16_small fused pipeline, {reps} reps, serial configs only");
    } else {
        println!("vgg16_small fused pipeline, {reps} reps, {many} worker threads for tN configs");
    }
    let mut results = Vec::new();
    for cfg in &configs {
        let session = build(cfg.kernel, cfg.threads)?;
        let (us, min_us) = if cfg.name == "direct_t1" {
            baseline_times
        } else {
            session_times(&session, &input, reps)
        };
        let out = session.run(&input)?.output;
        let matches = out.data() == baseline_out.data();
        let speedup = baseline_times.0 / us;
        // Requested = what the config asks the session for; effective =
        // how many workers can actually run concurrently: the executor
        // clamps to the fusion group's block count, the host to its cores.
        let blocks = session
            .plan()
            .segments()
            .iter()
            .flat_map(Segment::groups)
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
        results.push(Measurement {
            name: cfg.name.to_string(),
            kernel: cfg.kernel.name(),
            threads_requested: cfg.threads,
            threads_effective: effective,
            median_us: us,
            min_us,
            speedup,
            output_matches_baseline: matches,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"kernels\",\n");
    json.push_str("  \"network\": \"vgg16_small\",\n");
    json.push_str("  \"pattern\": \"H2x2\",\n");
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"available_parallelism\": {avail},\n"));
    json.push_str(&format!("  \"threaded_configs_skipped\": {threaded_configs_skipped},\n"));
    json.push_str("  \"baseline\": \"direct_t1\",\n");
    json.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"kernel\": \"{}\", \"threads_requested\": {}, \
             \"threads_effective\": {}, \"median_us\": {:.1}, \"min_us\": {:.1}, \
             \"speedup_vs_direct_t1\": {:.3}, \"output_matches_baseline\": {}}}{}\n",
            m.name,
            m.kernel,
            m.threads_requested,
            m.threads_effective,
            m.median_us,
            m.min_us,
            m.speedup,
            m.output_matches_baseline,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path}");

    assert!(
        results.iter().all(|m| m.output_matches_baseline),
        "kernel/thread configurations must agree bitwise"
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run()
}
