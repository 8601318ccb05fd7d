//! Serving benchmark: multi-stream throughput of the [`ServeEngine`]
//! worker pool and the batch-coalescing amortization of `run_batch`, on
//! vgg16_small across the Reference / Blocked / Quantized backends.
//!
//! Writes `BENCH_serve.json` with one entry per (backend, worker count):
//! closed-loop throughput with one client stream per worker (requests/s,
//! speedup vs the same backend on 1 worker), plus one batch-amortization
//! entry per backend — a 1-worker engine serving the same requests
//! per-request (`submit`/`wait`, batching off) vs pre-coalesced
//! (`run_batch`), best of several trials each, with a raw
//! `Session::run_with` loop recorded alongside as `solo_run_ms`. The
//! amortization rows run on the tiny dedicated `serve_amort` network so
//! the serving-tier costs under test are a measurable fraction of
//! request time; `bench_check` holds their `speedup` to an absolute
//! floor of 1.0 on like hosts. A `serve_metrics` row per backend
//! (completed/shed counts, dispatch histogram totals, p50/p99 latency)
//! comes from the engine's own counters.
//! Sessions are built with `.threads(1)` so the scaling axis is the
//! engine's worker pool, not intra-request block dispatch.
//!
//! On a 1-core host the multi-worker configs cannot run in parallel:
//! reporting their (contention-only) timings reads as a serving
//! regression, so they are skipped and flagged in the JSON — the same
//! convention as `bench_kernels`' `*_tN` configs.
//!
//! Every benchmarked request's output is checked bitwise against a
//! serial `Session::run` oracle: the scheduling claims of the serving
//! layer are only worth measuring while determinism holds.
//!
//! Usage: `bench_serve [--quick] [--out PATH]`

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use bconv_bench::BenchRun;
use bconv_graph::json::Json;
use bconv_graph::{Backend, ExecScratch, ServeConfig, ServeEngine, Session};
use bconv_models::builder::{conv, NetBuilder};
use bconv_models::small::vgg16_small;
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::{Tensor, TensorError};

const BACKENDS: [(&str, Backend); 3] = [
    ("reference", Backend::Reference),
    ("blocked", Backend::Blocked),
    ("quantized_w8a8", Backend::Quantized { weight_bits: 8, act_bits: 8 }),
];

/// Plan identity of a built session, for the result rows: which cost
/// model cut its fusion groups, how many splices it took, and where the
/// plan came from (fresh / cache-loaded / tune-selected).
fn plan_fields(session: &Session) -> [(&'static str, Json); 3] {
    let report = session.plan().report();
    [
        ("cost_model", report.cost_model.as_str().into()),
        ("splices", report.splices.len().into()),
        ("plan_provenance", report.provenance.to_string().into()),
    ]
}

fn build(backend: Backend) -> Result<Session, TensorError> {
    Session::builder().network(vgg16_small(32)).backend(backend).seed(2018).threads(1).build()
}

fn stream_input(stream: usize) -> Tensor {
    uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(0x5E41 + stream as u64))
}

/// The batch-amortization workload: a deliberately small network, so the
/// serving-tier costs that batching targets — queue round-trips, dispatch
/// bookkeeping, coalescing copies — are a measurable fraction of request
/// time. Under vgg16_small they are all sub-percent of per-request
/// compute, and the sequential/batched ratio measures host jitter instead
/// of the serving tier. Closed-loop throughput keeps vgg16_small.
fn amort_net() -> Network {
    let mut b = NetBuilder::new("serve_amort", ActShape { c: 2, h: 8, w: 8 });
    b.push("conv1", conv(3, 1, 1, 2, 4));
    b.push("conv2", conv(3, 1, 1, 4, 4));
    b.build()
}

fn build_amort(backend: Backend) -> Result<Session, TensorError> {
    Session::builder().network(amort_net()).backend(backend).seed(2018).threads(1).build()
}

fn amort_input(i: usize) -> Tensor {
    uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut seeded_rng(0xA3027 + (i % 4) as u64))
}

/// Closed loop: one client thread per stream, each submitting and
/// awaiting `per_stream` requests back-to-back; returns wall time and
/// whether every output matched its oracle bitwise.
fn closed_loop(
    engine: &ServeEngine,
    oracle: &[Tensor],
    per_stream: usize,
) -> Result<(f64, bool), TensorError> {
    let streams = oracle.len();
    let inputs: Vec<Tensor> = (0..streams).map(stream_input).collect();
    // Warm up every worker's scratch (and fault in weights) off the clock.
    engine.run_batch(inputs.clone())?;
    let all_match = AtomicBool::new(true);
    let t = Instant::now();
    std::thread::scope(|scope| {
        let clients: Vec<_> = oracle
            .iter()
            .enumerate()
            .map(|(s, want)| {
                let (inputs, all_match) = (&inputs, &all_match);
                scope.spawn(move || -> Result<(), TensorError> {
                    for _ in 0..per_stream {
                        let ticket = engine.submit(inputs[s].clone())?;
                        if engine.wait(ticket)?.output.data() != want.data() {
                            all_match.store(false, Ordering::Relaxed);
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        clients.into_iter().try_for_each(|client| {
            client.join().map_err(|_| TensorError::invalid("a bench client thread panicked"))?
        })
    })?;
    Ok((t.elapsed().as_secs_f64() * 1e3, all_match.load(Ordering::Relaxed)))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let bench = BenchRun::from_args("serve");
    let quick = bench.quick;
    // Quick mode keeps enough requests per stream that fixed per-trial
    // overhead (client-thread spawn, worker wakeup) stays well under the
    // regression gate's tolerance relative to the full-mode baseline.
    let per_stream = if quick { 16 } else { 40 };
    // Each closed-loop config is measured several times and the best wall
    // time kept: external host load only ever slows a trial down, so
    // best-of-trials is the stable capability number the CI regression
    // gate compares.
    let trials = if quick { 2 } else { 3 };
    let amort_batch = 8usize;
    let avail = bench.available_parallelism;

    // 1-core hosts cannot show multi-stream speedup; skip and flag, as
    // bench_kernels does for its threaded configs.
    let multi_stream_configs_skipped = avail == 1;
    let worker_counts: Vec<usize> =
        if multi_stream_configs_skipped { vec![1] } else { vec![1, 2, 4, 8] };
    if multi_stream_configs_skipped {
        println!(
            "available_parallelism is 1: skipping multi-worker configs (no serving speedup is \
             measurable on this host)"
        );
    }

    let mut results: Vec<Json> = Vec::new();
    let (mut all_match, mut blocked_best) = (true, 0.0f64);
    let mut amortizations: Vec<Json> = Vec::new();
    let mut metrics_rows: Vec<Json> = Vec::new();
    for (name, backend) in BACKENDS {
        // One serial oracle per backend; its outputs gate every config.
        let oracle_session = build(backend)?;
        let max_streams = worker_counts.iter().copied().max().unwrap_or(1);
        let mut oracle: Vec<Tensor> = Vec::with_capacity(max_streams);
        for s in 0..max_streams {
            oracle.push(oracle_session.run(&stream_input(s))?.output);
        }

        println!("\n{name}: {per_stream} requests/stream, streams = workers");
        let mut base_rps = 0.0f64;
        for &workers in &worker_counts {
            let session = build(backend)?;
            let plan_fields = plan_fields(&session);
            let engine = session.into_engine(ServeConfig {
                workers,
                queue_depth: 64,
                max_batch: 4,
                ..ServeConfig::default()
            })?;
            let (mut wall_ms, mut ok) = (f64::INFINITY, true);
            for _ in 0..trials {
                let (ms, trial_ok) = closed_loop(&engine, &oracle[..workers], per_stream)?;
                wall_ms = wall_ms.min(ms);
                ok &= trial_ok;
            }
            engine.shutdown();
            let requests = workers * per_stream;
            let rps = requests as f64 / (wall_ms / 1e3);
            if workers == 1 {
                base_rps = rps;
            }
            let speedup = rps / base_rps;
            println!(
                "workers={workers:<2} streams={workers:<2} {requests:>4} reqs in {wall_ms:>8.1} \
                 ms = {rps:>8.0} req/s  speedup {speedup:>5.2}x  bitwise-match {ok}"
            );
            all_match &= ok;
            if name == "blocked" && workers > 1 {
                blocked_best = blocked_best.max(speedup);
            }
            let row = [
                ("backend", name.into()),
                ("workers_requested", workers.into()),
                ("workers_effective", workers.min(avail).into()),
                ("streams", workers.into()),
                ("requests", requests.into()),
                ("wall_ms", Json::fixed(wall_ms, 2)),
                ("throughput_rps", Json::fixed(rps, 1)),
                ("speedup_vs_1_worker", Json::fixed(speedup, 3)),
                ("outputs_match_oracle", ok.into()),
            ];
            results.push(Json::object(row.into_iter().chain(plan_fields)));
        }

        // Batch amortization on one worker: the same engine serving the
        // same requests with coalescing off (one submit/wait round-trip
        // per request) vs on (one pre-coalesced run_batch), so the
        // speedup isolates exactly what batching buys *within* the
        // serving tier — measured on the small `serve_amort` network
        // where those costs are visible. A raw run_with loop with a warm
        // scratch is also recorded (solo_run_ms) as the no-serving-tier
        // reference point. Each timed window runs the request set several
        // times, and each side keeps its best of `amort_trials` windows:
        // host load only ever slows a trial down.
        let inputs: Vec<Tensor> = (0..amort_batch).map(amort_input).collect();
        let amort_oracle = build_amort(backend)?;
        let mut seq_scratch = ExecScratch::new();
        amort_oracle.run_with(&inputs[0], &mut seq_scratch)?;
        let cycles = 8;
        let amort_trials = trials * 3;
        let mut solo_run_ms = f64::INFINITY;
        for _ in 0..amort_trials {
            let t = Instant::now();
            for _ in 0..cycles {
                for input in &inputs {
                    std::hint::black_box(amort_oracle.run_with(input, &mut seq_scratch)?);
                }
            }
            solo_run_ms = solo_run_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
        }
        let engine = build_amort(backend)?.into_engine(ServeConfig {
            workers: 1,
            queue_depth: 64,
            max_batch: amort_batch,
            adaptive_batch: false,
        })?;
        // Grow the worker's batch-sized scratch off the clock — a partial
        // warm-up would leave the first measured run_batch paying the
        // full-batch buffer growth.
        engine.run_batch(inputs.clone())?;
        let mut sequential_ms = f64::INFINITY;
        let mut batched_ms = f64::INFINITY;
        for _ in 0..amort_trials {
            let t = Instant::now();
            for _ in 0..cycles {
                for input in &inputs {
                    let ticket = engine.submit(input.clone())?;
                    std::hint::black_box(engine.wait(ticket)?);
                }
            }
            sequential_ms = sequential_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
            let t = Instant::now();
            for _ in 0..cycles {
                std::hint::black_box(engine.run_batch(inputs.clone())?);
            }
            batched_ms = batched_ms.min(t.elapsed().as_secs_f64() * 1e3 / cycles as f64);
        }
        let metrics = engine.metrics();
        engine.shutdown();
        let speedup = sequential_ms / batched_ms;
        println!(
            "run_batch({amort_batch}) on 1 worker (serve_amort net): sequential \
             {sequential_ms:.2} ms vs batched {batched_ms:.2} ms = {speedup:.2}x (solo run_with \
             loop {solo_run_ms:.2} ms)"
        );
        println!(
            "engine metrics: {} completed, {} dispatches / {} samples, p50 {} us, p99 {} us",
            metrics.completed,
            metrics.batches,
            metrics.batched_samples,
            metrics.p50_latency_us,
            metrics.p99_latency_us
        );
        // Per-request submit/wait through the 1-worker engine (batching
        // off) is the baseline `speedup` compares `run_batch` against;
        // `solo_run_ms` is informational (no serving tier at all).
        amortizations.push(Json::object([
            ("network", "serve_amort".into()),
            ("backend", name.into()),
            ("batch", amort_batch.into()),
            ("sequential_ms", Json::fixed(sequential_ms, 3)),
            ("batched_ms", Json::fixed(batched_ms, 3)),
            ("solo_run_ms", Json::fixed(solo_run_ms, 3)),
            ("speedup", Json::fixed(speedup, 3)),
        ]));
        metrics_rows.push(Json::object([
            ("backend", name.into()),
            ("submitted", metrics.submitted.into()),
            ("completed", metrics.completed.into()),
            ("shed", metrics.shed.into()),
            ("batches", metrics.batches.into()),
            ("batched_samples", metrics.batched_samples.into()),
            ("p50_latency_us", metrics.p50_latency_us.into()),
            ("p99_latency_us", metrics.p99_latency_us.into()),
        ]));
    }

    // `reps` is the closed-loop trial count: each config keeps its best.
    bench.write(
        trials,
        [
            ("network", "vgg16_small".into()),
            ("session_threads", 1u8.into()),
            ("requests_per_stream", per_stream.into()),
            ("multi_stream_configs_skipped", multi_stream_configs_skipped.into()),
            ("baseline", "workers=1 of the same backend".into()),
            ("results", Json::Arr(results)),
            ("batch_amortization", Json::Arr(amortizations)),
            ("serve_metrics", Json::Arr(metrics_rows)),
        ],
    )?;

    // Determinism gates the whole benchmark: serving timings are only
    // meaningful while every request matches its serial oracle bitwise.
    assert!(all_match, "served outputs must match the serial oracle bitwise");
    // The acceptance signal: on a genuinely multi-core host, blocked
    // multi-stream throughput must scale with the worker pool. The floor
    // is enforced only in full mode — quick mode's tiny sample (CI on
    // shared runners) records the curve in the JSON and warns instead,
    // so one scheduling hiccup cannot fail a build with no code defect.
    // 1-core hosts skipped the configs above.
    if !multi_stream_configs_skipped {
        let floor = if avail >= 4 { 1.1 } else { 0.9 };
        if blocked_best <= floor {
            let msg = format!(
                "blocked multi-stream throughput did not scale: best speedup {blocked_best:.2}x \
                 on {avail} cores (floor {floor})"
            );
            assert!(quick, "{msg}");
            println!("warning ({} requests/stream is a small sample): {msg}", per_stream);
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("bench_serve: {e}");
        std::process::exit(1);
    }
}
