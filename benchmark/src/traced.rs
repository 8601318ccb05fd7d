//! The `--trace 1` run: the same workload with spans around every call into
//! a layer, then each layer's own entry points timed one at a time. Prints
//! the per-layer metrics; end-to-end metrics always come from `--trace 0`.
//!
//! The run's budget is split into phases: the workload untraced (raw
//! percentiles, and the floor tracing overhead is measured against), the
//! workload traced with the two replay passes of [`crate::replay`], and the
//! one-at-a-time measurements, each of which gets an equal slice of what is
//! left and is skipped — its metrics read 0 — if the budget is spent.
//! Timings are floors over replays.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bconv_accel::platform::zc706;
use bconv_graph::plan::Planner;
use bconv_graph::quantize::calibration_passes;
use bconv_graph::{
    modeled_offchip_elems, tune_lowered, ExecScratch, GraphQuantSpec, KernelPolicy, PlanCache,
    PlanKey, RunReport, Session, TuneOptions,
};
use bconv_tensor::Tensor;

use crate::args::RunArgs;
use crate::harness::{Harness, Outcome};
use crate::replay::{Geometry, Replayer};
use crate::serve::{self, ServeSetup};
use crate::solo::{self, matches_oracle};
use crate::stats;
use crate::trace::{totals_by_name, NameTotal, Tracer};
use crate::workloads::{Workload, BURST_REQUESTS, WEIGHT_SEED};

/// Spans kept for the trace file; later requests are folded into the
/// floors and then dropped from the buffer.
const SPAN_CAPACITY: usize = 1 << 18;

/// Measurements [`one_at_a_time`] makes: the run's remaining budget is cut
/// into this many slices.
const ONE_AT_A_TIME: usize = 14;

/// Warm requests the allocation count is averaged over.
const ALLOC_REQUESTS: u64 = 16;

/// Where traces and scratch cache directories go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The per-layer metrics gathered so far; setting a name again replaces it.
#[derive(Default)]
struct Layers(Vec<(&'static str, f64)>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        values.into_iter().for_each(|(n, v)| self.set(n, v));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Equal slices of the remaining budget for the one-at-a-time
/// measurements.
struct Slices<'h> {
    h: &'h Harness,
    left: usize,
    skipped: usize,
}

impl Slices<'_> {
    /// The end of the next measurement's slice, or `None` once the run's
    /// budget is spent.
    fn next(&mut self) -> Option<Instant> {
        let remaining = self.h.remaining_s();
        let share = remaining / self.left.max(1) as f64;
        self.left = self.left.saturating_sub(1);
        if remaining <= 0.0 {
            self.skipped += 1;
            return None;
        }
        Some(Instant::now() + Duration::from_secs_f64(share))
    }
}

/// Floor, in milliseconds, of `f` over at most `max_reps` runs; stops early
/// when another run would pass `until`. Runs at least once.
fn floor_ms<T>(
    until: Instant,
    max_reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..max_reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f()?);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        if Instant::now() + Duration::from_secs_f64(best / 1e3) > until {
            break;
        }
    }
    Ok(best)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn total(totals: &[NameTotal], name: &str) -> f64 {
    totals.iter().find(|t| t.name == name).map_or(0.0, |t| ms(t.total_ns))
}

/// Per-request sums of the replay spans; each field keeps its floor over
/// requests.
#[derive(Debug, Clone, Copy)]
struct ReplayFloors {
    run: f64,
    fused: f64,
    single: f64,
    segments: f64,
    pad: f64,
    block_conv: f64,
    block_pool: f64,
    map_conv: f64,
    map_pool: f64,
}

impl ReplayFloors {
    const START: Self = Self {
        run: f64::INFINITY,
        fused: f64::INFINITY,
        single: f64::INFINITY,
        segments: f64::INFINITY,
        pad: f64::INFINITY,
        block_conv: f64::INFINITY,
        block_pool: f64::INFINITY,
        map_conv: f64::INFINITY,
        map_pool: f64::INFINITY,
    };

    fn fold(&mut self, run: f64, segments: &[NameTotal], blocks: &[NameTotal]) {
        let fused = total(segments, "fusion.chain");
        let map_conv = total(segments, "kernel.conv") + total(segments, "qgemm.map_conv");
        let map_pool = total(segments, "pool");
        let single = map_conv + map_pool + total(segments, "single.other");
        self.run = self.run.min(run);
        self.fused = self.fused.min(fused);
        self.single = self.single.min(single);
        self.segments = self.segments.min(fused + single);
        self.pad = self.pad.min(total(blocks, "fusion.pad"));
        self.block_conv =
            self.block_conv.min(total(blocks, "fusion.conv") + total(blocks, "qgemm.block_conv"));
        self.block_pool = self.block_pool.min(total(blocks, "pool"));
        self.map_conv = self.map_conv.min(map_conv);
        self.map_pool = self.map_pool.min(map_pool);
    }
}

/// GMAC/s of `macs` done in `ms` milliseconds (0 when nothing ran).
fn gmacs_per_s(macs: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        macs as f64 / (ms * 1e6)
    } else {
        0.0
    }
}

/// One warm request: run, hand the output buffer back.
fn run(session: &Session, scratch: &mut ExecScratch, input: &Tensor) -> Result<(), String> {
    let report = session.run_with(input, scratch).map_err(|e| e.to_string())?;
    scratch.recycle(report.output);
    Ok(())
}

/// What the per-layer phases need of a compiled workload.
struct Subject<'a> {
    w: &'a Workload,
    session: &'a Session,
    inputs: &'a [Tensor],
    oracle: &'a [RunReport],
    reference: &'a Session,
}

/// The traced request loop: `request` → `exec.run` around
/// `Session::run_with`, then the two replay passes of the same input.
fn traced_requests(
    s: &Subject,
    replayer: &mut Replayer,
    scratch: &mut ExecScratch,
    tracer: &mut Tracer,
    until: Instant,
    first_request: u32,
    tally: &mut Outcome,
) -> Result<ReplayFloors, String> {
    let mut floors = ReplayFloors::START;
    let mut i = 0usize;
    let mut last = Duration::ZERO;
    while Instant::now() + last < until || i == 0 {
        let started = Instant::now();
        let slot = i % s.inputs.len();
        let input = &s.inputs[slot];
        let mark = tracer.mark();
        tracer.set_request(first_request + i as u32);
        let request = tracer.open("request");
        let run_span = tracer.open("exec.run");
        let report = s.session.run_with(input, scratch);
        tracer.close(run_span);
        tally.attempted += 1;
        let report = match report {
            Ok(r) if matches_oracle(&r, &s.oracle[slot]) => r,
            Ok(r) => {
                tally.fail(|| format!("traced request {i}: output differs from the oracle"));
                r
            }
            Err(e) => return Err(format!("traced request {i}: {e}")),
        };
        let seg_span = tracer.open("replay.segments");
        let replayed = replayer.segments(input, tracer)?;
        tracer.close(seg_span);
        if !crate::workloads::bitwise_eq(replayed, &report.output) {
            return Err("replay: segments do not reproduce the session's output bitwise".into());
        }
        let block_span = tracer.open("replay.blocks");
        replayer.blocks(input, tracer)?;
        tracer.close(block_span);
        tracer.close(request);
        scratch.recycle(report.output);

        if tracer.dropped() == 0 {
            let spans = &tracer.spans()[mark..];
            let seg_at = (seg_span as usize).saturating_sub(mark);
            let block_at = (block_span as usize).saturating_sub(mark);
            let run_ms = ms(spans.get(1).map_or(0, |s| s.duration_ns()));
            floors.fold(
                run_ms,
                &totals_by_name(&spans[seg_at..block_at], mark + seg_at),
                &totals_by_name(&spans[block_at..], mark + block_at),
            );
            // Keep the first requests for the trace file; once the buffer
            // is half full, later ones are folded in and forgotten.
            if !tracer.has_room(SPAN_CAPACITY / 2) {
                tracer.rewind(mark);
            }
        }
        last = started.elapsed();
        i += 1;
    }
    if !floors.run.is_finite() {
        return Err("trace buffer too small for one request".into());
    }
    Ok(floors)
}

/// Everything measured on a plain session: the untraced and traced request
/// loops, then one layer at a time. Returns the untraced latencies.
fn session_layers(
    s: &Subject,
    mut scratch: ExecScratch,
    h: &mut Harness,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let w = s.w;
    let budget_s = h.remaining_s();
    let phase_end = |share: f64| Instant::now() + Duration::from_secs_f64(budget_s * share);

    // Phase 1: the workload's loop without a tracer.
    let mut untraced = Vec::new();
    let until = phase_end(0.20);
    let mut i = 0usize;
    while Instant::now() < until || untraced.is_empty() {
        h.tick_calib();
        let slot = i % s.inputs.len();
        let start = Instant::now();
        let report =
            s.session.run_with(&s.inputs[slot], &mut scratch).map_err(|e| e.to_string())?;
        untraced.push(start.elapsed().as_secs_f64() * 1e3);
        tally.attempted += 1;
        if !matches_oracle(&report, &s.oracle[slot]) {
            tally.fail(|| format!("request {i}: output differs from the oracle"));
        }
        scratch.recycle(report.output);
        i += 1;
    }
    let run_floor = stats::floor(&untraced);

    // The quantized replay needs the session's calibration again; this is
    // also the first sample of `quantize.calibrate_ms`.
    let graph = s.session.graph();
    let cal_inputs = w.calibration_inputs();
    let mut calibrate_ms = f64::INFINITY;
    let quant = match w.quant_bits() {
        Some((wb, ab)) => {
            let start = Instant::now();
            let spec =
                GraphQuantSpec::calibrate(graph, &cal_inputs, wb, ab).map_err(|e| e.to_string())?;
            calibrate_ms = start.elapsed().as_secs_f64() * 1e3;
            Some(spec)
        }
        None => None,
    };

    // Phase 2: traced requests with both replay passes.
    let mut replayer = Replayer::new(s.session, quant.clone())?;
    let until = phase_end(0.55);
    let first_request = tracer.spans().last().map_or(0, |s| s.request + 1);
    let floors =
        traced_requests(s, &mut replayer, &mut scratch, tracer, until, first_request, tally)?;
    let geometry = replayer.geometry;
    drop(replayer);

    layers.extend(replay_metrics(&floors, &geometry, run_floor, quant.is_none()));
    layers.extend(plan_metrics(s));
    one_at_a_time(s, quant.as_ref(), calibrate_ms, &mut scratch, h, layers)?;
    Ok(untraced)
}

/// The metrics the two replay passes give: floors over requests of the
/// per-request span sums, plus the plan's geometry.
fn replay_metrics(
    floors: &ReplayFloors,
    geometry: &Geometry,
    run_floor: f64,
    float: bool,
) -> Vec<(&'static str, f64)> {
    let block_conv = if geometry.block_calls > 0 { floors.block_conv } else { 0.0 };
    let mut out = vec![
        ("exec.run_ms", run_floor.min(floors.run)),
        ("exec.fused_ms", floors.fused),
        ("exec.single_ms", floors.single),
        ("exec.unattributed_share", (floors.run - floors.segments) / floors.run),
        ("bench.trace_overhead_share", (floors.run - run_floor) / run_floor),
        ("fusion.blocks_per_image", geometry.blocks as f64),
        ("fusion.block_calls", geometry.block_calls as f64),
        ("fusion.halo_share", geometry.halo_share),
        ("fusion.pad_ms", floors.pad),
        ("fusion.conv_ms", block_conv),
        ("fusion.overhead_ms", floors.fused - floors.pad - floors.block_conv - floors.block_pool),
        ("pool.ms", floors.map_pool + floors.block_pool),
    ];
    let macs = geometry.block_macs + geometry.map_macs;
    if float {
        let conv_ms = block_conv + floors.map_conv;
        out.extend([
            ("kernel.conv_ms", conv_ms),
            ("kernel.macs_per_image", macs as f64),
            ("kernel.gmacs_per_s", gmacs_per_s(macs, conv_ms)),
        ]);
    } else {
        out.extend([
            ("qgemm.block_conv_ms", block_conv),
            ("qgemm.block_gmacs_per_s", gmacs_per_s(geometry.block_macs, block_conv)),
            ("qgemm.map_conv_ms", floors.map_conv),
            ("qgemm.map_gmacs_per_s", gmacs_per_s(geometry.map_macs, floors.map_conv)),
            ("qgemm.macs_per_image", macs as f64),
        ]);
    }
    out
}

/// Counts and modeled numbers of the compiled plan: no clock involved.
fn plan_metrics(s: &Subject) -> Vec<(&'static str, f64)> {
    let plan = s.session.plan();
    let measured = s.oracle[0].stats;
    let modeled_bits =
        modeled_offchip_elems(s.session.graph(), plan) * u64::from(measured.bits_per_elem);
    vec![
        ("plan.segments", plan.segments().len() as f64),
        ("plan.fusion_groups", plan.fusion_groups() as f64),
        ("plan.splices", plan.report().splices.len() as f64),
        ("plan.cost_cuts", plan.report().cost_cuts.len() as f64),
        ("cost.modeled_offchip_bits", modeled_bits as f64),
        (
            "cost.model_gap_share",
            (modeled_bits as f64 - measured.offchip_bits() as f64) / measured.offchip_bits() as f64,
        ),
        ("accel.dram_cycles_per_image", zc706().dram_cycles(measured.offchip_bits()) as f64),
    ]
}

/// Each layer's own entry points, one at a time, each inside an equal
/// slice of what is left of the run.
fn one_at_a_time(
    s: &Subject,
    quant: Option<&GraphQuantSpec>,
    calibrate_ms: f64,
    scratch: &mut ExecScratch,
    h: &Harness,
    layers: &mut Layers,
) -> Result<(), String> {
    let w = s.w;
    let graph = s.session.graph();
    let plan = s.session.plan();
    let cal_inputs = w.calibration_inputs();
    let mut slices = Slices { h, left: ONE_AT_A_TIME, skipped: 0 };
    let input = &s.inputs[0];

    if let Some(until) = slices.next() {
        layers.set("ir.lower_ms", floor_ms(until, 20, || w.lower())?);
    }
    if let Some(until) = slices.next() {
        let planner = Planner::new(w.planner_options());
        let plan_ms = floor_ms(until, 20, || {
            match quant {
                Some(spec) => planner.plan_quantized(graph, spec),
                None => planner.plan(graph),
            }
            .map_err(|e| e.to_string())
        })?;
        layers.set("plan.plan_ms", plan_ms);
    }
    if let (Some((wb, ab)), Some(until)) = (w.quant_bits(), slices.next()) {
        let again = floor_ms(until, 1, || {
            GraphQuantSpec::calibrate(graph, &cal_inputs, wb, ab).map_err(|e| e.to_string())
        })?;
        layers.set("quantize.calibrate_ms", calibrate_ms.min(again));
        let before = calibration_passes();
        w.build()?;
        layers.set("quantize.calibration_passes", (calibration_passes() - before) as f64);
    }

    // Plan cache: a store and a load of this plan, then whole builds that
    // miss and hit.
    let cache_dir = out_dir().join(format!("plan-cache-{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Some(until) = slices.next() {
        let spec = w.plan_spec();
        let options = w.planner_options();
        let key = PlanKey::for_build(
            graph,
            WEIGHT_SEED,
            options.pattern,
            options.plan.as_ref(),
            w.backend(),
            Planner::new(options.clone()).cost_model(),
            spec.kernel,
            spec.pad,
        );
        let cache = PlanCache::new(&cache_dir);
        let store_ms = floor_ms(until, 5, || cache.store(&key, plan).map_err(|e| e.to_string()))?;
        let load_ms = floor_ms(until, 5, || {
            cache.load(&key, graph, spec.pad, spec.kernel, quant).map_err(|e| e.to_string())
        })?;
        layers.extend([("cache.store_ms", store_ms), ("cache.load_ms", load_ms)]);
    }
    if let Some(until) = slices.next() {
        let mut miss_ms = f64::INFINITY;
        for _ in 0..3 {
            let _ = std::fs::remove_dir_all(&cache_dir);
            miss_ms = miss_ms.min(floor_ms(until, 1, || {
                w.builder().plan_cache(&cache_dir).build().map_err(|e| e.to_string())
            })?);
            if Instant::now() + Duration::from_secs_f64(miss_ms / 1e3) > until {
                break;
            }
        }
        layers.set("cache.miss_build_ms", miss_ms);
    }
    if let Some(until) = slices.next() {
        let hit_ms = floor_ms(until, 3, || {
            w.builder().plan_cache(&cache_dir).build().map_err(|e| e.to_string())
        })?;
        layers.set("cache.hit_build_ms", hit_ms);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    if let Some(until) = slices.next() {
        let options = TuneOptions { seed: WEIGHT_SEED, ..TuneOptions::default() };
        let mut report = None;
        let tune_ms = floor_ms(until, 3, || {
            report = Some(tune_lowered(graph, &options).map_err(|e| e.to_string())?);
            Ok(())
        })?;
        if let Some(report) = report {
            layers.extend([
                ("tune.tune_ms", tune_ms),
                ("tune.points", report.points.len() as f64),
                ("tune.winner_offchip_bits", report.winner_point().offchip_bits as f64),
            ]);
        }
    }

    if let Some(until) = slices.next() {
        let cold_ms = floor_ms(until, 5, || run(s.session, &mut ExecScratch::new(), input))?;
        layers.set("exec.cold_run_ms", cold_ms);
    }
    if let Some(until) = slices.next() {
        let mut ref_scratch = ExecScratch::new();
        run(s.reference, &mut ref_scratch, input)?;
        layers.set(
            "exec.reference_ms",
            floor_ms(until, 5, || run(s.reference, &mut ref_scratch, input))?,
        );
    }
    if let Some(until) = slices.next() {
        let batch = w.input(WEIGHT_SEED ^ 0x4238, 8);
        let mut batch_scratch = ExecScratch::new();
        run(s.session, &mut batch_scratch, &batch)?;
        let batch_ms = floor_ms(until, 5, || run(s.session, &mut batch_scratch, &batch))?;
        layers.set("exec.batch8_ms_per_image", batch_ms / 8.0);
    }
    if let Some(until) = slices.next() {
        let two = w.builder().threads(2).build().map_err(|e| e.to_string())?;
        let mut two_scratch = ExecScratch::new();
        run(&two, &mut two_scratch, input)?;
        let two_ms = floor_ms(until, 20, || run(&two, &mut two_scratch, input))?;
        layers.set("exec.thread_speedup_t2", layers.get("exec.run_ms") / two_ms);
    }
    if slices.next().is_some() {
        let ((), allocs, bytes) = crate::alloc::count(|| {
            for _ in 0..ALLOC_REQUESTS {
                // A failing request shows up as a failed run elsewhere.
                let _ = run(s.session, scratch, input);
            }
        });
        layers.extend([
            ("exec.allocs_per_request", allocs as f64 / ALLOC_REQUESTS as f64),
            ("exec.alloc_bytes_per_request", bytes as f64 / ALLOC_REQUESTS as f64),
        ]);
    }
    if let (true, Some(until)) = (plan.fusion_groups() > 0, slices.next()) {
        let direct = w
            .builder()
            .planner(w.plan_spec().network_plan(w.unblocked()))
            .build()
            .map_err(|e| e.to_string())?;
        let mut direct_scratch = ExecScratch::new();
        run(&direct, &mut direct_scratch, input)?;
        let direct_ms = floor_ms(until, 20, || run(&direct, &mut direct_scratch, input))?;
        layers.set("fusion.blocked_over_direct", layers.get("exec.run_ms") / direct_ms);
    }
    if let (true, Some(until)) = (quant.is_none(), slices.next()) {
        let direct = w
            .builder()
            .planner(w.plan_spec().kernel(KernelPolicy::Direct))
            .build()
            .map_err(|e| e.to_string())?;
        let mut direct_scratch = ExecScratch::new();
        run(&direct, &mut direct_scratch, input)?;
        let direct_ms = floor_ms(until, 5, || run(&direct, &mut direct_scratch, input))?;
        layers.set("kernel.direct_over_gemm", direct_ms / layers.get("exec.run_ms"));
    }
    if slices.skipped > 0 {
        eprintln!(
            "note: {} per-layer measurements skipped, the run's budget was spent",
            slices.skipped
        );
    }
    Ok(())
}

/// The serving tier's own numbers: bursts without and with a tracer, a
/// closed-loop round trip on the idle engine, and `run_batch`.
fn serve_layers(
    w: &Workload,
    setup: &ServeSetup,
    h: &mut Harness,
    tracer: &mut Tracer,
    layers: &mut Layers,
    tally: &mut Outcome,
) -> Vec<f64> {
    let (untraced_end, traced_end) = (h.at(0.15), h.at(0.35));
    let untraced = serve::burst_loop(w, setup, h, untraced_end, &[], tally, None);
    let traced = serve::burst_loop(w, setup, h, traced_end, &[], tally, Some(tracer));
    layers.extend(serve::layer_metrics(&traced, &setup.engine.metrics()));
    let (quiet_untraced, _) = stats::quiet_floor(untraced.quiet_rounds());
    let (quiet_traced, _) = stats::quiet_floor(traced.quiet_rounds());
    if quiet_untraced > 0.0 {
        layers.set("bench.trace_overhead_share", (quiet_traced - quiet_untraced) / quiet_untraced);
    }
    // Per burst the median submit call; the floor over bursts.
    let mut submit_us = f64::INFINITY;
    let mut burst_submits = Vec::with_capacity(BURST_REQUESTS);
    for span in tracer.spans() {
        match span.name {
            "burst" => burst_submits.clear(),
            "serve.submit" => {
                burst_submits.push(span.duration_ns() as f64 / 1e3);
                if burst_submits.len() == BURST_REQUESTS {
                    submit_us = submit_us.min(stats::percentile(&burst_submits, 50.0));
                }
            }
            _ => {}
        }
    }
    layers.set("serve.submit_us", if submit_us.is_finite() { submit_us } else { 0.0 });

    // What the tier adds to one request: submit → wait on the idle engine
    // against `run_with` of the same input on the twin session.
    let input = &setup.inputs[0];
    let until = h.at(0.40);
    let round_trip_ms = floor_ms(until, 400, || {
        setup
            .engine
            .submit(input.clone())
            .and_then(|t| setup.engine.wait(t))
            .map_err(|e| e.to_string())
    });
    let mut scratch = ExecScratch::new();
    let solo_ms = floor_ms(until, 400, || run(&setup.oracle_session, &mut scratch, input));
    let batch_ms = floor_ms(h.at(0.45), 50, || {
        let reports = setup.engine.run_batch(setup.inputs.clone()).map_err(|e| e.to_string())?;
        let ok = reports.iter().zip(&setup.oracle).all(|(got, want)| matches_oracle(got, want));
        if ok {
            Ok(())
        } else {
            Err("run_batch output differs from the oracle".to_string())
        }
    });
    match (round_trip_ms, solo_ms, batch_ms) {
        (Ok(round_trip), Ok(solo), Ok(batch)) => layers.extend([
            ("serve.overhead_us_per_request", (round_trip - solo) * 1e3),
            ("serve.run_batch_ms_per_image", batch / BURST_REQUESTS as f64),
        ]),
        (a, b, c) => {
            for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                tally.fail(|| format!("serving tier measurement: {e}"));
            }
        }
    }
    let mut all = untraced.raw_ms;
    all.extend(traced.raw_ms);
    all
}

/// A `--trace 1` run.
pub fn run_traced(w: &Workload, args: &RunArgs) -> Result<Outcome, String> {
    let mut h = Harness::new(args.seconds);
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);

    let raw_latencies = if w.is_serve() {
        let setup = serve::set_up(w, &mut h, args.seed, &mut out)?;
        let raw = serve_layers(w, &setup, &mut h, &mut tracer, &mut layers, &mut out);
        setup.engine.shutdown();
        let overhead = layers.get("bench.trace_overhead_share");
        let subject = Subject {
            w,
            session: &setup.oracle_session,
            inputs: &setup.inputs,
            oracle: &setup.oracle,
            reference: &setup.reference,
        };
        session_layers(&subject, ExecScratch::new(), &mut h, &mut tracer, &mut layers, &mut out)?;
        // For the serving workload the overhead is that of the traced
        // bursts, not of the twin session's replay.
        layers.set("bench.trace_overhead_share", overhead);
        raw
    } else {
        let setup = solo::set_up(w, &mut h, args.seed, &mut out)?;
        let solo::SoloSetup { session, scratch, inputs, oracle, reference, .. } = setup;
        let subject = Subject {
            w,
            session: &session,
            inputs: &inputs,
            oracle: &oracle,
            reference: &reference,
        };
        session_layers(&subject, scratch, &mut h, &mut tracer, &mut layers, &mut out)?
    };

    layers.extend(solo::raw_diagnostics(&raw_latencies));
    layers.extend(h.diagnostics());
    let path = out_dir().join(format!("trace-{}-seed{}.tsv", w.name(), args.seed));
    if let Err(e) = tracer.write_tsv(&path) {
        out.problem(|| format!("cannot write {}: {e}", path.display()));
    }
    out.metrics = layers.0;
    Ok(out)
}
