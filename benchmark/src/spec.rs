//! The benchmark's contract as data: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics, and the `BENCHMARK.json` document
//! generated from them (`bconv-benchmark benchmark-json`). README.md defines
//! every name listed here.

#![forbid(unsafe_code)]

use crate::json::Json;

/// Seconds one run measures (`run_seconds`): the driver makes 92 runs in
/// 3420 s, which leaves ~7 s of slack per run at this length.
pub const RUN_SECONDS: u32 = 30;

/// The command the driver appends `--workload … --seed … --seconds … --trace …` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories holding the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A workload and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric: end-to-end ones carry the relative worsening that counts as
/// a regression, per-layer ones are ungated.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec { name, unit, better: Better::Higher, bound: None }
}

pub const VGG224: &str = "vgg224_f32_blocked";
pub const VDSR_BLOCKED: &str = "vdsr96_w8a8_blocked";
pub const VDSR_DIRECT: &str = "vdsr96_w8a8_direct";
pub const SERVE_BURST: &str = "serve_burst_w8a8";

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: VGG224,
        why:
            "16 large H4 blocks: time is im2col+sgemm and pooling; AccelCost(zc706, 200000 b \
              intermediate, 8000000 b extra) cuts and splices, so the planner decides off-chip bits",
    },
    WorkloadSpec {
        name: VDSR_BLOCKED,
        why: "144 F8 blocks per stage with 56% halo: fusion pad/crop/dispatch and tiny per-block \
              qgemm calls dominate; the paper's low-traffic schedule and the blocked-vs-direct gap",
    },
    WorkloadSpec {
        name: VDSR_DIRECT,
        why: "same net, weights and input unblocked: one whole-map QConv2d per layer, no fusion; \
              the control a blocked-path change must not move, and the off-chip-bits baseline",
    },
    WorkloadSpec {
        name: SERVE_BURST,
        why:
            "open loop: every 32 ms a full-batch lead request and 32 single-image requests queued \
              behind it; priority order, coalescing, split and shed decide latency; the only queue",
    },
];

/// Relative bound that stands for "exact": any one-bit increase of a
/// count in the millions exceeds it.
pub const EXACT: f64 = 1e-9;

pub const END_TO_END: [MetricSpec; 6] = [
    e2e("quiet_latency_ms_p50", "ms", 0.08),
    e2e("quiet_latency_ms_p95", "ms", 0.10),
    e2e("setup_s", "s", 0.15),
    e2e("offchip_bits_per_image", "bits", EXACT),
    e2e("peak_onchip_bits", "bits", EXACT),
    e2e("output_rel_err", "ratio", 0.01),
];

pub const PER_LAYER: [MetricSpec; 67] = [
    lo("ir.lower_ms", "ms"),
    lo("plan.plan_ms", "ms"),
    lo("plan.segments", "count"),
    lo("plan.fusion_groups", "count"),
    hi("plan.splices", "count"),
    lo("plan.cost_cuts", "count"),
    lo("cost.modeled_offchip_bits", "bits"),
    lo("cost.model_gap_share", "ratio"),
    lo("accel.dram_cycles_per_image", "cycles"),
    lo("cache.store_ms", "ms"),
    lo("cache.load_ms", "ms"),
    lo("cache.miss_build_ms", "ms"),
    lo("cache.hit_build_ms", "ms"),
    lo("tune.tune_ms", "ms"),
    hi("tune.points", "count"),
    lo("tune.winner_offchip_bits", "bits"),
    lo("quantize.calibrate_ms", "ms"),
    lo("quantize.calibration_passes", "count"),
    lo("exec.run_ms", "ms"),
    lo("exec.cold_run_ms", "ms"),
    lo("exec.fused_ms", "ms"),
    lo("exec.single_ms", "ms"),
    lo("exec.unattributed_share", "ratio"),
    lo("exec.reference_ms", "ms"),
    lo("exec.batch8_ms_per_image", "ms"),
    hi("exec.thread_speedup_t2", "ratio"),
    lo("exec.allocs_per_request", "count"),
    lo("exec.alloc_bytes_per_request", "bytes"),
    lo("fusion.blocks_per_image", "count"),
    lo("fusion.block_calls", "count"),
    lo("fusion.halo_share", "ratio"),
    lo("fusion.pad_ms", "ms"),
    lo("fusion.conv_ms", "ms"),
    lo("fusion.overhead_ms", "ms"),
    lo("fusion.blocked_over_direct", "ratio"),
    lo("kernel.conv_ms", "ms"),
    lo("kernel.macs_per_image", "MAC"),
    hi("kernel.gmacs_per_s", "GMAC/s"),
    hi("kernel.direct_over_gemm", "ratio"),
    lo("pool.ms", "ms"),
    lo("qgemm.block_conv_ms", "ms"),
    hi("qgemm.block_gmacs_per_s", "GMAC/s"),
    lo("qgemm.map_conv_ms", "ms"),
    hi("qgemm.map_gmacs_per_s", "GMAC/s"),
    lo("qgemm.macs_per_image", "MAC"),
    lo("serve.submit_us", "us"),
    lo("serve.overhead_us_per_request", "us"),
    hi("serve.mean_batch", "count"),
    hi("serve.full_batch_share", "ratio"),
    lo("serve.hi_prio_latency_ms_p50", "ms"),
    lo("serve.lo_prio_latency_ms_p50", "ms"),
    lo("serve.burst_drain_ms", "ms"),
    hi("serve.shed_expected", "count"),
    lo("serve.shed_unexpected", "count"),
    lo("serve.engine_p50_us", "us"),
    lo("serve.engine_p99_us", "us"),
    lo("serve.run_batch_ms_per_image", "ms"),
    lo("serve.gen_late_ms_p99", "ms"),
    hi("serve.on_time_share", "ratio"),
    hi("bench.samples", "count"),
    lo("bench.raw_latency_ms_p50", "ms"),
    lo("bench.raw_latency_ms_p95", "ms"),
    lo("bench.calib_floor_ms", "ms"),
    lo("bench.calib_ms_p50", "ms"),
    lo("bench.host_slow_share", "ratio"),
    lo("bench.setup_raw_s_min", "s"),
    lo("bench.trace_overhead_share", "ratio"),
];

/// The end-to-end metric called `name`.
#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        ("command", Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect())),
        ("paths", Json::Arr(PATHS.iter().map(|s| Json::str(*s)).collect())),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Json::Arr(PER_LAYER.iter().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_drivers_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: {}", m.name, m.unit);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
        // 4 + 22 × workloads runs of run_seconds (+2 s of process overhead)
        // and two builds must fit the driver's 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u32;
        assert!(runs * (RUN_SECONDS + 2) + 2 * 120 <= 3420);
    }

    #[test]
    fn the_committed_benchmark_json_is_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json().to_pretty(),
            "regenerate with `bconv-benchmark benchmark-json > BENCHMARK.json`"
        );
        // Name for name, through the parser as the driver would read it.
        let doc = crate::json::parse(&committed).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).expect("name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names("end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names("per_layer"), PER_LAYER.map(|m| m.name).to_vec());
        let keys: Vec<&str> =
            doc.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
    }
}
