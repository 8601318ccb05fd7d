//! Planner cost-model benchmark: `ElementBudget` vs `AccelCost` group
//! cuts and `FusedPipeline` splices on vgg16_small and vdsr_small, under
//! an on-chip capacity small enough to force cuts (the interesting
//! regime — with unbounded buffers both models fuse maximally and agree).
//!
//! Writes `BENCH_planner.json`: per (network × cost model) the planner's
//! decisions (fusion groups, cost cuts, splices — from `PlanReport`),
//! the measured off-chip traffic, and the median run time. Asserts that
//! the accel model's plan moves strictly fewer off-chip bits and stays
//! bitwise identical — the cost model is a schedule policy, not a
//! numerics change.
//!
//! Usage: `bench_planner [--quick] [--out PATH] [--tune-out PATH]`

use bconv_accel::platform::zc706;
use bconv_bench::{session_times, BenchRun};
use bconv_core::BlockingPattern;
use bconv_graph::json::Json;
use bconv_graph::{tune, AccelCost, PlanSpec, Session, TuneOptions};
use bconv_models::small::vgg16_small;
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

struct Workload {
    network: &'static str,
    net: Network,
    input: Tensor,
    /// Element budget that forces at least one mid-network cut.
    budget_elems: usize,
}

struct Measurement {
    network: &'static str,
    cost_model: &'static str,
    fusion_groups: usize,
    segments: usize,
    cost_cuts: usize,
    splices: usize,
    offchip_elems: usize,
    offchip_bits: u64,
    median_us: f64,
    min_us: f64,
    output_matches_baseline: bool,
}

fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            network: "vgg16_small",
            net: vgg16_small(32),
            input: uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(7)),
            // Cuts after conv1-1: its successor's ping-pong pair
            // (16x16x4 + 16x16x4 = 2048 elements) exceeds the budget.
            budget_elems: 1500,
        },
        Workload {
            network: "vdsr_small",
            net: bconv_models::vdsr::vdsr_with_depth(24, 24, 6, 8),
            input: uniform_tensor([1, 1, 24, 24], -1.0, 1.0, &mut seeded_rng(8)),
            // Cuts after conv1 (the budget of the planner's depth test).
            budget_elems: 12 * 12 * 8 + 12 * 12 * 2,
        },
    ]
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let bench = BenchRun::from_args("planner");
    let reps = if bench.quick { 9 } else { 30 };

    let mut results: Vec<Measurement> = Vec::new();
    for w in workloads() {
        let build = |accel: bool| {
            let spec = PlanSpec::new().pattern(BlockingPattern::hierarchical(2));
            let spec = if accel {
                // The AccelCost twin of the element budget: same
                // intermediate capacity in bits, a generous extra buffer
                // so compatible boundaries splice.
                spec.cost_model(AccelCost::with_buffers(
                    zc706(),
                    w.budget_elems as u64 * 32 / 2,
                    1 << 24,
                ))
            } else {
                spec.on_chip_budget(w.budget_elems)
            };
            Session::builder().network(w.net.clone()).planner(spec).seed(2018).threads(1).build()
        };
        let element = build(false)?;
        let accel = build(true)?;
        let baseline_out = element.run(&w.input)?.output;

        for (model, session) in [("element-budget", &element), ("accel-cost", &accel)] {
            let report = session.run(&w.input)?;
            let (us, min_us) = session_times(session, &w.input, reps)?;
            let pr = session.plan().report();
            let m = Measurement {
                network: w.network,
                cost_model: model,
                fusion_groups: session.plan().fusion_groups(),
                segments: session.plan().segments().len(),
                cost_cuts: pr.cost_cuts.len(),
                splices: pr.splices.len(),
                offchip_elems: report.stats.offchip_elems,
                offchip_bits: report.stats.offchip_bits(),
                median_us: us,
                min_us,
                output_matches_baseline: report.output.data() == baseline_out.data(),
            };
            println!(
                "{:<12} {:<15} groups={:<2} cuts={:<2} splices={:<2} offchip_bits={:>8} \
                 median {:>8.1} us  bitwise-match {}",
                m.network,
                m.cost_model,
                m.fusion_groups,
                m.cost_cuts,
                m.splices,
                m.offchip_bits,
                m.median_us,
                m.output_matches_baseline
            );
            results.push(m);
        }

        // The planner's contract on every workload: the accel model takes
        // at least one splice the element budget cannot, strictly lowers
        // off-chip traffic, and never changes the numbers.
        let e = &results[results.len() - 2];
        let a = &results[results.len() - 1];
        assert!(e.splices == 0 && e.cost_cuts > 0, "{}: budget must cut, never splice", w.network);
        assert!(a.splices > 0, "{}: accel model took no splice", w.network);
        assert!(
            a.offchip_bits < e.offchip_bits,
            "{}: splice did not lower off-chip bits ({} vs {})",
            w.network,
            a.offchip_bits,
            e.offchip_bits
        );
        assert!(a.output_matches_baseline, "{}: cost model changed numerics", w.network);
    }

    let rows = results.iter().map(|m| {
        Json::object([
            ("network", m.network.into()),
            ("cost_model", m.cost_model.into()),
            ("fusion_groups", m.fusion_groups.into()),
            ("segments", m.segments.into()),
            ("cost_cuts", m.cost_cuts.into()),
            ("splices", m.splices.into()),
            ("offchip_elems", m.offchip_elems.into()),
            ("offchip_bits", m.offchip_bits.into()),
            ("median_us", Json::fixed(m.median_us, 1)),
            ("min_us", Json::fixed(m.min_us, 1)),
            ("output_matches_baseline", m.output_matches_baseline.into()),
        ])
    });
    bench.write(
        reps,
        [
            ("pattern", "H2x2".into()),
            ("baseline", "element-budget of the same network".into()),
            ("results", Json::array(rows)),
        ],
    )?;

    // `--tune-out PATH`: run the per-host DSE on vgg16_small and dump the
    // full TuneReport (every point, Pareto front, winner) — CI uploads it
    // as an artifact next to the analyzer report.
    if let Some(path) = bench.option("--tune-out") {
        let report = tune(&vgg16_small(32), &TuneOptions::default())?;
        std::fs::write(path, report.to_json())?;
        println!(
            "wrote {path}: {} points, {} on the Pareto front, winner #{}",
            report.points.len(),
            report.pareto.len(),
            report.winner_index
        );
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    run()
}
