//! Per-host design-space exploration over the planning knobs
//! [`crate::cost::AccelCost`] otherwise fixes a priori — the paper's §IV
//! DSE (Figure 12), run against the *engine's own planner* instead of the
//! standalone VGG-16 enumeration in `bconv_accel::dse`.
//!
//! The space is blocking pattern × buffer split — the two knobs the plan's
//! off-chip traffic depends on:
//!
//! * **blocking pattern** — hierarchical and fixed grids valid for the
//!   input resolution, the Fig. 4(a) re-grid axis;
//! * **buffer split** — how the platform's BRAM bits divide between the
//!   intermediate ping-pong pair and the extra (splice) buffer
//!   (§III-B3's organisation and two skewed alternatives).
//!
//! Every candidate is planned with the real [`crate::plan::Planner`] under
//! an [`AccelCost`] built from its buffer split, then scored by its
//! modeled off-chip bits (every segment boundary's write + read-back,
//! [`modeled_offchip_elems`]). Compute is the same under every candidate —
//! fusion is a schedule change — so traffic is the whole score. Splice
//! boundaries whose pooled grids can re-merge under
//! [`BlockGrid::merge`] — the pooling-aware Fig. 4(a) case — are counted
//! per point. Nothing is timed: kernel policy and thread count move time,
//! not the model's score, so they are not explored here and a tuned build
//! resolves them like any other build.
//!
//! The winner is the point with the fewest off-chip bits, the earliest
//! explored on a tie; the §III-B3 default split is always candidate 0, so
//! the winner is never worse than the default. The tuner persists nothing: a
//! [`crate::session::PlanSpec::tuned`] build with a plan cache stores the
//! plan it compiles under the winner, keyed by what the tuner explores, so
//! a warm build loads that plan without re-exploring.

use bconv_accel::platform::{zc706, FpgaPlatform};
use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_models::Network;
use bconv_tensor::TensorError;

use crate::cache::{graph_content_hash, host_fingerprint};
use crate::cost::AccelCost;
use crate::ir::{Graph, LowerOptions};
use crate::json::Json;
use crate::plan::{ExecPlan, Planner, PlannerOptions, Segment, SegmentDecision};

/// Tuning configuration.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Target platform supplying the BRAM capacity the buffers split.
    pub platform: FpgaPlatform,
    /// Weight-binding seed (must match the session the winner will serve).
    pub seed: u64,
    /// Whether lowering inserts a ReLU after every conv.
    pub relu_after_conv: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self { platform: zc706(), seed: 2018, relu_after_conv: false }
    }
}

/// One explored design point and its score.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// Blocking pattern (`Display` form).
    pub pattern: String,
    /// Bits of one intermediate (ping-pong) buffer.
    pub intermediate_buffer_bits: u64,
    /// Bits of the extra (splice) buffer.
    pub extra_buffer_bits: u64,
    /// Modeled off-chip traffic of the candidate's plan, in bits: the
    /// score.
    pub offchip_bits: u64,
    /// Fusion groups in the candidate's plan.
    pub fusion_groups: usize,
    /// Splices the candidate's plan took.
    pub splices: usize,
    /// Splice boundaries whose pooled grid re-merges cleanly under
    /// [`BlockGrid::merge`] (the pooling-aware Fig. 4(a) re-grid).
    pub merge_ready_splices: usize,
}

/// One configuration of the space, in applicable (typed) form: what the
/// exploration enumerates, and what it returns as the winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneWinner {
    /// Blocking pattern to plan under.
    pub pattern: BlockingPattern,
    /// Bits of one intermediate buffer for [`AccelCost::with_buffers`].
    pub intermediate_buffer_bits: u64,
    /// Bits of the extra buffer for [`AccelCost::with_buffers`].
    pub extra_buffer_bits: u64,
}

impl TuneWinner {
    /// The cost model this winner plans with.
    pub fn cost_model(&self, platform: FpgaPlatform) -> AccelCost {
        AccelCost::with_buffers(platform, self.intermediate_buffer_bits, self.extra_buffer_bits)
    }
}

/// Everything the exploration found: every point, the winner, and the
/// §III-B3 default it is measured against.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Network name.
    pub network: String,
    /// Content hash of the tuned graph.
    pub net_hash: u64,
    /// Host fingerprint the scores were computed on.
    pub host: String,
    /// Identity of this exploration (network hash, host, platform): a
    /// tuned plan's [`crate::plan::PlanProvenance::TuneSelected`]
    /// key.
    pub key: String,
    /// Every explored point, in exploration order. Index 0 is always the
    /// default configuration ([`AccelCost::for_platform`] split, `H2x2`).
    pub points: Vec<TunePoint>,
    /// Index into [`Self::points`] of the winner.
    pub winner_index: usize,
    /// The winner in applicable form.
    pub winner: TuneWinner,
}

impl TuneReport {
    /// The default configuration's point (always index 0).
    pub fn default_point(&self) -> &TunePoint {
        &self.points[0]
    }

    /// The winning point.
    pub fn winner_point(&self) -> &TunePoint {
        &self.points[self.winner_index]
    }

    /// Serializes the report as a JSON document (the CI artifact format).
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            Json::object([
                ("pattern", p.pattern.as_str().into()),
                ("intermediate_buffer_bits", p.intermediate_buffer_bits.into()),
                ("extra_buffer_bits", p.extra_buffer_bits.into()),
                ("offchip_bits", p.offchip_bits.into()),
                ("fusion_groups", p.fusion_groups.into()),
                ("splices", p.splices.into()),
                ("merge_ready_splices", p.merge_ready_splices.into()),
            ])
        });
        let doc = Json::object([
            ("network", self.network.as_str().into()),
            ("net_hash", format!("{:016x}", self.net_hash).into()),
            ("host", self.host.as_str().into()),
            ("key", self.key.as_str().into()),
            ("points_explored", self.points.len().into()),
            ("winner_index", self.winner_index.into()),
            ("points", Json::array(points)),
        ]);
        format!("{doc}\n")
    }
}

/// Modeled off-chip feature-map traffic of a plan, in elements: every
/// segment reads its input map from DRAM and writes its output map back,
/// so each inter-segment boundary counts a write plus a read-back —
/// the same convention as [`crate::plan::SpliceReport`]'s savings. A fused
/// segment and the residual add folded into it are one segment: the
/// chain's input in, the sum out (the chain's output map has the add's
/// shape), and the add's own segment moves nothing.
pub fn modeled_offchip_elems(graph: &Graph, plan: &ExecPlan) -> u64 {
    let map_elems = |id: usize| -> u64 {
        graph.nodes().get(id).map_or(0, |n| (n.out_shape.c * n.out_shape.h * n.out_shape.w) as u64)
    };
    let in_elems = |id: usize| -> u64 {
        graph.nodes().get(id).map_or(0, |n| (n.in_shape.c * n.in_shape.h * n.in_shape.w) as u64)
    };
    let mut total = 0u64;
    for seg in plan.segments() {
        match seg {
            Segment::Single(id) if plan.folded(*id) => {}
            Segment::Single(id) => total += in_elems(*id) + map_elems(*id),
            Segment::Fused { nodes, .. } | Segment::Spliced { nodes, .. } => {
                let first = nodes.first().copied().unwrap_or_default();
                let last = nodes.last().copied().unwrap_or_default();
                total += in_elems(first) + map_elems(last);
            }
        }
    }
    total
}

/// Splice boundaries whose upstream group's *output* grid — possibly
/// pooled down to more, smaller blocks than the downstream pattern wants —
/// re-merges in 2×2 clusters under [`BlockGrid::merge`]: the Fig. 4(a)
/// pooling-aware re-grid at a splice joint. Read off the planner's
/// decisions, not the assembled chains (aligned groups share one). Every
/// fused stage keeps its grid's block rows and columns — a stride-1 conv
/// re-sizes blocks, a pooling shrinks them — so a group's output grid
/// merges exactly when its decided input grid does.
fn merge_ready_splices(plan: &ExecPlan) -> usize {
    let mut ready = 0usize;
    for seg in &plan.decisions().segments {
        let SegmentDecision::Groups(groups) = seg else { continue };
        for pair in groups.windows(2) {
            if pair[0].grid.merge(2).is_ok() {
                ready += 1;
            }
        }
    }
    ready
}

/// Enumerates pattern × split, with the §III-B3 default first.
fn candidates(graph: &Graph, platform: &FpgaPlatform) -> Vec<TuneWinner> {
    let total = (platform.bram18_blocks * platform.bram18_bits) as u64;
    let default = TuneWinner {
        pattern: BlockingPattern::hierarchical(2),
        intermediate_buffer_bits: total / 8,
        extra_buffer_bits: total / 4,
    };
    let s = graph.input_shape();
    let patterns: Vec<BlockingPattern> = [
        BlockingPattern::hierarchical(2),
        BlockingPattern::hierarchical(4),
        BlockingPattern::fixed(8),
        BlockingPattern::fixed(16),
    ]
    .into_iter()
    .filter(|p| BlockGrid::from_pattern(s.h, s.w, *p).is_ok())
    .collect();
    // Buffer splits of the BRAM bits: the §III-B3 default (1/8 + 1/8
    // intermediate, 1/4 extra), a splice-heavy skew, and a depth-heavy
    // skew. The remainder is always left for weights.
    let splits: [(u64, u64); 3] =
        [(total / 8, total / 4), (total / 16, total * 3 / 8), (total * 3 / 16, total / 8)];
    let mut out = vec![default];
    for &pattern in &patterns {
        for &(intermediate_buffer_bits, extra_buffer_bits) in &splits {
            let c = TuneWinner { pattern, intermediate_buffer_bits, extra_buffer_bits };
            if c != default {
                out.push(c);
            }
        }
    }
    out
}

/// Plans and scores one candidate.
fn score(graph: &Graph, platform: &FpgaPlatform, c: &TuneWinner) -> Result<TunePoint, TensorError> {
    let planner = Planner::new(PlannerOptions {
        pattern: c.pattern,
        cost_model: Some(std::sync::Arc::new(c.cost_model(platform.clone()))),
        ..PlannerOptions::default()
    });
    let plan = planner.plan(graph)?;
    Ok(TunePoint {
        pattern: c.pattern.to_string(),
        intermediate_buffer_bits: c.intermediate_buffer_bits,
        extra_buffer_bits: c.extra_buffer_bits,
        offchip_bits: modeled_offchip_elems(graph, &plan) * 32,
        fusion_groups: plan.fusion_groups(),
        splices: plan.report().splices.len(),
        merge_ready_splices: merge_ready_splices(&plan),
    })
}

/// The identity of one exploration.
fn tune_key(net_hash: u64, host: &str, platform: &FpgaPlatform) -> String {
    format!("tune|{net_hash:016x}|{host}|{}", platform.name)
}

/// Explores the space for `graph` and returns the scored report
/// (prediction only — no sessions are built).
pub fn tune_lowered(graph: &Graph, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let cands = candidates(graph, &opts.platform);
    let points =
        cands.iter().map(|c| score(graph, &opts.platform, c)).collect::<Result<Vec<_>, _>>()?;
    // Winner: least (off-chip bits, index). The default is candidate 0, so
    // the winner's modeled off-chip bits never exceed the default's.
    let winner_index = (0..points.len()).min_by_key(|&i| (points[i].offchip_bits, i)).unwrap_or(0);
    let net_hash = graph_content_hash(graph, opts.seed);
    let host = host_fingerprint();
    Ok(TuneReport {
        network: graph.name().to_string(),
        net_hash,
        host: host.clone(),
        key: tune_key(net_hash, &host, &opts.platform),
        points,
        winner_index,
        winner: cands[winner_index],
    })
}

/// Full tuning entry point: lowers `net` and explores the space.
///
/// # Errors
///
/// Returns [`TensorError`] when lowering or planning fails.
pub fn tune(net: &Network, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let graph = Graph::lower(
        net,
        &LowerOptions { seed: opts.seed, relu_after_conv: opts.relu_after_conv },
    )?;
    tune_lowered(&graph, opts)
}

/// Parses a pattern back from its `Display` form (`F8`, `F28x14`,
/// `H2x2`).
pub(crate) fn pattern_from_name(name: &str) -> Option<BlockingPattern> {
    let (kind, rest) = name.split_at(name.len().min(1));
    let parse_pair = |s: &str| -> Option<(usize, usize)> {
        match s.split_once('x') {
            Some((a, b)) => Some((a.parse().ok()?, b.parse().ok()?)),
            None => {
                let v: usize = s.parse().ok()?;
                Some((v, v))
            }
        }
    };
    let (a, b) = parse_pair(rest)?;
    match kind {
        "F" => Some(BlockingPattern::Fixed { th: a, tw: b }),
        "H" => Some(BlockingPattern::Hierarchical { gh: a, gw: b }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use bconv_models::small::vgg16_small;

    #[test]
    fn pattern_names_round_trip() {
        for p in [
            BlockingPattern::hierarchical(2),
            BlockingPattern::hierarchical(4),
            BlockingPattern::fixed(8),
            BlockingPattern::Fixed { th: 28, tw: 14 },
        ] {
            assert_eq!(pattern_from_name(&p.to_string()), Some(p));
        }
        assert_eq!(pattern_from_name(""), None);
        assert_eq!(pattern_from_name("Q4"), None);
    }

    #[test]
    fn default_candidate_is_first_and_unique() {
        let graph = Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap();
        let report = tune_lowered(&graph, &TuneOptions::default()).unwrap();
        // Four patterns tile a 32×32 input, times three buffer splits.
        assert_eq!(report.points.len(), 12);
        let d = report.default_point();
        assert_eq!(d.pattern, BlockingPattern::hierarchical(2).to_string());
        let split =
            AccelCost::with_buffers(zc706(), d.intermediate_buffer_bits, d.extra_buffer_bits);
        assert_eq!(
            split.cache_param_key(),
            AccelCost::for_platform(zc706()).cache_param_key(),
            "points[0] is the §III-B3 organisation"
        );
        // Every point differs from every other in an axis the score sees.
        let axes =
            |p: &TunePoint| (p.pattern.clone(), p.intermediate_buffer_bits, p.extra_buffer_bits);
        for (i, p) in report.points.iter().enumerate() {
            for q in &report.points[..i] {
                assert_ne!(axes(p), axes(q), "point {i} explored twice");
            }
        }
    }

    #[test]
    fn the_winner_and_every_point_hold_their_values() {
        // Every point's plan and the winner on vgg16_small(32), pinned: a
        // planner or scoring change that moves one must say so here.
        let report = tune(&vgg16_small(32), &TuneOptions::default()).unwrap();
        // (pattern, offchip_bits, fusion_groups, splices,
        // merge_ready_splices), the same under each of the three splits.
        let per_pattern = [
            ("H2x2", 107_840, 1, 0, 0),
            ("H4x4", 136_512, 1, 0, 0),
            ("F8", 185_664, 3, 2, 2),
            ("F16", 415_040, 2, 1, 1),
        ];
        assert_eq!(report.points.len(), 12);
        for (i, p) in report.points.iter().enumerate() {
            assert_eq!(
                (&*p.pattern, p.offchip_bits, p.fusion_groups, p.splices, p.merge_ready_splices),
                per_pattern[i / 3],
                "point {i}"
            );
        }
        assert_eq!(report.winner_index, 0);
        assert_eq!(report.winner_point().offchip_bits, 107_840);
        assert_eq!(
            report.winner,
            TuneWinner {
                pattern: BlockingPattern::hierarchical(2),
                intermediate_buffer_bits: 2_511_360,
                extra_buffer_bits: 5_022_720,
            }
        );
    }
}
