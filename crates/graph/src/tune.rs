//! Per-host design-space exploration over the planning knobs
//! [`crate::cost::AccelCost`] otherwise fixes a priori — the paper's §IV
//! DSE (Figure 12), run against the *engine's own planner* instead of the
//! standalone VGG-16 enumeration in `bconv_accel::dse`.
//!
//! The space is blocking pattern × buffer split — the two knobs the score
//! can see:
//!
//! * **blocking pattern** — hierarchical and fixed grids valid for the
//!   input resolution, the Fig. 4(a) re-grid axis;
//! * **buffer split** — how the platform's BRAM bits divide between the
//!   intermediate ping-pong pair and the extra (splice) buffer
//!   (§III-B3's organisation and two skewed alternatives).
//!
//! Every candidate is planned with the real [`crate::plan::Planner`] under
//! an [`AccelCost`] built from its buffer split, then scored on the accel
//! model's queries: modeled off-chip bits (every segment boundary's
//! write + read-back) and predicted cycles (MAC cycles at the PE count
//! plus [`FpgaPlatform::dram_cycles`] for the traffic). Splice
//! boundaries whose pooled grids can re-merge under
//! [`BlockGrid::merge`] — the pooling-aware Fig. 4(a) case — are counted
//! per point. Nothing is timed: kernel policy and thread count move time,
//! not the model's score, so they are not explored here and a tuned build
//! resolves them like any other build.
//!
//! The winner (lexicographically smallest `(off-chip bits, predicted
//! cycles)`; the §III-B3 default split is always candidate 0, so the
//! winner is never worse than the default) can be cached per host under
//! the same fingerprint as [`crate::cache::PlanKey`], which is how
//! a [`crate::session::PlanSpec::tuned`] build skips re-exploration on
//! warm start-up.

use std::path::{Path, PathBuf};

use bconv_accel::dse;
use bconv_accel::platform::{zc706, FpgaPlatform};
use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_models::Network;
use bconv_tensor::TensorError;

use crate::cache::{fnv1a, graph_content_hash, host_fingerprint};
use crate::cost::AccelCost;
use crate::ir::{Graph, LowerOptions, NodeOp};
use crate::json::Json;
use crate::plan::{ExecPlan, Planner, PlannerOptions, Segment};

/// Schema version of cached tune winners.
const WINNER_SCHEMA_VERSION: u64 = 1;

/// Tuning configuration.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Target platform supplying BRAM capacity and the DRAM model.
    pub platform: FpgaPlatform,
    /// PE parallelism for the cycle estimates.
    pub npe: usize,
    /// Weight-binding seed (must match the session the winner will serve).
    pub seed: u64,
    /// Whether lowering inserts a ReLU after every conv.
    pub relu_after_conv: bool,
    /// Directory for the per-host winner cache (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        Self { platform: zc706(), npe: 1, seed: 2018, relu_after_conv: false, cache_dir: None }
    }
}

/// One explored design point and its scores.
#[derive(Debug, Clone)]
pub struct TunePoint {
    /// Blocking pattern (`Display` form).
    pub pattern: String,
    /// Bits of one intermediate (ping-pong) buffer.
    pub intermediate_buffer_bits: u64,
    /// Bits of the extra (splice) buffer.
    pub extra_buffer_bits: u64,
    /// Modeled off-chip traffic of the candidate's plan, in bits.
    pub offchip_bits: u64,
    /// Predicted cycles: MACs over the PE count plus the DRAM transfer
    /// cycles of the off-chip traffic.
    pub predicted_cycles: u64,
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
    pub fn cost_model(&self, platform: FpgaPlatform, npe: usize) -> AccelCost {
        AccelCost::with_buffers(platform, self.intermediate_buffer_bits, self.extra_buffer_bits)
            .npe(npe)
    }
}

/// Everything the exploration found: every point, the Pareto front, the
/// winner, and what the winner saves over the §III-B3 default.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Network name.
    pub network: String,
    /// Content hash of the tuned graph.
    pub net_hash: u64,
    /// Host fingerprint the winner is valid for.
    pub host: String,
    /// Per-host cache key the winner is stored under.
    pub key: String,
    /// Every explored point, in exploration order. Index 0 is always the
    /// default configuration ([`AccelCost::for_platform`] split, `H2x2`).
    pub points: Vec<TunePoint>,
    /// Indices into [`Self::points`] of the Pareto front on
    /// `(offchip_bits, predicted_cycles)` — the §IV dominance rule.
    pub pareto: Vec<usize>,
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
                ("predicted_cycles", p.predicted_cycles.into()),
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
            ("pareto", Json::array(self.pareto.iter().copied())),
            ("points", Json::array(points)),
        ]);
        format!("{doc}\n")
    }
}

/// Modeled off-chip feature-map traffic of a plan, in elements: every
/// segment reads its input map from DRAM and writes its output map back,
/// so each inter-segment boundary counts a write plus a read-back —
/// the same convention as [`crate::plan::SpliceReport`]'s savings.
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

/// Total conv MACs of the graph (whole maps) — constant across candidates,
/// the compute term of the predicted-cycle score.
fn graph_macs(graph: &Graph) -> u64 {
    let mut macs = 0u64;
    for node in graph.nodes() {
        if let NodeOp::Conv { conv, .. } = &node.op {
            let g = conv.geom();
            let out = node.out_shape;
            let per_out = (g.kernel * g.kernel * conv.c_in() / conv.groups()) as u64;
            macs += (out.c * out.h * out.w) as u64 * per_out;
        }
    }
    macs
}

/// Splice boundaries whose upstream group's *output* grid — possibly
/// pooled down to more, smaller blocks than the downstream pattern wants —
/// re-merges in 2×2 clusters under [`BlockGrid::merge`]: the Fig. 4(a)
/// pooling-aware re-grid at a splice joint.
fn merge_ready_splices(plan: &ExecPlan) -> usize {
    let mut ready = 0usize;
    for seg in plan.segments() {
        let Segment::Spliced { pipeline, .. } = seg else { continue };
        for pair in pipeline.groups().windows(2) {
            if pair[0].out_grid().merge(2).is_ok() {
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
fn score(
    graph: &Graph,
    platform: &FpgaPlatform,
    npe: usize,
    macs: u64,
    c: &TuneWinner,
) -> Result<TunePoint, TensorError> {
    let planner = Planner::new(PlannerOptions {
        pattern: c.pattern,
        cost_model: Some(std::sync::Arc::new(c.cost_model(platform.clone(), npe))),
        ..PlannerOptions::default()
    });
    let plan = planner.plan(graph)?;
    let offchip_bits = modeled_offchip_elems(graph, &plan) * 32;
    let predicted_cycles = macs / npe.max(1) as u64 + platform.dram_cycles(offchip_bits);
    Ok(TunePoint {
        pattern: c.pattern.to_string(),
        intermediate_buffer_bits: c.intermediate_buffer_bits,
        extra_buffer_bits: c.extra_buffer_bits,
        offchip_bits,
        predicted_cycles,
        fusion_groups: plan.fusion_groups(),
        splices: plan.report().splices.len(),
        merge_ready_splices: merge_ready_splices(&plan),
    })
}

/// The per-host winner-cache key.
fn tune_key(net_hash: u64, host: &str, platform: &FpgaPlatform, npe: usize) -> String {
    format!("tune|{net_hash:016x}|{host}|{}|npe{npe}", platform.name)
}

/// Explores the space for `graph` and returns the scored report
/// (prediction only — no sessions are built). Winner caching lives in
/// [`tune`].
pub fn tune_lowered(graph: &Graph, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let macs = graph_macs(graph);
    let cands = candidates(graph, &opts.platform);
    let mut points = Vec::with_capacity(cands.len());
    for c in &cands {
        points.push(score(graph, &opts.platform, opts.npe, macs, c)?);
    }
    // The §IV dominance rule, `bconv_accel::dse`'s, on the planner's own
    // points.
    let keys: Vec<(u64, u64)> =
        points.iter().map(|p| (p.offchip_bits, p.predicted_cycles)).collect();
    let pareto = dse::pareto_indices(&keys);
    // Winner: lexicographically least (off-chip bits, predicted cycles,
    // index). The default is candidate 0, so the winner's modeled
    // off-chip bits never exceed the default's.
    let mut winner_index = 0usize;
    for (i, p) in points.iter().enumerate() {
        let best = &points[winner_index];
        if (p.offchip_bits, p.predicted_cycles, i)
            < (best.offchip_bits, best.predicted_cycles, winner_index)
        {
            winner_index = i;
        }
    }
    let net_hash = graph_content_hash(graph, opts.seed);
    let host = host_fingerprint();
    Ok(TuneReport {
        network: graph.name().to_string(),
        net_hash,
        host: host.clone(),
        key: tune_key(net_hash, &host, &opts.platform, opts.npe),
        points,
        pareto,
        winner_index,
        winner: cands[winner_index],
    })
}

/// Full tuning entry point: lowers `net`, explores the space, and caches
/// the winner per host when [`TuneOptions::cache_dir`] is set.
///
/// # Errors
///
/// Returns [`TensorError`] when lowering or planning fails. Winner-cache
/// I/O failures are swallowed — caching is an optimisation, never a
/// correctness input.
pub fn tune(net: &Network, opts: &TuneOptions) -> Result<TuneReport, TensorError> {
    let graph = Graph::lower(
        net,
        &LowerOptions { seed: opts.seed, relu_after_conv: opts.relu_after_conv },
    )?;
    let report = tune_lowered(&graph, opts)?;
    if let Some(dir) = &opts.cache_dir {
        store_winner(dir, &report.key, &report.winner);
    }
    Ok(report)
}

/// Loads a previously cached winner for `(graph, host, platform)`, or
/// `None` when there is no valid entry. Any read/parse/key failure is a
/// miss, never an error — the caller re-tunes. Fields this reader does not
/// know (earlier writers also stored a kernel policy and a thread count)
/// are ignored.
pub fn load_cached_winner(
    dir: &Path,
    graph: &Graph,
    seed: u64,
    platform: &FpgaPlatform,
    npe: usize,
) -> Option<(TuneWinner, String)> {
    let net_hash = graph_content_hash(graph, seed);
    let key = tune_key(net_hash, &host_fingerprint(), platform, npe);
    let path = dir.join(format!("{}.json", winner_file_stem(&key)));
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    if doc.get("version").and_then(Json::as_u64) != Some(WINNER_SCHEMA_VERSION) {
        return None;
    }
    if doc.get("key").and_then(Json::as_str) != Some(key.as_str()) {
        return None;
    }
    Some((
        TuneWinner {
            pattern: pattern_from_name(doc.get("pattern").and_then(Json::as_str)?)?,
            intermediate_buffer_bits: doc.get("intermediate_buffer_bits").and_then(Json::as_u64)?,
            extra_buffer_bits: doc.get("extra_buffer_bits").and_then(Json::as_u64)?,
        },
        key,
    ))
}

fn winner_file_stem(key: &str) -> String {
    format!("tune-{:016x}", fnv1a(key.as_bytes()))
}

/// Writes the winner cache entry; failures are swallowed (see [`tune`]).
pub(crate) fn store_winner(dir: &Path, key: &str, winner: &TuneWinner) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let doc = Json::object([
        ("version", WINNER_SCHEMA_VERSION.into()),
        ("key", key.into()),
        ("pattern", winner.pattern.to_string().into()),
        ("intermediate_buffer_bits", winner.intermediate_buffer_bits.into()),
        ("extra_buffer_bits", winner.extra_buffer_bits.into()),
    ]);
    let path = dir.join(format!("{}.json", winner_file_stem(key)));
    let _ = std::fs::write(path, format!("{doc}\n"));
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
    fn winner_files_round_trip_and_the_previous_writers_still_load() {
        // `store_winner` output of the writers up to PR 17 (vgg16_small on a
        // 2-core host; the host fingerprint is part of the key), which also
        // stored the kernel policy and thread count the tuner then explored.
        const PARENT_WINNER_FILE: &str =
            "{\"version\": 1, \"key\": \"tune|4098af0d77063ff4|cores2|Zynq ZC706|npe1\", \
            \"pattern\": \"H2x2\", \"intermediate_buffer_bits\": 2511360, \
            \"extra_buffer_bits\": 5022720, \"kernel\": \"auto\", \"threads\": 1}\n";
        let dir = std::env::temp_dir().join(format!("bconv-tune-winner-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let graph = Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap();
        let load = || load_cached_winner(&dir, &graph, 2018, &zc706(), 1);
        assert_eq!(load(), None, "an empty directory is a miss");

        let key = tune_key(graph_content_hash(&graph, 2018), &host_fingerprint(), &zc706(), 1);
        let old_text = PARENT_WINNER_FILE.replace("cores2", &host_fingerprint());
        assert!(old_text.contains(&key), "fixture key drifted from {key}");
        let path = dir.join(format!("{}.json", winner_file_stem(&key)));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &old_text).unwrap();
        let (winner, loaded_key) = load().expect("the previous writer's file loads");
        assert_eq!(loaded_key, key);
        assert_eq!(
            winner,
            TuneWinner {
                pattern: BlockingPattern::hierarchical(2),
                intermediate_buffer_bits: 2_511_360,
                extra_buffer_bits: 5_022_720,
            }
        );

        // Today's writer stores the same document less those two fields,
        // and what it stores loads back to the same winner.
        store_winner(&dir, &key, &winner);
        let new_text = std::fs::read_to_string(&path).unwrap();
        let (old_doc, new_doc) = (Json::parse(&old_text).unwrap(), Json::parse(&new_text).unwrap());
        for field in ["version", "key", "pattern", "intermediate_buffer_bits", "extra_buffer_bits"]
        {
            assert!(new_doc.get(field).is_some(), "{new_text}");
            assert_eq!(new_doc.get(field), old_doc.get(field), "{field}");
        }
        assert_eq!((new_doc.get("kernel"), new_doc.get("threads")), (None, None), "{new_text}");
        assert_eq!(load(), Some((winner, key)));
        // A truncated file is a miss, not an error.
        std::fs::write(&path, &new_text[..new_text.len() / 2]).unwrap();
        assert_eq!(load(), None);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn pareto_front_is_nondominated() {
        let graph = Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap();
        let report = tune_lowered(&graph, &TuneOptions::default()).unwrap();
        assert!(!report.pareto.is_empty());
        for &i in &report.pareto {
            let p = &report.points[i];
            for q in &report.points {
                let dominates =
                    q.offchip_bits < p.offchip_bits && q.predicted_cycles <= p.predicted_cycles;
                assert!(!dominates, "pareto point {i} dominated");
            }
        }
        // The winner never regresses the default's modeled traffic.
        assert!(report.winner_point().offchip_bits <= report.default_point().offchip_bits);
    }
}
