//! Plan compilation cache: serialize a compiled [`ExecPlan`] once, pin it
//! on disk, and rebuild it on the next process start without re-running
//! the planner walk.
//!
//! The serialized form stores the plan's *decisions* (the planner's
//! `PlanDecisions`) — which consecutive nodes fuse under which input
//! [`BlockGrid`], which groups splice, and the report's cuts and splices —
//! not its solved block convolutions. Loading parses the decisions back
//! and hands them to the same `assemble` step that finishes a fresh
//! planner walk (against the session's freshly calibrated spec, for a
//! quantized backend), so a cache-loaded session executes bitwise
//! identically to a freshly planned one by construction, and the load
//! path has no way to reach the walk: its plans carry
//! [`PlanProvenance::CacheLoaded`].
//!
//! Entries are keyed by [`PlanKey`]: network content hash × blocking
//! pattern × backend × cost-model parameters × kernel policy × pad mode ×
//! host fingerprint. A stale or foreign entry under the same file name is
//! rejected with [`PlanCacheError::KeyMismatch`] and the session falls
//! back to fresh planning — a cache can corrupt start-up *time*, never
//! results.
//!
//! Documents are built as, and read back through, the workspace's one
//! JSON codec, [`crate::json`]: every malformed byte of a stored file is a
//! typed [`PlanCacheError::Parse`], never a panic.

use std::path::{Path, PathBuf};

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;

use crate::cost::CostModel;
use crate::ir::{Graph, NodeId, NodeOp};
use crate::json::Json;
use crate::plan::{
    assemble, ExecPlan, GroupDecision, PlanDecisions, PlanProvenance, PlanReport, SegmentDecision,
    SpliceReport,
};
use crate::quantize::GraphQuantSpec;
use crate::session::Backend;
use crate::tune::pattern_from_name;

/// Serialized-plan schema version; bumped when the layout changes so old
/// entries are rejected as [`PlanCacheError::Incompatible`], not
/// misparsed.
const SCHEMA_VERSION: usize = 2;

// ---------------------------------------------------------------------
// Plan keys
// ---------------------------------------------------------------------

/// FNV-1a over a byte string — the stable, dependency-free hash behind
/// network content hashes and cache file names.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// This host's planning-relevant fingerprint: the same
/// available-parallelism probe `bench_check` gates timing comparisons on.
/// Thread count feeds the tuner's search space, so plans pinned on one
/// host class never silently serve another.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("cores{cores}")
}

/// Content hash of a lowered graph: structure, shapes, conv geometry and
/// the weight-binding seed. Weights are derived deterministically from
/// `(structure, seed)`, so two graphs with equal hashes carry equal
/// parameters.
pub fn graph_content_hash(graph: &Graph, seed: u64) -> u64 {
    let mut desc = String::new();
    desc.push_str(graph.name());
    let s = graph.input_shape();
    desc.push_str(&format!("|in{}x{}x{}|seed{seed}", s.c, s.h, s.w));
    for node in graph.nodes() {
        desc.push('|');
        desc.push_str(&node.name);
        desc.push(':');
        desc.push_str(node.op.mnemonic());
        desc.push_str(&format!(
            ":{}x{}x{}>{}x{}x{}",
            node.in_shape.c,
            node.in_shape.h,
            node.in_shape.w,
            node.out_shape.c,
            node.out_shape.h,
            node.out_shape.w
        ));
        match &node.op {
            NodeOp::Conv { conv, conv_ordinal } => {
                let g = conv.geom();
                desc.push_str(&format!(
                    ":o{conv_ordinal}k{}s{}p{}g{}c{}>{}",
                    g.kernel,
                    g.stride,
                    g.padding,
                    conv.groups(),
                    conv.c_in(),
                    conv.c_out()
                ));
            }
            NodeOp::MaxPool { k, s, p } => desc.push_str(&format!(":k{k}s{s}p{p}")),
            NodeOp::Upsample { factor } => desc.push_str(&format!(":f{factor}")),
            NodeOp::Add { other } => desc.push_str(&format!(":{other:?}")),
            _ => {}
        }
    }
    fnv1a(desc.as_bytes())
}

/// Stable identity string for an explicit [`NetworkPlan`] (the
/// per-conv-layer blocking decisions), or the resolution-rule marker when
/// the planner derives decisions itself.
pub fn network_plan_key(plan: Option<&NetworkPlan>) -> String {
    match plan {
        None => "resolution-rule".to_string(),
        Some(p) => {
            let mut out = String::from("explicit:");
            for d in p.per_layer() {
                match d {
                    LayerBlocking::Normal => out.push('N'),
                    LayerBlocking::Blocked(pat) => out.push_str(&format!("B({pat})")),
                }
                out.push(',');
            }
            out
        }
    }
}

/// Stable identity string for a [`Backend`].
pub fn backend_key(backend: Backend) -> String {
    match backend {
        Backend::Reference => "reference".to_string(),
        Backend::Blocked => "blocked".to_string(),
        Backend::Quantized { weight_bits, act_bits } => {
            format!("quantized_w{weight_bits}a{act_bits}")
        }
    }
}

/// Everything that must match for a pinned plan to be reusable: the
/// network's content hash, the blocking pattern, the explicit network
/// plan (if any), the backend, the cost model's parameters, the kernel
/// policy, the pad mode, and the host fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Network name (informational; the hash is the identity).
    pub network: String,
    /// [`graph_content_hash`] of the lowered graph + seed.
    pub net_hash: u64,
    /// Blocking pattern, in its `Display` form (`F28`, `H2x2`).
    pub pattern: String,
    /// [`network_plan_key`] of the explicit per-layer decisions.
    pub plan: String,
    /// [`backend_key`] of the session backend.
    pub backend: String,
    /// [`CostModel::cache_param_key`] of the effective cost model.
    pub cost_model: String,
    /// Kernel policy name (`auto` / `direct` / `im2col-gemm`).
    pub kernel: String,
    /// Pad mode name (`zero` / `replicate` / `reflect`).
    pub pad: String,
    /// [`host_fingerprint`] of the planning host.
    pub host: String,
}

impl PlanKey {
    /// Assembles the key for a session build.
    #[allow(clippy::too_many_arguments)]
    pub fn for_build(
        graph: &Graph,
        seed: u64,
        pattern: BlockingPattern,
        plan: Option<&NetworkPlan>,
        backend: Backend,
        cost_model: &dyn CostModel,
        kernel: KernelPolicy,
        pad: PadMode,
    ) -> Self {
        Self {
            network: graph.name().to_string(),
            net_hash: graph_content_hash(graph, seed),
            pattern: pattern.to_string(),
            plan: network_plan_key(plan),
            backend: backend_key(backend),
            cost_model: cost_model.cache_param_key(),
            kernel: kernel.name().to_string(),
            pad: pad.name().to_string(),
            host: host_fingerprint(),
        }
    }

    /// The canonical one-line form stored inside (and checked against)
    /// every cache entry.
    pub fn canonical(&self) -> String {
        format!(
            "{}|{:016x}|{}|{}|{}|{}|{}|{}|{}",
            self.network,
            self.net_hash,
            self.pattern,
            self.plan,
            self.backend,
            self.cost_model,
            self.kernel,
            self.pad,
            self.host
        )
    }

    /// Cache file stem: an FNV-1a digest of the canonical form, so every
    /// distinct key maps to its own file and collisions surface as
    /// [`PlanCacheError::KeyMismatch`] on the stored canonical string.
    pub fn file_stem(&self) -> String {
        format!("plan-{:016x}", fnv1a(self.canonical().as_bytes()))
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a cache entry could not be used. Every variant is a *soft*
/// failure: the session build falls back to fresh planning and may
/// overwrite the entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCacheError {
    /// The entry does not exist or could not be read/written.
    Io(String),
    /// The file exists but is not a well-formed plan document.
    Parse(String),
    /// The file parses but was pinned under a different key (stale
    /// weights, other host, other cost model, hash collision).
    KeyMismatch {
        /// The key this build requires.
        expected: String,
        /// The key the entry was stored under.
        found: String,
    },
    /// The entry's decisions do not assemble against this graph (e.g. node
    /// ids out of range, grids that fail Equation 2) or it was written
    /// under another schema version.
    Incompatible(String),
}

impl std::fmt::Display for PlanCacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(msg) => write!(f, "plan cache io: {msg}"),
            Self::Parse(msg) => write!(f, "plan cache parse: {msg}"),
            Self::KeyMismatch { expected, found } => {
                write!(f, "plan cache key mismatch: expected {expected}, found {found}")
            }
            Self::Incompatible(msg) => write!(f, "plan cache incompatible: {msg}"),
        }
    }
}

impl std::error::Error for PlanCacheError {}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// An on-disk store of pinned plans, one JSON file per [`PlanKey`].
#[derive(Debug, Clone)]
pub struct PlanCache {
    dir: PathBuf,
}

impl PlanCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn path_for(&self, key: &PlanKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.file_stem()))
    }

    /// Loads the pinned decisions for `key` and assembles them against
    /// `graph` under `pad`/`kernel` (and, for quantized sessions, the
    /// freshly calibrated `quant` spec). On success the plan's provenance
    /// is [`PlanProvenance::CacheLoaded`].
    ///
    /// # Errors
    ///
    /// Any [`PlanCacheError`]; all are soft — callers fall back to fresh
    /// planning.
    pub fn load(
        &self,
        key: &PlanKey,
        graph: &Graph,
        pad: PadMode,
        kernel: KernelPolicy,
        quant: Option<&GraphQuantSpec>,
    ) -> Result<ExecPlan, PlanCacheError> {
        let path = self.path_for(key);
        let text = std::fs::read_to_string(&path).map_err(|e| PlanCacheError::Io(e.to_string()))?;
        let doc = Json::parse(&text).map_err(|e| PlanCacheError::Parse(e.to_string()))?;
        let version = usize_field(&doc, "version")?;
        if version != SCHEMA_VERSION {
            return Err(PlanCacheError::Incompatible(format!(
                "schema version {version}, expected {SCHEMA_VERSION}"
            )));
        }
        let found = str_field(&doc, "key")?;
        let expected = key.canonical();
        if found != expected {
            return Err(PlanCacheError::KeyMismatch { expected, found: found.to_string() });
        }
        let mut decisions = parse_decisions(&doc)?;
        decisions.report.provenance = PlanProvenance::CacheLoaded { key: expected };
        assemble(decisions, graph, pad, kernel, quant)
            .map_err(|e| PlanCacheError::Incompatible(e.to_string()))
    }

    /// Serializes `plan`'s decisions under `key`, creating the cache
    /// directory if needed.
    ///
    /// # Errors
    ///
    /// [`PlanCacheError::Io`] when the directory or file cannot be
    /// written. Callers treat a failed store as a missed optimisation,
    /// not a build failure.
    pub fn store(&self, key: &PlanKey, plan: &ExecPlan) -> Result<(), PlanCacheError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| PlanCacheError::Io(e.to_string()))?;
        let text = serialize_decisions(key, plan.decisions());
        std::fs::write(self.path_for(key), text).map_err(|e| PlanCacheError::Io(e.to_string()))
    }
}

// ---------------------------------------------------------------------
// The decisions codec
// ---------------------------------------------------------------------

fn grid_value(grid: &BlockGrid) -> Json {
    let segs = |pairs: &[(usize, usize)]| {
        Json::array(pairs.iter().map(|&(start, size)| Json::array([start, size])))
    };
    Json::object([
        ("h", grid.h().into()),
        ("w", grid.w().into()),
        ("rows", segs(grid.row_segments())),
        ("cols", segs(grid.col_segments())),
    ])
}

/// Serializes plan decisions (with their key) to the cache document form.
pub(crate) fn serialize_decisions(key: &PlanKey, decisions: &PlanDecisions) -> String {
    let ids = |nodes: &[NodeId]| Json::array(nodes.iter().copied());
    let report = &decisions.report;
    let splices = report.splices.iter().map(|s| {
        Json::object([
            ("from", s.from_node.into()),
            ("to", s.to_node.into()),
            ("saved", s.saved_offchip_elems.into()),
        ])
    });
    let segments = decisions.segments.iter().map(|seg| match seg {
        SegmentDecision::Single(id) => Json::object([("node", (*id).into())]),
        SegmentDecision::Groups(groups) => {
            let groups = groups
                .iter()
                .map(|g| Json::object([("nodes", ids(&g.nodes)), ("grid", grid_value(&g.grid))]));
            Json::object([("groups", Json::array(groups))])
        }
    });
    let doc = Json::object([
        ("version", SCHEMA_VERSION.into()),
        ("key", key.canonical().into()),
        ("pattern", decisions.pattern.to_string().into()),
        (
            "report",
            Json::object([
                ("cost_model", report.cost_model.as_str().into()),
                ("cost_cuts", ids(&report.cost_cuts)),
                ("splices", Json::array(splices)),
            ]),
        ),
        ("segments", Json::array(segments)),
    ]);
    format!("{doc}\n")
}

fn not_a(what: &str) -> PlanCacheError {
    PlanCacheError::Parse(format!("missing or malformed {what}"))
}

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, PlanCacheError> {
    obj.get(name).ok_or_else(|| not_a(name))
}

fn str_field<'a>(obj: &'a Json, name: &str) -> Result<&'a str, PlanCacheError> {
    field(obj, name)?.as_str().ok_or_else(|| not_a(name))
}

fn arr_field<'a>(obj: &'a Json, name: &str) -> Result<&'a [Json], PlanCacheError> {
    field(obj, name)?.as_array().ok_or_else(|| not_a(name))
}

fn usize_field(obj: &Json, name: &str) -> Result<usize, PlanCacheError> {
    field(obj, name)?.as_usize().ok_or_else(|| not_a(name))
}

/// An array member of non-negative integers (node ids).
fn ids_field(obj: &Json, name: &str) -> Result<Vec<NodeId>, PlanCacheError> {
    arr_field(obj, name)?.iter().map(|n| n.as_usize().ok_or_else(|| not_a(name))).collect()
}

fn parse_grid(value: &Json) -> Result<BlockGrid, PlanCacheError> {
    let segs = |name: &str| -> Result<Vec<(usize, usize)>, PlanCacheError> {
        arr_field(value, name)?
            .iter()
            .map(|pair| match pair.as_array() {
                Some([a, b]) => a.as_usize().zip(b.as_usize()).ok_or_else(|| not_a(name)),
                _ => Err(not_a(name)),
            })
            .collect()
    };
    BlockGrid::from_segments(
        usize_field(value, "h")?,
        usize_field(value, "w")?,
        segs("rows")?,
        segs("cols")?,
    )
    .map_err(|e| PlanCacheError::Incompatible(format!("stored grid invalid: {e}")))
}

/// Parses the decisions of a cache document (its version and key already
/// checked). Whether they fit a graph is `assemble`'s call.
pub(crate) fn parse_decisions(doc: &Json) -> Result<PlanDecisions, PlanCacheError> {
    let pattern = pattern_from_name(str_field(doc, "pattern")?).ok_or_else(|| not_a("pattern"))?;
    let report = field(doc, "report")?;
    let splices = arr_field(report, "splices")?
        .iter()
        .map(|s| {
            Ok(SpliceReport {
                from_node: usize_field(s, "from")?,
                to_node: usize_field(s, "to")?,
                saved_offchip_elems: usize_field(s, "saved")?,
            })
        })
        .collect::<Result<_, PlanCacheError>>()?;
    let report = PlanReport {
        cost_model: str_field(report, "cost_model")?.to_string(),
        cost_cuts: ids_field(report, "cost_cuts")?,
        splices,
        provenance: PlanProvenance::default(),
    };
    let segments = arr_field(doc, "segments")?
        .iter()
        .map(|seg| {
            if seg.get("node").is_some() {
                return Ok(SegmentDecision::Single(usize_field(seg, "node")?));
            }
            let groups = arr_field(seg, "groups")?
                .iter()
                .map(|g| {
                    Ok(GroupDecision {
                        nodes: ids_field(g, "nodes")?,
                        grid: parse_grid(field(g, "grid")?)?,
                    })
                })
                .collect::<Result<_, PlanCacheError>>()?;
            Ok(SegmentDecision::Groups(groups))
        })
        .collect::<Result<_, PlanCacheError>>()?;
    Ok(PlanDecisions { pattern, segments, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_round_trip_through_the_codec() {
        use crate::cost::AccelCost;
        use crate::ir::LowerOptions;
        use crate::plan::{Planner, PlannerOptions};
        use bconv_accel::platform::zc706;
        use bconv_models::small::{vdsr_small, vgg16_small};
        use std::sync::Arc;

        let spliced: Arc<dyn CostModel> =
            Arc::new(AccelCost::with_buffers(zc706(), 1500 * 32 / 2, 1 << 24));
        let configs = [
            (BlockingPattern::hierarchical(2), None),
            (BlockingPattern::fixed(8), None),
            (BlockingPattern::hierarchical(2), Some(spliced)),
        ];
        let mut splices = 0;
        for net in [vgg16_small(32), vdsr_small(24, 4, 8)] {
            let graph = Graph::lower(&net, &LowerOptions::default()).unwrap();
            for (pattern, cost_model) in &configs {
                let planner = Planner::new(PlannerOptions {
                    pattern: *pattern,
                    cost_model: cost_model.clone(),
                    ..PlannerOptions::default()
                });
                // Reference and Blocked walk at 32 bits per element, the
                // quantized backends at their activation width.
                for backend in [
                    Backend::Reference,
                    Backend::Blocked,
                    Backend::Quantized { weight_bits: 8, act_bits: 8 },
                    Backend::Quantized { weight_bits: 8, act_bits: 16 },
                ] {
                    let bits = match backend {
                        Backend::Quantized { act_bits, .. } => act_bits,
                        _ => 32,
                    };
                    let decisions = planner.walk(&graph, bits).unwrap();
                    splices += decisions.report.splices.len();
                    let key = PlanKey::for_build(
                        &graph,
                        2018,
                        *pattern,
                        None,
                        backend,
                        planner.cost_model(),
                        KernelPolicy::Auto,
                        PadMode::Zero,
                    );
                    let text = serialize_decisions(&key, &decisions);
                    let doc = Json::parse(&text).unwrap();
                    assert_eq!(doc.get("key").and_then(Json::as_str), Some(&*key.canonical()));
                    assert_eq!(parse_decisions(&doc).unwrap(), decisions, "{text}");
                }
            }
        }
        assert!(splices > 0, "the AccelCost configuration must exercise spliced segments");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn plan_keys_distinguish_every_axis() {
        let base = PlanKey {
            network: "n".into(),
            net_hash: 1,
            pattern: "H2x2".into(),
            plan: "resolution-rule".into(),
            backend: "blocked".into(),
            cost_model: "element-budget(unbounded)".into(),
            kernel: "auto".into(),
            pad: "zero".into(),
            host: "cores4".into(),
        };
        let mut variants = vec![base.clone()];
        let mut k = base.clone();
        k.net_hash = 2;
        variants.push(k);
        let mut k = base.clone();
        k.pattern = "F8".into();
        variants.push(k);
        let mut k = base.clone();
        k.backend = "quantized_w8a8".into();
        variants.push(k);
        let mut k = base.clone();
        k.cost_model = "element-budget(b1500)".into();
        variants.push(k);
        let mut k = base.clone();
        k.host = "cores8".into();
        variants.push(k);
        let canon: Vec<String> = variants.iter().map(PlanKey::canonical).collect();
        for (i, a) in canon.iter().enumerate() {
            for (j, b) in canon.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "keys {i} and {j} collide");
                }
            }
        }
    }
}
