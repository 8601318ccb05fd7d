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
//! The codec is a hand-rolled recursive-descent JSON reader and a
//! string-builder writer (the same offline idiom as `bconv_bench`'s
//! `check` module): no serde, objects as ordered `Vec<(String, Json)>`
//! pairs, nesting capped, every malformed byte a typed error rather than
//! a panic.

use std::path::{Path, PathBuf};

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::plan::{LayerBlocking, NetworkPlan};
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::pad::PadMode;

use crate::cost::CostModel;
use crate::ir::{Graph, NodeId, NodeOp};
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

/// Deepest nesting the JSON reader follows. Plan files nest 8 deep (a grid
/// segment pair inside a group inside a segment); a file of 20 000 `[`
/// must be a parse error, not a stack overflow.
const MAX_JSON_DEPTH: usize = 16;

// ---------------------------------------------------------------------
// Minimal JSON value + parser (offline codec, no serde)
// ---------------------------------------------------------------------

/// A parsed JSON value. Objects keep insertion order as key/value pairs —
/// plan files are small and written by this module, so linear key lookup
/// beats pulling in a map type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (plan files only use integers, parsed through f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, rejecting fractions.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // `u64::MAX as f64` rounds up to 2^64, which a saturating cast
        // would silently accept as `u64::MAX`.
        if n < 0.0 || n.fract() != 0.0 || n >= u64::MAX as f64 {
            return None;
        }
        Some(n as u64)
    }

    pub(crate) fn as_usize(&self) -> Option<usize> {
        usize::try_from(self.as_u64()?).ok()
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub(crate) fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let (value, mut pos) = parse_value(bytes, 0, 0)?;
    pos = skip_ws(bytes, pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// Parses the value at `pos`, itself nested inside `depth` containers.
fn parse_value(bytes: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let pos = skip_ws(bytes, pos);
    match bytes.get(pos) {
        Some(b'{' | b'[') if depth >= MAX_JSON_DEPTH => {
            Err(format!("nesting deeper than {MAX_JSON_DEPTH} at offset {pos}"))
        }
        Some(b'{') => parse_object(bytes, pos + 1, depth + 1),
        Some(b'[') => parse_array(bytes, pos + 1, depth + 1),
        Some(b'"') => {
            let (s, next) = parse_string(bytes, pos + 1)?;
            Ok((Json::Str(s), next))
        }
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(bytes: &[u8], pos: usize, lit: &str, value: Json) -> Result<(Json, usize), String> {
    let end = pos + lit.len();
    if bytes.get(pos..end) == Some(lit.as_bytes()) {
        Ok((value, end))
    } else {
        Err(format!("invalid literal at offset {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: usize) -> Result<(Json, usize), String> {
    let mut end = pos;
    while matches!(bytes.get(end), Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')) {
        end += 1;
    }
    let text = bytes
        .get(pos..end)
        .and_then(|s| std::str::from_utf8(s).ok())
        .ok_or_else(|| format!("invalid number at offset {pos}"))?;
    let n: f64 = text.parse().map_err(|_| format!("invalid number {text:?} at offset {pos}"))?;
    if !n.is_finite() {
        return Err(format!("non-finite number at offset {pos}"));
    }
    Ok((Json::Num(n), end))
}

fn parse_string(bytes: &[u8], mut pos: usize) -> Result<(String, usize), String> {
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            Some(b'"') => return Ok((out, pos + 1)),
            Some(b'\\') => {
                match bytes.get(pos + 1) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    other => {
                        return Err(format!("unsupported escape {other:?} at offset {pos}"));
                    }
                }
                pos += 2;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8: copy the whole scalar.
                let tail = bytes.get(pos..).unwrap_or_default();
                let s = std::str::from_utf8(tail)
                    .map_err(|_| format!("invalid utf-8 at offset {pos}"))?;
                let ch = s.chars().next().ok_or_else(|| "truncated string".to_string())?;
                out.push(ch);
                pos += ch.len_utf8();
            }
            None => return Err("unterminated string".to_string()),
        }
    }
}

fn parse_array(bytes: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut items = Vec::new();
    pos = skip_ws(bytes, pos);
    if bytes.get(pos) == Some(&b']') {
        return Ok((Json::Arr(items), pos + 1));
    }
    loop {
        let (value, next) = parse_value(bytes, pos, depth)?;
        items.push(value);
        pos = skip_ws(bytes, next);
        match bytes.get(pos) {
            Some(b',') => pos = skip_ws(bytes, pos + 1),
            Some(b']') => return Ok((Json::Arr(items), pos + 1)),
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), String> {
    let mut pairs = Vec::new();
    pos = skip_ws(bytes, pos);
    if bytes.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(pairs), pos + 1));
    }
    loop {
        pos = skip_ws(bytes, pos);
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let (key, next) = parse_string(bytes, pos + 1)?;
        pos = skip_ws(bytes, next);
        if bytes.get(pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        let (value, next) = parse_value(bytes, pos + 1, depth)?;
        pairs.push((key, value));
        pos = skip_ws(bytes, next);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return Ok((Json::Obj(pairs), pos + 1)),
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

/// Escapes a string for embedding in a JSON document.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

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
        let doc = parse_json(&text).map_err(PlanCacheError::Parse)?;
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

fn list_json<T>(items: &[T], item: impl Fn(&T) -> String) -> String {
    let items: Vec<String> = items.iter().map(item).collect();
    format!("[{}]", items.join(","))
}

fn grid_json(grid: &BlockGrid) -> String {
    let segs =
        |pairs: &[(usize, usize)]| list_json(pairs, |(start, size)| format!("[{start},{size}]"));
    format!(
        "{{\"h\":{},\"w\":{},\"rows\":{},\"cols\":{}}}",
        grid.h(),
        grid.w(),
        segs(grid.row_segments()),
        segs(grid.col_segments())
    )
}

/// Serializes plan decisions (with their key) to the cache document form.
pub(crate) fn serialize_decisions(key: &PlanKey, decisions: &PlanDecisions) -> String {
    let ids = |nodes: &[NodeId]| list_json(nodes, NodeId::to_string);
    let report = &decisions.report;
    let splices = list_json(&report.splices, |s| {
        format!(
            "{{\"from\":{},\"to\":{},\"saved\":{}}}",
            s.from_node, s.to_node, s.saved_offchip_elems
        )
    });
    let segments: Vec<String> = decisions
        .segments
        .iter()
        .map(|seg| match seg {
            SegmentDecision::Single(id) => format!("    {{\"node\":{id}}}"),
            SegmentDecision::Groups(groups) => {
                let groups = list_json(groups, |g| {
                    format!("{{\"nodes\":{},\"grid\":{}}}", ids(&g.nodes), grid_json(&g.grid))
                });
                format!("    {{\"groups\":{groups}}}")
            }
        })
        .collect();
    format!(
        "{{\n  \"version\": {SCHEMA_VERSION},\n  \"key\": \"{}\",\n  \"pattern\": \"{}\",\n  \
         \"report\": {{\"cost_model\":\"{}\",\"cost_cuts\":{},\"splices\":{splices}}},\n  \
         \"segments\": [\n{}\n  ]\n}}\n",
        escape_json(&key.canonical()),
        decisions.pattern,
        escape_json(&report.cost_model),
        ids(&report.cost_cuts),
        segments.join(",\n")
    )
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
    field(obj, name)?.as_arr().ok_or_else(|| not_a(name))
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
            .map(|pair| match pair.as_arr() {
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
    fn json_round_trips_plan_shapes() {
        let doc = parse_json(
            "{\"version\": 1, \"arr\": [[0,16],[16,16]], \"s\": \"a|b\", \"neg\": -1, \
             \"none\": null, \"t\": true}",
        )
        .unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("neg").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None, "negatives are not u64");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a|b"));
        assert_eq!(doc.get("none"), Some(&Json::Null));
        assert_eq!(doc.get("t"), Some(&Json::Bool(true)));
        let arr = doc.get("arr").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[1].as_arr().unwrap()[0].as_usize(), Some(16));
    }

    #[test]
    fn malformed_json_is_an_error_not_a_panic() {
        for bad in ["", "{", "{\"a\":}", "[1,", "{\"a\" 1}", "{} trailing", "nul", "1e999"] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        // 20 kB of `[` used to recurse once per byte and abort the process.
        for open in ["[", "{\"a\":", "[{\"a\":"] {
            let err = parse_json(&open.repeat(20_000)).unwrap_err();
            assert!(err.contains("nesting"), "{err}");
        }
        // A real plan document's depth stays well inside the cap.
        let nested = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
        assert!(parse_json(&nested).is_ok());
        assert!(parse_json(&format!("[{nested}]")).is_err());
    }

    #[test]
    fn integers_past_u64_are_rejected_not_saturated() {
        // 2^64 parses to exactly `u64::MAX as f64`; the cast would saturate.
        for big in ["18446744073709551616", "18446744073709551615", "1e300"] {
            let doc = parse_json(big).unwrap();
            assert_eq!(doc.as_u64(), None, "{big}");
            assert_eq!(doc.as_usize(), None, "{big}");
        }
        // The largest integer below 2^64 an f64 holds still converts.
        assert_eq!(parse_json("18446744073709549568").unwrap().as_u64(), Some(u64::MAX - 2047));
    }

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
                    let doc = parse_json(&text).unwrap();
                    assert_eq!(doc.get("key").and_then(Json::as_str), Some(&*key.canonical()));
                    assert_eq!(parse_decisions(&doc).unwrap(), decisions, "{text}");
                }
            }
        }
        assert!(splices > 0, "the AccelCost configuration must exercise spliced segments");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t";
        let doc = parse_json(&format!("{{\"k\":\"{}\"}}", escape_json(s))).unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some(s));
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
