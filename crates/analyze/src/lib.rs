//! `bconv-analyze`: workspace invariant analyzer for the block-convolution
//! workspace. Enforces, in CI (`cargo run -p bconv-analyze`):
//!
//! - **L1 no-hot-path-alloc** — *allocation reachability*: a call graph
//!   built from every file's symbols is seeded with the true hot entry
//!   points (`Session::run_with`, `ServeEngine::submit`/`wait`,
//!   `worker_loop`, executor `run_scratch` impls) and hotness propagates
//!   to every reachable function, where `Vec::new`, `vec![]`,
//!   `with_capacity`, `to_vec`, `collect()`, `Tensor::zeros`, `Box::new`,
//!   and `format!` are banned except at allowlisted sites. Callees the
//!   resolver cannot match are reported as **frontier** nodes so the
//!   analysis's blind spots stay visible.
//! - **L2 no-weight-deep-clone** — `.clone()` on conv-weight-like
//!   receivers outside `Arc::clone`, so weights stay shared, not copied.
//! - **L3 no-unordered-iteration** — `HashMap`/`HashSet` in planning,
//!   execution, and serve modules, where iteration order would make plans
//!   or results nondeterministic.
//! - **L4 panic-ratchet** — `unwrap()`/`expect()`/`panic!` in non-test
//!   code, counted per file against a committed baseline that may only
//!   decrease.
//! - **L5 lock-order** — locks held across blocking calls (`recv`/`send`/
//!   `wait`/`join`, directly or through the call graph), relocks, and
//!   pairwise lock-order conflicts across the workspace.
//! - **L6 float-determinism** — order/contraction-sensitive float
//!   constructs (`mul_add`, `powf`, float `sum()`/`product()` turbofish
//!   reductions, float atomics) in kernel/exec/serve modules, so
//!   `target-cpu=native` can never silently change bits.
//!
//! The analyzer is self-contained (hand-written lexer, no `syn`) and
//! analyzes its own source too. Each file is lexed exactly once; the
//! token stream feeds both the per-file lints and the symbol resolver.
//! Policy data lives in `analyze/`: `allowlist.txt` (justified L1–L3/
//! L5/L6 sites, exact-count matched) and `panic_ratchet.txt` (L4
//! baseline, regenerated with `--write-ratchet`). `--json <path>` writes
//! a machine-readable report that CI uploads as an artifact.

#![forbid(unsafe_code)]

pub mod graph;
pub mod lexer;
pub mod lints;
pub mod resolve;

use graph::{CallGraph, FrontierEdge};
use lints::{Config, FileReport, Finding, Lint};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// An entry in `analyze/allowlist.txt`:
/// `LINT file fn construct count -- justification`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    pub lint: Lint,
    pub file: String,
    pub func: String,
    pub construct: String,
    pub count: usize,
    pub justification: String,
}

/// Parse the allowlist file. Lines starting with `#` and blank lines are
/// comments. Every entry must carry a non-empty justification after `--`.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, justification) = line
            .split_once(" -- ")
            .ok_or_else(|| format!("allowlist line {}: missing ` -- justification`", lineno + 1))?;
        let justification = justification.trim();
        if justification.is_empty() {
            return Err(format!("allowlist line {}: empty justification", lineno + 1));
        }
        let fields: Vec<&str> = head.split_whitespace().collect();
        let [lint, file, func, construct, count] = fields.as_slice() else {
            return Err(format!(
                "allowlist line {}: want `LINT file fn construct count -- why`, got {} fields",
                lineno + 1,
                fields.len()
            ));
        };
        let lint = Lint::from_id(lint)
            .filter(|l| *l != Lint::PanicRatchet)
            .ok_or_else(|| format!("allowlist line {}: bad lint id {lint:?}", lineno + 1))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", lineno + 1))?;
        entries.push(AllowEntry {
            lint,
            file: (*file).to_string(),
            func: (*func).to_string(),
            construct: (*construct).to_string(),
            count,
            justification: justification.to_string(),
        });
    }
    Ok(entries)
}

/// Outcome of matching findings against the allowlist: leftover violations
/// plus stale entries (allowlisted sites that no longer exist or whose
/// count drifted — both fail, so the allowlist can never rot).
#[derive(Debug, Default)]
pub struct GateResult {
    pub violations: Vec<Finding>,
    pub stale: Vec<String>,
}

impl GateResult {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Apply the allowlist to L1–L3 findings. An entry absorbs *exactly*
/// `count` findings with the same (lint, file, fn, construct); fewer or
/// more is a mismatch reported as stale.
pub fn apply_allowlist(findings: &[Finding], allow: &[AllowEntry]) -> GateResult {
    let mut grouped: BTreeMap<(String, String, String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        grouped
            .entry((f.lint.id().to_string(), f.file.clone(), f.func.clone(), f.construct.clone()))
            .or_default()
            .push(f.clone());
    }
    let mut result = GateResult::default();
    let mut matched: Vec<(String, String, String, String)> = Vec::new();
    for e in allow {
        let key = (e.lint.id().to_string(), e.file.clone(), e.func.clone(), e.construct.clone());
        match grouped.get(&key) {
            Some(hits) if hits.len() == e.count => matched.push(key),
            Some(hits) => result.stale.push(format!(
                "{} {} `{}` `{}`: allowlist says {} site(s), found {} — update the entry",
                e.lint.id(),
                e.file,
                e.func,
                e.construct,
                e.count,
                hits.len()
            )),
            None => result.stale.push(format!(
                "{} {} `{}` `{}`: allowlisted but no such site remains — delete the entry",
                e.lint.id(),
                e.file,
                e.func,
                e.construct
            )),
        }
    }
    for (key, hits) in grouped {
        if !matched.contains(&key) {
            result.violations.extend(hits);
        }
    }
    result
}

/// Parse `analyze/panic_ratchet.txt`: `count path` per line.
pub fn parse_ratchet(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut map = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (count, file) = line
            .split_once(' ')
            .ok_or_else(|| format!("ratchet line {}: want `count path`", lineno + 1))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("ratchet line {}: bad count {count:?}", lineno + 1))?;
        map.insert(file.trim().to_string(), count);
    }
    Ok(map)
}

/// Render the ratchet file from per-file counts (zero-count files omitted).
pub fn render_ratchet(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# bconv-analyze L4 panic ratchet: `unwrap()`/`expect()`/`panic!` sites in\n\
         # non-test code, per file. CI fails if any file's count rises above its\n\
         # baseline here. After burning sites down, regenerate with:\n\
         #   cargo run -p bconv-analyze -- --write-ratchet\n",
    );
    for (file, count) in counts {
        if *count > 0 {
            let _ = writeln!(out, "{count} {file}");
        }
    }
    out
}

/// Per-file ratchet verdicts.
#[derive(Debug, Default)]
pub struct RatchetResult {
    /// Files whose L4 count rose above baseline: (file, baseline, now).
    pub regressions: Vec<(String, usize, usize)>,
    /// Files now below baseline: (file, baseline, now) — regenerate.
    pub improvements: Vec<(String, usize, usize)>,
}

/// Compare current counts against the committed baseline. A file absent
/// from the baseline has baseline 0, so brand-new panics always regress.
pub fn check_ratchet(
    baseline: &BTreeMap<String, usize>,
    current: &BTreeMap<String, usize>,
) -> RatchetResult {
    let mut result = RatchetResult::default();
    for (file, &now) in current {
        let base = baseline.get(file).copied().unwrap_or(0);
        if now > base {
            result.regressions.push((file.clone(), base, now));
        } else if now < base {
            result.improvements.push((file.clone(), base, now));
        }
    }
    for (file, &base) in baseline {
        if base > 0 && !current.contains_key(file) {
            result.improvements.push((file.clone(), base, 0));
        }
    }
    result
}

/// Everything the workspace scan produced, pre-gating.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// L1–L3/L5/L6 findings across all files.
    pub findings: Vec<Finding>,
    /// L4 sites per file (only files with at least one site).
    pub panic_sites: BTreeMap<String, Vec<Finding>>,
    /// Number of files scanned.
    pub files: usize,
    /// Number of [`lexer::lex`] calls the scan made. One per file: the
    /// per-file lints and the symbol resolver take the token stream, never
    /// the source text (`tests/lex_once.rs`).
    pub lex_calls: usize,
    /// Number of definitions matched by the configured entry points.
    pub entry_matches: usize,
    /// Qualified names of every function the reachability walk marked hot
    /// (sorted, deduplicated) — the derived replacement for the old
    /// hand-maintained hot-fn list.
    pub hot_fns: Vec<String>,
    /// Unresolved callees reachable from the entry points. Not gated —
    /// surfaced so the analysis's conservatism gaps are visible.
    pub frontier: Vec<FrontierEdge>,
    /// Observed pairwise lock orders `(outer, inner)` across the
    /// workspace (for the report; conflicts are already L5 findings).
    pub lock_orders: Vec<(String, String)>,
}

impl WorkspaceReport {
    /// Per-file L4 counts in ratchet-file form.
    pub fn panic_counts(&self) -> BTreeMap<String, usize> {
        self.panic_sites.iter().map(|(f, sites)| (f.clone(), sites.len())).collect()
    }
}

/// Analyze a set of in-memory sources (`(workspace-relative path, text)`
/// pairs). This is the whole pipeline: each file is lexed **once**, the
/// stream feeds the per-file lints (L2/L3/L4/L6) and the symbol resolver,
/// then the call graph runs allocation reachability (L1) and the lock
/// lint (L5) over everything together.
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> WorkspaceReport {
    let mut report = WorkspaceReport::default();
    let mut streams: Vec<Vec<lexer::Token>> = Vec::with_capacity(sources.len());
    let mut syms: Vec<resolve::FileSyms> = Vec::with_capacity(sources.len());
    for (file, src) in sources {
        let toks = lexer::lex(src);
        report.lex_calls += 1;
        let FileReport { findings, panic_sites } = lints::scan_tokens(file, &toks, cfg);
        report.findings.extend(findings);
        if !panic_sites.is_empty() {
            report.panic_sites.insert(file.clone(), panic_sites);
        }
        syms.push(resolve::resolve_file(file, &toks));
        streams.push(toks);
        report.files += 1;
    }

    let cg = CallGraph::build(&syms);
    let reach = cg.reach(&cfg.entry_points);
    report.entry_matches = reach.seeds;
    report.frontier = reach.frontier;
    for i in 0..cg.len() {
        if !reach.hot[i] {
            continue;
        }
        let fi = cg.file_index(i);
        let def = cg.def(i);
        report.hot_fns.push(def.qualified());
        report.findings.extend(lints::alloc_sites(&streams[fi], &syms[fi].defs, def));
    }
    report.hot_fns.sort();
    report.hot_fns.dedup();

    let (lock_findings, lock_orders) = cg.lock_lint();
    report.findings.extend(lock_findings);
    report.lock_orders = lock_orders;
    report
}

/// Minimal JSON string escape (quotes, backslashes, control chars).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable report CI uploads as an artifact.
///
/// Deliberately *not* built on the workspace codec (`bconv_graph::json`):
/// the analyzer must build and run when the crates it lints do not
/// compile, so it depends on none of them and keeps this write-only
/// emitter. The root test `tests/json_codec.rs` holds its output to the
/// shared reader.
pub fn render_json(report: &WorkspaceReport, gate: &GateResult) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"files\": {},", report.files);
    let _ = writeln!(out, "  \"entry_matches\": {},", report.entry_matches);

    let items: Vec<String> =
        report.hot_fns.iter().map(|f| format!("\"{}\"", json_escape(f))).collect();
    let _ = writeln!(out, "  \"hot_fns\": [{}],", items.join(", "));

    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"func\": \"{}\", \"construct\": \"{}\"}}",
                f.lint.id(),
                json_escape(&f.file),
                f.line,
                json_escape(&f.func),
                json_escape(&f.construct)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"findings\": [\n{}\n  ],", findings.join(",\n"));

    let counts: Vec<String> = report
        .panic_counts()
        .iter()
        .map(|(f, n)| format!("    {{\"file\": \"{}\", \"count\": {n}}}", json_escape(f)))
        .collect();
    let _ = writeln!(out, "  \"panic_counts\": [\n{}\n  ],", counts.join(",\n"));

    let frontier: Vec<String> = report
        .frontier
        .iter()
        .map(|e| {
            format!(
                "    {{\"file\": \"{}\", \"func\": \"{}\", \"callee\": \"{}\", \"line\": {}}}",
                json_escape(&e.file),
                json_escape(&e.func),
                json_escape(&e.callee),
                e.line
            )
        })
        .collect();
    let _ = writeln!(out, "  \"frontier\": [\n{}\n  ],", frontier.join(",\n"));

    let orders: Vec<String> = report
        .lock_orders
        .iter()
        .map(|(a, b)| format!("[\"{}\", \"{}\"]", json_escape(a), json_escape(b)))
        .collect();
    let _ = writeln!(out, "  \"lock_orders\": [{}],", orders.join(", "));

    let violations: Vec<String> =
        gate.violations.iter().map(|f| format!("\"{}\"", json_escape(&f.to_string()))).collect();
    let stale: Vec<String> = gate.stale.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
    let _ = writeln!(
        out,
        "  \"gate\": {{\"clean\": {}, \"violations\": [{}], \"stale\": [{}]}}",
        gate.is_clean(),
        violations.join(", "),
        stale.join(", ")
    );
    out.push('}');
    out.push('\n');
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.map(|e| e.map(|e| e.path())).collect::<Result<_, _>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan every `crates/*/src` tree plus the facade `src/` under `root`.
/// Paths in the report are root-relative with `/` separators.
pub fn scan_workspace(root: &Path, cfg: &Config) -> Result<WorkspaceReport, String> {
    let mut roots: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    let facade = root.join("src");
    if facade.is_dir() {
        roots.push(facade);
    }

    let mut files: Vec<PathBuf> = Vec::new();
    for r in &roots {
        collect_rs_files(r, &mut files).map_err(|e| format!("walking {}: {e}", r.display()))?;
    }

    let mut sources: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources, cfg))
}
