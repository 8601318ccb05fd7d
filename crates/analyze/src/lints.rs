//! The workspace lints, run over the token stream from [`crate::lexer`]
//! with a lightweight structural scan (brace depth, enclosing-function
//! name, `#[cfg(test)]` scope).
//!
//! | id | name                   | scope                                  |
//! |----|------------------------|----------------------------------------|
//! | L1 | no-hot-path-alloc      | every fn reachable from an entry point |
//! | L2 | no-weight-deep-clone   | all non-test code                      |
//! | L3 | no-unordered-iteration | restricted (plan/exec/serve) files     |
//! | L4 | panic-ratchet          | all non-test code, counted per file    |
//! | L5 | lock-order             | whole-workspace call graph             |
//! | L6 | float-determinism      | kernel/exec/serve modules              |
//!
//! L2/L3/L4/L6 are per-file token walks living here. L1 and L5 are
//! *interprocedural*: they run over the call graph in [`crate::graph`],
//! fed by the symbols from [`crate::resolve`] — the hot set is derived
//! from entry-point reachability, never hand-listed. All of L1–L3, L5,
//! and L6 produce [`Finding`]s that must be covered by the committed
//! allowlist (`analyze/allowlist.txt`); L4 produces a per-file count
//! compared against the committed baseline (`analyze/panic_ratchet.txt`)
//! that may only go down.

use crate::graph::EntryPoint;
use crate::lexer::{lex, Tok, Token};
use crate::resolve::FnDef;

/// Lint identifiers, in severity-agnostic declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: banned allocating constructs in any entry-point-reachable fn.
    HotPathAlloc,
    /// L2: `.clone()` on a conv-weight-like receiver outside `Arc::clone`.
    WeightDeepClone,
    /// L3: `HashMap`/`HashSet` in planning/execution/serve modules.
    UnorderedIteration,
    /// L4: `unwrap()`/`expect()`/`panic!` in non-test code (ratcheted).
    PanicRatchet,
    /// L5: lock held across a blocking call, relocked, or acquired in an
    /// order that conflicts with another site in the workspace.
    LockOrder,
    /// L6: order/contraction-sensitive float constructs in kernel code.
    FloatDeterminism,
}

impl Lint {
    /// Stable short id used in reports and the allowlist file.
    pub fn id(self) -> &'static str {
        match self {
            Lint::HotPathAlloc => "L1",
            Lint::WeightDeepClone => "L2",
            Lint::UnorderedIteration => "L3",
            Lint::PanicRatchet => "L4",
            Lint::LockOrder => "L5",
            Lint::FloatDeterminism => "L6",
        }
    }

    /// Parse an allowlist lint id (L4 uses the ratchet file instead).
    pub fn from_id(s: &str) -> Option<Lint> {
        match s {
            "L1" => Some(Lint::HotPathAlloc),
            "L2" => Some(Lint::WeightDeepClone),
            "L3" => Some(Lint::UnorderedIteration),
            "L4" => Some(Lint::PanicRatchet),
            "L5" => Some(Lint::LockOrder),
            "L6" => Some(Lint::FloatDeterminism),
            _ => None,
        }
    }
}

/// One lint hit at a specific site.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    pub line: u32,
    /// Enclosing named function, or `-` at item scope.
    pub func: String,
    /// The banned construct, e.g. `vec!`, `Tensor::zeros`, `clone:weights`,
    /// `results->recv`, `order:a->b`, `mul_add`.
    pub construct: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} in `{}`: `{}`",
            self.lint.id(),
            self.file,
            self.line,
            self.func,
            self.construct
        )
    }
}

/// What the lints need to know about the workspace. The defaults in
/// [`Config::workspace`] are the committed policy; tests construct custom
/// configs to exercise each lint in isolation.
pub struct Config {
    /// Hot-path entry points (L1). Reachability from these — through the
    /// call graph — defines the hot set; there is no function-name list
    /// to keep in sync with the code.
    pub entry_points: Vec<EntryPoint>,
    /// Path suffixes of modules where unordered containers are banned (L3).
    pub restricted_files: Vec<String>,
    /// Substrings that mark a `.clone()` receiver as weight-like (L2).
    pub weight_receivers: Vec<String>,
    /// Path suffixes of kernel/exec/serve modules where float results must
    /// be bitwise deterministic (L6).
    pub float_files: Vec<String>,
}

impl Config {
    /// The policy enforced in CI for this workspace.
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect();
        Config {
            entry_points: vec![
                // The public inference spine…
                EntryPoint::new("run_with", Some("Session")),
                // …the serving front door (blocking, polling, and the
                // router's sharded equivalents)…
                EntryPoint::new("submit", Some("ServeEngine")),
                EntryPoint::new("wait", Some("ServeEngine")),
                EntryPoint::new("poll", Some("ServeEngine")),
                EntryPoint::new("submit", Some("Router")),
                EntryPoint::new("wait", Some("Router")),
                EntryPoint::new("poll", Some("Router")),
                EntryPoint::new("worker_loop", None),
                // …the deadline shed path (runs per dequeue wave)…
                EntryPoint::new("shed_expired", None),
                // …and every executor's scratch-path impl.
                EntryPoint::new("run_scratch", None),
            ],
            restricted_files: s(&[
                "crates/graph/src/plan.rs",
                "crates/graph/src/exec.rs",
                "crates/graph/src/serve.rs",
                "crates/graph/src/serve/router.rs",
                "crates/graph/src/serve/metrics.rs",
                "crates/graph/src/session.rs",
                "crates/graph/src/cost.rs",
                "crates/graph/src/quantize.rs",
                "crates/graph/src/cache.rs",
                "crates/graph/src/json.rs",
                "crates/graph/src/tune.rs",
                "crates/core/src/fusion.rs",
                "crates/core/src/plan.rs",
            ]),
            weight_receivers: s(&["weight", "conv", "kernel"]),
            float_files: s(&[
                "crates/tensor/src/kernel.rs",
                "crates/tensor/src/kernel/plane.rs",
                "crates/tensor/src/kernel/lane_tile.rs",
                "crates/tensor/src/conv.rs",
                "crates/tensor/src/linear.rs",
                "crates/tensor/src/activation.rs",
                "crates/tensor/src/elementwise.rs",
                "crates/tensor/src/pool.rs",
                "crates/tensor/src/upsample.rs",
                "crates/tensor/src/pad.rs",
                "crates/quant/src/qgemm.rs",
                "crates/quant/src/qconv.rs",
                "crates/quant/src/qlinear.rs",
                "crates/core/src/fusion.rs",
                "crates/graph/src/exec.rs",
                "crates/graph/src/serve.rs",
                "crates/graph/src/serve/router.rs",
                "crates/graph/src/serve/metrics.rs",
                "crates/graph/src/quantize.rs",
                "crates/graph/src/cache.rs",
                "crates/graph/src/tune.rs",
            ]),
        }
    }

    fn is_restricted(&self, file: &str) -> bool {
        self.restricted_files.iter().any(|r| file.ends_with(r.as_str()))
    }

    fn is_float_file(&self, file: &str) -> bool {
        self.float_files.iter().any(|r| file.ends_with(r.as_str()))
    }
}

/// Result of scanning one source file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// L2/L3/L6 findings (allowlist-gated). L1 and L5 are produced by the
    /// workspace pass, not per file.
    pub findings: Vec<Finding>,
    /// L4 sites in non-test code (ratchet-gated; `findings` excludes them).
    pub panic_sites: Vec<Finding>,
}

impl FileReport {
    /// Number of L4 sites — the per-file ratchet metric.
    pub fn panic_count(&self) -> usize {
        self.panic_sites.len()
    }
}

/// Structural scanner state threaded through the token walk.
struct Scan {
    depth: u32,
    /// Brace depths at which `#[cfg(test)]`/`#[test]` regions opened.
    test_open: Vec<u32>,
    /// `(name, body depth)` for every enclosing named `fn`.
    fn_stack: Vec<(String, u32)>,
    /// Attribute with `test` seen; applies to the next `{` body.
    pending_test: bool,
    /// `fn name` seen; the next `{` is its body.
    pending_fn: Option<String>,
    /// The token after `fn` names the function.
    expect_fn_name: bool,
}

impl Scan {
    fn in_test(&self) -> bool {
        !self.test_open.is_empty()
    }

    fn current_fn(&self) -> &str {
        self.fn_stack.last().map_or("-", |(name, _)| name.as_str())
    }
}

/// Scan an attribute starting at `toks[i]` (which is `#`). Returns the
/// index just past the closing `]` and whether the attribute marks test
/// code (`test` present, `not` absent — so `#[cfg(not(test))]` is live).
fn scan_attr(toks: &[Token], i: usize) -> (usize, bool) {
    crate::resolve::scan_attr(toks, i)
}

/// Match an L1 banned construct ending/starting at index `i`.
/// Returns the construct's canonical allowlist name.
fn hot_alloc_at(toks: &[Token], i: usize) -> Option<&'static str> {
    let id = toks[i].ident()?;
    let prev = |k: usize| i.checked_sub(k).map(|j| &toks[j]);
    let next = |k: usize| toks.get(i + k);
    let after_path_sep =
        prev(1).is_some_and(|t| t.is_punct(':')) && prev(2).is_some_and(|t| t.is_punct(':'));
    let after_dot = prev(1).is_some_and(|t| t.is_punct('.'));
    let before_bang = next(1).is_some_and(|t| t.is_punct('!'));
    match id {
        "vec" if before_bang => Some("vec!"),
        "format" if before_bang => Some("format!"),
        "new" if after_path_sep && prev(3).and_then(Token::ident) == Some("Vec") => {
            Some("Vec::new")
        }
        "new" if after_path_sep && prev(3).and_then(Token::ident) == Some("Box") => {
            Some("Box::new")
        }
        "zeros" if after_path_sep && prev(3).and_then(Token::ident) == Some("Tensor") => {
            Some("Tensor::zeros")
        }
        "with_capacity" if after_path_sep || after_dot => Some("with_capacity"),
        "to_vec" if after_dot => Some("to_vec"),
        "collect" if after_dot => Some("collect"),
        _ => None,
    }
}

/// The L1 pass for one *reachable* definition: banned allocating
/// constructs anywhere in its body, skipping nested named definitions
/// (they have their own reachability) but keeping closures (they run on
/// the enclosing function's path).
pub fn alloc_sites(toks: &[Token], defs: &[FnDef], def: &FnDef) -> Vec<Finding> {
    if def.is_test {
        return Vec::new();
    }
    let skip = crate::resolve::child_spans(defs, def);
    let mut out = Vec::new();
    for i in def.body.0..def.body.1.min(toks.len()) {
        if crate::resolve::in_spans(&skip, i) {
            continue;
        }
        if let Some(construct) = hot_alloc_at(toks, i) {
            out.push(Finding {
                lint: Lint::HotPathAlloc,
                file: def.file.clone(),
                line: toks[i].line,
                func: def.name.clone(),
                construct: construct.to_string(),
            });
        }
    }
    out
}

/// Match an L4 panic construct at index `i`; returns its display name.
fn panic_site_at(toks: &[Token], i: usize) -> Option<&'static str> {
    let id = toks[i].ident()?;
    let after_dot = i > 0 && toks[i - 1].is_punct('.');
    let before_call = toks.get(i + 1).is_some_and(|t| t.is_punct('('));
    let before_bang = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
    match id {
        "unwrap" if after_dot && before_call => Some("unwrap()"),
        "expect" if after_dot && before_call => Some("expect()"),
        "panic" if before_bang => Some("panic!"),
        _ => None,
    }
}

/// Match an L6 float-determinism construct at index `i`. Bans, inside
/// kernel modules: fused `mul_add` (contraction differs per target),
/// `powf` (libm varies), float `sum::<f32/f64>()`/`product` turbofish
/// reductions (order-sensitive), and float atomics.
fn float_det_at(toks: &[Token], i: usize) -> Option<String> {
    let id = toks[i].ident()?;
    let prev = |k: usize| i.checked_sub(k).map(|j| &toks[j]);
    let next = |k: usize| toks.get(i + k);
    let after_dot = prev(1).is_some_and(|t| t.is_punct('.'));
    let before_call = next(1).is_some_and(|t| t.is_punct('('));
    match id {
        "mul_add" | "powf" if after_dot && before_call => Some(id.to_string()),
        "sum" | "product" if after_dot => {
            // `.sum::<f32>()` turbofish: `sum :: < f32 > (`
            let turbofish_float = next(1).is_some_and(|t| t.is_punct(':'))
                && next(2).is_some_and(|t| t.is_punct(':'))
                && next(3).is_some_and(|t| t.is_punct('<'))
                && matches!(next(4).and_then(Token::ident), Some("f32" | "f64"));
            if turbofish_float {
                let ty = next(4).and_then(Token::ident).unwrap_or("f32");
                Some(format!("{id}::<{ty}>"))
            } else {
                None
            }
        }
        "AtomicF32" | "AtomicF64" => Some(id.to_string()),
        _ => None,
    }
}

/// Scan one source file's tokens and apply the per-file lints (L2, L3,
/// L4, L6). `file` is the workspace-relative path used in findings and
/// for the L3/L6 module matching. The interprocedural lints (L1, L5) run
/// in [`crate::analyze_sources`] over the same token streams.
pub fn scan_tokens(file: &str, toks: &[Token], cfg: &Config) -> FileReport {
    let restricted = cfg.is_restricted(file);
    let float_file = cfg.is_float_file(file);
    let mut scan = Scan {
        depth: 0,
        test_open: Vec::new(),
        fn_stack: Vec::new(),
        pending_test: false,
        pending_fn: None,
        expect_fn_name: false,
    };
    let mut report = FileReport::default();
    // `[`-nesting: a `;` inside an array type (`[usize; 4]`) is not a
    // statement terminator and must not cancel a pending fn name.
    let mut brackets = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];

        // --- structure: attributes, braces, fn names -------------------
        if t.is_punct('#') {
            let (next_i, is_test) = scan_attr(toks, i);
            if next_i > i + 1 {
                scan.pending_test |= is_test;
                i = next_i;
                continue;
            }
        }
        match &t.tok {
            Tok::Punct('{') => {
                scan.depth += 1;
                if scan.pending_test {
                    scan.test_open.push(scan.depth);
                    scan.pending_test = false;
                }
                if let Some(name) = scan.pending_fn.take() {
                    scan.fn_stack.push((name, scan.depth));
                }
            }
            Tok::Punct('}') => {
                if scan.test_open.last() == Some(&scan.depth) {
                    scan.test_open.pop();
                }
                if scan.fn_stack.last().map(|(_, d)| *d) == Some(scan.depth) {
                    scan.fn_stack.pop();
                }
                scan.depth = scan.depth.saturating_sub(1);
            }
            Tok::Punct('[') => brackets += 1,
            Tok::Punct(']') => brackets -= 1,
            Tok::Punct(';') if brackets == 0 => {
                // `#[cfg(test)] use x;` or a trait method declaration:
                // the pending marker never found a body.
                scan.pending_test = false;
                scan.pending_fn = None;
            }
            Tok::Ident(s) if s == "fn" => {
                scan.expect_fn_name = true;
                i += 1;
                continue;
            }
            Tok::Ident(name) if scan.expect_fn_name => {
                scan.pending_fn = Some(name.clone());
                scan.expect_fn_name = false;
            }
            _ => {}
        }
        if scan.expect_fn_name && t.ident().is_none() {
            scan.expect_fn_name = false; // `fn(` pointer type, not an item
        }

        // --- lints ------------------------------------------------------
        let in_test = scan.in_test();
        let func = scan.current_fn();

        // L3 applies to the whole restricted file, tests included: a
        // `use std::collections::HashMap` at the top serves both.
        if restricted {
            if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
                report.findings.push(Finding {
                    lint: Lint::UnorderedIteration,
                    file: file.to_string(),
                    line: t.line,
                    func: func.to_string(),
                    construct: id.to_string(),
                });
            }
        }

        if !in_test {
            // L2: `.clone()` whose receiver ident looks weight-like.
            // `Arc::clone(&x)` has no `.` so it never matches.
            if t.ident() == Some("clone")
                && i >= 2
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                if let Some(recv) = toks[i - 2].ident() {
                    let lower = recv.to_lowercase();
                    if cfg.weight_receivers.iter().any(|w| lower.contains(w.as_str())) {
                        report.findings.push(Finding {
                            lint: Lint::WeightDeepClone,
                            file: file.to_string(),
                            line: t.line,
                            func: func.to_string(),
                            construct: format!("clone:{recv}"),
                        });
                    }
                }
            }

            // L4: panic-ratchet sites.
            if let Some(construct) = panic_site_at(toks, i) {
                report.panic_sites.push(Finding {
                    lint: Lint::PanicRatchet,
                    file: file.to_string(),
                    line: t.line,
                    func: func.to_string(),
                    construct: construct.to_string(),
                });
            }

            // L6: order/contraction-sensitive float constructs.
            if float_file {
                if let Some(construct) = float_det_at(toks, i) {
                    report.findings.push(Finding {
                        lint: Lint::FloatDeterminism,
                        file: file.to_string(),
                        line: t.line,
                        func: func.to_string(),
                        construct,
                    });
                }
            }
        }
        i += 1;
    }
    report
}

/// Lex one file and apply the per-file lints. Convenience wrapper over
/// [`scan_tokens`] for single-file callers (tests); the workspace driver
/// lexes each file exactly once and shares the stream between this walk
/// and symbol resolution.
pub fn scan_source(file: &str, src: &str, cfg: &Config) -> FileReport {
    scan_tokens(file, &lex(src), cfg)
}
