//! The workspace lints, run over the token stream from [`crate::lexer`]
//! as per-token checks inside [`crate::resolve::find_defs`]' walk, which
//! hands each token its innermost enclosing definition and test scope.
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
//! L2/L3/L4/L6 are judged per token. L1 and L5 are *interprocedural*:
//! they run over the call graph in [`crate::graph`], fed by the symbols
//! from [`crate::resolve`] — the hot set is derived from entry-point
//! reachability, never hand-listed. The checks file the L1 constructs on
//! every definition; the workspace pass keeps those of hot ones.
//! All of L1–L3, L5, and L6 produce [`Finding`]s that must be covered by
//! the committed allowlist (`analyze/allowlist.txt`); L4 produces a
//! per-file count compared against the committed baseline
//! (`analyze/panic_ratchet.txt`) that may only go down.

use crate::graph::EntryPoint;
use crate::lexer::{lex, Token};
use crate::resolve::{find_defs, FnDef};

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
    /// L2/L3/L6 findings (allowlist-gated). L1 and L5 findings come from
    /// the workspace pass, not per file.
    pub findings: Vec<Finding>,
    /// L4 sites in non-test code (ratchet-gated; `findings` excludes them).
    pub panic_sites: Vec<Finding>,
    /// The file's definitions with their facts and L1 sites (test
    /// definitions are never hot: the call graph leaves them out).
    pub defs: Vec<FnDef>,
}

impl FileReport {
    /// Number of L4 sites — the per-file ratchet metric.
    pub fn panic_count(&self) -> usize {
        self.panic_sites.len()
    }
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

/// The per-token checks over one file, run inside [`find_defs`]' walk:
/// the per-file lints (L2, L3, L4, L6) and the L1 sites of every
/// definition. `file` is the workspace-relative path used in findings and
/// for the L3/L6 module matching. Attributes are never visited. L3 covers
/// every token of a restricted file, test code included; L2, L4 and L6
/// skip test blocks; an L1 site belongs to the innermost definition,
/// whatever its scope.
pub fn scan_tokens(file: &str, toks: &[Token], cfg: &Config) -> FileReport {
    let restricted = cfg.is_restricted(file);
    let float_file = cfg.is_float_file(file);
    let (mut findings, mut panic_sites) = (Vec::new(), Vec::new());
    let defs = find_defs(file, toks, |i, def, in_test| {
        let t = &toks[i];
        let site = |lint, func: &str, construct: String| Finding {
            lint,
            file: file.to_string(),
            line: t.line,
            func: func.to_string(),
            construct,
        };
        let func = def.as_deref().map_or("-", |d| d.name.as_str());

        // L3 applies to the whole restricted file, tests included: a
        // `use std::collections::HashMap` at the top serves both.
        if restricted {
            if let Some(id @ ("HashMap" | "HashSet")) = t.ident() {
                findings.push(site(Lint::UnorderedIteration, func, id.to_string()));
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
                        findings.push(site(Lint::WeightDeepClone, func, format!("clone:{recv}")));
                    }
                }
            }

            // L4: panic-ratchet sites.
            if let Some(construct) = panic_site_at(toks, i) {
                panic_sites.push(site(Lint::PanicRatchet, func, construct.to_string()));
            }

            // L6: order/contraction-sensitive float constructs.
            if float_file {
                if let Some(construct) = float_det_at(toks, i) {
                    findings.push(site(Lint::FloatDeterminism, func, construct));
                }
            }
        }

        if let (Some(d), Some(construct)) = (def, hot_alloc_at(toks, i)) {
            d.alloc_sites.push(site(Lint::HotPathAlloc, &d.name, construct.to_string()));
        }
    });
    FileReport { findings, panic_sites, defs }
}

/// Lex one file and apply [`scan_tokens`]. Convenience wrapper for
/// single-file callers (tests); [`crate::analyze_sources`] lexes each file
/// exactly once and hands the stream to [`scan_tokens`].
pub fn scan_source(file: &str, src: &str, cfg: &Config) -> FileReport {
    scan_tokens(file, &lex(src), cfg)
}
