//! The workspace call graph: conservative edge resolution over the
//! symbols from [`crate::resolve`], entry-point reachability (the L1
//! hot set is *derived*, not hand-maintained), and the interprocedural
//! closures behind the L5 lock-order lint.
//!
//! Resolution policy, in order:
//!
//! 1. `Ty::name` path calls match definitions on exactly that type
//!    (`Self` resolves against the caller's `impl`).
//! 2. `recv.name(..)` method calls match **every** workspace method of
//!    that name; when the receiver-chain hint (`self.chain.run(..)` →
//!    `chain`) is type-name-similar to a subset of candidates, only that
//!    subset is linked — otherwise all of them are (conservative).
//! 3. Bare `name(..)` calls match free functions of that name.
//! 4. A callee with no workspace match and no standard-library name is a
//!    **frontier** edge: reported (per hot caller) so the analysis's
//!    blind spots are visible instead of silent.

use crate::lints::Finding;
use crate::lints::Lint;
use crate::resolve::{Callee, FnDef};
use std::collections::{BTreeMap, BTreeSet};

/// A seed of the hot-path reachability walk. `owner: None` matches every
/// definition of the name (free functions and all impls — the `run_scratch`
/// case, where each executor's impl is an entry).
#[derive(Debug, Clone)]
pub struct EntryPoint {
    pub func: String,
    pub owner: Option<String>,
}

impl EntryPoint {
    pub fn new(func: &str, owner: Option<&str>) -> Self {
        Self { func: func.to_string(), owner: owner.map(str::to_string) }
    }

    fn matches(&self, def: &FnDef) -> bool {
        def.name == self.func
            && match &self.owner {
                Some(o) => def.owner.as_deref() == Some(o.as_str()),
                None => true,
            }
    }
}

/// An unresolved callee reachable from an entry point.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FrontierEdge {
    pub file: String,
    /// Qualified caller (`Owner::fn` or bare `fn`).
    pub func: String,
    /// Callee as written: `name`, `.name`, or `Ty::name`.
    pub callee: String,
    pub line: u32,
}

/// Names the standard library (std/core/alloc) owns; calls to them never
/// resolve to workspace code and are not frontier noise. The list is a
/// fixed property of Rust, not of this workspace — unlike the old
/// hand-maintained hot-function list it cannot drift with the codebase.
fn is_std_name(name: &str) -> bool {
    matches!(
        name,
        // construction / conversion
        "new" | "default" | "from" | "into" | "try_from" | "try_into" | "from_vec"
            | "to_string" | "to_owned" | "to_vec" | "into_inner" | "into_iter" | "from_bits"
            | "to_bits" | "from_fn" | "with_capacity" | "clone" | "as_ref" | "as_mut"
            | "as_str" | "as_slice" | "as_deref" | "as_bytes" | "leak" | "boxed"
            // Option / Result
            | "unwrap" | "expect" | "unwrap_or" | "unwrap_or_else" | "unwrap_or_default"
            | "ok" | "err" | "ok_or" | "ok_or_else" | "is_some" | "is_none" | "is_ok"
            | "is_err" | "map_or" | "map_or_else" | "map_err" | "and_then" | "or_else"
            | "get_or_insert" | "get_or_insert_with" | "take" | "replace" | "filter"
            | "flatten" | "zip" | "is_some_and" | "is_none_or" | "then" | "then_some"
            | "copied" | "cloned" | "as_deref_mut" | "insert"
            // collections / slices / iterators
            | "len" | "is_empty" | "push" | "pop" | "get" | "get_mut" | "remove" | "clear"
            | "contains" | "contains_key" | "entry" | "or_default" | "or_insert" | "keys"
            | "values" | "iter" | "iter_mut" | "chunks" | "chunks_mut" | "chunks_exact"
            | "chunks_exact_mut" | "windows" | "split_at" | "split_at_mut" | "first"
            | "first_mut" | "last" | "last_mut" | "sort" | "sort_by" | "sort_by_key"
            | "sort_unstable" | "sort_unstable_by" | "binary_search" | "binary_search_by"
            | "resize" | "truncate" | "extend" | "extend_from_slice" | "copy_from_slice"
            | "clone_from_slice" | "fill" | "drain" | "retain" | "swap" | "reserve"
            | "append" | "concat" | "join" | "split_off" | "dedup" | "as_mut_slice"
            | "map" | "filter_map" | "flat_map" | "fold" | "try_fold" | "for_each"
            | "enumerate" | "rev" | "skip" | "skip_while" | "take_while" | "step_by"
            | "chain" | "peekable" | "peek" | "next" | "nth" | "count" | "sum" | "product"
            | "min" | "max" | "min_by" | "max_by" | "min_by_key" | "max_by_key"
            | "position" | "find" | "find_map" | "any" | "all" | "collect" | "by_ref"
            | "cycle" | "unzip" | "partition" | "rotate_left" | "rotate_right"
            | "split_first_mut" | "copy_within" | "remainder" | "into_remainder"
            | "pop_first" | "first_key_value"
            // numbers
            | "abs" | "floor" | "ceil" | "round" | "trunc" | "sqrt" | "powi" | "powf"
            | "exp" | "ln" | "log2" | "log10" | "mul_add" | "clamp" | "signum" | "recip"
            | "min_val" | "to_le_bytes" | "to_be_bytes" | "from_le_bytes" | "from_be_bytes"
            | "saturating_add" | "saturating_sub" | "saturating_mul" | "wrapping_add"
            | "wrapping_sub" | "wrapping_mul" | "checked_add" | "checked_sub"
            | "checked_mul" | "checked_div" | "checked_rem" | "pow" | "rem_euclid"
            | "div_euclid" | "div_ceil" | "next_power_of_two" | "leading_zeros"
            | "trailing_zeros" | "is_finite" | "is_nan" | "is_infinite" | "max_value"
            | "min_value" | "midpoint" | "isqrt" | "cast" | "hypot"
            // strings / fmt / io
            | "push_str" | "chars" | "bytes" | "trim" | "trim_start" | "trim_end"
            | "split" | "split_once" | "rsplit_once" | "split_whitespace" | "splitn"
            | "lines" | "starts_with" | "ends_with" | "strip_prefix" | "strip_suffix"
            | "parse" | "repeat" | "to_lowercase" | "to_uppercase" | "to_ascii_lowercase"
            | "to_ascii_uppercase" | "char_indices" | "fmt" | "write_str" | "write_fmt"
            | "write_all" | "flush" | "read_to_string" | "debug_struct" | "debug_tuple"
            | "debug_list" | "field" | "finish" | "finish_non_exhaustive" | "pad"
            | "display" | "to_string_lossy" | "escape_debug"
            // sync / thread / time
            | "lock" | "try_lock" | "read" | "write" | "notify_all" | "notify_one"
            | "send" | "try_send" | "recv" | "try_recv" | "recv_timeout" | "wait"
            | "wait_timeout" | "wait_while" | "spawn" | "scope" | "sleep" | "park"
            | "unpark" | "name" | "available_parallelism" | "current" | "elapsed"
            | "duration_since" | "as_secs_f64" | "as_micros" | "as_millis" | "as_nanos"
            | "load" | "store" | "fetch_add" | "fetch_sub" | "compare_exchange"
            | "compare_exchange_weak" | "fetch_or" | "fetch_and" | "fetch_max" | "now"
            | "is_poisoned" | "catch_unwind"
            // misc std free functions
            | "drop" | "swap_nonoverlapping" | "min_of" | "max_of" | "size_of"
            | "size_of_val" | "align_of" | "replace_with" | "identity" | "black_box"
            | "args" | "var" | "var_os" | "exit" | "read_dir" | "read_to_end"
            | "canonicalize" | "metadata" | "exists" | "is_dir" | "is_file" | "hash"
            | "build_hasher" | "eq" | "ne" | "cmp" | "partial_cmp" | "deref" | "deref_mut"
            | "index" | "index_mut" | "add" | "sub" | "mul" | "div" | "rem" | "neg"
            | "not" | "bitand" | "bitor" | "bitxor" | "shl" | "shr" | "borrow"
            | "borrow_mut" | "eprintln" | "to_str" | "strip_prefix_of"
            // portable-simd style vector ops
            | "from_slice" | "splat" | "copy_to_slice" | "resize_with"
    )
}

/// Standard-library types whose associated functions never resolve to
/// workspace code (`PoisonError::into_inner`, `Vec::new`, …).
fn is_std_type(ty: &str) -> bool {
    matches!(
        ty,
        "Vec"
            | "VecDeque"
            | "String"
            | "Box"
            | "Arc"
            | "Rc"
            | "Cell"
            | "RefCell"
            | "Option"
            | "Result"
            | "Some"
            | "Ok"
            | "Err"
            | "BTreeMap"
            | "BTreeSet"
            | "HashMap"
            | "HashSet"
            | "Mutex"
            | "RwLock"
            | "Condvar"
            | "PoisonError"
            | "Ordering"
            | "AtomicU64"
            | "AtomicUsize"
            | "AtomicBool"
            | "Instant"
            | "Duration"
            | "Builder"
            | "Thread"
            | "JoinHandle"
            | "Default"
            | "Iterator"
            | "Cow"
            | "Path"
            | "PathBuf"
            | "OsStr"
            | "OsString"
            | "Range"
            | "Simd"
            | "Wrapping"
            | "NonZeroUsize"
            | "TryFrom"
            | "TryInto"
            | "From"
            | "Into"
            | "Clone"
            | "Drop"
            | "Display"
            | "Debug"
            | "Write"
            | "Read"
            | "Token"
            | "str"
            | "char"
            | "f32"
            | "f64"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "u8"
            | "u16"
            | "u32"
            | "u64"
            | "usize"
            | "isize"
    )
}

/// The workspace call graph over every file's definitions.
pub struct CallGraph<'a> {
    /// Every non-test definition; a node's index is its position here.
    nodes: Vec<&'a FnDef>,
    /// Name → node indices (all definitions sharing the name).
    by_name: BTreeMap<&'a str, Vec<usize>>,
}

/// Result of resolving one call site.
struct Resolved {
    targets: Vec<usize>,
    /// No workspace match and not a standard-library name.
    frontier: bool,
}

impl<'a> CallGraph<'a> {
    /// Index every non-test definition. Test-scoped functions are left
    /// out entirely: they cannot be entry points, and a test fixture
    /// sharing a hot function's name must not add edges to the graph.
    pub fn build(defs: &'a [FnDef]) -> Self {
        let nodes: Vec<&'a FnDef> = defs.iter().filter(|d| !d.is_test).collect();
        let mut by_name: BTreeMap<&'a str, Vec<usize>> = BTreeMap::new();
        for (i, def) in nodes.iter().enumerate() {
            by_name.entry(def.name.as_str()).or_default().push(i);
        }
        Self { nodes, by_name }
    }

    /// Number of indexed definitions.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no definitions were indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The definition behind a node index.
    pub fn def(&self, i: usize) -> &'a FnDef {
        self.nodes[i]
    }

    /// True when `hint` and the candidate's type/trait name look like the
    /// same thing (`chain` ~ `FusedChain`, `executor` ~ `Executor`).
    /// Hints shorter than three characters are ignored — `t`/`rx`-style
    /// locals match everything and would defeat conservatism.
    fn hint_matches(hint: &str, def: &FnDef) -> bool {
        if hint.len() < 3 {
            return false;
        }
        let h = hint.trim_start_matches('_').to_lowercase();
        let against = |name: &Option<String>| {
            name.as_deref().is_some_and(|n| {
                let n = n.to_lowercase();
                n.contains(&h) || h.contains(&n)
            })
        };
        against(&def.owner) || against(&def.trait_name)
    }

    /// Resolve one call site from definition `from`.
    fn resolve(&self, from: usize, callee: &Callee) -> Resolved {
        let empty: Vec<usize> = Vec::new();
        match callee {
            Callee::Free { name } => {
                let targets: Vec<usize> = self
                    .by_name
                    .get(name.as_str())
                    .unwrap_or(&empty)
                    .iter()
                    .copied()
                    .filter(|&t| self.def(t).owner.is_none())
                    .collect();
                let frontier = targets.is_empty() && !is_std_name(name);
                Resolved { targets, frontier }
            }
            Callee::Path { ty, name } => {
                let ty: &str = if ty == "Self" || ty == "self" {
                    self.def(from).owner.as_deref().unwrap_or("Self")
                } else {
                    ty.as_str()
                };
                let targets: Vec<usize> = self
                    .by_name
                    .get(name.as_str())
                    .unwrap_or(&empty)
                    .iter()
                    .copied()
                    .filter(|&t| self.def(t).owner.as_deref() == Some(ty))
                    .collect();
                let frontier = targets.is_empty() && !is_std_type(ty) && !is_std_name(name);
                Resolved { targets, frontier }
            }
            Callee::Method { name, hint } => {
                let candidates: Vec<usize> = self
                    .by_name
                    .get(name.as_str())
                    .unwrap_or(&empty)
                    .iter()
                    .copied()
                    .filter(|&t| self.def(t).owner.is_some())
                    .collect();
                if candidates.is_empty() {
                    return Resolved { targets: Vec::new(), frontier: !is_std_name(name) };
                }
                // `self.name(..)`: prefer the caller's own impl.
                if hint.as_deref() == Some("self") {
                    let own: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&t| self.def(t).owner == self.def(from).owner)
                        .collect();
                    if !own.is_empty() {
                        return Resolved { targets: own, frontier: false };
                    }
                }
                if let Some(h) = hint.as_deref() {
                    let narrowed: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&t| Self::hint_matches(h, self.def(t)))
                        .collect();
                    if !narrowed.is_empty() {
                        return Resolved { targets: narrowed, frontier: false };
                    }
                }
                // A std-named method (`map`, `get`, `clear`, …) without
                // positive hint evidence is almost certainly the std one;
                // linking every same-named workspace method would drag
                // e.g. `Tensor::map` into the hot set via each
                // `iter().map(..)`. Workspace-specific names stay fully
                // conservative: all candidates are linked.
                if is_std_name(name) {
                    return Resolved { targets: Vec::new(), frontier: false };
                }
                Resolved { targets: candidates, frontier: false }
            }
        }
    }

    /// Node indices matching the given entry points.
    pub fn entry_defs(&self, entries: &[EntryPoint]) -> Vec<usize> {
        (0..self.len()).filter(|&i| entries.iter().any(|e| e.matches(self.def(i)))).collect()
    }

    /// Reachability from `entries`: the derived hot set plus every
    /// frontier edge out of it.
    pub fn reach(&self, entries: &[EntryPoint]) -> Reach {
        let seeds = self.entry_defs(entries);
        let mut hot = vec![false; self.len()];
        let mut queue: Vec<usize> = Vec::new();
        for s in &seeds {
            if !hot[*s] {
                hot[*s] = true;
                queue.push(*s);
            }
        }
        let mut frontier: BTreeSet<FrontierEdge> = BTreeSet::new();
        while let Some(i) = queue.pop() {
            for call in &self.def(i).calls {
                let r = self.resolve(i, &call.callee);
                if r.frontier {
                    let d = self.def(i);
                    let callee = match &call.callee {
                        Callee::Free { name } => name.clone(),
                        Callee::Method { name, .. } => format!(".{name}"),
                        Callee::Path { ty, name } => format!("{ty}::{name}"),
                    };
                    frontier.insert(FrontierEdge {
                        file: d.file.clone(),
                        func: d.qualified(),
                        callee,
                        line: call.line,
                    });
                }
                for t in r.targets {
                    if !hot[t] {
                        hot[t] = true;
                        queue.push(t);
                    }
                }
            }
        }
        Reach { hot, seeds: seeds.len(), frontier: frontier.into_iter().collect() }
    }

    /// Fixpoint closures for the lock lint: per definition, whether
    /// calling it may block (a blocking primitive anywhere inside, or a
    /// callee that may block) and the set of locks it (transitively)
    /// acquires.
    fn lock_closures(&self) -> (Vec<bool>, Vec<BTreeSet<String>>) {
        let n = self.len();
        let mut may_block: Vec<bool> = (0..n).map(|i| !self.def(i).blocking.is_empty()).collect();
        let mut acquires: Vec<BTreeSet<String>> =
            (0..n).map(|i| self.def(i).locks.iter().map(|l| l.lock.clone()).collect()).collect();
        // Pre-resolve edges once; iterate to fixpoint (the graph is small
        // and the lattice is finite, so this terminates quickly).
        let edges: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut out: Vec<usize> = self
                    .def(i)
                    .calls
                    .iter()
                    .flat_map(|c| self.resolve(i, &c.callee).targets)
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                for &t in &edges[i] {
                    if may_block[t] && !may_block[i] {
                        may_block[i] = true;
                        changed = true;
                    }
                    if !acquires[t].is_empty() {
                        let missing: Vec<String> =
                            acquires[t].difference(&acquires[i]).cloned().collect();
                        if !missing.is_empty() {
                            acquires[i].extend(missing);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                return (may_block, acquires);
            }
        }
    }

    /// The L5 lock-order lint over the whole graph. Returns the findings
    /// plus every observed pairwise lock order (for the report).
    pub fn lock_lint(&self) -> (Vec<Finding>, Vec<(String, String)>) {
        let (may_block, acquires) = self.lock_closures();
        let mut findings: Vec<Finding> = Vec::new();
        // (outer, inner) → acquisition sites, for the global order check.
        type OrderSites = Vec<(String, String, u32)>;
        let mut orders: BTreeMap<(String, String), OrderSites> = BTreeMap::new();
        for i in 0..self.len() {
            let def = self.def(i);
            let mut emit = |construct: String, line: u32| {
                findings.push(Finding {
                    lint: Lint::LockOrder,
                    file: def.file.clone(),
                    line,
                    func: def.name.clone(),
                    construct,
                });
            };
            for region in &def.locks {
                let in_span = |tok: usize| tok > region.span.0 && tok < region.span.1;
                // Blocking primitive while the guard is held. A
                // `Condvar::wait(guard)` that is passed the guard itself
                // releases it atomically — exempt for that region only.
                for op in &def.blocking {
                    if !in_span(op.tok) {
                        continue;
                    }
                    let condvar_release = op.op.starts_with("wait")
                        && region
                            .binding
                            .as_deref()
                            .is_some_and(|b| op.args.iter().any(|a| a == b));
                    if !condvar_release {
                        emit(format!("{}->{}", region.lock, op.op), op.line);
                    }
                }
                for call in &def.calls {
                    if !in_span(call.tok) {
                        continue;
                    }
                    let name = call.callee.name();
                    // Direct blocking names are handled above; lock
                    // helpers are handled as nested acquisitions below.
                    if crate::resolve::is_blocking_name(name)
                        || name == "lock"
                        || name.starts_with("lock_")
                    {
                        continue;
                    }
                    let r = self.resolve(i, &call.callee);
                    let blocking_target = r.targets.iter().copied().find(|&t| may_block[t]);
                    if let Some(t) = blocking_target {
                        emit(format!("{}->call:{}", region.lock, self.def(t).name), call.line);
                    }
                    // Transitive acquisitions establish lock order.
                    let mut seen: BTreeSet<&String> = BTreeSet::new();
                    for &t in &r.targets {
                        for inner in &acquires[t] {
                            if !seen.insert(inner) {
                                continue;
                            }
                            if *inner == region.lock {
                                emit(format!("relock:{}", region.lock), call.line);
                            } else {
                                orders
                                    .entry((region.lock.clone(), inner.clone()))
                                    .or_default()
                                    .push((def.file.clone(), def.name.clone(), call.line));
                            }
                        }
                    }
                }
                // Direct nested acquisitions.
                for nested in &def.locks {
                    if nested.span.0 == region.span.0 || !in_span(nested.span.0) {
                        continue;
                    }
                    if nested.lock == region.lock {
                        emit(format!("relock:{}", region.lock), nested.line);
                    } else {
                        orders
                            .entry((region.lock.clone(), nested.lock.clone()))
                            .or_default()
                            .push((def.file.clone(), def.name.clone(), nested.line));
                    }
                }
            }
        }
        // Pairwise consistency: lock A taken before B somewhere and B
        // before A elsewhere is a deadlock waiting for its interleaving.
        let keys: Vec<(String, String)> = orders.keys().cloned().collect();
        for (a, b) in &keys {
            if a < b && orders.contains_key(&(b.clone(), a.clone())) {
                for (outer, inner) in [(a, b), (b, a)] {
                    if let Some(sites) = orders.get(&(outer.clone(), inner.clone())) {
                        for (file, func, line) in sites {
                            findings.push(Finding {
                                lint: Lint::LockOrder,
                                file: file.clone(),
                                line: *line,
                                func: func.clone(),
                                construct: format!("order:{outer}->{inner}"),
                            });
                        }
                    }
                }
            }
        }
        (findings, keys)
    }
}

/// Reachability result: `hot[i]` indexes the graph's nodes.
pub struct Reach {
    pub hot: Vec<bool>,
    /// Number of definitions matched by the entry points.
    pub seeds: usize,
    pub frontier: Vec<FrontierEdge>,
}
