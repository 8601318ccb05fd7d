//! Fixture tests for the analyzer: every lint gets at least one positive
//! fixture (the lint must fire) and one negative fixture (it must stay
//! quiet), plus lexer edge cases that historically produce false
//! positives in grep-based checkers (comments, strings, test scopes).

use bconv_analyze::lints::{scan_source, Config, Lint};
use bconv_analyze::{
    analyze_sources, apply_allowlist, check_ratchet, parse_allowlist, parse_ratchet,
    render_ratchet, WorkspaceReport,
};
use std::collections::BTreeMap;

fn cfg() -> Config {
    Config::workspace()
}

/// Scan under a hot-path-relevant filename with the workspace config.
fn scan(file: &str, src: &str) -> bconv_analyze::lints::FileReport {
    scan_source(file, src, &cfg())
}

/// Run the whole pipeline (per-file lints + call graph) over in-memory
/// sources with the workspace config — same code path CI takes.
fn ws(files: &[(&str, &str)]) -> WorkspaceReport {
    let sources: Vec<(String, String)> =
        files.iter().map(|(f, s)| ((*f).to_string(), (*s).to_string())).collect();
    analyze_sources(&sources, &cfg())
}

// --- lexer robustness -------------------------------------------------------

#[test]
fn comments_and_strings_never_fire() {
    let src = r##"
        // this comment says x.unwrap() and vec![] and HashMap
        /* block comment: panic!("no") /* nested */ still comment */
        /// doc: prefer `foo.expect("msg")` over unwrap()
        fn worker_loop() {
            let s = "vec![1] Vec::new() .collect() unwrap() HashMap";
            let r = r#"format!("{}", x) panic!"#;
            let c = 'u'; // not a lifetime, not an ident
            let _ = (s, r, c);
        }
    "##;
    let rep = scan("crates/graph/src/serve.rs", src);
    assert!(rep.findings.is_empty(), "phantom findings: {:?}", rep.findings);
    assert_eq!(rep.panic_count(), 0);
}

#[test]
fn lifetimes_do_not_confuse_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> &'a str { let _c = 'x'; x }";
    let rep = scan("crates/graph/src/serve.rs", src);
    assert!(rep.findings.is_empty());
}

// --- L1 allocation reachability ---------------------------------------------

#[test]
fn l1_fires_on_every_banned_construct_in_reachable_fn() {
    let src = r#"
        fn worker_loop(&self) {
            let a = Vec::new();
            let b = vec![0u8; 4];
            let c = Vec::with_capacity(4);
            let d = x.to_vec();
            let e = it.collect();
            let f = Tensor::zeros([1, 1, 2, 2]);
            let g = Box::new(3);
            let h = format!("{}", 1);
        }
    "#;
    let rep = ws(&[("crates/core/src/whatever.rs", src)]);
    let constructs: Vec<&str> = rep.findings.iter().map(|f| f.construct.as_str()).collect();
    for want in [
        "Vec::new",
        "vec!",
        "with_capacity",
        "to_vec",
        "collect",
        "Tensor::zeros",
        "Box::new",
        "format!",
    ] {
        assert!(constructs.contains(&want), "missing {want}: {constructs:?}");
    }
    assert!(rep.findings.iter().all(|f| f.lint == Lint::HotPathAlloc));
    assert!(rep.findings.iter().all(|f| f.func == "worker_loop"));
}

/// The acceptance criterion for the reachability rework: a brand-new
/// helper called (transitively) from `run_fused_into` is flagged with no
/// analyzer change and no config edit — hotness comes from the graph.
#[test]
fn l1_flags_new_helper_reachable_from_run_fused_into() {
    let spine = r#"
        struct Session;
        impl Session {
            fn run_with(&self, x: u32) -> u32 { self.executor.run_scratch(x) }
        }
        struct PlanExecutor;
        impl PlanExecutor {
            fn run_scratch(&self, x: u32) -> u32 { run_fused_into(x) }
        }
        fn run_fused_into(x: u32) -> u32 { freshly_added_helper(x) }
    "#;
    let helper = r#"
        fn freshly_added_helper(x: u32) -> u32 {
            let staging = vec![x];
            staging[0]
        }
        fn cold_path() { let v = Vec::new(); }
    "#;
    let rep = ws(&[("crates/core/src/spine.rs", spine), ("crates/core/src/helper.rs", helper)]);
    let l1: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::HotPathAlloc).collect();
    assert_eq!(l1.len(), 1, "{l1:?}");
    assert_eq!(l1[0].func, "freshly_added_helper");
    assert_eq!(l1[0].construct, "vec!");
    assert!(rep.hot_fns.iter().any(|f| f == "freshly_added_helper"), "{:?}", rep.hot_fns);
    assert!(!rep.hot_fns.iter().any(|f| f == "cold_path"));
}

#[test]
fn l1_silent_in_unreachable_fns_and_in_tests() {
    let cold = "fn plan() { let v = vec![1]; let s = x.collect(); }";
    assert!(ws(&[("crates/core/src/x.rs", cold)]).findings.is_empty());

    // A test-scoped fn named like an entry point neither seeds the walk
    // nor contributes edges to the graph.
    let test_mod = r#"
        #[cfg(test)]
        mod tests {
            fn worker_loop() { let v = vec![1]; run_fused_into(); }
        }
        fn run_fused_into() { let w = Vec::new(); }
    "#;
    assert!(ws(&[("crates/core/src/x.rs", test_mod)]).findings.is_empty());

    let test_fn = "#[test]\nfn worker_loop() { let v = Vec::new(); }";
    assert!(ws(&[("crates/core/src/x.rs", test_fn)]).findings.is_empty());
}

#[test]
fn l1_covers_closures_inside_reachable_fn() {
    let src = "fn worker_loop() { let f = || inner.iter().collect(); }";
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    assert_eq!(rep.findings.iter().filter(|f| f.construct == "collect").count(), 1);
    assert_eq!(rep.findings[0].func, "worker_loop");
}

// --- call-graph resolution ---------------------------------------------------

#[test]
fn graph_resolves_direct_method_and_trait_calls() {
    let src = r#"
        struct Session;
        impl Session {
            fn run_with(&self) {
                direct_helper();
                self.chain.splice_stage();
            }
        }
        struct FusedChain;
        impl FusedChain {
            fn splice_stage(&self) { Self::stage_cost(); }
            fn stage_cost() {}
        }
        trait Executor {
            fn run_scratch(&self) { self.default_body_helper(); }
            fn default_body_helper(&self);
        }
        struct RefExec;
        impl Executor for RefExec {
            fn default_body_helper(&self) { trait_leaf(); }
        }
        fn direct_helper() {}
        fn trait_leaf() {}
    "#;
    let rep = ws(&[("crates/core/src/g.rs", src)]);
    for want in [
        "direct_helper",                // free fn, direct call
        "FusedChain::splice_stage",     // method call narrowed by receiver hint
        "FusedChain::stage_cost",       // Self:: path call
        "Executor::run_scratch",        // entry point (trait default method)
        "RefExec::default_body_helper", // trait-impl dispatch (conservative)
        "trait_leaf",
    ] {
        assert!(rep.hot_fns.iter().any(|f| f == want), "missing {want}: {:?}", rep.hot_fns);
    }
}

#[test]
fn graph_attributes_closure_bodies_to_enclosing_fn() {
    // The closure's call is an edge out of `worker_loop`, not out of some
    // anonymous scope: `spawned_helper` must be reachable.
    let src = r#"
        fn worker_loop() {
            let work = || spawned_helper();
            work();
        }
        fn spawned_helper() { let v = vec![1]; }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    assert!(rep.hot_fns.iter().any(|f| f == "spawned_helper"), "{:?}", rep.hot_fns);
    assert_eq!(rep.findings.iter().filter(|f| f.construct == "vec!").count(), 1);
}

#[test]
fn graph_reports_unknown_callees_as_frontier() {
    let src = r#"
        fn worker_loop(f: impl Fn()) {
            mystery_dispatch();
            f();
        }
        fn unreferenced() { also_unknown(); }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    let callees: Vec<&str> = rep.frontier.iter().map(|e| e.callee.as_str()).collect();
    assert!(callees.contains(&"mystery_dispatch"), "{callees:?}");
    assert!(callees.contains(&"f"), "{callees:?}");
    // Frontier reporting is scoped to hot paths: unresolved callees in
    // unreachable code stay out of the report.
    assert!(!callees.contains(&"also_unknown"), "{callees:?}");
    assert!(rep.frontier.iter().all(|e| e.func == "worker_loop"));
}

// --- L5 lock-order -----------------------------------------------------------

#[test]
fn l5_fires_on_lock_held_across_blocking_call() {
    let src = r#"
        fn worker_loop(&self) {
            let guard = self.receiver.lock();
            let job = guard.recv();
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    let l5: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::LockOrder).collect();
    assert_eq!(l5.len(), 1, "{l5:?}");
    assert_eq!(l5[0].construct, "receiver->recv");
    assert_eq!(l5[0].func, "worker_loop");
}

#[test]
fn l5_respects_guard_scope_and_drop() {
    // Guard released by block scope or explicit drop() before the
    // blocking call: no overlap, no finding.
    let src = r#"
        fn worker_loop(&self) {
            {
                let guard = self.receiver.lock();
                guard.len();
            }
            let job = self.chan.recv();
            let g2 = self.receiver.lock();
            drop(g2);
            self.chan.recv();
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::LockOrder), "{:?}", rep.findings);
}

#[test]
fn l5_exempts_condvar_wait_on_the_held_guard() {
    // Condvar::wait(guard) atomically releases the guard it is handed —
    // exempt for that region. A *different* lock held across the same
    // wait still fires.
    let clean = r#"
        fn wait(&self) {
            let mut results = self.lock_results();
            while !done {
                results = self.shared.done.wait(results);
            }
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", clean)]);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::LockOrder), "{:?}", rep.findings);

    let dirty = r#"
        fn wait(&self) {
            let other = self.registry.lock();
            let mut results = self.lock_results();
            loop {
                results = self.shared.done.wait(results);
            }
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", dirty)]);
    let l5: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::LockOrder).collect();
    assert_eq!(l5.len(), 1, "{l5:?}");
    assert_eq!(l5[0].construct, "registry->wait");
}

#[test]
fn l5_fires_on_blocking_call_reached_through_the_graph() {
    // The lock holder never blocks directly; the callee does. The
    // may-block closure has to carry that fact across the edge.
    let src = r#"
        struct ServeEngine;
        impl ServeEngine {
            fn submit(&self) {
                let guard = self.state.lock();
                self.drain_jobs();
            }
            fn drain_jobs(&self) {
                let x = self.chan.recv();
            }
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    let l5: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::LockOrder).collect();
    // drain_jobs blocks but holds no lock itself — the one finding is the
    // transitive overlap at submit's call site.
    assert_eq!(l5.len(), 1, "{l5:?}");
    assert_eq!(l5[0].construct, "state->call:drain_jobs");
    assert_eq!(l5[0].func, "submit");
}

#[test]
fn l5_fires_on_inconsistent_pairwise_lock_order() {
    let src = r#"
        fn forward_path(&self) {
            let a = self.alpha.lock();
            let b = self.beta.lock();
        }
        fn reverse_path(&self) {
            let b = self.beta.lock();
            let a = self.alpha.lock();
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    let l5: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::LockOrder).collect();
    assert!(l5.iter().any(|f| f.construct == "order:alpha->beta" && f.func == "forward_path"));
    assert!(l5.iter().any(|f| f.construct == "order:beta->alpha" && f.func == "reverse_path"));

    // Consistent order everywhere: pairs recorded, nothing fires.
    let consistent = r#"
        fn one(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
        fn two(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", consistent)]);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::LockOrder), "{:?}", rep.findings);
    assert!(rep.lock_orders.contains(&("alpha".to_string(), "beta".to_string())));
}

#[test]
fn l5_fires_on_relock_of_the_same_lock() {
    let src = r#"
        fn worker_loop(&self) {
            let a = self.results.lock();
            let b = self.results.lock();
        }
    "#;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    assert!(
        rep.findings.iter().any(|f| f.lint == Lint::LockOrder && f.construct == "relock:results"),
        "{:?}",
        rep.findings
    );
}

#[test]
fn l5_ignores_comments_strings_and_tests() {
    let src = r##"
        fn worker_loop(&self) {
            // let g = self.receiver.lock(); g.recv();
            let s = "receiver.lock() then recv()";
            let r = r#"x.lock(); y.recv()"#;
            let _ = (s, r);
        }
        #[cfg(test)]
        mod tests {
            fn t(&self) { let g = self.receiver.lock(); g.recv(); }
        }
    "##;
    let rep = ws(&[("crates/graph/src/serve.rs", src)]);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::LockOrder), "{:?}", rep.findings);
}

// --- L6 float-determinism ----------------------------------------------------

#[test]
fn l6_fires_on_order_sensitive_float_constructs_in_kernel_files() {
    let src = r#"
        fn micro_kernel(acc: f32, x: f32, y: f32) -> f32 {
            let fused = acc.mul_add(x, y);
            let powed = x.powf(2.5);
            let s = values.iter().sum::<f32>();
            let p = values.iter().product::<f64>();
            let a = AtomicF32::new(0.0);
            fused + powed + s
        }
    "#;
    let rep = scan("crates/tensor/src/kernel.rs", src);
    let l6: Vec<&str> = rep
        .findings
        .iter()
        .filter(|f| f.lint == Lint::FloatDeterminism)
        .map(|f| f.construct.as_str())
        .collect();
    assert_eq!(l6, ["mul_add", "powf", "sum::<f32>", "product::<f64>", "AtomicF32"]);
}

#[test]
fn l6_covers_the_float_plane_kernel_file() {
    // The plane kernel's bitwise contract is "multiply, then add": a fused
    // multiply-add in its file must be a finding under the workspace policy.
    let src = "fn sweep(a: f32, w: f32, x: f32) -> f32 { w.mul_add(x, a) }";
    let rep = scan("crates/tensor/src/kernel/plane.rs", src);
    assert!(rep
        .findings
        .iter()
        .any(|f| f.lint == Lint::FloatDeterminism && f.construct == "mul_add"));
}

#[test]
fn l6_covers_the_ordered_policy_of_the_channel_lane_tile() {
    // The shared tile takes its multiply-add from a policy. The exact
    // (integer) policy lives in `qgemm.rs` and may fuse — that is the one
    // allowlisted site; the ordered (float) policy lives beside the tile
    // and must not: fusing it there is a finding no allowlist line covers.
    let src = r#"
        impl<const L: usize> Policy<L> for Ordered<L> {
            const EXACT: bool = false;
            fn start(&self) -> [f32; L] { self.bias }
            fn mac(w: f32, x: f32, acc: f32) -> f32 { w.mul_add(x, acc) }
        }
    "#;
    let rep = scan("crates/tensor/src/kernel/lane_tile.rs", src);
    let fused: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::FloatDeterminism).collect();
    assert_eq!(fused.len(), 1, "{:?}", rep.findings);
    assert_eq!((fused[0].func.as_str(), fused[0].construct.as_str()), ("mac", "mul_add"));
    let allow = parse_allowlist(include_str!("../../../analyze/allowlist.txt"))
        .expect("committed allowlist parses");
    assert!(
        allow.iter().all(|e| !e.file.ends_with("lane_tile.rs")),
        "no allowlist line may exempt the tile's file"
    );
}

#[test]
fn l6_silent_on_integer_reductions_and_outside_kernel_files() {
    // usize sums are exact; only float turbofish reductions are banned.
    let ints = "fn tally(xs: &[usize]) -> usize { xs.iter().sum::<usize>() }";
    assert!(scan("crates/graph/src/serve.rs", ints).findings.is_empty());

    // The same constructs in a non-kernel module (e.g. training) are fine.
    let train = "fn step(x: f32) -> f32 { x.mul_add(2.0, 1.0).powf(0.5) }";
    assert!(scan("crates/train/src/trainer.rs", train)
        .findings
        .iter()
        .all(|f| f.lint != Lint::FloatDeterminism));
}

#[test]
fn l6_ignores_comments_strings_and_tests() {
    let src = r#"
        fn kernel_body(x: f32) -> f32 {
            // could use x.mul_add(a, b) and powf here, but determinism
            let doc = "sum::<f32>() and AtomicF32 in a string";
            let _ = doc;
            x
        }
        #[cfg(test)]
        mod tests {
            fn t(x: f32) -> f32 { x.mul_add(1.0, 0.0).powf(2.0) }
        }
    "#;
    let rep = scan("crates/tensor/src/kernel.rs", src);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::FloatDeterminism), "{:?}", rep.findings);
}

// --- L2 no-weight-deep-clone ------------------------------------------------

#[test]
fn l2_fires_on_weight_like_receivers() {
    let src = r#"
        fn lower(&self) {
            let a = self.conv.clone();
            let b = weights.clone();
            let c = block_kernel.clone();
        }
    "#;
    let rep = scan("crates/models/src/x.rs", src);
    let l2: Vec<_> = rep.findings.iter().filter(|f| f.lint == Lint::WeightDeepClone).collect();
    assert_eq!(l2.len(), 3, "{l2:?}");
    assert!(l2.iter().any(|f| f.construct == "clone:conv"));
    assert!(l2.iter().any(|f| f.construct == "clone:weights"));
    assert!(l2.iter().any(|f| f.construct == "clone:block_kernel"));
}

#[test]
fn l2_allows_arc_clone_and_unrelated_receivers() {
    let src = r#"
        fn lower(&self) {
            let a = Arc::clone(&self.weights);
            let b = grid.clone();
            let c = pads.clone();
        }
        #[cfg(test)]
        mod tests {
            fn t() { let w = conv.clone(); }
        }
    "#;
    let rep = scan("crates/models/src/x.rs", src);
    assert!(rep.findings.iter().all(|f| f.lint != Lint::WeightDeepClone), "{:?}", rep.findings);
}

// --- L3 no-unordered-iteration ----------------------------------------------

#[test]
fn l3_fires_in_restricted_modules_only() {
    let src = "use std::collections::HashMap;\nfn plan() { let m: HashMap<u32, u32>; }";
    let restricted = scan("crates/graph/src/plan.rs", src);
    let hits = restricted.findings.iter().filter(|f| f.lint == Lint::UnorderedIteration).count();
    assert_eq!(hits, 2, "use + type mention: {:?}", restricted.findings);

    let free = scan("crates/train/src/optim.rs", src);
    assert!(free.findings.iter().all(|f| f.lint != Lint::UnorderedIteration));
}

#[test]
fn l3_fires_even_inside_test_code_of_restricted_files() {
    // A `use` at the top of a restricted file serves test and non-test
    // code alike, so L3 deliberately ignores test scope.
    let src = "#[cfg(test)]\nmod tests { use std::collections::HashSet; }";
    let rep = scan("crates/graph/src/serve.rs", src);
    assert_eq!(rep.findings.iter().filter(|f| f.lint == Lint::UnorderedIteration).count(), 1);
}

// --- L4 panic-ratchet -------------------------------------------------------

#[test]
fn l4_counts_only_real_panic_sites() {
    let src = r#"
        fn a() {
            x.unwrap();
            y.expect("boom");
            panic!("no");
            z.unwrap_or_else(PoisonError::into_inner);
            w.unwrap_or_default();
            let unwrap = 3; // bare ident, not a call
        }
        #[cfg(test)]
        mod tests {
            fn t() { q.unwrap(); r.expect("fine in tests"); }
        }
    "#;
    let rep = scan("crates/core/src/x.rs", src);
    assert_eq!(rep.panic_count(), 3, "{:?}", rep.panic_sites);
    let constructs: Vec<&str> = rep.panic_sites.iter().map(|f| f.construct.as_str()).collect();
    assert_eq!(constructs, ["unwrap()", "expect()", "panic!"]);
}

#[test]
fn l4_attributes_sites_to_enclosing_fn() {
    let src = "fn outer() { let c = || inner.unwrap(); }";
    let rep = scan("crates/core/src/x.rs", src);
    assert_eq!(rep.panic_sites.len(), 1);
    assert_eq!(rep.panic_sites[0].func, "outer");
}

#[test]
fn cfg_not_test_is_live_code() {
    let src = "#[cfg(not(test))]\nfn a() { x.unwrap(); }";
    let rep = scan("crates/core/src/x.rs", src);
    assert_eq!(rep.panic_count(), 1);
}

// --- allowlist gating -------------------------------------------------------

#[test]
fn allowlist_absorbs_exact_counts_and_flags_drift() {
    let src = "fn worker_loop() { let a = vec![1]; let b = vec![2]; }";
    let rep = ws(&[("crates/core/src/f.rs", src)]);

    let exact =
        parse_allowlist("L1 crates/core/src/f.rs worker_loop vec! 2 -- bounded bookkeeping")
            .unwrap();
    let gate = apply_allowlist(&rep.findings, &exact);
    assert!(gate.is_clean(), "{gate:?}");

    // Wrong count -> stale entry AND the findings stay violations.
    let drifted =
        parse_allowlist("L1 crates/core/src/f.rs worker_loop vec! 1 -- bounded bookkeeping")
            .unwrap();
    let gate = apply_allowlist(&rep.findings, &drifted);
    assert_eq!(gate.stale.len(), 1);
    assert_eq!(gate.violations.len(), 2);

    // Entry with no surviving site -> stale.
    let gate = apply_allowlist(&[], &exact);
    assert_eq!(gate.stale.len(), 1);
}

#[test]
fn allowlist_requires_justification() {
    assert!(parse_allowlist("L1 f.rs f vec! 1").is_err());
    assert!(parse_allowlist("L1 f.rs f vec! 1 -- ").is_err());
    assert!(parse_allowlist("L9 f.rs f vec! 1 -- why").is_err());
    assert!(parse_allowlist("L4 f.rs f unwrap() 1 -- L4 uses the ratchet").is_err());
    assert!(parse_allowlist("# comment\n\nL2 f.rs f clone:w 1 -- ok").is_ok());
    assert!(parse_allowlist("L5 f.rs f receiver->recv 1 -- intentional park").is_ok());
    assert!(parse_allowlist("L6 f.rs f mul_add 1 -- bit-audited kernel").is_ok());
}

// --- ratchet ----------------------------------------------------------------

#[test]
fn ratchet_flags_increases_and_reports_improvements() {
    let mut baseline = BTreeMap::new();
    baseline.insert("a.rs".to_string(), 3usize);
    baseline.insert("gone.rs".to_string(), 2usize);
    let mut current = BTreeMap::new();
    current.insert("a.rs".to_string(), 4usize); // regression
    current.insert("new.rs".to_string(), 1usize); // new file = regression
    let r = check_ratchet(&baseline, &current);
    assert_eq!(r.regressions, [("a.rs".to_string(), 3, 4), ("new.rs".to_string(), 0, 1)]);
    assert_eq!(r.improvements, [("gone.rs".to_string(), 2, 0)]);
}

#[test]
fn ratchet_roundtrips_through_render_and_parse() {
    let mut counts = BTreeMap::new();
    counts.insert("crates/a/src/lib.rs".to_string(), 5usize);
    counts.insert("crates/b/src/lib.rs".to_string(), 0usize); // omitted
    let text = render_ratchet(&counts);
    let parsed = parse_ratchet(&text).unwrap();
    assert_eq!(parsed.len(), 1);
    assert_eq!(parsed["crates/a/src/lib.rs"], 5);
}

// --- end-to-end against the real workspace ----------------------------------

#[test]
fn workspace_is_clean_under_committed_policy() {
    // Mirrors exactly what CI runs: scan the real tree, apply the real
    // allowlist and ratchet. If this fails, `cargo run -p bconv-analyze`
    // explains which site moved.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = bconv_analyze::scan_workspace(&root, &cfg()).unwrap();
    let allow =
        parse_allowlist(&std::fs::read_to_string(root.join("analyze/allowlist.txt")).unwrap())
            .unwrap();
    let gate = apply_allowlist(&report.findings, &allow);
    assert!(gate.violations.is_empty(), "{:?}", gate.violations);
    assert!(gate.stale.is_empty(), "{:?}", gate.stale);
    let baseline =
        parse_ratchet(&std::fs::read_to_string(root.join("analyze/panic_ratchet.txt")).unwrap())
            .unwrap();
    let ratchet = check_ratchet(&baseline, &report.panic_counts());
    assert!(ratchet.regressions.is_empty(), "{:?}", ratchet.regressions);
}
