//! Asserts the single-lex-per-file invariant: the workspace driver lexes
//! each source exactly once and shares the token stream between the
//! per-file lints and the symbol resolver. The count travels on the
//! report, so parallel tests cannot disturb it.

use bconv_analyze::lints::Config;

#[test]
fn analyze_sources_lexes_each_file_exactly_once() {
    let sources: Vec<(String, String)> = vec![
        (
            "crates/core/src/a.rs".to_string(),
            "fn worker_loop() { helper(); }\nfn helper() { let v = vec![1]; }".to_string(),
        ),
        ("crates/core/src/b.rs".to_string(), "fn cold() { let a = x.unwrap(); }".to_string()),
        ("crates/core/src/c.rs".to_string(), "struct S;".to_string()),
    ];
    let report = bconv_analyze::analyze_sources(&sources, &Config::workspace());
    assert_eq!(
        report.lex_calls,
        sources.len(),
        "every lint and the resolver must share one lex per file"
    );
    // Sanity: the single pass still fed all lints — L1 through the graph
    // (helper is reachable from worker_loop) and L4 per file.
    assert!(report.findings.iter().any(|f| f.construct == "vec!" && f.func == "helper"));
    assert_eq!(report.panic_counts().get("crates/core/src/b.rs"), Some(&1));
}
