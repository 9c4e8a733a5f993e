//! Fixture tests: every rule must catch its seeded violation, and every
//! exemption (strings, `cfg(test)`, aliases, waivers, the allowlist)
//! must hold. Sources are inline strings fed through [`scan_source`],
//! exactly the path the workspace scan takes per file.

use croxmap_lint::lexer::{lex, TokKind};
use croxmap_lint::waiver::Allowlist;
use croxmap_lint::{scan_source, scan_sources, Report, Rule, ScanOutput};

fn scan(path: &str, src: &str) -> Report {
    scan_source(path, src, &Allowlist::default())
}

fn rules_of(report: &Report) -> Vec<Rule> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- lexer

#[test]
fn lexer_strips_strings_and_comments() {
    let src = "fn f() { let s = \"HashMap.iter() thread::spawn Instant\"; // Instant here too\n /* and Relaxed\n in a block */ }";
    let lexed = lex(src);
    assert!(
        !lexed.tokens.iter().any(|t| t.text.contains("Instant")
            || t.text.contains("Relaxed")
            || t.text.contains("HashMap")),
        "string/comment contents must not become tokens"
    );
    assert_eq!(lexed.comments.len(), 2);
    assert!(!lexed.comments[0].own_line, "trailing comment");
    assert!(
        lexed.comments[1].own_line,
        "block comment alone on its line"
    );
}

#[test]
fn lexer_handles_raw_strings_and_chars() {
    let src = "let a = r#\"Instant \"quoted\" inside\"#; let b = b\"SystemTime\"; let c = '\\n'; let d: &'static str = \"x\";";
    let lexed = lex(src);
    assert!(
        !lexed
            .tokens
            .iter()
            .any(|t| t.text.contains("Instant") || t.text.contains("SystemTime")),
        "raw and byte string bodies must be stripped"
    );
    assert!(
        lexed
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'static"),
        "lifetimes survive as tokens"
    );
}

#[test]
fn lexer_keeps_range_expressions_apart() {
    let lexed = lex("for i in 0..n { let x = 1e9; let y = 2.5; }");
    let nums: Vec<&str> = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(
        nums,
        ["0", "1e9", "2.5"],
        "`0..n` must not fuse into one number"
    );
}

#[test]
fn lexer_marks_cfg_test_regions() {
    let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}";
    let lexed = lex(src);
    let unwrap_tok = lexed
        .tokens
        .iter()
        .find(|t| t.text == "unwrap")
        .expect("unwrap token present");
    assert!(unwrap_tok.in_test, "tokens under #[cfg(test)] are marked");
    let lib2 = lexed.tokens.iter().find(|t| t.text == "lib2").unwrap();
    assert!(!lib2.in_test, "marking ends with the balanced brace");
}

#[test]
fn lexer_does_not_mark_cfg_not_test() {
    let src = "#[cfg(not(test))]\nfn real() { x.unwrap(); }";
    let lexed = lex(src);
    let unwrap_tok = lexed.tokens.iter().find(|t| t.text == "unwrap").unwrap();
    assert!(!unwrap_tok.in_test, "#[cfg(not(test))] is library code");
}

// ---------------------------------------------------------- determinism

#[test]
fn determinism_time_caught_and_alias_resolved() {
    let direct = scan(
        "crates/ilp/src/x.rs",
        "use std::time::Instant;\nfn f() { let t = Instant::now(); }",
    );
    assert!(rules_of(&direct).contains(&Rule::DeterminismTime));

    let aliased = scan(
        "crates/ilp/src/x.rs",
        "use std::time::Instant as Clock;\nfn f() { let t = Clock::now(); }",
    );
    assert!(
        rules_of(&aliased).contains(&Rule::DeterminismTime),
        "`use … as` rename must still be caught"
    );
}

#[test]
fn determinism_rng_caught() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "use rand::thread_rng;\nfn f() { let mut rng = thread_rng(); }",
    );
    assert!(rules_of(&r).contains(&Rule::DeterminismRng));
}

#[test]
fn string_mentioning_banned_names_is_clean() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "fn f() -> &'static str { \"HashMap iteration and Instant and thread_rng\" }",
    );
    assert!(r.is_clean(), "strings are not code: {}", r.render());
}

#[test]
fn cfg_test_code_is_exempt() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n    #[test]\n    fn t() { let _ = Instant::now(); x.unwrap(); }\n}",
    );
    assert!(r.is_clean(), "cfg(test) is exempt: {}", r.render());
}

#[test]
fn test_directory_files_are_exempt() {
    let r = scan(
        "crates/ilp/tests/determinism.rs",
        "use std::time::Instant;\nfn f() { let t = Instant::now(); x.unwrap(); }",
    );
    assert!(r.is_clean(), "tests/ files are exempt: {}", r.render());
}

// ------------------------------------------------------- hash iteration

#[test]
fn hash_iteration_methods_caught_lookups_legal() {
    let src = "use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {\n    let _ = m.get(&1);\n    let _ = m.len();\n    for k in m.keys() { let _ = k; }\n}";
    let r = scan("crates/ilp/src/x.rs", src);
    let hits: Vec<u32> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::HashIteration)
        .map(|f| f.line)
        .collect();
    assert_eq!(
        hits,
        [5],
        "keys() flagged, get()/len() legal: {}",
        r.render()
    );
}

#[test]
fn hash_iteration_for_loop_caught() {
    let src = "use std::collections::HashSet;\nfn f() {\n    let mut s: HashSet<u32> = HashSet::new();\n    s.insert(1);\n    for v in &s { let _ = v; }\n}";
    let r = scan("crates/ilp/src/x.rs", src);
    assert!(
        rules_of(&r).contains(&Rule::HashIteration),
        "`for … in &set` must be flagged: {}",
        r.render()
    );
}

#[test]
fn hash_iteration_through_alias_and_nested() {
    let aliased = scan(
        "crates/ilp/src/x.rs",
        "use std::collections::HashMap as Map;\nfn f(m: Map<u32, u32>) { for v in m.values() { let _ = v; } }",
    );
    assert!(rules_of(&aliased).contains(&Rule::HashIteration));

    let nested = scan(
        "crates/ilp/src/x.rs",
        "use std::collections::HashSet;\nfn f(adj: Vec<HashSet<u32>>) {\n    for v in adj[0].iter() { let _ = v; }\n}",
    );
    assert!(
        rules_of(&nested).contains(&Rule::HashIteration),
        "indexed element of a Vec<HashSet> must be flagged: {}",
        nested.render()
    );
}

#[test]
fn hash_iteration_inferred_binding_caught() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "use std::collections::HashMap;\nfn f() {\n    let m = HashMap::<u32, u32>::new();\n    let _: Vec<_> = m.drain().collect();\n}",
    );
    assert!(rules_of(&r).contains(&Rule::HashIteration));
}

#[test]
fn vec_iteration_is_legal() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "fn f(v: Vec<u32>) { for x in v.iter() { let _ = x; } for y in &v {} }",
    );
    assert!(r.is_clean(), "Vec traversal is fine: {}", r.render());
}

// ---------------------------------------------------------- concurrency

#[test]
fn relaxed_ordering_caught_bare_ident_legal() {
    let caught = scan(
        "crates/ilp/src/x.rs",
        "use std::sync::atomic::{AtomicU64, Ordering};\nfn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }",
    );
    assert!(rules_of(&caught).contains(&Rule::RelaxedOrdering));

    let bare = scan(
        "crates/ilp/src/x.rs",
        "struct Relaxed;\nfn f() { let _ = Relaxed; }",
    );
    assert!(
        !rules_of(&bare).contains(&Rule::RelaxedOrdering),
        "only `…::Relaxed` path uses count"
    );
}

#[test]
fn thread_spawn_caught() {
    let r = scan(
        "crates/core/src/x.rs",
        "use std::thread;\nfn f() { thread::spawn(|| {}); }",
    );
    assert!(rules_of(&r).contains(&Rule::ThreadSpawn));
    let scoped = scan(
        "crates/core/src/x.rs",
        "fn f() { std::thread::scope(|_| {}); }",
    );
    assert!(rules_of(&scoped).contains(&Rule::ThreadSpawn));
}

// ----------------------------------------------------------- panic path

#[test]
fn panic_path_caught_unwrap_or_legal() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn h(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }",
    );
    let hits: Vec<u32> = r
        .findings
        .iter()
        .filter(|f| f.rule == Rule::PanicPath)
        .map(|f| f.line)
        .collect();
    assert_eq!(
        hits,
        [1],
        "unwrap() flagged, unwrap_or* legal: {}",
        r.render()
    );
}

// ------------------------------------------------------ ticks arithmetic

#[test]
fn ticks_arithmetic_caught_in_all_spellings() {
    for lit in [
        "1e9",
        "1E9",
        "1_000_000_000",
        "1000000000",
        "1_000_000_000u64",
    ] {
        let src = format!("fn f(n: u64) -> u64 {{ n * {lit} as u64 }}");
        let r = scan("crates/ilp/src/x.rs", &src);
        assert!(
            rules_of(&r).contains(&Rule::TicksArithmetic),
            "`{lit}` must be caught"
        );
    }
    let other = scan("crates/ilp/src/x.rs", "fn f() -> u64 { 2_000_000_000 }");
    assert!(other.is_clean(), "other constants stay legal");
}

// -------------------------------------------------------- forbid unsafe

#[test]
fn forbid_unsafe_required_in_crate_roots_only() {
    let missing = scan("crates/ilp/src/lib.rs", "//! docs\npub fn f() {}");
    assert_eq!(rules_of(&missing), [Rule::ForbidUnsafe]);
    assert_eq!(missing.findings[0].line, 1);

    let present = scan(
        "crates/ilp/src/lib.rs",
        "//! docs\n#![forbid(unsafe_code)]\npub fn f() {}",
    );
    assert!(present.is_clean());

    let module = scan("crates/ilp/src/solver.rs", "pub fn f() {}");
    assert!(module.is_clean(), "non-root modules need no attribute");
}

// --------------------------------------------------------------- waivers

#[test]
fn same_line_waiver_suppresses_with_reason() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(panic-path) — x checked by caller",
    );
    assert!(r.is_clean(), "{}", r.render());
    assert_eq!(r.waived.len(), 1);
    assert_eq!(r.waived[0].1, "x checked by caller");
}

#[test]
fn own_line_waiver_covers_code_below_through_comment_block() {
    let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(panic-path) — invariant: caller checked\n    // more commentary between waiver and code\n    x.unwrap()\n}";
    let r = scan("crates/ilp/src/x.rs", src);
    assert!(
        r.is_clean(),
        "contiguous comment block must carry the waiver: {}",
        r.render()
    );
    assert_eq!(r.waived.len(), 1);
}

#[test]
fn waiver_does_not_cross_code_lines_or_rules() {
    let gap = scan(
        "crates/ilp/src/x.rs",
        "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    // lint: allow(panic-path) — only covers the next line\n    let a = x.unwrap();\n    a + y.unwrap()\n}",
    );
    assert_eq!(
        gap.findings.len(),
        1,
        "second unwrap stays flagged: {}",
        gap.render()
    );
    assert_eq!(gap.findings[0].line, 4);

    let wrong_rule = scan(
        "crates/ilp/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint: allow(hash-iteration) — wrong rule",
    );
    assert_eq!(
        rules_of(&wrong_rule),
        [Rule::PanicPath],
        "a waiver only covers its own rule"
    );
}

#[test]
fn malformed_waivers_are_findings() {
    // Empty reason.
    let empty = scan(
        "crates/ilp/src/x.rs",
        "// lint: allow(panic-path)\nfn f() {}",
    );
    assert_eq!(rules_of(&empty), [Rule::MalformedWaiver]);
    // Unknown rule name.
    let unknown = scan(
        "crates/ilp/src/x.rs",
        "// lint: allow(no-such-rule) — reason\nfn f() {}",
    );
    assert_eq!(rules_of(&unknown), [Rule::MalformedWaiver]);
    // Not the allow(…) form at all.
    let garbled = scan(
        "crates/ilp/src/x.rs",
        "// lint: disable everything\nfn f() {}",
    );
    assert_eq!(rules_of(&garbled), [Rule::MalformedWaiver]);
    // Prose merely *mentioning* the marker is not a waiver attempt.
    let prose = scan(
        "crates/ilp/src/x.rs",
        "// the `lint:` marker is described here\nfn f() {}",
    );
    assert!(prose.is_clean(), "{}", prose.render());
}

// ------------------------------------------------------------- allowlist

#[test]
fn allowlist_covers_by_prefix_and_rule() {
    let toml = "[[allow]]\npath = \"crates/bench/\"\nrules = [\"determinism-time\"]\nreason = \"bench measures wall time by design\"\n";
    let allow = Allowlist::parse(toml).expect("valid allowlist");
    let covered = scan_source(
        "crates/bench/src/x.rs",
        "use std::time::Instant;\nfn f() { let _ = Instant::now(); }",
        &allow,
    );
    assert!(covered.is_clean(), "{}", covered.render());
    assert!(!covered.allowlisted.is_empty());

    // Same source outside the prefix still fails.
    let outside = scan_source(
        "crates/ilp/src/x.rs",
        "use std::time::Instant;\nfn f() { let _ = Instant::now(); }",
        &allow,
    );
    assert!(!outside.is_clean());

    // Same prefix, different rule still fails.
    let other_rule = scan_source(
        "crates/bench/src/x.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }",
        &allow,
    );
    assert_eq!(rules_of(&other_rule), [Rule::PanicPath]);
}

#[test]
fn allowlist_wildcard_and_validation() {
    let wild = Allowlist::parse(
        "[[allow]]\npath = \"crates/compat/\"\nrules = [\"*\"]\nreason = \"offline stubs\"\n",
    )
    .expect("wildcard parses");
    let r = scan_source(
        "crates/compat/rand/src/lib.rs",
        "pub fn thread_rng() -> u32 { 4 }",
        &wild,
    );
    assert!(r.is_clean(), "{}", r.render());

    // Reason is mandatory.
    assert!(Allowlist::parse("[[allow]]\npath = \"x\"\nrules = [\"*\"]\nreason = \"\"\n").is_err());
    // Unknown rules are rejected.
    assert!(
        Allowlist::parse("[[allow]]\npath = \"x\"\nrules = [\"bogus\"]\nreason = \"r\"\n").is_err()
    );
    // Keys outside a block are rejected.
    assert!(Allowlist::parse("path = \"x\"\n").is_err());
}

// ------------------------------------------------------------ reporting

#[test]
fn report_carries_location_snippet_and_hint() {
    let r = scan(
        "crates/ilp/src/x.rs",
        "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}",
    );
    assert_eq!(r.findings.len(), 1);
    let f = &r.findings[0];
    assert_eq!((f.file.as_str(), f.line), ("crates/ilp/src/x.rs", 2));
    assert_eq!(f.snippet, "x.unwrap()");
    let rendered = r.render();
    assert!(rendered.contains("crates/ilp/src/x.rs:2 [panic-path]"));
    assert!(
        rendered.contains("// lint: allow(panic-path)"),
        "waiver hint present"
    );
}

// -------------------------------------------------------- float-equality

#[test]
fn float_equality_flags_eq_ne_and_partial_cmp() {
    let eq = scan(
        "crates/ilp/src/x.rs",
        "fn f(a: f64, b: f64) -> bool { a == b }",
    );
    assert_eq!(rules_of(&eq), [Rule::FloatEquality]);

    let ne = scan("crates/ilp/src/x.rs", "fn f(c: f64) -> bool { c != 2.5 }");
    assert_eq!(rules_of(&ne), [Rule::FloatEquality]);

    // NaN silently compares Equal here, corrupting the sort order.
    let pc = scan(
        "crates/ilp/src/x.rs",
        "fn f(xs: &mut [f64]) { xs.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal)); }",
    );
    assert_eq!(rules_of(&pc), [Rule::FloatEquality]);
}

#[test]
fn float_equality_exemptions_and_waiver() {
    // `x == 0.0` is the structural-zero test sparse kernels rest on.
    let zero = scan("crates/ilp/src/x.rs", "fn f(a: f64) -> bool { a == 0.0 }");
    assert!(zero.is_clean(), "{}", zero.render());

    // ±INFINITY is the exact no-bound sentinel.
    let inf = scan(
        "crates/ilp/src/x.rs",
        "fn f(a: f64) -> bool { a == f64::INFINITY || a != f64::NEG_INFINITY }",
    );
    assert!(inf.is_clean(), "{}", inf.render());

    // `total_cmp` is the sanctioned comparator.
    let tc = scan(
        "crates/ilp/src/x.rs",
        "fn f(xs: &mut [f64]) { xs.sort_by(|p, q| p.total_cmp(q)); }",
    );
    assert!(tc.is_clean(), "{}", tc.render());

    // A `.`-chain past an index ends in a call — untyped, not flagged
    // (`to_bits` comparisons must stay legal).
    let bits = scan(
        "crates/ilp/src/x.rs",
        "fn f(xs: &[f64], y: f64) -> bool { xs[0].to_bits() == y.to_bits() }",
    );
    assert!(bits.is_clean(), "{}", bits.render());

    // Test code may compare exactly.
    let test = scan(
        "crates/ilp/src/x.rs",
        "#[cfg(test)]\nmod tests {\n    fn t(a: f64) -> bool { a == 1.5 }\n}",
    );
    assert!(test.is_clean(), "{}", test.render());

    let waived = scan(
        "crates/ilp/src/x.rs",
        "fn f(a: f64, b: f64) -> bool { a == b } // lint: allow(float-equality) — bit-identity check on a cached copy",
    );
    assert!(waived.is_clean(), "{}", waived.render());
    assert_eq!(waived.waived.len(), 1);
}

// ------------------------------------------------------- tolerance-drift

#[test]
fn tolerance_drift_flags_band_by_value() {
    let lit = scan("crates/ilp/src/x.rs", "const T: f64 = 1e-6;");
    assert_eq!(rules_of(&lit), [Rule::ToleranceDrift]);

    // Evaluated by value: `1_000e-9f64` is 1e-6, squarely in band,
    // even though no single digit pair says so.
    let fused = scan("crates/ilp/src/x.rs", "const T: f64 = 1_000e-9f64;");
    assert_eq!(rules_of(&fused), [Rule::ToleranceDrift]);
}

#[test]
fn tolerance_drift_exemptions_and_waiver() {
    // Out of band on both sides (1e-3 itself is legal: half-open band).
    let out = scan(
        "crates/ilp/src/x.rs",
        "const A: f64 = 0.5;\nconst B: f64 = 5e3;\nconst C: f64 = 1e-13;\nconst D: f64 = 1e-3;",
    );
    assert!(out.is_clean(), "{}", out.render());

    // Integers are not tolerances.
    let int = scan("crates/ilp/src/x.rs", "const N: usize = 100;");
    assert!(int.is_clean(), "{}", int.render());

    let waived = scan(
        "crates/ilp/src/x.rs",
        "// lint: allow(tolerance-drift) — sampling guard, not a solver tolerance\nconst T: f64 = 1e-6;",
    );
    assert!(waived.is_clean(), "{}", waived.render());
    assert_eq!(waived.waived.len(), 1);

    // The `tol.rs` definition site is exempted via the allowlist.
    let toml = "[[allow]]\npath = \"crates/ilp/src/tol.rs\"\nrules = [\"tolerance-drift\"]\nreason = \"single definition site of every solver tolerance\"\n";
    let allow = Allowlist::parse(toml).expect("valid allowlist");
    let tol = scan_source(
        "crates/ilp/src/tol.rs",
        "pub const FEAS: f64 = 1e-6;",
        &allow,
    );
    assert!(tol.is_clean(), "{}", tol.render());
    assert_eq!(tol.allowlisted.len(), 1);
}

// ----------------------------------------------------- lock-order (flow)

fn scan_files(files: &[(&str, &str)]) -> ScanOutput {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
        .collect();
    scan_sources(&owned, &Allowlist::default())
}

#[test]
fn lock_order_cycle_across_files_is_a_finding() {
    // a.rs takes queue_a before queue_b; b.rs takes them in the
    // opposite order — a deadlock no scheduler can rule out.
    let a = "pub struct Exchange { pub queue_a: Mutex<Vec<u32>>, pub queue_b: Mutex<Vec<u32>> }\n\
             fn drain_ab(ex: &Exchange) {\n    let g = ex.queue_a.lock().unwrap_or_else(|e| e.into_inner());\n    let h = ex.queue_b.lock().unwrap_or_else(|e| e.into_inner());\n    drop((g, h));\n}";
    let b = "fn drain_ba(ex: &Exchange) {\n    let g = ex.queue_b.lock().unwrap_or_else(|e| e.into_inner());\n    let h = ex.queue_a.lock().unwrap_or_else(|e| e.into_inner());\n    drop((g, h));\n}";
    let out = scan_files(&[("crates/ilp/src/a.rs", a), ("crates/ilp/src/b.rs", b)]);
    assert!(out.lock_graph.find_cycle().is_some());
    assert!(out.lock_graph.topological_order().is_none());
    assert!(
        rules_of(&out.report).contains(&Rule::LockOrder),
        "{}",
        out.report.render()
    );
    assert!(out.lock_graph.render_contract().contains("CYCLE"));
}

#[test]
fn lock_order_consistent_nesting_is_clean() {
    let a = "pub struct Exchange { pub queue_a: Mutex<Vec<u32>>, pub queue_b: Mutex<Vec<u32>> }\n\
             fn drain_ab(ex: &Exchange) {\n    let g = ex.queue_a.lock().unwrap_or_else(|e| e.into_inner());\n    let h = ex.queue_b.lock().unwrap_or_else(|e| e.into_inner());\n    drop((g, h));\n}";
    let b = "fn also_ab(ex: &Exchange) {\n    let g = ex.queue_a.lock().unwrap_or_else(|e| e.into_inner());\n    let h = ex.queue_b.lock().unwrap_or_else(|e| e.into_inner());\n    drop((g, h));\n}";
    let out = scan_files(&[("crates/ilp/src/a.rs", a), ("crates/ilp/src/b.rs", b)]);
    assert!(out.report.is_clean(), "{}", out.report.render());
    assert_eq!(
        out.lock_graph.topological_order(),
        Some(vec!["queue_a".to_string(), "queue_b".to_string()])
    );
    let contract = out.lock_graph.render_contract();
    assert!(contract.contains("`queue_a` → `queue_b`"), "{contract}");
}

#[test]
fn lock_order_contract_names_files_not_lines() {
    let decl =
        "pub struct Exchange { pub queue_a: Mutex<Vec<u32>>, pub queue_b: Mutex<Vec<u32>> }\n";
    let body = "fn drain_ab(ex: &Exchange) {\n    let g = ex.queue_a.lock().unwrap_or_else(|e| e.into_inner());\n    let h = ex.queue_b.lock().unwrap_or_else(|e| e.into_inner());\n    drop((g, h));\n}";
    let contract = |files: &[(&str, &str)]| scan_files(files).lock_graph.render_contract();
    let base = contract(&[("crates/ilp/src/a.rs", &format!("{decl}{body}"))]);
    // Lines added above the declaration and the acquisitions move no
    // entry of the contract...
    let shifted = contract(&[(
        "crates/ilp/src/a.rs",
        &format!("\n\n// moved\n{decl}\n{body}"),
    )]);
    assert_eq!(base, shifted);
    // ...while the locks moving to another file does.
    let moved = contract(&[("crates/ilp/src/a.rs", body), ("crates/ilp/src/b.rs", decl)]);
    assert_ne!(base, moved);
    assert!(
        moved.contains("`queue_a` — declared in crates/ilp/src/b.rs"),
        "{moved}"
    );
}

#[test]
fn lock_order_temporary_guard_drops_at_statement_end() {
    // Statement temporaries release at `;`: sequential acquisitions in
    // separate statements are not nested and produce no edge.
    let src = "pub struct S { pub qa: Mutex<Vec<u32>>, pub qb: Mutex<Vec<u32>> }\n\
               fn f(s: &S) {\n    s.qa.lock().unwrap_or_else(|e| e.into_inner()).push(1);\n    s.qb.lock().unwrap_or_else(|e| e.into_inner()).push(2);\n}";
    let out = scan_files(&[("crates/ilp/src/a.rs", src)]);
    assert!(
        out.lock_graph.edges.is_empty(),
        "{:?}",
        out.lock_graph.edges
    );
}

#[test]
fn lock_order_edge_through_direct_callee() {
    let src = "pub struct S { pub qa: Mutex<Vec<u32>>, pub qb: Mutex<Vec<u32>> }\n\
               fn outer(s: &S) {\n    let g = s.qa.lock().unwrap_or_else(|e| e.into_inner());\n    inner(s);\n    drop(g);\n}\n\
               fn inner(s: &S) {\n    s.qb.lock().unwrap_or_else(|e| e.into_inner()).push(1);\n}";
    let out = scan_files(&[("crates/ilp/src/a.rs", src)]);
    assert!(
        out.lock_graph.edges.iter().any(|e| e.held == "qa"
            && e.acquired == "qb"
            && e.via_call.as_deref() == Some("inner")),
        "{:?}",
        out.lock_graph.edges
    );
}

#[test]
fn lock_order_waiver_suppresses_witness() {
    let src = "pub struct S { pub qa: Mutex<Vec<u32>>, pub qb: Mutex<Vec<u32>> }\n\
fn ab(s: &S) {\n    let g = s.qa.lock().unwrap_or_else(|e| e.into_inner());\n    let h = s.qb.lock().unwrap_or_else(|e| e.into_inner()); // lint: allow(lock-order) — ab and ba are phase-exclusive\n    drop((g, h));\n}\n\
fn ba(s: &S) {\n    let g = s.qb.lock().unwrap_or_else(|e| e.into_inner());\n    let h = s.qa.lock().unwrap_or_else(|e| e.into_inner()); // lint: allow(lock-order) — ab and ba are phase-exclusive\n    drop((g, h));\n}";
    let out = scan_files(&[("crates/ilp/src/a.rs", src)]);
    assert!(out.report.is_clean(), "{}", out.report.render());
    assert_eq!(out.report.waived.len(), 2);
}

// ----------------------------------------------------- tick-charge (flow)

#[test]
fn tick_charge_flags_uncharged_kernel_loop() {
    let src = "fn solve(n: usize) {\n    for _ in 0..n {\n        ftran_dense();\n    }\n}\nfn ftran_dense() {}";
    let r = scan("crates/ilp/src/revised.rs", src);
    assert_eq!(rules_of(&r), [Rule::TickCharge]);
    assert_eq!(r.findings[0].line, 2, "finding sits on the loop line");
}

#[test]
fn tick_charge_exemptions_and_waiver() {
    // Charged inline.
    let inline = scan(
        "crates/ilp/src/revised.rs",
        "fn solve(n: usize, clock: &mut Clock) {\n    for _ in 0..n {\n        ftran_dense();\n        clock.charge(4);\n    }\n}\nfn ftran_dense() {}",
    );
    assert!(inline.is_clean(), "{}", inline.render());

    // Charged through a direct callee that meters work.
    let callee = scan(
        "crates/ilp/src/revised.rs",
        "fn solve(n: usize) {\n    for _ in 0..n {\n        ftran_dense();\n        note_progress();\n    }\n}\nfn ftran_dense() {}\nfn note_progress() { let work = 1; let _ = work; }",
    );
    assert!(callee.is_clean(), "{}", callee.render());

    // Outside the hot-path file set the rule does not apply.
    let outside = scan(
        "crates/ilp/src/model.rs",
        "fn solve(n: usize) {\n    for _ in 0..n {\n        ftran_dense();\n    }\n}\nfn ftran_dense() {}",
    );
    assert!(outside.is_clean(), "{}", outside.render());

    let waived = scan(
        "crates/ilp/src/revised.rs",
        "fn solve(n: usize) {\n    // lint: allow(tick-charge) — cold path: runs once per refactorisation\n    for _ in 0..n {\n        ftran_dense();\n    }\n}\nfn ftran_dense() {}",
    );
    assert!(waived.is_clean(), "{}", waived.render());
    assert_eq!(waived.waived.len(), 1);
}

#[test]
fn rule_ids_round_trip() {
    for rule in Rule::ALL {
        assert_eq!(Rule::from_id(rule.id()), Some(rule));
        assert!(!rule.describe().is_empty());
    }
    assert_eq!(Rule::from_id("not-a-rule"), None);
}
