//! Tier-1 gate: the workspace must scan clean under `croxmap-lint`.
//!
//! This is the same analysis `cargo run -p croxmap-lint -- --deny` runs
//! in CI, wired into plain `cargo test -q` so a determinism or
//! concurrency-hygiene violation fails the suite the moment it is
//! introduced — with the finding's file, line, snippet and the waiver
//! syntax in the assertion message. Beyond cleanliness, the committed
//! lock-order contract is checked for freshness: `docs/lock_order.md`
//! must match the graph the scan just built.

use std::path::Path;

#[test]
fn workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = croxmap_lint::scan_workspace_full(root).expect("workspace scan runs");
    let report = &out.report;
    assert!(
        report.is_clean(),
        "croxmap-lint found unwaived violations:\n{}",
        report.render()
    );
    // Sanity-check the scan actually covered the tree: the workspace has
    // dozens of sources, and a walker bug that scanned nothing would
    // otherwise pass vacuously.
    assert!(
        report.files > 50,
        "suspiciously few files scanned ({}); walker broken?",
        report.files
    );
    // Every suppression carries a non-empty reason by construction
    // (malformed waivers are findings, the allowlist parser rejects
    // empty reasons) — assert it end-to-end anyway.
    for (finding, reason) in &report.waived {
        assert!(
            !reason.trim().is_empty(),
            "waiver without reason at {finding}"
        );
    }
}

#[test]
fn lock_order_contract_is_acyclic_and_fresh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = croxmap_lint::scan_workspace_full(root).expect("workspace scan runs");
    assert!(
        out.lock_graph.find_cycle().is_none(),
        "lock graph has a cycle: {:?}",
        out.lock_graph.find_cycle()
    );
    // The committed contract must be exactly what the scan proves now —
    // regenerate with `cargo run -p croxmap-lint -- --lock-graph`.
    let committed = std::fs::read_to_string(root.join("docs/lock_order.md"))
        .expect("docs/lock_order.md is committed");
    assert_eq!(
        committed.trim(),
        out.lock_graph.render_contract().trim(),
        "docs/lock_order.md is stale; regenerate with `cargo run -p croxmap-lint -- --lock-graph > docs/lock_order.md`"
    );
}
