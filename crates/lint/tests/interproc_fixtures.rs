//! End-to-end coverage for the interprocedural layer: each seeded
//! violation in the `graph_seeded` fixture tree must be caught with the
//! expected witness chain, and the `graph_known_good` twin — same
//! shapes, done right — must produce zero findings (no false
//! positives).

use std::path::PathBuf;

use wsd_lint::analyze_workspace;
use wsd_lint::rules::Finding;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn seeded_graph_violations_are_all_caught_exactly() {
    let wa = analyze_workspace(&fixture_root("graph_seeded"), false).expect("walk fixture");

    let bul = by_rule(&wa.findings, "blocking-under-lock");
    assert_eq!(bul.len(), 2, "{:#?}", wa.findings);
    for f in &bul {
        assert_eq!(f.file, "crates/concurrent/src/pool.rs");
        assert!(f.excerpt.contains("pool.handles"), "{f:?}");
    }
    // The transitive one names the helper in its witness chain.
    assert!(
        bul.iter().any(|f| {
            f.witness
                .as_deref()
                .is_some_and(|w| w.contains("Pool::join_all") && w.contains("thread join"))
        }),
        "{bul:#?}"
    );

    let slo = by_rule(&wa.findings, "static-lock-order");
    assert_eq!(slo.len(), 1, "{:#?}", wa.findings);
    assert!(slo[0].excerpt.contains("pair.left") && slo[0].excerpt.contains("pair.right"));
    // Both orientations of the conflicting edge exist in the edge set.
    assert!(wa.lock_edges.iter().any(|e| e.from == "pair.left" && e.to == "pair.right"));
    assert!(wa.lock_edges.iter().any(|e| e.from == "pair.right" && e.to == "pair.left"));

    // Nothing else fires: the seeded total is exactly the two rules'.
    assert_eq!(wa.findings.len(), 3, "{:#?}", wa.findings);
}

#[test]
fn known_good_graph_twin_has_zero_findings() {
    let wa = analyze_workspace(&fixture_root("graph_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "false positives: {:#?}", wa.findings);
    // The consistent-order twin still records its (acyclic) edge.
    assert!(wa.lock_edges.iter().any(|e| e.from == "pair.left" && e.to == "pair.right"));
    assert!(!wa.lock_edges.iter().any(|e| e.from == "pair.right" && e.to == "pair.left"));
}

#[test]
fn seeded_fixtures_are_exempt_under_their_real_path() {
    // From the repo root the fixture trees live under
    // crates/lint/tests/fixtures/ — test collateral, so the real
    // workspace run must not see their seeded violations.
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    let wa = analyze_workspace(&repo_root, false).expect("walk workspace");
    assert!(
        wa.findings
            .iter()
            .all(|f| !f.file.contains("graph_seeded")),
        "{:#?}",
        wa.findings
    );
}
