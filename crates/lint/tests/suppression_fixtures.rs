//! End-to-end coverage for suppression liveness: the stale allow in
//! `suppression_seeded` must be reported as `unused-suppression`, and
//! the live one in the `suppression_known_good` twin — it still
//! silences a real finding — must produce zero findings.

use std::path::PathBuf;

use wsd_lint::analyze_workspace;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

#[test]
fn a_stale_allow_is_an_unused_suppression() {
    let wa = analyze_workspace(&fixture_root("suppression_seeded"), false).expect("walk fixture");
    assert_eq!(wa.findings.len(), 1, "{:#?}", wa.findings);
    let stale = &wa.findings[0];
    assert_eq!(stale.rule, "unused-suppression");
    assert_eq!(stale.file, "crates/store/src/stale.rs");
    assert!(stale.excerpt.contains("allow(raw-clock)"), "{stale:#?}");
}

#[test]
fn a_live_allow_is_not_reported() {
    let wa =
        analyze_workspace(&fixture_root("suppression_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "{:#?}", wa.findings);
    assert_eq!(wa.suppressions, 1);
}
