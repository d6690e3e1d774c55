//! `pub-without-caller` over a small tree (`fixtures/callers`): the
//! items it reports, the ones it keeps, and its suppressions.

use std::path::PathBuf;

use wsd_lint::{analyze_workspace, WorkspaceAnalysis};

fn analysis() -> WorkspaceAnalysis {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/callers");
    analyze_workspace(&root, false).expect("walk fixture")
}

fn reported(wa: &WorkspaceAnalysis, rule: &str) -> Vec<String> {
    wa.findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| format!("{}:{} {}", f.file, f.line, f.excerpt))
        .collect()
}

#[test]
fn a_fn_only_its_own_tests_call_and_a_method_only_re_exported_are_reported() {
    let wa = analysis();
    assert_eq!(
        reported(&wa, "pub-without-caller"),
        [
            "crates/a/src/lib.rs:5 pub fn only_own_tests() {}",
            "crates/a/src/lib.rs:20 pub fn only_reexported(&self) {}",
        ]
    );
}

#[test]
fn signature_types_trait_methods_and_benchmark_callers_keep_an_item() {
    let wa = analysis();
    for kept in [
        "SeriesPoint",
        "fn next",
        "bench_only",
        "never_reported",
        "renamed",
    ] {
        assert!(
            wa.findings.iter().all(|f| !f.excerpt.contains(kept)),
            "{kept}: {:#?}",
            wa.findings
        );
    }
    assert_eq!(wa.files, 2, "benchmark/src is read, not linted");
}

#[test]
fn an_allow_with_a_reason_is_honoured_and_a_stale_one_reported() {
    let wa = analysis();
    assert_eq!(wa.suppressions, 2);
    assert_eq!(
        reported(&wa, "unused-suppression"),
        ["crates/a/src/lib.rs:37 allow(pub-without-caller) here silences nothing — delete it or re-justify it"]
    );
    assert_eq!(wa.findings.len(), 3, "{:#?}", wa.findings);
}
