//! End-to-end coverage for the dataflow layer (taint, suppression
//! liveness): every seeded violation in `dataflow_seeded`
//! must be caught with the expected flow, and the `dataflow_known_good`
//! twin — same shapes, done right — must produce zero findings (no
//! false positives).

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
fn seeded_dataflow_violations_are_all_caught_exactly() {
    let wa = analyze_workspace(&fixture_root("dataflow_seeded"), false).expect("walk fixture");

    let taint = by_rule(&wa.findings, "unvalidated-envelope-to-sink");
    assert_eq!(taint.len(), 2, "{:#?}", wa.findings);
    // Direct flow: frame tainted by try_read reaches the append.
    assert!(
        taint.iter().any(|f| {
            f.file == "crates/store/src/ingest.rs"
                && f.excerpt.contains("`frame`")
                && f.excerpt.contains("try_read")
        }),
        "{taint:#?}"
    );
    // Interprocedural flow: `store` is sink-like through its summary.
    assert!(
        taint.iter().any(|f| f.excerpt.contains("`raw`") && f.excerpt.contains("`store`")),
        "{taint:#?}"
    );
    // Every taint finding's witness names the source and the sink.
    for f in &taint {
        let w = f.witness.as_deref().unwrap_or("");
        assert!(w.contains("tainted by") && w.contains("reaches sink"), "{f:#?}");
    }

    let stale = by_rule(&wa.findings, "unused-suppression");
    assert_eq!(stale.len(), 1, "{:#?}", wa.findings);
    assert_eq!(stale[0].file, "crates/store/src/stale.rs");
    assert!(stale[0].excerpt.contains("allow(raw-clock)"), "{stale:#?}");

    // Nothing else fires on the seeded tree.
    assert_eq!(wa.findings.len(), 3, "{:#?}", wa.findings);
}

#[test]
fn known_good_dataflow_twin_has_zero_findings() {
    let wa =
        analyze_workspace(&fixture_root("dataflow_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "{:#?}", wa.findings);
}
