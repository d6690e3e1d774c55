//! End-to-end coverage for the analyzer: seeded-violation fixtures must
//! all be caught, known-good fixtures must produce zero findings, and the
//! live workspace must carry no unsuppressed finding.

use std::collections::BTreeMap;

use wsd_lint::rules::Finding;
use wsd_lint::{analyze_workspace, lint_source, suppressions_in};

const SEEDED: &str = include_str!("fixtures/seeded_violations.rs");
const KNOWN_GOOD: &str = include_str!("fixtures/known_good.rs");

/// The fixture is linted as if it lived on a dispatcher serve path, so
/// every rule is in scope.
const DISPATCHER_PATH: &str = "crates/core/src/fixture.rs";

fn count_rule(findings: &[Finding], rule: &str) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_seeded_violation_is_caught() {
    let findings = lint_source(DISPATCHER_PATH, SEEDED);
    assert_eq!(count_rule(&findings, "raw-thread-spawn"), 2, "{findings:#?}");
    // Three raw-clock hits: two seeded directly, one under a reasonless
    // (therefore inoperative) suppression.
    assert_eq!(count_rule(&findings, "raw-clock"), 3, "{findings:#?}");
    assert_eq!(count_rule(&findings, "std-sync-primitive"), 1, "{findings:#?}");
    assert_eq!(count_rule(&findings, "unwrap-in-dispatcher"), 2, "{findings:#?}");
    assert_eq!(
        count_rule(&findings, "unbounded-queue-at-serve-site"),
        2,
        "{findings:#?}"
    );
    assert_eq!(count_rule(&findings, "raw-file-io"), 2, "{findings:#?}");
    // One reasonless suppression + one unknown-rule suppression.
    assert_eq!(count_rule(&findings, "bad-suppression"), 2, "{findings:#?}");
    assert_eq!(findings.len(), 14);
}

#[test]
fn seeded_findings_carry_line_and_excerpt() {
    let findings = lint_source(DISPATCHER_PATH, SEEDED);
    let spawn = findings
        .iter()
        .find(|f| f.rule == "raw-thread-spawn")
        .expect("spawn finding");
    assert!(spawn.line > 0);
    assert!(
        SEEDED.lines().nth(spawn.line - 1).unwrap().contains("thread::spawn"),
        "excerpt line must match the source line"
    );
    assert!(spawn.excerpt.contains("thread::spawn"));
}

#[test]
fn known_good_fixture_has_zero_findings() {
    let findings = lint_source(DISPATCHER_PATH, KNOWN_GOOD);
    assert!(findings.is_empty(), "false positives: {findings:#?}");
}

#[test]
fn known_good_fixture_suppressions_all_carry_reasons() {
    let sups = suppressions_in(KNOWN_GOOD);
    assert_eq!(sups.len(), 3);
    for (line, rule, reason) in sups {
        assert!(!reason.is_empty(), "suppression of {rule} at {line} lacks a reason");
    }
}

#[test]
fn fixtures_under_their_real_path_are_exempt() {
    // The workspace walk sees the fixtures under tests/fixtures/; the
    // test-collateral exemption must keep their seeded violations out of
    // the real lint run.
    let findings = lint_source("crates/lint/tests/fixtures/seeded_violations.rs", SEEDED);
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn workspace_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let findings = analyze_workspace(root, false).expect("walk workspace").findings;
    assert!(findings.is_empty(), "workspace has findings: {findings:#?}");
}

#[test]
fn every_workspace_suppression_carries_a_reason() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    let mut reasons: BTreeMap<String, usize> = BTreeMap::new();
    for (rel, abs) in wsd_lint::walk::rust_files(root).expect("walk") {
        if rel.split('/').any(|s| s == "tests" || s == "fixtures" || s == "benches") {
            continue;
        }
        let Ok(src) = std::fs::read_to_string(&abs) else {
            continue;
        };
        for (line, rule, reason) in suppressions_in(&src) {
            assert!(
                reason.len() >= 10,
                "{rel}:{line}: suppression of {rule} has a trivial reason: {reason:?}"
            );
            *reasons.entry(rule).or_default() += 1;
        }
    }
    // The satellite cleanups left a known set of reasoned suppressions;
    // at minimum the condvar-deadline and janitor-thread ones exist.
    assert!(reasons.get("raw-clock").copied().unwrap_or(0) >= 3, "{reasons:?}");
    assert!(reasons.get("raw-thread-spawn").copied().unwrap_or(0) >= 2, "{reasons:?}");
}
