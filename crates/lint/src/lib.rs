//! `wsd-lint`: the workspace invariant checker.
//!
//! The compiler cannot see the project's *disciplines* — that every
//! thread flows through `wsd-concurrent`, every timestamp through the
//! telemetry clock, every lock through parking_lot, every serve-site
//! queue stays bounded and every durable write through `wsd-store`.
//! This crate makes them checkable, line by line: a hand-rolled lexer
//! ([`lexer`]) blanks strings and comments so rules match only real
//! code, a scope tracker ([`parser`]) finds the `#[cfg(test)]` /
//! `#[test]` items, and the lexical rules ([`rules`]) run over what is
//! left; one of them, `pub-without-caller`, reads every file at once
//! (`callers`). Test code is exempt, every suppression needs a reason
//! and is audited for liveness (`unused-suppression`).
//!
//! What running the code checks better is checked there: a blocking
//! call under an ordered lock, lock order, the mailbox's durable acks
//! and the reactor's connection accounting are debug-build assertions
//! and tests (`wsd_concurrent::ordered`, `wsd_store::DurableMsgBox`).
//!
//! No dependencies, by design: the build is offline and the linter must
//! never be the thing that breaks the build for environmental reasons.

#![warn(missing_docs)]

mod callers;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;

use std::path::Path;

pub use rules::{lint_source, suppressions_in, Finding};

/// What one pass over a tree finds.
pub struct WorkspaceAnalysis {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Total count of well-formed, reasoned suppressions seen.
    pub suppressions: usize,
    /// Files linted (test collateral is not).
    pub files: usize,
}

/// Lints every workspace `.rs` file under `root`.
///
/// `self_mode` is the `--self` configuration: per-rule path scoping is
/// dropped (paths are then relative to `crates/lint`, matching no
/// scope) so the linter holds itself to the complete rule set.
///
/// Callers of a `pub` item are read from every linted file, the
/// examples and `benchmark/{src,tests}`; the last two are not linted.
pub fn analyze_workspace(root: &Path, self_mode: bool) -> std::io::Result<WorkspaceAnalysis> {
    let mut read = Vec::new();
    for (rel, abs) in walk::rust_files(root)?.into_iter().chain(walk::caller_only_files(root)?) {
        let benchmark = rel.starts_with("benchmark/");
        let lint = !rules::is_test_path(&rel) && !benchmark;
        let harness = rel.split('/').any(|s| matches!(s, "tests" | "benches" | "fixtures"));
        if !lint && harness && !benchmark {
            continue;
        }
        // wsd-lint: allow(raw-file-io): the linter reads the sources it lints
        let Ok(source) = std::fs::read_to_string(&abs) else {
            continue; // non-UTF8 — nothing for a lexical linter to do
        };
        let parsed = parser::parse(&source);
        read.push((rel, lint, source, parsed));
    }
    let scans: Vec<_> = read.iter().map(|(.., parsed)| callers::scan(parsed)).collect();
    let seen = callers::index(&scans);
    let mut wa = WorkspaceAnalysis {
        findings: Vec::new(),
        suppressions: 0,
        files: 0,
    };
    for (i, (rel, lint, source, parsed)) in read.iter().enumerate() {
        if !lint {
            continue;
        }
        let uncalled = callers::uncalled(i, &scans[i], &seen);
        let (findings, suppressions) = rules::lint_file(rel, source, parsed, &uncalled, self_mode);
        wa.findings.extend(findings);
        wa.suppressions += suppressions;
        wa.files += 1;
    }
    Ok(wa)
}
