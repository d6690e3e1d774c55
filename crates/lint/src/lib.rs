//! `wsd-lint`: the workspace invariant checker.
//!
//! The compiler cannot see the project's *disciplines* — that every
//! thread flows through `wsd-concurrent`, every timestamp through the
//! telemetry clock, every serve-site queue stays bounded, and that no
//! CxThread blocks while holding shared state. This crate makes them
//! checkable: a hand-rolled lexer ([`lexer`]) blanks strings and
//! comments so rules match only real code, an item parser ([`parser`])
//! recovers `fn`/`impl`/`mod` structure, a call graph ([`callgraph`])
//! resolves intra-workspace calls, per-function summaries
//! ([`summaries`]) compute acquires-lock / may-block facts, and the
//! rule layers evaluate the named invariants — lexical ([`rules`]),
//! call-graph ([`interproc`]), typestate automata on a path-sensitive
//! walker ([`typestate`], [`dataflow`]) and the lock-order graph
//! ([`waitgraph`]) — with the automata expressed as *data*: rows of
//! the checked-in `lint-rules.toml`, compiled in and written down
//! nowhere else ([`ruleset`]). Test code is exempt, every suppression needs a
//! reason and is audited for liveness (`unused-suppression`), and one
//! matcher applies the suppressions to every finding.
//!
//! No dependencies, by design: the build is offline and the linter must
//! never be the thing that breaks the build for environmental reasons.

#![warn(missing_docs)]

pub mod callgraph;
pub mod dataflow;
pub mod interproc;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod ruleset;
pub mod summaries;
pub mod typestate;
pub mod waitgraph;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

pub use rules::{lint_source, suppressions_in, Finding};

/// Everything one analysis pass produces: findings (every layer's,
/// suppression-filtered, sorted), the
/// suppression count, and the structures the findings were derived
/// from — exposed so tests (e.g. the dynamic lock-order cross-check in
/// `wsd-concurrent`) can interrogate the graph and edge set directly.
pub struct WorkspaceAnalysis {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Total count of well-formed, reasoned suppressions seen.
    pub suppressions: usize,
    /// The resolved workspace call graph.
    pub graph: callgraph::Graph,
    /// Per-function dataflow facts (parallel to `graph.fns`).
    pub facts: summaries::Facts,
    /// The static lock-order edge set (`held -> acquired`), for the
    /// cross-check against `wsd_concurrent::ordered::audit::edges()`.
    pub lock_edges: Vec<waitgraph::Edge>,
    /// Wall-clock milliseconds per engine stage, in run order — the
    /// `--json` `check_ms` breakdown that makes budget regressions
    /// attributable to a stage.
    pub timings: Vec<(&'static str, u128)>,
}

/// Full analysis of every workspace `.rs` file under `root`, against
/// the embedded ruleset.
///
/// `self_mode` is the `--self` configuration: per-rule path scoping is
/// dropped (paths are then relative to `crates/lint`, matching no
/// scope) so the linter holds itself to the complete rule set.
pub fn analyze_workspace(root: &Path, self_mode: bool) -> std::io::Result<WorkspaceAnalysis> {
    let mut files: BTreeMap<String, summaries::FileEntry> = BTreeMap::new();
    for (rel, abs) in walk::rust_files(root)? {
        // wsd-lint: allow(raw-file-io): the linter reads the sources it lints
        let Ok(source) = std::fs::read_to_string(&abs) else {
            continue; // non-UTF8 — nothing for a lexical linter to do
        };
        let parsed = parser::parse(&source);
        files.insert(rel, summaries::FileEntry { source, parsed });
    }
    Ok(analyze_files(&files, ruleset::embedded(), self_mode))
}

/// [`analyze_workspace`] over already-read files (keyed by
/// workspace-relative path) and an explicit ruleset — everything a rule
/// is comes from `ruleset`: the engines' parameters, the names a
/// suppression may cite, the ids findings carry.
pub fn analyze_files(
    files: &BTreeMap<String, summaries::FileEntry>,
    ruleset: &ruleset::Ruleset,
    self_mode: bool,
) -> WorkspaceAnalysis {
    // wsd-lint: allow(raw-clock): measuring the linter's own stage wall time, not event time
    let mut stage_start = std::time::Instant::now();
    let mut timings: Vec<(&'static str, u128)> = Vec::new();
    let lap = |name: &'static str, start: &mut std::time::Instant, out: &mut Vec<(&'static str, u128)>| {
        out.push((name, start.elapsed().as_millis()));
        // wsd-lint: allow(raw-clock): stage timer restart for the next engine lap
        *start = std::time::Instant::now();
    };

    // Each file's well-formed suppressions: counted for the report,
    // matched against every finding below, and audited for liveness.
    let mut allows: BTreeMap<&str, Vec<rules::Suppression>> = BTreeMap::new();
    // Malformed directives are findings no allow can silence; the
    // lexical and engine findings go through the suppression filter.
    let mut findings = Vec::new();
    let mut raw = Vec::new();
    for (rel, entry) in files {
        let (sups, bad) = rules::parse_suppressions(rel, &entry.parsed.stripped.comments, ruleset);
        if !rules::is_test_path(rel) {
            findings.extend(bad);
            let lexical = rules::lexical_findings(rel, &entry.source, &entry.parsed, self_mode);
            raw.extend(lexical);
        }
        allows.insert(rel, sups);
    }
    let suppressions = allows.values().map(Vec::len).sum();
    lap("lexical", &mut stage_start, &mut timings);

    // Interprocedural layer: test-path files are excluded from the
    // graph wholesale (fixtures deliberately seed violations, and test
    // helpers must not capture bare-name resolution).
    let mut graph = callgraph::build(
        files
            .iter()
            .filter(|(rel, _)| !rules::is_test_path(rel))
            .map(|(rel, e)| (rel.as_str(), &e.parsed)),
    );
    let facts = summaries::compute(files, &mut graph);
    lap("graph", &mut stage_start, &mut timings);
    raw.extend(interproc::run(&graph, &facts));
    lap("interproc", &mut stage_start, &mut timings);
    raw.extend(typestate::run(files, &graph, ruleset));
    lap("typestate", &mut stage_start, &mut timings);
    let (waitgraph_findings, lock_edges) = waitgraph::run(&graph, &facts);
    raw.extend(waitgraph_findings);
    lap("waitgraph", &mut stage_start, &mut timings);

    // Suppressions that silenced at least one finding, as (file,
    // directive line, rule). Whatever is left over at the end is dead
    // weight — an `unused-suppression`.
    let mut used: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for f in raw {
        let hit = allows
            .get(f.file.as_str())
            .and_then(|sups| sups.iter().find(|s| s.covers(&f)));
        match hit {
            Some(s) => {
                used.insert((f.file, s.line, s.rule.clone()));
            }
            None => findings.push(f),
        }
    }

    // `unused-suppression`: every well-formed allow must still be
    // earning its keep. Test collateral is exempt (fixtures carry
    // deliberately stale allows), and outside `--self` so is the
    // analyzer's own source (audited by the self-run, like every other
    // rule).
    for (rel, entry) in files {
        if rules::is_test_path(rel) {
            continue;
        }
        if !self_mode && !rules::rule_applies("unused-suppression", rel) {
            continue;
        }
        for s in &allows[rel.as_str()] {
            let (line, rule) = (s.line, &s.rule);
            if entry.parsed.is_test_line(line) || used.contains(&(rel.clone(), line, rule.clone()))
            {
                continue;
            }
            findings.push(Finding {
                rule: "unused-suppression",
                file: rel.clone(),
                line,
                excerpt: format!("allow({rule}) here silences nothing"),
                witness: Some(format!(
                    "suppression of `{rule}` at {rel}:{line} matched no finding — \
                     delete it or re-justify it"
                )),
            });
        }
    }

    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then(a.rule.cmp(b.rule))
    });
    WorkspaceAnalysis {
        findings,
        suppressions,
        graph,
        facts,
        lock_edges,
        timings,
    }
}

/// Lints every workspace `.rs` file under `root`; findings come back
/// sorted by (file, line, rule). Also returns the total suppression
/// count (all carrying reasons — reason-less ones surface as
/// `bad-suppression` findings instead).
pub fn lint_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let wa = analyze_workspace(root, false)?;
    Ok((wa.findings, wa.suppressions))
}

#[cfg(test)]
/// The whole pipeline over in-memory `(path, source)` files, against
/// the embedded ruleset.
pub(crate) fn analyze_sources(files: &[(&str, &str)]) -> WorkspaceAnalysis {
    let files = files
        .iter()
        .map(|(path, source)| {
            let entry = summaries::FileEntry {
                source: source.to_string(),
                parsed: parser::parse(source),
            };
            (path.to_string(), entry)
        })
        .collect();
    analyze_files(&files, ruleset::embedded(), false)
}
