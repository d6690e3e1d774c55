//! The call-graph–aware rules.
//!
//! One rule is structural and stays hand-written:
//!
//! * `blocking-under-lock` — no call path from inside a held
//!   `OrderedMutex`/`OrderedRwLock` guard region may reach an unbounded
//!   blocking sink (condvar wait, blocking queue pop/push, socket IO,
//!   thread join). The guard's *own* condvar wait is exempt: the guard
//!   is released while parked.
//!
//! The other is *declarative* — `[[arg-rule]]` rows of `lint-rules.toml`
//! ([`crate::ruleset::Ruleset`]) evaluated by [`arg_rule`]: "a trigger
//! call's argument text must not contain a forbidden spelling".
//! `limits-at-serve-site` is the shipped row.
//!
//! Lock order is the lock-order graph ([`crate::waitgraph`]), and
//! "X before Y" obligations are typestate rows ([`crate::typestate`]).

use crate::callgraph::Graph;
use crate::rules::Finding;
use crate::ruleset::{fill, ArgRule, CallPat, Ruleset};
use crate::summaries::{block_chain, is_guard_own_wait, region_calls, sink_desc, Facts, FileEntry};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the interprocedural rules. Returns unfiltered findings
/// (suppressions are applied by the caller).
pub fn run(
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    facts: &Facts,
    ruleset: &Ruleset,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    blocking_under_lock(graph, facts, &mut findings);
    for rule in &ruleset.arg_rules {
        arg_rule(rule, files, graph, &mut findings);
    }
    findings
}

fn blocking_under_lock(graph: &Graph, facts: &Facts, findings: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        for region in &facts.fns[fi].regions {
            for c in region_calls(f, region) {
                if is_guard_own_wait(c, region.binding.as_ref()) {
                    continue;
                }
                let (desc, witness) = if let Some(desc) = sink_desc(c) {
                    (
                        desc.to_string(),
                        format!("{} ({}:{}) -> {desc}", f.qualified, f.file, c.line),
                    )
                } else if let Some(t) = c.callee.filter(|t| facts.fns[*t].blocks.is_some()) {
                    let bw = facts.fns[t].blocks.as_ref().unwrap();
                    (
                        format!("{} (via `{}`)", bw.desc, graph.fns[t].qualified),
                        format!(
                            "{} ({}:{}) -> {}",
                            f.qualified,
                            f.file,
                            c.line,
                            block_chain(graph, facts, t)
                        ),
                    )
                } else {
                    continue;
                };
                if seen.insert((f.file.clone(), c.line, region.class.clone())) {
                    findings.push(Finding {
                        rule: "blocking-under-lock",
                        file: f.file.clone(),
                        line: c.line,
                        excerpt: format!(
                            "{desc} while holding `{}` (acquired {}:{})",
                            region.class, f.file, region.line
                        ),
                        witness: Some(witness),
                    });
                }
            }
        }
    }
}

/// The argument-inspection engine: a trigger call whose (blanked)
/// argument text contains the forbidden spelling is a finding.
fn arg_rule(
    rule: &ArgRule,
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    findings: &mut Vec<Finding>,
) {
    for f in &graph.fns {
        if !rule.scopes.iter().any(|s| f.file.starts_with(s.as_str())) {
            continue;
        }
        let Some(entry) = files.get(&f.file) else {
            continue;
        };
        let code = &entry.parsed.stripped.code;
        let src_lines: Vec<&str> = entry.source.lines().collect();
        for c in &f.calls {
            if !CallPat::any(&rule.triggers, c) {
                continue;
            }
            let args = &code[c.offset..c.args_end.min(code.len())];
            if args.contains(rule.forbidden.as_str()) {
                findings.push(Finding {
                    rule: rule.name,
                    file: f.file.clone(),
                    line: c.line,
                    excerpt: src_lines
                        .get(c.line.saturating_sub(1))
                        .unwrap_or(&"")
                        .trim()
                        .to_string(),
                    witness: Some(fill(
                        &rule.witness,
                        &[
                            ("call", &c.name),
                            ("fn", &f.qualified),
                            ("file", &f.file),
                            ("line", &c.line.to_string()),
                        ],
                    )),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::parse;
    use crate::ruleset::embedded;
    use crate::summaries::compute;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        let map: BTreeMap<String, FileEntry> = files
            .iter()
            .map(|(p, s)| {
                (
                    p.to_string(),
                    FileEntry {
                        source: s.to_string(),
                        parsed: parse(s),
                    },
                )
            })
            .collect();
        let mut graph = build(map.iter().map(|(p, e)| (p.as_str(), &e.parsed)));
        let facts = compute(&map, &mut graph, embedded());
        run(&map, &graph, &facts, embedded())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn join_under_lock_is_found_with_witness() {
        let src = r#"
struct R { thread: OrderedMutex<Option<u8>> }
impl R {
    fn new() -> R { R { thread: OrderedMutex::new("reactor.thread", None) } }
    fn shutdown(&self) {
        if let Some(h) = self.thread.lock().take() {
            h.join();
        }
    }
}
"#;
        let f = run_on(&[("crates/x/src/reactor.rs", src)]);
        assert_eq!(rules_of(&f), vec!["blocking-under-lock"]);
        assert!(f[0].excerpt.contains("reactor.thread"));
        assert!(f[0].witness.as_ref().unwrap().contains("R::shutdown"));
    }

    #[test]
    fn hoisted_join_is_clean() {
        let src = r#"
struct R { thread: OrderedMutex<Option<u8>> }
impl R {
    fn new() -> R { R { thread: OrderedMutex::new("reactor.thread", None) } }
    fn shutdown(&self) {
        let h = self.thread.lock().take();
        if let Some(h) = h {
            h.join();
        }
    }
}
"#;
        let f = run_on(&[("crates/x/src/reactor.rs", src)]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn transitive_block_through_callee() {
        let src = r#"
struct S { state: OrderedMutex<u8> }
impl S {
    fn new() -> S { S { state: OrderedMutex::new("s.state", 0) } }
    fn slow(&self, sock: &mut Sock) {
        sock.read_exact(&mut [0u8; 4]);
    }
    fn f(&self, sock: &mut Sock) {
        let g = self.state.lock();
        self.slow(sock);
        drop(g);
    }
}
"#;
        let f = run_on(&[("crates/x/src/s.rs", src)]);
        assert_eq!(rules_of(&f), vec!["blocking-under-lock"]);
        let w = f[0].witness.as_ref().unwrap();
        assert!(w.contains("S::f") && w.contains("S::slow"), "{w}");
    }

    #[test]
    fn limits_default_at_serve_site_flagged() {
        let src = r#"
fn start(stream: S) {
    serve_connection(stream, &Limits::default(), |req| handle(req));
}
fn handle(req: R) {}
"#;
        let f = run_on(&[("crates/core/src/rt/registry.rs", src)]);
        let l: Vec<_> = f.iter().filter(|x| x.rule == "limits-at-serve-site").collect();
        assert_eq!(l.len(), 1, "{f:?}");
    }

    #[test]
    fn limits_threaded_is_clean_and_other_crates_unscoped() {
        let ok = r#"
fn start(stream: S, limits: &Limits) {
    serve_connection(stream, limits, |req| req);
}
"#;
        let f = run_on(&[("crates/core/src/rt/registry.rs", ok)]);
        assert!(f.iter().all(|x| x.rule != "limits-at-serve-site"));
        let elsewhere = "fn f(s: S) { serve_connection(s, &Limits::default(), |r| r); }\n";
        let f2 = run_on(&[("crates/http/src/x.rs", elsewhere)]);
        assert!(f2.iter().all(|x| x.rule != "limits-at-serve-site"));
    }

    #[test]
    fn request_parser_new_with_default_flagged() {
        let src = "fn f() { let p = RequestParser::new(Limits::default()); }\n";
        let f = run_on(&[("crates/core/src/rt/front.rs", src)]);
        assert_eq!(
            f.iter().filter(|x| x.rule == "limits-at-serve-site").count(),
            1
        );
    }
}
