//! The call-graph–aware rule, structural and hand-written:
//!
//! * `blocking-under-lock` — no call path from inside a held
//!   `OrderedMutex`/`OrderedRwLock` guard region may reach an unbounded
//!   blocking sink (condvar wait, blocking queue pop/push, socket IO,
//!   thread join). The guard's *own* condvar wait is exempt: the guard
//!   is released while parked.
//!
//! Lock order is the lock-order graph ([`crate::waitgraph`]), and
//! "X before Y" obligations are typestate rows ([`crate::typestate`]).

use crate::callgraph::Graph;
use crate::rules::Finding;
use crate::summaries::{block_chain, is_guard_own_wait, region_calls, sink_desc, Facts};
use std::collections::BTreeSet;

/// Runs the interprocedural rule. Returns unfiltered findings
/// (suppressions are applied by the caller).
pub fn run(graph: &Graph, facts: &Facts) -> Vec<Finding> {
    let mut findings = Vec::new();
    blocking_under_lock(graph, facts, &mut findings);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::parse;
    use crate::summaries::{compute, FileEntry};
    use std::collections::BTreeMap;

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
        let facts = compute(&map, &mut graph);
        run(&graph, &facts)
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
}
