//! The wait-for graph: lock order and blocking cycles in one graph,
//! plus shutdown liveness.
//!
//! A deadlock needs a cycle in the *wait-for* relation, and locks are
//! only one kind of waitable resource: a full bounded [`FifoQueue`]
//! blocks its producers exactly like a held mutex blocks an acquirer,
//! and an empty one parks its consumer. This module builds one graph
//! whose nodes are lock classes (from [`crate::summaries`]' guard
//! regions) and queue classes (struct fields whose declared base type
//! is a configured queue type), with four edge shapes:
//!
//! * **lock -> lock** — an acquisition of class B inside a region
//!   holding class A, directly or through any chain of calls: the
//!   static lock-order graph. These edges are exported
//!   ([`WorkspaceAnalysis::lock_edges`](crate::WorkspaceAnalysis)) so
//!   the dynamic auditor (`wsd_concurrent::ordered::audit`) can be
//!   cross-checked against them.
//! * **lock -> queue** — a blocking queue op (`pop`, `push`) inside a
//!   guard region: progress under the lock waits on queue space or
//!   queue items while other threads wait on the lock.
//! * **queue -> lock** — a function that blocks on an unbounded `pop`
//!   and (transitively) acquires a lock: the consumer's progress —
//!   which producers may be waiting on — requires that lock.
//! * **queue -> queue** — a pipeline stage that pops one queue and
//!   blocking-pushes another: draining the first waits on space in
//!   the second.
//!
//! Cycles are reported once per node set with a witness chain: a cycle
//! through lock classes only is `static-lock-order`, any other is the
//! `[[waitgraph]]` row's `name` (`blocking-cycle`). The thread-spawn
//! topology is deliberately *not* part of the node set: who spawns the
//! consumer doesn't change what it waits on, and modeling it would
//! only add nodes no edge shape above can close a cycle through.
//!
//! The second rule is shutdown **liveness**: an unbounded blocking
//! `pop` on a queue class that no non-test code ever `close()`s parks
//! its consumer thread forever at teardown — the dynamic symptom is a
//! join that never returns. Bounded pops (`pop_timeout`,
//! `pop_timeout_batch`) are exempt by construction; closers are
//! matched by field name workspace-wide, since the close usually
//! lives on the owner's shutdown path in another function.

use crate::callgraph::{CallSite, Graph};
use crate::rules::{is_test_path, Finding};
use crate::ruleset::{Ruleset, WaitgraphRule};
use crate::summaries::{acquire_chain, region_calls, Facts, ACQUIRE_METHODS};
use std::collections::{BTreeMap, BTreeSet};

/// One wait-for edge: whoever holds/occupies `from` is waiting on
/// `to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock or queue class held/occupied.
    pub from: String,
    /// Lock or queue class waited on.
    pub to: String,
    /// File of the call that creates the edge.
    pub file: String,
    /// Line of that call.
    pub line: usize,
    /// Human-readable call chain from the holding region to the wait.
    pub witness: String,
}

/// The graph's edges, one per `(from, to)` pair: the first witness wins.
type Edges = BTreeMap<(String, String), Edge>;

fn add(edges: &mut Edges, from: &str, to: &str, file: &str, line: usize, witness: String) {
    if from != to {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| Edge {
                from: from.to_string(),
                to: to.to_string(),
                file: file.to_string(),
                line,
                witness,
            });
    }
}

/// lock -> lock: every acquisition nested inside a guard region.
fn lock_order_edges(graph: &Graph, facts: &Facts, edges: &mut Edges) {
    let empty = BTreeMap::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        let classes = facts.field_classes.get(&f.file).unwrap_or(&empty);
        for region in &facts.fns[fi].regions {
            let held = &region.class;
            for c in region_calls(f, region) {
                // Direct nested acquisition.
                let direct =
                    (ACQUIRE_METHODS.contains(&c.name.as_str()) && c.args_empty && c.is_method)
                        .then(|| c.receiver.rsplit('.').next().unwrap_or(""))
                        .and_then(|seg| classes.get(seg));
                if let Some(to) = direct {
                    let witness = format!(
                        "{} ({}:{}) acquires `{to}` under `{held}`",
                        f.qualified, f.file, c.line
                    );
                    add(edges, held, to, &f.file, c.line, witness);
                    continue;
                }
                // Transitive acquisition through a resolved callee.
                let Some(t) = c.callee else { continue };
                for to in facts.fns[t].acquires.keys() {
                    let witness = format!(
                        "{} ({}:{}) under `{held}` -> {}",
                        f.qualified,
                        f.file,
                        c.line,
                        acquire_chain(graph, facts, t, to)
                    );
                    add(edges, held, to, &f.file, c.line, witness);
                }
            }
        }
    }
}

/// The queue class a call operates on, if its receiver's last segment
/// is a field of a configured queue type (declared in this file) or
/// the call resolved to a queue-type method. Classes are file-scoped
/// (`file:field`): two files with a `queue` field are two queues.
fn queue_class(
    rule: &WaitgraphRule,
    facts: &Facts,
    graph: &Graph,
    file: &str,
    c: &CallSite,
) -> Option<String> {
    if !c.is_method {
        return None;
    }
    let seg = c.receiver.rsplit('.').next().unwrap_or("");
    if seg.is_empty() {
        return None;
    }
    let by_field = facts
        .field_types
        .get(file)
        .and_then(|m| m.get(seg))
        .is_some_and(|ty| rule.queue_types.iter().any(|q| q == ty));
    let by_callee = c.callee.is_some_and(|t| {
        let q = &graph.fns[t].qualified;
        rule.queue_types.iter().any(|ty| {
            q.len() > ty.len() + 2 && q.starts_with(ty.as_str()) && q[ty.len()..].starts_with("::")
        })
    });
    if by_field || by_callee {
        Some(format!("{file}:{seg}"))
    } else {
        None
    }
}

fn exempt(rule: &WaitgraphRule, file: &str) -> bool {
    rule.exempt.iter().any(|p| file.starts_with(p.as_str())) || is_test_path(file)
}

/// The queue edges of `rule`'s queue types, and its liveness findings.
fn queue_edges(
    rule: &WaitgraphRule,
    graph: &Graph,
    facts: &Facts,
    edges: &mut Edges,
    findings: &mut Vec<Finding>,
) {
    // Liveness bookkeeping: blocking pop sites and closed field names.
    let mut pops: Vec<(String, String, usize, String)> = Vec::new(); // class, file, line, fn
    let mut closed_fields: BTreeSet<String> = BTreeSet::new();

    for (fi, f) in graph.fns.iter().enumerate() {
        if is_test_path(&f.file) {
            continue;
        }
        for c in &f.calls {
            let Some(q) = queue_class(rule, facts, graph, &f.file, c) else {
                continue;
            };
            if rule.closers.iter().any(|n| n == &c.name) {
                closed_fields.insert(q.rsplit(':').next().unwrap_or("").to_string());
            }
        }
        if exempt(rule, &f.file) {
            continue;
        }
        let ff = &facts.fns[fi];
        // lock -> queue: blocking queue op inside a guard region.
        for region in &ff.regions {
            for c in region_calls(f, region) {
                let Some(q) = queue_class(rule, facts, graph, &f.file, c) else {
                    continue;
                };
                let blocking = (rule.blocking_pops.iter().any(|n| n == &c.name) && c.args_empty)
                    || rule.blocking_pushes.iter().any(|n| n == &c.name);
                if blocking {
                    add(
                        edges,
                        &region.class,
                        &q,
                        &f.file,
                        c.line,
                        format!(
                            "{} ({}:{}) blocks on queue `{q}` while holding `{}`",
                            f.qualified, f.file, c.line, region.class
                        ),
                    );
                }
            }
        }
        // Per-fn pop/push sets for the queue->lock and queue->queue
        // shapes (and the liveness rule).
        for c in &f.calls {
            let Some(q) = queue_class(rule, facts, graph, &f.file, c) else {
                continue;
            };
            if rule.blocking_pops.iter().any(|n| n == &c.name) && c.args_empty {
                pops.push((q.clone(), f.file.clone(), c.line, f.qualified.clone()));
                // queue -> lock: the consumer's progress needs every
                // lock this fn (transitively) acquires.
                for (class, w) in &ff.acquires {
                    add(
                        edges,
                        &q,
                        class,
                        &f.file,
                        c.line,
                        format!(
                            "{} ({}:{}) pops `{q}` and acquires `{class}` ({}:{})",
                            f.qualified, f.file, c.line, f.file, w.line
                        ),
                    );
                }
                // queue -> queue: pop one, blocking-push another.
                for c2 in &f.calls {
                    if !rule.blocking_pushes.iter().any(|n| n == &c2.name) {
                        continue;
                    }
                    let Some(q2) = queue_class(rule, facts, graph, &f.file, c2) else {
                        continue;
                    };
                    add(
                        edges,
                        &q,
                        &q2,
                        &f.file,
                        c2.line,
                        format!(
                            "{} ({}:{}) pops `{q}` then blocking-pushes `{q2}` ({}:{})",
                            f.qualified, f.file, c.line, f.file, c2.line
                        ),
                    );
                }
            }
        }
    }

    // ---- shutdown liveness ------------------------------------------
    for (class, file, line, fn_q) in pops {
        let field = class.rsplit(':').next().unwrap_or("");
        if closed_fields.contains(field) {
            continue;
        }
        findings.push(Finding {
            rule: rule.liveness_name,
            file: file.clone(),
            line,
            excerpt: format!(
                "blocking `pop` on queue `{field}` in {fn_q} has no `close()` anywhere in \
                 non-test code — shutdown parks this consumer forever"
            ),
            witness: Some(format!(
                "{fn_q} ({file}:{line}) blocks on `{field}` with no close path workspace-wide"
            )),
        });
    }
}

/// Reports each cycle once (keyed by its sorted node set): through
/// lock classes only as `static-lock-order`, otherwise as `cycle_name`.
fn cycles(
    cycle_name: &'static str,
    classes: &BTreeSet<String>,
    edges: &Edges,
    findings: &mut Vec<Finding>,
) {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges.values() {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut report = |cycle: &[&Edge]| {
        let mut key: Vec<String> = cycle.iter().map(|c| c.from.clone()).collect();
        key.sort();
        if !reported.insert(key) {
            return;
        }
        let path: Vec<&str> = cycle
            .iter()
            .map(|c| c.from.as_str())
            .chain(std::iter::once(cycle[0].from.as_str()))
            .collect();
        let (rule, what) = if cycle.iter().all(|c| classes.contains(&c.from)) {
            ("static-lock-order", "lock-order cycle")
        } else {
            (cycle_name, "potential blocking cycle")
        };
        findings.push(Finding {
            rule,
            file: cycle[0].file.clone(),
            line: cycle[0].line,
            excerpt: format!("{what}: {}", path.join(" -> ")),
            witness: Some(
                cycle
                    .iter()
                    .map(|c| c.witness.as_str())
                    .collect::<Vec<_>>()
                    .join("; "),
            ),
        });
    };

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a Edge>,
        report: &mut dyn FnMut(&[&'a Edge]),
    ) {
        color.insert(node, 1);
        for e in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
            match color.get(e.to.as_str()).copied().unwrap_or(0) {
                0 => {
                    stack.push(e);
                    dfs(e.to.as_str(), adj, color, stack, report);
                    stack.pop();
                }
                1 => {
                    // Back edge: the cycle is the stack suffix from
                    // `e.to` plus this edge.
                    let start = stack
                        .iter()
                        .position(|se| se.from == e.to)
                        .unwrap_or(stack.len());
                    let mut cycle = stack[start..].to_vec();
                    cycle.push(e);
                    report(&cycle);
                }
                _ => {}
            }
        }
        color.insert(node, 2);
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            dfs(n, &adj, &mut color, &mut Vec::new(), &mut report);
        }
    }
}

/// Builds the wait-for graph and runs its rules. Findings are
/// unfiltered (suppressions apply in the caller); the lock-order edges
/// come back for the dynamic cross-check.
pub fn run(graph: &Graph, facts: &Facts, ruleset: &Ruleset) -> (Vec<Finding>, Vec<Edge>) {
    // Lock order first, before the row's `exempt` prefixes apply: the
    // queue implementation's own locks stay in the lock-order graph.
    let mut edges = Edges::new();
    lock_order_edges(graph, facts, &mut edges);
    let lock_edges = edges.values().cloned().collect();
    let mut findings = Vec::new();
    let rule = ruleset.waitgraph_rules.first();
    if let Some(rule) = rule {
        queue_edges(rule, graph, facts, &mut edges, &mut findings);
    }
    // Without a row there are no queue nodes, so every cycle is a
    // lock-order one and the name is never used.
    cycles(
        rule.map_or("", |r| r.name),
        &facts.classes,
        &edges,
        &mut findings,
    );
    (findings, lock_edges)
}

#[cfg(test)]
mod tests {
    use crate::analyze_sources;

    #[test]
    fn lock_order_cycle_is_reported_with_chain() {
        let src = r#"
struct D { a: OrderedMutex<u8>, b: OrderedMutex<u8> }
impl D {
    fn new() -> D {
        D { a: OrderedMutex::new("d.a", 0), b: OrderedMutex::new("d.b", 0) }
    }
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
    fn ba(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
        drop(ga);
        drop(gb);
    }
}
"#;
        let wa = analyze_sources(&[("crates/x/src/d.rs", src)]);
        let (f, edges) = (&wa.findings, &wa.lock_edges);
        assert!(edges.iter().any(|e| e.from == "d.a" && e.to == "d.b"));
        assert!(edges.iter().any(|e| e.from == "d.b" && e.to == "d.a"));
        let cyc: Vec<_> = f.iter().filter(|x| x.rule == "static-lock-order").collect();
        assert_eq!(cyc.len(), 1, "{f:?}");
        assert!(cyc[0].excerpt.starts_with("lock-order cycle: "), "{cyc:?}");
        assert!(cyc[0].excerpt.contains("d.a") && cyc[0].excerpt.contains("d.b"));
        let w = cyc[0].witness.as_deref().unwrap();
        assert!(w.contains("D::ab") && w.contains("D::ba"), "{w}");
    }

    #[test]
    fn consistent_order_has_edges_but_no_cycle() {
        let src = r#"
struct D { a: OrderedMutex<u8>, b: OrderedMutex<u8> }
impl D {
    fn new() -> D {
        D { a: OrderedMutex::new("d.a", 0), b: OrderedMutex::new("d.b", 0) }
    }
    fn ab(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
}
"#;
        let wa = analyze_sources(&[("crates/x/src/d.rs", src)]);
        assert_eq!(wa.lock_edges.len(), 1);
        assert!(wa.findings.iter().all(|x| x.rule != "static-lock-order"));
    }
}
