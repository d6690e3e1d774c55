//! The lock-order graph: a deadlock schedule between locks is a cycle in
//! it.
//!
//! Nodes are lock classes (from [`crate::summaries`]' guard regions).
//! An edge `A -> B` is an acquisition of class B inside a region holding
//! class A, directly or through any chain of calls. These edges are
//! exported ([`WorkspaceAnalysis::lock_edges`](crate::WorkspaceAnalysis))
//! so the dynamic auditor (`wsd_concurrent::ordered::audit`) can be
//! cross-checked against them. Each cycle is reported once per node set
//! as `static-lock-order`, with a witness chain. Blocking calls made
//! under a lock are `blocking-under-lock`'s business ([`crate::interproc`]).

use crate::callgraph::Graph;
use crate::rules::Finding;
use crate::summaries::{acquire_chain, region_calls, Facts, ACQUIRE_METHODS};
use std::collections::{BTreeMap, BTreeSet};

/// One lock-order edge: whoever holds `from` acquires `to`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock class held.
    pub from: String,
    /// Lock class acquired under it.
    pub to: String,
    /// File of the call that creates the edge.
    pub file: String,
    /// Line of that call.
    pub line: usize,
    /// Human-readable call chain from the holding region to the acquisition.
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

/// Reports each cycle once, keyed by its sorted node set.
fn cycles(edges: &Edges, findings: &mut Vec<Finding>) {
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
        findings.push(Finding {
            rule: "static-lock-order",
            file: cycle[0].file.clone(),
            line: cycle[0].line,
            excerpt: format!("lock-order cycle: {}", path.join(" -> ")),
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

/// Builds the lock-order graph and reports its cycles. Findings are
/// unfiltered (suppressions apply in the caller); the edges come back
/// for the dynamic cross-check.
pub fn run(graph: &Graph, facts: &Facts) -> (Vec<Finding>, Vec<Edge>) {
    let mut edges = Edges::new();
    lock_order_edges(graph, facts, &mut edges);
    let mut findings = Vec::new();
    cycles(&edges, &mut findings);
    (findings, edges.into_values().collect())
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
