//! The call-graph–aware rules.
//!
//! Two rules are structural and stay hand-written:
//!
//! * `blocking-under-lock` — no call path from inside a held
//!   `OrderedMutex`/`OrderedRwLock` guard region may reach an unbounded
//!   blocking sink (condvar wait, blocking queue pop/push, socket IO,
//!   thread join). The guard's *own* condvar wait is exempt: the guard
//!   is released while parked.
//! * `static-lock-order` — acquisitions nested inside a guard region
//!   define edges `held -> acquired` in a static lock-order graph; any
//!   cycle is reported with the witness call chain of each edge. The
//!   edge set is exported ([`Edge`] via [`run`]) so the dynamic auditor
//!   (`wsd_concurrent::ordered::audit`) can be cross-checked against
//!   it.
//!
//! The remaining rules are *declarative* — rows of `lint-rules.toml`
//! ([`crate::ruleset::Ruleset`]) evaluated by two generic engines:
//!
//! * [`obligation_rule`] — "every path into a sink must have passed a
//!   satisfier first". Unsatisfied sinks propagate the obligation to
//!   callers; an entry point reached with the obligation still open is
//!   a finding. `wsa-rewrite-before-forward` and
//!   `shard-route-before-enqueue` are the shipped rows.
//! * [`arg_rule`] — "a trigger call's argument text must not contain a
//!   forbidden spelling". `limits-at-serve-site` is the shipped row.
//!
//! Adding another "X before Y" invariant is a new row in
//! `lint-rules.toml` — no new analysis code, no Rust edit.

use crate::callgraph::Graph;
use crate::rules::{Finding, FlowStep};
use crate::ruleset::{fill, ArgRule, CallPat, ObligationRule, Ruleset};
use crate::summaries::{
    acquire_chain, block_chain, is_guard_own_wait, region_calls, sink_desc, FileEntry, Facts,
    ACQUIRE_METHODS,
};
use std::collections::{BTreeMap, BTreeSet};

/// One static lock-order edge: while holding `from`, `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Lock class held.
    pub from: String,
    /// Lock class acquired under it.
    pub to: String,
    /// File of the in-region call that creates the edge.
    pub file: String,
    /// Line of that call.
    pub line: usize,
    /// Human-readable call chain from the holding region to the nested
    /// acquisition.
    pub witness: String,
}

/// Runs the interprocedural rules. Returns unfiltered findings
/// (suppressions are applied by the caller) and the static lock-order
/// edge set for the dynamic cross-check.
pub fn run(
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    facts: &Facts,
    ruleset: &Ruleset,
) -> (Vec<Finding>, Vec<Edge>) {
    let mut findings = Vec::new();
    blocking_under_lock(graph, facts, &mut findings);
    let edges = collect_lock_order_edges(graph, facts);
    static_lock_order(&edges, &mut findings);
    for (oi, rule) in ruleset.obligations.iter().enumerate() {
        obligation_rule(rule, oi, graph, facts, &mut findings);
    }
    for rule in &ruleset.arg_rules {
        arg_rule(rule, files, graph, &mut findings);
    }
    (findings, edges)
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
                        flow: vec![
                            FlowStep {
                                file: f.file.clone(),
                                line: region.line,
                                message: format!("guard of `{}` acquired", region.class),
                            },
                            FlowStep {
                                file: f.file.clone(),
                                line: c.line,
                                message: format!("{desc} reached while the guard is held"),
                            },
                        ],
                    });
                }
            }
        }
    }
}

fn collect_lock_order_edges(graph: &Graph, facts: &Facts) -> Vec<Edge> {
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let empty = BTreeMap::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        let classes = facts.field_classes.get(&f.file).unwrap_or(&empty);
        for region in &facts.fns[fi].regions {
            for c in region_calls(f, region) {
                // Direct nested acquisition.
                let direct = (ACQUIRE_METHODS.contains(&c.name.as_str())
                    && c.args_empty
                    && c.is_method)
                    .then(|| c.receiver.rsplit('.').next().unwrap_or(""))
                    .and_then(|seg| classes.get(seg));
                if let Some(to) = direct {
                    if *to != region.class {
                        edges
                            .entry((region.class.clone(), to.clone()))
                            .or_insert_with(|| Edge {
                                from: region.class.clone(),
                                to: to.clone(),
                                file: f.file.clone(),
                                line: c.line,
                                witness: format!(
                                    "{} ({}:{}) acquires `{to}` under `{}`",
                                    f.qualified, f.file, c.line, region.class
                                ),
                            });
                    }
                    continue;
                }
                // Transitive acquisition through a resolved callee.
                let Some(t) = c.callee else { continue };
                for to in facts.fns[t].acquires.keys() {
                    if *to == region.class {
                        continue;
                    }
                    edges
                        .entry((region.class.clone(), to.clone()))
                        .or_insert_with(|| Edge {
                            from: region.class.clone(),
                            to: to.clone(),
                            file: f.file.clone(),
                            line: c.line,
                            witness: format!(
                                "{} ({}:{}) under `{}` -> {}",
                                f.qualified,
                                f.file,
                                c.line,
                                region.class,
                                acquire_chain(graph, facts, t, to)
                            ),
                        });
                }
            }
        }
    }
    edges.into_values().collect()
}

fn static_lock_order(edges: &[Edge], findings: &mut Vec<Finding>) {
    // Adjacency over classes.
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().push(e);
    }
    // DFS with colors; report each cycle once (keyed by its class set).
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();

    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
        color: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a Edge>,
        reported: &mut BTreeSet<Vec<String>>,
        findings: &mut Vec<Finding>,
    ) {
        color.insert(node, 1);
        for e in adj.get(node).map(|v| v.as_slice()).unwrap_or(&[]) {
            match color.get(e.to.as_str()).copied().unwrap_or(0) {
                0 => {
                    stack.push(e);
                    dfs(e.to.as_str(), adj, color, stack, reported, findings);
                    stack.pop();
                }
                1 => {
                    // Back edge: the cycle is the stack suffix from
                    // `e.to` plus this edge.
                    let mut cycle: Vec<&Edge> = Vec::new();
                    let mut collecting = false;
                    for se in stack.iter() {
                        if se.from == e.to {
                            collecting = true;
                        }
                        if collecting {
                            cycle.push(se);
                        }
                    }
                    cycle.push(e);
                    let mut key: Vec<String> =
                        cycle.iter().map(|c| c.from.clone()).collect();
                    key.sort();
                    if reported.insert(key) {
                        let path: Vec<String> = cycle
                            .iter()
                            .map(|c| c.from.clone())
                            .chain(std::iter::once(e.to.clone()))
                            .collect();
                        let witness = cycle
                            .iter()
                            .map(|c| c.witness.as_str())
                            .collect::<Vec<_>>()
                            .join("; ");
                        let flow = cycle
                            .iter()
                            .map(|c| FlowStep {
                                file: c.file.clone(),
                                line: c.line,
                                message: format!("`{}` acquired under `{}`", c.to, c.from),
                            })
                            .collect();
                        findings.push(Finding {
                            rule: "static-lock-order",
                            file: cycle[0].file.clone(),
                            line: cycle[0].line,
                            excerpt: format!(
                                "lock-order cycle: {}",
                                path.join(" -> ")
                            ),
                            witness: Some(witness),
                            flow,
                        });
                    }
                }
                _ => {}
            }
        }
        color.insert(node, 2);
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if color.get(n).copied().unwrap_or(0) == 0 {
            let mut stack = Vec::new();
            dfs(n, &adj, &mut color, &mut stack, &mut reported, findings);
        }
    }
}

/// Does `g` make a satisfier-reaching call for obligation rule `oi` at
/// or before `line`?
fn satisfies_before(
    rule: &ObligationRule,
    oi: usize,
    graph: &Graph,
    facts: &Facts,
    g: usize,
    line: usize,
) -> bool {
    graph.fns[g].calls.iter().any(|c| {
        c.line <= line
            && (CallPat::any(&rule.satisfiers, c)
                || c.callee.is_some_and(|t| facts.fns[t].satisfies.contains(&oi)))
    })
}

/// The obligation-propagation engine: a sink call with no satisfier
/// earlier in the same fn demands the obligation from its callers; an
/// entry point reached with the obligation still open is a finding at
/// the original sink site.
fn obligation_rule(
    rule: &ObligationRule,
    oi: usize,
    graph: &Graph,
    facts: &Facts,
    findings: &mut Vec<Finding>,
) {
    // Obligations: fn index -> (witness chain, flow steps, origin file,
    // origin line).
    let mut demanded: BTreeMap<usize, (String, Vec<FlowStep>, String, usize)> = BTreeMap::new();
    let mut work: Vec<usize> = Vec::new();

    for (fi, f) in graph.fns.iter().enumerate() {
        if !f.file.starts_with(rule.scope.as_str()) {
            continue;
        }
        // A fn that is itself sink machinery (named like a sink)
        // operates on behalf of its caller — the obligation starts at
        // its call sites, not inside it.
        if rule.sinks.iter().any(|p| p.name == f.name) {
            continue;
        }
        for c in &f.calls {
            if !CallPat::any(&rule.sinks, c) {
                continue;
            }
            // The callee must be in-workspace sink machinery or
            // unresolved-but-method (self.enqueue(..)); free calls to
            // unrelated same-named helpers outside scope don't count.
            if !c.is_method && c.callee.is_none() {
                continue;
            }
            if satisfies_before(rule, oi, graph, facts, fi, c.line) {
                continue;
            }
            let chain = format!(
                "{} `{}` at {}:{} in {}",
                rule.sink_noun, c.name, f.file, c.line, f.qualified
            );
            let steps = vec![FlowStep {
                file: f.file.clone(),
                line: c.line,
                message: format!(
                    "{} `{}` reached in {} with the obligation open",
                    rule.sink_noun, c.name, f.qualified
                ),
            }];
            demanded
                .entry(fi)
                .or_insert((chain, steps, f.file.clone(), c.line));
            work.push(fi);
        }
    }

    let mut emitted: BTreeSet<(String, usize)> = BTreeSet::new();
    while let Some(fi) = work.pop() {
        let (chain, steps, ofile, oline) = demanded.get(&fi).cloned().unwrap();
        let callers = graph.callers_of(fi);
        if callers.is_empty() {
            // Entry point reached with the obligation open.
            if emitted.insert((ofile.clone(), oline)) {
                let f = &graph.fns[fi];
                findings.push(Finding {
                    rule: rule.name,
                    file: ofile,
                    line: oline,
                    excerpt: fill(&rule.contract, &[("fn", &f.qualified)]),
                    witness: Some(chain),
                    flow: steps,
                });
            }
            continue;
        }
        for (g, gline) in callers {
            if demanded.contains_key(&g) {
                continue; // already propagating (also breaks cycles)
            }
            if satisfies_before(rule, oi, graph, facts, g, gline) {
                continue;
            }
            let gf = &graph.fns[g];
            let chain2 = format!(
                "{} ({}:{}) -> {}",
                gf.qualified, gf.file, gline, chain
            );
            let mut steps2 = vec![FlowStep {
                file: gf.file.clone(),
                line: gline,
                message: format!("{} calls into the unsatisfied sink path", gf.qualified),
            }];
            steps2.extend(steps.iter().cloned());
            demanded.insert(g, (chain2, steps2, ofile.clone(), oline));
            work.push(g);
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
                    flow: Vec::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::{parse, ParsedFile};
    use crate::ruleset::embedded;
    use crate::summaries::compute;

    fn run_on(files: &[(&str, &str)]) -> (Vec<Finding>, Vec<Edge>) {
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
        let parsed: BTreeMap<String, ParsedFile> = files
            .iter()
            .map(|(p, s)| (p.to_string(), parse(s)))
            .collect();
        let mut graph = build(&parsed, &|_| false);
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
        let (f, _) = run_on(&[("crates/x/src/reactor.rs", src)]);
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
        let (f, _) = run_on(&[("crates/x/src/reactor.rs", src)]);
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
        let (f, _) = run_on(&[("crates/x/src/s.rs", src)]);
        assert_eq!(rules_of(&f), vec!["blocking-under-lock"]);
        let w = f[0].witness.as_ref().unwrap();
        assert!(w.contains("S::f") && w.contains("S::slow"), "{w}");
    }

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
        let (f, edges) = run_on(&[("crates/x/src/d.rs", src)]);
        assert!(edges.iter().any(|e| e.from == "d.a" && e.to == "d.b"));
        assert!(edges.iter().any(|e| e.from == "d.b" && e.to == "d.a"));
        let cyc: Vec<_> = f.iter().filter(|x| x.rule == "static-lock-order").collect();
        assert_eq!(cyc.len(), 1, "{f:?}");
        assert!(cyc[0].excerpt.contains("d.a") && cyc[0].excerpt.contains("d.b"));
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
        let (f, edges) = run_on(&[("crates/x/src/d.rs", src)]);
        assert_eq!(edges.len(), 1);
        assert!(f.iter().all(|x| x.rule != "static-lock-order"));
    }

    #[test]
    fn wsa_rewrite_in_body_satisfies() {
        let src = r#"
struct D;
impl D {
    fn route_raw(&self, env: &[u8]) { splice_forward(env); }
    fn accept(&self, env: &[u8]) {
        self.route_raw(env);
        self.enqueue(env);
    }
    fn enqueue(&self, env: &[u8]) {}
}
fn splice_forward(env: &[u8]) {}
"#;
        let (f, _) = run_on(&[("crates/core/src/rt/d.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "wsa-rewrite-before-forward"), "{f:?}");
    }

    #[test]
    fn wsa_missing_rewrite_reaches_entry_point() {
        let src = r#"
struct D;
impl D {
    fn accept(&self, env: &[u8]) {
        self.enqueue(env);
    }
    fn enqueue(&self, env: &[u8]) {}
}
"#;
        let (f, _) = run_on(&[("crates/core/src/rt/d.rs", src)]);
        let w: Vec<_> = f
            .iter()
            .filter(|x| x.rule == "wsa-rewrite-before-forward")
            .collect();
        assert_eq!(w.len(), 1, "{f:?}");
        assert!(w[0].witness.as_ref().unwrap().contains("enqueue"));
        assert!(!w[0].flow.is_empty());
    }

    #[test]
    fn wsa_rewrite_in_caller_satisfies_callee_obligation() {
        let src = r#"
struct D;
impl D {
    fn ack_enqueue(&self, env: &[u8]) {
        self.enqueue(env);
    }
    fn enqueue(&self, env: &[u8]) {}
    fn accept(&self, env: &[u8]) {
        rewrite_for_forward(env);
        self.ack_enqueue(env);
    }
}
fn rewrite_for_forward(env: &[u8]) {}
"#;
        let (f, _) = run_on(&[("crates/core/src/rt/d.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "wsa-rewrite-before-forward"), "{f:?}");
    }

    #[test]
    fn wsa_outside_core_is_out_of_scope() {
        let src = "struct D;\nimpl D {\n    fn f(&self) { self.enqueue(0); }\n    fn enqueue(&self, x: u8) {}\n}\n";
        let (f, _) = run_on(&[("crates/netsim/src/d.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "wsa-rewrite-before-forward"));
    }

    #[test]
    fn shard_route_before_enqueue_satisfied_in_body() {
        let src = r#"
struct Hub;
impl Hub {
    fn send(&self, svc: &str, body: &str) {
        let instance = self.shard_route(svc);
        self.enqueue_fleet(instance, svc, body);
    }
    fn shard_route(&self, svc: &str) -> u32 { 0 }
    fn enqueue_fleet(&self, i: u32, svc: &str, body: &str) {}
}
"#;
        let (f, _) = run_on(&[("crates/experiments/src/fleet.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "shard-route-before-enqueue"), "{f:?}");
    }

    #[test]
    fn shard_route_missing_reaches_entry_point() {
        let src = r#"
struct Hub;
impl Hub {
    fn resend(&self, svc: &str, body: &str) {
        self.enqueue_fleet(0, svc, body);
    }
    fn enqueue_fleet(&self, i: u32, svc: &str, body: &str) {}
}
"#;
        let (f, _) = run_on(&[("crates/experiments/src/fleet.rs", src)]);
        let r: Vec<_> = f
            .iter()
            .filter(|x| x.rule == "shard-route-before-enqueue")
            .collect();
        assert_eq!(r.len(), 1, "{f:?}");
        assert!(r[0].witness.as_ref().unwrap().contains("enqueue_fleet"));
    }

    #[test]
    fn shard_route_in_caller_satisfies_callee_obligation() {
        let src = r#"
struct Hub;
impl Hub {
    fn reroute(&self, svc: &str, body: &str) {
        self.enqueue_fleet(0, svc, body);
    }
    fn enqueue_fleet(&self, i: u32, svc: &str, body: &str) {}
    fn tick(&self, svc: &str, body: &str) {
        let instance = self.shard_route(svc);
        self.reroute(svc, body);
    }
    fn shard_route(&self, svc: &str) -> u32 { 0 }
}
"#;
        let (f, _) = run_on(&[("crates/experiments/src/fleet.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "shard-route-before-enqueue"), "{f:?}");
    }

    #[test]
    fn fleet_enqueue_outside_experiments_is_out_of_scope() {
        let src = "struct H;\nimpl H {\n    fn f(&self) { self.enqueue_fleet(0); }\n    fn enqueue_fleet(&self, i: u32) {}\n}\n";
        let (f, _) = run_on(&[("crates/netsim/src/h.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "shard-route-before-enqueue"));
    }

    #[test]
    fn limits_default_at_serve_site_flagged() {
        let src = r#"
fn start(stream: S) {
    serve_connection(stream, &Limits::default(), |req| handle(req));
}
fn handle(req: R) {}
"#;
        let (f, _) = run_on(&[("crates/core/src/rt/registry.rs", src)]);
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
        let (f, _) = run_on(&[("crates/core/src/rt/registry.rs", ok)]);
        assert!(f.iter().all(|x| x.rule != "limits-at-serve-site"));
        let elsewhere = "fn f(s: S) { serve_connection(s, &Limits::default(), |r| r); }\n";
        let (f2, _) = run_on(&[("crates/http/src/x.rs", elsewhere)]);
        assert!(f2.iter().all(|x| x.rule != "limits-at-serve-site"));
    }

    #[test]
    fn request_parser_new_with_default_flagged() {
        let src = "fn f() { let p = RequestParser::new(Limits::default()); }\n";
        let (f, _) = run_on(&[("crates/core/src/rt/front.rs", src)]);
        assert_eq!(
            f.iter().filter(|x| x.rule == "limits-at-serve-site").count(),
            1
        );
    }
}
