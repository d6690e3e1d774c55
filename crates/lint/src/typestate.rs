//! The declarative typestate engine (v4).
//!
//! Protocol lifecycles — a WAL record is appended then committed
//! before the function answers, a connection removed from the reactor
//! map is re-inserted or accounted, a claimed handoff reaches
//! completion — are finite automata over call events. [`crate::ruleset`]
//! spells them as `[[typestate]]` rows (states, `CallPat`-keyed
//! transitions, accepting states, error rows); this module checks them
//! path-sensitively on the [`crate::dataflow::Walker`].
//!
//! The abstract state is the *powerset* of automaton states (a
//! may-analysis: after a branch join the machine can be in either
//! side's state), each possible state carrying the line that first
//! entered it as the finding witness. Two tracking modes:
//!
//! * **ambient** (`track = "ambient"`) — one machine per function,
//!   started in the first declared state at the signature. Calls into
//!   helpers apply the helper's *effect summary* (the sequence of arcs
//!   its body fires, computed to a fixpoint over the call graph), so a
//!   helper performing `append` transitions its callers too.
//! * **binding** (`track = "binding"`) — one machine per object bound
//!   by a `creates` call (`let g = scratch::checkout()`); transitions
//!   and error rows fire only on method calls *on that binding*
//!   (receiver equal to it or reached through it). Argument mentions
//!   do not advance the machine.
//!
//! Transitions apply eagerly but leave a *provisional mark* (the call
//! name plus the pre-transition state set) in the flow state; when the
//! walker can classify the surrounding branch polarity
//! ([`crate::dataflow::Flow::branch`]) the condition-failed side
//! reverts the machine, so `let Some(at) = handoffs.claim_for(..)
//! else { return }` does not leak a phantom claim down the else arm.
//! Unclassifiable conditions refine neither side — the transition
//! stays on both, which is exactly what makes a result-discarding
//! `remove` show up on every path.
//!
//! Error rows fire immediately (a call matching the row while the
//! machine may be in its state) — except, in ambient mode, a hit while
//! the machine may still be in its start state: nothing in the function
//! has happened yet, so the callers owe it. A call site where the
//! caller's machine cannot be in the start state discharges it (the
//! caller rewrote, routed, ... before calling); an entry point that
//! still owes it reports it at the original site, the call chain as
//! witness. That is how an "X before Y" obligation is a typestate row:
//! `open => done : X` and the error row `open : Y`. Non-accepting exits
//! are reported only for `return` and fall-through ends when the rule
//! carries an `exit-message` — `?`, `break`, and panic paths are exempt:
//! unwinding tears the process down, not the protocol.

use crate::callgraph::{line_at, line_index, CallSite, Graph};
use crate::dataflow::{join_union, ExitKind, Flow, StmtCtx, Walker};
use crate::rules::{is_test_path, Finding};
use crate::ruleset::{fill, Ruleset, TsArc, TypestateRule};
use crate::summaries::{contains_word, FileEntry};
use std::collections::{BTreeMap, BTreeSet};

/// One machine's possible automaton states -> first-witness line.
type StateSet = BTreeMap<String, usize>;

/// A provisional transition: which call fired it and the state set it
/// replaced, so a negative branch can revert it.
#[derive(Clone, PartialEq)]
struct Mark {
    var: String,
    call: String,
    prev: StateSet,
}

/// The flow state: tracked machines (keyed by binding name; ambient
/// mode uses the single key `""`) plus the provisional marks of the
/// current condition segment.
#[derive(Clone, PartialEq, Default)]
pub struct TsState {
    machines: BTreeMap<String, StateSet>,
    marks: Vec<Mark>,
}

/// Applies one transition event (the set of arcs a single call fired)
/// to a state set: every state with a firing arc moves, the rest stay.
/// A state can only appear in the result if it survived (no arc from
/// it fired) or an arc targets it — transitions never resurrect a
/// state out of thin air; the proptests below pin that down.
fn step(states: &StateSet, arcs: &[&TsArc], line: usize) -> StateSet {
    let mut next = StateSet::new();
    for (s, w) in states {
        match arcs.iter().find(|a| a.from == *s) {
            Some(a) => {
                next.entry(a.to.clone()).or_insert(line);
            }
            None => {
                next.entry(s.clone()).or_insert(*w);
            }
        }
    }
    next
}

/// Per-fn effect summaries for an ambient rule: the ordered list of
/// transition events (arc-index sets) the fn's body fires, helpers
/// inlined to a bounded fixpoint. A caller applies the events in
/// sequence at the call site.
fn compute_effects(rule: &TypestateRule, graph: &Graph) -> Vec<Vec<Vec<usize>>> {
    let mut eff: Vec<Vec<Vec<usize>>> = vec![Vec::new(); graph.fns.len()];
    for _ in 0..4 {
        let mut changed = false;
        for (fi, f) in graph.fns.iter().enumerate() {
            if !in_scope(rule, &f.file) || is_test_path(&f.file) {
                continue;
            }
            let mut e: Vec<Vec<usize>> = Vec::new();
            for c in &f.calls {
                let fired: Vec<usize> = rule
                    .transitions
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.pat.matches(c))
                    .map(|(i, _)| i)
                    .collect();
                if !fired.is_empty() {
                    e.push(fired);
                } else if let Some(t) = c.callee {
                    e.extend(eff[t].iter().cloned());
                }
                if e.len() > 16 {
                    break; // cap: summaries this long add no precision
                }
            }
            e.truncate(16);
            if e != eff[fi] {
                eff[fi] = e;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    eff
}

fn in_scope(rule: &TypestateRule, file: &str) -> bool {
    rule.scopes.is_empty() || rule.scopes.iter().any(|p| file.starts_with(p.as_str()))
}

struct TsFlow<'a> {
    file: &'a str,
    fn_qualified: &'a str,
    rule: &'a TypestateRule,
    effects: &'a [Vec<Vec<usize>>],
    binding_mode: bool,
    /// Line of a `creates` call on the current statement's RHS.
    rhs_created: Option<usize>,
    findings: Vec<Finding>,
    seen: BTreeSet<(usize, String, String)>,
    /// Ambient mode: the first error-row hit in the start state, owed
    /// by the callers (its excerpt's `{fn}` still unfilled).
    owed: Option<Finding>,
    /// Ambient mode: `(line, callee)` of every call made while the
    /// machine may still be in its start state.
    at_start: BTreeSet<(usize, usize)>,
}

impl<'a> TsFlow<'a> {
    /// Machines the call can act on: the one whose binding is the
    /// call's receiver (binding mode) or the ambient machine.
    fn vars_for(&self, st: &TsState, c: &CallSite) -> Vec<String> {
        if !self.binding_mode {
            return vec![String::new()];
        }
        if !c.is_method {
            return Vec::new();
        }
        st.machines
            .keys()
            .filter(|v| {
                c.receiver == **v
                    || (c.receiver.len() > v.len()
                        && c.receiver.starts_with(v.as_str())
                        && c.receiver.as_bytes()[v.len()] == b'.')
            })
            .cloned()
            .collect()
    }

    fn emit_error(&mut self, message: &str, var: &str, c: &CallSite, state: &str, wline: usize) {
        if !self.seen.insert((c.line, var.to_string(), c.name.clone())) {
            return;
        }
        let shown_var = if var.is_empty() { "<ambient>" } else { var };
        let mut f = Finding {
            rule: self.rule.name,
            file: self.file.to_string(),
            line: c.line,
            excerpt: fill(message, &[("call", &c.name), ("var", shown_var)]),
            witness: Some(format!(
                "{} enters state `{state}` ({}:{wline}) -> `{}` called in that state at {}:{}",
                self.fn_qualified, self.file, c.name, self.file, c.line
            )),
        };
        if !self.binding_mode && state == self.rule.states[0] {
            self.owed.get_or_insert(f);
        } else {
            f.excerpt = fill(&f.excerpt, &[("fn", self.fn_qualified)]);
            self.findings.push(f);
        }
    }
}

impl<'a> Flow for TsFlow<'a> {
    type State = TsState;

    fn join(&self, a: &mut TsState, b: &TsState) {
        for (var, sb) in &b.machines {
            join_union(a.machines.entry(var.clone()).or_default(), sb);
        }
        // Marks are consumed between a condition segment and its
        // branch entries; by merge time the other branch's are stale.
    }

    fn call(&mut self, st: &mut TsState, c: &CallSite, _ctx: &StmtCtx) {
        if self.binding_mode && self.rule.creates.iter().any(|p| p.matches(c)) {
            self.rhs_created = Some(c.line);
            return; // the creating call is not an event on any machine
        }
        if let (Some(t), Some(states)) = (c.callee, st.machines.get("")) {
            if !self.binding_mode && states.contains_key(&self.rule.states[0]) {
                self.at_start.insert((c.line, t));
            }
        }
        for var in self.vars_for(st, c) {
            let Some(states) = st.machines.get(&var) else { continue };
            let states = states.clone();
            // Error rows observe the pre-transition state.
            for er in &self.rule.errors {
                if let Some(w) = states.get(&er.state) {
                    if er.pat.matches(c) {
                        self.emit_error(&er.message, &var, c, &er.state, *w);
                    }
                }
            }
            let fired: Vec<&TsArc> =
                self.rule.transitions.iter().filter(|a| a.pat.matches(c)).collect();
            let next = if !fired.is_empty() {
                step(&states, &fired, c.line)
            } else if !self.binding_mode {
                // Direct pattern match takes precedence; otherwise the
                // resolved callee's effect summary applies in order.
                let Some(evs) = c.callee.map(|t| &self.effects[t]) else { continue };
                if evs.is_empty() {
                    continue;
                }
                let mut cur = states.clone();
                for ev in evs {
                    let arcs: Vec<&TsArc> =
                        ev.iter().map(|i| &self.rule.transitions[*i]).collect();
                    cur = step(&cur, &arcs, c.line);
                }
                cur
            } else {
                continue;
            };
            if next != states {
                st.marks.retain(|m| m.var != var);
                st.marks.push(Mark { var: var.clone(), call: c.name.clone(), prev: states });
                st.machines.insert(var, next);
            }
        }
    }

    fn branch(&mut self, st: &mut TsState, cond: &str, positive: bool) {
        let marks = std::mem::take(&mut st.marks);
        for m in marks {
            if contains_word(cond, &m.call) {
                // Condition tests this transition's call: the failed
                // side never performed it.
                if !positive {
                    st.machines.insert(m.var.clone(), m.prev.clone());
                }
            } else {
                st.marks.push(m);
            }
        }
    }

    fn stmt_done(&mut self, st: &mut TsState, ctx: &StmtCtx) {
        if let (Some(line), Some(b)) = (self.rhs_created, &ctx.binding) {
            let start = self.rule.states[0].clone();
            st.machines.insert(b.clone(), [(start, line)].into_iter().collect());
        }
        self.rhs_created = None;
        if !ctx.cond {
            st.marks.clear();
        }
    }

    fn exit(&mut self, st: &TsState, kind: ExitKind, line: usize) {
        if self.rule.exit_message.is_empty()
            || !matches!(kind, ExitKind::Return | ExitKind::End)
        {
            return;
        }
        for (var, states) in &st.machines {
            for (s, w) in states {
                if self.rule.accepting.iter().any(|a| a == s) {
                    continue;
                }
                if !self.seen.insert((line, var.clone(), s.clone())) {
                    continue;
                }
                let how = if kind == ExitKind::Return { "`return`" } else { "fall-through end" };
                self.findings.push(Finding {
                    rule: self.rule.name,
                    file: self.file.to_string(),
                    line: *w,
                    excerpt: fill(
                        &self.rule.exit_message,
                        &[("fn", self.fn_qualified), ("state", s)],
                    ),
                    witness: Some(format!(
                        "{} enters state `{s}` ({}:{w}) -> {how} at {}:{line} leaves the \
                         protocol unfinished",
                        self.fn_qualified, self.file, self.file
                    )),
                });
            }
        }
    }
}

fn run_rule(
    rule: &TypestateRule,
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    findings: &mut Vec<Finding>,
) {
    let binding_mode = rule.track == "binding";
    let effects = if binding_mode {
        vec![Vec::new(); graph.fns.len()]
    } else {
        compute_effects(rule, graph)
    };
    // Ambient mode's caller bookkeeping: the start-state hits each fn
    // owes its callers, and for each walked fn the calls it makes while
    // still in the start state (a fn not walked never leaves it).
    let mut owed: BTreeMap<usize, Finding> = BTreeMap::new();
    let mut at_start: Vec<Option<BTreeSet<(usize, usize)>>> = vec![None; graph.fns.len()];
    for (fi, f) in graph.fns.iter().enumerate() {
        if !in_scope(rule, &f.file) || is_test_path(&f.file) {
            continue;
        }
        // Relevance gate (mirrors the taint gate): only walk fns that
        // can move a machine or hit an error row — a direct transition,
        // creates or (ambient) error-row match, or a call into an
        // effectful helper. A binding machine exists only after its
        // `creates` call, so its error rows need no gate of their own.
        let relevant = f.calls.iter().any(|c| {
            rule.transitions.iter().any(|a| a.pat.matches(c))
                || rule.creates.iter().any(|p| p.matches(c))
                || (!binding_mode && rule.errors.iter().any(|e| e.pat.matches(c)))
                || c.callee.is_some_and(|t| !effects[t].is_empty())
        });
        if !relevant {
            continue;
        }
        let Some(entry) = files.get(&f.file) else { continue };
        let code = &entry.parsed.stripped.code;
        let Some((walker, span)) = Walker::new(code, &entry.parsed, f.local_idx, &f.calls) else {
            continue;
        };
        let mut flow = TsFlow {
            file: &f.file,
            fn_qualified: &f.qualified,
            rule,
            effects: &effects,
            binding_mode,
            rhs_created: None,
            findings: Vec::new(),
            seen: BTreeSet::new(),
            owed: None,
            at_start: BTreeSet::new(),
        };
        let mut entry_state = TsState::default();
        if !binding_mode {
            let start_line = line_at(&line_index(code), span.0);
            entry_state.machines.insert(
                String::new(),
                [(rule.states[0].clone(), start_line)].into_iter().collect(),
            );
        }
        walker.run(&mut flow, span, entry_state);
        findings.append(&mut flow.findings);
        owed.extend(flow.owed.map(|o| (fi, o)));
        at_start[fi] = Some(flow.at_start);
    }

    // An error-row hit in the start state is owed by the callers: a
    // call site where the caller's machine cannot be in the start state
    // discharges it, and an entry point that still owes it reports it
    // at the original site, the call chain as witness.
    let mut work: Vec<usize> = owed.keys().copied().collect();
    let mut emitted: BTreeSet<(String, usize)> = BTreeSet::new();
    while let Some(fi) = work.pop() {
        let debt = owed[&fi].clone();
        let callers = graph.callers_of(fi);
        if callers.is_empty() {
            if emitted.insert((debt.file.clone(), debt.line)) {
                let excerpt = fill(&debt.excerpt, &[("fn", &graph.fns[fi].qualified)]);
                findings.push(Finding { excerpt, ..debt });
            }
            continue;
        }
        for (g, gline) in callers {
            let discharged = at_start[g]
                .as_ref()
                .is_some_and(|s| !s.contains(&(gline, fi)));
            if discharged || owed.contains_key(&g) {
                continue;
            }
            let gf = &graph.fns[g];
            let chain = format!(
                "{} ({}:{gline}) -> {}",
                gf.qualified,
                gf.file,
                debt.witness.as_deref().unwrap_or("")
            );
            let debt = Finding {
                witness: Some(chain),
                ..debt.clone()
            };
            owed.insert(g, debt);
            work.push(g);
        }
    }
}

/// Runs every `[[typestate]]` rule. Findings are unfiltered;
/// suppressions apply in the caller.
pub fn run(
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    ruleset: &Ruleset,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &ruleset.typestate_rules {
        run_rule(rule, files, graph, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_sources;
    use crate::ruleset::embedded;

    fn run_on(files: &[(&str, &str)]) -> Vec<Finding> {
        analyze_sources(files).findings
    }

    // Same dependency-free PRNG idiom as the dataflow lattice tests.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The WAL automaton's arcs, the richest shipped machine.
    fn wal_rule() -> TypestateRule {
        embedded()
            .typestate_rules
            .iter()
            .find(|r| r.name == "wal-ack-before-durable")
            .cloned()
            .expect("shipped wal rule")
    }

    fn rand_set(rng: &mut XorShift, states: &[String]) -> StateSet {
        let mask = rng.next();
        states
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(i, s)| (s.clone(), (mask >> (8 + i)) as usize & 0xff))
            .collect()
    }

    fn joined(a: &StateSet, b: &StateSet) -> StateSet {
        let mut out = a.clone();
        join_union(&mut out, b);
        out
    }

    // ---- automaton-product lattice laws --------------------------------

    #[test]
    fn product_join_is_idempotent_and_commutative_on_domains() {
        let rule = wal_rule();
        let mut rng = XorShift(0xabcdef0123456789);
        for _ in 0..500 {
            let a = rand_set(&mut rng, &rule.states);
            let b = rand_set(&mut rng, &rule.states);
            assert_eq!(joined(&a, &a), a, "idempotent");
            let ab = joined(&a, &b);
            let ba = joined(&b, &a);
            let ka: Vec<&String> = ab.keys().collect();
            let kb: Vec<&String> = ba.keys().collect();
            assert_eq!(ka, kb, "commutative on state domains");
        }
    }

    #[test]
    fn product_join_is_monotone() {
        let rule = wal_rule();
        let mut rng = XorShift(0x1234567887654321);
        for _ in 0..500 {
            let a = rand_set(&mut rng, &rule.states);
            let b = rand_set(&mut rng, &rule.states);
            let ab = joined(&a, &b);
            for (k, v) in &a {
                assert_eq!(ab.get(k), Some(v), "join never rewrites a witness");
            }
            for k in b.keys() {
                assert!(ab.contains_key(k), "join absorbs the other branch");
            }
        }
    }

    #[test]
    fn transition_step_is_monotone_in_the_input_set() {
        let rule = wal_rule();
        let mut rng = XorShift(0x5eed5eed5eed5eed);
        for _ in 0..500 {
            let a = rand_set(&mut rng, &rule.states);
            let b = rand_set(&mut rng, &rule.states);
            let arcs: Vec<&TsArc> = rule.transitions.iter().collect();
            let sa = step(&a, &arcs, 1);
            let sab = step(&joined(&a, &b), &arcs, 1);
            for k in sa.keys() {
                assert!(
                    sab.contains_key(k),
                    "growing the input set must never shrink the output set"
                );
            }
        }
    }

    #[test]
    fn a_transition_never_resurrects_a_state() {
        // Every state in step(S) is either a fired arc's target or a
        // surviving member of S — an error/terminal state the machine
        // has left cannot reappear without an arc into it.
        let rule = wal_rule();
        let mut rng = XorShift(0xfeedfacecafebeef);
        for _ in 0..500 {
            let s = rand_set(&mut rng, &rule.states);
            // Random non-empty arc subset as the event.
            let mask = rng.next() as usize;
            let arcs: Vec<&TsArc> = rule
                .transitions
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a)
                .collect();
            let out = step(&s, &arcs, 7);
            for k in out.keys() {
                let survived = s.contains_key(k) && !arcs.iter().any(|a| a.from == *k);
                let targeted = arcs.iter().any(|a| a.to == *k && s.contains_key(&a.from));
                assert!(
                    survived || targeted,
                    "state `{k}` resurrected: not a survivor, no arc into it"
                );
            }
        }
    }

    #[test]
    fn terminal_state_is_absorbing_without_arcs_out() {
        // The scratch automaton: once `taken`, no arc leads back to
        // `live`, so {taken} is a fixpoint of every event.
        let rule = embedded()
            .typestate_rules
            .iter()
            .find(|r| r.name == "scratch-use-after-take")
            .unwrap();
        let taken: StateSet = [("taken".to_string(), 3)].into_iter().collect();
        let arcs: Vec<&TsArc> = rule.transitions.iter().collect();
        assert_eq!(step(&taken, &arcs, 9), taken);
    }

    // ---- obligations: start-state error rows owed by callers ---------

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
        let f = run_on(&[("crates/core/src/rt/d.rs", src)]);
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
        let f = run_on(&[("crates/core/src/rt/d.rs", src)]);
        let w: Vec<_> = f
            .iter()
            .filter(|x| x.rule == "wsa-rewrite-before-forward")
            .collect();
        assert_eq!(w.len(), 1, "{f:?}");
        assert!(w[0].witness.as_ref().unwrap().contains("enqueue"));
        assert!(w[0].witness.as_ref().unwrap().contains("D::accept"));
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
        let f = run_on(&[("crates/core/src/rt/d.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "wsa-rewrite-before-forward"), "{f:?}");
    }

    #[test]
    fn wsa_outside_core_is_out_of_scope() {
        let src = "struct D;\nimpl D {\n    fn f(&self) { self.enqueue(0); }\n    fn enqueue(&self, x: u8) {}\n}\n";
        let f = run_on(&[("crates/netsim/src/d.rs", src)]);
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
        let f = run_on(&[("crates/experiments/src/fleet.rs", src)]);
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
        let f = run_on(&[("crates/experiments/src/fleet.rs", src)]);
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
        let f = run_on(&[("crates/experiments/src/fleet.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "shard-route-before-enqueue"), "{f:?}");
    }

    #[test]
    fn fleet_enqueue_outside_experiments_is_out_of_scope() {
        let src = "struct H;\nimpl H {\n    fn f(&self) { self.enqueue_fleet(0); }\n    fn enqueue_fleet(&self, i: u32) {}\n}\n";
        let f = run_on(&[("crates/netsim/src/h.rs", src)]);
        assert!(f.iter().all(|x| x.rule != "shard-route-before-enqueue"));
    }
}
