//! The declarative typestate engine.
//!
//! Protocol lifecycles — a WAL record is appended then committed
//! before the function answers, a connection taken out of the reactor
//! is rested again or accounted — are finite automata over call events.
//! [`crate::ruleset`] spells them as `[[typestate]]` rows (states,
//! `recv.name`-keyed transitions, accepting states, an exit message);
//! this module checks them path-sensitively on the
//! [`crate::dataflow::Walker`], one machine per function, started in
//! the first declared state at the signature.
//!
//! The abstract state is the *powerset* of automaton states (a
//! may-analysis: after a branch join the machine can be in either
//! side's state), each possible state carrying the line that first
//! entered it as the finding witness. Calls into helpers apply the
//! helper's *effect summary* (the sequence of arcs its body fires,
//! computed to a fixpoint over the call graph), so a helper performing
//! `append` transitions its callers too.
//!
//! Transitions apply eagerly but leave a *provisional mark* (the call
//! name plus the pre-transition state set) in the flow state; when the
//! walker can classify the surrounding branch polarity
//! ([`crate::dataflow::Flow::branch`]) the condition-failed side
//! reverts the machine, so `let Some(conn) = cell.start_running()
//! else { return }` does not leak a phantom `taken` down the else arm.
//! Unclassifiable conditions refine neither side — the transition
//! stays on both, which is exactly what makes a result-discarding
//! `remove` show up on every path.
//!
//! A `return` or fall-through end in a non-accepting state is a
//! finding, worded by the row's `exit-message`; `?`, `break`, and panic
//! paths are exempt: unwinding tears the process down, not the
//! protocol.

use crate::callgraph::{line_at, line_index, CallSite, Graph};
use crate::dataflow::{join_union, ExitKind, Flow, Walker};
use crate::rules::{is_test_path, Finding};
use crate::ruleset::{fill, Ruleset, TsArc, TypestateRule};
use crate::summaries::{contains_word, FileEntry};
use std::collections::{BTreeMap, BTreeSet};

/// The machine's possible automaton states -> first-witness line.
type StateSet = BTreeMap<String, usize>;

/// A provisional transition: which call fired it and the state set it
/// replaced, so a negative branch can revert it.
#[derive(Clone, PartialEq)]
struct Mark {
    call: String,
    prev: StateSet,
}

/// The flow state: the machine plus the provisional mark of the
/// current condition segment.
#[derive(Clone, PartialEq, Default)]
pub struct TsState {
    states: StateSet,
    mark: Option<Mark>,
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

/// Per-fn effect summaries for a rule: the ordered list of transition
/// events (arc-index sets) the fn's body fires, helpers inlined to a
/// bounded fixpoint. A caller applies the events in sequence at the
/// call site.
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
    findings: Vec<Finding>,
    seen: BTreeSet<(usize, String)>,
}

impl<'a> Flow for TsFlow<'a> {
    type State = TsState;

    fn join(&self, a: &mut TsState, b: &TsState) {
        join_union(&mut a.states, &b.states);
        // A mark is consumed between a condition segment and its
        // branch entries; by merge time the other branch's is stale.
    }

    fn call(&mut self, st: &mut TsState, c: &CallSite) {
        let fired: Vec<&TsArc> = self
            .rule
            .transitions
            .iter()
            .filter(|a| a.pat.matches(c))
            .collect();
        let next = if !fired.is_empty() {
            step(&st.states, &fired, c.line)
        } else {
            // Direct pattern match takes precedence; otherwise the
            // resolved callee's effect summary applies in order.
            let Some(evs) = c.callee.map(|t| &self.effects[t]) else {
                return;
            };
            if evs.is_empty() {
                return;
            }
            let mut cur = st.states.clone();
            for ev in evs {
                let arcs: Vec<&TsArc> = ev.iter().map(|i| &self.rule.transitions[*i]).collect();
                cur = step(&cur, &arcs, c.line);
            }
            cur
        };
        if next != st.states {
            let prev = std::mem::replace(&mut st.states, next);
            st.mark = Some(Mark {
                call: c.name.clone(),
                prev,
            });
        }
    }

    fn branch(&mut self, st: &mut TsState, cond: &str, positive: bool) {
        let Some(m) = st.mark.take() else { return };
        if !contains_word(cond, &m.call) {
            st.mark = Some(m);
        } else if !positive {
            // Condition tests this transition's call: the failed side
            // never performed it.
            st.states = m.prev;
        }
    }

    fn stmt_done(&mut self, st: &mut TsState, cond: bool) {
        if !cond {
            st.mark = None;
        }
    }

    fn exit(&mut self, st: &TsState, kind: ExitKind, line: usize) {
        if !matches!(kind, ExitKind::Return | ExitKind::End) {
            return;
        }
        for (s, w) in &st.states {
            if self.rule.accepting.iter().any(|a| a == s) || !self.seen.insert((line, s.clone())) {
                continue;
            }
            let how = if kind == ExitKind::Return {
                "`return`"
            } else {
                "fall-through end"
            };
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

fn run_rule(
    rule: &TypestateRule,
    files: &BTreeMap<String, FileEntry>,
    graph: &Graph,
    findings: &mut Vec<Finding>,
) {
    let effects = compute_effects(rule, graph);
    for f in &graph.fns {
        if !in_scope(rule, &f.file) || is_test_path(&f.file) {
            continue;
        }
        // Relevance gate: only walk fns that can move the machine — a
        // direct transition, or a call into an effectful helper.
        let relevant = f.calls.iter().any(|c| {
            rule.transitions.iter().any(|a| a.pat.matches(c))
                || c.callee.is_some_and(|t| !effects[t].is_empty())
        });
        if !relevant {
            continue;
        }
        let Some(entry) = files.get(&f.file) else {
            continue;
        };
        let code = &entry.parsed.stripped.code;
        let Some((walker, span)) = Walker::new(code, &entry.parsed, f.local_idx, &f.calls) else {
            continue;
        };
        let mut flow = TsFlow {
            file: &f.file,
            fn_qualified: &f.qualified,
            rule,
            effects: &effects,
            findings: Vec::new(),
            seen: BTreeSet::new(),
        };
        let start_line = line_at(&line_index(code), span.0);
        let entry_state = TsState {
            states: [(rule.states[0].clone(), start_line)].into_iter().collect(),
            mark: None,
        };
        walker.run(&mut flow, span, entry_state);
        findings.append(&mut flow.findings);
    }
}

/// Runs every `[[typestate]]` rule. Findings are unfiltered;
/// suppressions apply in the caller.
pub fn run(files: &BTreeMap<String, FileEntry>, graph: &Graph, ruleset: &Ruleset) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &ruleset.rows {
        run_rule(rule, files, graph, &mut findings);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ruleset::embedded;

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
            .row("wal-ack-before-durable")
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
}
