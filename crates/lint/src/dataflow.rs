//! The intraprocedural dataflow engine (v3).
//!
//! [`crate::summaries`] computes whole-function boolean facts; this
//! module walks *inside* a function body, tracking an abstract state
//! through the statement structure of the blanked code: sequencing,
//! `if`/`else if`/`else` chains, `match` arms, `while`/`for`/`loop`
//! bodies (iterated to a fixpoint), `let ... else` diverging arms, and
//! the early exits (`return`, `?`, `break`/`continue`, panic macros).
//! It is a structural walker, not a full CFG: branches are joined with
//! a union lattice, loops run until the state stabilizes, and anything
//! the walker cannot classify degrades to a linear over-approximation
//! of the statement text (which can only *add* facts, never lose them).
//!
//! One analysis runs on the walker: [`crate::typestate`]'s automata.
//! [`Flow`] is the seam between them — the walker decides which calls,
//! branch entries and exits a path meets, the flow says what each does
//! to its state — and the walker's own tests drive it with a recording
//! flow.
//!
//! Known approximations (deliberate): closure bodies are analyzed
//! inline with the enclosing fn, and a `return` nested in braces inside
//! one statement records the exit without terminating the statement's
//! fallthrough.

use crate::callgraph::{line_at, line_index, CallSite};
use crate::lexer::is_ident_byte;
use crate::parser::ParsedFile;
use std::collections::BTreeMap;

/// How control leaves a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// `return` (or the tail of the function body).
    Return,
    /// The `?` operator.
    Try,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    Panic,
    /// `break` (consumed by the nearest loop).
    Break,
    /// `continue` (consumed by the nearest loop).
    Continue,
    /// Falling off the end of the function body.
    End,
}

/// Union join for map-shaped states: keys accumulate, the first
/// witness for a key wins. The lattice-law tests below target it
/// directly.
pub fn join_union<K: Ord + Clone, V: Clone>(a: &mut BTreeMap<K, V>, b: &BTreeMap<K, V>) {
    for (k, v) in b {
        a.entry(k.clone()).or_insert_with(|| v.clone());
    }
}

/// One analysis over the walker.
pub trait Flow {
    /// The abstract state.
    type State: Clone + PartialEq + Default;
    /// Lattice join (must only grow `a`).
    fn join(&self, a: &mut Self::State, b: &Self::State);
    /// Transfer for one call site.
    fn call(&mut self, st: &mut Self::State, c: &CallSite);
    /// Branch refinement: `st` is entering a branch guarded by the
    /// condition text `cond`, on the side where the condition held
    /// (`positive`) or failed (`!positive`). The walker only calls
    /// this when it can determine the polarity (`if let`, `is_some`/
    /// `is_none`/`is_ok`/`is_err` conditions, `let .. else`, `match`
    /// arms); unclassifiable conditions refine neither side. Default:
    /// no refinement.
    fn branch(&mut self, _st: &mut Self::State, _cond: &str, _positive: bool) {}
    /// End-of-statement hook. `cond` is true when the statement was a
    /// branch condition (`if` condition, `match` scrutinee, loop header,
    /// `let .. else` RHS): provisional facts survive it so
    /// [`Flow::branch`] can consume them on the branch-entry states.
    fn stmt_done(&mut self, st: &mut Self::State, cond: bool);
    /// A path leaves the function with state `st`.
    fn exit(&mut self, st: &Self::State, kind: ExitKind, line: usize);
}

/// Then-branch polarity of a condition text, when determinable:
/// `Some(true)` means the then/body side is the condition-held side,
/// `Some(false)` means the then side is the condition-*failed* side
/// (`is_none`/`is_err` tests), `None` means the walker cannot tell and
/// must refine neither branch. Negated forms (`!x.is_none()`) are
/// deliberately left unclassified rather than guessed.
fn cond_polarity(cond: &str) -> Option<bool> {
    if cond.contains('!') {
        None
    } else if cond.contains("let ") {
        Some(true)
    } else if cond.contains(".is_none()") || cond.contains(".is_err()") {
        Some(false)
    } else if cond.contains(".is_some()") || cond.contains(".is_ok()") {
        Some(true)
    } else {
        None
    }
}

/// The ident starting at `i`, if any.
fn word_at(code: &str, i: usize) -> &str {
    let b = code.as_bytes();
    if i >= b.len() || !is_ident_byte(b[i]) || (i > 0 && is_ident_byte(b[i - 1])) {
        return "";
    }
    let mut j = i;
    while j < b.len() && is_ident_byte(b[j]) {
        j += 1;
    }
    &code[i..j]
}

/// Structural walker over one function body.
pub struct Walker<'a> {
    code: &'a str,
    calls: &'a [CallSite],
    /// Nested fn item spans — opaque to this fn's analysis.
    skip: Vec<(usize, usize)>,
    starts: Vec<usize>,
}

type Pending<S> = Vec<(ExitKind, usize, S)>;

impl<'a> Walker<'a> {
    /// Builds a walker for `graph_fn`'s body; returns `None` for
    /// bodyless items.
    pub fn new(
        code: &'a str,
        parsed: &ParsedFile,
        local_idx: usize,
        calls: &'a [CallSite],
    ) -> Option<(Walker<'a>, (usize, usize))> {
        let item = parsed.fns.get(local_idx)?;
        let (bs, be) = item.body?;
        let be = be.min(code.len());
        Some((
            Walker {
                code,
                calls,
                skip: parsed.nested_spans(local_idx),
                starts: line_index(code),
            },
            (bs, be),
        ))
    }

    fn line(&self, off: usize) -> usize {
        line_at(&self.starts, off)
    }

    fn in_skip(&self, off: usize) -> Option<usize> {
        self.skip.iter().find(|(s, e)| *s <= off && off < *e).map(|(_, e)| *e)
    }

    /// Runs `f` over the body span: entry state flows through the
    /// statement structure; every path out of the body reaches
    /// [`Flow::exit`] (the fall-through end as [`ExitKind::End`]).
    pub fn run<F: Flow>(&self, f: &mut F, span: (usize, usize), entry: F::State) {
        let mut pending = Vec::new();
        let (fall, _) = self.block(f, span.0, span.1, Some(entry), &mut pending);
        if let Some(st) = fall {
            f.exit(&st, ExitKind::End, self.line(span.1.saturating_sub(1).max(span.0)));
        }
        // Stray break/continue at fn level (closure bodies analyzed
        // inline) — not fn exits; dropped.
    }

    /// `{` at paren-depth 0 after `from`, with its matching `}`.
    fn find_block(&self, from: usize, limit: usize) -> Option<(usize, usize)> {
        let b = self.code.as_bytes();
        let mut pd = 0i32;
        let mut i = from;
        while i < limit {
            match b[i] {
                b'(' | b'[' => pd += 1,
                b')' | b']' => pd -= 1,
                b'{' if pd <= 0 => {
                    let mut depth = 0i32;
                    let mut j = i;
                    while j < limit {
                        match b[j] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    return Some((i, j));
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    return Some((i, limit));
                }
                _ => {}
            }
            i += 1;
        }
        None
    }

    /// Next `;` at paren- and brace-depth 0 in `[from, limit)`, or
    /// `limit`.
    fn stmt_semi(&self, from: usize, limit: usize) -> usize {
        let b = self.code.as_bytes();
        let (mut pd, mut bd) = (0i32, 0i32);
        let mut i = from;
        while i < limit {
            match b[i] {
                b'(' | b'[' => pd += 1,
                b')' | b']' => pd -= 1,
                b'{' => bd += 1,
                b'}' => {
                    bd -= 1;
                    if bd < 0 {
                        return i;
                    }
                }
                b';' if pd == 0 && bd == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        limit
    }

    /// Offset of the word `needle` at paren/brace depth 0 in
    /// `[from, limit)`.
    fn depth0_word(&self, needle: &str, from: usize, limit: usize) -> Option<usize> {
        let b = self.code.as_bytes();
        let (mut pd, mut bd) = (0i32, 0i32);
        let mut i = from;
        while i < limit {
            match b[i] {
                b'(' | b'[' => pd += 1,
                b')' | b']' => pd -= 1,
                b'{' => bd += 1,
                b'}' => bd -= 1,
                _ => {
                    if pd == 0 && bd == 0 && word_at(self.code, i) == needle {
                        return Some(i);
                    }
                }
            }
            i += 1;
        }
        None
    }

    fn join_opt<F: Flow>(f: &F, acc: &mut Option<F::State>, other: Option<F::State>) {
        match (acc.as_mut(), other) {
            (_, None) => {}
            (Some(a), Some(b)) => f.join(a, &b),
            (None, Some(b)) => *acc = Some(b),
        }
    }

    /// Walks one `{ ... }` span (exclusive braces). Returns the
    /// fall-through state (None when all paths diverge) and the
    /// break/continue states for the nearest enclosing loop.
    fn block<F: Flow>(
        &self,
        f: &mut F,
        s: usize,
        e: usize,
        entry: Option<F::State>,
        pending: &mut Pending<F::State>,
    ) -> (Option<F::State>, ()) {
        let b = self.code.as_bytes();
        let mut i = s;
        let mut cur = entry;
        while i < e {
            if cur.is_none() {
                break; // rest of the block is unreachable
            }
            if let Some(end) = self.in_skip(i) {
                i = end.min(e);
                continue;
            }
            let c = b[i];
            if c.is_ascii_whitespace() || c == b';' {
                i += 1;
                continue;
            }
            // Loop labels: `'outer: loop { .. }`.
            if c == b'\'' {
                let mut j = i + 1;
                while j < e && is_ident_byte(b[j]) {
                    j += 1;
                }
                if j < e && b[j] == b':' && j > i + 1 {
                    i = j + 1;
                    continue;
                }
            }
            let word = word_at(self.code, i);
            match word {
                "if" => i = self.handle_if(f, i, e, &mut cur, pending),
                "while" | "for" | "loop" => i = self.handle_loop(f, word, i, e, &mut cur, pending),
                "match" => i = self.handle_match(f, i, e, &mut cur, pending),
                "let" => i = self.handle_let(f, i, e, &mut cur, pending),
                "unsafe" | "" if c == b'{' || word == "unsafe" => {
                    let from = if word == "unsafe" { i + 6 } else { i };
                    let Some((bs, be)) = self.find_block(from, e) else {
                        i += 1;
                        continue;
                    };
                    let (fall, _) = self.block(f, bs + 1, be, cur.take(), pending);
                    cur = fall;
                    i = (be + 1).min(e);
                }
                "fn" => {
                    // Nested fn item outside the recorded skip spans
                    // (shouldn't happen) — jump past its body.
                    match self.find_block(i, e) {
                        Some((_, be)) => i = be + 1,
                        None => i = e,
                    }
                }
                _ => {
                    // Plain statement (or tail expression).
                    let end = self.stmt_semi(i, e);
                    let diverged = self.segment(f, &mut cur, i, end, pending, false);
                    if diverged {
                        cur = None;
                    }
                    i = (end + 1).min(e);
                }
            }
        }
        (cur, ())
    }

    /// `if` / `else if` / `else` chain starting at `i` (on `if`).
    fn handle_if<F: Flow>(
        &self,
        f: &mut F,
        mut i: usize,
        e: usize,
        cur: &mut Option<F::State>,
        pending: &mut Pending<F::State>,
    ) -> usize {
        let mut outs: Option<F::State> = None;
        loop {
            // Condition events run on the not-yet-taken state.
            let Some((bs, be)) = self.find_block(i + 2, e) else {
                return e;
            };
            self.segment(f, cur, i + 2, bs, pending, true);
            let cond_text = &self.code[i + 2..bs];
            let mut then_entry = cur.clone();
            if let Some(pos) = cond_polarity(cond_text) {
                if let Some(st) = then_entry.as_mut() {
                    f.branch(st, cond_text, pos);
                }
                if let Some(st) = cur.as_mut() {
                    f.branch(st, cond_text, !pos);
                }
            }
            let (fall, _) = self.block(f, bs + 1, be, then_entry, pending);
            Self::join_opt(f, &mut outs, fall);
            i = (be + 1).min(e);
            // `else` / `else if`?
            let mut j = i;
            while j < e && self.code.as_bytes()[j].is_ascii_whitespace() {
                j += 1;
            }
            if word_at(self.code, j) != "else" {
                // No else: the skip path falls through.
                Self::join_opt(f, &mut outs, cur.take());
                *cur = outs;
                return i;
            }
            let mut k = j + 4;
            while k < e && self.code.as_bytes()[k].is_ascii_whitespace() {
                k += 1;
            }
            if word_at(self.code, k) == "if" {
                i = k;
                continue;
            }
            // Trailing `else { .. }`.
            let Some((bs2, be2)) = self.find_block(k, e) else {
                return e;
            };
            let (fall, _) = self.block(f, bs2 + 1, be2, cur.take(), pending);
            Self::join_opt(f, &mut outs, fall);
            *cur = outs;
            return (be2 + 1).min(e);
        }
    }

    /// `while` / `for` / `loop` starting at `i`.
    fn handle_loop<F: Flow>(
        &self,
        f: &mut F,
        kw: &str,
        i: usize,
        e: usize,
        cur: &mut Option<F::State>,
        pending: &mut Pending<F::State>,
    ) -> usize {
        let Some((bs, be)) = self.find_block(i + kw.len(), e) else {
            return e;
        };
        // Header (condition / iterator) events.
        self.segment(f, cur, i + kw.len(), bs, pending, true);
        let header = &self.code[i + kw.len()..bs];
        let mut zero_iter = if kw == "loop" { None } else { cur.clone() };

        // Iterate the body to a fixpoint on the entry state; break
        // states collect into the loop's fall-through.
        let mut entry = cur.clone();
        if kw == "while" {
            if let Some(pos) = cond_polarity(header) {
                if let Some(st) = entry.as_mut() {
                    f.branch(st, header, pos);
                }
                if let Some(st) = zero_iter.as_mut() {
                    f.branch(st, header, !pos);
                }
            }
        }
        let mut breaks: Option<F::State> = None;
        for _ in 0..4 {
            let mut body_pending: Pending<F::State> = Vec::new();
            let (fall, _) = self.block(f, bs + 1, be, entry.clone(), &mut body_pending);
            let mut next = entry.clone();
            Self::join_opt(f, &mut next, fall);
            breaks = None;
            for (kind, _, st) in body_pending {
                match kind {
                    ExitKind::Break => Self::join_opt(f, &mut breaks, Some(st)),
                    ExitKind::Continue => Self::join_opt(f, &mut next, Some(st)),
                    _ => {}
                }
            }
            if next == entry {
                break;
            }
            entry = next;
        }
        // A `while`/`for` is left when its header gives up — before the
        // first iteration or after any later one, so whatever a body
        // fall-through or `continue` changed (all in the fixpoint
        // `entry`) survives the loop; a bare `loop` only via `break`.
        let mut out = zero_iter;
        if kw != "loop" {
            Self::join_opt(f, &mut out, entry);
        }
        Self::join_opt(f, &mut out, breaks);
        *cur = out;
        (be + 1).min(e)
    }

    /// `match` starting at `i`.
    fn handle_match<F: Flow>(
        &self,
        f: &mut F,
        i: usize,
        e: usize,
        cur: &mut Option<F::State>,
        pending: &mut Pending<F::State>,
    ) -> usize {
        let Some((bs, be)) = self.find_block(i + 5, e) else {
            return e;
        };
        self.segment(f, cur, i + 5, bs, pending, true);
        let scrutinee = &self.code[i + 5..bs];
        let entry = cur.take();
        let mut outs: Option<F::State> = None;
        let mut j = bs + 1;
        let b = self.code.as_bytes();
        while j < be {
            if b[j].is_ascii_whitespace() || b[j] == b',' {
                j += 1;
                continue;
            }
            // Pattern: up to `=>` at depth 0.
            let (mut pd, mut bd) = (0i32, 0i32);
            let mut arrow = None;
            let mut k = j;
            while k + 1 < be {
                match b[k] {
                    b'(' | b'[' => pd += 1,
                    b')' | b']' => pd -= 1,
                    b'{' => bd += 1,
                    b'}' => bd -= 1,
                    b'=' if b[k + 1] == b'>' && pd == 0 && bd == 0 => {
                        arrow = Some(k);
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            let mut body = arrow + 2;
            while body < be && b[body].is_ascii_whitespace() {
                body += 1;
            }
            let mut arm_state = entry.clone();
            // An arm whose pattern names the failure constructors sits
            // on the condition-failed side of the scrutinee.
            let pat_text = &self.code[j..arrow];
            let positive = !(pat_text.contains("None") || pat_text.contains("Err"));
            if let Some(st) = arm_state.as_mut() {
                f.branch(st, scrutinee, positive);
            }
            if body < be && b[body] == b'{' {
                let Some((abs, abe)) = self.find_block(body, be) else {
                    break;
                };
                let (fall, _) = self.block(f, abs + 1, abe, arm_state, pending);
                Self::join_opt(f, &mut outs, fall);
                j = abe + 1;
            } else {
                // Expression arm: up to `,` at depth 0.
                let (mut pd, mut bd) = (0i32, 0i32);
                let mut k = body;
                while k < be {
                    match b[k] {
                        b'(' | b'[' => pd += 1,
                        b')' | b']' => pd -= 1,
                        b'{' => bd += 1,
                        b'}' => bd -= 1,
                        b',' if pd == 0 && bd == 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let diverged = self.segment(f, &mut arm_state, body, k, pending, false);
                if !diverged {
                    Self::join_opt(f, &mut outs, arm_state);
                }
                j = k + 1;
            }
        }
        *cur = outs;
        (be + 1).min(e)
    }

    /// `let` statement starting at `i`, including `let ... else`.
    fn handle_let<F: Flow>(
        &self,
        f: &mut F,
        i: usize,
        e: usize,
        cur: &mut Option<F::State>,
        pending: &mut Pending<F::State>,
    ) -> usize {
        let semi = self.stmt_semi(i, e);
        // `let PAT = RHS else { DIVERGE };`
        if let Some(else_at) = self.depth0_word("else", i, semi) {
            if let Some((bs, be)) = self.find_block(else_at + 4, semi.max(else_at + 5)) {
                self.segment(f, cur, i, else_at, pending, true);
                let cond_text = &self.code[i..else_at];
                // The else arm diverges; its fall-through (a non-
                // diverging else block — invalid Rust) is dropped. It
                // is the pattern-match-failed side of the binding.
                let mut else_entry = cur.clone();
                if let Some(st) = else_entry.as_mut() {
                    f.branch(st, cond_text, false);
                }
                let _ = self.block(f, bs + 1, be, else_entry, pending);
                // The continue path is the match-held side.
                if let Some(st) = cur.as_mut() {
                    f.branch(st, cond_text, true);
                    f.stmt_done(st, false);
                }
                return (semi + 1).min(e);
            }
        }
        // `let x = { ... };` — a block-expression RHS (the lock-scope
        // idiom). Walked structurally: early `return`s inside the
        // block exit with the state *at that point*, not with events
        // sequenced later in the block.
        if let Some((bs, be)) = self.rhs_block(i, semi) {
            self.segment(f, cur, i, bs, pending, false);
            let (fall, _) = self.block(f, bs + 1, be, cur.take(), pending);
            *cur = fall;
            if cur.is_some() && be + 1 < semi {
                self.segment(f, cur, be + 1, semi, pending, false);
            }
            if let Some(st) = cur.as_mut() {
                f.stmt_done(st, false);
            }
            return (semi + 1).min(e);
        }
        let diverged = self.segment(f, cur, i, semi, pending, false);
        if diverged {
            *cur = None;
        }
        (semi + 1).min(e)
    }

    /// The `{ ... }` span of a `let x = { ... };` statement whose RHS
    /// is exactly a block expression (`= {` with only whitespace
    /// between) — struct literals, closures, `if`/`match` RHS all stay
    /// on the linear path.
    fn rhs_block(&self, i: usize, semi: usize) -> Option<(usize, usize)> {
        let b = self.code.as_bytes();
        let (mut pd, mut bd) = (0i32, 0i32);
        let mut k = i;
        while k < semi {
            match b[k] {
                b'(' | b'[' => pd += 1,
                b')' | b']' => pd -= 1,
                b'{' => bd += 1,
                b'}' => bd -= 1,
                b'=' if pd == 0 && bd == 0 => {
                    // A bare binding `=`: not `==`, `=>`, `<=` etc.
                    if b.get(k + 1) == Some(&b'=')
                        || b.get(k + 1) == Some(&b'>')
                        || (k > 0 && b"=<>!+-*/%&|^".contains(&b[k - 1]))
                    {
                        k += 1;
                        continue;
                    }
                    let mut j = k + 1;
                    while j < semi && b[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < semi && b[j] == b'{' {
                        return self.find_block(j, semi);
                    }
                    return None;
                }
                _ => {}
            }
            k += 1;
        }
        None
    }

    /// Linear evaluation of a statement/segment: calls and exit tokens
    /// in offset order, then the end-of-statement hook. Returns whether
    /// the segment terminates its path (diverges).
    fn segment<F: Flow>(
        &self,
        f: &mut F,
        cur: &mut Option<F::State>,
        s: usize,
        e: usize,
        pending: &mut Pending<F::State>,
        cond: bool,
    ) -> bool {
        let Some(st) = cur.as_mut() else {
            return false;
        };

        enum Ev {
            Call(usize),
            Tok(ExitKind, usize, bool), // kind, offset, at-depth-0
        }
        let mut evs: Vec<(usize, Ev)> = Vec::new();
        for (ci, c) in self.calls.iter().enumerate() {
            if c.offset >= s && c.offset < e {
                evs.push((c.offset, Ev::Call(ci)));
            }
        }
        let b = self.code.as_bytes();
        let mut bd = 0i32;
        let mut k = s;
        while k < e {
            if self.in_skip(k).is_some() {
                k += 1;
                continue;
            }
            match b[k] {
                b'{' => bd += 1,
                b'}' => bd -= 1,
                b'?' => evs.push((k, Ev::Tok(ExitKind::Try, k, bd == 0))),
                _ => {
                    let w = word_at(self.code, k);
                    let kind = match w {
                        "return" => Some(ExitKind::Return),
                        "break" => Some(ExitKind::Break),
                        "continue" => Some(ExitKind::Continue),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                            if b.get(k + w.len()) == Some(&b'!') =>
                        {
                            Some(ExitKind::Panic)
                        }
                        _ => None,
                    };
                    if let Some(kind) = kind {
                        evs.push((k, Ev::Tok(kind, k, bd == 0)));
                    }
                    if !w.is_empty() {
                        k += w.len();
                        continue;
                    }
                }
            }
            k += 1;
        }
        evs.sort_by_key(|(off, _)| *off);

        // Deferred fn-exit terminators: `return x?` processes the call
        // and the `?` first, then emits the return with the final state.
        let mut terminator: Option<(ExitKind, usize, bool)> = None;
        for (_, ev) in evs {
            match ev {
                Ev::Call(ci) => f.call(st, &self.calls[ci]),
                Ev::Tok(ExitKind::Try, off, _) => f.exit(st, ExitKind::Try, self.line(off)),
                Ev::Tok(kind, off, d0) => {
                    if terminator.is_none() {
                        terminator = Some((kind, off, d0));
                    } else if let Some((_, _, false)) = terminator {
                        // Prefer a depth-0 terminator over a nested one.
                        if d0 {
                            terminator = Some((kind, off, d0));
                        }
                    }
                }
            }
        }
        f.stmt_done(st, cond);
        match terminator {
            Some((ExitKind::Break, off, d0)) => {
                pending.push((ExitKind::Break, self.line(off), st.clone()));
                d0
            }
            Some((ExitKind::Continue, off, d0)) => {
                pending.push((ExitKind::Continue, self.line(off), st.clone()));
                d0
            }
            Some((kind, off, d0)) => {
                f.exit(st, kind, self.line(off));
                d0
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::parser::{parse, ParsedFile};

    // ---- harness -------------------------------------------------------

    /// Deterministic xorshift64 PRNG — the property tests below need
    /// randomized states without a dependency (and without
    /// `Math.random`-style ambient entropy).
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

    const KEYS: &[&str] = &["a", "b", "c", "d", "e", "f", "g", "h"];

    fn rand_state(rng: &mut XorShift) -> BTreeMap<String, usize> {
        let mask = rng.next();
        KEYS.iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(i, k)| (k.to_string(), (mask >> (8 + i)) as usize & 0xff))
            .collect()
    }

    fn joined(a: &BTreeMap<String, usize>, b: &BTreeMap<String, usize>) -> BTreeMap<String, usize> {
        let mut out = a.clone();
        join_union(&mut out, b);
        out
    }

    // ---- lattice laws for join_union -----------------------------------

    #[test]
    fn join_is_idempotent() {
        let mut rng = XorShift(0x9e3779b97f4a7c15);
        for _ in 0..500 {
            let a = rand_state(&mut rng);
            assert_eq!(joined(&a, &a), a);
        }
    }

    #[test]
    fn join_is_commutative_on_domains_with_first_witness_bias() {
        let mut rng = XorShift(0x2545f4914f6cdd1d);
        for _ in 0..500 {
            let (a, b) = (rand_state(&mut rng), rand_state(&mut rng));
            let ab = joined(&a, &b);
            let ba = joined(&b, &a);
            // Domains agree; witnesses are left-biased by design.
            let ka: Vec<&String> = ab.keys().collect();
            let kb: Vec<&String> = ba.keys().collect();
            assert_eq!(ka, kb);
            for (k, v) in &ab {
                assert_eq!(v, a.get(k).unwrap_or_else(|| &b[k]), "first witness wins");
            }
        }
    }

    #[test]
    fn join_is_monotone_and_preserves_existing_witnesses() {
        let mut rng = XorShift(0xdeadbeefcafef00d);
        for _ in 0..500 {
            let (a, b) = (rand_state(&mut rng), rand_state(&mut rng));
            let ab = joined(&a, &b);
            for (k, v) in &a {
                assert_eq!(ab.get(k), Some(v), "join must only grow, never rewrite");
            }
            for k in b.keys() {
                assert!(ab.contains_key(k), "join must absorb the other branch");
            }
        }
    }

    #[test]
    fn join_is_associative() {
        let mut rng = XorShift(0x0123456789abcdef);
        for _ in 0..300 {
            let (a, b, c) = (rand_state(&mut rng), rand_state(&mut rng), rand_state(&mut rng));
            assert_eq!(joined(&joined(&a, &b), &c), joined(&a, &joined(&b, &c)));
        }
    }

    // ---- walker exit structure -----------------------------------------

    struct Rec {
        exits: Vec<(ExitKind, bool)>,
    }
    impl Flow for Rec {
        type State = BTreeMap<String, usize>;
        fn join(&self, a: &mut Self::State, b: &Self::State) {
            join_union(a, b);
        }
        fn call(&mut self, st: &mut Self::State, c: &CallSite) {
            if c.name == "set" {
                st.insert("x".to_string(), c.line);
            }
        }
        fn stmt_done(&mut self, _st: &mut Self::State, _cond: bool) {}
        fn exit(&mut self, st: &Self::State, kind: ExitKind, _line: usize) {
            self.exits.push((kind, st.contains_key("x")));
        }
    }

    fn exits_of(src: &str, fname: &str) -> Vec<(ExitKind, bool)> {
        let parsed: BTreeMap<String, ParsedFile> =
            [("crates/x/src/a.rs".to_string(), parse(src))].into_iter().collect();
        let graph = build(parsed.iter().map(|(p, f)| (p.as_str(), f)));
        let fi = graph.fns.iter().position(|f| f.name == fname).unwrap();
        let f = &graph.fns[fi];
        let pf = &parsed[&f.file];
        let (walker, span) =
            Walker::new(&pf.stripped.code, pf, f.local_idx, &f.calls).expect("body");
        let mut rec = Rec { exits: Vec::new() };
        walker.run(&mut rec, span, BTreeMap::new());
        rec.exits
    }

    fn kinds(v: &[(ExitKind, bool)]) -> Vec<ExitKind> {
        v.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn straight_line_fn_falls_through_once() {
        let e = exits_of("fn f() { g(); }\n", "f");
        assert_eq!(kinds(&e), vec![ExitKind::End]);
    }

    #[test]
    fn early_return_and_fallthrough_both_exit() {
        let e = exits_of("fn f(x: bool) {\n    if x {\n        return;\n    }\n    g();\n}\n", "f");
        assert_eq!(kinds(&e), vec![ExitKind::Return, ExitKind::End]);
    }

    #[test]
    fn question_mark_exits_inline() {
        let e = exits_of("fn f() -> R {\n    g()?;\n    h();\n    done()\n}\n", "f");
        assert!(kinds(&e).contains(&ExitKind::Try), "{e:?}");
        assert!(kinds(&e).contains(&ExitKind::End), "{e:?}");
    }

    #[test]
    fn panic_branch_exits_as_panic() {
        let e = exits_of("fn f(x: bool) {\n    if x {\n        panic!(\"no\");\n    }\n    g();\n}\n", "f");
        assert_eq!(kinds(&e), vec![ExitKind::Panic, ExitKind::End]);
    }

    #[test]
    fn break_is_consumed_by_the_loop() {
        let e = exits_of(
            "fn f() {\n    loop {\n        if c() {\n            break;\n        }\n        g();\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(kinds(&e), vec![ExitKind::End], "{e:?}");
    }

    #[test]
    fn if_else_state_joins_as_union() {
        // `set()` on one branch only: the fall-through end must still
        // see it (may-analysis union join).
        let one = exits_of(
            "fn f(x: bool) {\n    if x {\n        set();\n    } else {\n        g();\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(one, vec![(ExitKind::End, true)]);
        let neither = exits_of(
            "fn f(x: bool) {\n    if x {\n        g();\n    } else {\n        g();\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(neither, vec![(ExitKind::End, false)]);
    }

    #[test]
    fn match_arm_state_joins_as_union() {
        let e = exits_of(
            "fn f(v: u8) {\n    match v {\n        0 => set(),\n        _ => {}\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(e, vec![(ExitKind::End, true)]);
    }

    #[test]
    fn let_else_diverging_arm_exits_and_fallthrough_continues() {
        let e = exits_of(
            "fn f(v: Option<u8>) {\n    let Some(x) = v else {\n        return;\n    };\n    g();\n}\n",
            "f",
        );
        assert_eq!(kinds(&e), vec![ExitKind::Return, ExitKind::End], "{e:?}");
    }

    #[test]
    fn set_before_return_reaches_that_exit_only() {
        let e = exits_of(
            "fn f(x: bool) {\n    if x {\n        set();\n        return;\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(e, vec![(ExitKind::Return, true), (ExitKind::End, false)]);
    }

    #[test]
    fn loop_body_state_reaches_the_loop_exit() {
        // set() inside the loop: after the loop the union must carry it.
        let e = exits_of(
            "fn f() {\n    loop {\n        set();\n        if c() {\n            break;\n        }\n    }\n    h();\n}\n",
            "f",
        );
        assert_eq!(e, vec![(ExitKind::End, true)], "{e:?}");
    }
}
