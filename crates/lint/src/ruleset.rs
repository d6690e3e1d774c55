//! The declarative ruleset: taint and typestate rules as data.
//!
//! A declarative rule is one `[[section]]` row in the checked-in
//! `lint-rules.toml` at the workspace root, and nowhere else: the file
//! is compiled in ([`SOURCE`]) and [`parse_toml`] reads it with a
//! hand-rolled TOML-subset reader (sections, string keys, single-line
//! string arrays — no dependency, like the rest of the crate). The row's
//! `name` is the rule id findings and suppressions carry (a
//! `&'static str` slice of the text), its `doc` is the hint shown next to
//! findings, and `--explain` prints the row's own lines ([`Row::text`]).
//! The rows are compiled by [`crate::summaries`] into per-function facts
//! and evaluated by the generic engines in [`crate::dataflow`] and
//! [`crate::typestate`]. A
//! new "X must happen before Y" invariant (e.g. a drop-reason
//! obligation) is a one-row addition to the file — no Rust edit, not a
//! new analysis.

use crate::callgraph::CallSite;
use crate::rules::{rule_hint, RULE_NAMES};
use std::sync::OnceLock;

/// A call-site pattern: `name` or `Qualifier::name`. A bare name
/// matches any call of that name (method, free, or path-qualified); a
/// qualified pattern additionally requires the call's last path
/// segment (`Envelope::parse`, `xml::parse`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallPat {
    /// Required qualifier (last path segment), if any.
    pub qualifier: Option<String>,
    /// The called name.
    pub name: String,
}

impl CallPat {
    /// Parses `"name"` or `"Qualifier::name"`.
    pub fn parse(s: &str) -> CallPat {
        match s.rsplit_once("::") {
            Some((q, n)) => CallPat {
                qualifier: Some(q.rsplit("::").next().unwrap_or(q).to_string()),
                name: n.to_string(),
            },
            None => CallPat {
                qualifier: None,
                name: s.to_string(),
            },
        }
    }

    /// Whether this pattern matches a call site.
    pub fn matches(&self, c: &CallSite) -> bool {
        self.name == c.name
            && match &self.qualifier {
                None => true,
                Some(q) => c.qualifier.as_deref() == Some(q.as_str()),
            }
    }

    /// Whether any pattern in `pats` matches `c`.
    pub fn any(pats: &[CallPat], c: &CallSite) -> bool {
        pats.iter().any(|p| p.matches(c))
    }
}

/// A typestate call pattern, richer than [`CallPat`] because protocol
/// transitions are usually keyed by *which object* a method is called
/// on: `*` (any call — in binding mode, any call on the tracked
/// object), `recv.name` (method `name` on a receiver whose last dotted
/// segment is `recv`, e.g. `wal.append` matches `self.wal.append(..)`),
/// `Qualifier::name`, or a bare `name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsPat {
    /// Matches any call (binding mode pre-filters to the tracked
    /// object, so `*` there means "any use of the object").
    Any,
    /// Matches method `name` on a receiver ending in `.recv`.
    Recv {
        /// Required last segment of the receiver chain.
        recv: String,
        /// The method name.
        name: String,
    },
    /// Bare or `Qualifier::name` matching, as [`CallPat`].
    Call(CallPat),
}

impl TsPat {
    /// Parses `"*"`, `"recv.name"`, `"Qualifier::name"`, or `"name"`.
    pub fn parse(s: &str) -> TsPat {
        if s == "*" {
            return TsPat::Any;
        }
        if !s.contains("::") {
            if let Some((r, n)) = s.rsplit_once('.') {
                return TsPat::Recv {
                    recv: r.to_string(),
                    name: n.to_string(),
                };
            }
        }
        TsPat::Call(CallPat::parse(s))
    }

    /// Whether the pattern matches a call site (`Any` matches every
    /// call — the engine pre-filters by tracked object first).
    pub fn matches(&self, c: &CallSite) -> bool {
        match self {
            TsPat::Any => true,
            TsPat::Recv { recv, name } => {
                *name == c.name
                    && c.receiver.rsplit('.').next() == Some(recv.as_str())
            }
            TsPat::Call(p) => p.matches(c),
        }
    }

}

/// One automaton transition: in state `from`, a call matching `pat`
/// moves the machine to `to`. Spelled `"from => to : pat"` in TOML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsArc {
    /// Source state.
    pub from: String,
    /// Destination state.
    pub to: String,
    /// Call pattern that fires the arc.
    pub pat: TsPat,
}

impl TsArc {
    fn parse(s: &str) -> Result<TsArc, String> {
        let err = || format!("transition `{s}` must be `from => to : call-pattern`");
        let (from, rest) = s.split_once(" => ").ok_or_else(err)?;
        let (to, pat) = rest.split_once(" : ").ok_or_else(err)?;
        Ok(TsArc {
            from: from.trim().to_string(),
            to: to.trim().to_string(),
            pat: TsPat::parse(pat.trim()),
        })
    }
}

/// One error transition: in state `state`, a call matching `pat` is an
/// immediate violation. Spelled `"state : pat : message"` in TOML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TsErr {
    /// State the error arms in.
    pub state: String,
    /// Call pattern that triggers it.
    pub pat: TsPat,
    /// Finding message; `{fn}`, `{call}` placeholders.
    pub message: String,
}

impl TsErr {
    fn parse(s: &str) -> Result<TsErr, String> {
        let mut parts = s.splitn(3, " : ");
        match (parts.next(), parts.next(), parts.next()) {
            (Some(state), Some(pat), Some(msg)) => Ok(TsErr {
                state: state.trim().to_string(),
                pat: TsPat::parse(pat.trim()),
                message: msg.trim().to_string(),
            }),
            _ => Err(format!("error row `{s}` must be `state : call-pattern : message`")),
        }
    }
}

/// A protocol-lifecycle automaton, checked path-sensitively by
/// [`crate::typestate`]: calls fire transitions, unmatched calls
/// self-loop, error rows fire immediately, and (when `exit_message` is
/// set) a `return` / fall-through exit in a non-accepting state is a
/// finding. Helpers that perform transitions propagate them to callers
/// through interprocedural effect summaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypestateRule {
    /// Rule id.
    pub name: &'static str,
    /// Path prefixes the automaton runs under (empty = everywhere).
    pub scopes: Vec<String>,
    /// `"ambient"` — one machine per function; `"binding"` — one
    /// machine per object bound by a `creates` call.
    pub track: String,
    /// Declared states; the first is the start state.
    pub states: Vec<String>,
    /// States a function may exit in without a finding.
    pub accepting: Vec<String>,
    /// Binding mode: calls whose bound result starts a tracked object.
    pub creates: Vec<TsPat>,
    /// Transition arcs.
    pub transitions: Vec<TsArc>,
    /// Error transitions.
    pub errors: Vec<TsErr>,
    /// Non-empty enables non-accepting-exit checking (`Return` and
    /// fall-through only — `?`, `break`, panics are exempt);
    /// `{fn}`, `{state}` placeholders.
    pub exit_message: String,
}

/// "Bytes from a source must pass a sanitizer before reaching a sink"
/// — a variable-level taint lattice evaluated by [`crate::dataflow`],
/// with interprocedural source/sanitizer/sink summaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TaintRule {
    /// Rule id.
    pub name: &'static str,
    /// Path prefixes exempt from the rule (the crates that implement
    /// the primitives themselves).
    pub exempt: Vec<String>,
    /// Calls whose results (and `&mut` arguments) become tainted.
    pub sources: Vec<CallPat>,
    /// Calls that clear taint from their arguments.
    pub sanitizers: Vec<CallPat>,
    /// Calls that must never receive a tainted argument.
    pub sinks: Vec<CallPat>,
    /// Excerpt template; `{call}`, `{var}`, `{src}`, `{file}`, `{line}`.
    pub contract: String,
}

/// One `[[section]]` of the source text — what exists of a rule beyond
/// its engine parameters: the ids it defines, the hint shown next to
/// its findings, and its own lines for `--explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Section kind (`typestate`, `taint`, ...).
    pub kind: &'static str,
    /// 1-based line of the `[[section]]` header.
    pub line: usize,
    /// The rule id the row defines.
    pub name: &'static str,
    /// The row's `doc`: the one text findings and `--explain` show.
    pub doc: &'static str,
    /// The row exactly as written, header through last key line.
    pub text: &'static str,
}

impl Row {
    /// The engine that evaluates this kind of row.
    pub fn engine(&self) -> &'static str {
        match self.kind {
            "taint" => "taint (path-sensitive dataflow)",
            _ => "typestate automaton (path-sensitive dataflow)",
        }
    }
}

/// The full declarative ruleset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ruleset {
    /// Every section in file order, across all kinds.
    pub rows: Vec<Row>,
    /// Taint-dataflow rules.
    pub taint_rules: Vec<TaintRule>,
    /// Protocol-lifecycle automata.
    pub typestate_rules: Vec<TypestateRule>,
}

impl Ruleset {
    /// The row that defines `rule`, if it is a declarative one.
    pub fn row(&self, rule: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == rule)
    }

    /// Every rule id a finding or a suppression may carry: the coded
    /// rules ([`RULE_NAMES`]) followed by the rows' names in file order.
    pub fn rule_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        RULE_NAMES
            .iter()
            .copied()
            .chain(self.rows.iter().map(|r| r.name))
    }

    /// What `rule` protects, shown next to findings: the row's `doc`,
    /// or [`rule_hint`] for a coded rule.
    pub fn hint(&self, rule: &str) -> &'static str {
        self.row(rule).map_or_else(|| rule_hint(rule), |r| r.doc)
    }
}

/// The checked-in `lint-rules.toml`, compiled in.
pub const SOURCE: &str = include_str!("../../../lint-rules.toml");

/// The ruleset every workspace run uses: [`SOURCE`], parsed once.
pub fn embedded() -> &'static Ruleset {
    static EMBEDDED: OnceLock<Ruleset> = OnceLock::new();
    EMBEDDED.get_or_init(|| {
        parse_toml(SOURCE).expect("the checked-in lint-rules.toml parses (unit-tested)")
    })
}

/// One parsed `key = value` where value is a string or string array,
/// as slices of the source text.
enum Val {
    Str(&'static str),
    List(Vec<&'static str>),
}

fn parse_value(raw: &'static str) -> Result<Val, String> {
    let raw = raw.trim();
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(end) = rest.rfind('"') else {
            return Err("unterminated string".into());
        };
        return Ok(Val::Str(&rest[..end]));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err("unterminated array (arrays must be single-line)".into());
        };
        let mut items = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let inner = part
                .strip_prefix('"')
                .and_then(|p| p.strip_suffix('"'))
                .ok_or_else(|| format!("array item `{part}` is not a quoted string"))?;
            items.push(inner);
        }
        return Ok(Val::List(items));
    }
    Err(format!("unsupported value `{raw}` (expected \"str\" or [\"a\", ...])"))
}

/// Appends an empty rule to `rules`, returning its index.
fn push_default<T: Default>(rules: &mut Vec<T>) -> usize {
    rules.push(T::default());
    rules.len() - 1
}

/// Hand-rolled parser for the TOML subset the ruleset uses:
/// `[[section]]` table arrays, `key = "string"`, and single-line
/// `key = ["a", "b"]` arrays. Comments (`#`) and blank lines ignored.
/// The text is `'static` because rule ids and docs are slices of it.
pub fn parse_toml(text: &'static str) -> Result<Ruleset, String> {
    let mut rs = Ruleset::default();
    // Index, within its kind's vector, of the row being filled (the row
    // itself is `rs.rows.last()`), and where that row's text starts.
    let mut idx = 0;
    let mut row_start = 0;

    let mut line_start = 0;
    for (lno, raw) in text.split_inclusive('\n').enumerate() {
        let start = line_start;
        line_start += raw.len();
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let line_end = start + raw.trim_end().len();
        let at = |e: String| format!("line {}: {e}", lno + 1);
        if let Some(kind) = line.strip_prefix("[[").and_then(|l| l.strip_suffix("]]")) {
            idx = match kind {
                "taint" => push_default(&mut rs.taint_rules),
                "typestate" => push_default(&mut rs.typestate_rules),
                other => return Err(at(format!("unknown section `[[{other}]]`"))),
            };
            row_start = line_end - line.len();
            rs.rows.push(Row {
                kind,
                line: lno + 1,
                name: "",
                doc: "",
                text: &text[row_start..line_end],
            });
            continue;
        }
        let Some((key, raw_val)) = line.split_once('=') else {
            return Err(at(format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let val = parse_value(raw_val).map_err(&at)?;
        let Some(row) = rs.rows.last_mut() else {
            return Err(at(format!("`{key}` outside any [[section]]")));
        };
        row.text = &text[row_start..line_end];
        let want_str = |v: &Val| -> Result<&'static str, String> {
            match v {
                Val::Str(s) => Ok(s),
                _ => Err(at(format!("`{key}` expects a string"))),
            }
        };
        let want_list = |v: &Val| -> Result<Vec<String>, String> {
            match v {
                Val::List(l) => Ok(l.iter().map(|s| s.to_string()).collect()),
                _ => Err(at(format!("`{key}` expects an array"))),
            }
        };
        let to_pats = |v: &Val| -> Result<Vec<CallPat>, String> {
            Ok(want_list(v)?.iter().map(|s| CallPat::parse(s)).collect())
        };
        let mut rule_id = |v: &Val| -> Result<&'static str, String> {
            if !row.name.is_empty() {
                return Err(at("a rule section sets its `name` once".into()));
            }
            row.name = want_str(v)?;
            Ok(row.name)
        };
        match (row.kind, key) {
            (_, "doc") => row.doc = want_str(&val)?,
            ("taint", "name") => rs.taint_rules[idx].name = rule_id(&val)?,
            ("taint", "exempt") => rs.taint_rules[idx].exempt = want_list(&val)?,
            ("taint", "sources") => rs.taint_rules[idx].sources = to_pats(&val)?,
            ("taint", "sanitizers") => rs.taint_rules[idx].sanitizers = to_pats(&val)?,
            ("taint", "sinks") => rs.taint_rules[idx].sinks = to_pats(&val)?,
            ("taint", "contract") => rs.taint_rules[idx].contract = want_str(&val)?.to_string(),
            ("typestate", "name") => rs.typestate_rules[idx].name = rule_id(&val)?,
            ("typestate", "scopes") => rs.typestate_rules[idx].scopes = want_list(&val)?,
            ("typestate", "track") => rs.typestate_rules[idx].track = want_str(&val)?.to_string(),
            ("typestate", "states") => rs.typestate_rules[idx].states = want_list(&val)?,
            ("typestate", "accepting") => {
                rs.typestate_rules[idx].accepting = want_list(&val)?
            }
            ("typestate", "creates") => {
                rs.typestate_rules[idx].creates =
                    want_list(&val)?.iter().map(|s| TsPat::parse(s)).collect()
            }
            ("typestate", "transitions") => {
                rs.typestate_rules[idx].transitions = want_list(&val)?
                    .iter()
                    .map(|s| TsArc::parse(s))
                    .collect::<Result<_, _>>()
                    .map_err(&at)?
            }
            ("typestate", "errors") => {
                rs.typestate_rules[idx].errors = want_list(&val)?
                    .iter()
                    .map(|s| TsErr::parse(s))
                    .collect::<Result<_, _>>()
                    .map_err(&at)?
            }
            ("typestate", "exit-message") => {
                rs.typestate_rules[idx].exit_message = want_str(&val)?.to_string()
            }
            (k, key) => return Err(at(format!("unknown key `{key}` in [[{k}]]"))),
        }
    }
    // One name, one place: unique across the rows and the coded rules.
    let mut seen: Vec<&str> = RULE_NAMES.to_vec();
    for row in &rs.rows {
        let at = |e: String| format!("line {}: [[{}]]: {e}", row.line, row.kind);
        if row.name.is_empty() {
            return Err(at("a rule section needs its `name`".into()));
        }
        if seen.contains(&row.name) {
            return Err(at(format!(
                "rule name `{}` is already taken (by an earlier row or rules::RULE_NAMES)",
                row.name
            )));
        }
        seen.push(row.name);
    }
    // Structural validation of each automaton, after all keys are in
    // (key order within a row is free). Errors point at the offending
    // `[[typestate]]` header so a typo'd state is a one-look fix.
    let ts_rows = rs.rows.iter().filter(|r| r.kind == "typestate");
    for (r, row) in rs.typestate_rules.iter().zip(ts_rows) {
        let at = |e: String| format!("line {}: [[typestate]] `{}`: {e}", row.line, r.name);
        if r.states.is_empty() {
            return Err(at("declares no states".into()));
        }
        if r.track != "ambient" && r.track != "binding" {
            return Err(at(format!(
                "track `{}` must be `ambient` or `binding`",
                r.track
            )));
        }
        if r.track == "binding" && r.creates.is_empty() {
            return Err(at("binding-tracked automata need `creates` patterns".into()));
        }
        let undeclared = |s: &str| !r.states.iter().any(|st| st == s);
        for t in &r.transitions {
            for s in [&t.from, &t.to] {
                if undeclared(s) {
                    return Err(at(format!(
                        "transition `{} => {}` references undeclared state `{s}` \
                         (declared: {})",
                        t.from,
                        t.to,
                        r.states.join(", ")
                    )));
                }
            }
        }
        for e in &r.errors {
            if undeclared(&e.state) {
                return Err(at(format!(
                    "error row references undeclared state `{}` (declared: {})",
                    e.state,
                    r.states.join(", ")
                )));
            }
        }
        for a in &r.accepting {
            if undeclared(a) {
                return Err(at(format!(
                    "accepting state `{a}` is undeclared (declared: {})",
                    r.states.join(", ")
                )));
            }
        }
    }
    Ok(rs)
}

/// Fills a message template: `{fn}`, `{call}`, `{file}`, `{line}`, ...
pub fn fill(template: &str, pairs: &[(&str, &str)]) -> String {
    let mut out = template.to_string();
    for (k, v) in pairs {
        out = out.replace(&format!("{{{k}}}"), v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn callpat_parses_and_matches() {
        let bare = CallPat::parse("enqueue");
        assert_eq!(bare.qualifier, None);
        let q = CallPat::parse("RequestParser::new");
        assert_eq!(q.qualifier.as_deref(), Some("RequestParser"));
        assert_eq!(q.name, "new");
        let deep = CallPat::parse("a::b::c");
        assert_eq!(deep.qualifier.as_deref(), Some("b"));
        assert_eq!(deep.name, "c");
    }

    /// What `load` used to check on every run is checked once, here:
    /// the compiled-in file parses and every automaton validates.
    #[test]
    fn embedded_ruleset_parses_and_validates() {
        let rs = parse_toml(SOURCE).expect("checked-in lint-rules.toml");
        assert_eq!(rs.rows.len(), 7);
        assert_eq!(rs.rule_names().count(), RULE_NAMES.len() + 7);
        for row in &rs.rows {
            assert!(!row.doc.is_empty(), "row at line {} has no doc", row.line);
            assert!(row.text.starts_with("[["), "{:?}", row.text);
            assert!(SOURCE.contains(row.text));
        }
        let wal = rs.row("wal-ack-before-durable").expect("a row name resolves to its row");
        assert_eq!((wal.kind, rs.hint(wal.name)), ("typestate", wal.doc));
        assert_eq!(rs.hint("raw-clock"), rule_hint("raw-clock"));
        assert_eq!(embedded(), &rs);
    }

    #[test]
    fn row_text_is_the_section_as_written() {
        let toml = "# header\n\n[[taint]]\nname = \"g\"\ndoc = \"d\"\n\n# trailing\n[[taint]]\n  name = \"h\"  \n";
        let rs = parse_toml(toml).unwrap();
        assert_eq!(rs.rows[0].text, "[[taint]]\nname = \"g\"\ndoc = \"d\"");
        assert_eq!((rs.rows[0].line, rs.rows[0].doc), (3, "d"));
        assert_eq!(rs.rows[1].text, "[[taint]]\n  name = \"h\"");
        assert_eq!(rs.taint_rules[1].name, "h");
    }

    #[test]
    fn a_rule_name_lives_in_one_place() {
        let err = parse_toml("[[taint]]\nname = \"raw-clock\"\n").unwrap_err();
        assert!(err.contains("`raw-clock` is already taken"), "{err}");
        let err = parse_toml("[[taint]]\nname = \"g\"\n[[taint]]\nname = \"g\"\n").unwrap_err();
        assert!(err.contains("line 3") && err.contains("`g` is already taken"), "{err}");
        let err = parse_toml("[[taint]]\ndoc = \"nameless\"\n").unwrap_err();
        assert!(err.contains("line 1") && err.contains("`name`"), "{err}");
        let err = parse_toml("[[taint]]\nname = \"g\"\nname = \"h\"\n").unwrap_err();
        assert!(err.contains("line 3") && err.contains("`name` once"), "{err}");
    }

    #[test]
    fn malformed_value_is_rejected() {
        assert!(parse_toml("[[taint]]\nname = 42\n").is_err());
        assert!(parse_toml("[[nope]]\n").is_err());
        assert!(parse_toml("name = \"x\"\n").is_err());
    }

    #[test]
    fn tspat_parses_every_spelling() {
        assert_eq!(TsPat::parse("*"), TsPat::Any);
        assert_eq!(
            TsPat::parse("wal.append"),
            TsPat::Recv { recv: "wal".into(), name: "append".into() }
        );
        assert_eq!(TsPat::parse("scratch::checkout"), TsPat::Call(CallPat::parse("scratch::checkout")));
        assert_eq!(TsPat::parse("set_timer"), TsPat::Call(CallPat::parse("set_timer")));
    }

    #[test]
    fn undeclared_state_is_rejected_with_the_header_line() {
        let toml = "\n[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\", \"appended\"]\n\
                    accepting = [\"idle\"]\n\
                    transitions = [\"idle => durible : wal.append\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("undeclared state `durible`"), "{err}");

        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\"]\n\
                    accepting = [\"done\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("accepting state `done`"), "{err}");
    }

    #[test]
    fn bad_track_and_bindingless_creates_are_rejected() {
        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"global\"\nstates = [\"idle\"]\n";
        assert!(parse_toml(toml).unwrap_err().contains("`global`"));
        let toml = "[[typestate]]\nname = \"scratch-use-after-take\"\n\
                    track = \"binding\"\nstates = [\"live\"]\n";
        assert!(parse_toml(toml).unwrap_err().contains("creates"));
    }

    #[test]
    fn malformed_transition_row_is_rejected() {
        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    track = \"ambient\"\nstates = [\"idle\"]\n\
                    transitions = [\"idle -> idle : f\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("from => to"), "{err}");
    }

    #[test]
    fn fill_replaces_placeholders() {
        assert_eq!(
            fill("sink `{call}` in {fn}", &[("call", "enqueue"), ("fn", "D::f")]),
            "sink `enqueue` in D::f"
        );
    }
}
