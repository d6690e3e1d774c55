//! The declarative ruleset: typestate automata as data.
//!
//! A declarative rule is one `[[typestate]]` row in the checked-in
//! `lint-rules.toml` at the workspace root, and nowhere else: the file
//! is compiled in ([`SOURCE`]) and [`parse_toml`] reads it with a
//! hand-rolled TOML-subset reader (sections, string keys, single-line
//! string arrays — no dependency, like the rest of the crate). The row's
//! `name` is the rule id findings and suppressions carry (a
//! `&'static str` slice of the text), its `doc` is the hint shown next to
//! findings, and `--explain` prints the row's own lines
//! ([`TypestateRule::text`]). [`crate::typestate`] runs each row as an
//! automaton on the [`crate::dataflow`] walker: a protocol that must be
//! finished before a function returns is a one-row addition to the file,
//! not a new analysis.

use crate::callgraph::CallSite;
use crate::rules::{rule_hint, RULE_NAMES};
use std::sync::OnceLock;

/// A transition's call pattern: `recv.name` (method `name` on a
/// receiver whose last dotted segment is `recv`, e.g. `wal.append`
/// matches `self.wal.append(..)`), or a bare `name`, which matches any
/// call of that name (method, free, or path-qualified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsPat {
    /// Matches method `name` on a receiver ending in `.recv`.
    Recv {
        /// Required last segment of the receiver chain.
        recv: String,
        /// The method name.
        name: String,
    },
    /// Matches any call of this name.
    Name(String),
}

impl TsPat {
    /// Parses `"recv.name"` or `"name"`.
    pub fn parse(s: &str) -> Result<TsPat, String> {
        if s.contains("::") {
            return Err(format!("call pattern `{s}` must be `name` or `recv.name`"));
        }
        Ok(match s.rsplit_once('.') {
            Some((r, n)) => TsPat::Recv {
                recv: r.to_string(),
                name: n.to_string(),
            },
            None => TsPat::Name(s.to_string()),
        })
    }

    /// Whether the pattern matches a call site.
    pub fn matches(&self, c: &CallSite) -> bool {
        match self {
            TsPat::Recv { recv, name } => {
                *name == c.name && c.receiver.rsplit('.').next() == Some(recv.as_str())
            }
            TsPat::Name(name) => *name == c.name,
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
            pat: TsPat::parse(pat.trim())?,
        })
    }
}

/// One `[[typestate]]` row: a protocol-lifecycle automaton, checked
/// path-sensitively by [`crate::typestate`] — calls fire transitions,
/// unmatched calls self-loop, and a `return` / fall-through exit in a
/// non-accepting state is a finding. Helpers that perform transitions
/// propagate them to callers through interprocedural effect summaries.
/// Beside the engine's parameters the row carries what exists of a rule
/// beyond them: the id, the hint, and its own lines for `--explain`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TypestateRule {
    /// 1-based line of the `[[typestate]]` header.
    pub line: usize,
    /// The rule id the row defines.
    pub name: &'static str,
    /// The row's `doc`: the one text findings and `--explain` show.
    pub doc: &'static str,
    /// The row exactly as written, header through last key line.
    pub text: &'static str,
    /// Path prefixes the automaton runs under (empty = everywhere).
    pub scopes: Vec<String>,
    /// Declared states; the first is the start state.
    pub states: Vec<String>,
    /// States a function may exit in without a finding.
    pub accepting: Vec<String>,
    /// Transition arcs.
    pub transitions: Vec<TsArc>,
    /// The finding's excerpt for a non-accepting exit (`Return` and
    /// fall-through only — `?`, `break`, panics are exempt); `{fn}`,
    /// `{state}` placeholders.
    pub exit_message: String,
}

/// The full declarative ruleset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ruleset {
    /// Every row, in file order.
    pub rows: Vec<TypestateRule>,
}

impl Ruleset {
    /// The row that defines `rule`, if it is a declarative one.
    pub fn row(&self, rule: &str) -> Option<&TypestateRule> {
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
    Err(format!(
        "unsupported value `{raw}` (expected \"str\" or [\"a\", ...])"
    ))
}

/// Hand-rolled parser for the TOML subset the ruleset uses:
/// `[[typestate]]` table arrays, `key = "string"`, and single-line
/// `key = ["a", "b"]` arrays. Comments (`#`) and blank lines ignored.
/// The text is `'static` because rule ids and docs are slices of it.
pub fn parse_toml(text: &'static str) -> Result<Ruleset, String> {
    let mut rs = Ruleset::default();
    // Where the row being filled (`rs.rows.last()`) starts.
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
            if kind != "typestate" {
                return Err(at(format!("unknown section `[[{kind}]]`")));
            }
            row_start = line_end - line.len();
            rs.rows.push(TypestateRule {
                line: lno + 1,
                text: &text[row_start..line_end],
                ..TypestateRule::default()
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
        match key {
            "name" if !row.name.is_empty() => {
                return Err(at("a rule section sets its `name` once".into()));
            }
            "name" => row.name = want_str(&val)?,
            "doc" => row.doc = want_str(&val)?,
            "scopes" => row.scopes = want_list(&val)?,
            "states" => row.states = want_list(&val)?,
            "accepting" => row.accepting = want_list(&val)?,
            "transitions" => {
                row.transitions = want_list(&val)?
                    .iter()
                    .map(|s| TsArc::parse(s))
                    .collect::<Result<_, _>>()
                    .map_err(&at)?
            }
            "exit-message" => row.exit_message = want_str(&val)?.to_string(),
            _ => return Err(at(format!("unknown key `{key}` in [[typestate]]"))),
        }
    }
    // One name, one place: unique across the rows and the coded rules.
    // Then the structural validation of each automaton, after all keys
    // are in (key order within a row is free). Errors point at the
    // offending `[[typestate]]` header so a typo'd state is a one-look
    // fix.
    let mut seen: Vec<&str> = RULE_NAMES.to_vec();
    for r in &rs.rows {
        let at = |e: String| format!("line {}: [[typestate]] `{}`: {e}", r.line, r.name);
        if r.name.is_empty() {
            return Err(at("a rule section needs its `name`".into()));
        }
        if seen.contains(&r.name) {
            return Err(at(format!(
                "rule name `{}` is already taken (by an earlier row or rules::RULE_NAMES)",
                r.name
            )));
        }
        seen.push(r.name);
        if r.states.is_empty() {
            return Err(at("declares no states".into()));
        }
        if r.exit_message.is_empty() {
            return Err(at("needs an `exit-message`".into()));
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

/// Fills a message template: `{fn}`, `{state}`, ...
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

    /// A minimal valid row, for tests that break one thing about it.
    const ROW: &str = "[[typestate]]\nname = \"g\"\nstates = [\"idle\"]\nexit-message = \"m\"\n";

    /// What `load` used to check on every run is checked once, here:
    /// the compiled-in file parses and every automaton validates.
    #[test]
    fn embedded_ruleset_parses_and_validates() {
        let rs = parse_toml(SOURCE).expect("checked-in lint-rules.toml");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rule_names().count(), RULE_NAMES.len() + 2);
        for row in &rs.rows {
            assert!(!row.doc.is_empty(), "row at line {} has no doc", row.line);
            assert!(row.text.starts_with("[[typestate]]"), "{:?}", row.text);
            assert!(SOURCE.contains(row.text));
        }
        let wal = rs
            .row("wal-ack-before-durable")
            .expect("a row name resolves to its row");
        assert_eq!(rs.hint(wal.name), wal.doc);
        assert_eq!(rs.hint("raw-clock"), rule_hint("raw-clock"));
        assert_eq!(embedded(), &rs);
    }

    #[test]
    fn row_text_is_the_section_as_written() {
        let toml = "# header\n\n[[typestate]]\nname = \"g\"\ndoc = \"d\"\nstates = [\"s\"]\n\
                    exit-message = \"m\"\n\n# trailing\n[[typestate]]\nstates = [\"s\"]\n\
                    exit-message = \"m\"\n  name = \"h\"  \n";
        let rs = parse_toml(toml).unwrap();
        assert_eq!(
            rs.rows[0].text,
            "[[typestate]]\nname = \"g\"\ndoc = \"d\"\nstates = [\"s\"]\nexit-message = \"m\""
        );
        assert_eq!((rs.rows[0].line, rs.rows[0].doc), (3, "d"));
        assert_eq!(
            rs.rows[1].text,
            "[[typestate]]\nstates = [\"s\"]\nexit-message = \"m\"\n  name = \"h\""
        );
        assert_eq!(rs.rows[1].name, "h");
    }

    #[test]
    fn a_rule_name_lives_in_one_place() {
        let err = parse_toml(ROW.replace("\"g\"", "\"raw-clock\"").leak()).unwrap_err();
        assert!(err.contains("`raw-clock` is already taken"), "{err}");
        let twice: &'static str = format!("{ROW}{ROW}").leak();
        let err = parse_toml(twice).unwrap_err();
        assert!(
            err.contains("line 5") && err.contains("`g` is already taken"),
            "{err}"
        );
        let err = parse_toml("[[typestate]]\ndoc = \"nameless\"\n").unwrap_err();
        assert!(err.contains("line 1") && err.contains("`name`"), "{err}");
        let err = parse_toml("[[typestate]]\nname = \"g\"\nname = \"h\"\n").unwrap_err();
        assert!(
            err.contains("line 3") && err.contains("`name` once"),
            "{err}"
        );
    }

    #[test]
    fn malformed_value_is_rejected() {
        assert!(parse_toml("[[typestate]]\nname = 42\n").is_err());
        assert!(parse_toml("name = \"x\"\n").is_err());
    }

    /// One row kind and seven keys: any other section or key is a parse
    /// error that names it.
    #[test]
    fn only_typestate_rows_and_their_seven_keys_parse() {
        assert!(parse_toml(ROW).is_ok());
        for section in ["taint", "nope"] {
            let err = parse_toml(format!("[[{section}]]\nname = \"g\"\n").leak()).unwrap_err();
            assert!(
                err.contains(&format!("unknown section `[[{section}]]`")),
                "{err}"
            );
        }
        for key in ["track = \"ambient\"", "creates = []", "errors = []"] {
            let err = parse_toml(format!("{ROW}{key}\n").leak()).unwrap_err();
            let name = key.split(' ').next().unwrap();
            assert!(err.contains(&format!("unknown key `{name}`")), "{err}");
        }
    }

    #[test]
    fn an_exit_message_is_required() {
        let err = parse_toml(ROW.replace("exit-message = \"m\"\n", "").leak()).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("exit-message"),
            "{err}"
        );
    }

    #[test]
    fn tspat_parses_every_spelling() {
        assert_eq!(
            TsPat::parse("wal.append"),
            Ok(TsPat::Recv {
                recv: "wal".into(),
                name: "append".into()
            })
        );
        assert_eq!(
            TsPat::parse("set_timer"),
            Ok(TsPat::Name("set_timer".into()))
        );
        let err = TsPat::parse("scratch::checkout").unwrap_err();
        assert!(err.contains("`name` or `recv.name`"), "{err}");
    }

    #[test]
    fn undeclared_state_is_rejected_with_the_header_line() {
        let toml = "\n[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    states = [\"idle\", \"appended\"]\n\
                    accepting = [\"idle\"]\nexit-message = \"m\"\n\
                    transitions = [\"idle => durible : wal.append\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("undeclared state `durible`"), "{err}");

        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    states = [\"idle\"]\nexit-message = \"m\"\n\
                    accepting = [\"done\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("accepting state `done`"), "{err}");
    }

    #[test]
    fn malformed_transition_row_is_rejected() {
        let toml = "[[typestate]]\nname = \"wal-ack-before-durable\"\n\
                    states = [\"idle\"]\nexit-message = \"m\"\n\
                    transitions = [\"idle -> idle : f\"]\n";
        let err = parse_toml(toml).unwrap_err();
        assert!(err.contains("from => to"), "{err}");
    }

    #[test]
    fn fill_replaces_placeholders() {
        assert_eq!(
            fill(
                "`{fn}` exits in `{state}`",
                &[("fn", "D::f"), ("state", "open")]
            ),
            "`D::f` exits in `open`"
        );
    }
}
