//! The named invariant rules and the per-file analysis.
//!
//! Each rule is a lexical check over *code* (strings and comments are
//! blanked by [`crate::lexer::strip`] first) plus a path scope: the
//! crates whose discipline the rule enforces, minus the crate that
//! *implements* the abstraction the rule protects. Test code — files
//! under `tests/`, `benches/`, `examples/`, and `#[cfg(test)]` modules —
//! is always exempt: the disciplines govern serve paths, not harnesses.
//!
//! A finding is suppressible only by an adjacent comment of the form
//! `wsd-lint: allow(<rule>): <reason>` — the reason is mandatory, and a
//! malformed suppression is itself reported under the `bad-suppression`
//! rule so silent opt-outs cannot accrete; one that silences nothing is
//! reported under `unused-suppression`.

use crate::lexer::{is_ident_byte, strip, Comment};
use crate::parser::{parse, ParsedFile};

/// Every rule, in report order: six lexical (per-line) checks, the one
/// that looks across files (`crate::callers`) and the two that guard
/// the suppression mechanism itself.
pub const RULE_NAMES: [&str; 9] = [
    "raw-thread-spawn",
    "raw-clock",
    "std-sync-primitive",
    "unwrap-in-dispatcher",
    "unbounded-queue-at-serve-site",
    "raw-file-io",
    "pub-without-caller",
    "bad-suppression",
    "unused-suppression",
];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed — or, for a suppression
    /// finding, what is wrong with the directive.
    pub excerpt: String,
}

/// What each rule protects, shown next to findings and by `--explain`.
pub fn rule_hint(rule: &str) -> &'static str {
    match rule {
        "raw-thread-spawn" => {
            "threads must go through wsd_concurrent (ThreadPool / Reactor) so \
             gauges and teardown stay truthful"
        }
        "raw-clock" => {
            "timing must flow through wsd_telemetry::Clock (WallClock / \
             VirtualClock) so sim figures stay byte-identical"
        }
        "std-sync-primitive" => "lock with parking_lot, not std::sync",
        "unwrap-in-dispatcher" => {
            "serve paths handle pop/recv/IO failure explicitly (shutdown is \
             not a panic)"
        }
        "unbounded-queue-at-serve-site" => {
            "serve-site queues are bounded: the paper's WS-MsgBox hit its \
             ~50-client OOM wall on exactly this"
        }
        "raw-file-io" => {
            "durable state goes through wsd_store (WAL, fsync discipline, \
             crash recovery) — ad-hoc std::fs writes are invisible to the \
             durability contract"
        }
        "pub-without-caller" => {
            "a pub item no other non-test code names is surface nothing pays \
             for: delete it, narrow it to pub(crate) or #[cfg(test)], or name \
             its reader in the allow"
        }
        "bad-suppression" => "suppressions need a known rule and a written reason",
        "unused-suppression" => {
            "an allow whose rule no longer fires on that line is dead \
             armor — remove it so real regressions cannot hide behind it"
        }
        _ => "",
    }
}

fn path_in(file: &str, prefix: &str) -> bool {
    file.starts_with(prefix)
}

/// Whether the file as a whole is test collateral (under `tests/`,
/// `benches/`, `examples/`, or `fixtures/`).
pub fn is_test_path(file: &str) -> bool {
    file.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures")
}

/// Finds all identifiers invoked as methods (`.name(`) on a code line.
fn method_calls(code_line: &str) -> Vec<&str> {
    let bytes = code_line.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'.' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && is_ident_byte(bytes[j]) {
                j += 1;
            }
            // Allow turbofish between name and paren: `.recv::<T>(`.
            let mut k = j;
            if bytes.get(k) == Some(&b':') && bytes.get(k + 1) == Some(&b':') {
                while k < bytes.len() && bytes[k] != b'(' && bytes[k] != b'.' {
                    k += 1;
                }
            }
            if j > start && bytes.get(k) == Some(&b'(') {
                out.push(&code_line[start..j]);
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Method names whose `Result`/`Option` is an IO / queue / channel
/// outcome: unwrapping one on a serve path turns shutdown into a panic.
const IO_MARKERS: &str = "pop pop_front pop_timeout pop_timeout_batch recv try_recv \
    recv_timeout read read_exact read_to_end write write_all flush connect call call_pipelined \
    send as_mut";

fn rule_applies(rule: &str, file: &str) -> bool {
    match rule {
        // wsd-concurrent *is* the thread abstraction.
        "raw-thread-spawn" => !path_in(file, "crates/concurrent/"),
        // wsd-telemetry *is* the clock crate.
        "raw-clock" => !path_in(file, "crates/telemetry/"),
        "std-sync-primitive" => true,
        "unwrap-in-dispatcher" => {
            path_in(file, "crates/core/src/") || path_in(file, "crates/concurrent/src/")
        }
        "unbounded-queue-at-serve-site" => {
            path_in(file, "crates/core/")
                || path_in(file, "crates/concurrent/")
                || path_in(file, "crates/http/")
        }
        // wsd-store *is* the file-IO abstraction.
        "raw-file-io" => !path_in(file, "crates/store/"),
        // The analyzer's own suppressions are audited by `--self`,
        // where every rule is in scope; in a workspace run half its
        // rules are path-scoped away, which would mislabel them stale.
        "unused-suppression" => !path_in(file, "crates/lint/"),
        _ => true,
    }
}

fn line_violates(rule: &str, code_line: &str) -> bool {
    match rule {
        "raw-thread-spawn" => {
            code_line.contains("thread::spawn") || code_line.contains("thread::Builder")
        }
        "raw-clock" => code_line.contains("Instant::now") || code_line.contains("SystemTime::now"),
        "std-sync-primitive" => {
            code_line.contains("std::sync::")
                && ["Mutex", "RwLock", "Condvar", "Barrier"]
                    .iter()
                    .any(|p| code_line.contains(p))
        }
        "unwrap-in-dispatcher" => {
            let calls = method_calls(code_line);
            calls.iter().any(|c| *c == "unwrap" || *c == "expect")
                && calls.iter().any(|c| IO_MARKERS.split_whitespace().any(|m| m == *c))
        }
        "unbounded-queue-at-serve-site" => {
            code_line.contains("::unbounded(")
                || code_line.contains(".unbounded(")
                || code_line.contains("mpsc::channel(")
        }
        "raw-file-io" => {
            code_line.contains("std::fs::")
                || code_line.contains("fs::read")
                || code_line.contains("fs::write")
                || code_line.contains("fs::File")
                || code_line.contains("fs::create_dir")
                || code_line.contains("fs::remove_")
                || code_line.contains("File::open")
                || code_line.contains("File::create")
                || code_line.contains("OpenOptions")
        }
        _ => false,
    }
}

/// A well-formed `wsd-lint: allow(rule): reason` directive.
#[derive(Debug)]
struct Suppression {
    line: usize,
    is_line_comment: bool,
    rule: String,
    reason: String,
}

impl Suppression {
    /// The one suppression matcher: a directive silences its rule on
    /// its own line, and a directive-only comment line also the line
    /// directly below it.
    fn covers(&self, f: &Finding) -> bool {
        self.rule == f.rule
            && (self.line == f.line || (self.is_line_comment && self.line + 1 == f.line))
    }
}

/// A file's directives: the well-formed ones, and a `bad-suppression`
/// finding for each malformed or reasonless one.
fn parse_suppressions(
    file: &str,
    comments: &[Comment],
) -> (Vec<Suppression>, Vec<Finding>) {
    let mut sups = Vec::new();
    let mut bad = Vec::new();
    let mut flag = |line: usize, excerpt: String| {
        bad.push(Finding {
            rule: "bad-suppression",
            file: file.to_string(),
            line,
            excerpt,
        })
    };
    for c in comments {
        // A directive must *start* the comment (prose that merely
        // mentions the syntax, e.g. docs, is not a directive).
        let Some(rest) = c.text.strip_prefix("wsd-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let parsed = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(rule, tail)| (rule.trim().to_string(), tail.trim()));
        match parsed {
            Some((rule, tail)) if RULE_NAMES.contains(&rule.as_str()) => {
                let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
                if reason.is_empty() {
                    flag(
                        c.line,
                        format!(
                            "suppression of `{rule}` has no reason — use \
                             `wsd-lint: allow({rule}): <why this site is exempt>`"
                        ),
                    );
                } else {
                    sups.push(Suppression {
                        line: c.line,
                        is_line_comment: c.is_line,
                        rule,
                        reason: reason.to_string(),
                    });
                }
            }
            _ => flag(
                c.line,
                format!(
                    "malformed wsd-lint directive `{}` — expected \
                     `wsd-lint: allow(<rule>): <reason>` with a known rule",
                    c.text
                ),
            ),
        }
    }
    (sups, bad)
}

/// Lints one file's source on its own (`file`, workspace-relative,
/// selects the rules), returning its unsuppressed findings by line.
/// `pub-without-caller` needs the other files: only
/// [`crate::analyze_workspace`] runs it.
// wsd-lint: allow(pub-without-caller): the fixture twins (tests/analyzer.rs) and the lexer property tests lint one file through it
pub fn lint_source(file: &str, source: &str) -> Vec<Finding> {
    if is_test_path(file) {
        return Vec::new();
    }
    lint_file(file, source, &parse(source), &[], false).0
}

/// One file's findings with its suppressions applied, sorted by (line,
/// rule), and how many well-formed suppressions it carries. `uncalled`
/// holds the lines of its `pub` items no other file names. `force_all`
/// drops the per-rule path scoping (`--self`, whose paths are relative
/// to `crates/lint`). Test lines come from [`crate::parser`]'s scopes.
/// A suppression silences its rule on its own line, and a
/// directive-only comment line also on the line below.
pub(crate) fn lint_file(
    file: &str,
    source: &str,
    parsed: &ParsedFile,
    uncalled: &[usize],
    force_all: bool,
) -> (Vec<Finding>, usize) {
    let (sups, mut findings) = parse_suppressions(file, &parsed.stripped.comments);
    let mut used = vec![false; sups.len()];
    let src_lines: Vec<&str> = source.lines().collect();
    let finding = |rule, line: usize| Finding {
        rule,
        file: file.to_string(),
        line,
        excerpt: src_lines.get(line - 1).unwrap_or(&"").trim().to_string(),
    };
    let mut found: Vec<Finding> = uncalled
        .iter()
        .map(|&line| finding("pub-without-caller", line))
        .collect();
    for (idx, code_line) in parsed.stripped.code.lines().enumerate() {
        if parsed.is_test_line(idx + 1) {
            continue;
        }
        // The six lexical rules.
        for &rule in &RULE_NAMES[..6] {
            if (force_all || rule_applies(rule, file)) && line_violates(rule, code_line) {
                found.push(finding(rule, idx + 1));
            }
        }
    }
    for f in found {
        match sups.iter().position(|s| s.covers(&f)) {
            Some(k) => used[k] = true,
            None => findings.push(f),
        }
    }
    // Every well-formed allow must still be earning its keep.
    if force_all || rule_applies("unused-suppression", file) {
        for (s, used) in sups.iter().zip(used) {
            if used || parsed.is_test_line(s.line) {
                continue;
            }
            findings.push(Finding {
                rule: "unused-suppression",
                file: file.to_string(),
                line: s.line,
                excerpt: format!(
                    "allow({}) here silences nothing — delete it or re-justify it",
                    s.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    (findings, sups.len())
}

/// Every well-formed suppression in `source` that cites a known rule,
/// as `(line, rule, reason)` — used by tests asserting reasons are
/// present.
// wsd-lint: allow(pub-without-caller): tests/analyzer.rs checks every workspace allow's reason through it
pub fn suppressions_in(source: &str) -> Vec<(usize, String, String)> {
    let stripped = strip(source);
    let (sups, _) = parse_suppressions("", &stripped.comments);
    sups.into_iter()
        .map(|s| (s.line, s.rule, s.reason))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_in_core_is_flagged() {
        let f = lint_source(
            "crates/core/src/x.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-thread-spawn");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn spawn_in_concurrent_is_the_abstraction() {
        let f = lint_source(
            "crates/concurrent/src/pool.rs",
            "fn f() { std::thread::spawn(|| {}); }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn spawn_in_cfg_test_mod_is_exempt() {
        let src = "fn serve() {}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn spawn_after_cfg_test_mod_is_flagged() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn serve() { std::thread::spawn(|| {}); }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "// wsd-lint: allow(raw-thread-spawn): dedicated janitor thread\nstd::thread::spawn(|| {});\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn trailing_suppression_silences_same_line() {
        let src =
            "std::thread::spawn(|| {}); // wsd-lint: allow(raw-thread-spawn): startup probe\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn suppression_without_reason_is_bad() {
        let src = "// wsd-lint: allow(raw-thread-spawn)\nstd::thread::spawn(|| {});\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == "bad-suppression"));
        assert!(f.iter().any(|x| x.rule == "raw-thread-spawn"));
    }

    #[test]
    fn unknown_rule_suppression_is_bad() {
        let src = "// wsd-lint: allow(no-such-rule): because\nfn f() {}\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bad-suppression");
    }

    #[test]
    fn clock_in_strings_and_comments_is_invisible() {
        let src = "let s = \"Instant::now\"; // Instant::now\n/* SystemTime::now */ let r = r#\"Instant::now\"#;\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_on_pop_flagged_only_in_dispatcher_paths() {
        let src = "fn f(q: Q) { q.pop().unwrap(); }\n";
        assert_eq!(lint_source("crates/core/src/x.rs", src).len(), 1);
        assert_eq!(lint_source("crates/concurrent/src/x.rs", src).len(), 1);
        assert!(lint_source("crates/http/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_without_io_marker_is_fine() {
        let src = "fn f() { ThreadPool::new(cfg).expect(\"pool\"); }\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn unbounded_queue_flagged() {
        let src = "fn f() { let q: Queue<u8> = Queue::unbounded(); }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unbounded-queue-at-serve-site");
    }

    #[test]
    fn raw_file_io_flagged_outside_store() {
        let src = "fn f() { let _ = std::fs::write(\"state.bin\", b\"x\"); }\n";
        let f = lint_source("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-file-io");
    }

    #[test]
    fn raw_file_io_in_store_is_the_abstraction() {
        let src = "fn f(p: &Path) { let _ = File::open(p); OpenOptions::new(); }\n";
        assert!(lint_source("crates/store/src/storage.rs", src).is_empty());
    }

    #[test]
    fn raw_file_io_suppression_with_reason_silences() {
        let src = "// wsd-lint: allow(raw-file-io): report artifact, not durable state\nstd::fs::write(\"report.json\", text);\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn std_mutex_flagged_anywhere() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let f = lint_source("crates/telemetry/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "std-sync-primitive");
    }

    #[test]
    fn tests_dirs_are_exempt() {
        let src = "fn t() { std::thread::spawn(|| {}); q.pop().unwrap(); }\n";
        assert!(lint_source("crates/core/tests/model.rs", src).is_empty());
        assert!(lint_source("crates/core/benches/b.rs", src).is_empty());
        assert!(lint_source("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn method_call_parsing_handles_turbofish_and_ready() {
        let calls = method_calls("st.ready.pop_front().expect(\"x\")");
        assert!(calls.contains(&"pop_front"));
        assert!(calls.contains(&"expect"));
        // `.ready` is a field access, not a call.
        assert!(!calls.contains(&"ready"));
        let calls = method_calls("rx.recv::<u8>().unwrap()");
        assert!(calls.contains(&"recv"));
        assert!(calls.contains(&"unwrap"));
    }
}
