//! A declarative rule exists in exactly one place: its row in
//! `lint-rules.toml`. These tests pin what that buys — a rule defined
//! only by a TOML row (here: in a string literal, no Rust anywhere) is a
//! full citizen for findings and suppressions — and that `--explain`
//! shows the row as the file has it.

use std::collections::BTreeMap;
use std::process::Command;

use wsd_lint::summaries::FileEntry;
use wsd_lint::{analyze_files, parser, ruleset};

const CHECKED_IN: &str = include_str!("../../../lint-rules.toml");

/// The checked-in ruleset plus a made-up automaton.
const EXTENDED: &str = concat!(
    include_str!("../../../lint-rules.toml"),
    r#"
[[typestate]]
name = "txn-commit-or-abort"
doc = "A begun transaction is committed or aborted on every path out of the function."
scopes = ["crates/demo/"]
states = ["idle", "open"]
accepting = ["idle"]
transitions = ["idle => open : txn.begin", "open => idle : txn.commit", "open => idle : txn.abort"]
exit-message = "`{fn}` can exit with its transaction still open (state `{state}`)"
"#
);

const TWO_FNS: &str = r#"
struct Ledger { txn: Txn }
impl Ledger {
    fn leaky(&self, ok: bool) {
        self.txn.begin();
        if ok {
            self.txn.commit();
        }
    }
    fn excused(&self) {
        // wsd-lint: allow(txn-commit-or-abort): the caller commits the batch
        self.txn.begin();
    }
}
"#;

fn two_fns() -> BTreeMap<String, FileEntry> {
    let entry = FileEntry {
        source: TWO_FNS.to_string(),
        parsed: parser::parse(TWO_FNS),
    };
    [("crates/demo/src/ledger.rs".to_string(), entry)]
        .into_iter()
        .collect()
}

#[test]
fn a_rule_is_one_row() {
    let rs = ruleset::parse_toml(EXTENDED).expect("extended ruleset parses");
    let wa = analyze_files(&two_fns(), &rs, false);

    // The finding carries the row's name; the reasoned allow silences
    // its site and is neither unknown nor unused.
    assert_eq!(wa.findings.len(), 1, "{:#?}", wa.findings);
    let f = &wa.findings[0];
    assert_eq!(f.rule, "txn-commit-or-abort");
    assert_eq!(f.line, 5);
    assert!(f.excerpt.contains("Ledger::leaky"), "{f:#?}");
    assert_eq!(wa.suppressions, 1);

    // The row's doc is the rule's hint.
    assert_eq!(
        rs.hint("txn-commit-or-abort"),
        "A begun transaction is committed or aborted on every path out of the function."
    );

    // Without the row the rule does not exist: nothing fires, and the
    // allow cites an unknown name.
    let wa = analyze_files(&two_fns(), ruleset::embedded(), false);
    let rules: Vec<&str> = wa.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["bad-suppression"], "{:#?}", wa.findings);
}

#[test]
fn explain_prints_the_row_as_written() {
    let start = CHECKED_IN
        .find("[[typestate]]\nname = \"wal-ack-before-durable\"")
        .expect("wal row in lint-rules.toml");
    let row = CHECKED_IN[start..].split("\n\n").next().unwrap().trim_end();
    assert!(
        row.lines().count() > 5 && row.contains("exit-message"),
        "{row}"
    );

    let out = Command::new(env!("CARGO_BIN_EXE_wsd-lint"))
        .args(["--explain", "wal-ack-before-durable"])
        .output()
        .expect("run wsd-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(row), "row:\n{row}\nstdout:\n{stdout}");
    assert!(stdout.contains("typestate automaton"), "{stdout}");
}
