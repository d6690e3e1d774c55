//! Mutation rows against the real source: each row seeds one rule's
//! violation into the shipped code — an in-memory edit of the workspace
//! files, nothing on disk changes — and asserts that exactly that rule
//! fires, at the seeded site. The unedited workspace carries no finding,
//! so whatever fires is the edit's doing. (An ambient automaton may also
//! report the callers of the edited function: its effect summary carries
//! the unfinished protocol into them.)
//!
//! Every `find` must occur exactly once in its file: when the code it
//! names moves or changes, the row fails loudly instead of going
//! quietly stale. Every declarative rule id and the two coded graph
//! rules have a row that fires (DESIGN §9's audit table): a rule no
//! edit of the real source can make fire is deleted, not excused. What
//! the product's own tests make of the same edits is
//! `scripts/mutants.sh`'s business (DESIGN §9.4).

use std::collections::BTreeMap;
use std::path::Path;

use wsd_lint::summaries::FileEntry;
use wsd_lint::{analyze_files, parser, ruleset, walk};

struct Row {
    rule: &'static str,
    /// `(file, find, replace)`, applied in order.
    edits: &'static [(&'static str, &'static str, &'static str)],
    /// Where the finding lands: its file and a fragment of its line.
    at: (&'static str, &'static str),
}

const STORE: &str = "crates/store/src/msgbox.rs";
const REACTOR: &str = "crates/concurrent/src/reactor.rs";
const POOL: &str = "crates/concurrent/src/pool.rs";

const ROWS: &[Row] = &[
    Row {
        rule: "wal-ack-before-durable",
        // `destroy` answers before its `Destroy` record is fsynced.
        edits: &[(
            STORE,
            "        let lsn = wal.append(&Op::Destroy { box_id: id.to_string() })?.lsn;\n        drop(inner);\n        wal.commit(lsn)?;\n",
            "        let lsn = wal.append(&Op::Destroy { box_id: id.to_string() })?.lsn;\n        drop(inner);\n",
        )],
        at: (STORE, "wal.append(&Op::Destroy"),
    },
    Row {
        rule: "reactor-conn-accounting",
        // A deregistration that forgets the gauge.
        edits: &[(REACTOR, "        self.tele.open_conns.dec();\n        drop(conns);\n", "        drop(conns);\n")],
        at: (REACTOR, "conns.remove(&cell.id)"),
    },
    Row {
        rule: "blocking-under-lock",
        // `ThreadPool::shutdown` joins its workers under the handle lock.
        edits: &[(
            POOL,
            "        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());\n        for h in handles {\n",
            "        let mut handles = self.handles.lock();\n        for h in handles.drain(..) {\n",
        )],
        at: (POOL, "h.join()"),
    },
    Row {
        rule: "blocking-under-lock",
        // A full queue parks the submitter while it holds the handle
        // lock: the lock -> queue wait a worker's teardown needs to get
        // past.
        edits: &[(
            POOL,
            "        self.shared.queue.push(job).map_err(|_| TaskError::Shutdown)?;\n",
            "        let handles = self.handles.lock();\n        self.shared.queue.push(job).map_err(|_| TaskError::Shutdown)?;\n        drop(handles);\n",
        )],
        at: (POOL, "self.shared.queue.push(job)"),
    },
    Row {
        rule: "static-lock-order",
        // A cycle takes both orders, and the workspace has neither, so
        // this row is two edits: `deregister` keeps the map locked
        // while it closes the cell (state -> conn), and `register`
        // publishes the cell while holding it (conn -> state).
        edits: &[
            (REACTOR, "        self.tele.open_conns.dec();\n        drop(conns);\n", "        self.tele.open_conns.dec();\n"),
            (
                REACTOR,
                "        cell.slot.lock().conn = Some(conn);\n        shared.tele.open_conns.inc();\n        shared.conns.lock().insert(id, Arc::clone(&cell));\n",
                "        let mut slot = cell.slot.lock();\n        slot.conn = Some(conn);\n        shared.tele.open_conns.inc();\n        shared.conns.lock().insert(id, Arc::clone(&cell));\n        drop(slot);\n",
            ),
        ],
        at: (REACTOR, "shared.conns.lock().insert(id"),
    },
];

fn workspace() -> BTreeMap<String, FileEntry> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap();
    walk::rust_files(root)
        .expect("walk workspace")
        .into_iter()
        .filter_map(|(rel, abs)| {
            let source = std::fs::read_to_string(abs).ok()?;
            let parsed = parser::parse(&source);
            Some((rel, FileEntry { source, parsed }))
        })
        .collect()
}

/// Applies `row`'s edits to `files`, pushing each replaced entry onto
/// `originals` (restore them in reverse), or says why an edit does not
/// apply.
fn apply(
    row: &Row,
    files: &mut BTreeMap<String, FileEntry>,
    originals: &mut Vec<(String, FileEntry)>,
) -> Result<(), String> {
    for (file, find, replace) in row.edits {
        let source = &files.get(*file).ok_or(format!("no file {file}"))?.source;
        let n = source.matches(find).count();
        if n != 1 {
            return Err(format!("`{find}` occurs {n} times in {file}, not once"));
        }
        let source = source.replacen(find, replace, 1);
        let entry = FileEntry {
            parsed: parser::parse(&source),
            source,
        };
        let original = files.insert(file.to_string(), entry).unwrap();
        originals.push((file.to_string(), original));
    }
    Ok(())
}

#[test]
fn every_row_fires_its_rule_alone_at_its_site() {
    let mut files = workspace();
    let rs = ruleset::embedded();
    let clean = analyze_files(&files, rs, false).findings;
    assert!(
        clean.is_empty(),
        "the unedited workspace must be clean: {clean:#?}"
    );

    let mut failures = Vec::new();
    for row in ROWS {
        let mut originals = Vec::new();
        if let Err(e) = apply(row, &mut files, &mut originals) {
            failures.push(format!("{}: {e}", row.rule));
        } else {
            let findings = analyze_files(&files, rs, false).findings;
            let (file, fragment) = row.at;
            let at_site = findings.iter().any(|f| {
                f.file == file
                    && files[file]
                        .source
                        .lines()
                        .nth(f.line - 1)
                        .is_some_and(|l| l.contains(fragment))
            });
            if !at_site || findings.iter().any(|f| f.rule != row.rule) {
                failures.push(format!(
                    "{}: expected it alone to fire, at `{fragment}` in {file}; got {findings:#?}",
                    row.rule
                ));
            }
        }
        for (f, e) in originals.into_iter().rev() {
            files.insert(f, e);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn every_graph_and_declarative_rule_has_a_firing_row() {
    let mut covered: Vec<&str> = ROWS.iter().map(|r| r.rule).collect();
    covered.sort_unstable();
    covered.dedup();
    let mut expected: Vec<&str> = ruleset::embedded()
        .rows
        .iter()
        .map(|r| r.name)
        .chain(["blocking-under-lock", "static-lock-order"])
        .collect();
    expected.sort_unstable();
    assert_eq!(covered, expected);
}
