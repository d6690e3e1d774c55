//! End-to-end coverage for the typestate automata: every seeded
//! violation must be caught with the expected state witness, and the
//! known-good twin — the same shapes done right — must produce zero
//! findings.

use std::path::PathBuf;

use wsd_lint::analyze_workspace;
use wsd_lint::rules::Finding;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn by_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn seeded_typestate_violations_are_all_caught_exactly() {
    let wa = analyze_workspace(&fixture_root("typestate_seeded"), false).expect("walk fixture");

    // WAL: one fall-through leak, one early-return leak (the commit on
    // the racy function's long path must not mask the short one), and
    // one batch path whose append loop can return before its single
    // commit.
    let wal = by_rule(&wa.findings, "wal-ack-before-durable");
    assert_eq!(wal.len(), 3, "{:#?}", wa.findings);
    for f in &wal {
        assert_eq!(f.file, "crates/store/src/walbox.rs");
        assert!(f.excerpt.contains("appended but not committed"), "{f:#?}");
        let w = f.witness.as_deref().unwrap_or("");
        assert!(w.contains("enters state `appended`") && w.contains("unfinished"), "{f:#?}");
    }
    assert!(wal.iter().any(|f| f.excerpt.contains("deposit_fast`")), "{wal:#?}");
    assert!(wal.iter().any(|f| f.excerpt.contains("deposit_racy`")), "{wal:#?}");
    assert!(wal.iter().any(|f| f.excerpt.contains("deposit_batch`")), "{wal:#?}");

    // Reactor accounting: the !keep exit drops the conn the job took
    // out of its cell without deregistering it.
    let reactor = by_rule(&wa.findings, "reactor-conn-accounting");
    assert_eq!(reactor.len(), 1, "{:#?}", wa.findings);
    assert_eq!(reactor[0].file, "crates/concurrent/src/reactor.rs");
    assert!(reactor[0].excerpt.contains("run`"), "{reactor:#?}");

    // Nothing else fires on the seeded tree.
    assert_eq!(wa.findings.len(), 4, "{:#?}", wa.findings);
}

#[test]
fn known_good_typestate_twin_has_zero_findings() {
    let wa =
        analyze_workspace(&fixture_root("typestate_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "{:#?}", wa.findings);
}
