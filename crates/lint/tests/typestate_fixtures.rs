//! End-to-end coverage for the v4 engines (typestate automata and the
//! blocking wait-for graph): every seeded violation must be caught
//! with the expected state/cycle witness, and the known-good twins —
//! the same shapes done right — must produce zero findings.

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

    // Scratch guard: binding-tracked machine, error-row violation.
    let scratch = by_rule(&wa.findings, "scratch-use-after-take");
    assert_eq!(scratch.len(), 1, "{:#?}", wa.findings);
    assert_eq!(scratch[0].file, "crates/soap/src/scratch_enc.rs");
    assert!(scratch[0].excerpt.contains("`guard`"), "{scratch:#?}");
    assert!(scratch[0].excerpt.contains("take_out"), "{scratch:#?}");

    // Reactor accounting: the !keep exit drops the conn the job took
    // out of its cell without deregistering it.
    let reactor = by_rule(&wa.findings, "reactor-conn-accounting");
    assert_eq!(reactor.len(), 1, "{:#?}", wa.findings);
    assert_eq!(reactor[0].file, "crates/concurrent/src/reactor.rs");
    assert!(reactor[0].excerpt.contains("run`"), "{reactor:#?}");

    // Fleet handoff: claimed but never completed on the failure path.
    let fleet = by_rule(&wa.findings, "fleet-handoff-completion");
    assert_eq!(fleet.len(), 1, "{:#?}", wa.findings);
    assert_eq!(fleet[0].file, "crates/core/src/handoff.rs");
    assert!(fleet[0].excerpt.contains("adopt`"), "{fleet:#?}");

    // Nothing else fires on the seeded tree.
    assert_eq!(wa.findings.len(), 6, "{:#?}", wa.findings);
}

#[test]
fn known_good_typestate_twin_has_zero_findings() {
    let wa =
        analyze_workspace(&fixture_root("typestate_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "{:#?}", wa.findings);
}

#[test]
fn seeded_waitgraph_violations_are_all_caught_exactly() {
    let wa = analyze_workspace(&fixture_root("waitgraph_seeded"), false).expect("walk fixture");

    // The two-node cycle: hub.state -> jobs (push under lock) and
    // jobs -> hub.state (pop then acquire).
    let cycle = by_rule(&wa.findings, "blocking-cycle");
    assert_eq!(cycle.len(), 1, "{:#?}", wa.findings);
    assert_eq!(cycle[0].file, "crates/core/src/rt/hub.rs");
    assert!(cycle[0].excerpt.contains("potential blocking cycle"), "{cycle:#?}");
    assert!(cycle[0].excerpt.contains("hub.state"), "{cycle:#?}");
    assert!(cycle[0].excerpt.contains("jobs"), "{cycle:#?}");
    // The witness chain names both halves of the wait.
    let w = cycle[0].witness.as_deref().unwrap_or("");
    assert!(w.contains("blocks on"), "{w}");
    assert!(w.contains("acquires"), "{w}");
    assert_eq!(w.split("; ").count(), 2, "{cycle:#?}");

    // `inbox` is popped but never closed; `jobs` has a close and must
    // not be reported.
    let live = by_rule(&wa.findings, "queue-pop-no-close");
    assert_eq!(live.len(), 1, "{:#?}", wa.findings);
    assert_eq!(live[0].file, "crates/core/src/rt/pump.rs");
    assert!(live[0].excerpt.contains("`inbox`"), "{live:#?}");

    assert_eq!(wa.findings.len(), 2, "{:#?}", wa.findings);
}

#[test]
fn known_good_waitgraph_twin_has_zero_findings() {
    let wa =
        analyze_workspace(&fixture_root("waitgraph_known_good"), false).expect("walk fixture");
    assert!(wa.findings.is_empty(), "{:#?}", wa.findings);
}
