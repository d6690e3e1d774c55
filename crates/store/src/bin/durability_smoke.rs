//! Real-process crash smoke: SIGKILL a writer mid-deposit, recover,
//! assert the durability contract on a real filesystem WAL.
//!
//! The seeded crash-recovery property test covers hundreds of kill
//! points deterministically on [`wsd_store::MemStorage`]; this binary covers the
//! one thing it can't — an actual `kill -9` against actual files and
//! fsyncs. `scripts/verify.sh durability-smoke` runs it.
//!
//! Two modes:
//!
//! * `durability_smoke writer <dir>` — opens a [`DurableMsgBox`] over
//!   `<dir>`, creates a mailbox (printing `box <id> <key>`), then
//!   deposits forever, printing `acked <body>` only *after* each
//!   deposit returns (i.e. is durable). Runs until killed.
//! * `durability_smoke <dir>` — spawns itself as the writer, waits for
//!   a few acks, SIGKILLs it, reopens the store in-process and asserts
//!   every acked message is fetched exactly once. Repeats for several
//!   rounds, reusing the same directory so recovery also chews on the
//!   previous rounds' acks and torn tails.

use std::io::BufRead;
use std::process::{Command, Stdio};

use wsd_store::{DurableMsgBox, FsStorage, StoreConfig, SyncMode, WalConfig};
use wsd_telemetry::Scope;

fn open_store(dir: &str, now: u64) -> DurableMsgBox {
    let config = StoreConfig {
        wal: WalConfig {
            segment_bytes: 16 * 1024, // rotate often: exercise checkpoints
            sync: SyncMode::GroupCommit { flush_batch: 4 },
        },
        memory_budget_bytes: 1024, // force spill too
        quota_bytes_per_tenant: u64::MAX,
    };
    let storage = FsStorage::open(dir).expect("open wal dir");
    let (store, report) =
        DurableMsgBox::open(config, Box::new(storage), &Scope::noop(), now).expect("recovery");
    if report.truncated_bytes > 0 {
        eprintln!(
            "recovered {} records, truncated {} torn bytes",
            report.records, report.truncated_bytes
        );
    }
    store
}

fn writer(dir: &str) -> ! {
    let store = open_store(dir, 0);
    let (id, key) = ("mbox-smoke".to_string(), "key-smoke".to_string());
    if !store.exists(&id) {
        store.create(&id, &key, "smoke", 0).expect("create box");
    }
    println!("box {id} {key}");
    // Start numbering after anything a previous round left behind so
    // bodies stay unique across rounds.
    let start = store.len(&id, 0).expect("len") as u64 * 1_000;
    for i in start.. {
        let body = format!("msg-{i:08}");
        match store.deposit(&id, body.clone(), i, u64::MAX) {
            Ok(()) => println!("acked {body}"),
            Err(e) => panic!("deposit failed: {e}"),
        }
    }
    unreachable!("deposit loop never exits")
}

fn run_round(exe: &str, dir: &str, round: u32) {
    let mut child = Command::new(exe)
        .args(["writer", dir])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn writer");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let header = lines
        .next()
        .expect("writer printed a box line")
        .expect("readable stdout");
    let mut parts = header.split_whitespace();
    assert_eq!(parts.next(), Some("box"));
    let id = parts.next().expect("box id").to_string();
    let key = parts.next().expect("box key").to_string();

    // Let some deposits become durable, then pull the plug. Varying the
    // count moves the kill point relative to group-commit boundaries.
    let want = 10 + round * 7;
    let mut acked = Vec::new();
    for line in lines.by_ref() {
        let line = line.expect("readable stdout");
        if let Some(body) = line.strip_prefix("acked ") {
            acked.push(body.to_string());
            if acked.len() as u32 >= want {
                break;
            }
        }
    }
    child.kill().expect("SIGKILL writer"); // SIGKILL on unix
    child.wait().expect("reap writer");

    let store = open_store(dir, 0);
    let got = store
        .fetch(&id, &key, usize::MAX, 0)
        .expect("fetch after recovery");
    let bodies: Vec<&str> = got.iter().map(|m| m.body.as_str()).collect();
    for body in &acked {
        let copies = bodies.iter().filter(|b| *b == body).count();
        assert_eq!(copies, 1, "round {round}: acked {body} found {copies} times");
    }
    let unique: std::collections::HashSet<&&str> = bodies.iter().collect();
    assert_eq!(unique.len(), bodies.len(), "round {round}: duplicate delivery");
    println!(
        "round {round}: {} acked, {} recovered (unacked tail may add more) — ok",
        acked.len(),
        bodies.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("writer") => writer(args.get(2).expect("writer needs a dir")),
        Some(dir) => {
            for round in 0..3 {
                run_round(&args[0], dir, round);
            }
            println!("durability smoke passed");
        }
        None => {
            eprintln!("usage: durability_smoke <wal-dir> | durability_smoke writer <wal-dir>");
            std::process::exit(2);
        }
    }
}
