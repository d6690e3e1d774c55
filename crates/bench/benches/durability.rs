//! Durable msgbox costs: what the WAL charges per record and what the
//! store charges per message, measured on [`MemStorage`] so the numbers
//! are CPU costs (framing, CRC, lock traffic), not disk physics — the
//! real-fsync path is exercised by the `durability_smoke` binary.
//!
//! * `wal`: one durable append per record under `SyncMode::Always` vs
//!   a full `flush_batch` of appends amortized over one group-commit
//!   sync — the §4.1 claim that one fsync can cover many depositors.
//! * `recovery`: reopening a log of `RECOVERY_RECORDS` deposits —
//!   segment scan, CRC check, decode, replay, per record.
//! * `msgbox`: deposit→fetch round trip through [`DurableMsgBox`] with
//!   the body resident (memory budget uncapped) vs spilled (budget 0,
//!   every fetch reads the body back out of the segment).
//!
//! Set `BENCH_DURABILITY_JSON=<path>` to emit a machine-readable
//! summary (checked in as `BENCH_durability.json`, gated by
//! `bench_gate`); `CRITERION_SAMPLES` scales both the criterion run and
//! the JSON measurement.

use std::time::Instant;

use criterion::{criterion_group, Criterion, Throughput};
use wsd_store::{DurableMsgBox, MemStorage, Op, StoreConfig, SyncMode, Wal, WalConfig};
use wsd_telemetry::Scope;

/// Matches the fig6 durability-wall storm body (240-byte pad).
const BODY_BYTES: usize = 240;
/// Records in the pre-built log the recovery bench reopens.
const RECOVERY_RECORDS: u64 = 1024;
/// Group-commit batch: the sync-triggering append covers all of these.
const FLUSH_BATCH: usize = 64;

fn body() -> String {
    "x".repeat(BODY_BYTES)
}

fn deposit_op(body: &str) -> Op {
    Op::Deposit {
        box_id: "mbox-bench".to_string(),
        received_at: 1,
        expires_at: u64::MAX,
        body: body.to_string(),
    }
}

fn wal_config(sync: SyncMode) -> WalConfig {
    WalConfig {
        segment_bytes: 64 * 1024 * 1024,
        sync,
    }
}

fn open_wal(sync: SyncMode) -> Wal {
    let (wal, _) = Wal::open(
        wal_config(sync),
        Box::new(MemStorage::new()),
        &Scope::noop(),
        |_, _| {},
    )
    .expect("open WAL over fresh MemStorage");
    wal
}

/// A log of `RECOVERY_RECORDS` durable deposits, for reopening.
fn built_log() -> MemStorage {
    let mem = MemStorage::new();
    let wal = {
        let (wal, _) = Wal::open(
            wal_config(SyncMode::Always),
            Box::new(mem.clone()),
            &Scope::noop(),
            |_, _| {},
        )
        .expect("open WAL to build recovery log");
        wal
    };
    let op = deposit_op(&body());
    for _ in 0..RECOVERY_RECORDS {
        wal.append_durable(&op).expect("append to MemStorage");
    }
    mem
}

fn replay_log(mem: &MemStorage) -> u64 {
    let (_, report) = Wal::open(
        wal_config(SyncMode::Always),
        Box::new(mem.clone()),
        &Scope::noop(),
        |_, _| {},
    )
    .expect("reopen recovery log");
    report.records
}

fn store_config(memory_budget_bytes: u64) -> StoreConfig {
    StoreConfig {
        wal: wal_config(SyncMode::Always),
        memory_budget_bytes,
        quota_bytes_per_tenant: u64::MAX,
    }
}

/// A store with one mailbox, ready for deposit→fetch round trips.
fn open_store(memory_budget_bytes: u64) -> DurableMsgBox {
    let (store, _) = DurableMsgBox::open(
        store_config(memory_budget_bytes),
        Box::new(MemStorage::new()),
        &Scope::noop(),
        0,
    )
    .expect("open DurableMsgBox over fresh MemStorage");
    store
        .create("mbox-bench", "key", "default", 0)
        .expect("create bench mailbox");
    store
}

fn round_trip(store: &DurableMsgBox, body: &str) {
    store
        .deposit("mbox-bench", body.to_string(), 1, u64::MAX)
        .expect("deposit");
    let got = store.fetch("mbox-bench", "key", 1, 1).expect("fetch");
    assert_eq!(got.len(), 1);
}

fn bench(c: &mut Criterion) {
    let body = body();

    let mut g = c.benchmark_group("wal");
    g.throughput(Throughput::Elements(1));
    let always = open_wal(SyncMode::Always);
    let op = deposit_op(&body);
    g.bench_function("sync_always_append", |b| {
        b.iter(|| always.append_durable(std::hint::black_box(&op)).unwrap())
    });
    let grouped = open_wal(SyncMode::GroupCommit { flush_batch: FLUSH_BATCH });
    g.throughput(Throughput::Elements(FLUSH_BATCH as u64));
    g.bench_function(format!("group_commit_batch_{FLUSH_BATCH}"), |b| {
        b.iter(|| {
            let mut last = 0;
            for _ in 0..FLUSH_BATCH {
                last = grouped.append(std::hint::black_box(&op)).unwrap().lsn;
            }
            grouped.commit(last).unwrap();
        })
    });
    g.finish();

    let mut g = c.benchmark_group("recovery");
    let log = built_log();
    g.throughput(Throughput::Elements(RECOVERY_RECORDS));
    g.bench_function(format!("replay_{RECOVERY_RECORDS}_records"), |b| {
        b.iter(|| assert_eq!(replay_log(std::hint::black_box(&log)), RECOVERY_RECORDS))
    });
    g.finish();

    let mut g = c.benchmark_group("msgbox");
    g.throughput(Throughput::Elements(1));
    let resident = open_store(u64::MAX);
    g.bench_function("deposit_fetch_resident", |b| {
        b.iter(|| round_trip(&resident, std::hint::black_box(&body)))
    });
    let spilled = open_store(0);
    g.bench_function("deposit_fetch_spilled", |b| {
        b.iter(|| round_trip(&spilled, std::hint::black_box(&body)))
    });
    g.finish();
}

criterion_group!(benches, bench);

/// Times `f` over `reps` runs (one untimed warmup) and returns ns/run.
fn time_ns(reps: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn emit_json(path: &str) {
    let samples: u64 = std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let body = body();
    let op = deposit_op(&body);
    let reps = samples * 200;

    let always = open_wal(SyncMode::Always);
    let always_ns = time_ns(reps, || {
        always.append_durable(std::hint::black_box(&op)).unwrap();
    });
    let grouped = open_wal(SyncMode::GroupCommit { flush_batch: FLUSH_BATCH });
    let grouped_ns = time_ns(reps.div_ceil(FLUSH_BATCH as u64).max(5), || {
        let mut last = 0;
        for _ in 0..FLUSH_BATCH {
            last = grouped.append(std::hint::black_box(&op)).unwrap().lsn;
        }
        grouped.commit(last).unwrap();
    }) / FLUSH_BATCH as f64;

    let log = built_log();
    let replay_ns = time_ns((samples / 2).max(5), || {
        assert_eq!(replay_log(std::hint::black_box(&log)), RECOVERY_RECORDS);
    }) / RECOVERY_RECORDS as f64;

    let resident = open_store(u64::MAX);
    let resident_ns = time_ns(reps, || round_trip(&resident, &body));
    let spilled = open_store(0);
    let spilled_ns = time_ns(reps, || round_trip(&spilled, &body));

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"durability\",\n",
            "  \"samples\": {samples},\n",
            "  \"body_bytes\": {body_bytes},\n",
            "  \"wal\": {{\n",
            "    \"sync_always_ns_per_record\": {always:.1},\n",
            "    \"group_commit_batch{batch}_ns_per_record\": {grouped:.1},\n",
            "    \"group_commit_speedup\": {speedup:.2}\n",
            "  }},\n",
            "  \"recovery\": {{\n",
            "    \"records\": {records},\n",
            "    \"replay_ns_per_record\": {replay:.1}\n",
            "  }},\n",
            "  \"msgbox\": {{\n",
            "    \"deposit_fetch_resident_ns_per_msg\": {resident:.1},\n",
            "    \"deposit_fetch_spilled_ns_per_msg\": {spilled:.1}\n",
            "  }}\n",
            "}}\n"
        ),
        samples = samples,
        body_bytes = BODY_BYTES,
        always = always_ns,
        batch = FLUSH_BATCH,
        grouped = grouped_ns,
        speedup = always_ns / grouped_ns,
        records = RECOVERY_RECORDS,
        replay = replay_ns,
        resident = resident_ns,
        spilled = spilled_ns,
    );
    std::fs::write(path, &json).expect("write BENCH_durability.json");
    println!("wrote {path}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("BENCH_DURABILITY_JSON") {
        emit_json(&path);
    }
}
