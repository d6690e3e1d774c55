//! Crash-recovery property sweep: 250 seeded kill points, once under
//! `SyncMode::Always` and once under group commit.
//!
//! Each seed runs a random mailbox workload (create / deposit / fetch /
//! destroy / expire, with seed-chosen segment sizes, memory budgets and
//! quotas so rotation, GC and spill all land in the mix) against a
//! [`MemStorage`] "disk", then crashes it:
//!
//! * every *completed* operation is durable (the store commits before
//!   returning), so the synced prefix survives;
//! * with some seeds, a run of deposits is caught *mid-write*: its
//!   records go to the log in one write, a prefix of that write (cut
//!   anywhere, in any of its records) is appended unsynced, and the
//!   crash keeps a seed-chosen prefix of those bytes — the torn tail
//!   recovery must CRC-detect and truncate.
//!
//! After reopening, the invariants of the durability contract are
//! asserted against an oracle:
//!
//! 1. zero acknowledged deposits lost — every body whose `deposit`
//!    returned `Ok` and was not yet fetched or destroyed comes back,
//!    exactly once and in deposit order;
//! 2. zero double deliveries — nothing a pre-crash `fetch` returned is
//!    ever handed out again (also checked across a *second* restart);
//! 3. nothing fabricated — every recovered body is one the workload
//!    actually deposited (completed or mid-write), never a CRC-damaged
//!    hybrid;
//! 4. destroyed mailboxes stay destroyed.

use std::collections::{HashMap, HashSet, VecDeque};

use wsd_store::record::frame;
use wsd_store::{DurableMsgBox, MemStorage, Op, StoreConfig, StoreError, SyncMode, WalConfig};
use wsd_telemetry::Scope;

/// Deterministic xorshift64* so each seed replays bit-identically.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Oracle {
    /// Live boxes: id -> (key, pending acked bodies in deposit order).
    boxes: HashMap<String, (String, VecDeque<String>)>,
    /// Bodies some completed fetch already returned.
    delivered: HashSet<String>,
    /// Bodies that may legitimately appear 0 or 1 times after recovery:
    /// finite-TTL deposits and the mid-write partial record.
    maybe: HashSet<String>,
    /// Bodies that must never reappear (their box was destroyed).
    destroyed_bodies: HashSet<String>,
    destroyed_boxes: Vec<(String, String)>,
}

fn config_for(rng: &mut Rng, group_commit: bool) -> StoreConfig {
    StoreConfig {
        wal: WalConfig {
            // Small segments force rotation/checkpoint/GC under load.
            segment_bytes: [256, 1024, 1 << 20][rng.below(3) as usize],
            sync: if group_commit {
                // 1 = the append-side cap syncs every record; 3 = cap
                // and commit interleave; 64 = only commits sync.
                SyncMode::GroupCommit {
                    flush_batch: [1, 3, 64][rng.below(3) as usize],
                }
            } else {
                SyncMode::Always
            },
        },
        // 0 = everything spills; 64 = mixed; huge = everything cached.
        memory_budget_bytes: [0, 64, u64::MAX][rng.below(3) as usize],
        quota_bytes_per_tenant: u64::MAX,
    }
}

fn open(mem: &MemStorage, cfg: &StoreConfig, now: u64) -> DurableMsgBox {
    DurableMsgBox::open(cfg.clone(), Box::new(mem.clone()), &Scope::noop(), now)
        .expect("recovery must repair, not fail")
        .0
}

fn run_seed(seed: u64, group_commit: bool) {
    let mut rng = Rng::new(seed);
    let cfg = config_for(&mut rng, group_commit);
    let mem = MemStorage::new();
    let store = open(&mem, &cfg, 0);

    let mut oracle = Oracle {
        boxes: HashMap::new(),
        delivered: HashSet::new(),
        maybe: HashSet::new(),
        destroyed_bodies: HashSet::new(),
        destroyed_boxes: Vec::new(),
    };
    let mut msg_no = 0u64;
    let mut box_no = 0u64;
    let mut now = 0u64;
    let n_ops = 5 + rng.below(36);
    for _ in 0..n_ops {
        now += 1;
        let ids: Vec<String> = oracle.boxes.keys().cloned().collect();
        match rng.below(10) {
            // create (always, if none exist yet)
            0..=1 if ids.len() < 4 => {
                let id = format!("mbox-{seed}-{box_no}");
                let key = format!("key-{seed}-{box_no}");
                box_no += 1;
                store.create(&id, &key, "t", now).unwrap();
                oracle.boxes.insert(id, (key, VecDeque::new()));
            }
            // deposit: one message, or a run of them behind one barrier
            // (one multi-record write, one commit)
            2..=6 if !ids.is_empty() => {
                let id = &ids[rng.below(ids.len() as u64) as usize];
                let finite_ttl = rng.below(8) == 0;
                let expires = if finite_ttl { now + 3 } else { u64::MAX };
                let bodies: Vec<String> = (0..1 + rng.below(4))
                    .map(|_| {
                        msg_no += 1;
                        format!("msg-{seed}-{}", msg_no - 1)
                    })
                    .collect();
                let run = bodies.iter().map(|b| (id.as_str(), b.clone()));
                for stored in store.deposit_batch(run, now, expires) {
                    stored.unwrap();
                }
                if finite_ttl {
                    // May expire before the post-crash sweep reads it.
                    oracle.maybe.extend(bodies);
                } else {
                    oracle.boxes.get_mut(id).unwrap().1.extend(bodies);
                }
            }
            // fetch a few
            7..=8 if !ids.is_empty() => {
                let id = &ids[rng.below(ids.len() as u64) as usize];
                let (key, pending) = oracle.boxes.get_mut(id).unwrap();
                let max = 1 + rng.below(4) as usize;
                let got = store.fetch(id, key, max, now).unwrap();
                for m in got {
                    if let Some(front) = pending.front() {
                        if *front == m.body {
                            pending.pop_front();
                        }
                    }
                    assert!(
                        oracle.delivered.insert(m.body.clone()),
                        "seed {seed}: {} delivered twice pre-crash",
                        m.body
                    );
                    oracle.maybe.remove(&m.body);
                }
            }
            // destroy, rarely
            9 if ids.len() > 1 => {
                let id = ids[rng.below(ids.len() as u64) as usize].clone();
                let (key, pending) = oracle.boxes.remove(&id).unwrap();
                store.destroy(&id, &key).unwrap();
                oracle.destroyed_bodies.extend(pending);
                oracle.destroyed_boxes.push((id, key));
            }
            _ => {}
        }
    }

    // The kill point: maybe a deposit is caught mid-write (its frame
    // partially appended, unsynced), then the plug is pulled and a
    // seeded slice of unsynced bytes survives.
    let cur_seg = store.wal().current_segment();
    drop(store);
    if rng.below(2) == 0 && !oracle.boxes.is_empty() {
        let ids: Vec<&String> = oracle.boxes.keys().collect();
        let id = ids[rng.below(ids.len() as u64) as usize];
        // A run of up to three records in one write, cut anywhere.
        let mut framed = Vec::new();
        let mut ends = Vec::new();
        for i in 0..1 + rng.below(3) {
            let body = format!("partial-{seed}-{i}");
            framed.extend(frame(
                &Op::Deposit {
                    box_id: id.clone(),
                    received_at: now,
                    expires_at: u64::MAX,
                    body: body.clone(),
                }
                .encode_payload(),
            ));
            ends.push((framed.len(), body));
        }
        let cut = 1 + rng.below(framed.len() as u64) as usize;
        let mut disk = mem.clone();
        wsd_store::Storage::append(&mut disk, cur_seg, &framed[..cut]).unwrap();
        // The records wholly before the cut may come back; the one the
        // cut tore is a torn tail: recovery must truncate it and its
        // body must NOT appear (it is not in `maybe`).
        oracle.maybe.extend(ends.into_iter().filter(|(end, _)| *end <= cut).map(|(_, body)| body));
    }
    let crash_at = rng.next();
    mem.crash(|tail| (crash_at % (tail as u64 + 1)) as usize);

    // Restart and sweep everything.
    now += 10;
    let store = open(&mem, &cfg, now);
    let mut seen_after: HashSet<String> = HashSet::new();
    for (id, (key, pending)) in &oracle.boxes {
        let got = store.fetch(id, key, usize::MAX, now).unwrap();
        let bodies: Vec<String> = got.into_iter().map(|m| m.body).collect();
        for b in &bodies {
            assert!(
                !oracle.delivered.contains(b),
                "seed {seed}: double delivery of {b}"
            );
            assert!(
                !oracle.destroyed_bodies.contains(b),
                "seed {seed}: {b} came back from a destroyed box"
            );
            assert!(
                seen_after.insert(b.clone()),
                "seed {seed}: {b} delivered twice post-recovery"
            );
            let legit = b.starts_with(&format!("msg-{seed}-")) || oracle.maybe.contains(b);
            assert!(legit, "seed {seed}: fabricated body {b}");
        }
        // Acked-but-unfetched bodies survive, in deposit order.
        let must: Vec<&String> = pending.iter().collect();
        let recovered: Vec<&String> = bodies
            .iter()
            .filter(|b| pending.contains(*b))
            .collect();
        assert_eq!(
            recovered, must,
            "seed {seed}: acked messages of {id} lost or reordered"
        );
    }
    for (id, _) in &oracle.destroyed_boxes {
        assert!(!store.exists(id), "seed {seed}: destroyed box {id} revived");
    }

    // Second restart: the post-crash sweep's acks are durable too, so
    // every mailbox must now be empty — nothing is delivered twice.
    drop(store);
    let store = open(&mem, &cfg, now);
    for (id, (key, _)) in &oracle.boxes {
        let got = store.fetch(id, key, usize::MAX, now).unwrap();
        assert!(
            got.is_empty(),
            "seed {seed}: {id} re-delivered after second restart"
        );
    }
}

#[test]
fn crash_recovery_property_over_250_seeds() {
    for seed in 0..250 {
        run_seed(seed, false);
    }
}

/// The same sweep with buffered appends and leader commits: what is
/// durable is only what an fsync requested *after* the append covered
/// (`MemStorage` syncs nothing that arrived later), so an operation
/// acknowledged off a commit that did not really cover it is lost here.
#[test]
fn crash_recovery_property_over_250_seeds_group_commit() {
    for seed in 0..250 {
        run_seed(seed, true);
    }
}

/// The mid-fetch window: an ack can be durable while the response is
/// lost. That batch is gone (at-most-once pickup, by design), but the
/// store itself must recover cleanly and never double-deliver.
#[test]
fn ack_durable_but_response_lost_is_at_most_once() {
    let mem = MemStorage::new();
    let cfg = StoreConfig {
        wal: WalConfig {
            sync: SyncMode::Always,
            ..WalConfig::default()
        },
        ..StoreConfig::default()
    };
    let store = open(&mem, &cfg, 0);
    store.create("mbox-1", "key-1", "t", 0).unwrap();
    store.deposit("mbox-1", "one".into(), 1, u64::MAX).unwrap();
    store.deposit("mbox-1", "two".into(), 2, u64::MAX).unwrap();
    // The consumer fetched "one" but the process died before the
    // response left the machine: the durable ack wins.
    store.fetch("mbox-1", "key-1", 1, 3).unwrap();
    drop(store);
    let store = open(&mem, &cfg, 4);
    let got = store.fetch("mbox-1", "key-1", usize::MAX, 4).unwrap();
    let bodies: Vec<&str> = got.iter().map(|m| m.body.as_str()).collect();
    assert_eq!(bodies, vec!["two"]);
}

#[test]
fn quota_survives_restart() {
    let mem = MemStorage::new();
    let cfg = StoreConfig {
        wal: WalConfig {
            sync: SyncMode::Always,
            ..WalConfig::default()
        },
        quota_bytes_per_tenant: 6,
        ..StoreConfig::default()
    };
    let store = open(&mem, &cfg, 0);
    store.create("mbox-1", "key-1", "acme", 0).unwrap();
    store.deposit("mbox-1", "12345".into(), 1, u64::MAX).unwrap();
    drop(store);
    // Replay rebuilds the tenant accounting: still only 1 spare byte.
    let store = open(&mem, &cfg, 2);
    assert_eq!(store.tenant_bytes("acme"), 5);
    assert_eq!(
        store.deposit("mbox-1", "67".into(), 3, u64::MAX),
        Err(StoreError::QuotaExceeded)
    );
    store.deposit("mbox-1", "6".into(), 3, u64::MAX).unwrap();
}
