//! The timer-free group-commit protocol under concurrency and crashes.
//!
//! [`MemStorage`]'s fsync is the strictest the contract allows: it
//! covers exactly the bytes appended before it was *requested*. So a
//! log that credits an fsync with records that arrived while it ran —
//! `synced_lsn` read after the fsync instead of captured before it —
//! loses those records in the `crash(|_| 0)` these tests pull right
//! after a commit returns.

use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use wsd_store::{
    DurableMsgBox, MemStorage, Op, Storage, StoreConfig, SyncMode, Syncer, Wal, WalConfig,
};
use wsd_telemetry::Scope;

/// What the device does between accepting an fsync and completing it.
#[derive(Clone)]
enum Device {
    /// Takes this long (after the data is safe): lets arrivals pile up.
    Slow(Duration),
    /// Announces each fsync and holds it until the test releases it.
    Gated(Sender<()>, Arc<Mutex<Receiver<()>>>),
}

/// A [`MemStorage`] behind a device with fsync latency, counting the
/// writes it is handed.
struct LatentDisk {
    disk: MemStorage,
    device: Device,
    appends: Arc<AtomicUsize>,
}

impl Storage for LatentDisk {
    fn list_segments(&self) -> io::Result<Vec<u64>> {
        self.disk.list_segments()
    }
    fn create_segment(&mut self, base: u64) -> io::Result<()> {
        self.disk.create_segment(base)
    }
    fn append(&mut self, base: u64, bytes: &[u8]) -> io::Result<()> {
        self.appends.fetch_add(1, Ordering::SeqCst);
        self.disk.append(base, bytes)
    }
    fn syncer(&mut self, base: u64) -> io::Result<Syncer> {
        let sync = self.disk.syncer(base)?;
        let device = self.device.clone();
        Ok(Box::new(move || match device {
            Device::Slow(latency) => {
                sync()?;
                std::thread::sleep(latency);
                Ok(())
            }
            Device::Gated(started, release) => {
                started.send(()).expect("test listens");
                release.lock().unwrap().recv().expect("test releases");
                sync()
            }
        }))
    }
    fn read_segment(&mut self, base: u64) -> io::Result<Vec<u8>> {
        self.disk.read_segment(base)
    }
    fn read_at(&mut self, base: u64, off: u64, len: u64) -> io::Result<Vec<u8>> {
        self.disk.read_at(base, off, len)
    }
    fn truncate(&mut self, base: u64, len: u64) -> io::Result<()> {
        self.disk.truncate(base, len)
    }
    fn delete_segment(&mut self, base: u64) -> io::Result<()> {
        self.disk.delete_segment(base)
    }
}

fn group_commit() -> WalConfig {
    WalConfig {
        sync: SyncMode::GroupCommit { flush_batch: 1 << 20 },
        ..WalConfig::default()
    }
}

/// Deposit bodies that survive if the process is killed this instant
/// and nothing unsynced reaches the platter.
fn survivors_of_a_crash_now(disk: &MemStorage) -> HashSet<String> {
    let after = disk.fork();
    after.crash(|_| 0);
    let mut bodies = HashSet::new();
    Wal::open(group_commit(), Box::new(after), &Scope::noop(), |_, op| {
        if let Op::Deposit { body, .. } = op {
            bodies.insert(body);
        }
    })
    .expect("a synced prefix always recovers");
    bodies
}

fn deposit(i: u64) -> Op {
    Op::Deposit {
        box_id: "mbox-1".into(),
        received_at: i,
        expires_at: u64::MAX,
        body: format!("record-{i}"),
    }
}

#[test]
fn concurrent_depositors_share_fsyncs_and_every_ack_survives_a_crash() {
    const THREADS: u64 = 8;
    const DEPOSITS: u64 = 25;
    let disk = MemStorage::new();
    let storage = LatentDisk {
        disk: disk.clone(),
        device: Device::Slow(Duration::from_millis(1)),
        appends: Arc::default(),
    };
    let config = StoreConfig {
        wal: group_commit(),
        ..StoreConfig::default()
    };
    let (store, _) = DurableMsgBox::open(config, Box::new(storage), &Scope::noop(), 0).unwrap();
    store.create("mbox-1", "key-1", "t", 0).unwrap();
    let setup_fsyncs = store.wal().fsync_count();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (store, disk) = (&store, &disk);
            scope.spawn(move || {
                for i in 0..DEPOSITS {
                    let body = format!("msg-{t}-{i}");
                    store.deposit("mbox-1", body.clone(), i, u64::MAX).unwrap();
                    assert!(
                        survivors_of_a_crash_now(disk).contains(&body),
                        "{body} was acknowledged but a crash right after loses it"
                    );
                }
            });
        }
    });
    let fsyncs = store.wal().fsync_count() - setup_fsyncs;
    let deposits = THREADS * DEPOSITS;
    assert!(
        fsyncs < deposits / 2,
        "{fsyncs} fsyncs for {deposits} deposits from {THREADS} concurrent depositors: \
         fewer than 2 records per fsync"
    );
    assert_eq!(store.len("mbox-1", 0).unwrap() as u64, deposits);
}

/// A run of deposits reaches the device as one write and one fsync,
/// however many records it carries and wherever `flush_batch` sits.
#[test]
fn a_run_of_deposits_is_one_write_and_one_fsync() {
    const RUN: usize = 16;
    for flush_batch in [1, 3, 64] {
        let disk = MemStorage::new();
        let appends = Arc::new(AtomicUsize::new(0));
        let storage = LatentDisk {
            disk: disk.clone(),
            device: Device::Slow(Duration::ZERO),
            appends: Arc::clone(&appends),
        };
        let config = StoreConfig {
            wal: WalConfig {
                sync: SyncMode::GroupCommit { flush_batch },
                ..WalConfig::default()
            },
            ..StoreConfig::default()
        };
        let (store, _) = DurableMsgBox::open(config, Box::new(storage), &Scope::noop(), 0).unwrap();
        store.create("mbox-1", "key-1", "t", 0).unwrap();
        let (writes, fsyncs) = (appends.load(Ordering::SeqCst), store.wal().fsync_count());
        let bodies: Vec<String> = (0..RUN).map(|i| format!("run-{i}")).collect();
        let results = store.deposit_batch(bodies.iter().map(|b| ("mbox-1", b.clone())), 1, u64::MAX);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(appends.load(Ordering::SeqCst) - writes, 1, "flush_batch {flush_batch}");
        assert_eq!(store.wal().fsync_count() - fsyncs, 1, "flush_batch {flush_batch}");
        let survivors = survivors_of_a_crash_now(&disk);
        assert!(bodies.iter().all(|b| survivors.contains(b)));
    }
}

/// The interleaving the invariant is about, forced step by step: a
/// record appended while an fsync is in flight is not covered by it.
#[test]
fn a_record_appended_during_an_fsync_waits_for_the_next_one() {
    let disk = MemStorage::new();
    let (started_tx, started) = channel();
    let (release, release_rx) = channel();
    let storage = LatentDisk {
        disk: disk.clone(),
        device: Device::Gated(started_tx, Arc::new(Mutex::new(release_rx))),
        appends: Arc::default(),
    };
    let (wal, _) = Wal::open(group_commit(), Box::new(storage), &Scope::noop(), |_, _| {}).unwrap();
    std::thread::scope(|scope| {
        let wal = &wal;
        // The leader: nobody is syncing, so its commit starts an fsync
        // at once — and the device holds it.
        let first = wal.append(&deposit(1)).unwrap().lsn;
        let leader = scope.spawn(move || wal.commit(first).unwrap());
        started.recv().unwrap();
        // Appends are not blocked by the fsync in flight …
        let second = wal.append(&deposit(2)).unwrap().lsn;
        let (done_tx, done) = channel();
        let follower = scope.spawn(move || {
            wal.commit(second).unwrap();
            done_tx.send(()).unwrap();
        });
        // … and the segment under the fsync is not sealed behind its
        // back: rotation declines until the device is done.
        assert_eq!(wal.rotate(Vec::new()).unwrap(), None);
        // That fsync began before record 2 existed.
        release.send(()).unwrap();
        leader.join().unwrap();
        assert_eq!(wal.fsync_count(), 1);
        let survivors = survivors_of_a_crash_now(&disk);
        assert!(survivors.contains("record-1"));
        assert!(!survivors.contains("record-2"));
        // So the second committer leads an fsync of its own, and its
        // commit returns only once that one has finished.
        started
            .recv_timeout(Duration::from_secs(10))
            .expect("record 2 is not durable, yet its committer started no fsync");
        assert!(done.try_recv().is_err(), "commit returned before its fsync finished");
        release.send(()).unwrap();
        follower.join().unwrap();
        done.recv().unwrap();
        assert_eq!(wal.fsync_count(), 2);
        assert!(survivors_of_a_crash_now(&disk).contains("record-2"));
    });
}
