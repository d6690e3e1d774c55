//! Segmented write-ahead log with timer-free leader/follower group
//! commit.
//!
//! LSNs are *positional*: records are numbered 1, 2, 3, … in append
//! order, a segment is named by the LSN of its first record, and replay
//! re-derives every record's LSN from its position — nothing is stored
//! twice, so the log can't disagree with itself.
//!
//! Group commit has no flusher thread (which would trip the
//! `raw-thread-spawn` lint and make the sim nondeterministic) and no
//! timer. `append` only buffers; `commit(lsn)` makes the record
//! durable, and the committers elect a leader among themselves:
//!
//! * a committer whose LSN is not yet durable and who finds **no fsync
//!   in flight** starts one at once — a lone depositor pays one fsync
//!   and never waits for company that is not coming;
//! * one who finds an fsync **in flight** waits for it to finish. If it
//!   began after this committer's record was appended it covers it and
//!   the committer returns without an fsync of its own (a follower);
//!   otherwise the committer leads the next fsync, which covers
//!   everything appended meanwhile.
//!
//! The leader runs the fsync with the log lock (`wal.inner`) released,
//! so appends proceed during it: the arrivals during a slow fsync *are*
//! the next batch, which is why no timer is needed — the batch grows
//! exactly as fast as the disk is slow, and is one when the disk keeps
//! up. N concurrent depositors cost about one fsync per fsync-time, not
//! N; the `group_commit_batch` histogram (records covered per fsync)
//! shows the amortization.
//!
//! Invariants:
//!
//! * `commit(lsn)` returns only after an fsync that *started after*
//!   record `lsn` was completely appended has *finished*: the leader
//!   captures `next_lsn - 1` under the lock when it begins and
//!   `synced_lsn` advances to that captured value, never to whatever
//!   `next_lsn` reads when the fsync ends.
//! * At most one fsync is in flight (`syncing`), and only committers
//!   ever wait for it — holding no lock, not even this log's. Nothing
//!   that runs under a caller's lock (`append`, `rotate`) blocks on
//!   another thread.
//! * `rotate` declines while an fsync is in flight (the caller retries
//!   at its next deposit), so the in-flight fsync is always of the live
//!   segment; `delete_segment` refuses the live segment and recovery's
//!   `truncate` runs before the log is shared, so none of the three can
//!   race one.
//! * `flush_batch` caps how many records may sit unsynced with no fsync
//!   on its way: the append (of one record or of a run) that reaches it
//!   syncs before returning.
//!
//! `SyncMode::Always` (the simulation, the figures) takes none of this:
//! every append syncs under the lock and `commit` finds its LSN durable.
//!
//! Recovery (`Wal::open`) replays segments in base order. A torn tail —
//! incomplete header, short payload, or CRC mismatch — in the *last*
//! segment is the expected residue of a crash mid-append and is
//! truncated away; the same damage in an earlier segment means the disk
//! lied about a completed fsync and is reported as corruption.

use std::io;

use parking_lot::Condvar;
use wsd_concurrent::OrderedMutex;
use wsd_telemetry::{Counter, Histogram, Scope};

use crate::record::{read_record, Op, ReadRecord, HEADER_BYTES};
use crate::storage::Storage;

/// When appended records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Every append syncs before returning. Deterministic (no timing
    /// dependence), used by the simulation backend.
    Always,
    /// Appends buffer; `commit` makes them durable, one committer's
    /// fsync covering every record appended before it began (see the
    /// module doc for the leader/follower protocol).
    GroupCommit {
        /// Most records that may sit unsynced: the append that reaches
        /// this count syncs before returning.
        flush_batch: usize,
    },
}

/// WAL tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the current one holds this many
    /// bytes.
    pub segment_bytes: u64,
    /// Durability policy.
    pub sync: SyncMode,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 8 * 1024 * 1024,
            sync: SyncMode::GroupCommit { flush_batch: 64 },
        }
    }
}

/// Where an appended record landed.
#[derive(Debug, Clone, Copy)]
pub struct AppendInfo {
    /// The record's log sequence number.
    pub lsn: u64,
    /// Base LSN of the segment holding it.
    pub seg_base: u64,
    /// Byte offset of the record *payload* within that segment.
    pub payload_off: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
}

/// What recovery found and repaired.
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryReport {
    /// Segments scanned.
    pub segments: usize,
    /// Complete records replayed.
    pub records: u64,
    /// Torn-tail bytes truncated from the last segment.
    pub truncated_bytes: u64,
}

struct WalInner {
    storage: Box<dyn Storage>,
    /// Base LSN of the segment being appended to.
    cur_base: u64,
    /// Bytes in the current segment, including not-yet-synced ones.
    cur_len: u64,
    /// LSN the next append will get.
    next_lsn: u64,
    /// Highest LSN known durable.
    synced_lsn: u64,
    /// Records appended since the last fsync began.
    pending: usize,
    /// A leader is running an fsync with the lock released.
    syncing: bool,
    /// Encode buffer reused by every append (one copy of each record
    /// of the run, no allocation once it has grown to the largest run).
    record: Vec<u8>,
}

struct WalMetrics {
    appends: Counter,
    wal_bytes: Counter,
    fsyncs: Counter,
    group_commit_batch: Histogram,
    recovery_replayed: Counter,
    segments_deleted: Counter,
    checkpoints: Counter,
}

/// The write-ahead log. All mutation goes through one audited lock
/// (class `wal.inner`), which a group-commit leader releases for the
/// duration of its fsync; followers park on `synced` until it finishes.
pub struct Wal {
    config: WalConfig,
    inner: OrderedMutex<WalInner>,
    /// Signalled whenever an fsync finishes (or fails).
    synced: Condvar,
    metrics: WalMetrics,
}

impl Wal {
    /// Opens the log over `storage`, replaying every surviving record
    /// through `replay` (in LSN order) and truncating a torn tail.
    ///
    /// Damage anywhere but the tail of the last segment is corruption
    /// and fails the open.
    pub fn open(
        config: WalConfig,
        mut storage: Box<dyn Storage>,
        scope: &Scope,
        mut replay: impl FnMut(AppendInfo, Op),
    ) -> io::Result<(Wal, RecoveryReport)> {
        let metrics = WalMetrics {
            appends: scope.counter("wal_appends"),
            wal_bytes: scope.counter("wal_bytes"),
            fsyncs: scope.counter("fsyncs"),
            group_commit_batch: scope.histogram("group_commit_batch"),
            recovery_replayed: scope.counter("recovery_replayed"),
            segments_deleted: scope.counter("segments_deleted"),
            checkpoints: scope.counter("checkpoints"),
        };
        let bases = storage.list_segments()?;
        let mut report = RecoveryReport {
            segments: bases.len(),
            ..RecoveryReport::default()
        };
        let corrupt =
            |base: u64, off: u64| io::Error::other(format!("corrupt record in segment {base} at offset {off}"));
        let (mut cur_base, mut cur_len, mut next_lsn) = (1, 0, 1);
        for (i, &base) in bases.iter().enumerate() {
            let last = i + 1 == bases.len();
            let bytes = storage.read_segment(base)?;
            let mut off = 0u64;
            let mut lsn = base;
            loop {
                match read_record(&bytes, off) {
                    ReadRecord::Ok { payload, next } => {
                        let Some(op) = Op::decode_payload(&payload) else {
                            // CRC-valid but undecodable: not a torn
                            // write, a format violation.
                            return Err(corrupt(base, off));
                        };
                        replay(
                            AppendInfo {
                                lsn,
                                seg_base: base,
                                payload_off: off + HEADER_BYTES,
                                payload_len: payload.len() as u64,
                            },
                            op,
                        );
                        report.records += 1;
                        lsn += 1;
                        off = next;
                    }
                    ReadRecord::End => break,
                    ReadRecord::Torn if last => {
                        report.truncated_bytes = bytes.len() as u64 - off;
                        storage.truncate(base, off)?;
                        break;
                    }
                    ReadRecord::Torn => return Err(corrupt(base, off)),
                }
            }
            if last {
                (cur_base, cur_len, next_lsn) = (base, off, lsn);
            }
        }
        if bases.is_empty() {
            storage.create_segment(cur_base)?;
        }
        metrics.recovery_replayed.add(report.records);
        let wal = Wal {
            config,
            inner: OrderedMutex::new(
                "wal.inner",
                WalInner {
                    storage,
                    cur_base,
                    cur_len,
                    next_lsn,
                    // Everything that survived on disk is durable.
                    synced_lsn: next_lsn - 1,
                    pending: 0,
                    syncing: false,
                    record: Vec::new(),
                },
            ),
            synced: Condvar::new(),
            metrics,
        };
        Ok((wal, report))
    }

    /// Appends one operation (buffered). Durable only once a later
    /// [`Wal::commit`] with this LSN (or any higher one) returns.
    pub fn append(&self, op: &Op) -> io::Result<AppendInfo> {
        Ok(self.append_run(std::slice::from_ref(op))?[0])
    }

    /// Appends a run of operations in order (buffered): the records are
    /// framed back to back and handed to the segment store in one
    /// `append`, so a run costs one write, not one per record. All of
    /// them land in the current segment; one [`Wal::commit`] of the last
    /// LSN covers the run.
    pub fn append_run(&self, ops: &[Op]) -> io::Result<Vec<AppendInfo>> {
        let mut inner = self.inner.lock();
        let infos = self.append_locked(&mut inner, ops)?;
        let sync_now = match self.config.sync {
            SyncMode::Always => true,
            // With an fsync in flight the backlog is already on its way
            // down; the committers lead the next one.
            SyncMode::GroupCommit { flush_batch } => {
                inner.pending >= flush_batch && !inner.syncing
            }
        };
        if sync_now {
            self.sync_locked(&mut inner)?;
        }
        Ok(infos)
    }

    fn append_locked(&self, inner: &mut WalInner, ops: &[Op]) -> io::Result<Vec<AppendInfo>> {
        inner.record.clear();
        let mut infos = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let start = inner.record.len() as u64;
            op.append_record_to(&mut inner.record);
            infos.push(AppendInfo {
                lsn: inner.next_lsn + i as u64,
                seg_base: inner.cur_base,
                payload_off: inner.cur_len + start + HEADER_BYTES,
                payload_len: inner.record.len() as u64 - start - HEADER_BYTES,
            });
        }
        inner.storage.append(inner.cur_base, &inner.record)?;
        let len = inner.record.len() as u64;
        inner.next_lsn += ops.len() as u64;
        inner.cur_len += len;
        inner.pending += ops.len();
        self.metrics.appends.add(ops.len() as u64);
        self.metrics.wal_bytes.add(len);
        Ok(infos)
    }

    /// Blocks until every record up to `lsn` is durable: returns at
    /// once if it already is, follows an in-flight fsync that covers
    /// it, and otherwise leads one (see the module doc).
    pub fn commit(&self, lsn: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        while inner.synced_lsn < lsn {
            if inner.syncing {
                // Whether or not the fsync in flight covers `lsn` is
                // decided when it finishes; re-check then.
                inner.wait(&self.synced);
                continue;
            }
            // Lead. Everything appended so far is in the file before
            // the fsync begins; what arrives while it runs is not
            // credited to it.
            let covers = inner.next_lsn - 1;
            let base = inner.cur_base;
            let fsync = inner.storage.syncer(base)?;
            let batch = std::mem::take(&mut inner.pending);
            inner.syncing = true;
            drop(inner);
            let result = fsync();
            inner = self.inner.lock();
            inner.syncing = false;
            match result {
                Ok(()) => {
                    inner.synced_lsn = covers;
                    self.metrics.fsyncs.inc();
                    self.metrics.group_commit_batch.record(batch as u64);
                }
                Err(_) => inner.pending += batch,
            }
            self.synced.notify_all();
            result?;
        }
        Ok(())
    }

    /// Whether every record up to `lsn` is durable (debug builds: what
    /// the mailbox's ack points assert before they report success).
    #[cfg(debug_assertions)]
    pub fn is_durable(&self, lsn: u64) -> bool {
        self.inner.lock().synced_lsn >= lsn
    }

    /// Appends and makes durable before returning.
    pub fn append_durable(&self, op: &Op) -> io::Result<AppendInfo> {
        let info = self.append(op)?;
        self.commit(info.lsn)?;
        Ok(info)
    }

    /// Syncs everything pending without releasing the lock. Only when
    /// no leader's fsync is in flight.
    fn sync_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        debug_assert!(!inner.syncing, "one fsync at a time");
        if inner.pending == 0 {
            return Ok(());
        }
        let base = inner.cur_base;
        inner.storage.sync(base)?;
        self.metrics.fsyncs.inc();
        self.metrics.group_commit_batch.record(inner.pending as u64);
        inner.pending = 0;
        inner.synced_lsn = inner.next_lsn - 1;
        Ok(())
    }

    /// Reads `len` payload bytes at `off` in segment `seg_base` (spilled
    /// message bodies).
    pub fn read_at(&self, seg_base: u64, off: u64, len: u64) -> io::Result<Vec<u8>> {
        self.inner.lock().storage.read_at(seg_base, off, len)
    }

    /// Whether the current segment has reached its size limit.
    pub fn needs_rotation(&self) -> bool {
        self.inner.lock().cur_len >= self.config.segment_bytes
    }

    /// Seals the current segment (syncing it) and starts a fresh one
    /// whose first record is a [`Op::Checkpoint`] of `boxes` — after
    /// which any older segment with no live deposits is deletable.
    /// Returns the new segment's base LSN, or `None` without touching
    /// anything while an fsync of the current segment is in flight: the
    /// size limit is a threshold, not a wall, and the caller asks again
    /// at its next deposit.
    pub fn rotate(&self, boxes: Vec<(String, String, String, u64)>) -> io::Result<Option<u64>> {
        let mut inner = self.inner.lock();
        if inner.syncing {
            return Ok(None);
        }
        self.sync_locked(&mut inner)?;
        let base = inner.next_lsn;
        inner.storage.create_segment(base)?;
        inner.cur_base = base;
        inner.cur_len = 0;
        self.append_locked(&mut inner, &[Op::Checkpoint { boxes }])?;
        // The checkpoint must be durable before it can justify GC.
        self.sync_locked(&mut inner)?;
        self.metrics.checkpoints.inc();
        Ok(Some(base))
    }

    /// Deletes a sealed segment whose deposits are all acked/expired.
    /// Never the live one — the only segment an fsync can be in flight
    /// on.
    pub fn delete_segment(&self, base: u64) -> io::Result<()> {
        let mut inner = self.inner.lock();
        assert_ne!(base, inner.cur_base, "never delete the live segment");
        inner.storage.delete_segment(base)?;
        self.metrics.segments_deleted.inc();
        Ok(())
    }

    /// Base LSN of the segment currently being written.
    pub fn current_segment(&self) -> u64 {
        self.inner.lock().cur_base
    }

    /// Total fsyncs performed (for the sim's disk-latency model).
    pub fn fsync_count(&self) -> u64 {
        self.metrics.fsyncs.get()
    }

    /// Total bytes appended (for the sim's disk-latency model).
    pub fn bytes_appended(&self) -> u64 {
        self.metrics.wal_bytes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn deposit(i: u64) -> Op {
        Op::Deposit {
            box_id: "mbox-1".into(),
            received_at: i,
            expires_at: i + 100,
            body: format!("body-{i}"),
        }
    }

    fn open_mem(mem: &MemStorage, replayed: &mut Vec<(u64, Op)>) -> (Wal, RecoveryReport) {
        Wal::open(
            WalConfig {
                sync: SyncMode::Always,
                ..WalConfig::default()
            },
            Box::new(mem.clone()),
            &Scope::noop(),
            |info, op| replayed.push((info.lsn, op)),
        )
        .unwrap()
    }

    #[test]
    fn append_then_reopen_replays_in_lsn_order() {
        let mem = MemStorage::new();
        {
            let (wal, _) = open_mem(&mem, &mut Vec::new());
            for i in 0..5 {
                let info = wal.append_durable(&deposit(i)).unwrap();
                assert_eq!(info.lsn, i + 1);
            }
        }
        let mut replayed = Vec::new();
        let (_, report) = open_mem(&mem, &mut replayed);
        assert_eq!(report.records, 5);
        assert_eq!(report.truncated_bytes, 0);
        let lsns: Vec<u64> = replayed.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3, 4, 5]);
        assert_eq!(replayed[3].1, deposit(3));
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mem = MemStorage::new();
        {
            let (wal, _) = Wal::open(
                WalConfig {
                    sync: SyncMode::GroupCommit { flush_batch: 1000 },
                    ..WalConfig::default()
                },
                Box::new(mem.clone()),
                &Scope::noop(),
                |_, _| {},
            )
            .unwrap();
            wal.append(&deposit(0)).unwrap();
            wal.commit(1).unwrap(); // durable
            wal.append(&deposit(1)).unwrap(); // buffered only
        }
        // Crash keeps the synced record plus 3 bytes of the torn one.
        mem.crash(|tail| tail.min(3));
        let mut replayed = Vec::new();
        let (wal, report) = open_mem(&mem, &mut replayed);
        assert_eq!(report.records, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(replayed.len(), 1);
        // The log keeps working at the right LSN after repair.
        assert_eq!(wal.append_durable(&deposit(9)).unwrap().lsn, 2);
    }

    #[test]
    fn rotation_checkpoints_and_gc_deletes_sealed_segments() {
        let mem = MemStorage::new();
        let (wal, _) = open_mem(&mem, &mut Vec::new());
        wal.append_durable(&deposit(0)).unwrap();
        let boxes = vec![("mbox-1".into(), "k".into(), "t".into(), 7u64)];
        let base = wal.rotate(boxes.clone()).unwrap();
        assert_eq!(base, Some(2)); // checkpoint gets LSN 2
        assert_eq!(wal.current_segment(), 2);
        wal.append_durable(&deposit(1)).unwrap();
        wal.delete_segment(1).unwrap();

        let mut replayed = Vec::new();
        let (_, report) = open_mem(&mem, &mut replayed);
        assert_eq!(report.segments, 1);
        // Checkpoint (lsn 2) + the later deposit (lsn 3) survive.
        assert_eq!(replayed[0], (2, Op::Checkpoint { boxes }));
        assert_eq!(replayed[1].0, 3);
    }

    fn open_group(mem: &MemStorage, flush_batch: usize) -> Wal {
        let config = WalConfig {
            sync: SyncMode::GroupCommit { flush_batch },
            ..WalConfig::default()
        };
        Wal::open(config, Box::new(mem.clone()), &Scope::noop(), |_, _| {}).unwrap().0
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let mem = MemStorage::new();
        let wal = open_group(&mem, 4);
        // A lone committer does not wait for company: its commit is one
        // fsync, at once.
        let first = wal.append(&deposit(0)).unwrap();
        assert_eq!(wal.fsync_count(), 0, "append only buffers");
        wal.commit(first.lsn).unwrap();
        assert_eq!(wal.fsync_count(), 1);
        // Durable means durable: nothing unsynced survives this crash,
        // yet the record does.
        mem.crash(|_| 0);
        // One commit of the highest LSN covers every earlier record …
        let lsns: Vec<u64> = (1..4).map(|i| wal.append(&deposit(i)).unwrap().lsn).collect();
        wal.commit(lsns[2]).unwrap();
        assert_eq!(wal.fsync_count(), 2);
        // … so the covered ones return with no fsync of their own.
        wal.commit(lsns[0]).unwrap();
        wal.commit(lsns[1]).unwrap();
        assert_eq!(wal.fsync_count(), 2);
        // The append-side cap: the fourth unsynced record syncs itself.
        let mut last = 0;
        for i in 4..8 {
            assert_eq!(wal.fsync_count(), 2);
            last = wal.append(&deposit(i)).unwrap().lsn;
        }
        assert_eq!(wal.fsync_count(), 3);
        wal.commit(last).unwrap();
        assert_eq!(wal.fsync_count(), 3);
    }

    /// One framed `Op::Deposit` as the format has always laid it out
    /// (`[len][crc][op 2][box][received][expires][body]`, CRC by zlib).
    const GOLDEN_DEPOSIT_RECORD: &str = "420000007c53030a02060000006d626f782d310a0000000000000063000000\
        00000000230000003c656e763a456e76656c6f70653e676f6c64656e3c2f656e763a456e76656c6f70653e";

    #[test]
    fn golden_record_encodes_byte_for_byte_and_replays() {
        let golden: Vec<u8> = (0..GOLDEN_DEPOSIT_RECORD.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_DEPOSIT_RECORD[i..i + 2], 16).unwrap())
            .collect();
        let op = Op::Deposit {
            box_id: "mbox-1".into(),
            received_at: 10,
            expires_at: 99,
            body: "<env:Envelope>golden</env:Envelope>".into(),
        };
        // What this build writes is what every earlier build wrote …
        let mem = MemStorage::new();
        let (wal, _) = open_mem(&mem, &mut Vec::new());
        wal.append_run(&[op.clone(), op.clone()]).unwrap();
        let on_disk = Storage::read_segment(&mut mem.clone(), 1).unwrap();
        assert_eq!(on_disk, [golden.as_slice(), &golden].concat());
        // … and a log an earlier build wrote replays under this one.
        let old_log = MemStorage::new();
        {
            let disk: &mut dyn Storage = &mut old_log.clone();
            disk.create_segment(1).unwrap();
            disk.append(1, &golden).unwrap();
            disk.sync(1).unwrap();
        }
        let mut replayed = Vec::new();
        let (_, report) = open_mem(&old_log, &mut replayed);
        assert_eq!((report.records, report.truncated_bytes), (1, 0));
        assert_eq!(replayed, vec![(1, op)]);
    }

    #[test]
    fn a_run_lands_where_its_infos_say() {
        let mem = MemStorage::new();
        let (wal, _) = open_mem(&mem, &mut Vec::new());
        wal.append_durable(&deposit(0)).unwrap();
        let ops = [deposit(1), deposit(22), deposit(333)];
        let infos = wal.append_run(&ops).unwrap();
        assert_eq!(infos.iter().map(|i| i.lsn).collect::<Vec<_>>(), vec![2, 3, 4]);
        for (op, info) in ops.iter().zip(&infos) {
            let payload = wal.read_at(info.seg_base, info.payload_off, info.payload_len).unwrap();
            assert_eq!(Op::decode_payload(&payload).as_ref(), Some(op));
        }
        // The next single append carries on after the run.
        assert_eq!(wal.append(&deposit(4)).unwrap().lsn, 5);
        let mut replayed = Vec::new();
        drop(wal);
        open_mem(&mem, &mut replayed);
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[3], (4, deposit(333)));
    }

    #[test]
    fn spilled_payload_read_back_by_offset() {
        let mem = MemStorage::new();
        let (wal, _) = open_mem(&mem, &mut Vec::new());
        let op = deposit(3);
        let info = wal.append_durable(&op).unwrap();
        let payload = wal.read_at(info.seg_base, info.payload_off, info.payload_len).unwrap();
        assert_eq!(Op::decode_payload(&payload), Some(op));
    }
}
