//! The mailbox store: WS-MsgBox semantics, with or without a WAL.
//!
//! Opened over storage ([`DurableMsgBox::open`]), every state change is
//! a WAL record appended *before* the caller sees success, so
//! "acknowledged" means "survives a crash":
//!
//! * `create` / `destroy` are durable before they return;
//! * `deposit` appends, enqueues, then group-commits — the 202 to the
//!   depositor is not sent until the record is fsynced; `deposit_batch`
//!   does the same for a run of deposits behind **one** durability
//!   barrier (append them all, commit the highest LSN once);
//! * `fetch` appends an `Ack` covering the drained prefix and makes it
//!   durable **before** returning the messages, so a crash can never
//!   re-deliver a message some consumer already received (at-most-once
//!   pickup; a message is only "delivered" once fetch returns).
//!
//! Mailbox depth is then bounded by disk, not RAM: message bodies are
//! cached in memory only up to `memory_budget_bytes`; beyond that a
//! message is a 48-byte reference and its body is read back from the
//! segment file on fetch (`spilled_bytes` gauge tracks how much lives
//! only on disk). Per-tenant byte quotas bound the disk side; expiry
//! (`expires_at`, supplied by the caller's clock) is the retention
//! policy.
//!
//! Without a log ([`DurableMsgBox::without_log`]) the same store is the
//! paper's RAM-only WS-MsgBox: nothing is appended or committed, every
//! body stays resident, no instrument is registered, a crash loses
//! everything, and a box holds at most 10 000 messages. Every other
//! rule — ids, keys, order, expiry, admission, quota, the books — is the
//! same code.
//!
//! Lock order: `store.msgbox` → `wal.inner` (audited by
//! `OrderedMutex`). Group-commit waits happen *outside* the mailbox
//! lock so depositors to other boxes aren't serialized behind an fsync.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::io;

use wsd_concurrent::OrderedMutex;
use wsd_telemetry::{Counter, Gauge, Scope};

use crate::record::Op;
use crate::storage::Storage;
use crate::wal::{AppendInfo, RecoveryReport, Wal, WalConfig};

/// Most messages a box with no log holds: RAM is its only bound. A
/// logged box is bounded by disk and the tenant quota instead.
const UNLOGGED_BOX_CAP: usize = 10_000;

/// Durable-store tuning.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// WAL knobs (segment size, sync policy).
    pub wal: WalConfig,
    /// Total message-body bytes kept cached in RAM; beyond this,
    /// deposits spill (body re-read from the segment on fetch).
    pub memory_budget_bytes: u64,
    /// Queued-body byte cap per tenant; deposits past it are rejected.
    pub quota_bytes_per_tenant: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            wal: WalConfig::default(),
            memory_budget_bytes: 64 * 1024 * 1024,
            quota_bytes_per_tenant: u64::MAX,
        }
    }
}

/// Mailbox-store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// No mailbox with that id (or it was destroyed).
    NoSuchBox,
    /// Wrong access key.
    WrongKey,
    /// A box with no log already holds its cap of messages.
    BoxFull,
    /// The tenant's queued bytes would exceed its quota.
    QuotaExceeded,
    /// The log or segment store failed.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchBox => f.write_str("no such mailbox"),
            StoreError::WrongKey => f.write_str("wrong mailbox access key"),
            StoreError::BoxFull => f.write_str("mailbox full"),
            StoreError::QuotaExceeded => f.write_str("tenant byte quota exceeded"),
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// A message handed back by [`DurableMsgBox::fetch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedMessage {
    /// The serialized envelope.
    pub body: String,
    /// Deposit time (µs, caller's clock).
    pub received_at: u64,
    /// Drop-dead time (µs).
    pub expires_at: u64,
}

/// A queued message: where its body lives in the log (all zero without
/// one), plus the cached copy if it fit the memory budget.
struct MsgRef {
    lsn: u64,
    seg_base: u64,
    body_off: u64,
    body_len: u64,
    received_at: u64,
    expires_at: u64,
    cached: Option<String>,
}

struct BoxState {
    key: String,
    tenant: String,
    created_at: u64,
    queue: VecDeque<MsgRef>,
    /// No queued message expires before this (`u64::MAX` while none
    /// is queued): below it a prune has nothing to drop, so a box is
    /// scanned at most once per run of deposits, and not at all until
    /// something is due.
    next_expiry: u64,
}

impl BoxState {
    fn new(key: String, tenant: String, created_at: u64) -> BoxState {
        BoxState {
            key,
            tenant,
            created_at,
            queue: VecDeque::new(),
            next_expiry: u64::MAX,
        }
    }

    fn push(&mut self, m: MsgRef) {
        self.next_expiry = self.next_expiry.min(m.expires_at);
        self.queue.push_back(m);
    }

    /// Drops the messages expired at `now`, taking them off the books.
    fn prune(&mut self, now: u64, books: &mut Books) {
        if now < self.next_expiry {
            return;
        }
        let (mut next_expiry, mut freed) = (u64::MAX, 0);
        self.queue.retain(|m| {
            let keep = m.expires_at > now;
            if keep {
                next_expiry = next_expiry.min(m.expires_at);
            } else {
                freed += books.release(m);
            }
            keep
        });
        self.next_expiry = next_expiry;
        books.refund(&self.tenant, freed);
    }
}

/// What the queued messages hold, kept in step with every queue change.
#[derive(Default)]
struct Books {
    /// Live (queued, unexpired) body bytes per tenant.
    tenant_bytes: HashMap<String, u64>,
    /// Cached body bytes in RAM.
    resident_bytes: u64,
    /// Spilled body bytes (on disk only).
    spilled_bytes: u64,
    /// Live deposit count per segment; a sealed segment at zero is
    /// garbage.
    live_per_segment: HashMap<u64, u64>,
}

impl Books {
    fn charge(&mut self, tenant: &str, n: u64) {
        match self.tenant_bytes.get_mut(tenant) {
            Some(v) => *v += n,
            None => {
                self.tenant_bytes.insert(tenant.to_string(), n);
            }
        }
    }

    fn refund(&mut self, tenant: &str, n: u64) {
        if let Some(v) = self.tenant_bytes.get_mut(tenant) {
            *v = v.saturating_sub(n);
        }
    }

    /// Takes a message leaving its queue (fetched, expired, destroyed)
    /// off the books but for its tenant's bytes, which it returns: the
    /// caller refunds a batch's at once.
    fn release(&mut self, m: &MsgRef) -> u64 {
        match m.cached {
            Some(_) => self.resident_bytes -= m.body_len,
            None => self.spilled_bytes -= m.body_len,
        }
        if let Some(v) = self.live_per_segment.get_mut(&m.seg_base) {
            *v = v.saturating_sub(1);
        }
        m.body_len
    }
}

#[derive(Default)]
struct Inner {
    boxes: HashMap<String, BoxState>,
    books: Books,
    /// Segments no longer being appended to.
    sealed_segments: BTreeSet<u64>,
}

impl Inner {
    /// Queues a deposit whose tenant is already charged; `at` is where
    /// the log put it (`None` without a log). The body stays cached
    /// while `budget` has room; past it the log holds the only copy.
    fn enqueue(
        &mut self,
        box_id: &str,
        body: String,
        at: Option<AppendInfo>,
        received_at: u64,
        expires_at: u64,
        budget: u64,
    ) {
        let body_len = body.len() as u64;
        let (lsn, seg_base, body_off) = match at {
            Some(info) => {
                *self.books.live_per_segment.entry(info.seg_base).or_insert(0) += 1;
                (info.lsn, info.seg_base, info.payload_off + Op::deposit_body_offset(box_id))
            }
            None => (0, 0, 0),
        };
        // A cached body is the caller's `String`, moved, not cloned.
        let cached = if self.books.resident_bytes + body_len <= budget {
            self.books.resident_bytes += body_len;
            Some(body)
        } else {
            self.books.spilled_bytes += body_len;
            None
        };
        self.boxes.get_mut(box_id).expect("a queued deposit has a box").push(MsgRef {
            lsn,
            seg_base,
            body_off,
            body_len,
            received_at,
            expires_at,
            cached,
        });
    }

    /// Removes a box, taking everything queued in it off the books.
    fn remove_box(&mut self, id: &str) {
        if let Some(mbox) = self.boxes.remove(id) {
            let freed = mbox.queue.iter().map(|m| self.books.release(m)).sum();
            self.books.refund(&mbox.tenant, freed);
        }
    }
}

struct BoxMetrics {
    resident_gauge: Gauge,
    spilled_gauge: Gauge,
    quota_rejections: Counter,
}

/// The mailbox store, WAL-backed or (with no log) RAM-only. Ids and keys
/// are supplied by the caller, so both modes mint identical addresses.
pub struct DurableMsgBox {
    config: StoreConfig,
    wal: Option<Wal>,
    inner: OrderedMutex<Inner>,
    metrics: BoxMetrics,
}

impl DurableMsgBox {
    /// Opens the store over `storage`, replaying any existing log.
    /// Messages already expired at `now` are dropped during replay.
    pub fn open(
        config: StoreConfig,
        storage: Box<dyn Storage>,
        scope: &Scope,
        now: u64,
    ) -> io::Result<(DurableMsgBox, RecoveryReport)> {
        let mut inner = Inner::default();
        let budget = config.memory_budget_bytes;
        let (wal, report) = Wal::open(config.wal.clone(), storage, scope, |info, op| {
            replay_op(&mut inner, info, op, now, budget);
        })?;
        // Everything but the segment being appended to is sealed.
        let cur = wal.current_segment();
        inner.sealed_segments.retain(|&b| b != cur);
        let store = DurableMsgBox::new(config, Some(wal), inner, scope);
        // Segments whose deposits were all acked before the crash are
        // reclaimable immediately.
        store.gc().map_err(io::Error::other)?;
        Ok((store, report))
    }

    /// The store with no log: the paper's RAM-only WS-MsgBox. No record
    /// is written, no body spills, no instrument is registered; a box
    /// holds at most 10 000 messages.
    pub fn without_log() -> DurableMsgBox {
        DurableMsgBox::new(StoreConfig::default(), None, Inner::default(), &Scope::noop())
    }

    fn new(config: StoreConfig, wal: Option<Wal>, inner: Inner, scope: &Scope) -> DurableMsgBox {
        let metrics = BoxMetrics {
            resident_gauge: scope.gauge("resident_bytes"),
            spilled_gauge: scope.gauge("spilled_bytes"),
            quota_rejections: scope.counter("quota_rejections"),
        };
        let store = DurableMsgBox {
            config,
            wal,
            inner: OrderedMutex::new("store.msgbox", inner),
            metrics,
        };
        store.update_gauges(&store.inner.lock());
        store
    }

    /// Registers a mailbox under caller-minted `id`/`key`. Durable
    /// before returning.
    pub fn create(&self, id: &str, key: &str, tenant: &str, now: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        inner
            .boxes
            .insert(id.to_string(), BoxState::new(key.to_string(), tenant.to_string(), now));
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        // Appended under the mailbox lock, so a concurrent rotation's
        // checkpoint can never order itself between insert and record
        // and miss the box.
        let lsn = wal
            .append(&Op::Create {
                id: id.to_string(),
                key: key.to_string(),
                tenant: tenant.to_string(),
                created_at: now,
            })?
            .lsn;
        drop(inner);
        wal.commit(lsn)?;
        acked(wal, lsn, "create");
        Ok(())
    }

    /// Deposits a message; returns only once the record is durable
    /// (group commit amortizes the fsync across concurrent depositors).
    pub fn deposit(
        &self,
        box_id: &str,
        body: String,
        now: u64,
        expires_at: u64,
    ) -> Result<(), StoreError> {
        self.deposit_batch([(box_id, body)], now, expires_at)
            .pop()
            .expect("one result per deposit")
    }

    /// Deposits a run of messages behind one durability barrier: the
    /// accepted records are appended in order with one write, then a
    /// single commit of the highest LSN covers them all, and only then
    /// does anything report `Ok` — one write and one fsync for the run
    /// instead of one of each per message. Results are in input order; a
    /// rejected deposit (missing box, full box, quota) is an `Err` in
    /// its own slot and appends nothing, its neighbours unaffected. A
    /// log failure fails every deposit not already rejected and stores
    /// none. Without a log each admitted deposit is queued at once.
    pub fn deposit_batch<'a>(
        &self,
        deposits: impl IntoIterator<Item = (&'a str, String)>,
        now: u64,
        expires_at: u64,
    ) -> Vec<Result<(), StoreError>> {
        let deposits = deposits.into_iter();
        let mut results = Vec::with_capacity(deposits.size_hint().0);
        let (wal, last_lsn, log_failure) = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            // Admission sees the run's earlier deposits.
            let mut ops = Vec::new();
            for (box_id, body) in deposits {
                if let Err(e) = self.admit(inner, box_id, body.len() as u64, now) {
                    results.push(Err(e));
                    continue;
                }
                results.push(Ok(()));
                match self.wal {
                    // Nothing to wait for, and nowhere to spill to.
                    None => inner.enqueue(box_id, body, None, now, expires_at, u64::MAX),
                    Some(_) => ops.push(Op::Deposit {
                        box_id: box_id.to_string(),
                        received_at: now,
                        expires_at,
                        body,
                    }),
                }
            }
            let Some(wal) = &self.wal else {
                self.update_gauges(inner);
                return results;
            };
            // LSN 0 precedes every record: committing it is a no-op.
            let mut last_lsn = 0;
            let mut log_failure = None;
            if !ops.is_empty() {
                match self.rotate_if_full(wal, inner).and_then(|()| wal.append_run(&ops)) {
                    Ok(infos) => {
                        let budget = self.config.memory_budget_bytes;
                        for (op, info) in ops.into_iter().zip(infos) {
                            let Op::Deposit { box_id, body, .. } = op else {
                                unreachable!("the run holds only deposits");
                            };
                            inner.enqueue(&box_id, body, Some(info), now, expires_at, budget);
                            last_lsn = info.lsn;
                        }
                    }
                    Err(e) => {
                        // Nothing was queued: give the admitted bytes back.
                        for op in &ops {
                            if let Op::Deposit { box_id, body, .. } = op {
                                let tenant = &inner.boxes[box_id].tenant;
                                inner.books.refund(tenant, body.len() as u64);
                            }
                        }
                        log_failure = Some(StoreError::from(e));
                    }
                }
            }
            self.update_gauges(inner);
            (wal, last_lsn, log_failure)
        };
        // The one fsync wait, outside the mailbox lock.
        let barrier = wal.commit(last_lsn).map_err(StoreError::from).and_then(|()| self.gc());
        if let Err(e) = log_failure.map_or(barrier, Err) {
            // Nothing appended here may be acknowledged.
            for r in results.iter_mut().filter(|r| r.is_ok()) {
                *r = Err(e.clone());
            }
        } else {
            acked(wal, last_lsn, "deposit_batch");
        }
        results
    }

    /// The admission rule of both modes: prune the box of what has
    /// expired, apply the cap of a box with no log, then charge the
    /// tenant's quota.
    fn admit(&self, inner: &mut Inner, box_id: &str, body_len: u64, now: u64) -> Result<(), StoreError> {
        let Some(mbox) = inner.boxes.get_mut(box_id) else {
            return Err(StoreError::NoSuchBox);
        };
        mbox.prune(now, &mut inner.books);
        if self.wal.is_none() && mbox.queue.len() >= UNLOGGED_BOX_CAP {
            return Err(StoreError::BoxFull);
        }
        let used = inner.books.tenant_bytes.get(&mbox.tenant).copied().unwrap_or(0);
        if used.saturating_add(body_len) > self.config.quota_bytes_per_tenant {
            self.metrics.quota_rejections.inc();
            return Err(StoreError::QuotaExceeded);
        }
        inner.books.charge(&mbox.tenant, body_len);
        Ok(())
    }

    fn rotate_if_full(&self, wal: &Wal, inner: &mut Inner) -> io::Result<()> {
        if wal.needs_rotation() {
            let old = wal.current_segment();
            if wal.rotate(boxes_snapshot(inner))?.is_some() {
                inner.sealed_segments.insert(old);
            }
        }
        Ok(())
    }

    /// Fetches up to `max` messages in arrival order. The covering ack
    /// is durable before the messages are returned: after a crash,
    /// nothing a consumer has seen is ever handed out again. A failed
    /// read of a spilled body leaves the box as it was.
    pub fn fetch(
        &self,
        id: &str,
        key: &str,
        max: usize,
        now: u64,
    ) -> Result<Vec<FetchedMessage>, StoreError> {
        let (wal, out, ack_lsn) = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            let Some(mbox) = inner.boxes.get_mut(id) else {
                return Err(StoreError::NoSuchBox);
            };
            if mbox.key != key {
                return Err(StoreError::WrongKey);
            }
            mbox.prune(now, &mut inner.books);
            let n = max.min(mbox.queue.len());
            // Every spilled body is read before anything leaves the queue.
            let spilled: Result<Vec<String>, StoreError> = mbox
                .queue
                .range(..n)
                .filter(|m| m.cached.is_none())
                .map(|m| self.read_spilled(m))
                .collect();
            let mut spilled = match spilled {
                Ok(bodies) => bodies.into_iter(),
                Err(e) => {
                    self.update_gauges(inner);
                    return Err(e);
                }
            };
            let mut out = Vec::with_capacity(n);
            let (mut upto, mut freed) = (0, 0);
            for m in mbox.queue.drain(..n) {
                freed += inner.books.release(&m);
                upto = m.lsn;
                out.push(FetchedMessage {
                    body: m.cached.unwrap_or_else(|| spilled.next().expect("read above")),
                    received_at: m.received_at,
                    expires_at: m.expires_at,
                });
            }
            inner.books.refund(&mbox.tenant, freed);
            self.update_gauges(inner);
            let Some(wal) = &self.wal else {
                return Ok(out);
            };
            if out.is_empty() {
                return Ok(out);
            }
            let ack = wal.append(&Op::Ack {
                box_id: id.to_string(),
                upto_lsn: upto,
            })?;
            (wal, out, ack.lsn)
        };
        wal.commit(ack_lsn)?;
        self.gc()?;
        acked(wal, ack_lsn, "fetch");
        Ok(out)
    }

    /// Adopts a dead member's store: every box of `dead` is recreated here
    /// with its id, key and tenant (or merged into the box here with that
    /// id and key), every message it still queues — acknowledged to its
    /// depositor, never fetched — is deposited here, keeping its expiry,
    /// and only then is it acked in `dead`. Each step is durable before the
    /// next begins, so after a crash part-way the rest is still unacked in
    /// `dead` and adopting it again completes the move: adoption can
    /// duplicate a message, never lose one. Messages that expire together
    /// share one durability barrier. An id that exists here under another
    /// key is [`StoreError::WrongKey`], and nothing of that box moves.
    /// Returns how many messages each box that held mail gave up, in id
    /// order.
    pub fn adopt(&self, dead: &DurableMsgBox, now: u64) -> Result<Vec<(String, usize)>, StoreError> {
        let boxes = boxes_snapshot(&dead.inner.lock());
        let mut moved = Vec::new();
        for (id, key, tenant, created_at) in boxes {
            let same_key = self.inner.lock().boxes.get(&id).map(|b| b.key == key);
            match same_key {
                Some(false) => return Err(StoreError::WrongKey),
                Some(true) => {}
                None => self.create(&id, &key, &tenant, created_at)?,
            }
            let queued = dead.queued(&id, now)?;
            for run in queued.chunk_by(|a, b| a.expires_at == b.expires_at) {
                let bodies = run.iter().map(|m| (id.as_str(), m.body.clone()));
                let stored = self.deposit_batch(bodies, now, run[0].expires_at);
                stored.into_iter().collect::<Result<(), _>>()?;
            }
            if !queued.is_empty() {
                dead.fetch(&id, &key, queued.len(), now)?;
                moved.push((id, queued.len()));
            }
        }
        Ok(moved)
    }

    /// Everything box `id` queues at `now`, bodies read back; nothing
    /// leaves the box.
    fn queued(&self, id: &str, now: u64) -> Result<Vec<FetchedMessage>, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mbox = inner.boxes.get_mut(id).ok_or(StoreError::NoSuchBox)?;
        mbox.prune(now, &mut inner.books);
        let queued = mbox.queue.iter().map(|m| {
            let body = match &m.cached {
                Some(body) => body.clone(),
                None => self.read_spilled(m)?,
            };
            Ok(FetchedMessage { body, received_at: m.received_at, expires_at: m.expires_at })
        });
        let queued = queued.collect();
        self.update_gauges(inner);
        queued
    }

    fn read_spilled(&self, m: &MsgRef) -> Result<String, StoreError> {
        let wal = self.wal.as_ref().expect("only a store with a log spills");
        let bytes = wal.read_at(m.seg_base, m.body_off, m.body_len)?;
        String::from_utf8(bytes).map_err(|_| StoreError::Io("spilled body not utf-8".into()))
    }

    /// Number of messages waiting (after expiry pruning).
    pub fn len(&self, id: &str, now: u64) -> Result<usize, StoreError> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let Some(mbox) = inner.boxes.get_mut(id) else {
            return Err(StoreError::NoSuchBox);
        };
        mbox.prune(now, &mut inner.books);
        Ok(mbox.queue.len())
    }

    /// Destroys a mailbox and everything queued in it. Durable before
    /// returning.
    pub fn destroy(&self, id: &str, key: &str) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        match inner.boxes.get(id) {
            None => return Err(StoreError::NoSuchBox),
            Some(mbox) if mbox.key != key => return Err(StoreError::WrongKey),
            Some(_) => inner.remove_box(id),
        }
        self.update_gauges(&inner);
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let lsn = wal.append(&Op::Destroy { box_id: id.to_string() })?.lsn;
        drop(inner);
        wal.commit(lsn)?;
        self.gc()?;
        acked(wal, lsn, "destroy");
        Ok(())
    }

    /// Whether a mailbox exists.
    pub fn exists(&self, id: &str) -> bool {
        self.inner.lock().boxes.contains_key(id)
    }

    /// Number of live mailboxes.
    pub fn box_count(&self) -> usize {
        self.inner.lock().boxes.len()
    }

    /// Drops expired messages everywhere; returns how many were
    /// dropped. (Expiry is the retention policy: no record is written —
    /// replay re-applies the same cutoff.)
    pub fn expire_all(&self, now: u64) -> usize {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut dropped = 0;
        for mbox in inner.boxes.values_mut() {
            let before = mbox.queue.len();
            mbox.prune(now, &mut inner.books);
            dropped += before - mbox.queue.len();
        }
        self.update_gauges(inner);
        dropped
    }

    /// Age of a mailbox in µs, if it exists.
    pub fn age(&self, id: &str, now: u64) -> Option<u64> {
        self.inner
            .lock()
            .boxes
            .get(id)
            .map(|m| now.saturating_sub(m.created_at))
    }

    /// Body bytes living only on disk right now.
    pub fn spilled_bytes(&self) -> u64 {
        self.inner.lock().books.spilled_bytes
    }

    /// Body bytes cached in RAM right now: with no log, every queued
    /// body — the quantity that hits the §4.3.2 heap wall.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().books.resident_bytes
    }

    /// Queued body bytes charged to `tenant`.
    pub fn tenant_bytes(&self, tenant: &str) -> u64 {
        self.inner.lock().books.tenant_bytes.get(tenant).copied().unwrap_or(0)
    }

    /// The log, if the store has one (its fsync/byte counters feed the
    /// sim's disk model).
    pub fn log(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The log of a store opened over storage. Panics on a store
    /// without one.
    pub fn wal(&self) -> &Wal {
        self.log().expect("a store opened over storage has a log")
    }

    fn update_gauges(&self, inner: &Inner) {
        self.metrics.resident_gauge.set(inner.books.resident_bytes as i64);
        self.metrics.spilled_gauge.set(inner.books.spilled_bytes as i64);
    }

    /// Deletes the longest *prefix* of sealed segments with no live
    /// deposits. Prefix-only matters: a later segment can hold the Ack
    /// or Destroy records that neutralize an earlier one, so a segment
    /// is only deletable once everything before it is too — otherwise
    /// replay would revive acked messages or destroyed boxes. Called
    /// only after a commit, so every ack that emptied a segment is
    /// already durable.
    fn gc(&self) -> Result<(), StoreError> {
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut dead: Vec<u64> = Vec::new();
        for &base in inner.sealed_segments.iter() {
            if inner.books.live_per_segment.get(&base).copied().unwrap_or(0) == 0 {
                dead.push(base);
            } else {
                break;
            }
        }
        for base in dead {
            wal.delete_segment(base)?;
            inner.sealed_segments.remove(&base);
            inner.books.live_per_segment.remove(&base);
        }
        Ok(())
    }
}

/// An ack point's check (debug builds): `op` is about to report success
/// for the record at `lsn`, which must be durable by now.
fn acked(wal: &Wal, lsn: u64, op: &str) {
    #[cfg(debug_assertions)]
    assert!(wal.is_durable(lsn), "`{op}` acknowledges LSN {lsn} before it is durable");
    #[cfg(not(debug_assertions))]
    let _ = (wal, lsn, op);
}

fn boxes_snapshot(inner: &Inner) -> Vec<(String, String, String, u64)> {
    let mut snapshot: Vec<_> = inner
        .boxes
        .iter()
        .map(|(id, b)| (id.clone(), b.key.clone(), b.tenant.clone(), b.created_at))
        .collect();
    snapshot.sort();
    snapshot
}

fn replay_op(inner: &mut Inner, info: AppendInfo, op: Op, now: u64, memory_budget: u64) {
    inner.sealed_segments.insert(info.seg_base);
    match op {
        Op::Create { id, key, tenant, created_at } => {
            inner
                .boxes
                .entry(id)
                .or_insert_with(|| BoxState::new(key, tenant, created_at));
        }
        Op::Checkpoint { boxes } => {
            // A checkpoint is the authoritative set of live boxes at
            // rotation time: a replayed box missing from it was
            // destroyed in a segment that GC has since deleted, so it
            // (and its accounting) goes away here.
            let live: HashSet<&String> = boxes.iter().map(|(id, ..)| id).collect();
            let dead: Vec<String> = inner
                .boxes
                .keys()
                .filter(|id| !live.contains(id))
                .cloned()
                .collect();
            for id in dead {
                inner.remove_box(&id);
            }
            for (id, key, tenant, created_at) in boxes {
                inner
                    .boxes
                    .entry(id)
                    .or_insert_with(|| BoxState::new(key, tenant, created_at));
            }
        }
        Op::Deposit { box_id, received_at, expires_at, body } => {
            if expires_at <= now {
                return; // retention: already expired, don't resurrect
            }
            let Some(mbox) = inner.boxes.get(&box_id) else {
                return; // destroyed later in the log, or never created
            };
            inner.books.charge(&mbox.tenant, body.len() as u64);
            inner.enqueue(&box_id, body, Some(info), received_at, expires_at, memory_budget);
        }
        Op::Ack { box_id, upto_lsn } => {
            let Some(mbox) = inner.boxes.get_mut(&box_id) else {
                return;
            };
            let mut freed = 0;
            while mbox.queue.front().is_some_and(|m| m.lsn <= upto_lsn) {
                let m = mbox.queue.pop_front().expect("front checked");
                freed += inner.books.release(&m);
            }
            inner.books.refund(&mbox.tenant, freed);
        }
        Op::Destroy { box_id } => inner.remove_box(&box_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::wal::SyncMode;

    fn config() -> StoreConfig {
        StoreConfig {
            wal: WalConfig {
                sync: SyncMode::Always,
                ..WalConfig::default()
            },
            ..StoreConfig::default()
        }
    }

    fn open(mem: &MemStorage, cfg: StoreConfig, now: u64) -> DurableMsgBox {
        DurableMsgBox::open(cfg, Box::new(mem.clone()), &Scope::noop(), now)
            .unwrap()
            .0
    }

    /// The store with a log (on an in-memory disk) and without one.
    fn both() -> [DurableMsgBox; 2] {
        [open(&MemStorage::new(), config(), 0), DurableMsgBox::without_log()]
    }

    fn bodies(got: Vec<FetchedMessage>) -> Vec<String> {
        got.into_iter().map(|m| m.body).collect()
    }

    #[test]
    fn create_deposit_fetch_destroy_cycle() {
        for s in both() {
            s.create("mbox-1", "key-1", "t", 0).unwrap();
            s.deposit("mbox-1", "<m1/>".into(), 10, 1_000).unwrap();
            s.deposit("mbox-1", "<m2/>".into(), 20, 1_000).unwrap();
            assert_eq!(s.len("mbox-1", 30).unwrap(), 2);
            assert_eq!(bodies(s.fetch("mbox-1", "key-1", 10, 30).unwrap()), ["<m1/>", "<m2/>"]);
            assert_eq!(s.len("mbox-1", 30).unwrap(), 0);
            s.destroy("mbox-1", "key-1").unwrap();
            assert!(!s.exists("mbox-1"));
            assert_eq!(
                s.deposit("mbox-1", "x".into(), 40, 1_000),
                Err(StoreError::NoSuchBox)
            );
            assert_eq!(s.fetch("mbox-1", "bad", 1, 0), Err(StoreError::NoSuchBox));
        }
    }

    /// Each ack point under group commit with `flush_batch > 1`, where an
    /// append alone syncs nothing (`Always` would sync it and hide a
    /// skipped commit): once the operation returns, a crash that keeps
    /// nothing unsynced still has its effect.
    #[test]
    fn every_ack_point_is_durable_under_group_commit() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            wal: WalConfig { sync: SyncMode::GroupCommit { flush_batch: 64 }, ..WalConfig::default() },
            ..StoreConfig::default()
        };
        let s = open(&mem, cfg.clone(), 0);
        let crashed = || {
            let disk = mem.fork();
            disk.crash(|_| 0);
            open(&disk, cfg.clone(), 1)
        };
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        assert!(crashed().exists("mbox-1"), "create");
        s.deposit("mbox-1", "<m/>".into(), 0, 1_000).unwrap();
        assert_eq!(crashed().len("mbox-1", 1), Ok(1), "deposit");
        assert_eq!(bodies(s.fetch("mbox-1", "key-1", 10, 1).unwrap()), ["<m/>"]);
        assert_eq!(crashed().len("mbox-1", 1), Ok(0), "fetch");
        s.destroy("mbox-1", "key-1").unwrap();
        assert!(!crashed().exists("mbox-1"), "destroy");
    }

    #[test]
    fn wrong_key_rejected() {
        for s in both() {
            s.create("mbox-1", "key-1", "t", 0).unwrap();
            assert_eq!(s.fetch("mbox-1", "bad", 1, 0), Err(StoreError::WrongKey));
            assert_eq!(s.destroy("mbox-1", "bad"), Err(StoreError::WrongKey));
            assert!(s.exists("mbox-1"));
        }
    }

    #[test]
    fn concurrent_deposit_and_fetch_lose_nothing() {
        for s in both() {
            s.create("mbox-1", "key-1", "t", 0).unwrap();
            let got = std::thread::scope(|scope| {
                for t in 0..4 {
                    let s = &s;
                    scope.spawn(move || {
                        for i in 0..250 {
                            s.deposit("mbox-1", format!("{t}-{i}"), 0, u64::MAX).unwrap();
                        }
                    });
                }
                let fetcher = scope.spawn(|| {
                    let mut got = Vec::new();
                    while got.len() < 1000 {
                        got.extend(bodies(s.fetch("mbox-1", "key-1", 7, 0).unwrap()));
                    }
                    got
                });
                fetcher.join().unwrap()
            });
            let unique: HashSet<&String> = got.iter().collect();
            assert_eq!((got.len(), unique.len()), (1000, 1000));
            assert_eq!(s.len("mbox-1", 0).unwrap(), 0);
            assert_eq!((s.resident_bytes(), s.tenant_bytes("t")), (0, 0));
        }
    }

    #[test]
    fn without_a_log_every_body_stays_resident_and_nothing_is_written() {
        let s = DurableMsgBox::without_log();
        assert!(s.log().is_none());
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        s.deposit("mbox-1", "12345".into(), 0, 100).unwrap();
        s.deposit("mbox-1", "678".into(), 10, 110).unwrap();
        assert_eq!((s.resident_bytes(), s.spilled_bytes()), (8, 0));
        s.fetch("mbox-1", "key-1", 1, 20).unwrap();
        assert_eq!(s.resident_bytes(), 3);
        // Expiry releases the heap too (the second body dies at 110) …
        assert_eq!(s.expire_all(120), 1);
        assert_eq!(s.resident_bytes(), 0);
        // … and so does destroying a box with bodies still queued.
        s.deposit("mbox-1", "zz".into(), 130, 1_000).unwrap();
        assert_eq!(s.resident_bytes(), 2);
        s.destroy("mbox-1", "key-1").unwrap();
        assert_eq!((s.resident_bytes(), s.spilled_bytes(), s.tenant_bytes("t")), (0, 0, 0));
    }

    #[test]
    fn a_box_with_no_log_holds_at_most_10_000_messages() {
        let s = DurableMsgBox::without_log();
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        // The cap counts the run's own earlier deposits.
        let results = s.deposit_batch((0..=UNLOGGED_BOX_CAP).map(|i| ("mbox-1", i.to_string())), 0, u64::MAX);
        assert!(results[..UNLOGGED_BOX_CAP].iter().all(Result::is_ok));
        assert_eq!(results[UNLOGGED_BOX_CAP], Err(StoreError::BoxFull));
        assert_eq!(s.len("mbox-1", 0).unwrap(), UNLOGGED_BOX_CAP);
        // A pickup makes room.
        s.fetch("mbox-1", "key-1", 1, 0).unwrap();
        s.deposit("mbox-1", "again".into(), 0, u64::MAX).unwrap();
        // A box with a log is bounded by disk and quota, not by a count.
        let logged = open(&MemStorage::new(), config(), 0);
        logged.create("mbox-1", "key-1", "t", 0).unwrap();
        let results = logged.deposit_batch((0..=UNLOGGED_BOX_CAP).map(|i| ("mbox-1", i.to_string())), 0, u64::MAX);
        assert!(results.iter().all(Result::is_ok));
    }

    #[test]
    fn expired_messages_give_their_quota_back_on_deposit() {
        let cfg = StoreConfig {
            quota_bytes_per_tenant: 8,
            ..config()
        };
        let s = open(&MemStorage::new(), cfg, 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        s.deposit("mbox-1", "12345".into(), 0, 100).unwrap();
        // By 200 the first body has expired: it no longer holds the quota.
        s.deposit("mbox-1", "67890".into(), 200, 1_000).unwrap();
        assert_eq!(s.tenant_bytes("t"), 5);
        assert_eq!(bodies(s.fetch("mbox-1", "key-1", 10, 200).unwrap()), ["67890"]);
    }

    #[test]
    fn a_failed_spilled_read_leaves_the_box_as_it_was() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            memory_budget_bytes: 0, // everything spills
            ..config()
        };
        let s = open(&mem, cfg, 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        s.deposit("mbox-1", "spilled-1".into(), 1, u64::MAX).unwrap();
        s.deposit("mbox-1", "spilled-2".into(), 1, u64::MAX).unwrap();
        assert_eq!(s.spilled_bytes(), 18);
        // The disk loses the segment both bodies live in.
        let mut disk = mem.clone();
        for base in Storage::list_segments(&disk).unwrap() {
            disk.delete_segment(base).unwrap();
        }
        assert!(matches!(s.fetch("mbox-1", "key-1", 10, 2), Err(StoreError::Io(_))));
        assert_eq!(s.len("mbox-1", 2).unwrap(), 2);
        assert_eq!((s.spilled_bytes(), s.tenant_bytes("t")), (18, 18));
    }

    #[test]
    fn restart_preserves_unfetched_messages_only() {
        let mem = MemStorage::new();
        {
            let s = open(&mem, config(), 0);
            s.create("mbox-1", "key-1", "t", 0).unwrap();
            s.deposit("mbox-1", "picked-up".into(), 1, 1_000).unwrap();
            s.deposit("mbox-1", "waiting".into(), 2, 1_000).unwrap();
            let got = s.fetch("mbox-1", "key-1", 1, 5).unwrap();
            assert_eq!(got[0].body, "picked-up");
        }
        // "Crash" (drop) and reopen over the same disk.
        let s = open(&mem, config(), 10);
        assert!(s.exists("mbox-1"));
        let got = s.fetch("mbox-1", "key-1", 10, 10).unwrap();
        // The acked message is not re-delivered; the waiting one is.
        assert_eq!(
            got.iter().map(|m| m.body.as_str()).collect::<Vec<_>>(),
            vec!["waiting"]
        );
    }

    #[test]
    fn spill_beyond_memory_budget_and_read_back() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            memory_budget_bytes: 10,
            ..config()
        };
        let s = open(&mem, cfg.clone(), 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        s.deposit("mbox-1", "0123456789".into(), 0, 1_000).unwrap(); // fills budget
        s.deposit("mbox-1", "SPILLED-BODY".into(), 0, 1_000).unwrap();
        assert_eq!(s.resident_bytes(), 10);
        assert_eq!(s.spilled_bytes(), 12);
        let got = s.fetch("mbox-1", "key-1", 10, 1).unwrap();
        assert_eq!(got[1].body, "SPILLED-BODY");
        assert_eq!(s.spilled_bytes(), 0);
        assert_eq!(s.resident_bytes(), 0);

        // Spilled bodies also survive a restart.
        s.deposit("mbox-1", "0123456789".into(), 2, 1_000).unwrap();
        s.deposit("mbox-1", "SPILLED-TOO".into(), 2, 1_000).unwrap();
        drop(s);
        let s = open(&mem, cfg, 3);
        let got = s.fetch("mbox-1", "key-1", 10, 3).unwrap();
        assert_eq!(got[1].body, "SPILLED-TOO");
    }

    #[test]
    fn tenant_quota_rejects_and_frees_on_fetch() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            quota_bytes_per_tenant: 8,
            ..config()
        };
        let s = open(&mem, cfg, 0);
        s.create("mbox-a", "ka", "acme", 0).unwrap();
        s.create("mbox-b", "kb", "acme", 0).unwrap();
        s.create("mbox-c", "kc", "other", 0).unwrap();
        s.deposit("mbox-a", "12345".into(), 0, 1_000).unwrap();
        // 5 + 5 > 8, same tenant even though a different box.
        assert_eq!(
            s.deposit("mbox-b", "67890".into(), 0, 1_000),
            Err(StoreError::QuotaExceeded)
        );
        // Another tenant is unaffected.
        s.deposit("mbox-c", "67890".into(), 0, 1_000).unwrap();
        // Draining frees the budget.
        s.fetch("mbox-a", "ka", 10, 1).unwrap();
        s.deposit("mbox-b", "67890".into(), 1, 1_000).unwrap();
        assert_eq!(s.tenant_bytes("acme"), 5);
    }

    #[test]
    fn deposit_batch_is_one_barrier_and_rejections_stay_local() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            wal: WalConfig {
                sync: SyncMode::GroupCommit { flush_batch: 64 },
                ..WalConfig::default()
            },
            quota_bytes_per_tenant: 12,
            ..StoreConfig::default()
        };
        let s = open(&mem, cfg.clone(), 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        let before = s.wal().fsync_count();
        let results = s.deposit_batch(
            [
                ("mbox-1", "aaaa".to_string()),
                ("mbox-gone", "bbbb".to_string()),
                ("mbox-1", "cccc".to_string()),
                ("mbox-1", "too-big-for-the-quota".to_string()),
                ("mbox-1", "dddd".to_string()),
            ],
            1,
            1_000,
        );
        assert_eq!(
            results,
            vec![
                Ok(()),
                Err(StoreError::NoSuchBox),
                Ok(()),
                Err(StoreError::QuotaExceeded),
                Ok(()),
            ]
        );
        // Three records, one fsync — and they are durable: a crash that
        // keeps nothing unsynced still has all three, in order.
        assert_eq!(s.wal().fsync_count() - before, 1);
        drop(s);
        mem.crash(|_| 0);
        let s = open(&mem, cfg, 2);
        let got = s.fetch("mbox-1", "key-1", 10, 2).unwrap();
        assert_eq!(
            got.iter().map(|m| m.body.as_str()).collect::<Vec<_>>(),
            vec!["aaaa", "cccc", "dddd"]
        );
        // Nothing to store is nothing to sync.
        let before = s.wal().fsync_count();
        assert_eq!(s.deposit_batch([("nope", "x".to_string())], 3, 9), vec![Err(StoreError::NoSuchBox)]);
        assert_eq!(s.deposit_batch([], 3, 9), vec![]);
        assert_eq!(s.wal().fsync_count(), before);
    }

    #[test]
    fn expiry_is_retention_across_restart() {
        let mem = MemStorage::new();
        let s = open(&mem, config(), 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        s.deposit("mbox-1", "short-lived".into(), 0, 100).unwrap();
        s.deposit("mbox-1", "long-lived".into(), 0, 10_000).unwrap();
        assert_eq!(s.expire_all(100), 1);
        drop(s);
        // Reopen after the short TTL: only the long-lived one returns.
        let s = open(&mem, config(), 200);
        let got = s.fetch("mbox-1", "key-1", 10, 200).unwrap();
        assert_eq!(
            got.iter().map(|m| m.body.as_str()).collect::<Vec<_>>(),
            vec!["long-lived"]
        );
    }

    #[test]
    fn rotation_checkpoint_keeps_boxes_and_gc_bounds_disk() {
        let mem = MemStorage::new();
        let cfg = StoreConfig {
            wal: WalConfig {
                segment_bytes: 256, // rotate every few records
                sync: SyncMode::Always,
            },
            ..StoreConfig::default()
        };
        let s = open(&mem, cfg.clone(), 0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        for i in 0..50 {
            s.deposit("mbox-1", format!("msg-{i:03}"), i, u64::MAX).unwrap();
            s.fetch("mbox-1", "key-1", 10, i).unwrap();
        }
        // Everything is drained, so GC must have kept the log to the
        // live segment (plus nothing else).
        assert_eq!(Storage::list_segments(&mem).unwrap().len(), 1);
        // The box itself survives restart via segment-head checkpoints.
        drop(s);
        let s = open(&mem, cfg, 100);
        assert!(s.exists("mbox-1"));
        s.deposit("mbox-1", "after".into(), 100, u64::MAX).unwrap();
        assert_eq!(s.fetch("mbox-1", "key-1", 10, 100).unwrap()[0].body, "after");
    }

    /// Spilled bodies on real files: one fetch reads across rotations,
    /// GC deletes the segments behind it, and what recovery truncated
    /// is gone while what it kept is served.
    #[test]
    fn spilled_fetch_on_files_follows_rotation_gc_and_recovery() {
        use crate::storage::FsStorage;
        let dir = std::env::temp_dir().join(format!("wsd-store-spill-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            wal: WalConfig {
                segment_bytes: 256, // a few records a segment
                sync: SyncMode::Always,
            },
            memory_budget_bytes: 0, // everything spills
            ..StoreConfig::default()
        };
        let open_files = |now| {
            let storage = FsStorage::open(&dir).unwrap();
            DurableMsgBox::open(cfg.clone(), Box::new(storage), &Scope::noop(), now).unwrap().0
        };
        let segments = || Storage::list_segments(&FsStorage::open(&dir).unwrap()).unwrap();
        let body = |i: u64| format!("spilled-{i:03}-{}", "x".repeat(40));

        let s = open_files(0);
        s.create("mbox-1", "key-1", "t", 0).unwrap();
        for i in 0..30 {
            s.deposit("mbox-1", body(i), i, u64::MAX).unwrap();
        }
        assert_eq!(s.resident_bytes(), 0);
        let before = segments();
        assert!(before.len() > 5, "the backlog spans segments: {before:?}");
        // One fetch, bodies in several segments.
        let got = bodies(s.fetch("mbox-1", "key-1", 20, 30).unwrap());
        assert_eq!(got, (0..20).map(body).collect::<Vec<_>>());
        // Its ack emptied the segments it read from and GC deleted them
        // (the last one read included); the rest are still where they
        // were written.
        let after = segments();
        assert!(after.len() < before.len() && after[0] > before[0], "{before:?} -> {after:?}");
        assert_eq!(bodies(s.fetch("mbox-1", "key-1", 5, 30).unwrap()), (20..25).map(body).collect::<Vec<_>>());

        // A crash mid-append leaves a torn tail: recovery cuts it off.
        drop(s);
        let last = dir.join(format!("{:020}.wal", segments().last().unwrap()));
        let torn = Op::Deposit {
            box_id: "mbox-1".into(),
            received_at: 31,
            expires_at: u64::MAX,
            body: body(999),
        };
        let mut framed = Vec::new();
        torn.append_record_to(&mut framed);
        let mut file = std::fs::OpenOptions::new().append(true).open(&last).unwrap();
        std::io::Write::write_all(&mut file, &framed[..framed.len() - 7]).unwrap();
        drop(file);
        let s = open_files(31);
        s.deposit("mbox-1", body(30), 31, u64::MAX).unwrap();
        let got = bodies(s.fetch("mbox-1", "key-1", usize::MAX, 31).unwrap());
        assert_eq!(got, (25..31).map(body).collect::<Vec<_>>());
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adopt_moves_every_unfetched_body_and_acks_it_in_the_dead_store() {
        let (dead_disk, live_disk) = (MemStorage::new(), MemStorage::new());
        let cfg = StoreConfig {
            memory_budget_bytes: 4, // the dead store spilled some bodies
            ..config()
        };
        let dead = open(&dead_disk, cfg, 0);
        dead.create("svc-a", "k", "acme", 1).unwrap();
        dead.create("svc-b", "k", "acme", 2).unwrap();
        dead.create("empty", "k", "acme", 3).unwrap();
        dead.deposit("svc-a", "a1".into(), 10, 1_000).unwrap();
        dead.deposit("svc-a", "a2-spilled".into(), 11, 2_000).unwrap();
        dead.deposit("svc-a", "a3".into(), 12, 3_000).unwrap();
        dead.deposit("svc-b", "b1".into(), 13, 4_000).unwrap();
        dead.fetch("svc-a", "k", 1, 20).unwrap(); // a1 was delivered already
        // The live store has its own mail in a box of the same id and key.
        let live = open(&live_disk, config(), 0);
        live.create("svc-b", "k", "acme", 5).unwrap();
        live.deposit("svc-b", "b0".into(), 6, 5_000).unwrap();

        let moved = live.adopt(&dead, 30).unwrap();
        assert_eq!(moved, [("svc-a".to_string(), 2), ("svc-b".to_string(), 1)]);
        assert_eq!(live.box_count(), 3, "the empty box is recreated too");
        assert_eq!(live.age("svc-a", 30), Some(29), "the box keeps its creation time");
        drop(dead);
        assert_eq!(open(&dead_disk, config(), 30).len("svc-a", 30), Ok(0), "acked in the dead store");
        // Moved durably, each keeping its expiry; deposited at adoption.
        drop(live);
        let live = open(&live_disk, config(), 30);
        let got = live.fetch("svc-a", "k", 10, 30).unwrap();
        assert_eq!(
            got.iter().map(|m| (m.body.as_str(), m.received_at, m.expires_at)).collect::<Vec<_>>(),
            [("a2-spilled", 30, 2_000), ("a3", 30, 3_000)]
        );
        assert_eq!(bodies(live.fetch("svc-b", "k", 10, 30).unwrap()), ["b0", "b1"]);
        // Expiry still applies: nothing adopted outlives its time.
        let dead = open(&MemStorage::new(), config(), 0);
        dead.create("svc-c", "k", "acme", 0).unwrap();
        dead.deposit("svc-c", "short".into(), 0, 100).unwrap();
        assert!(live.adopt(&dead, 100).unwrap().is_empty());
        assert_eq!(live.tenant_bytes("acme"), 0);
    }

    #[test]
    fn adopting_a_box_held_under_another_key_is_refused() {
        let dead = open(&MemStorage::new(), config(), 0);
        dead.create("svc", "k-dead", "t", 0).unwrap();
        dead.deposit("svc", "m".into(), 0, u64::MAX).unwrap();
        let live = open(&MemStorage::new(), config(), 0);
        live.create("svc", "k-live", "t", 0).unwrap();
        assert_eq!(live.adopt(&dead, 1), Err(StoreError::WrongKey));
        assert_eq!(live.len("svc", 1), Ok(0));
        assert_eq!(dead.len("svc", 1), Ok(1), "nothing left the dead store");
    }

    /// A crash after the bodies are stored here but before the dead store
    /// acks them leaves them in both: the next adoption duplicates them.
    #[test]
    fn a_crash_mid_adoption_duplicates_and_loses_nothing() {
        let dead_disk = MemStorage::new();
        let dead = open(&dead_disk, config(), 0);
        dead.create("svc", "k", "t", 0).unwrap();
        for i in 0..3 {
            dead.deposit("svc", format!("m{i}"), i, u64::MAX).unwrap();
        }
        // The dead store's disk as it stands before the adoption's ack.
        let before_ack = dead_disk.fork();
        let live_disk = MemStorage::new();
        let live = open(&live_disk, config(), 0);
        live.adopt(&dead, 5).unwrap();
        drop(live);
        let live = open(&live_disk, config(), 6);
        assert_eq!(live.adopt(&open(&before_ack, config(), 6), 6).unwrap(), [("svc".to_string(), 3)]);
        let got = bodies(live.fetch("svc", "k", 10, 7).unwrap());
        assert_eq!(got, ["m0", "m1", "m2", "m0", "m1", "m2"]);
    }

    #[test]
    fn age_tracks_creation_time() {
        let mem = MemStorage::new();
        let s = open(&mem, config(), 0);
        s.create("mbox-1", "key-1", "t", 7).unwrap();
        assert_eq!(s.age("mbox-1", 17), Some(10));
        assert_eq!(s.age("nope", 17), None);
        assert_eq!(s.box_count(), 1);
    }
}
