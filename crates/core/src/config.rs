//! Dispatcher and mailbox configuration.

use std::time::Duration;

/// `CxThread` pool: threads pre-created to accept client messages, on
/// both threaded dispatchers.
pub(crate) const CX_CORE_THREADS: usize = 4;
/// `CxThread` pool growth ceiling.
pub(crate) const CX_MAX_THREADS: usize = 32;
/// `WsThread` pool: pre-created per-destination sender threads.
pub(crate) const WS_CORE_THREADS: usize = 4;
/// How many queued envelopes a `WsThread` coalesces per drain pass: one
/// serialization buffer, one write, one flush over the kept-open
/// connection, then the responses are read back in order. Both
/// MSG-Dispatchers and the simulated fleet instance drain this many.
pub(crate) const DRAIN_BATCH: usize = 16;
/// How long a route-table entry (forwarded request awaiting its reply)
/// survives before being dropped; the janitor sweeps every quarter of it.
pub(crate) const ROUTE_TTL: Duration = Duration::from_secs(300);

/// MSG-Dispatcher tuning. The paper's §4.2 "the sizes of the pools are
/// configurable" is `ws_max_threads` here and
/// [`MsgBoxStrategy::Pooled`]'s `workers`; the `CxThread` pool (4 grown
/// to 32) and the `WsThread` core (4) are constants of this module.
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// `WsThread` pool growth ceiling.
    pub ws_max_threads: usize,
    /// Capacity of each destination's FIFO queue.
    pub queue_capacity: usize,
    /// How long a `WsThread` keeps a destination connection open with no
    /// traffic before closing it (paper: "an open connection for a
    /// predefined time with a specified WS").
    pub connection_linger: Duration,
    /// Response timeout for RPC forwarding, and for each answer on a
    /// MSG-Dispatcher destination connection (a silent destination is a
    /// lost connection, not a parked `WsThread`).
    pub response_timeout: Duration,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            ws_max_threads: 32,
            queue_capacity: 1024,
            connection_linger: Duration::from_secs(15),
            response_timeout: Duration::from_secs(30),
        }
    }
}

/// Virtual nodes each dispatcher-tier instance contributes to the fleet's
/// consistent-hash ring ([`wsd_fleet::ShardRing`]), on both runtimes.
pub(crate) const RING_VNODES: u32 = 64;
/// Seed the fleet ring's layout derives from — fixed seed, fixed layout,
/// replayable netsim runs, and every member computes the same ring.
pub(crate) const RING_SEED: u64 = 0xF1EE_7001;
/// Commands the fleet's registry leader retains for follower partial
/// resync; a follower further behind full-resyncs from a snapshot.
pub const REPL_BACKLOG: usize = 1024;

/// What backs the one mailbox store, [`wsd_store::DurableMsgBox`]: the
/// two differ only in whether it keeps a log.
#[derive(Debug, Clone, Default)]
pub enum MailboxBackend {
    /// The paper's RAM-only store: the store with no log. Nothing is
    /// appended or fsynced and every body stays resident, so a crash
    /// drops every queued message, a box holds at most 10 000 messages,
    /// and total depth is bounded by the heap (see
    /// [`MsgBoxConfig::heap_budget_bytes`]).
    #[default]
    Memory,
    /// The store with a WAL: every acknowledged deposit survives a
    /// crash, bodies spill to disk past the store's memory budget, and
    /// per-tenant quotas bound the disk side. No per-box message cap —
    /// depth is bounded by disk/quota instead.
    Durable {
        /// WAL directory. `None` keeps the log on a process-local
        /// in-memory "disk" — deterministic, used by the simulation
        /// (durability then spans simulated restarts, not process
        /// restarts).
        dir: Option<std::path::PathBuf>,
        /// WAL, spill and quota tuning. The simulation requires
        /// `SyncMode::Always` (group-commit timing is wall-clock).
        store: wsd_store::StoreConfig,
    },
}

/// How WS-MsgBox handles reply work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgBoxStrategy {
    /// One thread per incoming message — the design whose
    /// `OutOfMemoryError` the paper reports at ~50 clients (§4.3.2).
    /// Kept to reproduce the bug.
    ThreadPerMessage,
    /// Fixed worker pool draining a FIFO — the redesign the paper says
    /// was in progress.
    Pooled {
        /// Number of worker threads.
        workers: usize,
    },
}

/// WS-MsgBox tuning. Admission is the store's and the same for both
/// backends: a deposit prunes its box of expired messages, then meets
/// the per-box cap (10 000, no log only), then the tenant quota.
#[derive(Debug, Clone)]
pub struct MsgBoxConfig {
    /// Reply-work strategy.
    pub strategy: MsgBoxStrategy,
    /// Stored message time-to-live (expired messages are dropped — the
    /// paper's "messages stored with expiration time" future work).
    pub message_ttl: Duration,
    /// Simulated native-thread budget for [`MsgBoxStrategy::ThreadPerMessage`]
    /// (the JVM's ceiling).
    pub thread_budget: usize,
    /// Mailbox storage backend.
    pub backend: MailboxBackend,
    /// Heap bytes the store may keep resident before the process is
    /// considered out of memory — the §4.3.2 "memory wall" for stored
    /// message *bodies*. The simulation crashes the service when the
    /// store with no log crosses it; the durable backend spills to disk
    /// instead and stays under its own `memory_budget_bytes`.
    pub heap_budget_bytes: usize,
}

impl Default for MsgBoxConfig {
    fn default() -> Self {
        MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 8 },
            message_ttl: Duration::from_secs(3600),
            thread_budget: 1000,
            backend: MailboxBackend::Memory,
            heap_budget_bytes: usize::MAX,
        }
    }
}
