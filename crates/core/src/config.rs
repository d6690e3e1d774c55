//! Dispatcher and mailbox configuration.

use std::time::Duration;

use wsd_http::Limits;

/// MSG-Dispatcher tuning (paper §4.2: "the sizes of the pools are
/// configurable").
#[derive(Debug, Clone)]
pub struct DispatcherConfig {
    /// `CxThread` pool: pre-created threads accepting client messages.
    pub cx_core_threads: usize,
    /// `CxThread` pool growth ceiling.
    pub cx_max_threads: usize,
    /// `WsThread` pool: per-destination sender threads.
    pub ws_core_threads: usize,
    /// `WsThread` pool growth ceiling.
    pub ws_max_threads: usize,
    /// Capacity of each destination's FIFO queue.
    pub queue_capacity: usize,
    /// How many queued envelopes a `WsThread` coalesces per drain pass:
    /// one serialization buffer, one write, one flush over the kept-open
    /// connection, then the responses are read back in order.
    pub drain_batch: usize,
    /// How long a `WsThread` keeps a destination connection open with no
    /// traffic before closing it (paper: "an open connection for a
    /// predefined time with a specified WS").
    pub connection_linger: Duration,
    /// Response timeout for RPC forwarding, and for each answer on a
    /// MSG-Dispatcher destination connection (a silent destination is a
    /// lost connection, not a parked `WsThread`).
    pub response_timeout: Duration,
    /// How long a route-table entry (forwarded request awaiting its
    /// reply) survives before being dropped.
    pub route_ttl: Duration,
    /// HTTP parser limits applied to every accepted connection.
    pub limits: Limits,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            cx_core_threads: 4,
            cx_max_threads: 32,
            ws_core_threads: 4,
            ws_max_threads: 32,
            queue_capacity: 1024,
            drain_batch: 16,
            connection_linger: Duration::from_secs(15),
            response_timeout: Duration::from_secs(30),
            route_ttl: Duration::from_secs(300),
            limits: Limits::default(),
        }
    }
}

/// Dispatcher-tier scale-out configuration, read by the fleets of both
/// runtimes (`wsd_experiments::fleet::run_fleet`, `rt::FleetDeployment`)
/// and by no figure runner of the paper's own results.
///
/// The fleet shards logical service names across `instances` dispatcher
/// instances on a seeded consistent-hash ring ([`wsd_fleet::ShardRing`]),
/// replicates the registry leader → followers in the PSYNC shape, and
/// hands a dead instance's mailbox store to a successor.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Dispatcher instances in the tier (default 1: a ring of one, which
    /// replicates to nobody and has nobody to hand off to).
    pub instances: usize,
    /// Virtual nodes each instance contributes to the hash ring.
    pub vnodes: u32,
    /// Seed the ring layout derives from — fixed seed, fixed layout,
    /// replayable netsim runs.
    pub ring_seed: u64,
    /// Commands the registry leader retains for follower partial
    /// resync; a follower further behind full-resyncs from a snapshot.
    pub repl_backlog: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            instances: 1,
            vnodes: 64,
            ring_seed: 0xF1EE_7001,
            repl_backlog: 1024,
        }
    }
}

impl FleetConfig {
    /// Builds the tier's hash ring with instances `0..instances`.
    pub fn ring(&self) -> wsd_fleet::ShardRing {
        wsd_fleet::ShardRing::with_instances(self.ring_seed, self.vnodes, self.instances as u32)
    }
}

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
    /// HTTP parser limits applied to every accepted connection.
    pub limits: Limits,
}

impl Default for MsgBoxConfig {
    fn default() -> Self {
        MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 8 },
            message_ttl: Duration::from_secs(3600),
            thread_budget: 1000,
            backend: MailboxBackend::Memory,
            heap_budget_bytes: usize::MAX,
            limits: Limits::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let d = DispatcherConfig::default();
        assert!(d.cx_core_threads <= d.cx_max_threads);
        assert!(d.ws_core_threads <= d.ws_max_threads);
        assert!(d.queue_capacity > 0);
        assert!(d.drain_batch > 0);
        let m = MsgBoxConfig::default();
        assert!(matches!(m.strategy, MsgBoxStrategy::Pooled { workers } if workers > 0));
        assert!(m.thread_budget > 0);
    }
}
