//! Fleet scale-out primitives for the dispatcher tier.
//!
//! The paper funnels every asynchronous conversation through a single
//! dispatcher and a single registry; this crate holds the pure data
//! structures that let N dispatcher instances share that load:
//!
//! * [`ring`] — a consistent-hash ring with virtual nodes mapping
//!   logical service names to dispatcher instances. The layout is a
//!   deterministic function of a seed, so simulated fleet runs replay
//!   bit-identically.
//! * [`replog`] — a replication command log in the Redis PSYNC shape:
//!   a leader appends commands at monotonically increasing offsets and
//!   keeps a bounded backlog; a follower attaches with a full snapshot
//!   plus the leader offset, then tails the command stream, and a
//!   cursor rejects offset regressions and detects gaps that force a
//!   full resync.
//! * [`handoff`] — the ownership-handoff ledger: when an instance dies
//!   the ring reassigns its shard arcs and a designated successor
//!   recovers the dead instance's durable mailbox; the ledger tracks
//!   each handoff through announce → recover → complete and yields the
//!   rebalance latency.
//!
//! Everything here is runtime-agnostic and dependency-free: `wsd-core`
//! wires these pieces to the registry, the durable store and both
//! runtimes, with the ring's seed and virtual nodes and the leader's
//! backlog fixed in its `config` (`RING_SEED`, `RING_VNODES`,
//! `REPL_BACKLOG`).

#![warn(missing_docs)]

pub mod handoff;
pub mod replog;
pub mod ring;

pub use handoff::{Handoff, HandoffLog, HandoffState};
pub use replog::{Admit, FollowerCursor, ReplLog};
pub use ring::{InstanceId, ShardRing};
