//! # wsd-store
//!
//! WAL-backed durable storage for the WS-MsgBox mailboxes (ROADMAP
//! item 3). The paper's store-and-forward mailboxes are memory-only:
//! a dispatcher crash silently drops every queued message, and fig6's
//! client wall is wherever resident mailbox bytes exhaust RAM. This
//! crate removes both limits:
//!
//! * [`Wal`] — a segment-file write-ahead log: length-prefixed,
//!   CRC-32-checked records; timer-free leader/follower **group
//!   commit** (one fsync covers every record appended before it began,
//!   and runs with the log unlocked so the next batch piles up behind
//!   it); recovery replay with torn-tail truncation;
//!   checkpoint-at-rotation plus segment GC once a segment's deposits
//!   are all acked or expired.
//! * [`DurableMsgBox`] — the one WS-MsgBox store (create / deposit /
//!   fetch / destroy, access keys, TTL expiry). Over a log every
//!   acknowledgement is backed by a durable record, message bodies
//!   **spill to disk** past a configurable memory budget, and
//!   per-tenant byte quotas bound the disk side; without one
//!   ([`DurableMsgBox::without_log`]) it is the paper's RAM-only store.
//! * [`Storage`] — the segment-store abstraction: [`FsStorage`] (real
//!   files, real fsync) for the threaded runtime, [`MemStorage`] (a
//!   deterministic "disk" with an explicit seeded crash model) for the
//!   simulation backend and the crash-recovery property sweep.
//!
//! Durability contract, in two invariants the crash harnesses assert:
//!
//! 1. **No acknowledged deposit is lost** — if `deposit` returned `Ok`,
//!    the message is delivered by some fetch after any crash/restart
//!    (until it expires).
//! 2. **No message is delivered twice** — `fetch` makes its covering
//!    ack durable before handing messages back, so recovery never
//!    replays a message a consumer has already seen.

pub mod crc;
pub mod msgbox;
pub mod record;
pub mod storage;
pub mod wal;

pub use msgbox::{DurableMsgBox, FetchedMessage, StoreConfig, StoreError};
pub use record::Op;
pub use storage::{FsStorage, MemStorage, Storage, Syncer};
pub use wal::{AppendInfo, RecoveryReport, SyncMode, Wal, WalConfig};
