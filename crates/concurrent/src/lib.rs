//! Concurrency substrate for the WS-Dispatcher.
//!
//! The paper's Java implementation is built on Doug Lea's *Concurrent Java
//! Library* (later `java.util.concurrent`): the MSG-Dispatcher uses two
//! managed thread pools and per-destination FIFO queues, and the service
//! registry uses a concurrent hash map. This crate provides the same
//! primitives, written from scratch on top of `parking_lot` locks:
//!
//! * [`FifoQueue`] — a bounded, blocking, multi-producer/multi-consumer
//!   first-in-first-out queue with close semantics,
//! * [`ShardedMap`] — a sharded concurrent hash map,
//! * [`ThreadPool`] — a worker pool with pre-start, on-demand growth up to a
//!   maximum size, and blocking submission when saturated (back-pressure),
//! * [`CountDownLatch`] — a one-shot completion barrier,
//! * [`ThreadBudget`] — a global cap on concurrently live threads, used to
//!   emulate the JVM `OutOfMemoryError` the paper hit when WS-MsgBox spawned
//!   one thread per message,
//! * [`Reactor`] — a run-to-completion connection scheduler that serves
//!   many open connections from a bounded handler pool (a connection's
//!   wake-up hook queues its job there directly), removing the
//!   thread-per-connection cost that produced that error,
//! * [`OrderedMutex`] / [`OrderedRwLock`] — lock-order-audited wrappers
//!   around the parking_lot primitives: under `debug_assertions` they
//!   record a global lock-acquisition graph and panic on cycles
//!   (deadlock potential) instead of letting a test run wedge.

#![warn(missing_docs)]

pub mod budget;
pub mod latch;
pub mod map;
pub mod ordered;
pub mod pool;
pub mod queue;
pub mod reactor;

pub use budget::{BudgetError, ThreadBudget, ThreadLease};
pub use latch::CountDownLatch;
pub use map::ShardedMap;
pub use ordered::{OrderedMutex, OrderedMutexGuard, OrderedRwLock};
pub use pool::{PoolConfig, TaskError, ThreadPool};
pub use queue::{FifoQueue, PopError, PushError};
pub use reactor::{Pump, Reactor, ReactorConn, Wakeup};
