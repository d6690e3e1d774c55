//! # wsd-telemetry
//!
//! Virtual-time-aware metrics for the WS-Dispatcher workspace.
//!
//! The paper's experiments (IPDPS'05 §5) report drops, queue depths,
//! thread usage and latencies across two very different runtimes: the
//! deterministic discrete-event simulation (`wsd-netsim`, virtual µs)
//! and the real threaded servers (`wsd-core::rt`, wall-clock). This
//! crate provides one instrument set that works in both:
//!
//! - [`Counter`] / [`Gauge`] — striped atomics / level + peak;
//! - [`Histogram`] — log-bucketed distribution with quantile queries
//!   (≤ 12.5% relative error, mergeable across registries);
//! - [`Clock`] — [`WallClock`] for the threaded runtime,
//!   [`VirtualClock`] driven by the simulator's event loop;
//! - [`Registry`] / [`Scope`] — hierarchical named instruments
//!   (`msg_dispatcher.dest{inria-echo}.queue_depth`);
//! - [`Snapshot`] — mergeable point-in-time capture with a JSON
//!   exporter.
//!
//! Instrumentation is opt-in at the composition root: components accept
//! a [`Scope`] and default to [`Scope::noop`], whose instruments record
//! but are attached to nothing — no branches on the hot path and no
//! effect on deterministic runs.
//!
//! ```
//! use wsd_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let disp = reg.scope("msg_dispatcher");
//! disp.counter("enqueued").inc();
//! disp.labeled("dest", "inria-echo").gauge("queue_depth").set(3);
//! disp.histogram("deliver_us").record(420);
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("msg_dispatcher.enqueued"), 1);
//! assert!(snap.to_json().contains("\"msg_dispatcher.enqueued\":1"));
//! ```

mod clock;
mod hist;
mod metrics;
mod registry;
mod snapshot;

pub use clock::{Clock, SharedClock, VirtualClock, WallClock};
pub use hist::Histogram;
pub use metrics::{Counter, Gauge};
pub use registry::{Registry, Scope};
pub use snapshot::{HistogramSummary, MetricValue, Snapshot, SnapshotEntry};

#[cfg(test)]
mod lib_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn registry_on_virtual_clock_stamps_virtual_time() {
        let clock = VirtualClock::new();
        let reg = Registry::with_clock(Arc::new(clock.clone()));
        clock.advance_to(1_000);
        reg.scope("x").counter("hits").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.at_us(), 1_000);
    }
}
