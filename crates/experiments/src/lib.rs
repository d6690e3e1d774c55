//! Reproduction of every table and figure in the paper's evaluation
//! (§4.3), on the deterministic simulated network.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — the 2×2 interaction-semantics matrix |
//! | [`fig4`] | Figure 4 — RPC, low broadband (iuLow ↔ inriaSlow) |
//! | [`fig5`] | Figure 5 — RPC, high connectivity (iuHigh ↔ inriaFast) |
//! | [`fig6`] | Figure 6 — asynchronous messaging (+ the WS-MsgBox OOM bug) |
//! | [`calibration`] | §4.3 link/host/message-size calibration table |
//! | [`connwall`] | §4.3.2 connection wall, rerun on the threaded runtime's reactor |
//! | [`fleet`] | scale-out extension — sharded fleet scaling + kill-one failover |
//!
//! Each module exposes a `run` function returning plain data (so the
//! Criterion benches and integration tests reuse it) and a `print`
//! helper producing the rows the paper plots. Absolute numbers come from
//! a simulator, not the authors' 2004 testbed; the shapes — who wins, by
//! roughly what factor, where the knees fall — are the reproduction
//! target (see `EXPERIMENTS.md`).

#![warn(missing_docs)]

pub mod calibration;
pub mod connwall;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fleet;
mod rpc_figure;
pub mod table1;
pub mod topology;

use std::sync::Arc;

use wsd_telemetry::{Registry, Scope, Snapshot, VirtualClock};

/// Per-point observation context: a telemetry registry whose snapshot
/// timestamp follows the simulation's virtual clock.
///
/// Each sweep point builds its own `Observed` (the points run in
/// parallel), and the figure runner merges the per-point snapshots into
/// one figure-level snapshot: counters sum, gauge peaks max.
pub struct Observed {
    /// The registry the point's actors publish into.
    pub registry: Registry,
    /// Clock handle the simulation advances.
    pub clock: VirtualClock,
}

impl Observed {
    /// A fresh registry on a fresh virtual clock at t=0.
    pub fn new() -> Observed {
        let clock = VirtualClock::new();
        Observed {
            registry: Registry::with_clock(Arc::new(clock.clone())),
            clock,
        }
    }

    /// A scope under this point's registry, or a no-op scope when
    /// observation is disabled (`obs` is `None`).
    pub(crate) fn scope_or_noop(obs: Option<&Observed>, name: &str) -> Scope {
        match obs {
            Some(o) => o.registry.scope(name),
            None => Scope::noop(),
        }
    }
}

impl Default for Observed {
    fn default() -> Self {
        Observed::new()
    }
}

/// Merges per-point snapshots into one figure-level snapshot.
pub(crate) fn merge_snapshots(snaps: Vec<Snapshot>) -> Snapshot {
    let mut iter = snaps.into_iter();
    let mut merged = iter.next().unwrap_or_default();
    for s in iter {
        merged.merge(&s);
    }
    merged
}

/// Runs sweep points in parallel, preserving input order.
pub(crate) fn parallel_map<T: Send, R: Send>(
    inputs: Vec<T>,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(inputs.len(), || None);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::new();
        for (slot, input) in out.iter_mut().zip(inputs) {
            handles.push(scope.spawn(move || {
                *slot = Some(f(input));
            }));
        }
        for h in handles {
            h.join().expect("sweep worker panicked");
        }
    });
    out.into_iter().map(|r| r.expect("filled")).collect()
}
