//! Global thread budget.
//!
//! The paper's WS-MsgBox bug (§4.3.2): the server spawned one thread per
//! incoming message; each Java native thread allocates a fixed stack, so a
//! burst of a few thousand messages raised `OutOfMemoryError` and took the
//! service down. To reproduce that failure mode faithfully — and to prove
//! the redesigned pooled strategy avoids it — thread-spawning components
//! acquire a [`ThreadLease`] from a shared [`ThreadBudget`] before spawning.
//! Exhausting the budget is the Rust stand-in for the JVM's OOM.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use wsd_telemetry::{Counter, Gauge, Scope};

/// Error raised when the budget is exhausted — the analogue of the paper's
/// `OutOfMemoryError` from unbounded native-thread creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetError {
    /// The configured maximum number of concurrently live threads.
    pub limit: usize,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: thread budget of {} native threads exhausted",
            self.limit
        )
    }
}

impl std::error::Error for BudgetError {}

/// A cap on concurrently live threads, shared by every component of one
/// simulated JVM/process.
#[derive(Clone)]
pub struct ThreadBudget {
    inner: Arc<Inner>,
}

struct Inner {
    live: AtomicUsize,
    peak: AtomicUsize,
    limit: usize,
    tele: OnceLock<BudgetTelemetry>,
}

/// Instruments registered by [`ThreadBudget::bind_telemetry`].
struct BudgetTelemetry {
    live: Gauge,
    acquired: Counter,
    denials: Counter,
}

impl ThreadBudget {
    /// Creates a budget allowing at most `limit` concurrently live threads.
    pub fn new(limit: usize) -> Self {
        ThreadBudget {
            inner: Arc::new(Inner {
                live: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                limit,
                tele: OnceLock::new(),
            }),
        }
    }

    /// Binds telemetry instruments (`live` gauge, `acquired`/`denials`
    /// counters) under `scope`. Only the first bind takes effect; later
    /// calls are ignored.
    pub fn bind_telemetry(&self, scope: &Scope) {
        let _ = self.inner.tele.set(BudgetTelemetry {
            live: scope.gauge("live"),
            acquired: scope.counter("acquired"),
            denials: scope.counter("denials"),
        });
    }

    /// Acquires one thread's worth of budget, or fails with the simulated
    /// out-of-memory error. Dropping the returned lease releases it.
    pub fn try_acquire(&self) -> Result<ThreadLease, BudgetError> {
        let mut cur = self.inner.live.load(Ordering::Relaxed);
        loop {
            if cur >= self.inner.limit {
                if let Some(t) = self.inner.tele.get() {
                    t.denials.inc();
                }
                return Err(BudgetError {
                    limit: self.inner.limit,
                });
            }
            match self.inner.live.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(cur + 1, Ordering::Relaxed);
                    if let Some(t) = self.inner.tele.get() {
                        t.live.inc();
                        t.acquired.inc();
                    }
                    return Ok(ThreadLease {
                        budget: self.clone(),
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of currently live leased threads.
    pub fn live(&self) -> usize {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently live leased threads.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// The configured limit.
    pub fn limit(&self) -> usize {
        self.inner.limit
    }

    fn release(&self) {
        self.inner.live.fetch_sub(1, Ordering::AcqRel);
        if let Some(t) = self.inner.tele.get() {
            t.live.dec();
        }
    }
}

impl std::fmt::Debug for ThreadBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadBudget")
            .field("live", &self.live())
            .field("peak", &self.peak())
            .field("limit", &self.inner.limit)
            .finish()
    }
}

/// RAII lease for one live thread; dropping it returns the slot.
pub struct ThreadLease {
    budget: ThreadBudget,
}

impl Drop for ThreadLease {
    fn drop(&mut self) {
        self.budget.release();
    }
}

impl std::fmt::Debug for ThreadLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ThreadLease")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn acquire_release_cycle() {
        let b = ThreadBudget::new(2);
        let l1 = b.try_acquire().unwrap();
        let l2 = b.try_acquire().unwrap();
        assert_eq!(b.live(), 2);
        assert!(b.try_acquire().is_err());
        drop(l1);
        assert_eq!(b.live(), 1);
        let _l3 = b.try_acquire().unwrap();
        drop(l2);
        assert_eq!(b.live(), 1);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let b = ThreadBudget::new(8);
        let leases: Vec<_> = (0..5).map(|_| b.try_acquire().unwrap()).collect();
        drop(leases);
        assert_eq!(b.live(), 0);
        assert_eq!(b.peak(), 5);
    }

    #[test]
    fn error_mentions_out_of_memory() {
        let b = ThreadBudget::new(0);
        let e = b.try_acquire().unwrap_err();
        assert!(e.to_string().contains("out of memory"));
        assert_eq!(e.limit, 0);
    }

    #[test]
    fn telemetry_tracks_live_peak_and_denials() {
        let reg = wsd_telemetry::Registry::new();
        let b = ThreadBudget::new(2);
        b.bind_telemetry(&reg.scope("msgbox.budget"));
        let l1 = b.try_acquire().unwrap();
        let _l2 = b.try_acquire().unwrap();
        assert!(b.try_acquire().is_err());
        drop(l1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("msgbox.budget.acquired"), 2);
        assert_eq!(snap.counter("msgbox.budget.denials"), 1);
        assert_eq!(snap.gauge_peak("msgbox.budget.live"), 2);
    }

    #[test]
    fn concurrent_acquire_never_exceeds_limit() {
        let b = ThreadBudget::new(16);
        let mut hs = Vec::new();
        for _ in 0..8 {
            let b = b.clone();
            hs.push(thread::spawn(move || {
                let mut ok = 0usize;
                for _ in 0..1000 {
                    if let Ok(lease) = b.try_acquire() {
                        assert!(b.live() <= 16);
                        ok += 1;
                        drop(lease);
                    }
                }
                ok
            }));
        }
        for h in hs {
            assert!(h.join().unwrap() > 0);
        }
        assert_eq!(b.live(), 0);
        assert!(b.peak() <= 16);
    }
}
