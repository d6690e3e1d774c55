//! Time sources for instruments.
//!
//! The same counters, gauges, histograms and traces must work on both
//! runtimes: the real-threaded servers (wall-clock time) and the
//! deterministic `wsd-netsim` simulation (virtual time). Components
//! therefore never call `Instant::now()` directly — they stamp through a
//! [`Clock`], and the driver decides which implementation backs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond time source.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Microseconds since this clock's origin.
    fn now_us(&self) -> u64;
}

/// Wall-clock time, anchored at construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose origin is "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl WallClock {
    /// Nanoseconds since this clock's origin: for timing a section of
    /// host work shorter than a microsecond (the simulator's per-host CPU
    /// split), never for stamping an instrument.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Virtual time, advanced explicitly by a simulation driver.
///
/// Cloning shares the underlying time cell, so the driver keeps one
/// handle to advance while instruments hold others to read. Time never
/// moves backwards (`advance_to` uses a monotonic max), which makes it
/// safe to bind one clock to several simulations running sequentially.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    now_us: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A virtual clock at t=0.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves virtual time forward to `us` (no-op if already past it).
    pub fn advance_to(&self, us: u64) {
        self.now_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Moves virtual time forward by `us`.
    pub fn advance_by(&self, us: u64) {
        self.now_us.fetch_add(us, Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Relaxed)
    }
}

/// A shared, object-safe clock handle.
pub type SharedClock = Arc<dyn Clock>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances_and_shares() {
        let c = VirtualClock::new();
        let view = c.clone();
        assert_eq!(view.now_us(), 0);
        c.advance_to(500);
        assert_eq!(view.now_us(), 500);
        c.advance_to(100); // never backwards
        assert_eq!(view.now_us(), 500);
        c.advance_by(50);
        assert_eq!(view.now_us(), 550);
    }

    #[test]
    fn shared_clock_is_object_safe() {
        let c: SharedClock = Arc::new(VirtualClock::new());
        assert_eq!(c.now_us(), 0);
    }
}
