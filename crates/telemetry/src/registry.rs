//! Hierarchical instrument registry.
//!
//! Instruments live under dot-joined scope paths such as
//! `msg_dispatcher.dest{inria-echo}.queue_depth`. A [`Scope`] is a cheap
//! cloneable handle to one node of that hierarchy; asking a scope for a
//! counter/gauge/histogram is idempotent — the same name always yields a
//! handle onto the same cells, so instrumented components and exporters
//! can each resolve instruments independently.
//!
//! The no-op default: a [`Scope::noop`] scope hands out live instruments
//! that are simply not attached to any registry, so instrumented code is
//! unconditional (no `Option` plumbing) while unobserved runs keep their
//! recordings invisible and unexported.

use std::collections::BTreeMap;
// wsd-lint: allow(std-sync-primitive): wsd-telemetry is dependency-free by design (it must be embeddable everywhere, including under parking_lot itself)
use std::sync::{Arc, Mutex};

use crate::clock::{SharedClock, WallClock};
use crate::hist::Histogram;
use crate::metrics::{Counter, Gauge};
use crate::snapshot::{MetricValue, Snapshot};

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

struct RegistryInner {
    instruments: Mutex<Instruments>,
    clock: SharedClock,
}

/// The root of an instrument hierarchy.
///
/// Cloning is cheap (an `Arc` bump) and all clones observe the same
/// instruments. A registry owns the [`Clock`](crate::Clock) its snapshots
/// are stamped with.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// A registry stamping with wall-clock time.
    pub fn new() -> Self {
        Registry::with_clock(Arc::new(WallClock::new()))
    }

    /// A registry stamping with the given clock (e.g. a
    /// [`crate::VirtualClock`] driven by a simulation).
    pub fn with_clock(clock: SharedClock) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                instruments: Mutex::new(Instruments::default()),
                clock,
            }),
        }
    }

    /// The root scope (empty path).
    pub fn root(&self) -> Scope {
        Scope {
            registry: Some(self.clone()),
            path: String::new(),
        }
    }

    /// A scope at `path` (dot-joined segments).
    pub fn scope(&self, path: &str) -> Scope {
        self.root().child(path)
    }

    /// Captures current values of every registered instrument.
    pub fn snapshot(&self) -> Snapshot {
        let ins = self.inner.instruments.lock().expect("registry lock");
        let mut snap = Snapshot::new(self.inner.clock.now_us());
        for (name, c) in &ins.counters {
            snap.push(name.clone(), MetricValue::Counter(c.get()));
        }
        for (name, g) in &ins.gauges {
            snap.push(
                name.clone(),
                MetricValue::Gauge {
                    value: g.get(),
                    peak: g.peak(),
                },
            );
        }
        for (name, h) in &ins.histograms {
            snap.push(name.clone(), MetricValue::from_histogram(h));
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ins = self.inner.instruments.lock().expect("registry lock");
        f.debug_struct("Registry")
            .field("counters", &ins.counters.len())
            .field("gauges", &ins.gauges.len())
            .field("histograms", &ins.histograms.len())
            .finish()
    }
}

/// A named node in the instrument hierarchy.
///
/// Scopes are handles: cloning or deriving children never allocates
/// instruments until one is requested by name. A no-op scope (from
/// [`Scope::noop`] or [`Scope::default`]) yields unregistered instruments
/// that record into thin air — instrumented code never branches.
#[derive(Clone, Default)]
pub struct Scope {
    registry: Option<Registry>,
    path: String,
}

impl Scope {
    /// A scope attached to no registry; all instruments it yields are
    /// live but invisible to snapshots.
    pub fn noop() -> Self {
        Scope::default()
    }

    /// Whether this scope is attached to a registry.
    pub fn is_active(&self) -> bool {
        self.registry.is_some()
    }

    /// A child scope; `segment` may itself be dotted.
    pub fn child(&self, segment: &str) -> Scope {
        if segment.is_empty() {
            return self.clone();
        }
        let path = if self.path.is_empty() {
            segment.to_string()
        } else {
            format!("{}.{segment}", self.path)
        };
        Scope {
            registry: self.registry.clone(),
            path,
        }
    }

    /// A labeled child scope: `name{label}`.
    pub fn labeled(&self, name: &str, label: &str) -> Scope {
        self.child(&format!("{name}{{{label}}}"))
    }

    /// This scope's dot-joined path.
    pub fn path(&self) -> &str {
        &self.path
    }

    fn full_name(&self, name: &str) -> String {
        if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        }
    }

    /// The counter `name` under this scope (created on first request).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.registry {
            None => Counter::new(),
            Some(reg) => {
                let mut ins = reg.inner.instruments.lock().expect("registry lock");
                ins.counters
                    .entry(self.full_name(name))
                    .or_default()
                    .clone()
            }
        }
    }

    /// The gauge `name` under this scope (created on first request).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.registry {
            None => Gauge::new(),
            Some(reg) => {
                let mut ins = reg.inner.instruments.lock().expect("registry lock");
                ins.gauges.entry(self.full_name(name)).or_default().clone()
            }
        }
    }

    /// The histogram `name` under this scope (created on first request).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.registry {
            None => Histogram::new(),
            Some(reg) => {
                let mut ins = reg.inner.instruments.lock().expect("registry lock");
                ins.histograms
                    .entry(self.full_name(name))
                    .or_default()
                    .clone()
            }
        }
    }

    /// Current time in µs from the owning registry's clock (0 if no-op).
    pub fn now_us(&self) -> u64 {
        match &self.registry {
            None => 0,
            Some(reg) => reg.inner.clock.now_us(),
        }
    }
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("path", &self.path)
            .field("active", &self.is_active())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_yields_same_cells() {
        let reg = Registry::new();
        let a = reg.scope("msg_dispatcher").counter("drops");
        let b = reg.scope("msg_dispatcher").counter("drops");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn labeled_scopes_build_expected_paths() {
        let reg = Registry::new();
        let scope = reg.scope("msg_dispatcher").labeled("dest", "inria-echo");
        assert_eq!(scope.path(), "msg_dispatcher.dest{inria-echo}");
        scope.gauge("queue_depth").set(3);
        let snap = reg.snapshot();
        assert!(snap
            .entries()
            .iter()
            .any(|e| e.name == "msg_dispatcher.dest{inria-echo}.queue_depth"));
    }

    #[test]
    fn noop_scope_records_into_thin_air() {
        let scope = Scope::noop();
        assert!(!scope.is_active());
        let c = scope.counter("x");
        c.inc();
        assert_eq!(c.get(), 1); // the handle itself still works
        assert_eq!(scope.now_us(), 0);
    }

    #[test]
    fn snapshot_sees_all_instrument_kinds() {
        let reg = Registry::new();
        let s = reg.scope("pool");
        s.counter("spawned").add(4);
        s.gauge("live").set(2);
        s.histogram("wait_us").record(100);
        let snap = reg.snapshot();
        assert_eq!(snap.entries().len(), 3);
    }
}
