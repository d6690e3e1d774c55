//! Lock-order auditing and the blocking check, both debug-build only.
//!
//! [`OrderedMutex`] and [`OrderedRwLock`] wrap the parking_lot
//! primitives and, under `debug_assertions` (so: under `cargo test`,
//! zero-cost in release), record every lock-acquisition *attempt* into a
//! process-global order graph keyed by lock *class* (a `&'static str`
//! name). When a thread holding class A attempts class B, the edge A→B
//! is added; if the graph now contains a path B→…→A, two code paths
//! take the same classes in opposite orders — a deadlock waiting for
//! the right interleaving — and the auditor panics immediately with the
//! cycle, instead of letting the test suite hang on the day the
//! schedules collide.
//!
//! The same per-thread stack of held classes backs
//! [`audit::assert_unlocked`], which the unbounded blocking calls
//! (a queue push or pop that can park, a guard's condvar
//! wait with a second lock held, a join, a sleep) make first: a thread
//! parked while it holds an ordered lock wedges every peer of that
//! lock's class, so the call panics with the held classes. It fires on the
//! call, not on an actual park, so a test that only runs the path
//! catches it.
//!
//! Two deliberate choices:
//!
//! * The edge is recorded and checked **before** blocking on the inner
//!   lock, so a genuine deadlock interleaving still reports the cycle
//!   rather than wedging.
//! * Same-class edges (A→A) are skipped: sharded structures like
//!   `ShardedMap` legitimately take several locks of one class, always
//!   guarded by a consistent shard order at the call site.
//!
//! Condvar waits release the inner mutex while parked, so
//! [`OrderedMutexGuard`] exposes `wait`/`wait_until`
//! wrappers that pop and re-push the audit frame around the park.

use std::time::Instant;

use parking_lot::{Condvar, Mutex, RwLock};

/// A mutex whose acquisitions participate in lock-order auditing.
///
/// The `name` is the lock's *class*: all instances constructed with the
/// same name are one node in the order graph.
pub struct OrderedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

/// A reader-writer lock whose acquisitions participate in lock-order
/// auditing. Read and write acquisitions are the same node: a
/// read-after-write inversion deadlocks just as well.
pub struct OrderedRwLock<T> {
    name: &'static str,
    inner: RwLock<T>,
}

/// RAII guard for [`OrderedMutex::lock`]; derefs to `T`.
pub struct OrderedMutexGuard<'a, T> {
    name: &'static str,
    guard: parking_lot::MutexGuard<'a, T>,
}

/// RAII guard for [`OrderedRwLock::read`].
pub struct OrderedReadGuard<'a, T> {
    name: &'static str,
    guard: parking_lot::RwLockReadGuard<'a, T>,
}

/// RAII guard for [`OrderedRwLock::write`].
pub struct OrderedWriteGuard<'a, T> {
    name: &'static str,
    guard: parking_lot::RwLockWriteGuard<'a, T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex in lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, recording the acquisition edge first.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this acquisition creates a cycle in
    /// the global lock-order graph.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        audit::acquire(self.name);
        OrderedMutexGuard {
            name: self.name,
            guard: self.inner.lock(),
        }
    }
}

impl<T> OrderedRwLock<T> {
    /// Creates a reader-writer lock in lock class `name`.
    pub fn new(name: &'static str, value: T) -> Self {
        Self {
            name,
            inner: RwLock::new(value),
        }
    }

    /// Acquires a shared read guard (audited like any acquisition).
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        audit::acquire(self.name);
        OrderedReadGuard {
            name: self.name,
            guard: self.inner.read(),
        }
    }

    /// Acquires the exclusive write guard (audited like any acquisition).
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        audit::acquire(self.name);
        OrderedWriteGuard {
            name: self.name,
            guard: self.inner.write(),
        }
    }
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Parks on `cv` until notified. The audit frame is released for
    /// the duration of the park (the mutex is not held while parked).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if this thread holds any other ordered
    /// lock: only the guard's own lock is released while parked.
    pub fn wait(&mut self, cv: &Condvar) {
        audit::release(self.name);
        audit::assert_unlocked("OrderedMutexGuard::wait");
        cv.wait(&mut self.guard);
        audit::acquire(self.name);
    }

    /// Parks on `cv` until `deadline`; returns `true` if it timed out.
    pub fn wait_until(&mut self, cv: &Condvar, deadline: Instant) -> bool {
        audit::release(self.name);
        let r = cv.wait_until(&mut self.guard, deadline).timed_out();
        audit::acquire(self.name);
        r
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}
impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}
impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        audit::release(self.name);
    }
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}
impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        audit::release(self.name);
    }
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}
impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}
impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        audit::release(self.name);
    }
}

/// The global order graph, the per-thread held stack, and the
/// blocking check that reads it.
///
/// All functions are no-ops in release builds.
pub mod audit {
    #[cfg(debug_assertions)]
    mod imp {
        use parking_lot::Mutex;
        use std::cell::RefCell;
        use std::collections::{HashMap, HashSet};
        use std::sync::OnceLock;

        /// Directed edges held-class → newly-acquired-class. Guarded by
        /// a plain parking_lot Mutex — the auditor must not audit
        /// itself.
        struct Graph {
            edges: HashMap<&'static str, HashSet<&'static str>>,
        }

        fn graph() -> &'static Mutex<Graph> {
            static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
            GRAPH.get_or_init(|| {
                Mutex::new(Graph {
                    edges: HashMap::new(),
                })
            })
        }

        thread_local! {
            static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        }

        /// Depth-first reachability from `from` to `to` over `edges`.
        fn reaches(
            edges: &HashMap<&'static str, HashSet<&'static str>>,
            from: &'static str,
            to: &'static str,
            path: &mut Vec<&'static str>,
        ) -> bool {
            if from == to {
                path.push(from);
                return true;
            }
            let Some(nexts) = edges.get(from) else {
                return false;
            };
            if path.contains(&from) {
                return false;
            }
            path.push(from);
            for &n in nexts {
                if reaches(edges, n, to, path) {
                    return true;
                }
            }
            path.pop();
            false
        }

        pub(super) fn acquire(name: &'static str) {
            let held: Vec<&'static str> =
                HELD.with(|h| h.borrow().iter().copied().collect());
            // Record edges held→name before blocking on the inner
            // lock, so a real deadlock still reports instead of
            // wedging. Same-class self-edges are shard traffic.
            let new_edges: Vec<&'static str> =
                held.iter().copied().filter(|h| *h != name).collect();
            if !new_edges.is_empty() {
                let mut g = graph().lock();
                for h in new_edges {
                    if g.edges.entry(h).or_default().insert(name) {
                        // New edge: does name now reach h back?
                        let mut path = Vec::new();
                        if reaches(&g.edges, name, h, &mut path) {
                            let mut cycle: Vec<&str> = path;
                            cycle.push(name);
                            panic!(
                                "lock-order cycle: acquiring `{name}` while holding `{h}`, \
                                 but an existing path runs {:?} — two code paths take these \
                                 lock classes in opposite orders (deadlock potential)",
                                cycle
                            );
                        }
                    }
                }
            }
            HELD.with(|hd| hd.borrow_mut().push(name));
        }

        pub fn release(name: &'static str) {
            HELD.with(|h| {
                let mut v = h.borrow_mut();
                // Pop the most recent frame of this class (guards can
                // drop out of stack order; class-match is sufficient).
                if let Some(pos) = v.iter().rposition(|x| *x == name) {
                    v.remove(pos);
                }
            });
        }

        pub fn assert_unlocked(what: &str) {
            let held: Vec<&'static str> = HELD.with(|h| h.borrow().clone());
            assert!(
                held.is_empty(),
                "{what} can block without bound while this thread holds ordered \
                 lock(s) {held:?} — a thread parked under a lock wedges every peer \
                 of its class"
            );
        }

        /// Snapshot of the recorded edge set, for tests/diagnostics.
        pub(super) fn edges() -> Vec<(&'static str, &'static str)> {
            let g = graph().lock();
            let mut out: Vec<(&'static str, &'static str)> = g
                .edges
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(move |v| (*k, *v)))
                .collect();
            out.sort();
            out
        }
    }

    /// Records an acquisition attempt of lock class `name` by this
    /// thread; panics (debug builds) on a lock-order cycle.
    pub(crate) fn acquire(name: &'static str) {
        #[cfg(debug_assertions)]
        imp::acquire(name);
        #[cfg(not(debug_assertions))]
        let _ = name;
    }

    /// Records the release of lock class `name` by this thread.
    pub fn release(name: &'static str) {
        #[cfg(debug_assertions)]
        imp::release(name);
        #[cfg(not(debug_assertions))]
        let _ = name;
    }

    /// Panics (debug builds) if this thread holds any ordered lock:
    /// `what` names a call about to block without bound, which must not
    /// park with a lock held.
    pub fn assert_unlocked(what: &str) {
        #[cfg(debug_assertions)]
        imp::assert_unlocked(what);
        #[cfg(not(debug_assertions))]
        let _ = what;
    }

    /// The recorded acquisition-order edges (debug builds; empty in
    /// release). Sorted for stable assertions.
    // wsd-lint: allow(pub-without-caller): tests/lock_order_crosscheck.rs holds the auditor to the edges the workspace's own locks record
    pub fn edges() -> Vec<(&'static str, &'static str)> {
        #[cfg(debug_assertions)]
        {
            imp::edges()
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    // Lock-class names in these tests are unique per test (the graph is
    // process-global and tests share one process).

    #[test]
    fn consistent_order_is_fine() {
        let a = OrderedMutex::new("t1.a", 1u32);
        let b = OrderedMutex::new("t1.b", 2u32);
        for _ in 0..3 {
            let ga = a.lock();
            let gb = b.lock();
            assert_eq!(*ga + *gb, 3);
        }
        assert!(audit::edges().contains(&("t1.a", "t1.b")));
    }

    #[test]
    fn inverted_order_panics_with_cycle() {
        let a = Arc::new(OrderedMutex::new("t2.a", ()));
        let b = Arc::new(OrderedMutex::new("t2.b", ()));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a closes the cycle
        }));
        let err = r.expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("lock-order cycle"), "got: {msg}");
        assert!(msg.contains("t2.a") && msg.contains("t2.b"));
        // The failed acquire left a stale frame on this thread's held
        // stack (the panic unwound before the guard existed); clear it
        // so sibling tests on this thread aren't polluted.
        audit::release("t2.b");
    }

    #[test]
    fn transitive_cycle_detected() {
        let a = Arc::new(OrderedMutex::new("t3.a", ()));
        let b = Arc::new(OrderedMutex::new("t3.b", ()));
        let c = Arc::new(OrderedMutex::new("t3.c", ()));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gc = c.lock();
            let _ga = a.lock(); // c -> a closes a -> b -> c
        }));
        assert!(r.is_err(), "transitive inversion must panic");
        audit::release("t3.c");
    }

    #[test]
    fn same_class_reentrancy_across_instances_allowed() {
        // Sharded-map pattern: many locks of one class.
        let shards: Vec<OrderedRwLock<u32>> =
            (0..4).map(|i| OrderedRwLock::new("t4.shard", i)).collect();
        let guards: Vec<_> = shards.iter().map(|s| s.read()).collect();
        assert_eq!(guards.iter().map(|g| **g).sum::<u32>(), 6);
    }

    #[test]
    fn rwlock_read_write_audited() {
        let m = OrderedMutex::new("t5.m", ());
        let rw = OrderedRwLock::new("t5.rw", 0u32);
        {
            let _g = m.lock();
            let mut w = rw.write();
            *w += 1;
        }
        {
            let _g = m.lock();
            let r = rw.read();
            assert_eq!(*r, 1);
        }
        assert!(audit::edges().contains(&("t5.m", "t5.rw")));
    }

    #[test]
    fn condvar_wait_releases_audit_frame() {
        let m = Arc::new(OrderedMutex::new("t6.m", false));
        let cv = Arc::new(Condvar::new());
        let other = Arc::new(OrderedMutex::new("t6.other", ()));

        let m2 = Arc::clone(&m);
        let cv2 = Arc::clone(&cv);
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = true;
            drop(g);
            cv2.notify_all();
        });

        let mut g = m.lock();
        while !*g {
            let timed_out = g.wait_until(&cv, Instant::now() + Duration::from_secs(5));
            assert!(!timed_out, "signal should arrive");
        }
        drop(g);
        h.join().expect("signaller");
        // After the wait the frame was re-acquired and released on
        // drop; taking an unrelated lock now must not see t6.m held.
        let _o = other.lock();
        assert!(!audit::edges().contains(&("t6.m", "t6.other")));
    }

    /// The payload of the panic `f` raises (a formatted message).
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn blocking_calls_under_an_ordered_lock_panic_naming_it() {
        let held = OrderedMutex::new("t8.held", ());
        let full = crate::FifoQueue::bounded(1);
        full.push(1u8).unwrap();
        let push = || {
            let _ = crate::FifoQueue::bounded(1).push(1u8);
        };
        let pop = || {
            let _ = full.pop();
        };
        let sleep = || audit::assert_unlocked("a sleep");
        let calls = [
            ("FifoQueue::push", &push as &dyn Fn()),
            ("FifoQueue::pop", &pop),
            ("a sleep", &sleep),
        ];
        for (what, call) in calls {
            let msg = panic_message(|| {
                let _g = held.lock();
                call();
            });
            assert!(
                msg.contains(what) && msg.contains("t8.held"),
                "{what}: {msg}"
            );
        }
        // Unlocked, every one of them goes through; the refused pop took
        // nothing.
        assert_eq!(full.pop(), Ok(1));
        full.push(2).unwrap();
        audit::assert_unlocked("a sleep");
    }

    #[test]
    fn a_wait_on_the_guards_own_condvar_is_exempt() {
        let m = Arc::new(OrderedMutex::new("t9.m", false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let h = std::thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_all();
        });
        let mut g = m.lock();
        while !*g {
            g.wait(&cv);
        }
        drop(g);
        h.join().expect("signaller");
    }

    /// Run on a helper thread: without the check the wait parks for
    /// good, and the test fails on the channel instead of hanging.
    #[test]
    fn a_wait_while_another_class_is_held_panics() {
        let (done, finished) = std::sync::mpsc::channel();
        let msg = Arc::new(parking_lot::Mutex::new(String::new()));
        {
            let msg = Arc::clone(&msg);
            std::thread::spawn(move || {
                let other = OrderedMutex::new("t10.other", ());
                let m = OrderedMutex::new("t10.m", ());
                let cv = Condvar::new();
                *msg.lock() = panic_message(|| {
                    let _o = other.lock();
                    let mut g = m.lock();
                    g.wait(&cv);
                });
                done.send(()).unwrap();
            });
        }
        assert!(
            finished.recv_timeout(Duration::from_secs(5)).is_ok(),
            "the wait parked under t10.other"
        );
        let msg = msg.lock().clone();
        assert!(msg.contains("t10.other") && !msg.contains("t10.m"), "{msg}");
    }
}
