//! Worker thread pool with pre-start, bounded growth and blocking submission.
//!
//! Mirrors the pool the MSG-Dispatcher configures for its `CxThread` and
//! `WsThread` stages (paper §4.2): a configurable number of pre-created
//! threads, automatic growth up to a maximum under load, and automatic
//! destruction of idle surplus threads.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use wsd_telemetry::{Counter, Gauge, Scope};

use crate::ordered::{audit, OrderedMutex};
use crate::queue::{FifoQueue, PopError, PushError};

/// Errors surfaced by pool submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The pool has been shut down.
    Shutdown,
    /// [`ThreadPool::try_execute`] found the queue full.
    Rejected,
    /// The OS refused to start a worker thread.
    OutOfMemory,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Shutdown => f.write_str("thread pool is shut down"),
            TaskError::Rejected => f.write_str("task rejected: queue full"),
            TaskError::OutOfMemory => f.write_str("out of memory: cannot spawn a worker thread"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Pool construction parameters.
#[derive(Clone)]
pub struct PoolConfig {
    /// Worker thread name prefix (e.g. `"CxThread"`, `"WsThread"`).
    pub name: String,
    /// Threads pre-created at pool construction and kept alive until
    /// shutdown.
    pub core_threads: usize,
    /// Upper bound on concurrently live workers; surplus workers above
    /// `core_threads` are created under load and retired when idle.
    pub max_threads: usize,
    /// Capacity of the task FIFO.
    pub queue_capacity: usize,
    /// How long a surplus worker stays alive with no work before retiring.
    pub keep_alive: Duration,
    /// Telemetry scope the pool's instruments live under; the default
    /// no-op scope keeps instrumentation invisible and free of exports.
    pub telemetry: Scope,
}

impl PoolConfig {
    /// A sensible fixed-size pool: `n` core threads, no growth.
    pub fn fixed(name: impl Into<String>, n: usize) -> Self {
        PoolConfig {
            name: name.into(),
            core_threads: n,
            max_threads: n,
            queue_capacity: 1024,
            keep_alive: Duration::from_millis(500),
            telemetry: Scope::noop(),
        }
    }

    /// A growable pool: `core` pre-created threads, growth up to `max`.
    pub fn growable(name: impl Into<String>, core: usize, max: usize) -> Self {
        PoolConfig {
            name: name.into(),
            core_threads: core,
            max_threads: max,
            queue_capacity: 1024,
            keep_alive: Duration::from_millis(500),
            telemetry: Scope::noop(),
        }
    }

    /// Sets the task queue capacity.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Sets the idle keep-alive for surplus workers.
    pub fn keep_alive(mut self, d: Duration) -> Self {
        self.keep_alive = d;
        self
    }

    /// Attaches a telemetry scope; the pool registers `workers`, `active`
    /// and `queue_depth` gauges plus `completed` and `oom` counters under
    /// it.
    pub fn telemetry(mut self, scope: Scope) -> Self {
        self.telemetry = scope;
        self
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: FifoQueue<Job>,
    workers: AtomicUsize,
    active: AtomicUsize,
    shutdown: AtomicBool,
    config: PoolConfigFrozen,
    tele: PoolTelemetry,
}

/// The pool's instruments; under a no-op scope these record into
/// unregistered cells and cost one relaxed atomic op per update.
struct PoolTelemetry {
    workers: Gauge,
    active: Gauge,
    queue_depth: Gauge,
    completed: Counter,
    oom: Counter,
}

impl PoolTelemetry {
    fn new(scope: &Scope) -> Self {
        PoolTelemetry {
            workers: scope.gauge("workers"),
            active: scope.gauge("active"),
            queue_depth: scope.gauge("queue_depth"),
            completed: scope.counter("completed"),
            oom: scope.counter("oom"),
        }
    }
}

struct PoolConfigFrozen {
    name: String,
    core_threads: usize,
    max_threads: usize,
    keep_alive: Duration,
}

/// A managed worker thread pool.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: OrderedMutex<Vec<thread::JoinHandle<()>>>,
}

impl ThreadPool {
    /// Creates the pool and pre-starts `core_threads` workers.
    ///
    /// Fails with [`TaskError::OutOfMemory`] if the OS cannot start the
    /// core threads.
    ///
    /// # Panics
    ///
    /// Panics if `core_threads > max_threads` or `max_threads == 0`.
    pub fn new(config: PoolConfig) -> Result<Self, TaskError> {
        assert!(config.max_threads > 0, "max_threads must be non-zero");
        assert!(
            config.core_threads <= config.max_threads,
            "core_threads must not exceed max_threads"
        );
        let shared = Arc::new(PoolShared {
            queue: FifoQueue::bounded(config.queue_capacity.max(1)),
            workers: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            tele: PoolTelemetry::new(&config.telemetry),
            config: PoolConfigFrozen {
                name: config.name,
                core_threads: config.core_threads,
                max_threads: config.max_threads,
                keep_alive: config.keep_alive,
            },
        });
        let pool = ThreadPool {
            shared,
            handles: OrderedMutex::new("thread_pool.handles", Vec::new()),
        };
        for _ in 0..pool.shared.config.core_threads {
            pool.spawn_worker(true)?;
        }
        Ok(pool)
    }

    fn spawn_worker(&self, core: bool) -> Result<(), TaskError> {
        let shared = Arc::clone(&self.shared);
        let idx = shared.workers.fetch_add(1, Ordering::AcqRel);
        shared.tele.workers.inc();
        let name = format!("{}-{}", shared.config.name, idx);
        let builder = thread::Builder::new().name(name);
        let handle = builder
            .spawn(move || worker_loop(&shared, core))
            .map_err(|_| {
                self.shared.workers.fetch_sub(1, Ordering::AcqRel);
                self.shared.tele.workers.dec();
                self.shared.tele.oom.inc();
                TaskError::OutOfMemory
            })?;
        self.handles.lock().push(handle);
        Ok(())
    }

    /// Submits a task for asynchronous execution. When the queue is full
    /// and the pool is at its maximum size, blocks the submitting thread
    /// until queue space frees up (back-pressure).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), TaskError> {
        self.execute_boxed(Box::new(job))
    }

    /// Submits a task only if the queue has room for it right now:
    /// never blocks, never grows the pool; a full queue is
    /// [`TaskError::Rejected`]. For a worker handing work to its own
    /// pool — it must not wait there for room, and it is about to be
    /// free to take the task itself.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), TaskError> {
        self.try_push(Box::new(job)).map_err(|e| match e {
            PushError::Closed(_) => TaskError::Shutdown,
            PushError::Full(_) => TaskError::Rejected,
        })
    }

    /// Queues `job` if the pool is open and the queue has room; hands it
    /// back otherwise.
    fn try_push(&self, job: Job) -> Result<(), PushError<Job>> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(PushError::Closed(job));
        }
        self.shared.queue.try_push(job)?;
        self.note_queue_depth();
        Ok(())
    }

    fn execute_boxed(&self, job: Job) -> Result<(), TaskError> {
        let job = match self.try_push(job) {
            Ok(()) => {
                self.maybe_grow();
                return Ok(());
            }
            Err(PushError::Closed(_)) => return Err(TaskError::Shutdown),
            Err(PushError::Full(job)) => job,
        };
        // Queue is saturated: grow if allowed, then wait for room.
        if self.shared.workers.load(Ordering::Acquire) < self.shared.config.max_threads {
            self.spawn_worker(false)?;
        }
        self.shared.queue.push(job).map_err(|_| TaskError::Shutdown)?;
        self.note_queue_depth();
        Ok(())
    }

    fn note_queue_depth(&self) {
        self.shared.tele.queue_depth.set(self.shared.queue.len() as i64);
    }

    fn maybe_grow(&self) {
        // Grow when every live worker is busy and there is queued work.
        let workers = self.shared.workers.load(Ordering::Acquire);
        if workers < self.shared.config.max_threads
            && self.shared.active.load(Ordering::Acquire) >= workers
            && !self.shared.queue.is_empty()
        {
            let _ = self.spawn_worker(false);
        }
    }

    /// Number of currently live workers.
    // wsd-lint: allow(pub-without-caller): the reactor tests (tests/reactor_races.rs, rt::reactor_front) pin the handler pool's size with it
    pub fn worker_count(&self) -> usize {
        self.shared.workers.load(Ordering::Acquire)
    }

    /// Number of workers currently running a task.
    // wsd-lint: allow(pub-without-caller): rt::reactor_front's tests read it to show stalled senders hold no handler thread
    pub fn active_count(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// Number of tasks waiting in the queue.
    fn queued_count(&self) -> usize {
        self.shared.queue.len()
    }

    /// Stops accepting tasks, runs everything already queued, and joins all
    /// workers.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue.close();
        let handles: Vec<_> = std::mem::take(&mut *self.handles.lock());
        for h in handles {
            audit::assert_unlocked("ThreadPool::shutdown's join");
            let _ = h.join();
        }
    }
}

impl Drop for ThreadPool {
    /// Shuts down, except while the thread unwinds: a worker may then be
    /// parked on something only the panicking code would have released,
    /// and joining it would hang. The pool still closes, so every worker
    /// exits once its job returns.
    fn drop(&mut self) {
        if thread::panicking() {
            self.shared.shutdown.store(true, Ordering::Release);
            self.shared.queue.close();
        } else {
            self.shutdown();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("name", &self.shared.config.name)
            .field("workers", &self.worker_count())
            .field("active", &self.active_count())
            .field("queued", &self.queued_count())
            .finish()
    }
}

fn worker_loop(shared: &PoolShared, core: bool) {
    loop {
        let job = if core {
            match shared.queue.pop() {
                Ok(j) => j,
                Err(PopError::Closed) => break,
                Err(PopError::Empty) => continue,
            }
        } else {
            match shared.queue.pop_timeout(shared.config.keep_alive) {
                Ok(j) => j,
                Err(PopError::Closed) => break,
                // Surplus worker idle past keep-alive: retire.
                Err(PopError::Empty) => break,
            }
        };
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.tele.active.inc();
        job();
        shared.active.fetch_sub(1, Ordering::AcqRel);
        shared.tele.active.dec();
        shared.tele.completed.inc();
    }
    shared.workers.fetch_sub(1, Ordering::AcqRel);
    shared.tele.workers.dec();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn runs_submitted_tasks() {
        let pool = ThreadPool::new(PoolConfig::fixed("t", 4)).unwrap();
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn pre_creates_core_threads() {
        let pool = ThreadPool::new(PoolConfig::fixed("t", 3)).unwrap();
        assert_eq!(pool.worker_count(), 3);
    }

    #[test]
    fn grows_to_max_under_load() {
        let cfg = PoolConfig::growable("t", 1, 4)
            .queue_capacity(1);
        let pool = ThreadPool::new(cfg).unwrap();
        let (started, running) = std::sync::mpsc::channel();
        // Jobs park on the gate until the test drops its write guard.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        for _ in 0..4 {
            let (started, gate) = (started.clone(), Arc::clone(&gate));
            pool.execute(move || {
                started.send(()).unwrap();
                drop(gate.read());
            })
            .unwrap();
        }
        for _ in 0..4 {
            assert!(running.recv_timeout(Duration::from_secs(5)).is_ok(), "pool never grew");
        }
        assert!(pool.worker_count() >= 4);
        drop(closed);
        pool.shutdown();
    }

    #[test]
    fn try_execute_never_waits_for_room() {
        let reg = wsd_telemetry::Registry::new();
        let cfg = PoolConfig::fixed("t", 1).queue_capacity(1).telemetry(reg.scope("t"));
        let pool = ThreadPool::new(cfg).unwrap();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (started, running) = std::sync::mpsc::channel();
        pool.execute(move || {
            started.send(()).unwrap();
            let _ = released.recv();
        })
        .unwrap();
        running.recv().unwrap();
        // Worker busy: one task fits the queue, the next finds it full —
        // where `execute` would block, this reports it.
        assert_eq!(pool.try_execute(|| {}), Ok(()));
        assert_eq!(pool.try_execute(|| {}), Err(TaskError::Rejected));
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(reg.snapshot().counter("t.completed"), 2);
        assert_eq!(pool.try_execute(|| {}), Err(TaskError::Shutdown));
    }

    #[test]
    fn execute_after_shutdown_fails() {
        let pool = ThreadPool::new(PoolConfig::fixed("t", 1)).unwrap();
        pool.shutdown();
        assert_eq!(pool.execute(|| {}), Err(TaskError::Shutdown));
    }

    #[test]
    fn telemetry_scope_observes_pool_activity() {
        let reg = wsd_telemetry::Registry::new();
        let pool = ThreadPool::new(
            PoolConfig::fixed("t", 2).telemetry(reg.scope("pool{t}")),
        )
        .unwrap();
        for _ in 0..10 {
            pool.execute(|| {}).unwrap();
        }
        pool.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pool{t}.completed"), 10);
        // Both gauges rose and are back at 0: every worker retired at
        // shutdown, and every job that started running finished.
        for (gauge, peaks) in [("workers", 2..=2), ("active", 1..=2)] {
            match snap.get(&format!("pool{{t}}.{gauge}")) {
                Some(wsd_telemetry::MetricValue::Gauge { value, peak }) => {
                    assert_eq!(*value, 0, "{gauge}");
                    assert!(peaks.contains(peak), "{gauge} peaked at {peak}");
                }
                other => panic!("expected gauge {gauge}, got {other:?}"),
            }
        }
    }

    /// Idle core workers park in a blocking `pop` that only closing the
    /// queue ends, so a shutdown that does not close it joins forever.
    /// Run on a helper thread, that is a message never sent, not a
    /// hung test.
    #[test]
    fn shutdown_wakes_parked_core_workers() {
        let pool = ThreadPool::new(PoolConfig::fixed("t", 2)).unwrap();
        let (ran, done) = std::sync::mpsc::channel();
        pool.execute(move || ran.send(()).unwrap()).unwrap();
        assert!(done.recv_timeout(Duration::from_secs(5)).is_ok(), "the job never ran");
        let (joined, shut) = std::sync::mpsc::channel();
        thread::spawn(move || {
            pool.shutdown();
            joined.send(()).unwrap();
        });
        assert!(
            shut.recv_timeout(Duration::from_secs(5)).is_ok(),
            "shutdown never joined its parked core workers"
        );
    }

    /// A test that fails while its jobs wait on a message only it would
    /// send must fail, not hang: the pool dropped during the unwind does
    /// not join them. Run on a helper thread, a join would be a message
    /// never sent.
    #[test]
    fn a_pool_dropped_while_unwinding_does_not_join() {
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (unwound, returned) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let pool = ThreadPool::new(PoolConfig::fixed("t", 1)).unwrap();
                pool.execute(move || {
                    let _ = released.recv();
                })
                .unwrap();
                panic!("failing with a job parked on a channel");
            }));
            assert!(r.is_err());
            unwound.send(()).unwrap();
        });
        let returned = returned.recv_timeout(Duration::from_secs(5)).is_ok();
        drop(release);
        assert!(returned, "the unwind joined a worker parked on a channel");
    }

    #[test]
    fn surplus_workers_retire_after_keep_alive() {
        let cfg = PoolConfig::growable("t", 1, 4)
            .queue_capacity(1)
            .keep_alive(Duration::from_millis(30));
        let pool = ThreadPool::new(cfg).unwrap();
        let gate = Arc::new(std::sync::RwLock::new(()));
        let closed = gate.write().unwrap();
        for _ in 0..4 {
            let gate = Arc::clone(&gate);
            pool.execute(move || drop(gate.read())).unwrap();
        }
        drop(closed);
        // Give surplus workers time to idle out.
        for _ in 0..100 {
            if pool.worker_count() <= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(pool.worker_count() <= 2, "surplus workers never retired");
        pool.shutdown();
    }
}
