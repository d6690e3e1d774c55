//! A run-to-completion connection scheduler.
//!
//! The paper's dispatchers (and its WS-MsgBox) pin one thread per open
//! connection for the connection's whole lifetime — the architecture
//! that produced the ~50-client `OutOfMemoryError`. A [`Reactor`]
//! inverts that: it *owns* every registered connection, and a
//! connection occupies a thread of the bounded handler [`ThreadPool`]
//! only while it has bytes to read or a request to answer. Thread count
//! scales with in-flight *requests*, not open *sockets*.
//!
//! # Who may touch a connection when
//!
//! Every connection has its own cell, in one of three live phases:
//!
//! * `Parked` — the connection rests in the cell; nobody touches it.
//! * `Queued` — it still rests in the cell, and one job for it waits on
//!   the pool's queue.
//! * `Running { dirty }` — that job is executing and holds the
//!   connection; the cell keeps only the `dirty` flag.
//!
//! `Queued` and `Running` together are "a job exists", and there is at
//! most one: so at most `open_conns` reactor jobs are ever queued on the
//! pool, and `pump` and `handle` of one connection never run
//! concurrently.
//!
//! The connection's read-wakeup hook runs on the *writer's* thread. It
//! takes the cell's lock; a `Parked` cell it flips to `Queued` and
//! submits the job to the handler pool itself, at a `Running` cell it
//! only sets `dirty`, and a `Queued` one it leaves alone (the job pumps
//! before anything else). There is no hop through a reactor thread: a
//! request costs one cross-thread wake, writer → worker.
//!
//! The job takes the connection out of the cell and loops:
//! [`pump`](ReactorConn::pump), and on
//!
//! * `Ready` — [`handle`](ReactorConn::handle) the run, pump again;
//! * `Idle` — under the cell's lock: if `dirty`, clear it and pump
//!   again, else put the connection back (`Parked`) and return. The
//!   hook's transition takes the same lock, so bytes that arrive after
//!   the job's last pump either show as `dirty` to the job or find the
//!   cell `Parked` and queue a new job — a wake-up is never lost;
//! * `Closed`, `handle() == false`, or reactor shutdown — deregister
//!   and drop the connection.
//!
//! Nothing is handed *back* to another thread. A job that keeps finding
//! its connection `Ready` puts it back as `Queued` after
//! `MAX_RUNS_PER_JOB` runs and re-submits itself at the pool's tail, so
//! it cannot starve the other connections of a small fixed pool. That
//! one submission is made from a pool worker and therefore never waits
//! for queue room ([`ThreadPool::try_execute`]): without room the job
//! simply carries on.
//!
//! The hot path takes the connection's own lock only. The global
//! connection map is touched by `register`, deregistration,
//! [`Reactor::open_connections`] and [`Reactor::shutdown`]. The reactor
//! owns no thread of its own: every transport it serves delivers
//! wake-ups, so nothing is ever polled.
//!
//! # The hook may block
//!
//! The hook calls [`ThreadPool::execute`] on the writer's thread — never
//! under the cell's lock (nor, for the in-process pipes, the pipe's). With
//! a full pool queue the writer waits there, which is the back-pressure a
//! full pipe gives a writer anyway. If the pool refuses the job (it was shut
//! down), the hook deregisters the connection and drops it.
//!
//! Backpressure is structural: while a job is inside `handle` the
//! connection is not read, so pipelined bytes accumulate in the
//! transport's bounded buffer exactly like an unread TCP window; the
//! pump that follows every `handle` picks them up.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wsd_telemetry::{Counter, Gauge, Histogram, Scope};

use crate::ordered::OrderedMutex;
use crate::pool::ThreadPool;

/// Consecutive `Ready` runs one job handles before it re-submits itself
/// at the pool's tail, so a connection whose peer keeps it permanently
/// ready cannot hold a worker while other connections' jobs wait.
const MAX_RUNS_PER_JOB: usize = 8;

/// What a [`ReactorConn::pump`] pass concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pump {
    /// No complete request yet; park and wait for more bytes.
    Idle,
    /// At least one complete request is buffered; handle it.
    Ready,
    /// EOF or protocol error; deregister and drop the connection.
    Closed,
}

/// Wakeup hook a connection invokes when it may have become readable.
/// It may block as [`ThreadPool::execute`] does, so transports call it
/// outside their own locks.
pub type Wakeup = Arc<dyn Fn() + Send + Sync>;

/// A connection the reactor can multiplex.
pub trait ReactorConn: Send + 'static {
    /// Installs the reactor's wakeup hook. Implementations wire it to
    /// their transport's readiness notification: a connection is pumped
    /// again only when the hook fires.
    fn install_wakeup(&mut self, hook: Wakeup);

    /// Ingests whatever bytes are ready *without blocking* and reports
    /// the connection's state. Runs on the handler pool, in the job
    /// that owns the connection — never concurrently with
    /// [`handle`](Self::handle).
    fn pump(&mut self) -> Pump;

    /// Processes the buffered complete request(s) and writes the
    /// response(s); blocking is fine — this runs on the handler pool.
    /// Returns `false` when the connection should be closed (protocol
    /// `Connection: close`, EOF, write failure).
    fn handle(&mut self) -> bool;

    /// Whether a partially-received request is parked in this
    /// connection's buffer (slow sender / slow-loris telemetry).
    fn has_partial(&self) -> bool {
        false
    }
}

struct ReactorTelemetry {
    open_conns: Gauge,
    parked_partials: Gauge,
    loop_us: Histogram,
    dispatches: Counter,
    wakeups: Counter,
}

impl ReactorTelemetry {
    fn new(scope: &Scope) -> Self {
        ReactorTelemetry {
            open_conns: scope.gauge("open_conns"),
            parked_partials: scope.gauge("parked_partials"),
            loop_us: scope.histogram("loop_us"),
            dispatches: scope.counter("dispatches"),
            wakeups: scope.counter("wakeups"),
        }
    }
}

/// Where a registered connection is in its schedule.
#[derive(Clone, Copy)]
enum Phase {
    /// Nobody runs it. `partial` is `has_partial()` as of parking, and
    /// is counted in `parked_partials` while parked.
    Parked { partial: bool },
    /// Its job waits on the pool's queue. A wake-up has nothing to add:
    /// the job pumps first.
    Queued,
    /// Its job is executing and holds the connection; `dirty` records a
    /// wake-up that arrived since.
    Running { dirty: bool },
    /// Deregistered; a late wake-up or job finds nothing to do.
    Closed,
}

struct Slot<C> {
    phase: Phase,
    /// The connection rests here while `Parked` or `Queued`.
    conn: Option<C>,
}

/// One connection's scheduling cell, shared by its wakeup hook, its job
/// and the global map.
struct Cell<C> {
    id: u64,
    slot: OrderedMutex<Slot<C>>,
}

impl<C> Slot<C> {
    /// Puts the connection back into the cell, for `phase`.
    fn rest(&mut self, conn: C, phase: Phase) {
        self.phase = phase;
        self.conn = Some(conn);
    }
}

impl<C> Cell<C> {
    /// A job's first step: takes the connection out of its `Queued`
    /// cell. `None` when `deregister` closed the cell while the job
    /// waited on the queue.
    fn start_running(&self) -> Option<C> {
        let mut slot = self.slot.lock();
        if !matches!(slot.phase, Phase::Queued) {
            return None;
        }
        slot.phase = Phase::Running { dirty: false };
        slot.conn.take()
    }
}

struct Shared<C: ReactorConn> {
    /// Every registered connection's cell, by id.
    conns: OrderedMutex<HashMap<u64, Arc<Cell<C>>>>,
    handlers: Arc<ThreadPool>,
    stop: AtomicBool,
    next_id: AtomicU64,
    tele: ReactorTelemetry,
}

impl<C: ReactorConn> Shared<C> {
    /// What a wake-up does: queues a job for a `Parked` connection,
    /// marks a `Running` one dirty. `execute` may block, so the cell's
    /// lock is released first.
    fn schedule(self: &Arc<Self>, cell: &Arc<Cell<C>>) {
        {
            let mut slot = cell.slot.lock();
            match slot.phase {
                Phase::Parked { partial } => {
                    if partial {
                        self.tele.parked_partials.dec();
                    }
                    slot.phase = Phase::Queued;
                }
                Phase::Running { .. } => {
                    slot.phase = Phase::Running { dirty: true };
                    return;
                }
                Phase::Queued | Phase::Closed => return,
            }
        }
        self.submit(cell);
    }

    /// Queues the job of a `Queued` connection.
    fn submit(self: &Arc<Self>, cell: &Arc<Cell<C>>) {
        if self.handlers.execute(self.job(cell)).is_err() {
            // The pool is shut down and dropped the job.
            self.deregister(cell);
        }
    }

    fn job(self: &Arc<Self>, cell: &Arc<Cell<C>>) -> impl FnOnce() + Send + 'static {
        let (shared, cell) = (Arc::clone(self), Arc::clone(cell));
        move || shared.run(&cell)
    }

    /// The job body: pump, handle what is ready, park when idle.
    fn run(self: &Arc<Self>, cell: &Arc<Cell<C>>) {
        let Some(mut conn) = cell.start_running() else {
            return;
        };
        let mut runs = 0;
        while !self.stop.load(Ordering::Acquire) {
            // wsd-lint: allow(raw-clock): loop_us measures the real cost of one pump on the pool; routing it through a virtual clock would hide the thing it measures
            let t0 = Instant::now();
            let verdict = conn.pump();
            self.tele.loop_us.record(t0.elapsed().as_micros() as u64);
            match verdict {
                Pump::Ready => {
                    self.tele.dispatches.inc();
                    if !conn.handle() {
                        break;
                    }
                    runs += 1;
                    if runs == MAX_RUNS_PER_JOB {
                        // Yield to the jobs waiting behind this one. A
                        // worker must not wait for room on its own
                        // pool's queue (if every worker did, nobody
                        // would pop), so with no room it carries on.
                        {
                            let mut slot = cell.slot.lock();
                            if matches!(slot.phase, Phase::Closed) {
                                break; // `shutdown` got here first
                            }
                            slot.rest(conn, Phase::Queued);
                        }
                        if self.handlers.try_execute(self.job(cell)).is_ok() {
                            return;
                        }
                        match cell.start_running() {
                            Some(back) => conn = back,
                            None => return,
                        }
                        runs = 0;
                    }
                }
                Pump::Idle => {
                    let partial = conn.has_partial();
                    let mut slot = cell.slot.lock();
                    match slot.phase {
                        Phase::Running { dirty: true } => {
                            // Bytes arrived after the pump above began.
                            slot.phase = Phase::Running { dirty: false };
                            continue;
                        }
                        // `shutdown` got here first. (One that has not
                        // yet will find the connection parked.)
                        Phase::Closed => break,
                        _ => {}
                    }
                    if partial {
                        self.tele.parked_partials.inc();
                    }
                    slot.rest(conn, Phase::Parked { partial });
                    return;
                }
                Pump::Closed => break,
            }
        }
        // Before `conn` drops: its Drop may fire its own wakeup hook,
        // which must find the cell `Closed` (or, when `shutdown` is
        // closing it this instant, still `Running`), never `Parked`.
        self.deregister(cell);
    }

    /// Takes a connection off the books, once: whoever finds the cell
    /// still in the map does the accounting, all of it under the map's
    /// lock, so a second caller (`shutdown` racing the job that saw
    /// `stop`) returns, and `open_connections()` reads zero, only once
    /// the gauge has been decremented too. A connection resting in the
    /// cell is dropped here; one held by an executing job is dropped by
    /// that job, which gets here itself or — closed by `shutdown` —
    /// finds `stop` set or the cell `Closed` at its next step.
    fn deregister(&self, cell: &Cell<C>) {
        // `conns.remove` then `open_conns.dec`: the race tests read
        // both back at 0 after every teardown (`reactor_races`).
        let mut conns = self.conns.lock();
        if conns.remove(&cell.id).is_none() {
            return;
        }
        self.tele.open_conns.dec();
        drop(conns);
        let resting = {
            let mut slot = cell.slot.lock();
            if let Phase::Parked { partial: true } = slot.phase {
                self.tele.parked_partials.dec();
            }
            slot.phase = Phase::Closed;
            slot.conn.take()
        };
        // Outside every lock: a conn's Drop may fire its own wakeup
        // hook, which locks the cell.
        drop(resting);
    }
}

/// A run-to-completion connection scheduler over a handler
/// [`ThreadPool`].
pub struct Reactor<C: ReactorConn> {
    shared: Arc<Shared<C>>,
}

impl<C: ReactorConn> Reactor<C> {
    /// Starts the reactor. `handlers` is the pool connections are pumped
    /// and handled on (the dispatcher's existing `CxThread` pool); the
    /// reactor adds no thread to it. Its instruments live under
    /// `telemetry`: `open_conns` and `parked_partials` gauges, a
    /// `loop_us` histogram (one `pump`), `dispatches` (one per `Ready`
    /// run) and `wakeups` (one per hook firing) counters.
    pub fn start(handlers: Arc<ThreadPool>, telemetry: &Scope) -> Arc<Reactor<C>> {
        Arc::new(Reactor {
            shared: Arc::new(Shared {
                conns: OrderedMutex::new("reactor.state", HashMap::new()),
                handlers,
                stop: AtomicBool::new(false),
                next_id: AtomicU64::new(0),
                tele: ReactorTelemetry::new(telemetry),
            }),
        })
    }

    /// Takes ownership of `conn`: installs the wakeup hook and queues
    /// the connection's first job (bytes may already be buffered). May
    /// block as [`ThreadPool::execute`] does.
    pub fn register(&self, mut conn: C) {
        let shared = &self.shared;
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Born `Queued`, so a wake-up that fires before the first job is
        // submitted below leaves it alone.
        let cell = Arc::new(Cell {
            id,
            slot: OrderedMutex::new("reactor.conn", Slot { phase: Phase::Queued, conn: None }),
        });
        let (weak, hook_cell) = (Arc::downgrade(shared), Arc::clone(&cell));
        conn.install_wakeup(Arc::new(move || {
            if let Some(shared) = weak.upgrade() {
                shared.tele.wakeups.inc();
                shared.schedule(&hook_cell);
            }
        }));
        cell.slot.lock().conn = Some(conn);
        shared.tele.open_conns.inc();
        shared.conns.lock().insert(id, Arc::clone(&cell));
        // Read after the insert: `shutdown` sets `stop` before it
        // collects the cells, so a cell it missed sees it here.
        if shared.stop.load(Ordering::Acquire) {
            return shared.deregister(&cell);
        }
        shared.submit(&cell);
    }

    /// Connections currently registered (parked or in a job).
    pub fn open_connections(&self) -> usize {
        self.shared.conns.lock().len()
    }

    /// Parked connections holding a partial request.
    pub fn parked_partials(&self) -> usize {
        self.shared.tele.parked_partials.get().max(0) as usize
    }

    /// Stops the reactor, deregisters every connection and drops those
    /// at rest (closing their transports). A connection inside
    /// `pump`/`handle` is dropped by its job when that call returns; the
    /// caller is responsible for shutting the handler pool down
    /// afterwards.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        let cells: Vec<Arc<Cell<C>>> = self.shared.conns.lock().values().cloned().collect();
        for cell in &cells {
            self.shared.deregister(cell);
        }
    }
}

impl<C: ReactorConn> Drop for Reactor<C> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<C: ReactorConn> std::fmt::Debug for Reactor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("open", &self.open_connections())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

    /// A scripted connection: `pending` complete requests to serve,
    /// `partial` bytes parked, `closed` once the peer hung up.
    struct FakeConn {
        shared: Arc<FakeShared>,
    }

    struct FakeShared {
        pending: AtomicUsize,
        handled: AtomicUsize,
        partial: AtomicBool,
        closed: AtomicBool,
        keep: AtomicBool,
        wake: Mutex<Option<Wakeup>>,
    }

    impl FakeShared {
        fn new() -> Arc<Self> {
            Arc::new(FakeShared {
                pending: AtomicUsize::new(0),
                handled: AtomicUsize::new(0),
                partial: AtomicBool::new(false),
                closed: AtomicBool::new(false),
                keep: AtomicBool::new(true),
                wake: Mutex::new(None),
            })
        }

        fn send(&self, n: usize) {
            self.pending.fetch_add(n, Ordering::SeqCst);
            self.wake();
        }

        fn close(&self) {
            self.closed.store(true, Ordering::SeqCst);
            self.wake();
        }

        fn wake(&self) {
            let hook = self.wake.lock().clone();
            if let Some(h) = hook {
                h();
            }
        }
    }

    impl ReactorConn for FakeConn {
        fn install_wakeup(&mut self, hook: Wakeup) {
            *self.shared.wake.lock() = Some(hook);
        }

        fn pump(&mut self) -> Pump {
            if self.shared.pending.load(Ordering::SeqCst) > 0 {
                Pump::Ready
            } else if self.shared.closed.load(Ordering::SeqCst) {
                Pump::Closed
            } else {
                Pump::Idle
            }
        }

        fn handle(&mut self) -> bool {
            let n = self.shared.pending.swap(0, Ordering::SeqCst);
            self.shared.handled.fetch_add(n, Ordering::SeqCst);
            self.shared.keep.load(Ordering::SeqCst)
        }

        fn has_partial(&self) -> bool {
            self.shared.partial.load(Ordering::SeqCst)
        }
    }

    fn rig() -> (Arc<ThreadPool>, Arc<Reactor<FakeConn>>) {
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 2)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &Scope::noop());
        (pool, reactor)
    }

    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..500 {
            if cond() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn dispatches_ready_connections_to_handlers() {
        let (_pool, reactor) = rig();
        let conn = FakeShared::new();
        reactor.register(FakeConn {
            shared: Arc::clone(&conn),
        });
        assert_eq!(reactor.open_connections(), 1);
        conn.send(3);
        assert!(wait_until(|| conn.handled.load(Ordering::SeqCst) == 3));
        // Connection survives and handles a second burst.
        conn.send(2);
        assert!(wait_until(|| conn.handled.load(Ordering::SeqCst) == 5));
        reactor.shutdown();
        assert_eq!(reactor.open_connections(), 0);
    }

    #[test]
    fn peer_close_deregisters() {
        let (_pool, reactor) = rig();
        let conn = FakeShared::new();
        reactor.register(FakeConn {
            shared: Arc::clone(&conn),
        });
        conn.close();
        assert!(wait_until(|| reactor.open_connections() == 0));
        reactor.shutdown();
    }

    #[test]
    fn handler_requested_close_deregisters() {
        let (_pool, reactor) = rig();
        let conn = FakeShared::new();
        conn.keep.store(false, Ordering::SeqCst);
        reactor.register(FakeConn {
            shared: Arc::clone(&conn),
        });
        conn.send(1);
        assert!(wait_until(|| conn.handled.load(Ordering::SeqCst) == 1));
        assert!(wait_until(|| reactor.open_connections() == 0));
        reactor.shutdown();
    }

    #[test]
    fn partial_gauge_tracks_parked_partials() {
        let reg = wsd_telemetry::Registry::new();
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 2)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &reg.scope("r"));
        let conn = FakeShared::new();
        reactor.register(FakeConn {
            shared: Arc::clone(&conn),
        });
        conn.partial.store(true, Ordering::SeqCst);
        conn.wake(); // pump -> Idle with a partial buffered
        assert!(wait_until(|| reactor.parked_partials() == 1));
        conn.partial.store(false, Ordering::SeqCst);
        conn.close();
        assert!(wait_until(|| reactor.open_connections() == 0));
        assert_eq!(reactor.parked_partials(), 0);
        reactor.shutdown();
        let snap = reg.snapshot();
        assert!(snap.counter("r.wakeups") >= 2);
        let (open, _) = match snap.get("r.open_conns") {
            Some(wsd_telemetry::MetricValue::Gauge { value, peak }) => (*value, *peak),
            other => panic!("expected gauge, got {other:?}"),
        };
        assert_eq!(open, 0);
    }

    #[test]
    fn shutdown_drops_parked_connections() {
        let (pool, reactor) = rig();
        for _ in 0..8 {
            reactor.register(FakeConn {
                shared: FakeShared::new(),
            });
        }
        assert!(wait_until(|| reactor.open_connections() == 8));
        reactor.shutdown();
        assert_eq!(reactor.open_connections(), 0);
        pool.shutdown();
    }

    #[test]
    fn register_after_shutdown_drops_connection() {
        let (_pool, reactor) = rig();
        reactor.shutdown();
        reactor.register(FakeConn {
            shared: FakeShared::new(),
        });
        assert_eq!(reactor.open_connections(), 0);
    }

    #[test]
    fn many_connections_few_handler_threads() {
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 2)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &Scope::noop());
        let conns: Vec<Arc<FakeShared>> = (0..64).map(|_| FakeShared::new()).collect();
        for c in &conns {
            reactor.register(FakeConn {
                shared: Arc::clone(c),
            });
        }
        for c in &conns {
            c.send(1);
        }
        assert!(wait_until(|| conns
            .iter()
            .all(|c| c.handled.load(Ordering::SeqCst) == 1)));
        assert_eq!(reactor.open_connections(), 64);
        // Still exactly 2 handler threads.
        assert_eq!(pool.worker_count(), 2);
        reactor.shutdown();
    }

    #[test]
    fn always_ready_connections_take_turns_on_one_worker() {
        /// `Ready` on every pump until told to close; logs every run.
        struct Busy {
            idx: usize,
            log: Arc<Mutex<Vec<usize>>>,
            close: Arc<AtomicBool>,
        }
        impl ReactorConn for Busy {
            fn install_wakeup(&mut self, _hook: Wakeup) {}
            fn pump(&mut self) -> Pump {
                if self.close.load(Ordering::SeqCst) {
                    Pump::Closed
                } else {
                    Pump::Ready
                }
            }
            fn handle(&mut self) -> bool {
                self.log.lock().push(self.idx);
                true
            }
        }
        const CONNS: usize = 8;
        const ROUNDS: usize = 16;
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 1)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &Scope::noop());
        let log = Arc::new(Mutex::new(Vec::new()));
        let close = Arc::new(AtomicBool::new(false));
        // Hold the only worker until every connection's job is queued,
        // so the queue order is the registration order.
        let (held, release) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            let _ = release.recv();
        })
        .unwrap();
        for idx in 0..CONNS {
            reactor.register(Busy {
                idx,
                log: Arc::clone(&log),
                close: Arc::clone(&close),
            });
        }
        drop(held);
        assert!(wait_until(|| log.lock().len() >= CONNS * MAX_RUNS_PER_JOB * ROUNDS));
        close.store(true, Ordering::SeqCst);
        assert!(wait_until(|| reactor.open_connections() == 0));
        reactor.shutdown();
        // Each job does its bounded share and goes to the back of the
        // queue: strict round-robin, MAX_RUNS_PER_JOB runs a turn.
        let log = log.lock();
        for (turn, runs) in log.chunks(MAX_RUNS_PER_JOB).take(CONNS * ROUNDS).enumerate() {
            assert!(
                runs.iter().all(|idx| *idx == turn % CONNS),
                "turn {turn} belongs to connection {}: {runs:?}",
                turn % CONNS
            );
        }
    }

    #[test]
    fn shutdown_under_a_yielding_job_accounts_the_connection_once() {
        /// Always `Ready`; holds the job inside the run it yields after.
        struct Busy {
            runs: usize,
            entered: std::sync::mpsc::Sender<()>,
            release: std::sync::mpsc::Receiver<()>,
        }
        impl ReactorConn for Busy {
            fn install_wakeup(&mut self, _hook: Wakeup) {}
            fn pump(&mut self) -> Pump {
                Pump::Ready
            }
            fn handle(&mut self) -> bool {
                self.runs += 1;
                if self.runs == MAX_RUNS_PER_JOB {
                    self.entered.send(()).unwrap();
                    let _ = self.release.recv();
                }
                true
            }
        }
        let reg = wsd_telemetry::Registry::new();
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 1)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &reg.scope("r"));
        let (entered, inside) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel();
        reactor.register(Busy {
            runs: 0,
            entered,
            release: released,
        });
        inside.recv().unwrap();
        // Closes the cell under the job; the job must not put the
        // connection back into it when it comes to yield.
        reactor.shutdown();
        release.send(()).unwrap();
        pool.shutdown();
        assert_eq!(reactor.open_connections(), 0);
        match reg.snapshot().get("r.open_conns") {
            Some(wsd_telemetry::MetricValue::Gauge { value, .. }) => assert_eq!(*value, 0),
            other => panic!("expected gauge, got {other:?}"),
        }
    }
}
