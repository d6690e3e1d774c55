//! The reactor's scheduling protocol under the interleavings that could
//! break it: a wake-up at every point of a job's life, peer close and
//! shutdown racing running jobs, a pool that refuses work. Each test
//! forces its interleaving with a channel (or from inside a callback the
//! job makes at the point in question) rather than hoping to hit it;
//! `scripts/verify.sh reactor-stress` repeats the file, half the time
//! on one CPU, for the windows only a scheduler can open.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use parking_lot::Mutex;
use wsd_concurrent::{PoolConfig, Pump, Reactor, ReactorConn, ThreadPool, Wakeup};
use wsd_telemetry::{MetricValue, Registry};

/// A scripted connection: `pending` complete requests to serve,
/// `closed` once the peer hung up.
#[derive(Default)]
struct Script {
    pending: AtomicUsize,
    handled: AtomicUsize,
    pumps: AtomicUsize,
    partial: AtomicBool,
    closed: AtomicBool,
    /// A peer that never stops sending: every pump is `Ready`.
    always_ready: AtomicBool,
    wake: Mutex<Option<Wakeup>>,
    /// When set, `handle` reports in on the first channel and waits on
    /// the second, so a test can act while the job is inside `handle`.
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
    /// When set, the next `has_partial` — which the job calls between
    /// its last `pump` and parking — makes one more request arrive.
    arrive_before_park: AtomicBool,
}

impl Script {
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
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Arms the `handle` gate; returns (entered, release).
    fn gate_handle(&self) -> (Receiver<()>, Sender<()>) {
        let (entered, inside) = channel();
        let (release, released) = channel();
        *self.gate.lock() = Some((entered, released));
        (inside, release)
    }

    fn handled(&self) -> usize {
        self.handled.load(Ordering::SeqCst)
    }
}

struct ScriptConn(Arc<Script>);

impl ReactorConn for ScriptConn {
    fn install_wakeup(&mut self, hook: Wakeup) {
        *self.0.wake.lock() = Some(hook);
    }

    fn pump(&mut self) -> Pump {
        self.0.pumps.fetch_add(1, Ordering::SeqCst);
        if self.0.pending.load(Ordering::SeqCst) > 0
            || self.0.always_ready.load(Ordering::SeqCst)
        {
            Pump::Ready
        } else if self.0.closed.load(Ordering::SeqCst) {
            Pump::Closed
        } else {
            Pump::Idle
        }
    }

    fn handle(&mut self) -> bool {
        // The run is fixed before the gate: what arrives while the test
        // holds the job here belongs to the next pump.
        let n = self.0.pending.swap(0, Ordering::SeqCst).max(1);
        let gate = self.0.gate.lock().take();
        if let Some((entered, release)) = gate {
            entered.send(()).unwrap();
            let _ = release.recv();
        }
        self.0.handled.fetch_add(n, Ordering::SeqCst);
        true
    }

    fn has_partial(&self) -> bool {
        if self.0.arrive_before_park.swap(false, Ordering::SeqCst) {
            self.0.send(1);
        }
        self.0.partial.load(Ordering::SeqCst)
    }
}

struct Rig {
    reg: Registry,
    pool: Arc<ThreadPool>,
    reactor: Arc<Reactor<ScriptConn>>,
}

impl Rig {
    fn new(workers: usize) -> Rig {
        let reg = Registry::new();
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", workers)).unwrap());
        let reactor = Reactor::start(Arc::clone(&pool), &reg.scope("r"));
        Rig { reg, pool, reactor }
    }

    fn register(&self) -> Arc<Script> {
        let script = Arc::new(Script::default());
        self.reactor.register(ScriptConn(Arc::clone(&script)));
        script
    }

    fn gauge(&self, name: &str) -> i64 {
        match self.reg.snapshot().get(name) {
            Some(MetricValue::Gauge { value, .. }) => *value,
            other => panic!("expected gauge {name}, got {other:?}"),
        }
    }

    /// Both gauges are back at zero and nothing is registered.
    fn assert_drained(&self) {
        assert_eq!(self.reactor.open_connections(), 0);
        assert_eq!(self.gauge("r.open_conns"), 0);
        assert_eq!(self.gauge("r.parked_partials"), 0);
    }
}

/// Polls `cond` for up to ~5 s: yielding first (on one CPU that is what
/// lets the pool run), sleeping once it is clearly not imminent.
fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
    for spin in 0..5200 {
        if cond() {
            return true;
        }
        if spin < 200 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    false
}

#[test]
fn wake_during_handle_is_served_without_another_wake() {
    let rig = Rig::new(2);
    let conn = rig.register();
    let (entered, release) = conn.gate_handle();
    conn.send(1);
    entered.recv().unwrap();
    // The job is inside `handle`: this wake-up finds it running.
    conn.send(1);
    release.send(()).unwrap();
    // Nothing wakes the connection again; the job itself must come back.
    assert!(wait_until(|| conn.handled() == 2), "second request stranded");
    rig.reactor.shutdown();
    rig.assert_drained();
}

#[test]
fn wake_between_last_pump_and_park_is_served() {
    let rig = Rig::new(2);
    let conn = rig.register();
    for i in 1..=10_000 {
        // The job pumps `Idle` after this request, asks `has_partial`,
        // and there — before it parks — one more arrives.
        conn.arrive_before_park.store(true, Ordering::SeqCst);
        conn.send(1);
        assert!(
            wait_until(|| conn.handled() == 2 * i),
            "iteration {i}: wake-up lost on the way to parking ({} handled)",
            conn.handled()
        );
    }
    rig.reactor.shutdown();
    rig.assert_drained();
}

#[test]
fn peer_close_while_running_deregisters_once() {
    let rig = Rig::new(2);
    let conn = rig.register();
    conn.partial.store(true, Ordering::SeqCst);
    conn.wake();
    assert!(wait_until(|| rig.reactor.parked_partials() == 1));
    let (entered, release) = conn.gate_handle();
    conn.send(1);
    entered.recv().unwrap();
    assert_eq!(rig.reactor.parked_partials(), 0, "a running connection is not parked");
    conn.close();
    conn.close(); // a peer's close can fire the hook more than once
    release.send(()).unwrap();
    assert!(wait_until(|| rig.reactor.open_connections() == 0));
    assert_eq!(conn.handled(), 1);
    // A second deregistration would drive the gauge below zero.
    rig.assert_drained();
    rig.reactor.shutdown();
    rig.assert_drained();
}

#[test]
fn shutdown_with_jobs_running_and_parked_leaks_nothing() {
    let rig = Rig::new(2);
    let parked: Vec<Arc<Script>> = (0..6).map(|_| rig.register()).collect();
    parked[0].partial.store(true, Ordering::SeqCst);
    parked[0].wake();
    assert!(wait_until(|| rig.reactor.parked_partials() == 1));
    let running: Vec<Arc<Script>> = (0..2).map(|_| rig.register()).collect();
    let gates: Vec<_> = running.iter().map(|c| c.gate_handle()).collect();
    for conn in &running {
        conn.send(1);
    }
    for (entered, _) in &gates {
        entered.recv().unwrap();
    }
    // Both workers are inside `handle`; six connections are parked.
    rig.reactor.shutdown();
    rig.assert_drained();
    for (_, release) in &gates {
        release.send(()).unwrap();
    }
    rig.pool.shutdown();
    // The running jobs finished their run, then let go instead of parking.
    for conn in &running {
        assert_eq!(conn.handled(), 1);
    }
    rig.assert_drained();
    // Wake-ups after the fact find closed cells.
    for conn in parked.iter().chain(&running) {
        conn.send(1);
    }
    rig.assert_drained();
}

#[test]
fn pool_shut_down_first_fails_the_submit_inside_the_hook() {
    let rig = Rig::new(2);
    let conns: Vec<Arc<Script>> = (0..4).map(|_| rig.register()).collect();
    assert!(wait_until(|| conns.iter().all(|c| c.pumps.load(Ordering::SeqCst) >= 1)));
    rig.pool.shutdown();
    // The hook's `execute` is refused: it deregisters on the spot.
    conns[0].send(1);
    conns[1].close();
    assert_eq!(rig.reactor.open_connections(), 2);
    assert_eq!(conns[0].handled(), 0);
    // So is a registration's first job.
    rig.register();
    assert_eq!(rig.reactor.open_connections(), 2);
    rig.reactor.shutdown();
    rig.assert_drained();
}

#[test]
fn shutdown_racing_wakes_and_registrations_leaks_nothing() {
    for _ in 0..200 {
        let rig = Rig::new(2);
        let conns: Vec<Arc<Script>> = (0..8).map(|_| rig.register()).collect();
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for conn in &conns {
                    conn.send(1);
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..4 {
                    rig.register();
                }
            });
            start.wait();
            rig.reactor.shutdown();
        });
        rig.pool.shutdown();
        rig.assert_drained();
    }
}

#[test]
fn shutdown_under_busy_connections_accounts_each_once() {
    for _ in 0..50 {
        let rig = Rig::new(2);
        let conns: Vec<Arc<Script>> = (0..4).map(|_| rig.register()).collect();
        for conn in &conns {
            conn.always_ready.store(true, Ordering::SeqCst);
            conn.wake();
        }
        // Every job is now executing, or queued behind one that will
        // yield to it: `shutdown` finds cells in both phases.
        assert!(wait_until(|| conns.iter().all(|c| c.handled() > 0)));
        rig.reactor.shutdown();
        rig.pool.shutdown();
        rig.assert_drained();
    }
}

/// A request/response transport in miniature: the client pushes request
/// ids and fires the hook; `handle` answers each id in order.
#[derive(Default)]
struct Wire {
    requests: Mutex<VecDeque<u32>>,
    responses: Mutex<Vec<u32>>,
    answered: AtomicUsize,
    wake: Mutex<Option<Wakeup>>,
}

struct WireConn {
    wire: Arc<Wire>,
    run: Vec<u32>,
}

impl ReactorConn for WireConn {
    fn install_wakeup(&mut self, hook: Wakeup) {
        *self.wire.wake.lock() = Some(hook);
    }

    fn pump(&mut self) -> Pump {
        self.run.extend(self.wire.requests.lock().drain(..));
        if self.run.is_empty() {
            Pump::Idle
        } else {
            Pump::Ready
        }
    }

    fn handle(&mut self) -> bool {
        self.wire.responses.lock().append(&mut self.run);
        self.wire.answered.store(self.wire.responses.lock().len(), Ordering::SeqCst);
        true
    }
}

#[test]
fn closed_loop_clients_never_strand_a_request() {
    const CONNS: usize = 32;
    const CLIENTS: usize = 4;
    const EXCHANGES: u32 = 400;
    let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 2)).unwrap());
    let reactor = Reactor::start(Arc::clone(&pool), &wsd_telemetry::Scope::noop());
    let wires: Vec<Arc<Wire>> = (0..CONNS).map(|_| Arc::new(Wire::default())).collect();
    for wire in &wires {
        reactor.register(WireConn {
            wire: Arc::clone(wire),
            run: Vec::new(),
        });
    }
    std::thread::scope(|s| {
        for mine in wires.chunks(CONNS / CLIENTS) {
            s.spawn(move || {
                // Each request goes out only after the previous answer is
                // in, so every one lands on a connection that is parked
                // or on its way there: one lost wake-up hangs the loop.
                for id in 0..EXCHANGES {
                    for wire in mine {
                        wire.requests.lock().push_back(id);
                        let hook = wire.wake.lock().clone().expect("hook installed");
                        hook();
                    }
                    for wire in mine {
                        let want = id as usize + 1;
                        assert!(
                            wait_until(|| wire.answered.load(Ordering::SeqCst) >= want),
                            "request {id} never answered"
                        );
                    }
                }
            });
        }
    });
    for wire in &wires {
        let want: Vec<u32> = (0..EXCHANGES).collect();
        assert_eq!(*wire.responses.lock(), want, "lost, duplicated or reordered");
    }
    assert_eq!(reactor.open_connections(), CONNS);
    assert_eq!(pool.worker_count(), 2);
    reactor.shutdown();
    assert_eq!(reactor.open_connections(), 0);
}
