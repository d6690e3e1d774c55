//! Lock order across the substrate, observed.
//!
//! The runtime auditor (`ordered::audit`) records every held-class →
//! newly-acquired-class edge it actually observes, and panics on a
//! cycle. The invariant checked here: after exercising the pool, queue,
//! map, latch and reactor, **no edge leaves a workspace lock class** —
//! no code path takes one Ordered lock while holding another, so there
//! is no order to get wrong. (`wsd-store` nests its log lock under the
//! mailbox lock on purpose; its own tests run under the same auditor.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsd_concurrent::ordered::audit;
use wsd_concurrent::{
    CountDownLatch, FifoQueue, OrderedMutex, PoolConfig, Pump, Reactor, ReactorConn, ShardedMap,
    ThreadPool, Wakeup,
};

/// Idle until its one request arrives, serves it, then reports the
/// peer gone — with the one left parked for `shutdown`, every reactor
/// path that takes a lock runs (register, hook, job start, park,
/// deregister, shutdown).
struct OneShotConn {
    arrived: Arc<AtomicUsize>,
    served: Arc<AtomicUsize>,
    hook: Arc<parking_lot::Mutex<Option<Wakeup>>>,
}

impl ReactorConn for OneShotConn {
    fn install_wakeup(&mut self, hook: Wakeup) {
        *self.hook.lock() = Some(hook);
    }

    fn pump(&mut self) -> Pump {
        let served = self.served.load(Ordering::SeqCst);
        if self.arrived.load(Ordering::SeqCst) > served {
            Pump::Ready
        } else if served > 0 {
            Pump::Closed
        } else {
            Pump::Idle
        }
    }

    fn handle(&mut self) -> bool {
        self.served.fetch_add(1, Ordering::SeqCst);
        true
    }
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("{what}");
}

fn exercise_everything() {
    // Pool + queue: workers pushing/popping through fifo_queue.state
    // while thread_pool.handles manages worker lifecycles.
    let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("xcheck", 2)).unwrap());
    let queue: Arc<FifoQueue<u32>> = Arc::new(FifoQueue::bounded(8));
    let latch = Arc::new(CountDownLatch::new(2));
    for i in 0..2u32 {
        let q = Arc::clone(&queue);
        let l = Arc::clone(&latch);
        let _ = pool.execute(move || {
            q.push(i).unwrap();
            l.count_down();
        });
    }
    latch.wait();
    assert!(queue.pop().is_ok() && queue.pop().is_ok());

    // Sharded map: per-shard rwlocks.
    let map: ShardedMap<u32, u32> = ShardedMap::new();
    for i in 0..32 {
        map.insert(i, i * 2);
    }

    // Reactor: per-connection cells (reactor.conn) and the connection
    // map (reactor.state).
    let reactor = Reactor::start(Arc::clone(&pool), &wsd_telemetry::Scope::noop());
    let (arrived, served) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let hook = Arc::new(parking_lot::Mutex::new(None));
    reactor.register(OneShotConn {
        arrived: Arc::clone(&arrived),
        served: Arc::clone(&served),
        hook: Arc::clone(&hook),
    });
    arrived.store(1, Ordering::SeqCst);
    // As a transport calls it: outside its own lock.
    let fire = hook.lock().clone().expect("hook installed");
    fire();
    wait_for("request never served", || served.load(Ordering::SeqCst) == 1);
    wait_for("served connection never deregistered", || reactor.open_connections() == 0);
    // One more, left parked for `shutdown` to drop.
    reactor.register(OneShotConn {
        arrived: Arc::default(),
        served: Arc::default(),
        hook: Arc::default(),
    });
    reactor.shutdown();
    pool.shutdown();
}

#[test]
fn no_workspace_lock_is_held_while_another_is_taken() {
    if !cfg!(debug_assertions) {
        return; // the dynamic auditor is compiled out in release builds
    }
    exercise_everything();

    // Prove the instrument itself records nesting: two test-local
    // classes acquired nested must show up as an edge. Without this the
    // check below could pass vacuously even if the auditor were broken.
    let outer = OrderedMutex::new("xcheck.outer", 0u8);
    let inner = OrderedMutex::new("xcheck.inner", 0u8);
    {
        let _a = outer.lock();
        let _b = inner.lock();
    }
    let edges = audit::edges();
    assert!(
        edges.contains(&("xcheck.outer", "xcheck.inner")),
        "auditor failed to record the deliberate nested acquisition: {edges:?}"
    );

    // The substrate nests no Ordered acquisition (the reactor's hook
    // submits to the pool after releasing its cell, `shutdown` collects
    // the cells before it visits them), so the only edge is the one
    // above: no order to get wrong, and no cycle to close.
    assert_eq!(
        edges,
        [("xcheck.outer", "xcheck.inner")],
        "a lock was taken under another"
    );
}
