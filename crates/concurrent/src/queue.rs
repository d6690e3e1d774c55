//! Bounded, blocking, multi-producer/multi-consumer FIFO queue.
//!
//! This is the queue that sits between the MSG-Dispatcher's `CxThread` and
//! `WsThread` pools (paper §4.2, Figure 3): accepted messages are pushed in
//! arrival order and each destination's sender thread drains them in FIFO
//! order over a single kept-open connection.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Condvar;
use wsd_telemetry::{Counter, Gauge, Scope};

use crate::ordered::{audit, OrderedMutex, OrderedMutexGuard};

/// Error returned by push operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was full and the operation was non-blocking (or timed out).
    /// The rejected element is handed back to the caller.
    Full(T),
    /// The queue has been closed; no further elements are accepted.
    Closed(T),
}

/// Error returned by pop operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The queue was empty and the operation was non-blocking (or timed out).
    Empty,
    /// The queue is closed *and* drained; no element will ever arrive.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

/// A bounded, blocking MPMC FIFO queue.
///
/// Cloning the handle is cheap (it is an `Arc` internally); all clones refer
/// to the same queue.
///
/// # Ordering guarantee
///
/// Elements are delivered in exactly the order they were pushed (a single
/// global FIFO order — pops observe the push linearization order).
pub struct FifoQueue<T> {
    inner: Arc<Shared<T>>,
}

struct Shared<T> {
    state: OrderedMutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    tele: OnceLock<QueueTelemetry>,
}

/// Instruments registered by [`FifoQueue::bind_telemetry`].
struct QueueTelemetry {
    depth: Gauge,
    pushed: Counter,
    popped: Counter,
    rejected: Counter,
}

impl<T> Shared<T> {
    fn note_push(&self, depth: usize) {
        if let Some(t) = self.tele.get() {
            t.pushed.inc();
            t.depth.set(depth as i64);
        }
    }

    fn note_pop(&self, depth: usize) {
        if let Some(t) = self.tele.get() {
            t.popped.inc();
            t.depth.set(depth as i64);
        }
    }

    fn note_rejected(&self) {
        if let Some(t) = self.tele.get() {
            t.rejected.inc();
        }
    }
}

impl<T> Clone for FifoQueue<T> {
    fn clone(&self) -> Self {
        FifoQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> FifoQueue<T> {
    /// Creates a queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        FifoQueue {
            inner: Arc::new(Shared {
                state: OrderedMutex::new("fifo_queue.state", Inner {
                    items: VecDeque::with_capacity(capacity.min(1024)),
                    capacity,
                    closed: false,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                tele: OnceLock::new(),
            }),
        }
    }

    /// Binds telemetry instruments (`depth` gauge, `pushed`/`popped`/
    /// `rejected` counters) under `scope`. Only the first bind takes
    /// effect; later calls are ignored.
    pub fn bind_telemetry(&self, scope: &Scope) {
        let _ = self.inner.tele.set(QueueTelemetry {
            depth: scope.gauge("depth"),
            pushed: scope.counter("pushed"),
            popped: scope.counter("popped"),
            rejected: scope.counter("rejected"),
        });
    }

    /// Pushes an element, blocking while the queue is full.
    pub fn push(&self, value: T) -> Result<(), PushError<T>> {
        audit::assert_unlocked("FifoQueue::push");
        let mut st = self.inner.state.lock();
        loop {
            if st.closed {
                return Err(PushError::Closed(value));
            }
            if st.items.len() < st.capacity {
                st.items.push_back(value);
                let depth = st.items.len();
                drop(st);
                self.inner.note_push(depth);
                self.inner.not_empty.notify_one();
                return Ok(());
            }
            st.wait(&self.inner.not_full);
        }
    }

    /// Pushes an element without blocking.
    pub fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let mut st = self.inner.state.lock();
        if st.closed {
            return Err(PushError::Closed(value));
        }
        if st.items.len() >= st.capacity {
            drop(st);
            self.inner.note_rejected();
            return Err(PushError::Full(value));
        }
        st.items.push_back(value);
        let depth = st.items.len();
        drop(st);
        self.inner.note_push(depth);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// Pops the oldest element, blocking while the queue is empty.
    ///
    /// Returns [`PopError::Closed`] once the queue is closed and drained.
    pub fn pop(&self) -> Result<T, PopError> {
        audit::assert_unlocked("FifoQueue::pop");
        let mut st = self.inner.state.lock();
        loop {
            if let Some(v) = st.items.pop_front() {
                let depth = st.items.len();
                drop(st);
                self.inner.note_pop(depth);
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if st.closed {
                return Err(PopError::Closed);
            }
            st.wait(&self.inner.not_empty);
        }
    }

    /// Pops the oldest element, blocking at most `timeout`.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, PopError> {
        // wsd-lint: allow(raw-clock): condvar parking needs a monotonic Instant deadline; no simulated time crosses this boundary
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if let Some(v) = st.items.pop_front() {
                let depth = st.items.len();
                drop(st);
                self.inner.note_pop(depth);
                self.inner.not_full.notify_one();
                return Ok(v);
            }
            if st.closed {
                return Err(PopError::Closed);
            }
            if st.wait_until(&self.inner.not_empty, deadline) {
                return Err(PopError::Empty);
            }
        }
    }

    /// Pops up to `max` elements, blocking at most `timeout` for the
    /// *first* one; the rest are whatever is already queued behind it.
    ///
    /// This is the WsThread drain primitive: block until traffic arrives
    /// (or the linger expires), then coalesce the backlog into one batch.
    pub fn pop_timeout_batch(&self, timeout: Duration, max: usize) -> Result<Vec<T>, PopError> {
        // wsd-lint: allow(raw-clock): condvar parking needs a monotonic Instant deadline; no simulated time crosses this boundary
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock();
        loop {
            if !st.items.is_empty() {
                return self.take_batch(st, max);
            }
            if st.closed {
                return Err(PopError::Closed);
            }
            if st.wait_until(&self.inner.not_empty, deadline) {
                return Err(PopError::Empty);
            }
        }
    }

    /// Takes up to `max` queued elements, consuming the held lock.
    fn take_batch(
        &self,
        mut st: OrderedMutexGuard<'_, Inner<T>>,
        max: usize,
    ) -> Result<Vec<T>, PopError> {
        if st.items.is_empty() {
            return if st.closed {
                Err(PopError::Closed)
            } else {
                Err(PopError::Empty)
            };
        }
        let n = st.items.len().min(max.max(1));
        let out: Vec<T> = st.items.drain(..n).collect();
        let depth = st.items.len();
        drop(st);
        if let Some(t) = self.inner.tele.get() {
            t.popped.add(out.len() as u64);
            t.depth.set(depth as i64);
        }
        if out.len() == 1 {
            self.inner.not_full.notify_one();
        } else {
            self.inner.not_full.notify_all();
        }
        Ok(out)
    }

    /// Drains every currently queued element in FIFO order.
    pub fn drain(&self) -> Vec<T> {
        let mut st = self.inner.state.lock();
        let out: Vec<T> = st.items.drain(..).collect();
        drop(st);
        if let Some(t) = self.inner.tele.get() {
            t.popped.add(out.len() as u64);
            t.depth.set(0);
        }
        self.inner.not_full.notify_all();
        out
    }

    /// Closes the queue: pending and future pushes fail, pops drain the
    /// remaining elements then report [`PopError::Closed`].
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        drop(st);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.state.lock().closed
    }

    /// Number of queued elements.
    pub fn len(&self) -> usize {
        self.inner.state.lock().items.len()
    }

    /// Whether the queue currently holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The maximum number of elements the queue can hold.
    pub fn capacity(&self) -> usize {
        self.inner.state.lock().capacity
    }
}

impl<T> std::fmt::Debug for FifoQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("FifoQueue")
            .field("len", &st.items.len())
            .field("capacity", &st.capacity)
            .field("closed", &st.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = FifoQueue::bounded(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap(), i);
        }
    }

    #[test]
    fn try_push_full_returns_element() {
        let q = FifoQueue::bounded(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn try_pop_empty() {
        let q: FifoQueue<u8> = FifoQueue::bounded(1);
        assert_eq!(q.pop_timeout(Duration::ZERO), Err(PopError::Empty));
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let q = FifoQueue::bounded(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Ok(1));
        assert_eq!(q.pop(), Ok(2));
        assert_eq!(q.pop(), Err(PopError::Closed));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = FifoQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop().unwrap());
        thread::sleep(Duration::from_millis(20));
        q.push(42u32).unwrap();
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = FifoQueue::bounded(1);
        q.push(1).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(2).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop().unwrap(), 1);
        h.join().unwrap();
        assert_eq!(q.pop().unwrap(), 2);
    }

    #[test]
    fn pop_timeout_expires() {
        let q: FifoQueue<u8> = FifoQueue::bounded(1);
        let err = q.pop_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, PopError::Empty);
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q: FifoQueue<u8> = FifoQueue::bounded(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(PopError::Closed));
    }

    #[test]
    fn drain_returns_in_order_and_unblocks_pushers() {
        let q = FifoQueue::bounded(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(4).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.drain(), vec![1, 2, 3]);
        h.join().unwrap();
        assert_eq!(q.pop().unwrap(), 4);
    }

    #[test]
    fn concurrent_producers_consumers_no_loss_no_dup() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        let q = FifoQueue::bounded(8);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn per_producer_order_preserved() {
        // With a single consumer, each producer's elements must appear in
        // that producer's push order.
        let q = FifoQueue::bounded(4);
        let mut producers = Vec::new();
        for p in 0..3usize {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..200usize {
                    q.push((p, i)).unwrap();
                }
            }));
        }
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Ok(v) = q.pop() {
                    seen.push(v);
                }
                seen
            })
        };
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let seen = consumer.join().unwrap();
        let mut next = [0usize; 3];
        for (p, i) in seen {
            assert_eq!(i, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        assert_eq!(next, [200, 200, 200]);
    }

    #[test]
    fn pop_batch_takes_up_to_max_in_order() {
        let q = FifoQueue::bounded(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 4).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 100).unwrap(), vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 4), Err(PopError::Empty));
        q.close();
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 4), Err(PopError::Closed));
    }

    #[test]
    fn pop_timeout_batch_blocks_for_first_element_only() {
        let q = FifoQueue::bounded(16);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop_timeout_batch(Duration::from_secs(5), 8));
        thread::sleep(Duration::from_millis(20));
        q.push(1).unwrap();
        // The batch contains whatever had arrived when the consumer woke:
        // at least the element that woke it, never more than max.
        let got = h.join().unwrap().unwrap();
        assert!(!got.is_empty() && got.len() <= 8);
        assert_eq!(got[0], 1);

        let err = q.pop_timeout_batch(Duration::from_millis(10), 8).unwrap_err();
        assert_eq!(err, PopError::Empty);
    }

    #[test]
    fn pop_batch_unblocks_pushers() {
        let q = FifoQueue::bounded(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || {
            q2.push(3).unwrap();
            q2.push(4).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 2).unwrap(), vec![1, 2]);
        h.join().unwrap();
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 4).unwrap(), vec![3, 4]);
    }

    #[test]
    fn batch_consumers_preserve_per_producer_fifo_no_loss_no_dup() {
        // The tentpole's drain loop pops in batches; per-producer order,
        // loss-freedom and dup-freedom must survive concurrent producers
        // with batch consumers of mixed sizes.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        let q = FifoQueue::bounded(8);
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push((p, i)).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for (c, max) in [1usize, 4, 16].into_iter().enumerate() {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match q.pop_timeout_batch(Duration::from_secs(10), max) {
                        Ok(batch) => {
                            assert!(batch.len() <= max, "consumer {c} overfull batch");
                            got.extend(batch);
                        }
                        Err(PopError::Closed) => return got,
                        Err(PopError::Empty) => panic!("consumer {c} starved"),
                    }
                }
            }));
        }
        for h in producers {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<(usize, usize)> = Vec::new();
        for c in consumers {
            let got = c.join().unwrap();
            // Within one consumer, each producer's elements are in order
            // (batches are contiguous FIFO slices).
            let mut next: Vec<Option<usize>> = vec![None; PRODUCERS];
            for &(p, i) in &got {
                if let Some(prev) = next[p] {
                    assert!(i > prev, "producer {p} reordered within consumer");
                }
                next[p] = Some(i);
            }
            all.extend(got);
        }
        // Across all consumers: nothing lost, nothing duplicated.
        all.sort_unstable();
        let expected: Vec<(usize, usize)> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn pop_timeout_batch_racing_close_never_hangs_or_loses() {
        // Regression: consumers parked in `pop_timeout_batch` while
        // another thread closes the queue must wake promptly with
        // `Closed` after draining the backlog — not sleep out their full
        // timeout (a lost close wakeup) and not drop queued elements.
        // The long timeout makes a lost wakeup a loud test failure
        // instead of a flake.
        for round in 0..50usize {
            let q = FifoQueue::bounded(8);
            let mut consumers = Vec::new();
            for c in 0..3 {
                let q = q.clone();
                consumers.push(thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        match q.pop_timeout_batch(Duration::from_secs(30), 4) {
                            Ok(batch) => got.extend(batch),
                            Err(PopError::Closed) => return got,
                            Err(PopError::Empty) => {
                                panic!("consumer {c} slept through close: lost wakeup")
                            }
                        }
                    }
                }));
            }
            let producer = {
                let q = q.clone();
                thread::spawn(move || {
                    let mut sent = 0usize;
                    for i in 0..round {
                        // A producer blocked in `push` when the close
                        // lands must also wake with `Closed`.
                        if q.push(i).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    sent
                })
            };
            if round % 2 == 0 {
                thread::yield_now();
            }
            q.close();
            let sent = producer.join().unwrap();
            let mut all: Vec<usize> = Vec::new();
            for c in consumers {
                all.extend(c.join().unwrap());
            }
            all.sort_unstable();
            let expected: Vec<usize> = (0..sent).collect();
            assert_eq!(all, expected, "round {round}: close dropped or duplicated elements");
        }
    }

    #[test]
    fn pop_batch_telemetry_is_batched() {
        let reg = wsd_telemetry::Registry::new();
        let q = FifoQueue::bounded(8);
        q.bind_telemetry(&reg.scope("q"));
        for i in 0..6 {
            q.push(i).unwrap();
        }
        assert_eq!(q.pop_timeout_batch(Duration::ZERO, 4).unwrap().len(), 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("q.popped"), 4);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = FifoQueue::<u8>::bounded(0);
    }

    #[test]
    fn telemetry_counts_pushes_pops_and_rejections() {
        let reg = wsd_telemetry::Registry::new();
        let q = FifoQueue::bounded(2);
        q.bind_telemetry(&reg.scope("msg_dispatcher.queue"));
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.try_push(3).is_err());
        assert_eq!(q.pop().unwrap(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("msg_dispatcher.queue.pushed"), 2);
        assert_eq!(snap.counter("msg_dispatcher.queue.popped"), 1);
        assert_eq!(snap.counter("msg_dispatcher.queue.rejected"), 1);
        assert_eq!(snap.gauge_peak("msg_dispatcher.queue.depth"), 2);
    }
}
