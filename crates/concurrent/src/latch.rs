//! Count-down latch: a one-shot barrier the load generator uses to release
//! all ramped-up clients at once and to wait for a run to drain.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Condvar;

use crate::ordered::{audit, OrderedMutex};

/// A one-shot barrier initialized with a count; waiters block until the
/// count reaches zero.
#[derive(Clone)]
pub struct CountDownLatch {
    inner: Arc<Inner>,
}

struct Inner {
    count: OrderedMutex<usize>,
    zero: Condvar,
}

impl CountDownLatch {
    /// Creates a latch that opens after `count` calls to
    /// [`count_down`](Self::count_down). A zero count is already open.
    pub fn new(count: usize) -> Self {
        CountDownLatch {
            inner: Arc::new(Inner {
                count: OrderedMutex::new("latch.count", count),
                zero: Condvar::new(),
            }),
        }
    }

    /// Decrements the count, waking all waiters when it reaches zero.
    /// Counting down past zero is a no-op.
    pub fn count_down(&self) {
        let mut c = self.inner.count.lock();
        if *c > 0 {
            *c -= 1;
            if *c == 0 {
                drop(c);
                self.inner.zero.notify_all();
            }
        }
    }

    /// Blocks until the count reaches zero.
    pub fn wait(&self) {
        audit::assert_unlocked("CountDownLatch::wait");
        let mut c = self.inner.count.lock();
        while *c > 0 {
            c.wait(&self.inner.zero);
        }
    }

    /// Blocks until the count reaches zero or `timeout` elapses. Returns
    /// `true` if the latch opened.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        // wsd-lint: allow(raw-clock): condvar parking needs a monotonic Instant deadline; no simulated time crosses this boundary
        let deadline = std::time::Instant::now() + timeout;
        let mut c = self.inner.count.lock();
        while *c > 0 {
            if c.wait_until(&self.inner.zero, deadline) {
                return *c == 0;
            }
        }
        true
    }

    /// The current count.
    pub fn count(&self) -> usize {
        *self.inner.count.lock()
    }
}

impl std::fmt::Debug for CountDownLatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountDownLatch")
            .field("count", &self.count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn zero_latch_is_open() {
        let l = CountDownLatch::new(0);
        l.wait();
        assert!(l.wait_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn opens_after_count_reaches_zero() {
        let l = CountDownLatch::new(3);
        let l2 = l.clone();
        let h = thread::spawn(move || {
            l2.wait();
            true
        });
        l.count_down();
        l.count_down();
        assert_eq!(l.count(), 1);
        l.count_down();
        assert!(h.join().unwrap());
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn count_down_past_zero_is_noop() {
        let l = CountDownLatch::new(1);
        l.count_down();
        l.count_down();
        assert_eq!(l.count(), 0);
    }

    #[test]
    fn wait_timeout_expires() {
        let l = CountDownLatch::new(1);
        assert!(!l.wait_timeout(Duration::from_millis(10)));
    }

    #[test]
    fn many_waiters_released_together() {
        let l = CountDownLatch::new(1);
        let mut hs = Vec::new();
        for _ in 0..8 {
            let l = l.clone();
            hs.push(thread::spawn(move || l.wait()));
        }
        thread::sleep(Duration::from_millis(20));
        l.count_down();
        for h in hs {
            h.join().unwrap();
        }
    }
}
