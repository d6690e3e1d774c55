//! Hold/retry delivery with expiration.
//!
//! Paper §4.4 (future work): "improve forwarding service by adding
//! hold/retry on delivery to simple one way messaging with messages
//! stored ... with expiration time", related to WS-ReliableMessaging.
//! This module is the pure backoff policy; the simulated MSG-Dispatcher
//! (`sim/msg_dispatcher.rs`) is its one driver.

/// Retry policy: exponential backoff, bounded attempts. Times are in
/// microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts (including the first).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_backoff_us: u64,
    /// Cap on a single backoff interval.
    pub max_backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_us: 500_000,        // 0.5 s
            max_backoff_us: 30_000_000,      // 30 s
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt number `attempt` (attempt 1 is the first
    /// try and has no backoff). `None` once attempts are exhausted.
    pub fn backoff_before(&self, attempt: u32) -> Option<u64> {
        if attempt <= 1 {
            return if self.max_attempts >= 1 { Some(0) } else { None };
        }
        if attempt > self.max_attempts {
            return None;
        }
        let shift = (attempt - 2).min(30);
        Some((self.base_backoff_us << shift).min(self.max_backoff_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 100,
            max_backoff_us: 300,
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = policy();
        assert_eq!(p.backoff_before(1), Some(0));
        assert_eq!(p.backoff_before(2), Some(100));
        assert_eq!(p.backoff_before(3), Some(200));
        assert_eq!(p.backoff_before(4), Some(300)); // capped (400 → 300)
        assert_eq!(p.backoff_before(5), None);
    }

    #[test]
    fn zero_attempt_policy_never_tries() {
        let p = RetryPolicy {
            max_attempts: 0,
            ..policy()
        };
        assert_eq!(p.backoff_before(1), None);
    }
}
