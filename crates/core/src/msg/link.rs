//! The per-destination link machine: the `WsThread` delivery policy.
//!
//! Paper §4.2: a `WsThread` owns one destination — "per-destination FIFO
//! queues and a kept-open connection, draining multiple messages over one
//! connection" — and holds its pool slot while the peer is unreachable.
//! [`Link`] is that discipline as a pure state machine: one destination's
//! connection and the messages taken off its queue but not yet finished.
//! It holds no clock, socket, lock, thread or admission queue; the
//! simulated and the threaded MSG-Dispatcher report what happened and do
//! what [`Link::next`] says, with events and timers or with blocking I/O
//! (DESIGN §6 has the input/output table). An input that does not apply
//! in the current state is ignored, so a stale report cannot corrupt it.

use std::collections::VecDeque;

/// Retry policy: exponential backoff, bounded attempts (the hold/retry
/// with expiration of paper §4.4). Times are in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum delivery attempts (including the first).
    pub max_attempts: u32,
    /// Delay before the second attempt; doubles each retry.
    pub base_backoff_us: u64,
    /// Cap on a single backoff interval.
    pub max_backoff_us: u64,
}

impl RetryPolicy {
    /// Backoff before attempt number `attempt` (attempt 1 is the first
    /// try and has no backoff). `None` once attempts are exhausted.
    fn backoff_before(&self, attempt: u32) -> Option<u64> {
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

/// The one policy every destination is held to: a second connect 0.5 s
/// after the first fails, then the destination is given up on.
const DELIVERY_RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 2,
    base_backoff_us: 500_000,
    max_backoff_us: 5_000_000,
};

/// What the driver must do next.
#[derive(Debug, PartialEq, Eq)]
pub enum LinkStep<M> {
    /// Nothing: [`take`](Link::take) queued messages when there are some,
    /// report [`idle_expired`](Link::idle_expired) after a linger without.
    Idle,
    /// Open a connection; report [`connected`](Link::connected) or
    /// [`connect_failed`](Link::connect_failed).
    Connect,
    /// Write [`batch`](Link::batch); report [`wrote`](Link::wrote) or
    /// [`write_failed`](Link::write_failed).
    Write,
    /// Answers are due: report each with [`answered`](Link::answered), a
    /// dead connection with [`connection_lost`](Link::connection_lost).
    Await,
    /// Hold the thread this many microseconds, then report
    /// [`backoff_elapsed`](Link::backoff_elapsed).
    Wait(u64),
    /// Every attempt `DELIVERY_RETRY` allows failed: the destination is
    /// unreachable. These messages were never written to a connection and
    /// are gone from the link; the driver counts each as dropped, and
    /// drops what it still queues for the destination too.
    GiveUp(Vec<M>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conn {
    Down,
    Connecting,
    Up,
    Backoff(u64),
}

/// One destination's connection and in-flight messages.
#[derive(Debug)]
pub struct Link<M> {
    conn: Conn,
    /// Failed attempts since the last successful write.
    attempts: u32,
    /// Whether the current connection has carried a write.
    proven: bool,
    drain_batch: usize,
    /// Taken off the queue, not yet written to the current connection;
    /// the first `resends` of them were written to an earlier one.
    unsent: VecDeque<M>,
    resends: usize,
    /// Written, awaiting answers, oldest first; the flag marks a resend.
    unanswered: VecDeque<(M, bool)>,
    gave_up: Option<Vec<M>>,
}

impl<M> Link<M> {
    /// A link that is down and holds nothing; one write carries at most
    /// `drain_batch` messages.
    pub fn new(drain_batch: usize) -> Self {
        Link {
            conn: Conn::Down,
            attempts: 0,
            proven: false,
            drain_batch: drain_batch.max(1),
            unsent: VecDeque::new(),
            resends: 0,
            unanswered: VecDeque::new(),
            gave_up: None,
        }
    }

    /// Whether a connection is established.
    pub fn is_up(&self) -> bool {
        self.conn == Conn::Up
    }

    /// Whether messages taken off the queue still wait to be written.
    pub fn has_unsent(&self) -> bool {
        !self.unsent.is_empty()
    }

    /// Messages taken and not finished: unsent, or written and unanswered.
    pub fn in_flight(&self) -> usize {
        self.unsent.len() + self.unanswered.len()
    }

    /// Hands the link messages popped off the destination's queue.
    pub fn take(&mut self, msgs: impl IntoIterator<Item = M>) {
        self.unsent.extend(msgs);
    }

    /// What to do now. `queued`: the driver's queue holds messages it has
    /// not handed over (a driver that keeps them queued until the
    /// connection is up asks for the connection so).
    pub fn next(&mut self, queued: bool) -> LinkStep<M> {
        if let Some(dropped) = self.gave_up.take() {
            return LinkStep::GiveUp(dropped);
        }
        match self.conn {
            Conn::Down | Conn::Connecting if queued || self.has_unsent() => {
                self.conn = Conn::Connecting;
                LinkStep::Connect
            }
            Conn::Backoff(wait_us) => LinkStep::Wait(wait_us),
            Conn::Up if self.has_unsent() => LinkStep::Write,
            Conn::Up if !self.unanswered.is_empty() => LinkStep::Await,
            _ => LinkStep::Idle,
        }
    }

    /// The messages one write carries: the oldest unsent, resends first.
    pub fn batch(&self) -> impl Iterator<Item = &M> {
        self.unsent.iter().take(self.drain_batch)
    }

    /// The connect succeeded.
    pub fn connected(&mut self) {
        if self.conn == Conn::Connecting {
            (self.conn, self.proven) = (Conn::Up, false);
        }
    }

    /// The connect failed or timed out.
    pub fn connect_failed(&mut self) {
        if self.conn == Conn::Connecting {
            self.failed_attempt();
        }
    }

    /// The wait a [`LinkStep::Wait`] asked for is over; `false` when the
    /// link was not backing off.
    pub fn backoff_elapsed(&mut self) -> bool {
        let waited = matches!(self.conn, Conn::Backoff(_));
        if waited {
            self.conn = Conn::Down;
        }
        waited
    }

    /// The first `n` of [`batch`](Link::batch) are on the wire. Returns
    /// how many were written for the first time — what the driver counts
    /// as delivered, a resend having been counted already.
    pub fn wrote(&mut self, n: usize) -> usize {
        let n = if self.is_up() { n.min(self.unsent.len()) } else { 0 };
        let resent = n.min(self.resends);
        self.resends -= resent;
        let batch = self.unsent.drain(..n).enumerate();
        self.unanswered.extend(batch.map(|(i, msg)| (msg, i < resent)));
        if n > 0 {
            (self.attempts, self.proven) = (0, true);
        }
        n - resent
    }

    /// The write put nothing on the wire: the connection is lost and the
    /// batch stays unsent for the next one. A connection that never
    /// carried a write counts as a failed attempt, so a destination that
    /// accepts and hangs up is given up on like one that refuses.
    pub fn write_failed(&mut self) {
        if self.is_up() {
            self.connection_lost();
            if !self.proven {
                self.failed_attempt();
            }
        }
    }

    /// An answer arrived: the oldest unanswered message is finished and
    /// handed back (a quadrant-3 reply is correlated with it).
    pub fn answered(&mut self) -> Option<M> {
        self.unanswered.pop_front().map(|(msg, _)| msg)
    }

    /// The connection closed, errored or timed out. Each unanswered
    /// message goes back to the head of the unsent batch, to be written
    /// once more on a fresh connection — unless it was a resend already
    /// (written, so counted delivered; it is not tried a third time). No
    /// answer is ever correlated with a dead connection's request.
    pub fn connection_lost(&mut self) {
        if !self.is_up() {
            return;
        }
        self.conn = Conn::Down;
        // Resends are written first, so a first write among the unanswered
        // means no resend is left unsent.
        while let Some((msg, resend)) = self.unanswered.pop_back() {
            if !resend {
                self.unsent.push_front(msg);
                self.resends += 1;
            }
        }
    }

    /// The linger passed with nothing to send. `true`: close the
    /// connection (answers still due on it are waited for no longer).
    pub fn idle_expired(&mut self) -> bool {
        let close = self.is_up() && !self.has_unsent();
        if close {
            self.conn = Conn::Down;
            self.unanswered.clear();
        }
        close
    }

    /// Counts a failed attempt: back off, or give up on everything taken
    /// (a resend among it was written once and stays counted delivered).
    fn failed_attempt(&mut self) {
        self.attempts += 1;
        match DELIVERY_RETRY.backoff_before(self.attempts + 1) {
            Some(wait_us) => self.conn = Conn::Backoff(wait_us),
            None => {
                (self.conn, self.attempts) = (Conn::Down, 0);
                let resends = std::mem::take(&mut self.resends);
                self.gave_up = Some(self.unsent.drain(..).skip(resends).collect());
            }
        }
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

    type Step = LinkStep<u32>;
    const BACKOFF: Step = LinkStep::Wait(DELIVERY_RETRY.base_backoff_us);

    /// A link holding `msgs`, its connect asked for.
    fn connecting(msgs: impl IntoIterator<Item = u32>) -> Link<u32> {
        let mut link = Link::new(16);
        link.take(msgs);
        assert_eq!(link.next(false), Step::Connect);
        link
    }

    /// A link that is up with `msgs` unsent.
    fn up(msgs: impl IntoIterator<Item = u32>) -> Link<u32> {
        let mut link = connecting(msgs);
        link.connected();
        link
    }

    /// Writes the whole batch; returns how many were first-time writes.
    fn write(link: &mut Link<u32>) -> usize {
        assert_eq!(link.next(false), Step::Write);
        let n = link.batch().count();
        link.wrote(n)
    }

    #[test]
    fn happy_path_connects_writes_awaits_and_idles() {
        let mut link: Link<u32> = Link::new(16);
        assert_eq!(link.next(false), Step::Idle);
        link.take([1, 2, 3]);
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert!(link.is_up());
        assert_eq!(link.next(false), Step::Write);
        assert_eq!(link.batch().copied().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(link.wrote(3), 3);
        assert_eq!(link.next(false), Step::Await);
        for want in 1..=3 {
            assert_eq!(link.answered(), Some(want), "answers pair up oldest first");
        }
        assert_eq!(link.next(false), Step::Idle);
        // The connection is kept: the next batch is written straight away.
        link.take([4]);
        assert_eq!(write(&mut link), 1);
    }

    #[test]
    fn a_write_carries_at_most_drain_batch_messages() {
        let mut link = Link::new(2);
        link.take([1, 2, 3]);
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert_eq!(link.batch().count(), 2);
        assert_eq!(link.wrote(2), 2);
        assert_eq!(link.next(false), Step::Write, "the third goes in the next write");
        assert_eq!(link.batch().copied().collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn a_queued_message_the_driver_kept_asks_for_the_connection() {
        let mut link: Link<u32> = Link::new(16);
        assert_eq!(link.next(true), Step::Connect);
        link.connected();
        assert_eq!(link.next(true), Step::Idle, "the driver hands it over now");
    }

    #[test]
    fn connect_failure_backs_off_once_then_gives_up_on_everything_taken() {
        let mut link = connecting([1, 2]);
        link.connect_failed();
        assert_eq!(link.next(false), BACKOFF);
        assert_eq!(link.next(false), BACKOFF, "held until the driver reports it over");
        link.backoff_elapsed();
        assert_eq!(link.next(false), Step::Connect);
        link.connect_failed();
        assert_eq!(link.next(false), Step::GiveUp(vec![1, 2]));
        assert_eq!(link.next(false), Step::Idle);
        // Attempts start over for what comes next.
        link.take([3]);
        assert_eq!(link.next(false), Step::Connect);
        link.connect_failed();
        assert_eq!(link.next(false), BACKOFF);
    }

    #[test]
    fn a_successful_write_resets_the_attempts() {
        let mut link = connecting([1]);
        link.connect_failed();
        link.backoff_elapsed();
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert_eq!(write(&mut link), 1);
        link.connection_lost();
        assert_eq!(link.next(false), Step::Connect);
        link.connect_failed();
        assert_eq!(link.next(false), BACKOFF, "one failure since the write, not two");
    }

    #[test]
    fn answered_messages_are_finished_and_the_rest_resent_once() {
        let mut link = up([1, 2, 3, 4]);
        assert_eq!(write(&mut link), 4);
        assert_eq!(link.answered(), Some(1));
        assert_eq!(link.answered(), Some(2));
        link.take([5]);
        link.connection_lost();
        assert!(!link.is_up());
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        // The unanswered go out again ahead of what was taken since, in
        // order; only the new one counts as delivered.
        assert_eq!(link.batch().copied().collect::<Vec<_>>(), [3, 4, 5]);
        assert_eq!(write(&mut link), 1);
        // The dead connection's requests are gone: answers pair up with
        // what this connection carries.
        assert_eq!(link.answered(), Some(3));
        // Lost again: a resend is not resent, a first write is.
        link.connection_lost();
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert_eq!(link.batch().copied().collect::<Vec<_>>(), [5]);
        assert_eq!(write(&mut link), 0);
        assert_eq!(link.answered(), Some(5));
        assert_eq!(link.next(false), Step::Idle);
    }

    #[test]
    fn giving_up_drops_only_what_was_never_written() {
        let mut link = up([1]);
        assert_eq!(write(&mut link), 1);
        link.take([2]);
        link.connection_lost();
        assert_eq!(link.next(false), Step::Connect);
        link.connect_failed();
        link.backoff_elapsed();
        assert_eq!(link.next(false), Step::Connect);
        link.connect_failed();
        // 1 was delivered once and stays on the books as that; 2 is dropped.
        assert_eq!(link.next(false), Step::GiveUp(vec![2]));
    }

    #[test]
    fn a_failed_write_keeps_the_batch_for_the_next_connection() {
        // On a connection that has carried a write: reconnect at once.
        let mut link = up([1]);
        assert_eq!(write(&mut link), 1);
        assert_eq!(link.answered(), Some(1));
        link.take([2, 3]);
        assert_eq!(link.next(false), Step::Write);
        link.write_failed();
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert_eq!(link.batch().copied().collect::<Vec<_>>(), [2, 3]);
        assert_eq!(write(&mut link), 2, "nothing was written, nothing was counted");
    }

    #[test]
    fn a_destination_that_accepts_and_hangs_up_is_given_up_on() {
        let mut link = up([1]);
        assert_eq!(link.next(false), Step::Write);
        link.write_failed();
        assert_eq!(link.next(false), BACKOFF);
        link.backoff_elapsed();
        assert_eq!(link.next(false), Step::Connect);
        link.connected();
        assert_eq!(link.next(false), Step::Write);
        link.write_failed();
        assert_eq!(link.next(false), Step::GiveUp(vec![1]));
    }

    #[test]
    fn linger_closes_an_idle_connection_only() {
        let mut link = up([1]);
        assert!(!link.idle_expired(), "a batch is waiting to be written");
        assert_eq!(write(&mut link), 1);
        assert!(link.idle_expired());
        assert!(!link.is_up());
        // Its answers are waited for no longer, and nothing is resent.
        assert_eq!(link.answered(), None);
        assert_eq!(link.next(false), Step::Idle);
        assert!(!link.idle_expired(), "nothing to close");
    }

    /// Every input applied in every state: one that does not apply leaves
    /// the link where it was.
    #[test]
    fn every_input_from_every_state() {
        type Input = (&'static str, fn(&mut Link<u32>));
        let inputs: [Input; 9] = [
            ("take", |l| l.take([9])),
            ("connected", |l| l.connected()),
            ("connect_failed", |l| l.connect_failed()),
            ("backoff_elapsed", |l| _ = l.backoff_elapsed()),
            ("wrote", |l| _ = l.wrote(1)),
            ("write_failed", |l| l.write_failed()),
            ("answered", |l| _ = l.answered()),
            ("connection_lost", |l| l.connection_lost()),
            ("idle_expired", |l| _ = l.idle_expired()),
        ];
        // Each state holds message 1 unsent; `up` has written 0 before it.
        let down = || {
            let mut link = Link::new(16);
            link.take([1]);
            link
        };
        let backoff = || {
            let mut link = connecting([1]);
            link.connect_failed();
            link
        };
        let up_with_unanswered = || {
            let mut link = up([0]);
            write(&mut link);
            link.take([1]);
            link
        };
        type State = (&'static str, fn() -> Link<u32>);
        let states: [State; 4] = [
            ("down", down),
            ("connecting", || connecting([1])),
            ("backoff", backoff),
            ("up", up_with_unanswered),
        ];
        // (state, input) → the step that follows; an input not listed does
        // not apply in that state and leaves the state's own step.
        let own = |state: &str| match state {
            "down" | "connecting" => Step::Connect,
            "backoff" => BACKOFF,
            _ => Step::Write,
        };
        for (state, build) in states {
            for (input, apply) in inputs {
                let mut link = build();
                apply(&mut link);
                let want = match (state, input) {
                    ("connecting", "connected") => Step::Write,
                    ("connecting", "connect_failed") => BACKOFF,
                    ("backoff", "backoff_elapsed") => Step::Connect,
                    ("up", "wrote") => Step::Await,
                    ("up", "write_failed" | "connection_lost") => Step::Connect,
                    _ => own(state),
                };
                assert_eq!(link.next(false), want, "{input} while {state}");
            }
        }
    }
}
