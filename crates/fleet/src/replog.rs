//! Replication command log in the Redis PSYNC shape.
//!
//! The leader appends serialized commands at monotonically increasing
//! offsets and keeps a bounded backlog of the most recent ones. A
//! follower attaches in one of two ways:
//!
//! * **full resync** — the leader hands over a state snapshot plus its
//!   current offset; the follower installs the snapshot and starts a
//!   cursor at that offset;
//! * **partial resync** — if the follower's offset still falls inside
//!   the backlog, the leader replays just the missed commands.
//!
//! After attach the follower tails the stream. Its [`FollowerCursor`]
//! admits exactly the next expected offset: anything older is an
//! **offset regression** and is rejected (replays must never un-apply
//! or double-apply), anything newer is a **gap** that forces a fresh
//! full resync.
//!
//! Commands are opaque strings; `wsd-core` serializes registry
//! mutations into them (same spirit as the paper's text-file registry).

use std::collections::VecDeque;

/// The leader-side bounded command backlog.
#[derive(Debug, Clone)]
pub struct ReplLog {
    /// Offset of the oldest command still in `entries`.
    base: u64,
    entries: VecDeque<String>,
    capacity: usize,
}

impl ReplLog {
    /// An empty log retaining at most `capacity` commands for partial
    /// resync.
    pub fn new(capacity: usize) -> ReplLog {
        assert!(capacity > 0, "a zero-capacity backlog can never catch a follower up");
        ReplLog {
            base: 0,
            entries: VecDeque::new(),
            capacity,
        }
    }

    /// Appends a command, returning its offset.
    pub fn append(&mut self, cmd: impl Into<String>) -> u64 {
        let at = self.base + self.entries.len() as u64;
        self.entries.push_back(cmd.into());
        while self.entries.len() > self.capacity {
            self.entries.pop_front();
            self.base += 1;
        }
        at
    }

    /// The replication offset: one past the newest command (what Redis
    /// calls `master_repl_offset`, counted in commands, not bytes).
    pub fn offset(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Offset of the oldest command partial resync can still serve.
    #[cfg(test)]
    fn base_offset(&self) -> u64 {
        self.base
    }

    /// Commands retained in the backlog.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the backlog holds no commands.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The commands from `from` (a follower's applied offset) to the
    /// head, each with its offset. `None` means the backlog no longer
    /// reaches that far back — or `from` lies in the future — and the
    /// follower must full-resync.
    pub fn commands_since(&self, from: u64) -> Option<Vec<(u64, &str)>> {
        if from < self.base || from > self.offset() {
            return None;
        }
        let skip = (from - self.base) as usize;
        Some(
            self.entries
                .iter()
                .enumerate()
                .skip(skip)
                .map(|(i, c)| (self.base + i as u64, c.as_str()))
                .collect(),
        )
    }
}

/// Verdict of [`FollowerCursor::admit`] for one incoming command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The next expected offset: apply the command and advance.
    Apply,
    /// Offset regression: the command (or an older one) was already
    /// applied. Reject it — applying would double-apply.
    StaleRejected,
    /// The stream skipped ahead; the follower missed commands and must
    /// full-resync.
    GapResync,
}

/// Follower-side apply cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FollowerCursor {
    applied: u64,
}

impl FollowerCursor {
    /// A cursor for a follower whose state matches leader offset
    /// `offset` (the offset handed over with a full-resync snapshot).
    pub fn start_at(offset: u64) -> FollowerCursor {
        FollowerCursor { applied: offset }
    }

    /// Offset of the next command this follower expects.
    pub fn offset(&self) -> u64 {
        self.applied
    }

    /// Classifies a command stamped `offset`; advances only on
    /// [`Admit::Apply`].
    pub fn admit(&mut self, offset: u64) -> Admit {
        use std::cmp::Ordering::*;
        match offset.cmp(&self.applied) {
            Less => Admit::StaleRejected,
            Greater => Admit::GapResync,
            Equal => {
                self.applied += 1;
                Admit::Apply
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_monotonic() {
        let mut log = ReplLog::new(16);
        assert_eq!(log.append("a"), 0);
        assert_eq!(log.append("b"), 1);
        assert_eq!(log.offset(), 2);
        assert_eq!(log.base_offset(), 0);
    }

    #[test]
    fn backlog_trims_to_capacity() {
        let mut log = ReplLog::new(3);
        for i in 0..10 {
            log.append(format!("c{i}"));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.base_offset(), 7);
        assert_eq!(log.offset(), 10);
    }

    #[test]
    fn partial_resync_replays_the_missed_tail() {
        let mut log = ReplLog::new(16);
        for i in 0..5 {
            log.append(format!("c{i}"));
        }
        let got = log.commands_since(3).unwrap();
        assert_eq!(got, vec![(3, "c3"), (4, "c4")]);
        assert_eq!(log.commands_since(5).unwrap(), vec![]);
    }

    #[test]
    fn fallen_behind_backlog_forces_full_resync() {
        let mut log = ReplLog::new(2);
        for i in 0..6 {
            log.append(format!("c{i}"));
        }
        assert!(log.commands_since(3).is_none(), "offset 3 left the backlog");
        assert!(log.commands_since(4).is_some());
        assert!(log.commands_since(9).is_none(), "future offsets are a bug");
    }

    #[test]
    fn cursor_applies_in_order_only() {
        let mut cur = FollowerCursor::start_at(5);
        assert_eq!(cur.admit(5), Admit::Apply);
        assert_eq!(cur.admit(6), Admit::Apply);
        assert_eq!(cur.offset(), 7);
    }

    #[test]
    fn cursor_rejects_offset_regression() {
        let mut cur = FollowerCursor::start_at(0);
        assert_eq!(cur.admit(0), Admit::Apply);
        assert_eq!(cur.admit(0), Admit::StaleRejected);
        assert_eq!(cur.admit(1), Admit::Apply);
        // A replayed old batch stays rejected, cursor unmoved.
        assert_eq!(cur.admit(0), Admit::StaleRejected);
        assert_eq!(cur.offset(), 2);
    }

    #[test]
    fn cursor_detects_gaps() {
        let mut cur = FollowerCursor::start_at(2);
        assert_eq!(cur.admit(4), Admit::GapResync);
        // Gap does not advance: the follower resyncs instead.
        assert_eq!(cur.offset(), 2);
    }

    #[test]
    fn follower_converges_through_log_and_cursor() {
        let mut log = ReplLog::new(64);
        for i in 0..10 {
            log.append(format!("c{i}"));
        }
        // Follower snapshotted at offset 4.
        let mut cur = FollowerCursor::start_at(4);
        let mut applied = Vec::new();
        for (off, cmd) in log.commands_since(cur.offset()).unwrap() {
            if cur.admit(off) == Admit::Apply {
                applied.push(cmd.to_string());
            }
        }
        assert_eq!(applied, vec!["c4", "c5", "c6", "c7", "c8", "c9"]);
        assert_eq!(cur.offset(), log.offset());
    }
}
