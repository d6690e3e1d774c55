//! The msgbox ownership-handoff ledger.
//!
//! When a dispatcher instance dies, its shard arcs reassign on the ring
//! and a designated successor adopts the dead instance's durable
//! mailbox (the WAL makes every acknowledged deposit recoverable). The
//! ledger tracks each handoff through a small state machine:
//!
//! ```text
//! Announced ──begin_recovery──▶ Recovering ──complete──▶ Complete
//! ```
//!
//! `Announced` marks the membership change (the ring has already
//! reassigned the arcs); `Recovering` means the successor has opened
//! the dead instance's store and is draining it; `Complete` records how
//! many messages were recovered and when — the announce→complete span
//! is the rebalance latency `experiments --fleet` reports.

use crate::ring::{HandoffRange, InstanceId};

/// Phase of one ownership handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffState {
    /// The death is known and the ring reassigned; nobody has opened
    /// the orphaned store yet.
    Announced,
    /// The successor is replaying/draining the orphaned store.
    Recovering,
    /// All recoverable messages are back in flight.
    Complete,
}

/// One instance death being handed off to a successor.
#[derive(Debug, Clone)]
pub struct Handoff {
    /// The instance that died.
    pub dead: InstanceId,
    /// The instance adopting its durable mailbox.
    pub successor: InstanceId,
    /// The ring arcs that changed owner.
    pub ranges: Vec<HandoffRange>,
    state: HandoffState,
    /// Virtual/wall microseconds when the death was announced.
    pub started_at_us: u64,
    /// Set when recovery finishes.
    pub completed_at_us: Option<u64>,
    /// Acknowledged messages recovered from the orphaned store.
    pub recovered: u64,
}

impl Handoff {
    /// Current phase.
    pub fn state(&self) -> HandoffState {
        self.state
    }

    /// Announce → complete span, once complete.
    pub fn rebalance_latency_us(&self) -> Option<u64> {
        self.completed_at_us
            .map(|t| t.saturating_sub(self.started_at_us))
    }
}

/// Fleet-wide ledger of handoffs.
#[derive(Debug, Clone, Default)]
pub struct HandoffLog {
    entries: Vec<Handoff>,
}

impl HandoffLog {
    /// An empty ledger.
    pub fn new() -> HandoffLog {
        HandoffLog::default()
    }

    /// Records an instance death; returns the handoff's index.
    pub fn announce(
        &mut self,
        dead: InstanceId,
        successor: InstanceId,
        ranges: Vec<HandoffRange>,
        now_us: u64,
    ) -> usize {
        self.entries.push(Handoff {
            dead,
            successor,
            ranges,
            state: HandoffState::Announced,
            started_at_us: now_us,
            completed_at_us: None,
            recovered: 0,
        });
        self.entries.len() - 1
    }

    /// The first announced-but-unclaimed handoff assigned to
    /// `successor`, if any. Claiming moves it to `Recovering`.
    pub fn claim_for(&mut self, successor: InstanceId) -> Option<usize> {
        let at = self
            .entries
            .iter()
            .position(|h| h.successor == successor && h.state == HandoffState::Announced)?;
        self.entries[at].state = HandoffState::Recovering;
        Some(at)
    }

    /// Finishes a claimed handoff. Panics if it was never claimed (the
    /// state machine only moves forward).
    pub fn complete(&mut self, at: usize, recovered: u64, now_us: u64) {
        let h = &mut self.entries[at];
        assert_eq!(
            h.state,
            HandoffState::Recovering,
            "complete() on an unclaimed handoff"
        );
        h.state = HandoffState::Complete;
        h.recovered = recovered;
        h.completed_at_us = Some(now_us);
    }

    /// The ledger entries, oldest first.
    pub fn entries(&self) -> &[Handoff] {
        &self.entries
    }

    /// Handoff by index.
    pub fn get(&self, at: usize) -> &Handoff {
        &self.entries[at]
    }

    /// Handoffs not yet complete.
    pub fn in_flight(&self) -> usize {
        self.entries
            .iter()
            .filter(|h| h.state != HandoffState::Complete)
            .count()
    }

    /// Whether every announced handoff has completed.
    pub fn all_complete(&self) -> bool {
        self.in_flight() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn announce_one(log: &mut HandoffLog) -> usize {
        log.announce(InstanceId(1), InstanceId(2), Vec::new(), 1_000)
    }

    #[test]
    fn lifecycle_reaches_complete() {
        let mut log = HandoffLog::new();
        let at = announce_one(&mut log);
        assert_eq!(log.get(at).state(), HandoffState::Announced);
        assert_eq!(log.in_flight(), 1);
        assert_eq!(log.claim_for(InstanceId(2)), Some(at));
        assert_eq!(log.get(at).state(), HandoffState::Recovering);
        log.complete(at, 17, 3_500);
        let h = log.get(at);
        assert_eq!(h.state(), HandoffState::Complete);
        assert_eq!(h.recovered, 17);
        assert_eq!(h.rebalance_latency_us(), Some(2_500));
        assert!(log.all_complete());
    }

    #[test]
    fn claim_matches_successor_only() {
        let mut log = HandoffLog::new();
        announce_one(&mut log);
        assert_eq!(log.claim_for(InstanceId(3)), None);
        assert_eq!(log.claim_for(InstanceId(2)), Some(0));
        // Already claimed: nothing left for the successor.
        assert_eq!(log.claim_for(InstanceId(2)), None);
    }

    #[test]
    #[should_panic(expected = "unclaimed")]
    fn complete_requires_claim() {
        let mut log = HandoffLog::new();
        let at = announce_one(&mut log);
        log.complete(at, 0, 2_000);
    }

    #[test]
    fn latency_is_none_until_complete() {
        let mut log = HandoffLog::new();
        let at = announce_one(&mut log);
        assert_eq!(log.get(at).rebalance_latency_us(), None);
    }
}
