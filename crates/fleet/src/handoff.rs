//! The msgbox ownership-handoff ledger.
//!
//! When a dispatcher instance dies, its shard arcs reassign on the ring
//! and a designated successor adopts the dead instance's durable
//! mailbox (the WAL makes every acknowledged deposit recoverable). The
//! ledger tracks each handoff through a small state machine:
//!
//! ```text
//! Announced ──claim_for──▶ Recovering ──complete──▶ Complete
//! ```
//!
//! `Announced` marks the membership change ([`HandoffLog::fail_over`]:
//! the ring has already reassigned the arcs); `Recovering` means the
//! successor is adopting the dead instance's store; `Complete` records
//! how many messages were recovered and when — the announce→complete
//! span is the rebalance latency `experiments --fleet` reports.

use crate::ring::{InstanceId, ShardRing};

/// Phase of one ownership handoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffState {
    /// The death is known and the ring reassigned; nobody has opened
    /// the orphaned store yet.
    Announced,
    /// The successor is adopting the orphaned store.
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

    /// Records a member's death, the membership half of failure handling
    /// and one function for both runtimes: drops `dead` from `ring`, names
    /// the next member after it (by id, wrapping) as its successor and
    /// announces the handoff; returns its index. `None` if `dead` is not a
    /// member or was the last one — nobody is left to adopt its store.
    pub fn fail_over(
        &mut self,
        ring: &mut ShardRing,
        dead: InstanceId,
        now_us: u64,
    ) -> Option<usize> {
        if !ring.remove_instance(dead) {
            return None;
        }
        let members = ring.members();
        let successor = *members.iter().find(|m| m.0 > dead.0).or(members.first())?;
        self.entries.push(Handoff {
            dead,
            successor,
            state: HandoffState::Announced,
            started_at_us: now_us,
            completed_at_us: None,
            recovered: 0,
        });
        Some(self.entries.len() - 1)
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

    /// Instance 1 of three dies; instance 2 is its successor.
    fn announce_one(log: &mut HandoffLog) -> usize {
        let mut ring = ShardRing::with_instances(7, 16, 3);
        log.fail_over(&mut ring, InstanceId(1), 1_000).unwrap()
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
    fn fail_over_hands_a_dead_member_to_the_next_one_by_id() {
        let mut ring = ShardRing::with_instances(7, 16, 4);
        let mut log = HandoffLog::new();
        let at = log.fail_over(&mut ring, InstanceId(1), 10).unwrap();
        let h = log.get(at);
        assert_eq!(
            (h.dead, h.successor, h.started_at_us),
            (InstanceId(1), InstanceId(2), 10)
        );
        assert!(!ring.contains(InstanceId(1)));
        // Past the highest id it wraps; a non-member hands nothing off.
        let at = log.fail_over(&mut ring, InstanceId(3), 11).unwrap();
        assert_eq!(log.get(at).successor, InstanceId(0));
        assert_eq!(log.fail_over(&mut ring, InstanceId(3), 12), None);
        log.fail_over(&mut ring, InstanceId(2), 13).unwrap();
        assert_eq!(
            log.fail_over(&mut ring, InstanceId(0), 14),
            None,
            "the last member"
        );
        assert_eq!(log.in_flight(), 3);
    }

    #[test]
    fn latency_is_none_until_complete() {
        let mut log = HandoffLog::new();
        let at = announce_one(&mut log);
        assert_eq!(log.get(at).rebalance_latency_us(), None);
    }
}
