//! The simulation's event queue: a time-ordered heap with FIFO
//! tie-breaking, which is what makes runs deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::conn::{ConnId, RefuseReason, Side};
use crate::process::ProcId;
use crate::time::SimTime;
use crate::Payload;

/// Internal events the engine schedules.
#[derive(Debug)]
pub(crate) enum SimEvent {
    /// Deliver `Start` to a newly spawned process.
    ProcStart(ProcId),
    /// Fire a process timer.
    Timer(ProcId, u64),
    /// A SYN reaches the destination host.
    SynArrives { conn: ConnId },
    /// The SYN-ACK reaches the client: connection usable.
    EstablishedAtClient { conn: ConnId },
    /// Tell the client its attempt failed.
    RefusedAtClient { conn: ConnId, reason: RefuseReason },
    /// The client's connect timeout expires (ignored if established).
    ConnectTimeout { conn: ConnId },
    /// A framed message is fully received by `to`.
    Deliver {
        conn: ConnId,
        to: Side,
        bytes: Payload,
    },
    /// A FIN reaches `to`.
    CloseArrives { conn: ConnId, to: Side },
}

struct Entry {
    at: SimTime,
    seq: u64,
    event: SimEvent,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Time-ordered, insertion-stable event queue.
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue::default()
    }

    pub fn push(&mut self, at: SimTime, event: SimEvent) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.event))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), SimEvent::Timer(ProcId(0), 3));
        q.push(SimTime(10), SimEvent::Timer(ProcId(0), 1));
        q.push(SimTime(20), SimEvent::Timer(ProcId(0), 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                SimEvent::Timer(_, t) => t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime(5), SimEvent::Timer(ProcId(0), i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                SimEvent::Timer(_, t) => t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(9), SimEvent::Timer(ProcId(0), 0));
        q.push(SimTime(4), SimEvent::Timer(ProcId(0), 0));
        assert_eq!(q.peek_time(), Some(SimTime(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }
}
