//! The simulated runtime: dispatcher components as [`wsd_netsim`]
//! actors.
//!
//! Every figure in the paper's evaluation is regenerated on this runtime
//! (deterministic virtual time), with the protocol stack carrying the
//! same serialized bytes a real deployment would.
//!
//! A note on CPU modeling: the network engine serializes link usage but
//! not host CPU, so every service process here runs its own FIFO "CPU"
//! (`busy_until`): work starts at `max(now, busy_until)` and advances it.
//! That is what caps throughput at `1/service_time` and produces the
//! paper's plateaus.

pub mod echo;
pub mod fleet;
pub mod msg_dispatcher;
pub mod msgbox;
pub mod rpc_dispatcher;

pub use crate::echo::EchoMode;
pub use echo::SimEchoService;
pub use fleet::{kill_fleet_instance, FleetShared, SimFleetInstance};
pub use msg_dispatcher::SimMsgDispatcher;
pub use msgbox::{SimMsgBox, SimMsgBoxStats};
pub use rpc_dispatcher::SimRpcDispatcher;

use wsd_http::{Request, Response};
use wsd_netsim::{Payload, SimDuration, SimTime};

/// How long the simulated dispatchers, echo service and load generators
/// wait for a connect to be answered: 3 s. Figure 6's blocked workers
/// each hold their slot this long against a firewalled client.
pub const CONNECT_TIMEOUT: SimDuration = SimDuration(3_000_000);

/// Converts a wall-clock `Duration` (configs use std time) to simulated
/// time.
pub fn to_sim(d: std::time::Duration) -> SimDuration {
    SimDuration::from_micros(d.as_micros() as u64)
}

/// The `202 Accepted` every simulated one-way hop answers with: the bytes
/// `response_bytes(&Response::empty(Status::ACCEPTED))` writes, shared,
/// so an ack allocates nothing.
pub const ACCEPTED: Payload =
    Payload::from_static(b"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\nServer: wsd/0.1\r\n\r\n");

/// Serializes a request for the wire.
pub fn request_payload(req: &Request) -> Payload {
    Payload::from(wsd_http::request_bytes(req))
}

/// Serializes a response for the wire.
pub fn response_payload(resp: &Response) -> Payload {
    Payload::from(wsd_http::response_bytes(resp))
}

/// A process-local FIFO CPU: work starts when the CPU frees up.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuQueue {
    busy_until: SimTime,
}

impl CpuQueue {
    /// Reserves `cost` of CPU starting no earlier than `now`; returns the
    /// completion time.
    pub fn reserve(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + cost;
        self.busy_until = done;
        done
    }

    /// Whether the CPU is idle at `now`.
    #[cfg(test)]
    fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// How much queued work separates `now` from the CPU going idle —
    /// the backlog an admission controller sheds load on.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        if self.busy_until > now {
            self.busy_until.since(now)
        } else {
            SimDuration(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_static_ack_is_the_written_one() {
        let written = wsd_http::response_bytes(&Response::empty(wsd_http::Status::ACCEPTED));
        assert_eq!(ACCEPTED, written);
    }

    #[test]
    fn cpu_queue_serializes_work() {
        let mut cpu = CpuQueue::default();
        let t0 = SimTime::ZERO;
        let a = cpu.reserve(t0, SimDuration::from_millis(10));
        let b = cpu.reserve(t0, SimDuration::from_millis(10));
        assert_eq!(a, t0 + SimDuration::from_millis(10));
        assert_eq!(b, t0 + SimDuration::from_millis(20));
        assert!(!cpu.idle_at(t0));
        assert!(cpu.idle_at(b));
    }

    #[test]
    fn cpu_queue_skips_idle_gaps() {
        let mut cpu = CpuQueue::default();
        cpu.reserve(SimTime::ZERO, SimDuration::from_millis(1));
        let later = SimTime::ZERO + SimDuration::from_secs(5);
        let done = cpu.reserve(later, SimDuration::from_millis(1));
        assert_eq!(done, later + SimDuration::from_millis(1));
    }

    #[test]
    fn to_sim_converts_micros() {
        assert_eq!(
            to_sim(std::time::Duration::from_millis(3)),
            SimDuration::from_millis(3)
        );
    }
}
