//! TCP-like connection records.

use crate::host::HostId;
use crate::process::ProcId;

/// Identifies a connection within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u64);

/// Why a connection attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// Nothing listens on the port: active RST.
    NoListener,
    /// Accept limit reached, [`OverLimit::Refuse`](crate::host::OverLimit): active RST.
    AcceptOverflow,
    /// No SYN-ACK before the connect timeout — firewall drop or SYN
    /// backlog overflow.
    TimedOut,
    /// The named host does not exist.
    NoSuchHost,
    /// The *local* host is out of sockets (file-descriptor / ephemeral-
    /// port exhaustion): the attempt fails instantly without touching
    /// the network.
    LocalLimit,
}

/// Which endpoint of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The endpoint that called `connect`.
    Client,
    /// The endpoint that accepted.
    Server,
}

impl Side {
    pub fn other(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnPhase {
    /// SYN sent, nothing heard back.
    Connecting,
    /// Both endpoints usable.
    Established,
    /// Fully closed or failed.
    Closed,
}

#[derive(Debug)]
pub(crate) struct Connection {
    pub client_host: HostId,
    pub client_proc: ProcId,
    pub server_host: HostId,
    pub server_port: u16,
    /// Set on acceptance.
    pub server_proc: Option<ProcId>,
    pub phase: ConnPhase,
    /// Whether the server side counted against the host's accept limit
    /// (and must be released on close).
    pub counted_inbound: bool,
    /// Whether the client side counted against its host's outbound
    /// socket limit.
    pub counted_outbound: bool,
    /// Whether the client has been told the connection outcome
    /// (established/refused/timed out).
    pub client_notified: bool,
    /// Whether each side (client=0, server=1) has observed the close
    /// (its own `close()` call or the peer's FIN).
    pub close_seen: [bool; 2],
    /// Whether each side closed by its *own* `close()` call — only this
    /// drops data still in flight toward that side.
    pub locally_closed: [bool; 2],
}

impl Connection {
    pub(crate) fn endpoint(&self, side: Side) -> (HostId, Option<ProcId>) {
        match side {
            Side::Client => (self.client_host, Some(self.client_proc)),
            Side::Server => (self.server_host, self.server_proc),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_other_flips() {
        assert_eq!(Side::Client.other(), Side::Server);
        assert_eq!(Side::Server.other(), Side::Client);
    }

    #[test]
    fn endpoint_lookup() {
        let c = Connection {
            client_host: HostId(0),
            client_proc: ProcId(1),
            server_host: HostId(2),
            server_port: 80,
            server_proc: None,
            phase: ConnPhase::Connecting,
            counted_inbound: false,
            counted_outbound: false,
            client_notified: false,
            close_seen: [false; 2],
            locally_closed: [false; 2],
        };
        assert_eq!(c.endpoint(Side::Client), (HostId(0), Some(ProcId(1))));
        assert_eq!(c.endpoint(Side::Server), (HostId(2), None));
    }
}
