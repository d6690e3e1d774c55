//! The paper's test client (§4.3): "a test client that can ramp up the
//! number of connections and record statistical data. The test client
//! runs with a specified number of connections (clients) and keeps
//! sending echo messages (packets) for one minute ... essentially very
//! similar to the ping command."
//!
//! * [`stats`] — per-client counters (transmitted / not sent / latency)
//!   and fleet-level summaries.
//! * [`rpc_client`] — the closed-loop RPC echo client used by Figures
//!   4–5 (direct or through the RPC-Dispatcher).
//! * [`msg_client`] — the one-way messaging client used by Figure 6
//!   (direct, through the MSG-Dispatcher, or with a WS-MsgBox mailbox),
//!   plus its callback sink.
//! * [`ramp`] — fleet builders that spawn N clients with staggered
//!   starts.

#![warn(missing_docs)]

pub mod msg_client;
pub mod ramp;
pub mod rpc_client;
pub mod stats;

pub use msg_client::{CallbackSink, MsgClientConfig, MsgClientStats, ReplyMode, SimMsgClient};
pub use ramp::{spawn_msg_fleet, spawn_rpc_fleet, FleetResult};
pub use rpc_client::{RpcClientConfig, RpcClientStats, SimRpcClient};
pub use stats::{LatencySummary, RunTotals};
