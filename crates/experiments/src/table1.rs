//! Table 1 — "Possible interactions between Web Service peers using
//! WS-Dispatcher": the 2×2 matrix of {RPC, messaging} clients against
//! {RPC, messaging} services, reproduced as four measured scenarios.
//!
//! | | RPC service | Messaging service |
//! |---|---|---|
//! | **RPC client** | (1) limited but very popular — forwarded RPC | (2) very limited — fails when the reply is late |
//! | **Messaging client** | (3) limited — the dispatcher translates RPC responses into messages | (4) unlimited — no transport time limit |

use std::sync::Arc;

use std::time::Duration;

use wsd_core::config::{DispatcherConfig, MsgBoxConfig};
use wsd_core::msg::MsgCore;
use wsd_core::registry::Registry;
use wsd_core::sim::{EchoMode, SimEchoService, SimMsgBox, SimMsgDispatcher, SimRpcDispatcher};
use wsd_core::url::Url;
use wsd_loadgen::ramp::ClientPlacement;
use wsd_loadgen::{
    spawn_msg_fleet, spawn_rpc_fleet, MsgClientConfig, ReplyMode, RpcClientConfig,
};
use wsd_netsim::{profiles, FirewallPolicy, SimDuration, SimTime, Simulation};

use crate::topology::{dispatch_time, light_cpu, service_time};

/// The four quadrants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quadrant {
    /// RPC client → RPC service, RPC-Dispatcher forwarding.
    RpcToRpc,
    /// RPC client → messaging service: the reply never returns on the
    /// client's connection.
    RpcToMsg,
    /// Messaging client → RPC service: the dispatcher translates
    /// synchronous responses into reply messages.
    MsgToRpc,
    /// Messaging client → messaging service: fully asynchronous.
    MsgToMsg,
}

/// One measured quadrant.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Which quadrant.
    pub quadrant: Quadrant,
    /// Completed request/response exchanges per minute.
    pub exchanges_per_min: f64,
    /// Failed attempts over the window.
    pub failures: u64,
    /// The paper's verdict for this cell.
    pub verdict: &'static str,
}

/// Clients used in every quadrant.
pub const CLIENTS: usize = 20;

/// Measures one quadrant over `seconds` of virtual time. Every quadrant
/// runs the standard fast service: quadrant 2 fails structurally, not by
/// a slow reply. Its RPC echo carries no WS-Addressing destination, so the
/// MSG-Dispatcher rejects each call with a `400` fault, which the RPC
/// client counts as a failure and answers by calling again at once.
pub fn run_one(quadrant: Quadrant, seconds: u64) -> Table1Row {
    match quadrant {
        Quadrant::RpcToRpc => rpc_client_run(false, seconds),
        Quadrant::RpcToMsg => rpc_client_run(true, seconds),
        Quadrant::MsgToRpc => msg_client_run(true, seconds),
        Quadrant::MsgToMsg => msg_client_run(false, seconds),
    }
}

/// The 2004 MSG-Dispatcher both messaging quadrants and quadrant 2 run
/// against: 16 `WsThread`s, 256-deep destination queues.
fn msg_dispatcher_config() -> DispatcherConfig {
    DispatcherConfig {
        ws_max_threads: 16,
        queue_capacity: 256,
        ..DispatcherConfig::default()
    }
}

/// Quadrants 1 and 2: an RPC client fleet, against an RPC service behind
/// the RPC-Dispatcher, or against a messaging service behind the
/// MSG-Dispatcher.
fn rpc_client_run(msg_service: bool, seconds: u64) -> Table1Row {
    let mut sim = Simulation::new(0x7AB1);
    let ws_host =
        sim.add_host(light_cpu(profiles::inria_fast("ws")).firewall(FirewallPolicy::Open));
    let disp_host = sim
        .add_host(light_cpu(profiles::inria_fast("dispatcher")).firewall(FirewallPolicy::Open));
    let client_host = sim.add_host(light_cpu(profiles::iu_high("clients")));

    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());

    if msg_service {
        let service = SimEchoService::new(EchoMode::OneWay { workers: 16 }, service_time(3.4));
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 8888);
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let dispatcher = SimMsgDispatcher::new(core, dispatch_time(3.4), msg_dispatcher_config());
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);
    } else {
        let service = SimEchoService::new(EchoMode::Rpc, service_time(3.4));
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 8888);
        let config = DispatcherConfig {
            response_timeout: Duration::from_secs(10),
            ..DispatcherConfig::default()
        };
        let dispatcher = SimRpcDispatcher::new(registry, dispatch_time(3.4), config);
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
    }

    let config = RpcClientConfig {
        target_host: "dispatcher".into(),
        target_port: if msg_service { 8080 } else { 8081 },
        path: if msg_service { "/msg".into() } else { "/svc/Echo".into() },
        response_timeout: SimDuration::from_secs(5),
        retry_backoff: SimDuration::from_millis(100),
        run_for: SimDuration::from_secs(seconds),
        think_time: SimDuration::ZERO,
    };
    let fleet = spawn_rpc_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        CLIENTS,
        &config,
        SimDuration::from_secs(2),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
    let totals = fleet.totals();
    Table1Row {
        quadrant: if msg_service {
            Quadrant::RpcToMsg
        } else {
            Quadrant::RpcToRpc
        },
        exchanges_per_min: totals.per_minute(seconds as f64),
        failures: totals.not_sent,
        verdict: if msg_service {
            "very limited (reply comes as a message the RPC client never sees)"
        } else {
            "limited but very popular (RPC connection is forwarded)"
        },
    }
}

/// Quadrants 3 and 4: a messaging client fleet with mailboxes, against
/// an RPC service (dispatcher translates) or a messaging service.
fn msg_client_run(rpc_service: bool, seconds: u64) -> Table1Row {
    let mut sim = Simulation::new(0x7AB2);
    let ws_host =
        sim.add_host(light_cpu(profiles::inria_fast("ws")).firewall(FirewallPolicy::Open));
    let disp_host = sim
        .add_host(light_cpu(profiles::inria_fast("dispatcher")).firewall(FirewallPolicy::Open));
    let mb_host =
        sim.add_host(light_cpu(profiles::inria_fast("msgbox")).firewall(FirewallPolicy::Open));
    let client_host = sim.add_host(
        light_cpu(profiles::iu_high("clients")).firewall(FirewallPolicy::OutboundOnly),
    );

    if rpc_service {
        let service = SimEchoService::new(EchoMode::Rpc, service_time(3.4));
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 8888);
    } else {
        let service = SimEchoService::new(EchoMode::OneWay { workers: 16 }, service_time(3.4));
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 8888);
    }

    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
    let dispatcher = SimMsgDispatcher::new(core, dispatch_time(3.4), msg_dispatcher_config());
    let dp = sim.spawn(disp_host, Box::new(dispatcher));
    sim.listen(dp, 8080);

    let mbox = SimMsgBox::new(MsgBoxConfig::default(), SimDuration::from_millis(2), 5);
    let mp = sim.spawn(mb_host, Box::new(mbox));
    sim.listen(mp, 8082);

    let config = MsgClientConfig {
        target_host: "dispatcher".into(),
        target_port: 8080,
        path: "/msg".into(),
        to_address: "http://dispatcher/svc/Echo".into(),
        reply_mode: ReplyMode::Mailbox {
            host: "msgbox".into(),
            port: 8082,
            poll_interval: SimDuration::from_millis(500),
        },
        retry_backoff: SimDuration::from_millis(100),
        run_for: SimDuration::from_secs(seconds),
        client_name: "t1".into(),
    };
    let fleet = spawn_msg_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        CLIENTS,
        &config,
        SimDuration::from_secs(2),
    );
    // Grace window so final polls retrieve the tail of responses.
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds + 2));
    let (_sent, failures, responses) = fleet.totals();
    Table1Row {
        quadrant: if rpc_service {
            Quadrant::MsgToRpc
        } else {
            Quadrant::MsgToMsg
        },
        exchanges_per_min: responses as f64 * 60.0 / seconds as f64,
        failures,
        verdict: if rpc_service {
            "limited: RPC server is a bottleneck (semantics translated at the dispatcher)"
        } else {
            "unlimited (no transport time limit on sending the response)"
        },
    }
}

/// Runs all four quadrants.
pub fn run(seconds: u64) -> Vec<Table1Row> {
    crate::parallel_map(
        vec![
            Quadrant::RpcToRpc,
            Quadrant::RpcToMsg,
            Quadrant::MsgToRpc,
            Quadrant::MsgToMsg,
        ],
        |q| run_one(q, seconds),
    )
}

/// Prints the matrix.
pub fn print(rows: &[Table1Row]) {
    println!("# Table 1 — interaction matrix ({CLIENTS} clients, completed exchanges/minute)");
    println!("{:>10} {:>16} {:>10}  verdict", "quadrant", "exchanges/min", "failures");
    for r in rows {
        println!(
            "{:>10} {:>16.0} {:>10}  {}",
            format!("{:?}", r.quadrant),
            r.exchanges_per_min,
            r.failures,
            r.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 15;

    #[test]
    fn rpc_to_rpc_works() {
        let r = run_one(Quadrant::RpcToRpc, SECS);
        assert!(r.exchanges_per_min > 100.0, "{r:?}");
    }

    #[test]
    fn rpc_to_msg_fails_structurally() {
        let r = run_one(Quadrant::RpcToMsg, SECS);
        // The RPC client never receives its reply: zero completed
        // exchanges, every call rejected.
        assert_eq!(r.exchanges_per_min, 0.0, "{r:?}");
        assert!(r.failures > 0, "{r:?}");
    }

    #[test]
    fn msg_to_rpc_works_via_translation() {
        let r = run_one(Quadrant::MsgToRpc, SECS);
        assert!(r.exchanges_per_min > 50.0, "{r:?}");
    }

    #[test]
    fn msg_to_msg_is_best_of_the_messaging_rows() {
        let q3 = run_one(Quadrant::MsgToRpc, SECS);
        let q4 = run_one(Quadrant::MsgToMsg, SECS);
        assert!(q4.exchanges_per_min > 50.0, "{q4:?}");
        // The paper ranks (4) unlimited vs (3) limited.
        assert!(
            q4.exchanges_per_min >= q3.exchanges_per_min * 0.8,
            "{q3:?} vs {q4:?}"
        );
    }
}
