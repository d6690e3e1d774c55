//! Fleet builders: spawn N clients with staggered starts (the paper's
//! ramp-up) on one shared host, every client counting into the fleet's
//! one set of books.

use wsd_netsim::{HostId, SimDuration, SimTime, Simulation};
use wsd_telemetry::Scope;

use crate::msg_client::{MsgClientConfig, MsgClientStats, SimMsgClient};
use crate::rpc_client::{RpcClientConfig, RpcClientStats, SimRpcClient};

/// Spawns `n` RPC clients on `host`, starting within `ramp_over` of each
/// other. Their books live under `scope`; the returned handle reads them.
pub fn spawn_rpc_fleet(
    sim: &mut Simulation,
    host: HostId,
    n: usize,
    config: &RpcClientConfig,
    ramp_over: SimDuration,
    scope: &Scope,
) -> RpcClientStats {
    let stats = RpcClientStats::new(scope);
    for i in 0..n {
        let client = SimRpcClient::new(config.clone(), stats.clone());
        sim.spawn_at(host, Box::new(client), stagger(i, n, ramp_over));
    }
    stats
}

/// Spawns `n` one-way messaging clients on `host`. Each client's name
/// (used for unique message ids) gets an index suffix. Their books live
/// under `scope`; the returned handle reads them.
pub fn spawn_msg_fleet(
    sim: &mut Simulation,
    host: HostId,
    n: usize,
    config: &MsgClientConfig,
    ramp_over: SimDuration,
    scope: &Scope,
) -> MsgClientStats {
    let stats = MsgClientStats::new(scope);
    for i in 0..n {
        let mut cfg = config.clone();
        cfg.client_name = format!("{}-{i}", cfg.client_name);
        // Each client gets its own callback endpoint: `{port}` in the
        // callback URL expands to a per-client port, so every client is
        // a distinct destination (its own NATed machine).
        if let crate::msg_client::ReplyMode::Callback { url } = &mut cfg.reply_mode {
            *url = url.replace("{port}", &(9000 + i as u32).to_string());
        }
        let client = SimMsgClient::new(cfg, stats.clone());
        sim.spawn_at(host, Box::new(client), stagger(i, n, ramp_over));
    }
    stats
}

fn stagger(i: usize, n: usize, ramp_over: SimDuration) -> SimTime {
    if n <= 1 {
        return SimTime::ZERO;
    }
    SimTime::ZERO + SimDuration(ramp_over.0 * i as u64 / n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_core::sim::{EchoMode, SimEchoService};
    use wsd_netsim::HostConfig;
    use wsd_telemetry::{MetricValue, Registry};

    /// Five clients against one echo under `scope`: the fleet's books
    /// hold every client's round trips, registered or not.
    fn ramp_five(scope: &Scope) -> RpcClientStats {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let c_host = sim.add_host(HostConfig::named("client"));
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(2));
        let svc_stats = svc.stats();
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let cfg = RpcClientConfig {
            target_host: "ws".into(),
            target_port: 8888,
            path: "/echo".into(),
            run_for: SimDuration::from_secs(2),
            ..RpcClientConfig::default()
        };
        let fleet =
            spawn_rpc_fleet(&mut sim, c_host, 5, &cfg, SimDuration::from_millis(500), scope);
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let totals = fleet.totals();
        assert!(totals.transmitted > 20, "{}", totals.transmitted);
        assert_eq!(totals.not_sent, 0);
        assert_eq!(svc_stats.replies_sent.get(), totals.transmitted);
        assert_eq!(totals.latency.count as u64, totals.transmitted);
        assert!(totals.latency.p50_us > 0);
        fleet
    }

    #[test]
    fn fleet_ramps_and_aggregates() {
        let reg = Registry::new();
        let fleet = ramp_five(&reg.scope("loadgen"));
        let snap = reg.snapshot();
        let transmitted = fleet.transmitted.get();
        assert_eq!(snap.counter("loadgen.transmitted"), transmitted);
        assert!(matches!(
            snap.get("loadgen.latency_us"),
            Some(MetricValue::Histogram(h)) if h.count == transmitted
        ));
    }

    /// A no-op scope hands out fresh cells on every request, so books
    /// made per client would leave the fleet's handle reading nothing.
    #[test]
    fn an_unobserved_fleet_shares_one_set_of_books() {
        ramp_five(&Scope::noop());
    }

    #[test]
    fn stagger_spreads_starts() {
        assert_eq!(stagger(0, 10, SimDuration::from_secs(1)), SimTime::ZERO);
        let last = stagger(9, 10, SimDuration::from_secs(1));
        assert_eq!(last, SimTime::ZERO + SimDuration::from_millis(900));
        assert_eq!(stagger(0, 1, SimDuration::from_secs(1)), SimTime::ZERO);
    }
}
