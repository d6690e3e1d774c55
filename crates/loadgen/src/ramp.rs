//! Fleet builders: spawn N clients with staggered starts (the paper's
//! ramp-up) and collect their statistics.

use wsd_netsim::{HostConfig, HostId, SimDuration, SimTime, Simulation};
use wsd_telemetry::Scope;

use crate::msg_client::{MsgClientConfig, MsgClientStats, SimMsgClient};
use crate::rpc_client::{RpcClientConfig, RpcClientStats, SimRpcClient};
use crate::stats::{LatencySummary, RunTotals};

/// Handles to a spawned fleet's statistics.
pub struct FleetResult<S> {
    /// One handle per client.
    pub clients: Vec<S>,
}

impl FleetResult<RpcClientStats> {
    /// Aggregates the fleet's counters.
    pub fn totals(&self) -> RunTotals {
        self.totals_with_telemetry(&Scope::noop())
    }

    /// Aggregates the fleet's counters, publishing a `latency_us`
    /// histogram and `transmitted`/`not_sent` counters under `scope`.
    pub fn totals_with_telemetry(&self, scope: &Scope) -> RunTotals {
        let mut transmitted = 0;
        let mut not_sent = 0;
        let hist = scope.histogram("latency_us");
        for c in &self.clients {
            transmitted += c.transmitted();
            not_sent += c.not_sent();
            for v in c.latencies() {
                hist.record(v);
            }
        }
        scope.counter("transmitted").add(transmitted);
        scope.counter("not_sent").add(not_sent);
        RunTotals {
            transmitted,
            not_sent,
            latency: Some(LatencySummary::from_histogram(&hist)),
        }
    }
}

impl FleetResult<MsgClientStats> {
    /// Aggregates `(sent, failures, responses)` across the fleet.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.totals_with_telemetry(&Scope::noop())
    }

    /// Aggregates `(sent, failures, responses)`, publishing matching
    /// counters under `scope`.
    pub fn totals_with_telemetry(&self, scope: &Scope) -> (u64, u64, u64) {
        let mut sent = 0;
        let mut failures = 0;
        let mut responses = 0;
        for c in &self.clients {
            sent += c.sent();
            failures += c.send_failures();
            responses += c.responses_received();
        }
        scope.counter("sent").add(sent);
        scope.counter("send_failures").add(failures);
        scope.counter("responses").add(responses);
        (sent, failures, responses)
    }
}

/// Where fleet clients live.
pub enum ClientPlacement {
    /// All clients share one existing host (the paper's single test
    /// machine opening N connections).
    SharedHost(HostId),
    /// One new host per client, built from a template (name gets an
    /// index suffix).
    HostPerClient(Box<dyn Fn(usize) -> HostConfig>),
}

/// Spawns `n` RPC clients starting within `ramp_over` of each other.
pub fn spawn_rpc_fleet(
    sim: &mut Simulation,
    placement: ClientPlacement,
    n: usize,
    config: &RpcClientConfig,
    ramp_over: SimDuration,
) -> FleetResult<RpcClientStats> {
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let host = place(sim, &placement, i);
        let client = SimRpcClient::new(config.clone());
        clients.push(client.stats());
        let start = stagger(i, n, ramp_over);
        sim.spawn_at(host, Box::new(client), start);
    }
    FleetResult { clients }
}

/// Spawns `n` one-way messaging clients. Each client's name (used for
/// unique message ids) gets an index suffix.
pub fn spawn_msg_fleet(
    sim: &mut Simulation,
    placement: ClientPlacement,
    n: usize,
    config: &MsgClientConfig,
    ramp_over: SimDuration,
) -> FleetResult<MsgClientStats> {
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let host = place(sim, &placement, i);
        let mut cfg = config.clone();
        cfg.client_name = format!("{}-{i}", cfg.client_name);
        // Each client gets its own callback endpoint: `{port}` in the
        // callback URL expands to a per-client port, so every client is
        // a distinct destination (its own NATed machine).
        if let crate::msg_client::ReplyMode::Callback { url } = &mut cfg.reply_mode {
            *url = url.replace("{port}", &(9000 + i as u32).to_string());
        }
        let client = SimMsgClient::new(cfg);
        clients.push(client.stats());
        let start = stagger(i, n, ramp_over);
        sim.spawn_at(host, Box::new(client), start);
    }
    FleetResult { clients }
}

fn place(sim: &mut Simulation, placement: &ClientPlacement, i: usize) -> HostId {
    match placement {
        ClientPlacement::SharedHost(h) => *h,
        ClientPlacement::HostPerClient(template) => sim.add_host(template(i)),
    }
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
    use std::sync::Arc;
    use wsd_core::registry::Registry;
    use wsd_core::sim::{EchoMode, SimEchoService};
    use wsd_core::url::Url;

    #[test]
    fn fleet_ramps_and_aggregates() {
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
        let fleet = spawn_rpc_fleet(
            &mut sim,
            ClientPlacement::SharedHost(c_host),
            5,
            &cfg,
            SimDuration::from_millis(500),
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        let reg = wsd_telemetry::Registry::new();
        let totals = fleet.totals_with_telemetry(&reg.scope("loadgen"));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("loadgen.transmitted"), totals.transmitted);
        assert!(matches!(
            snap.get("loadgen.latency_us"),
            Some(wsd_telemetry::MetricValue::Histogram(h)) if h.count == totals.transmitted
        ));
        assert_eq!(fleet.clients.len(), 5);
        assert!(totals.transmitted > 20, "{}", totals.transmitted);
        assert_eq!(totals.not_sent, 0);
        assert_eq!(svc_stats.replies_sent.get(), totals.transmitted);
        let lat = totals.latency.as_ref().unwrap();
        assert_eq!(lat.count as u64, totals.transmitted);
        assert!(lat.p50_us > 0);
        // The registry-based fleet helpers exist for the dispatcher path
        // too; smoke-check host-per-client placement.
        Arc::new(Registry::new())
            .register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    }

    #[test]
    fn host_per_client_placement_creates_hosts() {
        let mut sim = Simulation::new(2);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(1));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let cfg = RpcClientConfig {
            target_host: "ws".into(),
            target_port: 8888,
            path: "/echo".into(),
            run_for: SimDuration::from_secs(1),
            ..RpcClientConfig::default()
        };
        let fleet = spawn_rpc_fleet(
            &mut sim,
            ClientPlacement::HostPerClient(Box::new(|i| {
                HostConfig::named(format!("client-{i}"))
            })),
            3,
            &cfg,
            SimDuration::ZERO,
        );
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(3));
        assert!(sim.host_id("client-0").is_some());
        assert!(sim.host_id("client-2").is_some());
        assert!(fleet.totals().transmitted > 0);
    }

    #[test]
    fn stagger_spreads_starts() {
        assert_eq!(stagger(0, 10, SimDuration::from_secs(1)), SimTime::ZERO);
        let last = stagger(9, 10, SimDuration::from_secs(1));
        assert_eq!(last, SimTime::ZERO + SimDuration::from_millis(900));
        assert_eq!(stagger(0, 1, SimDuration::from_secs(1)), SimTime::ZERO);
    }
}
