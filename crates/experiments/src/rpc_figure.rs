//! The one runner behind the two RPC figures (4 and 5): an echo service,
//! optionally fronted by the RPC-Dispatcher, ramped by a fleet of
//! closed-loop clients on one shared machine. The figures differ only in
//! the [`RpcFigure`] table each passes in.

use std::sync::Arc;

use wsd_core::config::DispatcherConfig;
use wsd_core::registry::Registry;
use wsd_core::sim::{EchoMode, SimEchoService, SimRpcDispatcher};
use wsd_core::url::Url;
use wsd_loadgen::ramp::ClientPlacement;
use wsd_loadgen::{spawn_rpc_fleet, RpcClientConfig, RunTotals};
use wsd_netsim::{profiles, HostConfig, OverLimit, SimDuration, SimTime, Simulation};
use wsd_telemetry::Snapshot;

use crate::topology::{dispatch_time, light_cpu, service_time};
use crate::Observed;

/// What distinguishes one RPC figure's environment from the other's.
pub struct RpcFigure {
    /// Simulation seed of a point is `seed_base + clients`.
    pub seed_base: u64,
    /// Machine profile of the echo service's host.
    pub ws_profile: fn(&str) -> HostConfig,
    /// Machine profile of the shared client host.
    pub client_profile: fn(&str) -> HostConfig,
    /// Accept limit of the service and dispatcher hosts, and what happens
    /// to a connection attempt past it.
    pub accept_limit: (usize, OverLimit),
    /// The client machine's socket (fd / ephemeral port) ceiling, if the
    /// profile's default is not the one to use.
    pub socket_limit: Option<usize>,
    /// Clock (GHz) the service's per-message CPU time is derived from.
    pub service_ghz: f64,
    /// Per-open-connection service-time penalty.
    pub conn_penalty: f64,
    /// Client-side processing between exchanges.
    pub think_time: SimDuration,
    /// How long a client waits for a response.
    pub response_timeout: SimDuration,
}

/// Runs one series point: `clients` clients for `seconds` virtual
/// seconds, direct or through the dispatcher, publishing into `obs` when
/// one is given.
pub fn run_point(
    fig: &RpcFigure,
    clients: usize,
    via_dispatcher: bool,
    seconds: u64,
    obs: Option<&Observed>,
) -> RunTotals {
    let mut sim = Simulation::new(fig.seed_base + clients as u64);
    if let Some(o) = obs {
        sim.bind_telemetry(&o.registry.scope("net"), o.clock.clone());
    }
    let (accept_limit, over_limit) = fig.accept_limit;
    let ws_host = sim.add_host(
        light_cpu((fig.ws_profile)("ws"))
            .firewall(wsd_netsim::FirewallPolicy::Open)
            .accept_limit(accept_limit, over_limit),
    );
    let mut client_cfg = light_cpu((fig.client_profile)("clients"));
    if let Some(limit) = fig.socket_limit {
        client_cfg = client_cfg.outbound_limit(limit);
    }
    let client_host = sim.add_host(client_cfg);

    let service = SimEchoService::new(EchoMode::Rpc, service_time(fig.service_ghz))
        .with_conn_penalty(fig.conn_penalty);
    let sp = sim.spawn(ws_host, Box::new(service));
    sim.listen(sp, 8888);

    let (target_host, target_port, path) = if via_dispatcher {
        let disp_host = sim.add_host(
            light_cpu(profiles::inria_fast("dispatcher"))
                .firewall(wsd_netsim::FirewallPolicy::Open)
                .accept_limit(accept_limit, over_limit),
        );
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher =
            SimRpcDispatcher::new(registry, dispatch_time(3.4), DispatcherConfig::default())
                .with_telemetry(&Observed::scope_or_noop(obs, "rpc_dispatcher"));
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        ("dispatcher".to_string(), 8081, "/svc/Echo".to_string())
    } else {
        ("ws".to_string(), 8888, "/echo".to_string())
    };

    let config = RpcClientConfig {
        target_host,
        target_port,
        path,
        response_timeout: fig.response_timeout,
        retry_backoff: SimDuration::from_millis(50),
        run_for: SimDuration::from_secs(seconds),
        think_time: fig.think_time,
    };
    let fleet = spawn_rpc_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        clients,
        &config,
        SimDuration::from_secs(seconds.min(5)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
    fleet.totals_with_telemetry(&Observed::scope_or_noop(obs, "loadgen"))
}

/// Runs the full figure — both series at every count, in parallel —
/// turning each point's `(clients, direct, dispatched)` into a row. With
/// `observed`, every point publishes into its own registry and the
/// returned snapshot merges them all; without, it is empty.
pub fn sweep<Row: Send>(
    fig: &RpcFigure,
    seconds: u64,
    counts: &[usize],
    observed: bool,
    row: impl Fn(usize, RunTotals, RunTotals) -> Row + Sync,
) -> (Vec<Row>, Snapshot) {
    let results = crate::parallel_map(counts.to_vec(), |clients| {
        let mut snaps = Vec::new();
        let mut series = |via_dispatcher| {
            let obs = observed.then(Observed::new);
            let totals = run_point(fig, clients, via_dispatcher, seconds, obs.as_ref());
            snaps.extend(obs.map(|o| o.registry.snapshot()));
            totals
        };
        let (direct, dispatched) = (series(false), series(true));
        (row(clients, direct, dispatched), snaps)
    });
    let (rows, snaps): (Vec<Row>, Vec<Vec<Snapshot>>) = results.into_iter().unzip();
    (rows, crate::merge_snapshots(snaps.into_iter().flatten().collect()))
}
