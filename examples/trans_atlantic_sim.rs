//! Rebuild the paper's trans-Atlantic testbed on the deterministic
//! network simulator and run a one-minute RPC load test — a miniature
//! Figure 5 point, but showing the simulator API directly.
//!
//! ```text
//! cargo run --example trans_atlantic_sim
//! ```

use std::sync::Arc;

use ws_dispatcher::core::config::DispatcherConfig;
use ws_dispatcher::core::registry::Registry;
use ws_dispatcher::core::sim::{EchoMode, SimEchoService, SimRpcDispatcher};
use ws_dispatcher::core::url::Url;
use ws_dispatcher::loadgen::ramp::ClientPlacement;
use ws_dispatcher::loadgen::{spawn_rpc_fleet, RpcClientConfig};
use ws_dispatcher::netsim::{profiles, FirewallPolicy, SimDuration, SimTime, Simulation};

fn main() {
    let mut sim = Simulation::new(2005);

    // The paper's sites, with their measured link speeds. The WS host
    // would normally sit behind the INRIA firewall; the dispatcher host
    // is the designated opening (here both open so the direct/dispatched
    // comparison is apples-to-apples).
    let ws_host = sim.add_host(
        profiles::inria_fast("inria-fast")
            .firewall(FirewallPolicy::Open)
            .cpu_per_kb(SimDuration::from_micros(500)),
    );
    let disp_host = sim.add_host(
        profiles::inria_fast("dispatcher")
            .firewall(FirewallPolicy::Open)
            .cpu_per_kb(SimDuration::from_micros(500)),
    );
    let client_host = sim.add_host(profiles::iu_high("iu-backbone"));

    // The echo WS with ~10 ms of 2004-Java-SOAP CPU per message.
    let service = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(10));
    let service_stats = service.stats();
    let sp = sim.spawn(ws_host, Box::new(service));
    sim.listen(sp, 8888);

    // The RPC-Dispatcher in front of it.
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://inria-fast:8888/echo").unwrap());
    let dispatcher = SimRpcDispatcher::new(
        registry,
        SimDuration::from_millis(3),
        DispatcherConfig::default(),
    );
    let disp_stats = dispatcher.stats();
    let dp = sim.spawn(disp_host, Box::new(dispatcher));
    sim.listen(dp, 8081);

    // 100 clients from Indiana, ramped over 5 virtual seconds, sending
    // the paper's 483-byte echo message for one virtual minute.
    let fleet = spawn_rpc_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        100,
        &RpcClientConfig {
            target_host: "dispatcher".into(),
            target_port: 8081,
            path: "/svc/Echo".into(),
            run_for: SimDuration::from_secs(60),
            ..RpcClientConfig::default()
        },
        SimDuration::from_secs(5),
    );

    let minute = SimTime::ZERO + SimDuration::from_secs(60);
    sim.run_until(minute);

    let totals = fleet.totals();
    let latency = totals.latency.as_ref().expect("latency recorded");
    println!("virtual time elapsed : {}", sim.now());
    println!("events processed     : {}", sim.events_processed());
    println!("messages transmitted : {}", totals.transmitted);
    println!("messages not sent    : {}", totals.not_sent);
    println!("throughput           : {:.0} messages/minute", totals.per_minute(60.0));
    println!(
        "round-trip latency   : p50 {:.1} ms, p95 {:.1} ms, max {:.1} ms",
        latency.p50_us as f64 / 1000.0,
        latency.p95_us as f64 / 1000.0,
        latency.max_us as f64 / 1000.0
    );
    println!(
        "dispatcher           : received={} forwarded={} relayed={}",
        disp_stats.received.get(),
        disp_stats.forwarded.get(),
        disp_stats.relayed.get()
    );
    println!("service responses    : {}", service_stats.replies_sent.get());
    assert!(totals.transmitted > 0);
    assert_eq!(totals.not_sent, 0);
    println!("ok");
}
