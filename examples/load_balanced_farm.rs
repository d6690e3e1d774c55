//! The paper's future-work load balancing (§4.4: "integrate a
//! load-balancing system into the Registry service that uses a farm of
//! WS-Dispatchers"): one logical name backed by a farm of service
//! endpoints, round-robin selection, liveness-based failover, and
//! single-sign-on token checks at the dispatcher.
//!
//! ```text
//! cargo run --example load_balanced_farm
//! ```

use std::sync::Arc;
use std::time::Duration;

use ws_dispatcher::core::config::DispatcherConfig;
use ws_dispatcher::core::registry::{BalanceStrategy, Registry};
use ws_dispatcher::core::rt::{rpc_call, EchoServer, Network, RpcDispatcherServer};
use ws_dispatcher::core::security::{attach_token, PolicyChain, TokenAuth};
use ws_dispatcher::core::url::Url;
use ws_dispatcher::soap::{rpc, SoapVersion};

fn main() {
    let net = Network::new();

    // A farm of three echo workers.
    let workers: Vec<EchoServer> = (0..3)
        .map(|i| EchoServer::start(&net, &format!("worker-{i}"), 8888, 2, Duration::ZERO))
        .collect();

    // One logical service, three physical endpoints, round-robin.
    let registry = Arc::new(Registry::new().with_strategy(BalanceStrategy::RoundRobin));
    registry.register_many(
        "Echo",
        (0..3)
            .map(|i| Url::parse(&format!("http://worker-{i}:8888/echo")).unwrap())
            .collect(),
        Some("<definitions name=\"Echo\"/>".to_string()),
    );

    // The dispatcher also enforces single sign-on: services behind it
    // "do not need to implement security — instead rely on WSD".
    let policies = PolicyChain::new().with(TokenAuth::new(["token-alice"]));
    let dispatcher = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        Arc::clone(&registry),
        policies,
        DispatcherConfig::default(),
    );

    // An unauthenticated call is rejected at the edge.
    let bare = rpc::echo_request(SoapVersion::V11, "no token");
    let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &bare, None).unwrap();
    assert!(resp.as_fault().is_some(), "must be rejected without a token");
    println!("unauthenticated call rejected: {:?}", resp.as_fault().unwrap().reason);

    // Authenticated calls spread across the farm.
    for i in 0..6 {
        let mut env = rpc::echo_request(SoapVersion::V11, &format!("call {i}"));
        attach_token(&mut env, "token-alice");
        let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
        assert_eq!(rpc::parse_echo_response(&resp).unwrap(), format!("call {i}"));
    }
    let served: Vec<u64> = workers.iter().map(|w| w.stats().processed.get()).collect();
    println!("round-robin spread across the farm: {served:?}");
    assert!(served.iter().all(|&s| s == 2), "each worker serves 2 of 6");

    // Kill one worker: the dispatcher marks it down on the first failed
    // forward and fails over to the survivors.
    workers[0].shutdown();
    println!("worker-0 stopped; calling 4 more times...");
    let mut ok = 0;
    for i in 0..4 {
        let mut env = rpc::echo_request(SoapVersion::V11, &format!("after-failure {i}"));
        attach_token(&mut env, "token-alice");
        let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
        if resp.as_fault().is_none() {
            ok += 1;
        }
    }
    println!("{ok}/4 calls succeeded after failover (first may 502 while marking down)");
    assert!(ok >= 3);
    let entry = registry.entry("Echo").unwrap();
    println!(
        "live endpoints now: {:?}",
        entry.live_endpoints().iter().map(|u| u.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(entry.live_endpoints().len(), 2);

    dispatcher.shutdown();
    for w in &workers[1..] {
        w.shutdown();
    }
    println!("ok");
}
