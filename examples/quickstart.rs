//! Quickstart: expose a Web Service through the RPC-Dispatcher and call
//! it by its logical name.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The topology is the paper's Figure 1 on the threaded runtime: a
//! client, the dispatcher (with its registry), and a Web Service whose
//! physical address the client never sees.

use std::sync::Arc;
use std::time::Duration;

use ws_dispatcher::core::config::DispatcherConfig;
use ws_dispatcher::core::registry::Registry;
use ws_dispatcher::core::rt::{rpc_call, EchoServer, Network, RpcDispatcherServer};
use ws_dispatcher::core::security::PolicyChain;
use ws_dispatcher::core::url::Url;
use ws_dispatcher::soap::{rpc, SoapVersion};

fn main() {
    // The in-process internet.
    let net = Network::new();

    // A Web Service on its "real" host — inside the inaccessible zone.
    let ws = EchoServer::start(&net, "ws-internal", 8888, 4, Duration::from_millis(2));

    // The registry maps the logical name clients use to the physical
    // address (paper §4.1: "the role of dispatcher is to translate
    // logical address to known physical locations").
    let registry = Arc::new(Registry::new());
    registry.register(
        "EchoService",
        Url::parse("http://ws-internal:8888/echo").unwrap(),
    );
    println!("registry:\n{}", registry.to_file_string());

    // The dispatcher at the edge.
    let dispatcher = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        Arc::clone(&registry),
        PolicyChain::new(),
        DispatcherConfig::default(),
    );

    // A client calls the *logical* service.
    let request = rpc::echo_request(SoapVersion::V11, "hello through the dispatcher");
    let response = rpc_call(
        &net,
        "dispatcher",
        8081,
        "/svc/EchoService",
        &request,
        Some(Duration::from_secs(5)),
    )
    .expect("call failed");
    let echoed = rpc::parse_echo_response(&response).expect("not an echo response");
    println!("echoed: {echoed:?}");
    assert_eq!(echoed, "hello through the dispatcher");

    let stats = dispatcher.stats();
    println!(
        "dispatcher: received={} forwarded={} relayed={}",
        stats.received.get(),
        stats.forwarded.get(),
        stats.relayed.get()
    );

    dispatcher.shutdown();
    ws.shutdown();
    println!("ok");
}
