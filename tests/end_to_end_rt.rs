//! End-to-end tests of the threaded runtime: the full protocol stack
//! (XML → SOAP → WSA → HTTP) over real thread pools and in-memory
//! streams.

use std::sync::Arc;
use std::time::Duration;

use ws_dispatcher::core::config::{DispatcherConfig, MsgBoxConfig};
use ws_dispatcher::core::msg::MsgCore;
use ws_dispatcher::core::registry::{BalanceStrategy, Registry};
use ws_dispatcher::core::rt::{
    rpc_call, send_oneway, EchoServer, MailboxClient, MsgBoxServer, MsgDispatcherServer,
    Network, RpcDispatcherServer,
};
use ws_dispatcher::core::security::{attach_token, MaxSize, PolicyChain, TokenAuth};
use ws_dispatcher::core::url::Url;
use ws_dispatcher::soap::{rpc, SoapVersion};
use ws_dispatcher::wsa::{EndpointReference, WsaHeaders};

#[test]
fn rpc_conversation_through_dispatcher() {
    let net = Network::new();
    let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let disp = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        registry,
        PolicyChain::new(),
        DispatcherConfig::default(),
    );
    for v in [SoapVersion::V11, SoapVersion::V12] {
        let env = rpc::echo_request(v, "bonjour");
        let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
        assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "bonjour");
        assert_eq!(resp.version, v, "version must be preserved end to end");
    }
    disp.shutdown();
    ws.shutdown();
}

#[test]
fn registry_file_drives_a_live_dispatcher() {
    let net = Network::new();
    let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
    // Configuration exactly as the paper's text-file registry.
    let registry = Arc::new(Registry::new());
    registry
        .load_from_str("# services\nEcho http://ws:8888/echo\n")
        .unwrap();
    let disp = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        registry,
        PolicyChain::new(),
        DispatcherConfig::default(),
    );
    let env = rpc::echo_request(SoapVersion::V11, "from-file");
    let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
    assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "from-file");
    disp.shutdown();
    ws.shutdown();
}

#[test]
fn security_chain_enforced_at_the_edge() {
    let net = Network::new();
    let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let policies = PolicyChain::new()
        .with(MaxSize(10_000))
        .with(TokenAuth::new(["sso-token"]));
    let disp = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        registry,
        policies,
        DispatcherConfig::default(),
    );
    // No token: rejected with a SOAP fault; the WS never sees it.
    let env = rpc::echo_request(SoapVersion::V11, "x");
    let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
    assert!(resp.as_fault().is_some());
    assert_eq!(ws.stats().processed.get(), 0);
    // With the token: passes.
    let mut env = rpc::echo_request(SoapVersion::V11, "x");
    attach_token(&mut env, "sso-token");
    let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
    assert!(resp.as_fault().is_none());
    assert_eq!(ws.stats().processed.get(), 1);
    disp.shutdown();
    ws.shutdown();
}

#[test]
fn async_conversation_with_mailbox_end_to_end() {
    let net = Network::new();
    // One-way echo service that replies through its ReplyTo.
    let ws = EchoServer::start_oneway(&net, "ws", 8888, 2, Duration::ZERO);

    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 7);
    let disp = MsgDispatcherServer::start(
        &net,
        "dispatcher",
        8080,
        core,
        DispatcherConfig::default(),
    );
    let mbox_server = MsgBoxServer::start(&net, "msgbox", 8082, MsgBoxConfig::default(), 7);
    net.set_firewalled("laptop", true);

    let mailbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
    // A multi-message conversation: three requests, three correlated
    // replies, picked up by polling.
    for i in 0..3 {
        let mut env = rpc::echo_request(SoapVersion::V11, &format!("m{i}"));
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .reply_to(EndpointReference::new(mailbox.deposit_url()))
            .message_id(format!("uuid:conv-{i}"))
            .apply(&mut env);
        send_oneway(&net, "dispatcher", 8080, "/msg", &env).unwrap();
    }
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while got.len() < 3 && std::time::Instant::now() < deadline {
        got.extend(mailbox.poll(10).unwrap());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(got.len(), 3, "all replies must land in the mailbox");
    let mut texts: Vec<String> = got
        .iter()
        .map(|e| rpc::parse_echo_response(e).unwrap())
        .collect();
    texts.sort();
    assert_eq!(texts, vec!["m0", "m1", "m2"]);
    // Every reply correlates to its request id.
    for e in &got {
        let h = WsaHeaders::from_envelope(e).unwrap();
        assert!(h.relates_to[0].0.starts_with("uuid:conv-"));
    }
    // Every message the dispatcher routed is written once: three requests
    // and three replies (a batch is on the books once its answers are in).
    let books = disp.counters();
    let routed = || books.forwarded.get() + books.replies_routed.get();
    let finished = || books.written_or_dropped();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while finished() < routed() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!((routed(), finished()), (6, 6), "{books:?}");
    let echo = ws.stats();
    assert_eq!((echo.processed.get(), echo.replies_sent.get()), (3, 3));
    mailbox.destroy().unwrap();
    disp.shutdown();
    mbox_server.shutdown();
    ws.shutdown();
}

#[test]
fn farm_failover_keeps_service_alive() {
    let net = Network::new();
    let w0 = EchoServer::start(&net, "w0", 8888, 2, Duration::ZERO);
    let w1 = EchoServer::start(&net, "w1", 8888, 2, Duration::ZERO);
    let registry = Arc::new(Registry::new().with_strategy(BalanceStrategy::RoundRobin));
    registry.register_many(
        "Echo",
        vec![
            Url::parse("http://w0:8888/echo").unwrap(),
            Url::parse("http://w1:8888/echo").unwrap(),
        ],
        None,
    );
    let disp = RpcDispatcherServer::start(
        &net,
        "dispatcher",
        8081,
        Arc::clone(&registry),
        PolicyChain::new(),
        DispatcherConfig::default(),
    );
    w0.shutdown();
    // After at most one 502 (which marks w0 down), all calls succeed.
    let mut failures = 0;
    let mut successes = 0;
    for i in 0..6 {
        let env = rpc::echo_request(SoapVersion::V11, &format!("{i}"));
        let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &env, None).unwrap();
        if resp.as_fault().is_some() {
            failures += 1;
        } else {
            successes += 1;
        }
    }
    assert!(failures <= 1, "at most the probe call fails");
    assert!(successes >= 5);
    assert_eq!(registry.entry("Echo").unwrap().live_endpoints().len(), 1);
    disp.shutdown();
    w1.shutdown();
}

#[test]
fn oom_bug_reproduces_on_real_threads() {
    let net = Network::new();
    let cfg = MsgBoxConfig {
        strategy: ws_dispatcher::core::config::MsgBoxStrategy::ThreadPerMessage,
        thread_budget: 6,
        ..MsgBoxConfig::default()
    };
    let server = MsgBoxServer::start(&net, "msgbox", 8082, cfg, 1);
    // Hold connections open so each pins its spawned thread.
    let mut held = Vec::new();
    for _ in 0..6 {
        held.push(net.connect("msgbox", 8082).unwrap());
    }
    std::thread::sleep(Duration::from_millis(50));
    let _ = net.connect("msgbox", 8082); // the OutOfMemoryError
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while !server.crashed() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(server.crashed());
    drop(held);
    server.shutdown();
}
