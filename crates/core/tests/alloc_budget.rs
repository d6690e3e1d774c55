//! The dispatch hot path's allocation budget, enforced by `cargo test`.
//!
//! `MsgCore::route_raw_into` into a caller-owned buffer is the
//! zero-copy splice path of DESIGN §7c: in steady state a correlated
//! reply costs 2 heap allocations (the two `String`s inside the parsed
//! destination `Url`) and a forward 4 (the two `String`s of the
//! registry's `Url`, the route map's `MessageID` key and the client's
//! `ReplyTo` the route record keeps; the logical name and the id are
//! returned borrowed from the request, and the rewritten `To` is the
//! registry's text). A counting global allocator holds those figures as
//! ceilings: a `format!`, `to_string()` or fresh `Vec` slipped into the
//! splice path fails this test on the next `cargo test`. (The counting
//! allocator and its one-test-per-binary rule: `counting/mod.rs`.)

mod counting;

use std::sync::Arc;

use counting::count;

use wsd_core::{MsgCore, Registry, Url};
use wsd_soap::{rpc, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

/// Steady-state ceilings, allocations per `route_raw_into` call.
const REPLY_BUDGET: u64 = 2;
const FORWARD_BUDGET: u64 = 4;

const DISPATCHER: &str = "http://dispatcher/msg";

/// The paper's addressed echo request in the writer's canonical form —
/// what `route_raw` sees on the wire.
fn forwarded_request() -> String {
    let mut env = rpc::echo_request(SoapVersion::V11, "benchmark payload");
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new("http://client:9000/cb"))
        .message_id("uuid:bench-1")
        .action("urn:wsd:echo:echo")
        .apply(&mut env);
    env.to_xml()
}

/// The service's correlated reply to it.
fn service_reply() -> String {
    let mut env = rpc::echo_response(SoapVersion::V11, "benchmark payload");
    WsaHeaders::new()
        .to(DISPATCHER)
        .relates_to("uuid:bench-1")
        .message_id("uuid:bench-reply-1")
        .apply(&mut env);
    env.to_xml()
}

#[test]
fn route_raw_into_stays_within_its_allocation_budget() {
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let core = MsgCore::new(registry, DISPATCHER, 7);
    let request = forwarded_request();
    let reply = service_reply();
    let mut out = String::new();
    // Each round forwards the request (seeding the route table) and
    // routes the correlated reply (consuming it), reusing one output
    // buffer. Warm its capacity and the shard maps first: one-time setup
    // is not per-message cost.
    let mut round = || -> (u64, u64) {
        out.clear();
        let forward = count(|| {
            let m = core
                .route_raw_into(&request, request.len(), 0, &mut out)
                .unwrap();
            std::hint::black_box(&m);
        });
        out.clear();
        let reply = count(|| {
            let m = core
                .route_raw_into(&reply, reply.len(), 0, &mut out)
                .unwrap();
            std::hint::black_box(&m);
        });
        (forward, reply)
    };
    for _ in 0..8 {
        round();
    }
    let (mut forward_max, mut reply_max) = (0, 0);
    for _ in 0..256 {
        let (forward, reply) = round();
        forward_max = forward_max.max(forward);
        reply_max = reply_max.max(reply);
    }
    assert!(
        reply_max <= REPLY_BUDGET,
        "reply splice path: {reply_max} allocs/op, budget {REPLY_BUDGET}"
    );
    assert!(
        forward_max <= FORWARD_BUDGET,
        "forward splice path: {forward_max} allocs/op, budget {FORWARD_BUDGET}"
    );
    println!("route_raw_into allocs/op: reply {reply_max}, forward {forward_max}");
}
