//! What the routed envelope's own buffer costs, enforced by `cargo test`.
//!
//! `MsgCore::route_raw_into` sizes its output from its input, so a caller
//! can hand it a fresh `String::new()`: the buffer then costs exactly one
//! allocation, for a 64-byte body and a 4 KiB one alike, on both the
//! forward and the correlated reply; one left to grow as the splice
//! appends to it costs several. (The counting allocator and its
//! one-test-per-binary rule: `counting/mod.rs`.)

mod counting;

use std::sync::Arc;

use counting::count;

use wsd_core::{MsgCore, Registry, Url};
use wsd_soap::{rpc, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

const DISPATCHER: &str = "http://dispatcher/msg";

/// An addressed echo request and the service's correlated reply, both
/// carrying `payload`, in the writer's canonical form.
fn conversation(payload: &str) -> (String, String) {
    let mut request = rpc::echo_request(SoapVersion::V11, payload);
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new("http://client:9000/cb"))
        .message_id("uuid:sized-1")
        .action("urn:wsd:echo:echo")
        .apply(&mut request);
    let mut reply = rpc::echo_response(SoapVersion::V11, payload);
    WsaHeaders::new()
        .to(DISPATCHER)
        .relates_to("uuid:sized-1")
        .message_id("uuid:sized-reply-1")
        .apply(&mut reply);
    (request.to_xml(), reply.to_xml())
}

/// The most allocations one forward and one reply cost over 64 rounds,
/// after 8 that warm the route table: each routed into a fresh `String`
/// when `fresh`, else into one buffer cleared and reused.
fn most_allocs(core: &MsgCore, request: &str, reply: &str, fresh: bool) -> (u64, u64) {
    let mut warm = String::new();
    let mut route = |xml: &str| {
        count(|| {
            let mut new = String::new();
            let out = if fresh {
                &mut new
            } else {
                warm.clear();
                &mut warm
            };
            std::hint::black_box(core.route_raw_into(xml, xml.len(), 0, out).unwrap());
        })
    };
    let (mut forward, mut back) = (0, 0);
    for round in 0..72 {
        let (f, b) = (route(request), route(reply));
        if round >= 8 {
            forward = forward.max(f);
            back = back.max(b);
        }
    }
    (forward, back)
}

#[test]
fn a_fresh_output_buffer_costs_one_allocation_whatever_the_body() {
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
    let core = MsgCore::new(registry, DISPATCHER, 7);
    let mut fresh_costs = Vec::new();
    for body in [64, 4096] {
        let (request, reply) = conversation(&"x".repeat(body));
        let fresh = most_allocs(&core, &request, &reply, true);
        let warm = most_allocs(&core, &request, &reply, false);
        assert_eq!(
            fresh,
            (warm.0 + 1, warm.1 + 1),
            "{body} B body: (forward, reply) allocs/op into a fresh buffer vs a warm one"
        );
        fresh_costs.push(fresh);
    }
    assert_eq!(
        fresh_costs[0], fresh_costs[1],
        "(forward, reply) allocs/op into a fresh buffer, 64 B vs 4 KiB body"
    );
}
