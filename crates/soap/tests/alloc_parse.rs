//! `Envelope::parse`'s allocation counts, enforced by `cargo test`.
//!
//! The pull parser's events borrow from the text, so a tree parse
//! allocates only what ends up in the tree: each element's name,
//! namespace, attribute and child vectors, and each text or attribute
//! value. These ceilings hold it there on the three envelopes a
//! firewalled peer reads most: the paper's echo, an addressed one-way
//! request and the reply it is answered with. Owning event strings, a
//! map per element's scope or a tag name formatted per end tag again
//! fails this test (the parent of the borrowing parser took 64, 154 and
//! 144).

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use counting::count;

use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

const ECHO_BUDGET: u64 = 26;
const REQUEST_BUDGET: u64 = 64;
const REPLY_BUDGET: u64 = 60;

/// Allocations of one `Envelope::parse(xml)`, after a warm-up call.
fn parse_allocs(xml: &str) -> u64 {
    Envelope::parse(xml).expect("well-formed envelope");
    count(|| {
        Envelope::parse(xml).expect("well-formed envelope");
    })
}

#[test]
fn envelope_parse_stays_within_its_allocation_budget() {
    let echo = rpc::paper_echo_request();
    let text = rpc::parse_echo(&echo).expect("the paper's echo is an echo call");
    let mut request = rpc::echo_request(SoapVersion::V11, &text);
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new("http://client:9000/cb"))
        .message_id("uuid:bench-1")
        .apply(&mut request);
    let mut reply = rpc::echo_response(SoapVersion::V11, &text);
    WsaHeaders::new()
        .to("http://dispatcher/msg")
        .relates_to("uuid:bench-1")
        .message_id("uuid:bench-reply-1")
        .apply(&mut reply);
    let shapes = [
        ("paper echo", echo.to_xml(), ECHO_BUDGET),
        ("addressed request", request.to_xml(), REQUEST_BUDGET),
        ("reply", reply.to_xml(), REPLY_BUDGET),
    ];
    let mut over = Vec::new();
    for (shape, xml, budget) in &shapes {
        let allocs = parse_allocs(xml);
        println!(
            "{shape}, {} B: {allocs} allocs (budget {budget})",
            xml.len()
        );
        if allocs > *budget {
            over.push(format!("{shape}: {allocs} allocs, budget {budget}"));
        }
    }
    assert!(over.is_empty(), "Envelope::parse over budget: {over:?}");
}
