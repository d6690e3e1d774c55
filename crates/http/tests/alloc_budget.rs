//! `wsd-http`'s allocation counts, enforced by `cargo test`.
//!
//! A head is one buffer (`Headers` holds its lines as they go on the
//! wire), so parsing the canonical SOAP POST costs its target, its head
//! buffer and the body's copy, however many headers it carries; building
//! and writing it, or an empty `202`, is its head buffer and the bytes
//! it is written into (and the POST's target). The borrowed readers
//! allocate nothing. A header parsed into a `String` of its own, or a
//! number formatted through `to_string`, fails this test (the
//! list-of-pairs model took 15 to parse the POST, 14 to build and write
//! it and 7 for the ack).
//! (The counting allocator and its one-test-per-binary rule:
//! `core/tests/counting/mod.rs`.)

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use counting::count;
use std::hint::black_box;

use wsd_http::{
    parse_request_bytes, request_body, request_bytes, response_bytes, response_status, Request,
    Response, Status,
};

/// The target, the head buffer, and the body's copy: its `Vec` and the
/// shared handle `Bytes` keeps it behind.
const PARSE_BUDGET: u64 = 4;
/// `Response::empty`'s head buffer and `response_bytes`'s output.
const ACK_BUDGET: u64 = 2;
/// `soap_post`'s target and head buffer (the body is handed over as it
/// is), and `request_bytes`'s output.
const POST_BUDGET: u64 = 3;

#[test]
fn http_messages_stay_within_their_allocation_budget() {
    // The five-header POST every SOAP client in the workspace sends.
    let body = format!("<Envelope>{}</Envelope>", "x".repeat(600));
    let post = Request::soap_post(
        "dispatcher:8080",
        "/msg",
        "text/xml; charset=utf-8",
        body.into_bytes(),
    );
    assert_eq!(post.headers.len(), 5);
    let wire = request_bytes(&post);
    let ack = response_bytes(&Response::empty(Status::ACCEPTED));

    let parse = count(|| {
        black_box(parse_request_bytes(black_box(&wire)).expect("a valid POST"));
    });
    let written = count(|| {
        black_box(response_bytes(&Response::empty(Status::ACCEPTED)));
    });
    let body = post.body.clone();
    let sent = count(|| {
        let post = Request::soap_post("dispatcher:8080", "/msg", "text/xml", body.clone());
        black_box(request_bytes(&post));
    });
    let borrowed = count(|| {
        black_box(request_body(black_box(&wire)).expect("a valid POST"));
        black_box(response_status(black_box(&ack)));
    });
    assert!(parse <= PARSE_BUDGET, "parsing the POST took {parse} allocations");
    assert!(written <= ACK_BUDGET, "writing the 202 took {written} allocations");
    assert!(sent <= POST_BUDGET, "building and writing the POST took {sent} allocations");
    assert_eq!(borrowed, 0, "the borrowed readers allocated");
}
