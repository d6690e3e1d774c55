//! Same seed, same bytes; different seed or client, different bytes.

use wsd_benchmark::gen::{paper_pad_len, Generator, BACKLOG_PAYLOAD_BYTES};
use wsd_http::request_bytes;
use wsd_soap::rpc::PAPER_XML_BYTES;

const REPLY_TO: &str = "http://dispatcher:8082/deposit/mbox-1";

fn oneway_stream(seed: u64, client: usize, n: usize, payload: usize) -> Vec<Vec<u8>> {
    let mut gen = Generator::new(seed, client);
    (0..n)
        .map(|_| {
            request_bytes(
                &gen.oneway_request("dispatcher:8080", REPLY_TO, payload)
                    .request,
            )
        })
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_requests() {
    assert_eq!(
        oneway_stream(42, 0, 20, BACKLOG_PAYLOAD_BYTES),
        oneway_stream(42, 0, 20, BACKLOG_PAYLOAD_BYTES)
    );
    let rpc = |seed| {
        let mut gen = Generator::new(seed, 1);
        (0..20)
            .map(|_| {
                request_bytes(
                    &gen.rpc_request("dispatcher:8081", "/svc/Echo", paper_pad_len())
                        .0,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(rpc(7), rpc(7));
    assert_ne!(rpc(7), rpc(8));
}

#[test]
fn seed_and_client_both_change_the_bytes() {
    let base = oneway_stream(42, 0, 5, 64);
    assert_ne!(base, oneway_stream(43, 0, 5, 64));
    assert_ne!(base, oneway_stream(42, 1, 5, 64));
    // Every request of a stream is distinct (ids and text both move on).
    let mut unique = base.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), base.len());
}

#[test]
fn rpc_request_is_the_papers_263_bytes() {
    let mut gen = Generator::new(1, 0);
    let (request, text) = gen.rpc_request("dispatcher:8081", "/svc/Echo", paper_pad_len());
    assert_eq!(request.body.len(), PAPER_XML_BYTES);
    assert_eq!(text.len(), paper_pad_len());
    assert_eq!(gen.sent(), 1);
}

#[test]
fn message_ids_carry_seed_client_and_number() {
    let mut gen = Generator::new(0xABC, 3);
    let first = gen.oneway_request("dispatcher:8080", REPLY_TO, 16);
    let second = gen.oneway_request("dispatcher:8080", REPLY_TO, 16);
    assert_eq!(first.message_id, "uuid:0000000000000abc-3-1");
    assert_eq!(second.message_id, "uuid:0000000000000abc-3-2");
    assert_eq!(first.text.len(), 16);
    assert!(String::from_utf8_lossy(&first.request.body).contains(&first.message_id));
}
