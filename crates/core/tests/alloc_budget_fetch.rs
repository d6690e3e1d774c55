//! A mailbox pick-up's allocation budget, enforced by `cargo test`.
//!
//! One 64-message `fetch` through `msgbox::serve_run` writes the
//! `fetchResponse` straight from the stored bodies into one `String`
//! sized up front, and the client reads it back with
//! `ops::scan_fetch_response`, which borrows every body from the text
//! (DESIGN §7c). Both are held to ceilings here: a tree, a per-message
//! `String` or a buffer grown by doubling slipped into either fails this
//! test on the next `cargo test`.

mod counting;

use counting::count;

use wsd_core::msgbox::{ops, serve_run, MailboxCounters, MsgBoxStore};
use wsd_core::MsgBoxConfig;
use wsd_http::Request;
use wsd_soap::{rpc, SoapVersion};
use wsd_telemetry::Scope;

/// Messages per fetch: the benchmark's pick-up batch.
const FETCH: usize = 64;
/// Ceilings per call, in steady state. Neither grows with the message
/// count: `serve_run`'s are the fetch request's own tree and RPC
/// parameters and the response's headers (479 while the answer was a
/// tree serialised by doubling, 100 while the parser owned every event
/// string), the scan's are its `Vec` of borrowed bodies doubling to 64
/// (843 for `Envelope::parse` + `parse_fetch_response` of the same
/// text).
const SERVE_BUDGET: u64 = 52;
const SCAN_BUDGET: u64 = 5;

#[test]
fn a_fetch_stays_within_its_allocation_budget() {
    const V: SoapVersion = SoapVersion::V11;
    let store = MsgBoxStore::new(MsgBoxConfig::default(), 7);
    let counters = MailboxCounters::new(&Scope::noop());
    let (id, key) = store.create(0);
    let body = rpc::echo_response(V, &"x".repeat(4096)).to_xml();
    let request = ops::fetch(V, &id, &key, FETCH).to_xml();
    let round = || -> (u64, u64) {
        for _ in 0..FETCH {
            store.deposit(&id, body.clone(), 0).unwrap();
        }
        let req = Request::soap_post("msgbox", "/msgbox", V.content_type(), request.clone());
        let mut answer = Vec::new();
        let serve = count(|| answer = serve_run(&store, &counters, [req], 0));
        let text = answer[0].body_str().expect("UTF-8");
        let mut bodies = None;
        let scan = count(|| bodies = ops::scan_fetch_response(text));
        assert_eq!(bodies.map(|b| b.len()), Some(FETCH));
        (serve, scan)
    };
    // Warm the store's maps first: one-time setup is not per-fetch cost.
    for _ in 0..4 {
        round();
    }
    let (mut serve_max, mut scan_max) = (0, 0);
    for _ in 0..32 {
        let (serve, scan) = round();
        serve_max = serve_max.max(serve);
        scan_max = scan_max.max(scan);
    }
    println!("64-message fetch allocs: serve_run {serve_max}, scan_fetch_response {scan_max}");
    assert!(
        serve_max <= SERVE_BUDGET,
        "serve_run fetch: {serve_max} allocs, budget {SERVE_BUDGET}"
    );
    assert!(
        scan_max <= SCAN_BUDGET,
        "scan_fetch_response: {scan_max} allocs, budget {SCAN_BUDGET}"
    );
}
