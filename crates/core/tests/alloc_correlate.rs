//! What Table 1 quadrant 3's correlation costs, enforced by `cargo test`.
//!
//! `correlate_rpc_reply` turns an RPC service's `200` answer into a reply
//! the dispatcher can route. A canonical answer with no Header — what the
//! echo service writes — gains its `RelatesTo` by a splice into one
//! `String` sized for it: a 4 KiB answer costs that one allocation and no
//! other. (The counting allocator and its one-test-per-binary rule:
//! `counting/mod.rs`.)

mod counting;

use std::borrow::Cow;

use counting::count;

use wsd_core::msg::correlate_rpc_reply;
use wsd_http::{Response, Status};
use wsd_soap::{rpc, SoapVersion};

#[test]
fn a_canonical_answer_is_correlated_into_its_output_alone() {
    for version in [SoapVersion::V11, SoapVersion::V12] {
        let answer = rpc::echo_response(version, &"x".repeat(4096)).to_xml();
        let resp = Response::new(Status::OK, version.content_type(), answer.into_bytes());
        let mut most = 0;
        for _ in 0..16 {
            most = most.max(count(|| {
                let reply = correlate_rpc_reply(&resp, Some("uuid:bench-1")).unwrap();
                assert!(matches!(reply, Cow::Owned(_)));
                std::hint::black_box(reply);
            }));
        }
        assert_eq!(most, 1, "{version}: allocations per correlated 4 KiB answer");
    }
}
