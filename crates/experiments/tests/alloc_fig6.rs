//! A Figure-6 point's allocations per processed message, enforced by
//! `cargo test`.
//!
//! The MSG-Dispatcher + WS-MsgBox point runs every hop of the simulated
//! runtime once per message: the client's POST, the dispatcher's route
//! and forward, the echo's reply, the deposit and the pick-up. Its
//! allocations per message processed by the Web Service are the sum of
//! what those hops make of a message, set-up amortised over the point.
//! 10 clients for 10 virtual seconds process 461 messages in 42 104
//! allocations (91.3 each) with one-buffer HTTP heads and a dispatcher
//! that reads bodies and acks in place; the list-of-pairs heads and the
//! per-message `Request`/`Response` objects took 108 249 (234.8 each).
//! The ceiling leaves about 10 % for drift. (The counting allocator and
//! its one-test-per-binary rule: `core/tests/counting/mod.rs`.)

#[path = "../../core/tests/counting/mod.rs"]
mod counting;

use counting::count;

use wsd_experiments::fig6::{run_one, Series};

const PER_MESSAGE_BUDGET: f64 = 100.0;

#[test]
fn a_fig6_point_stays_within_its_allocations_per_message() {
    let mut point = None;
    let allocs = count(|| point = Some(run_one(Series::DispatcherWithMsgBox, 10, 10)));
    let processed = point.expect("the point ran").ws_processed;
    assert_eq!(processed, 461, "the point's outcome moved");
    let per_message = allocs as f64 / processed as f64;
    assert!(
        per_message <= PER_MESSAGE_BUDGET,
        "{allocs} allocations for {processed} messages: {per_message:.1} each"
    );
}
