//! Span self time: a parent's duration minus what its children cover.

use wsd_benchmark::spans::{op_self_times_us, self_time_us, Span, SpanKind};

fn span(kind: SpanKind, op: u64, start_us: u64, end_us: u64) -> Span {
    Span {
        kind,
        client: 0,
        op,
        start_us,
        end_us,
    }
}

#[test]
fn self_time_subtracts_children() {
    let parent = span(SpanKind::Op, 1, 100, 1100);
    let send = span(SpanKind::Send, 1, 100, 300);
    let poll = span(SpanKind::Poll, 1, 350, 1000);
    assert_eq!(self_time_us(&parent, &[send, poll]), Some(1000 - 200 - 650));
    assert_eq!(self_time_us(&parent, &[]), Some(1000));
    // Children that tile the parent leave nothing.
    let poll = span(SpanKind::Poll, 1, 300, 1100);
    assert_eq!(self_time_us(&parent, &[send, poll]), Some(0));
}

#[test]
fn overlapping_children_are_counted_once() {
    let parent = span(SpanKind::Op, 1, 0, 100);
    let a = span(SpanKind::Send, 1, 10, 60);
    let b = span(SpanKind::Poll, 1, 40, 80);
    let inside = span(SpanKind::Settle, 1, 20, 30);
    assert_eq!(self_time_us(&parent, &[a, b, inside]), Some(100 - 70));
    // Order does not matter.
    assert_eq!(self_time_us(&parent, &[inside, b, a]), Some(100 - 70));
}

#[test]
fn a_child_outside_its_parent_is_an_error() {
    let parent = span(SpanKind::Op, 1, 100, 200);
    assert_eq!(
        self_time_us(&parent, &[span(SpanKind::Send, 1, 90, 150)]),
        None
    );
    assert_eq!(
        self_time_us(&parent, &[span(SpanKind::Poll, 1, 150, 201)]),
        None
    );
}

#[test]
fn operations_pair_children_by_client_and_number() {
    let mut other_client = span(SpanKind::Op, 1, 0, 50);
    other_client.client = 1;
    let spans = [
        span(SpanKind::Send, 1, 0, 40),
        span(SpanKind::Op, 1, 0, 100),
        span(SpanKind::Op, 2, 100, 300),
        span(SpanKind::Poll, 2, 150, 300),
        span(SpanKind::Poll, 1, 40, 90),
        other_client,
    ];
    assert_eq!(op_self_times_us(&spans), Some(vec![10.0, 50.0, 50.0]));
    // A child with no parent makes the whole trace suspect.
    assert_eq!(op_self_times_us(&[span(SpanKind::Send, 7, 0, 1)]), None);
    assert_eq!(op_self_times_us(&[]), Some(vec![]));
}
