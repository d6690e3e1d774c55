//! Read for callers, never linted: its own uncalled item is not reported.

pub fn never_reported() {}

fn main() {
    a::bench_only();
}
