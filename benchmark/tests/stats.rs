//! The tail-percentile chooser, the slice median and the percentile rule.

use wsd_benchmark::stats::Quietest::{Highest, Lowest};
use wsd_benchmark::stats::{
    median, percentile, quietest, samples_beyond, tail_percentile, Slice, MIN_BEYOND, QUIET_RANK,
    TAIL_LADDER,
};

#[test]
fn tail_needs_ten_samples_beyond() {
    // Too few samples for even the lowest rung (75 %: 25 % of 39 < 10).
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(39), None);
    // 40 samples: exactly ten beyond p75.
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(99), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(2000), Some(99.5));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
    assert_eq!(tail_percentile(10_000_000), Some(99.99));
}

#[test]
fn chosen_tail_always_has_enough_beyond_and_the_next_rung_does_not() {
    for n in [40, 57, 100, 999, 1000, 1001, 5_000, 46_067, 99_999, 100_000] {
        let pct = tail_percentile(n).expect("n >= 40");
        assert!(samples_beyond(n, pct) >= MIN_BEYOND, "n={n} pct={pct}");
        if let Some(next) = TAIL_LADDER.iter().find(|p| **p > pct) {
            assert!(samples_beyond(n, *next) < MIN_BEYOND, "n={n} next={next}");
        }
    }
}

#[test]
fn samples_beyond_matches_the_percentile_rule() {
    let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
    for pct in [50.0, 90.0, 95.0, 99.5] {
        let value = percentile(&sorted, pct);
        let beyond = sorted.iter().filter(|v| **v > value).count();
        assert_eq!(beyond, samples_beyond(sorted.len(), pct), "pct={pct}");
    }
}

#[test]
fn percentile_is_nearest_rank() {
    let sorted = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(percentile(&sorted, 50.0), 20.0);
    assert_eq!(percentile(&sorted, 75.0), 30.0);
    assert_eq!(percentile(&sorted, 76.0), 40.0);
    assert_eq!(percentile(&sorted, 100.0), 40.0);
    assert_eq!(percentile(&sorted, 0.0), 10.0);
    assert_eq!(percentile(&[], 50.0), 0.0);
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn slice(msgs: u64, cpu_us: f64, latency_us: &[f64]) -> Slice {
    Slice {
        msgs,
        wall_s: 2.0,
        cpu_us,
        latency_us: latency_us.to_vec(),
        ..Slice::default()
    }
}

#[test]
fn slice_derives_rate_cpu_and_latency_percentiles() {
    let mut s = slice(200, 1000.0, &[30.0, 10.0, 20.0, 40.0]);
    assert_eq!(s.rate(), 100.0);
    assert_eq!(s.cpu_per_msg(), 5.0);
    assert_eq!(s.latency_percentile(50.0), 20.0);
    assert_eq!(s.latency_percentile(90.0), 40.0);
    // No phase time recorded: the workload has no such phase.
    assert_eq!(s.deposit_rate(), None);
    s.deposited = (100, 0.5);
    s.picked = (100, 0.25);
    assert_eq!(s.deposit_rate(), Some(200.0));
    assert_eq!(s.pickup_rate(), Some(400.0));
}

#[test]
fn slices_of_two_clients_merge_counts_samples_and_phase_times() {
    let mut a = slice(10, 0.0, &[1.0, 2.0]);
    a.deposited = (10, 0.1);
    let mut b = slice(5, 0.0, &[3.0]);
    b.deposited = (5, 0.2);
    b.picked = (5, 0.3);
    a.absorb(b);
    assert_eq!(a.msgs, 15);
    assert_eq!(a.latency_us, vec![1.0, 2.0, 3.0]);
    assert_eq!(a.deposited.0, 15);
    assert!((a.deposited.1 - 0.3).abs() < 1e-12);
    assert_eq!(a.picked, (5, 0.3));
}

#[test]
fn quiet_slice_is_the_third_best_from_either_end() {
    assert_eq!(QUIET_RANK, 3);
    // Rates 50, 95, 100, 105, 500 msgs/s: two freak slices (one fast,
    // one slow) do not set the result.
    let slices = [
        slice(200, 1000.0, &[]),
        slice(100, 1000.0, &[]),
        slice(210, 1000.0, &[]),
        slice(190, 1000.0, &[]),
        slice(1000, 1000.0, &[]),
    ];
    assert_eq!(quietest(&slices, Highest, |s| Some(s.rate())), 100.0);
    // CPU per message 1, 4.76, 5, 5.26, 10: third lowest.
    assert_eq!(quietest(&slices, Lowest, |s| Some(s.cpu_per_msg())), 5.0);
}

#[test]
fn quiet_slice_skips_stalled_slices_and_missing_values() {
    // A slice that completed nothing has no rate; it is left out rather
    // than dividing by zero. With fewer than three left, the worst of
    // them is reported.
    let stalled = [
        slice(0, 500.0, &[]),
        slice(100, 1000.0, &[]),
        slice(300, 1000.0, &[]),
    ];
    assert_eq!(quietest(&stalled, Highest, |s| Some(s.rate())), 50.0);
    assert_eq!(quietest(&stalled, Lowest, |s| Some(s.cpu_per_msg())), 10.0);
    // A workload without the phase has no value in any slice.
    assert_eq!(quietest(&stalled, Highest, Slice::deposit_rate), 0.0);
    assert_eq!(quietest(&[], Highest, |s| Some(s.rate())), 0.0);
}
