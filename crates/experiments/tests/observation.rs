//! Observing a run never changes it: a point run with a telemetry
//! registry bound (virtual clock, every instrument live) gives the same
//! outcome as the same point run unobserved, so a figure's rows do not
//! depend on whether its snapshot was asked for.

use wsd_experiments::{fig5, fig6};

#[test]
fn an_observed_fig6_point_equals_the_unobserved_one() {
    for series in [
        fig6::Series::DirectBlocked,
        fig6::Series::Dispatcher,
        fig6::Series::DispatcherWithMsgBox,
    ] {
        let plain = fig6::run_one(series, 5, 5);
        assert!(plain.ws_processed > 0, "{series:?} processed nothing");
        let (observed, snapshot) = fig6::run_one_observed(series, 5, 5);
        assert_eq!(observed, plain, "{series:?}");
        assert!(!snapshot.entries().is_empty(), "{series:?} recorded nothing");
    }
}

#[test]
fn an_observed_fig5_run_equals_the_unobserved_one() {
    let plain = fig5::run(5, &[10]);
    assert!(plain[0].dispatched_per_min > 0.0, "nothing was dispatched");
    let (observed, snapshot) = fig5::run_observed(5, &[10]);
    assert_eq!(observed, plain);
    assert!(!snapshot.entries().is_empty(), "the run recorded nothing");
}
