//! Figure 5 — "RPC communication: high connectivity".
//!
//! The good environment: the Indiana backbone machine (`iuHigh`,
//! SunFire) against the fast INRIA workstation (`inriaFast`, P4@3.4).
//! No packets are lost; throughput climbs with clients, plateaus around
//! 200 connections in the paper's 5000–6000 messages/minute band, and
//! sags slightly beyond that from contention. The dispatcher curve hugs
//! the direct one.

use wsd_loadgen::RunTotals;
use wsd_netsim::{profiles, OverLimit, SimDuration};

use crate::rpc_figure::{self, RpcFigure};

/// The paper's x-axis (0–300 connections).
pub const CLIENT_COUNTS: &[usize] = &[1, 25, 50, 100, 150, 200, 250, 300];

/// Per-open-connection service-time penalty producing the post-plateau
/// droop ("after 200 connections message throughput ... even gets
/// slightly worsened due to contention").
const CONN_PENALTY: f64 = 0.0005;

/// Client-side processing between exchanges (the 2004 client's own SOAP
/// stack); this is what places the saturation knee near 200 connections
/// instead of saturating the service with a handful of clients.
pub const THINK_TIME: SimDuration = SimDuration(1_200_000);

/// The high-connectivity environment.
const FIGURE: RpcFigure = RpcFigure {
    seed_base: 0x0F15_0500,
    ws_profile: profiles::inria_fast,
    client_profile: profiles::iu_high,
    accept_limit: (2_000, OverLimit::Refuse),
    socket_limit: None,
    service_ghz: 3.4,
    conn_penalty: CONN_PENALTY,
    think_time: THINK_TIME,
    response_timeout: SimDuration(30_000_000),
};

/// One plotted point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Direct messages per minute.
    pub direct_per_min: f64,
    /// Dispatched messages per minute.
    pub dispatched_per_min: f64,
    /// Losses (expected 0 in this environment).
    pub direct_not_sent: u64,
    /// Losses through the dispatcher.
    pub dispatched_not_sent: u64,
}

fn row(seconds: u64) -> impl Fn(usize, RunTotals, RunTotals) -> Fig5Row + Sync {
    move |clients, direct, dispatched| Fig5Row {
        clients,
        direct_per_min: direct.per_minute(seconds as f64),
        dispatched_per_min: dispatched.per_minute(seconds as f64),
        direct_not_sent: direct.not_sent,
        dispatched_not_sent: dispatched.not_sent,
    }
}

/// Runs one series point, returning raw totals.
pub fn run_one(clients: usize, via_dispatcher: bool, seconds: u64) -> RunTotals {
    rpc_figure::run_point(&FIGURE, clients, via_dispatcher, seconds, None)
}

/// Runs the full figure.
pub fn run(seconds: u64, counts: &[usize]) -> Vec<Fig5Row> {
    rpc_figure::sweep(&FIGURE, seconds, counts, false, row(seconds)).0
}

/// Runs the full figure with telemetry: the rows plus one snapshot
/// merged across every point and series.
pub fn run_observed(seconds: u64, counts: &[usize]) -> (Vec<Fig5Row>, wsd_telemetry::Snapshot) {
    rpc_figure::sweep(&FIGURE, seconds, counts, true, row(seconds))
}

/// Prints the figure's series.
pub fn print(rows: &[Fig5Row]) {
    println!("# Figure 5 — RPC communication: high connectivity (iuHigh -> inriaFast)");
    println!(
        "{:>8} {:>16} {:>16} {:>12} {:>12}",
        "clients", "direct_msg/min", "disp_msg/min", "direct_lost", "disp_lost"
    );
    for r in rows {
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>12} {:>12}",
            r.clients,
            r.direct_per_min,
            r.dispatched_per_min,
            r.direct_not_sent,
            r.dispatched_not_sent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 10;

    #[test]
    fn no_losses_in_the_good_environment() {
        for clients in [25, 200] {
            let t = run_one(clients, false, SECS);
            assert_eq!(t.not_sent, 0, "clients={clients}: {t:?}");
            let t = run_one(clients, true, SECS);
            assert_eq!(t.not_sent, 0, "via dispatcher, clients={clients}: {t:?}");
        }
    }

    #[test]
    fn throughput_plateaus_in_the_paper_band() {
        let t = run_one(200, false, 20);
        let per_min = t.per_minute(20.0);
        assert!(
            (4_000.0..8_000.0).contains(&per_min),
            "plateau at {per_min}/min"
        );
    }

    #[test]
    fn plateau_does_not_grow_past_200() {
        let at200 = run_one(200, false, SECS).per_minute(SECS as f64);
        let at300 = run_one(300, false, SECS).per_minute(SECS as f64);
        assert!(
            at300 <= at200 * 1.1,
            "no improvement past 200: {at200} vs {at300}"
        );
    }

    #[test]
    fn dispatcher_close_to_direct() {
        let d = run_one(100, false, SECS).per_minute(SECS as f64);
        let v = run_one(100, true, SECS).per_minute(SECS as f64);
        assert!(v >= d * 0.6, "direct {d}, dispatched {v}");
    }
}
