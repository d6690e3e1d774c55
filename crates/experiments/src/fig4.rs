//! Figure 4 — "RPC communication: low broadband".
//!
//! The paper's worst-case setup: the cable-modem client machine
//! (`iuLow`, 288 kbps uplink, P3@850) ramps 10…2000 concurrent echo
//! clients against the slow INRIA workstation (`inriaSlow`, P3@1GHz)
//! for one minute, direct and through the RPC-Dispatcher. The expected
//! shape: no loss through ~100 connections, loss onset between 100 and
//! 500 (the accept limit), and losses orders of magnitude above
//! deliveries at 2000; the dispatcher tracks the direct curve ("little
//! negative impact on scalability").

use wsd_loadgen::RunTotals;
use wsd_netsim::{profiles, OverLimit, SimDuration};

use crate::rpc_figure::{self, RpcFigure};

/// The paper's x-axis.
pub const CLIENT_COUNTS: &[usize] = &[10, 100, 200, 500, 1000, 1500, 2000];

/// Accept limit of the 2004-era server host (the loss-onset knee sits
/// between the paper's 100- and 500-connection points). Overflowing SYNs
/// are silently dropped (full backlog), so each excess attempt costs the
/// client a 3 s connect timeout — which keeps losses comparable to
/// deliveries around 500 connections, as the paper reports.
pub const ACCEPT_LIMIT: usize = 128;

/// The client machine's socket (fd / ephemeral port) ceiling. Past it,
/// attempts fail locally and instantly, which is what makes losses
/// explode to orders of magnitude above deliveries at 2000 connections.
pub const SOCKET_LIMIT: usize = 1024;

/// The low-broadband environment.
const FIGURE: RpcFigure = RpcFigure {
    seed_base: 0x0F16_0400,
    ws_profile: profiles::inria_slow,
    client_profile: profiles::iu_low,
    accept_limit: (ACCEPT_LIMIT, OverLimit::Drop),
    socket_limit: Some(SOCKET_LIMIT),
    service_ghz: 1.0,
    conn_penalty: 0.0,
    // The slow client machine's own per-exchange processing.
    think_time: SimDuration(300_000),
    response_timeout: SimDuration(20_000_000),
};

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Direct-to-WS series.
    pub direct: RunTotals,
    /// Through-the-dispatcher series.
    pub dispatched: RunTotals,
}

fn row(clients: usize, direct: RunTotals, dispatched: RunTotals) -> Fig4Row {
    Fig4Row {
        clients,
        direct,
        dispatched,
    }
}

/// Runs one series point.
pub fn run_one(clients: usize, via_dispatcher: bool, seconds: u64) -> RunTotals {
    rpc_figure::run_point(&FIGURE, clients, via_dispatcher, seconds, None)
}

/// Runs the full figure (both series, all points, in parallel).
pub fn run(seconds: u64, counts: &[usize]) -> Vec<Fig4Row> {
    rpc_figure::sweep(&FIGURE, seconds, counts, false, row).0
}

/// Runs the full figure with telemetry: the rows plus one snapshot
/// merged across every point and series.
pub fn run_observed(seconds: u64, counts: &[usize]) -> (Vec<Fig4Row>, wsd_telemetry::Snapshot) {
    rpc_figure::sweep(&FIGURE, seconds, counts, true, row)
}

/// Prints the figure's series as aligned rows.
pub fn print(rows: &[Fig4Row]) {
    println!("# Figure 4 — RPC communication: low broadband (iuLow -> inriaSlow, 1 virtual minute)");
    println!(
        "{:>8} {:>18} {:>16} {:>18} {:>16}",
        "clients", "direct_transmitted", "direct_not_sent", "disp_transmitted", "disp_not_sent"
    );
    for r in rows {
        println!(
            "{:>8} {:>18} {:>16} {:>18} {:>16}",
            r.clients,
            r.direct.transmitted,
            r.direct.not_sent,
            r.dispatched.transmitted,
            r.dispatched.not_sent
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 10-second windows keep the tests quick; shapes are the target.
    const SECS: u64 = 10;

    #[test]
    fn no_loss_at_ten_clients() {
        let t = run_one(10, false, SECS);
        assert!(t.transmitted > 0);
        assert_eq!(t.not_sent, 0, "paper: no packets lost for small counts");
    }

    #[test]
    fn heavy_loss_past_the_accept_limit() {
        let t = run_one(500, false, SECS);
        assert!(t.not_sent > t.transmitted, "{t:?}");
    }

    #[test]
    fn loss_dwarfs_deliveries_at_two_thousand() {
        let t = run_one(2000, false, SECS);
        assert!(
            t.not_sent > 20 * t.transmitted.max(1),
            "paper: orders of magnitude more lost than delivered — got {t:?}"
        );
    }

    #[test]
    fn dispatcher_tracks_direct_shape() {
        let direct = run_one(100, false, SECS);
        let disp = run_one(100, true, SECS);
        // "Little negative impact": within 2x on the throughput axis.
        assert!(disp.transmitted * 2 >= direct.transmitted, "{direct:?} vs {disp:?}");
    }

    #[test]
    fn transmitted_grows_then_saturates() {
        let t10 = run_one(10, false, SECS);
        let t100 = run_one(100, false, SECS);
        assert!(
            t100.transmitted > t10.transmitted,
            "{} !> {}",
            t100.transmitted,
            t10.transmitted
        );
    }
}
