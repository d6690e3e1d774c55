//! The connection wall (paper §4.3.2), on the threaded runtime.
//!
//! The paper's WS-MsgBox pins one native thread per client connection,
//! so ~50 simultaneous clients exhaust the JVM's thread budget and the
//! service dies with an `OutOfMemoryError`. This experiment holds real
//! kept-open connections against both designs:
//!
//! * **thread-per-message** with the paper's ~50-thread budget collapses
//!   as the client count crosses the budget;
//! * the **pooled + reactor** redesign serves 4096 held-open clients on
//!   a fixed handler pool and nothing else, flat.
//!
//! Unlike fig4/5/6 this runs on real OS threads (`wsd_core::rt`), not
//! the simulated network — the wall being reproduced *is* a native
//! threading limit.

use std::sync::Arc;

use wsd_core::config::{MsgBoxConfig, MsgBoxStrategy};
use wsd_core::rt::{MsgBoxServer, Network};
use wsd_http::{HttpClient, PipeStream, Request, Status};

/// Native-thread budget for the thread-per-message design — the paper's
/// observed ~50-client ceiling.
pub const THREAD_BUDGET: usize = 50;
/// Handler workers behind the reactor front end.
pub const POOL_WORKERS: usize = 8;
/// Client counts thrown at the thread-per-message design.
pub const TPM_COUNTS: &[usize] = &[25, 40, 50, 60, 75];
/// Client counts thrown at the reactor-fronted pooled design.
pub const REACTOR_COUNTS: &[usize] = &[50, 250, 1000, 4096];

/// One sweep point: `clients` held-open connections against one design.
#[derive(Debug, Clone)]
pub struct ConnWallPoint {
    /// Connections opened (and held) against the service.
    pub clients: usize,
    /// Whether the simulated `OutOfMemoryError` fired.
    pub crashed: bool,
    /// Peak concurrent service threads (budget leases in the
    /// thread-per-message design; pool workers behind the reactor).
    pub peak_threads: usize,
    /// Deposits the service accepted before/despite the wall.
    pub deposits: u64,
    /// Reactor-registered connections at the hold point (pooled only).
    pub open_conns: Option<usize>,
}

/// Both sweeps side by side.
#[derive(Debug, Clone)]
pub struct ConnWallOutcome {
    /// Thread-per-message points (budget [`THREAD_BUDGET`]).
    pub thread_per_message: Vec<ConnWallPoint>,
    /// Reactor-fronted pooled points ([`POOL_WORKERS`] workers).
    pub reactor: Vec<ConnWallPoint>,
}

/// Connects `clients` times, deposits once per connection, and keeps
/// every connection open; returns the held clients plus how many
/// deposits were acknowledged.
fn hold_clients(
    net: &Arc<Network>,
    box_id: &str,
    clients: usize,
) -> (Vec<HttpClient<PipeStream>>, u64) {
    let mut held = Vec::with_capacity(clients);
    let mut acked = 0u64;
    for i in 0..clients {
        // Past the wall the listener is gone: count the refusal and move on.
        let Ok(stream) = net.connect("msgbox", 8082) else {
            continue;
        };
        let mut client = HttpClient::new(stream);
        let req = Request::soap_post(
            "msgbox:8082",
            &format!("/deposit/{box_id}"),
            "text/xml",
            format!("<msg n=\"{i}\"/>").into_bytes(),
        );
        if client.call(&req).map(|r| r.status) == Ok(Status::ACCEPTED) {
            acked += 1;
        }
        held.push(client);
    }
    (held, acked)
}

fn run_point(strategy: MsgBoxStrategy, clients: usize) -> ConnWallPoint {
    let reg = wsd_telemetry::Registry::new();
    let net = Network::new();
    let cfg = MsgBoxConfig {
        strategy,
        thread_budget: THREAD_BUDGET,
        ..MsgBoxConfig::default()
    };
    let server =
        MsgBoxServer::start_with_telemetry(&net, "msgbox", 8082, cfg, 0xC0, &reg.scope("mb"));
    let (box_id, _key) = server.store().create(wsd_core::rt::now_us());
    let (held, _acked) = hold_clients(&net, &box_id, clients);
    let open_conns = server.open_connections();
    let peak_threads = match strategy {
        MsgBoxStrategy::ThreadPerMessage => server.peak_threads(),
        // Peak concurrently live handler workers: the reactor has no
        // thread of its own.
        MsgBoxStrategy::Pooled { .. } => reg.snapshot().gauge_peak("mb.pool.workers") as usize,
    };
    let point = ConnWallPoint {
        clients,
        crashed: server.crashed(),
        peak_threads,
        deposits: server.deposits(),
        open_conns,
    };
    drop(held);
    server.shutdown();
    point
}

/// Runs both sweeps.
pub fn run(tpm_counts: &[usize], reactor_counts: &[usize]) -> ConnWallOutcome {
    ConnWallOutcome {
        thread_per_message: tpm_counts
            .iter()
            .map(|&n| run_point(MsgBoxStrategy::ThreadPerMessage, n))
            .collect(),
        reactor: reactor_counts
            .iter()
            .map(|&n| run_point(MsgBoxStrategy::Pooled { workers: POOL_WORKERS }, n))
            .collect(),
    }
}

/// Prints both sweeps the way the paper narrates them.
pub fn print(o: &ConnWallOutcome) {
    println!("# Connection wall (paper §4.3.2, threaded runtime)");
    println!("thread-per-message, budget {THREAD_BUDGET}:");
    for p in &o.thread_per_message {
        println!(
            "  clients={:5}  crashed={:5}  peak_threads={:4}  deposits={}",
            p.clients, p.crashed, p.peak_threads, p.deposits
        );
    }
    println!("reactor + pool of {POOL_WORKERS}:");
    for p in &o.reactor {
        println!(
            "  clients={:5}  crashed={:5}  peak_threads={:4}  deposits={}  open_conns={}",
            p.clients,
            p.crashed,
            p.peak_threads,
            p.deposits,
            p.open_conns.unwrap_or(0)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_fires_past_budget_and_reactor_stays_flat() {
        let n = *REACTOR_COUNTS.last().unwrap();
        let o = run(&[THREAD_BUDGET + 10], &[n]);
        let tpm = &o.thread_per_message[0];
        assert!(tpm.crashed, "budget-crossing load must crash the service");
        assert!(tpm.peak_threads >= THREAD_BUDGET);
        let r = &o.reactor[0];
        assert!(!r.crashed);
        assert_eq!(r.deposits, n as u64);
        assert_eq!(r.open_conns, Some(n));
        assert!(r.peak_threads <= POOL_WORKERS, "reactor used {} threads", r.peak_threads);
    }

    #[test]
    fn below_budget_thread_per_message_survives() {
        let o = run(&[10], &[]);
        let p = &o.thread_per_message[0];
        assert!(!p.crashed);
        assert_eq!(p.deposits, 10);
    }
}
