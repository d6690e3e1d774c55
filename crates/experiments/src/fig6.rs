//! Figure 6 — "Asynchronous communication".
//!
//! The good environment again, but message-style, with the client behind
//! a firewall/NAT (the cable-modem reality the paper motivates): three
//! configurations at 1…50 concurrent clients, y-axis messages/minute
//! processed by the Web Service.
//!
//! * **one-way, response blocked**: client → WS directly; the WS's reply
//!   connections die against the client firewall, stalling its worker
//!   threads — the slowest curve.
//! * **MSG-Dispatcher**: client → WSD → WS; the WS replies through the
//!   dispatcher fine, but the dispatcher's `WsThread`s stall delivering
//!   to the firewalled client — the middle curve.
//! * **MSG-Dispatcher + WS-MsgBox**: replies land in the client's
//!   mailbox; nothing stalls — the best curve above ~10 clients.
//!
//! §4.3.2's thread-explosion bug is reproduced by [`run_oom`]: the
//! thread-per-message WS-MsgBox dies of the simulated `OutOfMemoryError`
//! past ~50 clients while the pooled redesign survives.

use std::sync::Arc;

use wsd_core::config::{DispatcherConfig, MsgBoxConfig, MsgBoxStrategy};
use wsd_core::msg::MsgCore;
use wsd_core::registry::Registry;
use wsd_core::sim::{EchoMode, SimEchoService, SimMsgBox, SimMsgDispatcher};
use wsd_core::url::Url;
use wsd_loadgen::ramp::ClientPlacement;
use wsd_loadgen::{spawn_msg_fleet, MsgClientConfig, ReplyMode};
use wsd_netsim::{profiles, FirewallPolicy, SimDuration, SimTime, Simulation};

use crate::topology::{dispatch_time, light_cpu, service_time};

/// The paper's x-axis (0–50 clients).
pub const CLIENT_COUNTS: &[usize] = &[1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50];

/// The three plotted configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    /// One-way direct to the WS; responses blocked by the client
    /// firewall.
    DirectBlocked,
    /// Through the MSG-Dispatcher, replies aimed at the (blocked) client
    /// callback.
    Dispatcher,
    /// Through the MSG-Dispatcher with a WS-MsgBox mailbox.
    DispatcherWithMsgBox,
}

/// One plotted point.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Concurrent clients.
    pub clients: usize,
    /// Messages/minute processed by the WS, per series.
    pub direct_blocked_per_min: f64,
    /// Middle curve.
    pub dispatcher_per_min: f64,
    /// Best curve.
    pub msgbox_per_min: f64,
    /// Responses actually retrieved from mailboxes (msgbox series).
    pub responses_fetched: u64,
}

/// Outcome of one series point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Messages processed by the WS over the window.
    pub ws_processed: u64,
    /// Messages accepted (`202`) from the clients.
    pub accepted: u64,
    /// Mailbox responses fetched by clients (msgbox series only).
    pub responses_fetched: u64,
}

/// Runs one (series, clients) point.
pub fn run_one(series: Series, clients: usize, seconds: u64) -> SeriesPoint {
    run_point(series, clients, seconds, None, None)
}

/// Where one point's host CPU went: what each host's processes spent in
/// `on_event`, by host name, and the point's whole wall time (set-up,
/// the simulator's own loop and tear-down are the rest).
#[derive(Debug, Clone)]
pub struct CpuSplit {
    /// Nanoseconds per host, in the order the hosts were added.
    pub hosts: Vec<(String, u64)>,
    /// Nanoseconds of the whole point.
    pub total_ns: u64,
}

/// Runs one (series, clients) point with the simulator timing every
/// host's processes ([`Simulation::time_hosts`]); the point's outcome is
/// [`run_one`]'s, which the timing never feeds back into.
pub fn run_cpu_split(series: Series, clients: usize, seconds: u64) -> CpuSplit {
    let wall = wsd_telemetry::WallClock::new();
    let mut hosts = Vec::new();
    run_point(series, clients, seconds, None, Some(&mut hosts));
    CpuSplit {
        hosts,
        total_ns: wall.now_ns(),
    }
}

/// Runs one (series, clients) point with telemetry, returning the point
/// plus its metric snapshot (timestamped in virtual time).
pub fn run_one_observed(
    series: Series,
    clients: usize,
    seconds: u64,
) -> (SeriesPoint, wsd_telemetry::Snapshot) {
    let obs = crate::Observed::new();
    let point = run_point(series, clients, seconds, Some(&obs), None);
    (point, obs.registry.snapshot())
}

fn run_point(
    series: Series,
    clients: usize,
    seconds: u64,
    obs: Option<&crate::Observed>,
    host_cpu: Option<&mut Vec<(String, u64)>>,
) -> SeriesPoint {
    let mut sim = Simulation::new(0x0F16_0600 + clients as u64);
    if host_cpu.is_some() {
        sim.time_hosts();
    }
    if let Some(o) = obs {
        sim.bind_telemetry(&o.registry.scope("net"), o.clock.clone());
    }
    // The WS lives on the fast INRIA machine, reachable from the
    // dispatcher (the dispatcher is the firewall's designated opening).
    let ws_host = sim.add_host(
        light_cpu(profiles::inria_fast("ws")).firewall(FirewallPolicy::Open),
    );
    // The clients live behind a NAT/firewall: outbound only.
    let client_host = sim.add_host(
        light_cpu(profiles::iu_high("clients")).firewall(FirewallPolicy::OutboundOnly),
    );

    let service = SimEchoService::new(EchoMode::OneWay { workers: 16 }, service_time(3.4));
    let svc_stats = service.stats();
    let sp = sim.spawn(ws_host, Box::new(service));
    sim.listen(sp, 8888);

    let (target, to_address) = match series {
        Series::DirectBlocked => (("ws".to_string(), 8888, "/echo".to_string()),
            "http://ws:8888/echo".to_string()),
        Series::Dispatcher | Series::DispatcherWithMsgBox => {
            let disp_host = sim.add_host(
                light_cpu(profiles::inria_fast("dispatcher")).firewall(FirewallPolicy::Open),
            );
            let registry = Arc::new(Registry::new());
            registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
            let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 11);
            let dispatcher = SimMsgDispatcher::new(
                core,
                dispatch_time(3.4),
                DispatcherConfig {
                    // A modest 2004 pool: small enough that a dozen
                    // blocked client destinations starve forwarding.
                    ws_max_threads: 8,
                    // The 2004 queue depth: most of the middle curve's
                    // losses are this queue filling.
                    queue_capacity: 256,
                    ..DispatcherConfig::default()
                },
            )
            .with_telemetry(&crate::Observed::scope_or_noop(obs, "msg_dispatcher"));
            let dp = sim.spawn(disp_host, Box::new(dispatcher));
            sim.listen(dp, 8080);
            (
                ("dispatcher".to_string(), 8080, "/msg".to_string()),
                "http://dispatcher/svc/Echo".to_string(),
            )
        }
    };

    let mbox_stats = if series == Series::DispatcherWithMsgBox {
        let mb_host = sim.add_host(
            light_cpu(profiles::inria_fast("msgbox")).firewall(FirewallPolicy::Open),
        );
        let mbox = SimMsgBox::new(
            MsgBoxConfig {
                strategy: MsgBoxStrategy::Pooled { workers: 16 },
                ..MsgBoxConfig::default()
            },
            SimDuration::from_millis(2),
            13,
        )
        .with_telemetry(&crate::Observed::scope_or_noop(obs, "msgbox"));
        let stats = mbox.stats();
        let mp = sim.spawn(mb_host, Box::new(mbox));
        sim.listen(mp, 8082);
        Some(stats)
    } else {
        None
    };

    let reply_mode = match series {
        Series::DispatcherWithMsgBox => ReplyMode::Mailbox {
            host: "msgbox".into(),
            port: 8082,
            poll_interval: SimDuration::from_secs(1),
        },
        // Callback ports are distinct per client ("{port}" expands in
        // the fleet builder), so each client is its own dead
        // destination, like N separate NATed laptops.
        _ => ReplyMode::Callback {
            url: "http://clients:{port}/cb".into(),
        },
    };

    let config = MsgClientConfig {
        target_host: target.0,
        target_port: target.1,
        path: target.2,
        to_address,
        reply_mode,
        retry_backoff: SimDuration::from_millis(100),
        run_for: SimDuration::from_secs(seconds),
        client_name: format!("{series:?}"),
    };
    let fleet = spawn_msg_fleet(
        &mut sim,
        ClientPlacement::SharedHost(client_host),
        clients,
        &config,
        SimDuration::from_secs(seconds.min(5)),
    );
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
    if let Some(out) = host_cpu {
        *out = (sim.host_cpu_ns().into_iter())
            .map(|(host, ns)| (host.to_string(), ns))
            .collect();
    }
    let (sent, _failures, responses) =
        fleet.totals_with_telemetry(&crate::Observed::scope_or_noop(obs, "loadgen"));
    let _ = mbox_stats; // deposits show up as client-fetched responses
    SeriesPoint {
        ws_processed: svc_stats.processed.get(),
        accepted: sent,
        responses_fetched: responses,
    }
}

/// Runs the full figure.
pub fn run(seconds: u64, counts: &[usize]) -> Vec<Fig6Row> {
    crate::parallel_map(counts.to_vec(), |clients| {
        let a = run_one(Series::DirectBlocked, clients, seconds);
        let b = run_one(Series::Dispatcher, clients, seconds);
        let c = run_one(Series::DispatcherWithMsgBox, clients, seconds);
        let scale = 60.0 / seconds as f64;
        Fig6Row {
            clients,
            direct_blocked_per_min: a.ws_processed as f64 * scale,
            dispatcher_per_min: b.ws_processed as f64 * scale,
            msgbox_per_min: c.ws_processed as f64 * scale,
            responses_fetched: c.responses_fetched,
        }
    })
}

/// Runs the full figure with telemetry: the rows plus one snapshot
/// merged across every point and series.
pub fn run_observed(seconds: u64, counts: &[usize]) -> (Vec<Fig6Row>, wsd_telemetry::Snapshot) {
    let results = crate::parallel_map(counts.to_vec(), |clients| {
        let (a, s1) = run_one_observed(Series::DirectBlocked, clients, seconds);
        let (b, s2) = run_one_observed(Series::Dispatcher, clients, seconds);
        let (c, s3) = run_one_observed(Series::DispatcherWithMsgBox, clients, seconds);
        let scale = 60.0 / seconds as f64;
        let row = Fig6Row {
            clients,
            direct_blocked_per_min: a.ws_processed as f64 * scale,
            dispatcher_per_min: b.ws_processed as f64 * scale,
            msgbox_per_min: c.ws_processed as f64 * scale,
            responses_fetched: c.responses_fetched,
        };
        (row, [s1, s2, s3])
    });
    let mut rows = Vec::new();
    let mut snaps = Vec::new();
    for (row, s) in results {
        rows.push(row);
        snaps.extend(s);
    }
    (rows, crate::merge_snapshots(snaps))
}

/// Prints the figure's series.
pub fn print(rows: &[Fig6Row]) {
    println!("# Figure 6 — Asynchronous communication (messages/minute processed by the WS)");
    println!(
        "{:>8} {:>22} {:>18} {:>18} {:>14}",
        "clients", "oneway_blocked/min", "dispatcher/min", "disp+msgbox/min", "mbox_fetched"
    );
    for r in rows {
        println!(
            "{:>8} {:>22.0} {:>18.0} {:>18.0} {:>14}",
            r.clients,
            r.direct_blocked_per_min,
            r.dispatcher_per_min,
            r.msgbox_per_min,
            r.responses_fetched
        );
    }
}

/// Result of the §4.3.2 thread-explosion reproduction.
#[derive(Debug, Clone)]
pub struct OomOutcome {
    /// Whether the thread-per-message design crashed.
    pub thread_per_message_oom: bool,
    /// Its peak live threads.
    pub thread_per_message_peak: usize,
    /// Whether the pooled redesign crashed.
    pub pooled_oom: bool,
    /// The pooled design's peak live threads.
    pub pooled_peak: usize,
}

/// An open-loop deposit blaster: one-way POSTs at a fixed rate without
/// waiting for acks — the paper's "if the number of messages sent is
/// high" workload.
struct DepositBlaster {
    box_id: String,
    interval: SimDuration,
    /// Extra payload padding bytes (0 keeps the tiny burst body).
    pad: usize,
    conn: Option<wsd_netsim::ConnId>,
    seq: u64,
}

impl wsd_netsim::Process for DepositBlaster {
    fn on_event(&mut self, ctx: &mut wsd_netsim::Ctx<'_>, ev: wsd_netsim::ProcEvent) {
        use wsd_netsim::ProcEvent;
        match ev {
            ProcEvent::Start => {
                self.conn = Some(ctx.connect("msgbox", 8082, SimDuration::from_secs(3)));
            }
            ProcEvent::ConnEstablished { conn }
                if self.conn == Some(conn) => {
                    ctx.set_timer(self.interval, 1);
                }
            ProcEvent::Timer { token: 1 } => {
                if let Some(conn) = self.conn {
                    self.seq += 1;
                    let body = if self.pad == 0 {
                        format!("<burst n=\"{}\"/>", self.seq)
                    } else {
                        format!("<burst n=\"{}\" pad=\"{}\"/>", self.seq, "x".repeat(self.pad))
                    };
                    let req = wsd_http::Request::soap_post(
                        "msgbox:8082",
                        &format!("/deposit/{}", self.box_id),
                        "text/xml",
                        body.into_bytes(),
                    );
                    let _ = ctx.send(
                        conn,
                        wsd_netsim::Payload::from(wsd_http::request_bytes(&req)),
                    );
                    ctx.set_timer(self.interval, 1);
                }
            }
            _ => {}
        }
    }
}

/// Reproduces the WS-MsgBox bug: a burst of `clients` open-loop deposit
/// storms ("each thread tries to send a reply message ... thousands of
/// threads"), first against the shipped thread-per-message design, then
/// against the pooled redesign.
pub fn run_oom(clients: usize, seconds: u64) -> OomOutcome {
    let run = |strategy: MsgBoxStrategy| {
        let mut sim = Simulation::new(0xB00);
        let mb_host =
            sim.add_host(light_cpu(profiles::inria_fast("msgbox")).firewall(FirewallPolicy::Open));
        let client_host = sim.add_host(light_cpu(profiles::iu_high("clients")));
        let mbox = SimMsgBox::new(
            MsgBoxConfig {
                strategy,
                thread_budget: 1000,
                ..MsgBoxConfig::default()
            },
            SimDuration::from_millis(30),
            17,
        )
        .with_thrash_factor(0.05);
        let stats = mbox.stats();
        let mp = sim.spawn(mb_host, Box::new(mbox));
        sim.listen(mp, 8082);
        for _ in 0..clients {
            sim.spawn(
                client_host,
                Box::new(DepositBlaster {
                    box_id: "mbox-any".into(),
                    interval: SimDuration::from_millis(20),
                    pad: 0,
                    conn: None,
                    seq: 0,
                }),
            );
        }
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
        (stats.oom(), stats.threads.peak() as usize)
    };
    let (tpm_oom, tpm_peak) = run(MsgBoxStrategy::ThreadPerMessage);
    let (pooled_oom, pooled_peak) = run(MsgBoxStrategy::Pooled { workers: 16 });
    OomOutcome {
        thread_per_message_oom: tpm_oom,
        thread_per_message_peak: tpm_peak,
        pooled_oom,
        pooled_peak,
    }
}

/// Prints the OOM reproduction outcome.
pub fn print_oom(o: &OomOutcome) {
    println!("# WS-MsgBox scalability bug (paper §4.3.2)");
    println!(
        "thread-per-message: oom={} peak_threads={}",
        o.thread_per_message_oom, o.thread_per_message_peak
    );
    println!(
        "pooled redesign:    oom={} peak_threads={}",
        o.pooled_oom, o.pooled_peak
    );
}

// ---------------------------------------------------------------------
// The memory wall for stored bodies, and how the durable backend breaks
// it: the paper destroys mailboxes "to free memory space in the
// WS-MsgBox service implementation" because every stored message lives
// on the JVM heap. An open-loop deposit storm that nobody drains kills
// the memory backend once resident bytes cross the heap budget; the
// WAL-backed backend spills bodies to disk and rides the same storm out.
// ---------------------------------------------------------------------

/// Client counts for the durability-wall sweep.
pub const DURABILITY_CLIENT_COUNTS: &[usize] = &[1, 2, 5, 10, 20, 50];

/// One point of the durable-vs-memory wall sweep.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    /// Concurrent deposit storms.
    pub clients: usize,
    /// Whether the memory backend died of heap exhaustion.
    pub memory_oom: bool,
    /// Deposits the memory backend accepted before dying (or the window
    /// ended).
    pub memory_deposits: u64,
    /// Whether the durable backend died (it must not).
    pub durable_oom: bool,
    /// Deposits the durable backend accepted — each one fsynced, so the
    /// virtual disk makes durability cost simulated time.
    pub durable_deposits: u64,
    /// Bytes the durable backend spilled to disk past its memory budget.
    pub durable_spilled_bytes: u64,
}

/// Outcome of the sweep, with the walls extracted.
#[derive(Debug, Clone)]
pub struct DurabilityOutcome {
    /// Per-client-count results.
    pub rows: Vec<DurabilityRow>,
    /// Smallest client count that killed the memory backend (`None` if
    /// it never died).
    pub memory_wall_clients: Option<usize>,
    /// Same for the durable backend.
    pub durable_wall_clients: Option<usize>,
}

/// Per-client deposit bytes/second of the storm (50 deposits/s of
/// ~260-byte bodies). Used to size the heap budget so the memory wall
/// sits at 2 clients regardless of the run window.
const STORM_BYTES_PER_CLIENT_SEC: u64 = 13_000;

fn run_wall_point(durable: bool, clients: usize, seconds: u64) -> (bool, u64, u64) {
    let reg = wsd_telemetry::Registry::new();
    let mut sim = Simulation::new(0xD00B + clients as u64);
    let mb_host =
        sim.add_host(light_cpu(profiles::inria_fast("msgbox")).firewall(FirewallPolicy::Open));
    let client_host = sim.add_host(light_cpu(profiles::iu_high("clients")));
    let backend = if durable {
        wsd_core::config::MailboxBackend::Durable {
            dir: None,
            store: wsd_store::StoreConfig {
                wal: wsd_store::WalConfig {
                    // Small segments so rotation/checkpointing runs too.
                    segment_bytes: 256 * 1024,
                    sync: wsd_store::SyncMode::Always,
                },
                memory_budget_bytes: 16 * 1024,
                quota_bytes_per_tenant: u64::MAX,
            },
        }
    } else {
        wsd_core::config::MailboxBackend::Memory
    };
    // 1.5× one client's whole-window output: one storm fits, two don't.
    let heap_budget = (STORM_BYTES_PER_CLIENT_SEC * seconds * 3 / 2) as usize;
    let mbox = SimMsgBox::new(
        MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 16 },
            heap_budget_bytes: heap_budget,
            backend,
            ..MsgBoxConfig::default()
        },
        SimDuration::from_millis(2),
        13,
    )
    .with_telemetry(&reg.scope("msgbox"));
    // The storm needs a real mailbox: deposits to unknown boxes are 404s
    // and store nothing.
    let (box_id, _key) = mbox.store().create(0);
    let stats = mbox.stats();
    let mp = sim.spawn(mb_host, Box::new(mbox));
    sim.listen(mp, 8082);
    for _ in 0..clients {
        sim.spawn(
            client_host,
            Box::new(DepositBlaster {
                box_id: box_id.clone(),
                interval: SimDuration::from_millis(20),
                pad: 240,
                conn: None,
                seq: 0,
            }),
        );
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(seconds));
    let spilled = reg.snapshot().gauge_peak("msgbox.store.spilled_bytes").max(0) as u64;
    (stats.oom(), stats.mailbox.deposits.get(), spilled)
}

/// Runs the durability-wall sweep.
pub fn run_durability_wall(seconds: u64, counts: &[usize]) -> DurabilityOutcome {
    let rows = crate::parallel_map(counts.to_vec(), |clients| {
        let (memory_oom, memory_deposits, _) = run_wall_point(false, clients, seconds);
        let (durable_oom, durable_deposits, durable_spilled_bytes) =
            run_wall_point(true, clients, seconds);
        DurabilityRow {
            clients,
            memory_oom,
            memory_deposits,
            durable_oom,
            durable_deposits,
            durable_spilled_bytes,
        }
    });
    let memory_wall_clients = rows.iter().find(|r| r.memory_oom).map(|r| r.clients);
    let durable_wall_clients = rows.iter().find(|r| r.durable_oom).map(|r| r.clients);
    DurabilityOutcome {
        rows,
        memory_wall_clients,
        durable_wall_clients,
    }
}

/// Prints the durability-wall sweep.
pub fn print_durability(o: &DurabilityOutcome) {
    println!("# WS-MsgBox memory wall vs wsd-store durable backend");
    println!(
        "{:>8} {:>12} {:>14} {:>13} {:>15} {:>15}",
        "clients", "memory_oom", "memory_deposits", "durable_oom", "durable_deposits", "spilled_bytes"
    );
    for r in &o.rows {
        println!(
            "{:>8} {:>12} {:>14} {:>13} {:>15} {:>15}",
            r.clients,
            r.memory_oom,
            r.memory_deposits,
            r.durable_oom,
            r.durable_deposits,
            r.durable_spilled_bytes
        );
    }
    match (o.memory_wall_clients, o.durable_wall_clients) {
        (Some(m), None) => println!(
            "memory wall at {m} clients; durable backend survived every count \
             (wall moved >= {}x)",
            o.rows.last().map(|r| r.clients / m).unwrap_or(0)
        ),
        (Some(m), Some(d)) => println!("memory wall at {m} clients; durable wall at {d}"),
        (None, _) => println!("memory backend never hit the wall (window too short?)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SECS: u64 = 15;

    #[test]
    fn blocked_direct_is_slowest() {
        let a = run_one(Series::DirectBlocked, 20, SECS);
        let c = run_one(Series::DispatcherWithMsgBox, 20, SECS);
        assert!(
            a.ws_processed * 3 < c.ws_processed,
            "direct-blocked {} vs msgbox {}",
            a.ws_processed,
            c.ws_processed
        );
    }

    #[test]
    fn msgbox_wins_above_ten_clients() {
        let b = run_one(Series::Dispatcher, 30, SECS);
        let c = run_one(Series::DispatcherWithMsgBox, 30, SECS);
        assert!(
            c.ws_processed > b.ws_processed,
            "dispatcher {} vs msgbox {}",
            b.ws_processed,
            c.ws_processed
        );
    }

    #[test]
    fn dispatcher_beats_direct_blocked() {
        let a = run_one(Series::DirectBlocked, 30, SECS);
        let b = run_one(Series::Dispatcher, 30, SECS);
        assert!(
            b.ws_processed > a.ws_processed,
            "direct {} vs dispatcher {}",
            a.ws_processed,
            b.ws_processed
        );
    }

    #[test]
    fn mailbox_delivers_responses_to_clients() {
        let c = run_one(Series::DispatcherWithMsgBox, 10, SECS);
        assert!(c.responses_fetched > 0, "{c:?}");
        // Conservation: fetched ≤ processed by the WS.
        assert!(c.responses_fetched <= c.ws_processed);
    }

    #[test]
    fn durable_backend_moves_the_memory_wall_10x() {
        let o = run_durability_wall(5, DURABILITY_CLIENT_COUNTS);
        let wall = o.memory_wall_clients.expect("memory backend must hit the wall");
        assert!(wall <= 5, "memory wall unexpectedly high: {o:?}");
        assert_eq!(o.durable_wall_clients, None, "durable backend died: {o:?}");
        let top = o.rows.last().unwrap();
        assert!(
            top.clients >= wall * 10,
            "sweep does not reach 10x the wall: {o:?}"
        );
        assert!(top.durable_deposits > 0);
        assert!(
            top.durable_spilled_bytes > 0,
            "storm must overflow the durable memory budget: {o:?}"
        );
    }

    #[test]
    fn oom_bug_reproduces_and_pool_fixes_it() {
        let o = run_oom(60, 20);
        assert!(o.thread_per_message_oom, "{o:?}");
        assert!(o.thread_per_message_peak > 1000usize.min(o.thread_per_message_peak + 1) - 1);
        assert!(!o.pooled_oom, "{o:?}");
        assert!(o.pooled_peak <= 16);
    }
}
