//! CLI regenerating the paper's tables and figures.
//!
//! ```text
//! experiments [--table1] [--fig4] [--fig5] [--fig6] [--fig6-oom]
//!             [--fig6-durable] [--connwall] [--fleet] [--calibration]
//!             [--all] [--seconds N] [--quick] [--json PATH]
//! ```
//!
//! `--connwall` reruns the §4.3.2 connection wall on the threaded
//! runtime (real OS threads); `--fig6-durable` sweeps the stored-body
//! memory wall against the WAL-backed durable mailbox backend;
//! `--fleet` sweeps the sharded dispatcher fleet (1→8 instances at
//! fixed load) and runs the kill-one failover scenario. None of the
//! three is part of `--all`, which covers the paper's own figures
//! only.
//!
//! `--quick` shortens the virtual run window and thins the sweeps (for
//! smoke runs); the default regenerates the paper's one-minute windows.
//! `--json PATH` writes every selected figure's series plus its merged
//! telemetry snapshot as one JSON document (Table 1's rows carry no
//! snapshot; `--fig6-oom` and `--calibration` write nothing). The figure
//! runners observe through `wsd-telemetry` scopes, which never feed back
//! into the simulation: the series are identical with or without
//! observation.

use wsd_experiments::{calibration, connwall, fig4, fig5, fig6, fleet, table1};
use wsd_loadgen::{LatencySummary, RunTotals};
use wsd_telemetry::Snapshot;

struct Options {
    table1: bool,
    fig4: bool,
    fig5: bool,
    fig6: bool,
    fig6_oom: bool,
    fig6_durable: bool,
    connwall: bool,
    fleet: bool,
    calibration: bool,
    seconds: u64,
    quick: bool,
    json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        table1: false,
        fig4: false,
        fig5: false,
        fig6: false,
        fig6_oom: false,
        fig6_durable: false,
        connwall: false,
        fleet: false,
        calibration: false,
        seconds: 60,
        quick: false,
        json: None,
    };
    let mut any = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--table1" => {
                opts.table1 = true;
                any = true;
            }
            "--fig4" => {
                opts.fig4 = true;
                any = true;
            }
            "--fig5" => {
                opts.fig5 = true;
                any = true;
            }
            "--fig6" => {
                opts.fig6 = true;
                any = true;
            }
            "--fig6-oom" => {
                opts.fig6_oom = true;
                any = true;
            }
            "--fig6-durable" => {
                opts.fig6_durable = true;
                any = true;
            }
            "--connwall" => {
                opts.connwall = true;
                any = true;
            }
            "--fleet" => {
                opts.fleet = true;
                any = true;
            }
            "--calibration" => {
                opts.calibration = true;
                any = true;
            }
            "--all" => {
                opts.table1 = true;
                opts.fig4 = true;
                opts.fig5 = true;
                opts.fig6 = true;
                opts.fig6_oom = true;
                opts.calibration = true;
                any = true;
            }
            "--quick" => opts.quick = true,
            "--seconds" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--seconds needs a value".to_string())?;
                // Zero seconds leaves every rate a 0/0: `NaN` in the JSON.
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("bad --seconds value {v:?}"))?;
            }
            "--json" => {
                let v = args
                    .next()
                    .ok_or_else(|| "--json needs a path".to_string())?;
                opts.json = Some(v);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !any {
        return Err("nothing selected".into());
    }
    if opts.quick {
        opts.seconds = opts.seconds.min(10);
    }
    Ok(opts)
}

/// One line of operational context after each figure: losses, the
/// deepest any queue got, and how well connections were amortized.
fn print_telemetry_summary(fig: &str, snap: &Snapshot) {
    let drops = snap.counter_sum("dropped")
        + snap.counter("loadgen.not_sent")
        + snap.counter("loadgen.send_failures");
    let queue_hwm = snap
        .gauge_peak_max("queue_depth")
        .max(snap.gauge_peak_max("backlog_depth"))
        .max(snap.gauge_peak_max("depth"));
    let attempts = snap.counter("net.connect_attempts");
    let established = snap.counter("net.conns_established");
    let delivered = snap.counter("net.messages_delivered");
    let reuse = if established > 0 {
        delivered as f64 / established as f64
    } else {
        0.0
    };
    println!(
        "telemetry[{fig}]: drops={drops} queue_hwm={queue_hwm} \
         conns={established}/{attempts} msgs_per_conn={reuse:.1}"
    );
}

fn json_latency(l: &Option<LatencySummary>) -> String {
    match l {
        None => "null".to_string(),
        Some(l) => format!(
            "{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p95_us\":{},\"max_us\":{}}}",
            l.count, l.mean_us, l.p50_us, l.p95_us, l.max_us
        ),
    }
}

fn json_totals(t: &RunTotals) -> String {
    format!(
        "{{\"transmitted\":{},\"not_sent\":{},\"latency\":{}}}",
        t.transmitted,
        t.not_sent,
        json_latency(&t.latency)
    )
}

fn json_table1(rows: &[table1::Table1Row]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"quadrant\":\"{:?}\",\"exchanges_per_min\":{},\"failures\":{}}}",
                r.quadrant, r.exchanges_per_min, r.failures
            )
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

fn json_fig4(rows: &[fig4::Fig4Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct\":{},\"dispatched\":{}}}",
                r.clients,
                json_totals(&r.direct),
                json_totals(&r.dispatched)
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

fn json_fig5(rows: &[fig5::Fig5Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct_per_min\":{},\"dispatched_per_min\":{},\
                 \"direct_not_sent\":{},\"dispatched_not_sent\":{}}}",
                r.clients,
                r.direct_per_min,
                r.dispatched_per_min,
                r.direct_not_sent,
                r.dispatched_not_sent
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

fn json_fig6(rows: &[fig6::Fig6Row], snap: &Snapshot) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"direct_blocked_per_min\":{},\"dispatcher_per_min\":{},\
                 \"msgbox_per_min\":{},\"responses_fetched\":{}}}",
                r.clients,
                r.direct_blocked_per_min,
                r.dispatcher_per_min,
                r.msgbox_per_min,
                r.responses_fetched
            )
        })
        .collect();
    format!(
        "{{\"rows\":[{}],\"telemetry\":{}}}",
        rows.join(","),
        snap.to_json()
    )
}

fn json_fig6_durable(o: &fig6::DurabilityOutcome) -> String {
    let rows: Vec<String> = o
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"clients\":{},\"memory_oom\":{},\"memory_deposits\":{},\
                 \"durable_oom\":{},\"durable_deposits\":{},\"durable_spilled_bytes\":{}}}",
                r.clients,
                r.memory_oom,
                r.memory_deposits,
                r.durable_oom,
                r.durable_deposits,
                r.durable_spilled_bytes
            )
        })
        .collect();
    let wall = |w: Option<usize>| w.map(|c| c.to_string()).unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"rows\":[{}],\"memory_wall_clients\":{},\"durable_wall_clients\":{}}}",
        rows.join(","),
        wall(o.memory_wall_clients),
        wall(o.durable_wall_clients)
    )
}

fn json_connwall(o: &connwall::ConnWallOutcome) -> String {
    let point = |p: &connwall::ConnWallPoint| {
        format!(
            "{{\"clients\":{},\"crashed\":{},\"peak_threads\":{},\"deposits\":{},\"open_conns\":{}}}",
            p.clients,
            p.crashed,
            p.peak_threads,
            p.deposits,
            p.open_conns
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".to_string()),
        )
    };
    let tpm: Vec<String> = o.thread_per_message.iter().map(point).collect();
    let reactor: Vec<String> = o.reactor.iter().map(point).collect();
    format!(
        "{{\"thread_budget\":{},\"pool_workers\":{},\"thread_per_message\":[{}],\"reactor\":[{}]}}",
        connwall::THREAD_BUDGET,
        connwall::POOL_WORKERS,
        tpm.join(","),
        reactor.join(",")
    )
}

fn json_fleet(rows: &[fleet::FleetOutcome], seconds: u64, f: &fleet::FleetOutcome) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let per_sec = r.delivered as f64 / seconds as f64;
            format!(
                "{{\"instances\":{},\"generated\":{},\"acked\":{},\"shed\":{},\
                 \"delivered\":{},\"delivered_per_sec\":{per_sec:.1}}}",
                r.instances, r.generated, r.acked, r.shed, r.delivered
            )
        })
        .collect();
    format!(
        "{{\"scaling\":[{}],\"failover\":{{\"instances\":{},\"killed\":{},\"acked\":{},\
         \"delivered\":{},\"acked_lost\":{},\"duplicates\":{},\"recovered\":{},\
         \"resent\":{},\"rebalance_latency_us\":{}}}}}",
        rows.join(","),
        f.instances,
        fleet::FAILOVER_VICTIM,
        f.acked,
        f.delivered,
        f.acked_lost,
        f.duplicates,
        f.recovered,
        f.resent,
        f.rebalance_latency_us
    )
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: experiments [--table1] [--fig4] [--fig5] [--fig6] [--fig6-oom] \
                 [--fig6-durable] [--connwall] [--fleet] [--calibration] [--all] \
                 [--seconds N] [--quick] [--json PATH]"
            );
            std::process::exit(2);
        }
    };
    let mut json_figures: Vec<(&str, String)> = Vec::new();
    if opts.calibration {
        calibration::print(&calibration::run());
        println!();
    }
    if opts.table1 {
        let rows = table1::run(opts.seconds.min(30));
        table1::print(&rows);
        json_figures.push(("table1", json_table1(&rows)));
        println!();
    }
    if opts.fig4 {
        let counts: &[usize] = if opts.quick {
            &[10, 100, 500, 2000]
        } else {
            fig4::CLIENT_COUNTS
        };
        let (rows, snap) = fig4::run_observed(opts.seconds, counts);
        fig4::print(&rows);
        print_telemetry_summary("fig4", &snap);
        json_figures.push(("fig4", json_fig4(&rows, &snap)));
        println!();
    }
    if opts.fig5 {
        let counts: &[usize] = if opts.quick {
            &[1, 100, 200, 300]
        } else {
            fig5::CLIENT_COUNTS
        };
        let (rows, snap) = fig5::run_observed(opts.seconds, counts);
        fig5::print(&rows);
        print_telemetry_summary("fig5", &snap);
        json_figures.push(("fig5", json_fig5(&rows, &snap)));
        println!();
    }
    if opts.fig6 {
        let counts: &[usize] = if opts.quick {
            &[1, 10, 30, 50]
        } else {
            fig6::CLIENT_COUNTS
        };
        let (rows, snap) = fig6::run_observed(opts.seconds, counts);
        fig6::print(&rows);
        print_telemetry_summary("fig6", &snap);
        json_figures.push(("fig6", json_fig6(&rows, &snap)));
        println!();
    }
    if opts.fig6_oom {
        fig6::print_oom(&fig6::run_oom(60, opts.seconds.min(30)));
        println!();
    }
    if opts.fig6_durable {
        let outcome = fig6::run_durability_wall(
            opts.seconds.min(30),
            fig6::DURABILITY_CLIENT_COUNTS,
        );
        fig6::print_durability(&outcome);
        json_figures.push(("fig6_durable", json_fig6_durable(&outcome)));
        println!();
    }
    if opts.connwall {
        let (tpm, reactor): (&[usize], &[usize]) = if opts.quick {
            (&[25, 60], &[200])
        } else {
            (connwall::TPM_COUNTS, connwall::REACTOR_COUNTS)
        };
        let outcome = connwall::run(tpm, reactor);
        connwall::print(&outcome);
        json_figures.push(("connwall", json_connwall(&outcome)));
        println!();
    }
    if opts.fleet {
        let counts: &[usize] = if opts.quick {
            &[1, 2, 4]
        } else {
            fleet::INSTANCE_COUNTS
        };
        let seconds = opts.seconds.min(30);
        let rows = fleet::run_scaling(seconds, counts, fleet::SCALING_CLIENTS);
        fleet::print(&rows, seconds);
        let failover = fleet::run_failover(opts.seconds.clamp(4, 30));
        fleet::print_failover(&failover);
        json_figures.push(("fleet", json_fleet(&rows, seconds, &failover)));
        println!();
    }
    if let Some(path) = &opts.json {
        let figs: Vec<String> = json_figures
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        let doc = format!(
            "{{\"seconds\":{},\"figures\":{{{}}}}}\n",
            opts.seconds,
            figs.join(",")
        );
        // wsd-lint: allow(raw-file-io): figure JSON is a report artifact, not durable state
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
