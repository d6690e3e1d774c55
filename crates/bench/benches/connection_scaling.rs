//! Connection scaling: thread-per-connection vs the reactor front end.
//!
//! The paper's threaded runtime pins one CxThread per open socket, so
//! thread count — and with it stack memory and scheduler load — grows
//! linearly with *open* connections even when almost all of them are
//! idle. The reactor front end parks idle connections at no thread cost
//! and runs each one that has bytes to read to completion on a fixed
//! pool, so thread count tracks *in-flight requests* instead.
//!
//! Criterion measures one echo round-trip while N-1 connections sit
//! idle (N = 64, 512) for both front ends. Set
//! `BENCH_CONNSCALE_JSON=<path>` to emit a machine-readable sweep over
//! 64/512/4096 mostly-idle connections recording peak thread count and
//! p50/p99 request latency per front end; `CONNSCALE_SMOKE=1` runs the
//! 64-connection sweep only and asserts the reactor's peak handler
//! thread count never exceeds the pool size (used by
//! `scripts/verify.sh connscale-smoke`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use wsd_concurrent::{PoolConfig, RejectionPolicy, ThreadPool};
use wsd_core::rt::{ReactorFrontEnd, RequestHandler};
use wsd_http::{
    duplex, serve_connection, HttpClient, Limits, PipeStream, Request, Response, Status,
};

/// Handler threads backing the reactor — the whole point is that this
/// stays fixed while connection counts grow by orders of magnitude.
const POOL_SIZE: usize = 8;
/// Stack size for baseline per-connection threads, matching the paper's
/// small-stack CxThread configuration (and keeping 4096 spawns cheap).
const CONN_STACK: usize = 64 * 1024;
/// Per-direction pipe buffering for benchmark connections.
const PIPE_CAP: usize = 16 * 1024;

fn echo_handler() -> RequestHandler {
    Arc::new(|req: Request| Response::new(Status::OK, "text/xml", req.body))
}

fn echo_request(i: usize) -> Request {
    Request::soap_post("ws:8888", "/echo", "text/xml", format!("<m>{i}</m>").into_bytes())
}

/// The paper's shape: one blocking serve thread per accepted connection.
struct ThreadPerConnRig {
    clients: Vec<HttpClient<PipeStream>>,
    live: Arc<AtomicUsize>,
    peak: Arc<AtomicUsize>,
}

impl ThreadPerConnRig {
    fn open(n: usize) -> Self {
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut clients = Vec::with_capacity(n);
        for i in 0..n {
            let (client, server) = duplex(PIPE_CAP);
            let live2 = Arc::clone(&live);
            let peak2 = Arc::clone(&peak);
            std::thread::Builder::new()
                .name(format!("conn-{i}"))
                .stack_size(CONN_STACK)
                .spawn(move || {
                    let now = live2.fetch_add(1, Ordering::SeqCst) + 1;
                    peak2.fetch_max(now, Ordering::SeqCst);
                    let _ = serve_connection(server, &Limits::default(), |req| {
                        Response::new(Status::OK, "text/xml", req.body)
                    });
                    live2.fetch_sub(1, Ordering::SeqCst);
                })
                .expect("spawn conn thread");
            clients.push(HttpClient::new(client));
        }
        ThreadPerConnRig { clients, live, peak }
    }

    fn peak_threads(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }

    fn close(self) {
        drop(self.clients);
        // Serve threads exit on EOF; wait so rigs don't stack up.
        for _ in 0..5000 {
            if self.live.load(Ordering::SeqCst) == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("thread-per-conn rig failed to drain");
    }
}

/// The reactor shape: a fixed handler pool and no other thread.
struct ReactorRig {
    clients: Vec<HttpClient<PipeStream>>,
    fe: ReactorFrontEnd,
    reg: wsd_telemetry::Registry,
}

impl ReactorRig {
    fn open(n: usize) -> Self {
        let reg = wsd_telemetry::Registry::new();
        let scope = reg.scope("cs");
        let pool = Arc::new(
            ThreadPool::new(
                PoolConfig::fixed("handler", POOL_SIZE)
                    .rejection(RejectionPolicy::Block)
                    .telemetry(scope.child("pool")),
            )
            .expect("pool"),
        );
        let fe = ReactorFrontEnd::start("connscale", pool, &scope.child("reactor"));
        let mut clients = Vec::with_capacity(n);
        for _ in 0..n {
            let (client, server) = duplex(PIPE_CAP);
            fe.serve(server, Limits::default(), echo_handler());
            clients.push(HttpClient::new(client));
        }
        ReactorRig { clients, fe, reg }
    }

    /// Peak pool workers — the reactor has no thread of its own.
    fn peak_threads(&self) -> usize {
        self.reg.snapshot().gauge_peak("cs.pool.workers") as usize
    }

    fn close(self) {
        drop(self.clients);
        self.fe.shutdown();
    }
}

/// One request per round, rotated across the connections: every
/// connection is mostly idle, exactly the paper's many-clients /
/// low-rate workload.
fn measure_latencies(clients: &mut [HttpClient<PipeStream>], rounds: usize) -> Vec<f64> {
    let n = clients.len();
    let mut lat_us = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let c = &mut clients[r % n];
        let req = echo_request(r);
        let t0 = Instant::now();
        let resp = c.call(&req).expect("echo call");
        lat_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        assert_eq!(resp.status, Status::OK);
    }
    lat_us
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("connscale");
    for n in [64usize, 512] {
        let mut rig = ThreadPerConnRig::open(n);
        let mut i = 0usize;
        g.bench_function(format!("thread_per_conn/{n}"), |b| {
            b.iter(|| {
                i += 1;
                let req = echo_request(i);
                rig.clients[i % n].call(&req).unwrap()
            })
        });
        rig.close();

        let mut rig = ReactorRig::open(n);
        let mut i = 0usize;
        g.bench_function(format!("reactor/{n}"), |b| {
            b.iter(|| {
                i += 1;
                let req = echo_request(i);
                rig.clients[i % n].call(&req).unwrap()
            })
        });
        rig.close();
    }
    g.finish();
}

criterion_group!(benches, bench);

struct Sweep {
    conns: usize,
    baseline_peak: usize,
    baseline_p50: f64,
    baseline_p99: f64,
    reactor_peak: usize,
    reactor_p50: f64,
    reactor_p99: f64,
}

fn run_sweep(conns: &[usize], rounds: usize) -> Vec<Sweep> {
    conns
        .iter()
        .map(|&n| {
            let mut rig = ThreadPerConnRig::open(n);
            let mut lat = measure_latencies(&mut rig.clients, rounds);
            lat.sort_by(|a, b| a.total_cmp(b));
            let baseline_peak = rig.peak_threads();
            let (baseline_p50, baseline_p99) =
                (percentile(&lat, 0.50), percentile(&lat, 0.99));
            rig.close();

            let mut rig = ReactorRig::open(n);
            let mut lat = measure_latencies(&mut rig.clients, rounds);
            lat.sort_by(|a, b| a.total_cmp(b));
            let reactor_peak = rig.peak_threads();
            let (reactor_p50, reactor_p99) = (percentile(&lat, 0.50), percentile(&lat, 0.99));
            rig.close();

            eprintln!(
                "connscale n={n}: baseline peak={baseline_peak} p99={baseline_p99:.1}us | \
                 reactor peak={reactor_peak} p99={reactor_p99:.1}us"
            );
            Sweep {
                conns: n,
                baseline_peak,
                baseline_p50,
                baseline_p99,
                reactor_peak,
                reactor_p50,
                reactor_p99,
            }
        })
        .collect()
}

fn emit_json(path: &str, sweeps: &[Sweep], rounds: usize) {
    let rows: Vec<String> = sweeps
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"connections\": {conns},\n",
                    "      \"thread_per_conn\": {{ \"peak_threads\": {bp}, ",
                    "\"p50_us\": {bp50:.1}, \"p99_us\": {bp99:.1} }},\n",
                    "      \"reactor\": {{ \"peak_threads\": {rp}, ",
                    "\"p50_us\": {rp50:.1}, \"p99_us\": {rp99:.1} }}\n",
                    "    }}"
                ),
                conns = s.conns,
                bp = s.baseline_peak,
                bp50 = s.baseline_p50,
                bp99 = s.baseline_p99,
                rp = s.reactor_peak,
                rp50 = s.reactor_p50,
                rp99 = s.reactor_p99,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"connection_scaling\",\n",
            "  \"requests_per_sweep\": {rounds},\n",
            "  \"reactor_pool_size\": {pool},\n",
            "  \"sweeps\": [\n{rows}\n  ]\n",
            "}}\n"
        ),
        rounds = rounds,
        pool = POOL_SIZE,
        rows = rows.join(",\n"),
    );
    std::fs::write(path, &json).expect("write BENCH_connscale.json");
    println!("wrote {path}");
}

fn main() {
    let smoke = std::env::var("CONNSCALE_SMOKE").is_ok_and(|v| v == "1");
    if !smoke {
        benches();
    }
    let json_path = std::env::var("BENCH_CONNSCALE_JSON").ok();
    if smoke || json_path.is_some() {
        let conns: &[usize] = if smoke { &[64] } else { &[64, 512, 4096] };
        let rounds = if smoke { 128 } else { 512 };
        let sweeps = run_sweep(conns, rounds);
        if let Some(path) = &json_path {
            emit_json(path, &sweeps, rounds);
        }
        if smoke {
            for s in &sweeps {
                assert!(
                    s.reactor_peak <= POOL_SIZE,
                    "reactor used {} threads at {} conns (pool size {POOL_SIZE})",
                    s.reactor_peak,
                    s.conns,
                );
                assert!(
                    s.baseline_peak >= s.conns,
                    "thread-per-conn baseline should pin one thread per connection"
                );
            }
            println!("connscale-smoke PASS: reactor peak <= pool size");
        }
    }
}
