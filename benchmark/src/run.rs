//! Runs one workload and turns what it measured into the report: the
//! timed run (tracing and telemetry off, end-to-end metrics) or the
//! traced run (per-layer metrics).

use std::time::{Duration, Instant};

use wsd_telemetry::{MetricValue, Registry, Scope, Snapshot};

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::harness::{measure, Measured, Rig};
use crate::spans;
use crate::stats::Quietest::{Highest, Lowest};
use crate::stats::{median, percentile, quietest, samples_beyond, sorted, tail_percentile, Slice};
use crate::{handoff, procfs, replay, topology, workloads};

/// Set-ups per timed run before the window (the last one continues into
/// it) and after it, so that a slow spell of the host shorter than the
/// window cannot cover them all; `setup_s` is the second fastest.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Length of `rpc_echo`'s direct phase (clients aimed past the
/// dispatcher) in a traced run.
const DIRECT_WINDOW: Duration = Duration::from_secs(3);

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Generator and deployment seed.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

/// The result of one run, as printed.
#[derive(Debug)]
pub struct Outcome {
    /// Every output was correct.
    pub correct: bool,
    /// Operations (messages) attempted in the timed window.
    pub attempted: u64,
    /// Of those, refused, timed out, wrong, duplicated or missing.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The one-line JSON result; `workload` adds a leading key when
    /// several workloads print in one invocation.
    pub fn to_json(&self, workload: Option<&str>) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{{}\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            workload.map_or(String::new(), |w| format!("\"workload\": \"{w}\", ")),
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", "),
        )
    }
}

fn setup(workload: &str, seed: u64, scope: &Scope) -> Rig {
    workloads::setup(workload, seed, scope).expect("workload name was validated")
}

/// Warms `rig` up; returns when the first timed operation may start.
fn warm_up(rig: &mut Rig) -> Instant {
    rig.measure(true, Duration::ZERO, false).opened
}

fn teardown(rig: Rig) {
    drop(rig.clients);
    drop(rig.direct);
    rig.topo.shutdown();
}

fn p50(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Runs `workload` once. Progress and notes go to stderr.
pub fn run(workload: &str, opts: &Opts) -> Outcome {
    let window = Duration::from_secs_f64(opts.seconds);
    eprintln!(
        "{workload}: seed {}, window {:.1} s, {} client thread(s), {} core(s), closed loop over the \
         in-process PipeStream network (no loopback, no real link)",
        opts.seed,
        opts.seconds,
        if workload == "rpc_echo" { workloads::client_threads() } else { 1 },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match workload {
        "sim_fig6" => eprintln!("{workload}: runs on Figure 6's own fixed seed; --seed is ignored"),
        "backlog_durable" => eprintln!(
            "{workload}: WAL on real files under {} (inside the checkout, not /dev/shm)",
            topology::out_dir().display()
        ),
        _ => {}
    }
    let (measured, values) = if opts.trace {
        traced(workload, opts, window)
    } else {
        timed(workload, opts, window)
    };
    for note in &measured.all.notes {
        eprintln!("{note}");
    }
    let catalog = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut correct = measured.all.violations == 0 && measured.completed > 0;
    let metrics = catalog
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map_or(0.0, |(_, v)| *v);
            if !value.is_finite() {
                eprintln!("{workload}: {} is not a number", m.name);
                correct = false;
            }
            (m.name, if value.is_finite() { value } else { 0.0 }, m.unit)
        })
        .collect();
    Outcome {
        correct,
        attempted: measured.all.attempted.max(1),
        failed: measured.all.failed,
        metrics,
    }
}

type Values = Vec<(&'static str, f64)>;

/// The timed run: set up [`SETUPS_BEFORE`] times, measure on the last of
/// them, set up [`SETUPS_AFTER`] times more.
fn timed(workload: &str, opts: &Opts, window: Duration) -> (Measured, Values) {
    let mut setups = Vec::with_capacity(SETUPS_BEFORE + SETUPS_AFTER);
    let mut measured = None;
    for k in 1..=SETUPS_BEFORE + SETUPS_AFTER {
        let began = Instant::now();
        let mut rig = setup(workload, opts.seed, &Scope::noop());
        setups.push((warm_up(&mut rig) - began).as_secs_f64());
        if k == SETUPS_BEFORE {
            measured = Some(rig.measure(false, window, false));
        }
        teardown(rig);
    }
    let m = measured.expect("SETUPS_BEFORE is at least 1");

    let slices = &m.all.slices;
    let rates: Vec<f64> = slices.iter().map(Slice::rate).collect();
    let pooled = m.latencies_us();
    eprintln!(
        "{workload}: {} latency samples (pooled p50 {:.1} us, p90 {:.1} us) in {} slices, msgs/s \
         per slice min {:.1} median {:.1} max {:.1}, set-ups {setups:.3?} s",
        pooled.len(),
        percentile(&pooled, 50.0),
        percentile(&pooled, 90.0),
        slices.len(),
        rates.iter().copied().fold(f64::INFINITY, f64::min),
        median(&rates),
        rates.iter().copied().fold(0.0, f64::max),
    );
    let msgs_per_s = quietest(slices, Highest, |s| Some(s.rate()));
    // Without separate phases (rpc_echo) both phase rates repeat the
    // overall rate: the driver wants every metric on every workload.
    let or_rate = |phase: f64| if phase > 0.0 { phase } else { msgs_per_s };
    let values = vec![
        ("msgs_per_s", msgs_per_s),
        (
            "p50_us",
            quietest(slices, Lowest, |s| Some(s.latency_percentile(50.0))),
        ),
        (
            "deposit_msgs_per_s",
            or_rate(quietest(slices, Highest, Slice::deposit_rate)),
        ),
        (
            "pickup_msgs_per_s",
            or_rate(quietest(slices, Highest, Slice::pickup_rate)),
        ),
        ("setup_s", sorted(setups)[1]),
    ];
    (m, values)
}

/// The traced run: half the window untraced for the baseline, half on a
/// live telemetry registry with spans, then layer replay and hand-offs.
fn traced(workload: &str, opts: &Opts, window: Duration) -> (Measured, Values) {
    let half = window / 2;
    let mut values = Values::new();

    let mut rig = setup(workload, opts.seed, &Scope::noop());
    let direct_p50 = (!rig.direct.is_empty()).then(|| {
        let m = measure(&mut rig.direct, rig.warmup_ops, DIRECT_WINDOW, false);
        percentile(&m.latencies_us(), 50.0)
    });
    warm_up(&mut rig);
    let plain = rig.measure(false, half, false);
    teardown(rig);

    let registry = Registry::new();
    let mut rig = setup(workload, opts.seed, &registry.scope("rt"));
    warm_up(&mut rig);
    let before = registry.snapshot();
    let mut m = rig.measure(false, half, true);
    let after = registry.snapshot();
    let msgbox_threads = rig.topo.msgbox.as_ref().map_or(0, |b| b.peak_threads());
    teardown(rig);

    // Counts from the telemetry snapshot and the harness, per message.
    let per_msg = |n: f64| n / m.completed.max(1) as f64;
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let delta_sum = |suffix: &str| (after.counter_sum(suffix) - before.counter_sum(suffix)) as f64;
    let share = |part: f64, rest: f64| {
        if part + rest > 0.0 {
            part / (part + rest)
        } else {
            0.0
        }
    };
    let front = if workload == "rpc_echo" {
        "rt.rpc"
    } else {
        "rt.msg"
    };
    values.extend([
        ("client.send_us", p50(&m.all.send_us)),
        ("client.settle_us", p50(&m.all.settle_us)),
        ("client.poll_us", p50(&m.all.poll_us)),
        ("client.polls_per_msg", per_msg(m.all.polls as f64)),
        (
            "core.fastpath_share",
            share(
                delta("rt.msg.core.fastpath_hits"),
                delta("rt.msg.core.fastpath_fallbacks"),
            ),
        ),
        ("rt.msg.connects_per_msg", per_msg(delta("rt.msg.connects"))),
        (
            "rt.msg.reuse_share",
            share(delta("rt.msg.reused_sends"), delta("rt.msg.connects")),
        ),
        ("rt.msg.dropped", delta("rt.msg.dropped")),
        ("rt.msg.rejected", delta("rt.msg.rejected")),
        (
            "concurrent.dest_queue_peak_depth",
            after.gauge_peak_max("depth") as f64,
        ),
        (
            "concurrent.cx_pool_peak_workers",
            after
                .gauge_peak("rt.msg.cx_pool.workers")
                .max(after.gauge_peak("rt.rpc.pool.workers")) as f64,
        ),
        (
            "concurrent.ws_pool_peak_workers",
            after.gauge_peak("rt.msg.ws_pool.workers") as f64,
        ),
        (
            "concurrent.reactor_wakeups_per_msg",
            per_msg(delta_sum("wakeups")),
        ),
        (
            "concurrent.reactor_dispatches_per_msg",
            per_msg(delta_sum("dispatches")),
        ),
        (
            "concurrent.reactor_loop_p50_us",
            histogram_p50(&after, &format!("{front}.reactor.loop_us")),
        ),
        (
            "core.msgbox_peak_threads",
            (msgbox_threads as f64).max(after.gauge_peak("rt.msgbox.pool.workers") as f64),
        ),
        (
            "store.fsyncs_per_msg",
            per_msg(delta("rt.msgbox.store.fsyncs")),
        ),
        (
            "store.group_commit_batch_mean",
            histogram_mean(&after, "rt.msgbox.store.group_commit_batch"),
        ),
        (
            "store.wal_bytes_per_msg",
            per_msg(delta("rt.msgbox.store.wal_bytes")),
        ),
        (
            "store.spilled_peak_bytes",
            after.gauge_peak("rt.msgbox.store.spilled_bytes") as f64,
        ),
        (
            "store.resident_peak_bytes",
            after.gauge_peak("rt.msgbox.store.resident_bytes") as f64,
        ),
        (
            "proc.peak_rss_mb",
            procfs::status().vm_hwm_kb as f64 / 1024.0,
        ),
        ("proc.peak_threads", m.peak_threads as f64),
        ("proc.ctx_switches_per_msg", per_msg(m.ctx_switches as f64)),
        // Of the untraced half, by the timed run's estimator.
        (
            "proc.cpu_us_per_msg",
            quietest(&plain.all.slices, Lowest, |s| Some(s.cpu_per_msg())),
        ),
    ]);

    // Spans: self time per operation, and the trace file.
    match spans::op_self_times_us(&m.all.spans) {
        Some(self_times) => values.push(("client.op_self_us", p50(&self_times))),
        None => {
            m.all.violations += 1;
            m.all.notes.push(format!(
                "{workload}: a span's children reach outside their parent"
            ));
        }
    }
    let path = topology::out_dir().join(format!("trace-{workload}.json"));
    let seed = opts.seed;
    match spans::write_json(&path, &m.all.spans, |s| {
        format!("uuid:{seed:016x}-{}-{}", s.client, s.op)
    }) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            m.all.spans.len(),
            path.display()
        ),
        Err(e) => {
            m.all.violations += 1;
            m.all
                .notes
                .push(format!("{workload}: cannot write {}: {e}", path.display()));
        }
    }

    // The tail the untraced sample supports.
    let plain_latencies = plain.latencies_us();
    let plain_p50 = percentile(&plain_latencies, 50.0);
    values.push(("client.p90_us", percentile(&plain_latencies, 90.0)));
    if let Some(pct) = tail_percentile(plain_latencies.len()) {
        values.extend([
            ("client.tail_us", percentile(&plain_latencies, pct)),
            ("client.tail_percentile", pct),
            (
                "client.tail_samples",
                samples_beyond(plain_latencies.len(), pct) as f64,
            ),
        ]);
    }

    // Layers alone, now that no other thread runs.
    values.extend(replay::replay(workload, opts.seed));
    values.extend(handoff::measure());

    let traced_latencies = m.latencies_us();
    let layer_us: f64 = blocking_path(workload)
        .iter()
        .map(|(name, calls)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .map_or("ns", |m| m.unit);
            *calls as f64 * if unit == "ns" { value / 1e3 } else { value }
        })
        .sum();
    values.extend([
        (
            "rt.rpc_forward_overhead_us",
            direct_p50.map_or(0.0, |direct| plain_p50 - direct),
        ),
        (
            "rt.unattributed_us",
            if blocking_path(workload).is_empty() {
                0.0
            } else {
                plain_p50 - layer_us
            },
        ),
        (
            "trace.overhead_share",
            percentile(&traced_latencies, 50.0) / plain_p50.max(f64::MIN_POSITIVE) - 1.0,
        ),
    ]);
    eprintln!(
        "{workload}: untraced {} samples p50 {plain_p50:.1} us, traced {} samples; replayed layers \
         on the blocking path {layer_us:.1} us",
        plain_latencies.len(),
        traced_latencies.len(),
    );
    m.all.attempted += plain.all.attempted;
    m.all.failed += plain.all.failed;
    m.all.violations += plain.all.violations;
    m.all.notes.extend(plain.all.notes);
    (m, values)
}

fn histogram_p50(snapshot: &Snapshot, name: &str) -> f64 {
    match snapshot.get(name) {
        Some(MetricValue::Histogram(h)) => h.p50 as f64,
        _ => 0.0,
    }
}

fn histogram_mean(snapshot: &Snapshot, name: &str) -> f64 {
    match snapshot.get(name) {
        Some(MetricValue::Histogram(h)) => h.mean(),
        _ => 0.0,
    }
}

/// How often each replayed layer function runs on the steps one
/// operation blocks on (both sides of every hop, server code included).
/// `rt.unattributed_us` is the end-to-end p50 minus these: queue waits,
/// wake-ups and scheduling. Empty where the operation is not a message
/// through the threaded runtime.
fn blocking_path(workload: &str) -> &'static [(&'static str, u32)] {
    match workload {
        "rpc_echo" => &[
            ("http.serialize_request_ns", 2),
            ("http.feed_chunked_ns", 1),
            ("http.parse_request_ns", 1),
            ("http.parse_response_ns", 2),
            ("core.rpc_plan_forward_ns", 1),
            ("soap.envelope_parse_ns", 2),
            ("soap.envelope_to_xml_ns", 1),
        ],
        "conv_pingpong" => &[
            ("http.serialize_request_ns", 5),
            ("http.feed_chunked_ns", 4),
            ("http.parse_request_ns", 1),
            ("http.parse_response_ns", 1),
            ("core.route_raw_forward_ns", 1),
            ("core.route_raw_reply_ns", 1),
            ("concurrent.queue_push_pop_ns", 2),
            ("soap.envelope_parse_ns", 3),
            ("soap.envelope_to_xml_ns", 2),
            ("core.msgbox_deposit_ns", 1),
            ("core.msgbox_handle_soap_fetch_ns", 1),
        ],
        "backlog_durable" => &[
            ("http.serialize_request_ns", 4),
            ("http.feed_chunked_ns", 2),
            ("http.parse_request_ns", 1),
            ("core.route_raw_forward_ns", 1),
            ("core.route_raw_reply_ns", 1),
            ("concurrent.queue_push_pop_ns", 2),
            ("soap.envelope_parse_ns", 3),
            ("soap.envelope_to_xml_ns", 2),
            ("store.durable_deposit_us", 1),
            ("store.durable_fetch_spilled_ns", 1),
        ],
        _ => &[],
    }
}
