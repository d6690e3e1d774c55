//! The catalogue: every workload and metric the benchmark reports, with
//! unit, direction and (for end-to-end metrics) regression bound.
//! `BENCHMARK.json` at the repository root is generated from here
//! (`--benchmark-json`) and a test keeps the two in agreement.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A workload: its fixed name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Fixed name; later issues cite it.
    pub name: &'static str,
    /// Why it was chosen.
    pub why: &'static str,
}

/// A metric. `bound` is `Some` for end-to-end metrics: the share of the
/// parent's median by which it may worsen before a change is rejected.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Whole seconds one driver run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// The four workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "rpc_echo",
        why: "Fig. 4/5 path at the smallest message (263 B): per-message HTTP parse/serialise, reactor hand-off, registry lookup and second connection are everything; wsa, queues, mailbox and store do nothing",
    },
    Workload {
        name: "conv_pingpong",
        why: "the full Figure-1 conversation, eight in flight from one firewalled client: both route_raw directions on the splice fast path, a shallow mailbox polled as replies arrive, per-message cost of every hop",
    },
    Workload {
        name: "backlog_durable",
        why: "same dispatcher and mailbox used differently: 512-deep bursts of 4 KiB through the durable WAL store with spill, writes timed apart from reads, per-byte not per-message cost",
    },
    Workload {
        name: "sim_fig6",
        why: "netsim event loop and the sim dispatcher/msgbox drivers over the shared MsgCore/MsgBoxStore with no threads, sockets or store: rt hand-off work must leave it flat",
    },
];

/// Bound of every end-to-end metric: the contract's ceiling. The
/// builder's sandbox shifts whole runs by 10–25 % for minutes at a time
/// (README, *Steadiness*); a tighter bound would reject unchanged code.
const BOUND: f64 = 0.25;

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("msgs_per_s", "1/s", Better::Higher, BOUND),
    e2e("p50_us", "us", Better::Lower, BOUND),
    e2e("deposit_msgs_per_s", "1/s", Better::Higher, BOUND),
    e2e("pickup_msgs_per_s", "1/s", Better::Higher, BOUND),
    e2e("setup_s", "s", Better::Lower, BOUND),
];

/// Per-layer metrics, printed with `--trace 1`. None is gated. A layer
/// that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    // Layer replay: the workload's own bytes through one layer's public
    // functions, single-threaded, median ns per call.
    layer("http.parse_request_ns", "ns", Better::Lower),
    layer("http.feed_chunked_ns", "ns", Better::Lower),
    layer("http.parse_response_ns", "ns", Better::Lower),
    layer("http.serialize_request_ns", "ns", Better::Lower),
    layer("xml.pull_parse_ns", "ns", Better::Lower),
    layer("soap.envelope_parse_ns", "ns", Better::Lower),
    layer("soap.envelope_to_xml_ns", "ns", Better::Lower),
    layer("wsa.scan_ns", "ns", Better::Lower),
    layer("wsa.splice_forward_ns", "ns", Better::Lower),
    layer("wsa.splice_reply_ns", "ns", Better::Lower),
    layer("wsa.tree_rewrite_ns", "ns", Better::Lower),
    layer("core.route_raw_forward_ns", "ns", Better::Lower),
    layer("core.route_raw_reply_ns", "ns", Better::Lower),
    layer("core.route_raw_forward_allocs", "count", Better::Lower),
    layer("core.route_raw_reply_allocs", "count", Better::Lower),
    layer("core.registry_lookup_ns", "ns", Better::Lower),
    layer("core.rpc_plan_forward_ns", "ns", Better::Lower),
    layer("core.msgbox_deposit_ns", "ns", Better::Lower),
    layer("core.msgbox_fetch_ns", "ns", Better::Lower),
    layer("core.msgbox_handle_soap_fetch_ns", "ns", Better::Lower),
    layer("concurrent.queue_push_pop_ns", "ns", Better::Lower),
    layer("store.wal_append_ns", "ns", Better::Lower),
    layer("store.wal_append_group_ns", "ns", Better::Lower),
    layer("store.durable_deposit_us", "us", Better::Lower),
    layer("store.durable_fetch_resident_ns", "ns", Better::Lower),
    layer("store.durable_fetch_spilled_ns", "ns", Better::Lower),
    layer("store.recovery_replay_ns", "ns", Better::Lower),
    layer("store.device_fsync_us", "us", Better::Lower),
    layer("fleet.ring_owner_of_ns", "ns", Better::Lower),
    layer("netsim.ns_per_event", "ns", Better::Lower),
    layer("netsim.events_per_msg", "count", Better::Lower),
    // Hand-offs across two threads, p50.
    layer("http.pipe_roundtrip_us", "us", Better::Lower),
    layer("concurrent.queue_handoff_us", "us", Better::Lower),
    layer("concurrent.pool_execute_us", "us", Better::Lower),
    layer("concurrent.reactor_dispatch_us", "us", Better::Lower),
    // Traced run: harness spans (p50) and counts per completed message.
    layer("client.send_us", "us", Better::Lower),
    layer("client.settle_us", "us", Better::Lower),
    layer("client.poll_us", "us", Better::Lower),
    layer("client.op_self_us", "us", Better::Lower),
    layer("client.polls_per_msg", "count", Better::Lower),
    layer("client.p90_us", "us", Better::Lower),
    layer("client.tail_us", "us", Better::Lower),
    layer("client.tail_percentile", "%", Better::Higher),
    layer("client.tail_samples", "count", Better::Higher),
    layer("core.fastpath_share", "share", Better::Higher),
    layer("rt.msg.connects_per_msg", "count", Better::Lower),
    layer("rt.msg.reuse_share", "share", Better::Higher),
    layer("rt.msg.dropped", "count", Better::Lower),
    layer("rt.msg.rejected", "count", Better::Lower),
    layer("concurrent.dest_queue_peak_depth", "count", Better::Lower),
    layer("concurrent.cx_pool_peak_workers", "count", Better::Lower),
    layer("concurrent.ws_pool_peak_workers", "count", Better::Lower),
    layer("concurrent.reactor_wakeups_per_msg", "count", Better::Lower),
    layer(
        "concurrent.reactor_dispatches_per_msg",
        "count",
        Better::Lower,
    ),
    layer("concurrent.reactor_loop_p50_us", "us", Better::Lower),
    layer("core.msgbox_peak_threads", "count", Better::Lower),
    layer("store.fsyncs_per_msg", "count", Better::Lower),
    layer("store.group_commit_batch_mean", "count", Better::Higher),
    layer("store.wal_bytes_per_msg", "bytes", Better::Lower),
    layer("store.spilled_peak_bytes", "bytes", Better::Lower),
    layer("store.resident_peak_bytes", "bytes", Better::Lower),
    layer("proc.peak_rss_mb", "MB", Better::Lower),
    layer("proc.peak_threads", "count", Better::Lower),
    layer("proc.ctx_switches_per_msg", "count", Better::Lower),
    layer("proc.cpu_us_per_msg", "us", Better::Lower),
    // Derived.
    layer("rt.rpc_forward_overhead_us", "us", Better::Lower),
    layer("rt.unattributed_us", "us", Better::Lower),
    layer("trace.overhead_share", "share", Better::Lower),
];

/// The `--list` table: every metric with unit, direction and bound.
pub fn list() -> String {
    let mut out = String::from("workloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    out.push_str("end_to_end (name unit better bound):\n");
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        out.push_str(&format!(
            "  {:<40} {:<6} {:<7} {bound}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("per_layer (name unit better):\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<40} {:<6} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

/// The exact text of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |m: &Metric| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"benchmark\"],\n",
            "  \"run_seconds\": {run_seconds},\n",
            "  \"workloads\": [\n{workloads}\n  ],\n",
            "  \"end_to_end\": [\n{end_to_end}\n  ],\n",
            "  \"per_layer\": [\n{per_layer}\n  ]\n",
            "}}\n"
        ),
        run_seconds = RUN_SECONDS,
        workloads = workloads.join(",\n"),
        end_to_end = end_to_end.join(",\n"),
        per_layer = per_layer.join(",\n"),
    )
}
