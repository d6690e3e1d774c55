//! Zero-copy dispatch hot path: the two costs the splice/batching work
//! attacks, measured head-to-head.
//!
//! * `rewrite`: the per-message WS-Addressing forward rewrite — tree path
//!   (`Envelope::parse` + `rewrite_for_forward` + `to_xml`) vs splice path
//!   (`scan` + `splice_forward`), on the same canonical envelope.
//! * `drain`: delivering 16 queued envelopes over one kept-open
//!   connection with drain-batch sizes 1/4/16 — each batch is one
//!   `pop_batch`, one serialization buffer, one pipelined write + flush.
//!
//! Set `BENCH_HOTPATH_JSON=<path>` to also emit a machine-readable
//! summary (used by `scripts/verify.sh bench-smoke`); `CRITERION_SAMPLES`
//! scales both the criterion run and the JSON measurement.

use std::thread;
use std::time::Instant;

use criterion::{criterion_group, Criterion, Throughput};
use wsd_concurrent::FifoQueue;
use wsd_http::{
    duplex, serve_connection, HttpClient, Limits, PipeStream, Request, Response, Status,
};
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_wsa::{rewrite_for_forward, EndpointReference, WsaHeaders};

const DISPATCHER: &str = "http://dispatcher/msg";
const PHYSICAL: &str = "http://ws:8888/echo";
/// Messages delivered per drain iteration (one full WsThread backlog).
const DRAIN_TOTAL: usize = 16;

/// The paper's addressed echo request, in the writer's canonical form —
/// exactly what `MsgCore::route_raw` sees on the wire.
fn forwarded_request() -> String {
    let mut env = rpc::echo_request(SoapVersion::V11, "benchmark payload");
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new("http://client:9000/cb"))
        .message_id("uuid:bench-1")
        .action("urn:wsd:echo:echo")
        .apply(&mut env);
    env.to_xml()
}

fn tree_rewrite(xml: &str) -> String {
    let mut env = Envelope::parse(xml).unwrap();
    rewrite_for_forward(&mut env, PHYSICAL, DISPATCHER).unwrap();
    env.to_xml()
}

fn splice_rewrite(xml: &str) -> String {
    wsd_wsa::scan(xml).unwrap().splice_forward(PHYSICAL, DISPATCHER, None).0
}

/// A WsThread in miniature: a destination queue, a kept-open connection
/// to an accepting server, and the reusable serialization buffer.
struct DrainRig {
    client: HttpClient<PipeStream>,
    queue: FifoQueue<Request>,
    buf: Vec<u8>,
    /// The envelope as refcounted bytes — enqueueing shares it instead
    /// of copying the body per message, like the rt drain does.
    body: wsd_http::Bytes,
}

impl DrainRig {
    fn new(xml: &str) -> Self {
        let (client, server) = duplex(1 << 20);
        thread::spawn(move || {
            let _ = serve_connection(server, &Limits::default(), |_req| {
                Response::empty(Status::ACCEPTED)
            });
        });
        DrainRig {
            client: HttpClient::new(client),
            queue: FifoQueue::bounded(DRAIN_TOTAL * 2),
            buf: Vec::with_capacity(1 << 14),
            body: wsd_http::Bytes::from(xml.to_string()),
        }
    }

    /// Enqueues `DRAIN_TOTAL` envelopes, then drains them in batches of
    /// `batch` — the exact pop + pipelined-write shape of the rt drain.
    fn deliver(&mut self, batch: usize) {
        for _ in 0..DRAIN_TOTAL {
            let req = Request::soap_post(
                "ws:8888",
                "/echo",
                SoapVersion::V11.content_type(),
                self.body.clone(),
            );
            self.queue.try_push(req).unwrap();
        }
        while let Ok(taken) = self.queue.pop_batch(batch) {
            let resps = self.client.call_pipelined(taken.iter(), &mut self.buf).unwrap();
            assert_eq!(resps.len(), taken.len());
        }
    }
}

fn bench(c: &mut Criterion) {
    let xml = forwarded_request();
    // The fast path's whole claim: same bytes out.
    assert_eq!(tree_rewrite(&xml), splice_rewrite(&xml));

    let mut g = c.benchmark_group("rewrite");
    g.throughput(Throughput::Bytes(xml.len() as u64));
    g.bench_function("tree_parse_rewrite_serialize", |b| {
        b.iter(|| tree_rewrite(std::hint::black_box(&xml)))
    });
    g.bench_function("splice_scan_forward", |b| {
        b.iter(|| splice_rewrite(std::hint::black_box(&xml)))
    });
    g.finish();

    let mut g = c.benchmark_group("drain");
    g.throughput(Throughput::Elements(DRAIN_TOTAL as u64));
    for batch in [1usize, 4, 16] {
        let mut rig = DrainRig::new(&xml);
        g.bench_function(format!("deliver_{DRAIN_TOTAL}_batch_{batch}"), |b| {
            b.iter(|| rig.deliver(batch))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

/// Times `f` over `reps` runs (one untimed warmup) and returns ns/run.
fn time_ns(reps: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn emit_json(path: &str) {
    let samples: u64 = std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let xml = forwarded_request();
    let reps = samples * 100;
    let tree = time_ns(reps, || {
        std::hint::black_box(tree_rewrite(std::hint::black_box(&xml)));
    });
    let splice = time_ns(reps, || {
        std::hint::black_box(splice_rewrite(std::hint::black_box(&xml)));
    });
    let drain_reps = (samples * 5).max(5);
    let mut drain = [0.0f64; 3];
    for (slot, batch) in drain.iter_mut().zip([1usize, 4, 16]) {
        let mut rig = DrainRig::new(&xml);
        *slot = time_ns(drain_reps, || rig.deliver(batch)) / DRAIN_TOTAL as f64;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"dispatch_hotpath\",\n",
            "  \"samples\": {samples},\n",
            "  \"envelope_bytes\": {bytes},\n",
            "  \"rewrite\": {{\n",
            "    \"tree_ns_per_op\": {tree:.1},\n",
            "    \"splice_ns_per_op\": {splice:.1},\n",
            "    \"speedup\": {speedup:.2}\n",
            "  }},\n",
            "  \"drain_ns_per_msg\": {{\n",
            "    \"batch_1\": {d1:.1},\n",
            "    \"batch_4\": {d4:.1},\n",
            "    \"batch_16\": {d16:.1}\n",
            "  }}\n",
            "}}\n"
        ),
        samples = samples,
        bytes = xml.len(),
        tree = tree,
        splice = splice,
        speedup = tree / splice,
        d1 = drain[0],
        d4 = drain[1],
        d16 = drain[2],
    );
    std::fs::write(path, &json).expect("write BENCH_hotpath.json");
    println!("wrote {path}");
}

fn main() {
    benches();
    if let Ok(path) = std::env::var("BENCH_HOTPATH_JSON") {
        emit_json(&path);
    }
}
