//! Layer replay: after a traced workload, its own request and reply
//! bytes go through each layer's public functions on one thread, and the
//! median cost per call is reported. A layer that is not on the
//! workload's path is left out (and reads 0 in the report).

use std::hint::black_box;
use std::time::{Duration, Instant};

use wsd_concurrent::FifoQueue;
use wsd_core::msgbox::{handle_soap, ops};
use wsd_core::security::PolicyChain;
use wsd_core::{MsgBoxConfig, MsgBoxStore, MsgCore, RoutedRaw};
use wsd_http::{Limits, Request, RequestParser, Response, Status};
use wsd_netsim::{Ctx, HostConfig, Payload, ProcEvent, Process, Simulation};
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_store::{DurableMsgBox, FsStorage, MemStorage, Op, SyncMode, Wal, WalConfig};
use wsd_telemetry::Scope;
use wsd_wsa::WsaHeaders;
use wsd_xml::{Event, PullParser};

use crate::alloc_count;
use crate::gen::{paper_pad_len, Generator, BACKLOG_PAYLOAD_BYTES};
use crate::stats::median;
use crate::topology::{
    durable_store_config, fresh_wal_dir, oneway_reply, out_dir, registry, DISPATCHER, MSGBOX_PORT,
    MSG_ADDRESS, MSG_PORT, RPC_PORT, WS_URL,
};
use crate::workloads::FETCH;

/// Samples per replayed function.
const SAMPLES: usize = 31;
/// Target length of one timed batch of a cheap function.
const BATCH: Duration = Duration::from_micros(500);

/// Median ns per call of a cheap function, timed in batches so the clock
/// reads do not weigh on it.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut iters = 1u32;
    loop {
        let t = Instant::now();
        (0..iters).for_each(|_| f());
        if t.elapsed() >= BATCH / 4 || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            (0..iters).for_each(|_| f());
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&samples)
}

/// Median ns of `timed`, each call preceded by an untimed `prepare`.
fn each_ns<T>(mut prepare: impl FnMut() -> T, mut timed: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES + 2)
        .map(|_| {
            let input = prepare();
            let t = Instant::now();
            timed(input);
            t.elapsed().as_nanos() as f64
        })
        .skip(2) // warm caches and lazily-built tables
        .collect();
    median(&samples)
}

/// The reply the MSG-Dispatcher builds when an RPC-style service
/// answers `200` (quadrant 3): the echo response with `RelatesTo`
/// injected from the forwarded request's `MessageID`.
fn translated_rpc_reply(forwarded_xml: &str) -> Option<String> {
    let env = Envelope::parse(forwarded_xml).ok()?;
    let id = WsaHeaders::from_envelope(&env).ok()?.message_id?;
    let mut reply = rpc::echo_response(env.version, &rpc::parse_echo(&env).ok()?);
    WsaHeaders::new().relates_to(id).apply(&mut reply);
    Some(reply.to_xml())
}

/// Replays the named workload's bytes (regenerated from `seed`) through
/// the layers on its path.
pub fn replay(workload: &str, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut gen = Generator::new(seed, 0);
    let addressed = workload != "rpc_echo";
    let deposit_url = format!("http://{DISPATCHER}:{MSGBOX_PORT}/deposit/mbox-replay");

    // The client's request, as generated.
    let request: Request = if addressed {
        let payload = if workload == "backlog_durable" {
            BACKLOG_PAYLOAD_BYTES
        } else {
            paper_pad_len()
        };
        gen.oneway_request(&format!("{DISPATCHER}:{MSG_PORT}"), &deposit_url, payload)
            .request
    } else {
        gen.rpc_request(
            &format!("{DISPATCHER}:{RPC_PORT}"),
            "/svc/Echo",
            paper_pad_len(),
        )
        .0
    };
    let request_xml = request.body_utf8().into_owned();

    // What comes back to the client: the echo response (RPC), or the
    // fetchResponse carrying the routed replies (messaging).
    let mut delivered_xml = None;
    let response: Response = if addressed {
        let delivered = route_replay(workload, &request_xml, &mut out);
        let fetch = if workload == "backlog_durable" {
            FETCH
        } else {
            1
        };
        let resp = msgbox_replay(&delivered, fetch, &mut out);
        delivered_xml = Some(delivered);
        resp
    } else {
        let text = rpc::parse_echo(&Envelope::parse(&request_xml).expect("generated envelope"))
            .expect("generated echo");
        Response::new(
            Status::OK,
            SoapVersion::V11.content_type(),
            rpc::echo_response(SoapVersion::V11, &text)
                .to_xml()
                .into_bytes(),
        )
    };

    // wsd-http.
    let request_bytes = wsd_http::request_bytes(&request);
    let response_bytes = wsd_http::response_bytes(&response);
    out.push((
        "http.parse_request_ns",
        per_call_ns(|| {
            black_box(wsd_http::parse_request_bytes(black_box(&request_bytes)).expect("parses"));
        }),
    ));
    let (head, tail) = request_bytes.split_at(request_bytes.len() / 2);
    out.push((
        "http.feed_chunked_ns",
        per_call_ns(|| {
            let mut parser = RequestParser::new(Limits::default());
            assert!(parser.feed(black_box(head)).expect("first chunk").is_none());
            black_box(
                parser
                    .feed(black_box(tail))
                    .expect("second chunk")
                    .expect("complete"),
            );
        }),
    ));
    out.push((
        "http.parse_response_ns",
        per_call_ns(|| {
            black_box(wsd_http::parse_response_bytes(black_box(&response_bytes)).expect("parses"));
        }),
    ));
    let mut buf = Vec::with_capacity(request_bytes.len());
    out.push((
        "http.serialize_request_ns",
        per_call_ns(|| {
            buf.clear();
            wsd_http::request_bytes_into(&mut buf, black_box(&request));
        }),
    ));

    // wsd-xml / wsd-soap on the request envelope.
    out.push((
        "xml.pull_parse_ns",
        per_call_ns(|| {
            let mut parser = PullParser::new(black_box(&request_xml));
            while parser.next_event().expect("well-formed") != Event::Eof {}
        }),
    ));
    out.push((
        "soap.envelope_parse_ns",
        per_call_ns(|| {
            black_box(Envelope::parse(black_box(&request_xml)).expect("parses"));
        }),
    ));
    let env = Envelope::parse(&request_xml).expect("parses");
    out.push((
        "soap.envelope_to_xml_ns",
        per_call_ns(|| {
            black_box(black_box(&env).to_xml());
        }),
    ));

    // Registry, and the RPC-Dispatcher's forwarding plan.
    let reg = registry();
    out.push((
        "core.registry_lookup_ns",
        per_call_ns(|| {
            black_box(reg.lookup(black_box("Echo")).expect("registered"));
        }),
    ));
    if !addressed {
        let policies = PolicyChain::new();
        out.push((
            "core.rpc_plan_forward_ns",
            per_call_ns(|| {
                black_box(
                    wsd_core::rpc::plan_forward(&reg, &policies, black_box(&request))
                        .expect("plans"),
                );
            }),
        ));
    }

    if let Some(delivered) = &delivered_xml {
        out.push(("concurrent.queue_push_pop_ns", {
            let queue = FifoQueue::bounded(1024);
            per_call_ns(|| {
                queue.try_push(black_box(1u64)).expect("room");
                black_box(queue.pop().expect("just pushed"));
            })
        }));
        let ring = wsd_fleet::ShardRing::with_instances(seed, 64, 4);
        out.push((
            "fleet.ring_owner_of_ns",
            per_call_ns(|| {
                black_box(ring.owner_of(black_box("mbox-replay")));
            }),
        ));
        if workload == "backlog_durable" {
            store_replay(delivered, &mut out);
        }
    }
    if workload == "sim_fig6" {
        netsim_replay(&request_bytes, &mut out);
    }
    out
}

fn scan(xml: &str) -> wsd_wsa::ScannedWsa<'_> {
    wsd_wsa::scan(xml).expect("canonical envelope scans")
}

/// wsd-wsa and `MsgCore::route_raw` in both directions; returns the
/// reply as delivered to the mailbox (after the reply rewrite).
fn route_replay(workload: &str, request_xml: &str, out: &mut Vec<(&'static str, f64)>) -> String {
    let core = MsgCore::new(registry(), MSG_ADDRESS, 7);
    let Ok(RoutedRaw::Forward {
        body: forwarded_xml,
        ..
    }) = core.route_raw(request_xml, request_xml.len(), 0)
    else {
        panic!("generated request does not route forward");
    };
    let reply_xml = if workload == "backlog_durable" {
        translated_rpc_reply(&forwarded_xml)
    } else {
        oneway_reply(&forwarded_xml, "uuid:bench-ws-reply-0").map(|(_, xml)| xml)
    }
    .expect("forwarded request is an addressed echo");
    let Ok(RoutedRaw::Reply {
        body: delivered_xml,
        ..
    }) = core.route_raw(&reply_xml, reply_xml.len(), 0)
    else {
        panic!("generated reply does not route back");
    };

    out.push((
        "wsa.scan_ns",
        per_call_ns(|| drop(black_box(scan(black_box(request_xml))))),
    ));
    let mut buf = String::with_capacity(request_xml.len() + 256);
    let scanned = scan(request_xml);
    out.push((
        "wsa.splice_forward_ns",
        per_call_ns(|| {
            buf.clear();
            black_box(scanned.splice_forward_into(WS_URL, MSG_ADDRESS, None, &mut buf));
        }),
    ));
    let scanned = scan(&reply_xml);
    out.push((
        "wsa.splice_reply_ns",
        per_call_ns(|| {
            buf.clear();
            scanned.splice_reply_into(
                Some(black_box("http://dispatcher:8082/deposit/x")),
                &mut buf,
            );
        }),
    ));
    out.push((
        "wsa.tree_rewrite_ns",
        per_call_ns(|| {
            let mut env = Envelope::parse(black_box(request_xml)).expect("parses");
            wsd_wsa::rewrite_for_forward(&mut env, WS_URL, MSG_ADDRESS).expect("rewrites");
            black_box(env.to_xml());
        }),
    ));

    // Forward seeds the route table and reply consumes the entry, so
    // the two alternate; each is timed (and its allocations counted)
    // alone. The table is empty here and again after the reply loop.
    let (mut timed_buf, mut other_buf) = (String::new(), String::new());
    let route = |xml: &str, buf: &mut String| {
        buf.clear();
        black_box(core.route_raw_into(xml, xml.len(), 0, buf).is_ok())
    };
    let forward_ns = each_ns(
        || route(&reply_xml, &mut other_buf),
        |_| assert!(route(request_xml, &mut timed_buf)),
    );
    let reply_ns = each_ns(
        || route(request_xml, &mut other_buf),
        |_| assert!(route(&reply_xml, &mut timed_buf)),
    );
    const OPS: u64 = 256;
    let (mut forward_allocs, mut reply_allocs) = (0, 0);
    for _ in 0..OPS {
        forward_allocs += alloc_count::count(|| assert!(route(request_xml, &mut timed_buf)));
        reply_allocs += alloc_count::count(|| assert!(route(&reply_xml, &mut timed_buf)));
    }
    out.push(("core.route_raw_forward_ns", forward_ns));
    out.push(("core.route_raw_reply_ns", reply_ns));
    out.push((
        "core.route_raw_forward_allocs",
        forward_allocs as f64 / OPS as f64,
    ));
    out.push((
        "core.route_raw_reply_allocs",
        reply_allocs as f64 / OPS as f64,
    ));
    delivered_xml
}

/// The memory-backed `MsgBoxStore` and its SOAP facade, with `fetch`
/// messages per pick-up; returns the HTTP response a poll gets back.
fn msgbox_replay(
    delivered_xml: &str,
    fetch: usize,
    out: &mut Vec<(&'static str, f64)>,
) -> Response {
    let store = MsgBoxStore::new(MsgBoxConfig::default(), 7);
    let (id, key) = store.create(0);
    let fill = |n: usize| {
        for _ in 0..n {
            store
                .deposit(&id, delivered_xml.to_string(), 0)
                .expect("deposit");
        }
    };
    out.push((
        "core.msgbox_deposit_ns",
        each_ns(
            || {
                store.fetch(&id, &key, usize::MAX, 0).expect("drain");
                delivered_xml.to_string()
            },
            |body| store.deposit(&id, body, 0).expect("deposit"),
        ),
    ));
    store.fetch(&id, &key, usize::MAX, 0).expect("drain");
    out.push((
        "core.msgbox_fetch_ns",
        each_ns(
            || fill(fetch),
            |()| {
                assert_eq!(
                    store.fetch(&id, &key, fetch, 0).expect("fetch").len(),
                    fetch
                )
            },
        ) / fetch as f64,
    ));
    let fetch_env = ops::fetch(SoapVersion::V11, &id, &key, fetch);
    out.push((
        "core.msgbox_handle_soap_fetch_ns",
        each_ns(
            || fill(fetch),
            |()| drop(black_box(handle_soap(&store, &fetch_env, 0))),
        ),
    ));
    fill(fetch);
    Response::new(
        Status::OK,
        SoapVersion::V11.content_type(),
        handle_soap(&store, &fetch_env, 0).to_xml().into_bytes(),
    )
}

/// wsd-store: WAL framing on an in-memory disk (CPU cost alone), the
/// durable mailbox on real files under `benchmark/out` with the
/// workload's own configuration, recovery replay, and the device's
/// fsync for reference.
fn store_replay(body: &str, out: &mut Vec<(&'static str, f64)>) {
    let deposit_op = Op::Deposit {
        box_id: "mbox-replay".to_string(),
        received_at: 1,
        expires_at: u64::MAX,
        body: body.to_string(),
    };
    let open_wal = |sync, storage: MemStorage| {
        let config = WalConfig {
            segment_bytes: 1 << 30,
            sync,
        };
        Wal::open(config, Box::new(storage), &Scope::noop(), |_, _| {}).expect("open WAL")
    };
    let (wal, _) = open_wal(SyncMode::Always, MemStorage::new());
    out.push((
        "store.wal_append_ns",
        each_ns(
            || (),
            |()| {
                black_box(wal.append_durable(&deposit_op).expect("append"));
            },
        ),
    ));
    let group = WalConfig::default().sync;
    let SyncMode::GroupCommit { flush_batch, .. } = group else {
        panic!("default WAL sync mode is group commit");
    };
    let (wal, _) = open_wal(group, MemStorage::new());
    out.push((
        "store.wal_append_group_ns",
        each_ns(
            || (),
            |()| {
                let mut last = 0;
                for _ in 0..flush_batch {
                    last = wal.append(black_box(&deposit_op)).expect("append").lsn;
                }
                wal.commit(last).expect("commit");
            },
        ) / flush_batch as f64,
    ));

    const RECOVERY_RECORDS: u64 = 1024;
    let log = MemStorage::new();
    let (wal, _) = open_wal(SyncMode::Always, log.clone());
    for _ in 0..RECOVERY_RECORDS {
        wal.append_durable(&deposit_op).expect("append");
    }
    drop(wal);
    out.push((
        "store.recovery_replay_ns",
        each_ns(
            || log.clone(),
            |log| assert_eq!(open_wal(SyncMode::Always, log).1.records, RECOVERY_RECORDS),
        ) / RECOVERY_RECORDS as f64,
    ));

    // Real files from here on.
    let open_store = |memory_budget_bytes| {
        let dir = fresh_wal_dir();
        let config = wsd_store::StoreConfig {
            memory_budget_bytes,
            ..durable_store_config()
        };
        let storage = FsStorage::open(dir.clone()).expect("open WAL directory");
        let (store, _) =
            DurableMsgBox::open(config, Box::new(storage), &Scope::noop(), 0).expect("open store");
        store
            .create("mbox-replay", "key", "default", 0)
            .expect("create mailbox");
        (store, dir)
    };
    let deposit = |store: &DurableMsgBox| {
        store
            .deposit("mbox-replay", body.to_string(), 1, u64::MAX)
            .expect("deposit");
    };
    let fetch_ns = |store: &DurableMsgBox| {
        const ROUNDS: usize = 3;
        let samples: Vec<f64> = (0..ROUNDS)
            .map(|_| {
                (0..FETCH).for_each(|_| deposit(store));
                let t = Instant::now();
                assert_eq!(
                    store
                        .fetch("mbox-replay", "key", FETCH, 1)
                        .expect("fetch")
                        .len(),
                    FETCH
                );
                t.elapsed().as_nanos() as f64 / FETCH as f64
            })
            .collect();
        median(&samples)
    };
    let (resident, dir) = open_store(u64::MAX);
    out.push((
        "store.durable_deposit_us",
        each_ns(|| (), |()| deposit(&resident)) / 1e3,
    ));
    resident
        .fetch("mbox-replay", "key", usize::MAX, 1)
        .expect("drain");
    out.push(("store.durable_fetch_resident_ns", fetch_ns(&resident)));
    drop(resident);
    let _ = std::fs::remove_dir_all(dir);
    let (spilled, dir) = open_store(0);
    out.push(("store.durable_fetch_spilled_ns", fetch_ns(&spilled)));
    drop(spilled);
    let _ = std::fs::remove_dir_all(dir);

    let path = out_dir().join(format!("fsync-probe-{}", std::process::id()));
    let file = std::fs::File::create(&path).expect("create fsync probe");
    out.push((
        "store.device_fsync_us",
        each_ns(
            || std::io::Write::write_all(&mut &file, &[0u8; 4096]).expect("write probe"),
            |()| file.sync_data().expect("fsync probe"),
        ) / 1e3,
    ));
    let _ = std::fs::remove_file(path);
}

/// Round trips the netsim ping-pong makes per run.
const PINGS: u64 = 20_000;

struct Echo;

impl Process for Echo {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { conn, bytes } = event {
            let _ = ctx.send(conn, bytes);
        }
    }
}

struct Pinger {
    left: u64,
    payload: Payload,
}

impl Process for Pinger {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                ctx.connect("server", 80, wsd_netsim::SimDuration::from_secs(5));
            }
            ProcEvent::ConnEstablished { conn } | ProcEvent::Message { conn, .. }
                if self.left > 0 =>
            {
                self.left -= 1;
                let _ = ctx.send(conn, self.payload.clone());
            }
            _ => {}
        }
    }
}

/// wsd-netsim's own event loop: a two-host ping-pong of the workload's
/// request bytes, with no dispatcher logic on top.
fn netsim_replay(request_bytes: &[u8], out: &mut Vec<(&'static str, f64)>) {
    let mut events_per_msg = 0.0;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut sim = Simulation::new(0x0F16);
            let server = sim.add_host(HostConfig::named("server"));
            let client = sim.add_host(HostConfig::named("client"));
            let echo = sim.spawn(server, Box::new(Echo));
            sim.listen(echo, 80);
            sim.spawn(
                client,
                Box::new(Pinger {
                    left: PINGS,
                    payload: Payload::from(request_bytes.to_vec()),
                }),
            );
            let t = Instant::now();
            sim.run();
            let ns = t.elapsed().as_nanos() as f64;
            assert_eq!(
                sim.messages_delivered(),
                2 * PINGS,
                "ping-pong ran to the end"
            );
            events_per_msg = sim.events_processed() as f64 / sim.messages_delivered() as f64;
            ns / sim.events_processed() as f64
        })
        .collect();
    out.push(("netsim.ns_per_event", median(&samples)));
    out.push(("netsim.events_per_msg", events_per_msg));
}
