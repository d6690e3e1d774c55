//! The threaded MSG-Dispatcher (paper §4.2, Figure 3): a `CxThread`
//! pool accepts and routes messages; a `WsThread` pool drains
//! per-destination FIFO queues, reusing one connection per destination.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use wsd_concurrent::ordered::audit;
use wsd_concurrent::{FifoQueue, PoolConfig, PopError, ShardedMap, ThreadPool};
use wsd_http::{HttpClient, Request, Response, Status};
use wsd_soap::SoapVersion;
use wsd_telemetry::{Counter, Scope};

use crate::config::{
    DispatcherConfig, CX_CORE_THREADS, CX_MAX_THREADS, DRAIN_BATCH, ROUTE_TTL, WS_CORE_THREADS,
};
use crate::msg::link::{Link, LinkStep};
use crate::msg::{correlate_rpc_reply, DropReason, MsgCore, MsgCounters};
use crate::rt::{now_us, one_by_one, ConnTracker, Network, ReactorFrontEnd};
use crate::url::Url;

/// Four of the [`MsgCounters`], copied out by [`MsgDispatcherServer::stats`]
/// for the end-to-end benchmark, which reads them by field. It goes once
/// that reader takes the counters (ROADMAP 10(e)).
#[derive(Debug)]
pub struct MsgServerStats {
    /// `acked`: messages accepted with `202`.
    pub accepted: AtomicU64,
    /// `delivered`.
    pub delivered: AtomicU64,
    /// `dropped`.
    pub dropped: AtomicU64,
    /// `rejected`.
    pub rejected: AtomicU64,
}

/// One queued outbound message: the serialized request plus the
/// `MessageID` captured at enqueue time, so translating a synchronous RPC
/// response never re-parses the request envelope.
struct QueuedMsg {
    req: Request,
    msg_id: Option<String>,
}

struct Dest {
    host: String,
    port: u16,
    queue: FifoQueue<QueuedMsg>,
    /// Whether a `WsThread` currently owns this destination.
    active: AtomicBool,
}

/// A running MSG dispatcher.
pub struct MsgDispatcherServer {
    core: Arc<MsgCore>,
    /// The stop signal, a queue nothing is ever pushed to: a wait on it
    /// (the janitor's sweep tick, a `WsThread`'s backoff) times out until
    /// `shutdown()` closes it and returns at once from then on.
    stop: FifoQueue<()>,
    janitor_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Accept side: listener, connections and the `CxThread` pool.
    front: ReactorFrontEnd,
    ws_pool: Arc<ThreadPool>,
    /// Destination connections, so `shutdown()` can interrupt a
    /// `WsThread` reading answers.
    ws_conns: Arc<ConnTracker>,
    dests: Arc<ShardedMap<String, Arc<Dest>>>,
    counters: MsgCounters,
    /// Destination connections opened.
    connects: Counter,
    /// Messages written to a destination connection opened for an
    /// earlier one.
    reused_sends: Counter,
    /// Where each destination queue registers its `dest{host:port}` scope.
    scope: Scope,
    net: Arc<Network>,
}

impl MsgDispatcherServer {
    /// Starts the dispatcher on `host:port` around a routing core.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        core: MsgCore,
        config: DispatcherConfig,
    ) -> Arc<MsgDispatcherServer> {
        Self::start_with_telemetry(net, host, port, core, config, &Scope::noop())
    }

    /// Like [`MsgDispatcherServer::start`], with telemetry instruments
    /// registered under `scope`: message counters, `cx_pool`/`ws_pool`
    /// sub-scopes, and one labeled `dest{host:port}` queue scope per
    /// destination.
    pub fn start_with_telemetry(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        core: MsgCore,
        config: DispatcherConfig,
        scope: &Scope,
    ) -> Arc<MsgDispatcherServer> {
        let cx_pool = Arc::new(
            ThreadPool::new(
                PoolConfig::growable(format!("CxThread-{host}"), CX_CORE_THREADS, CX_MAX_THREADS)
                    .telemetry(scope.child("cx_pool")),
            )
            .expect("cx pool"),
        );
        let ws_pool = Arc::new(
            ThreadPool::new(
                PoolConfig::growable(
                    format!("WsThread-{host}"),
                    WS_CORE_THREADS,
                    config.ws_max_threads,
                )
                .telemetry(scope.child("ws_pool")),
            )
            .expect("ws pool"),
        );
        let mut core = core;
        core.bind_telemetry(&scope.child("core"));
        let core = Arc::new(core);
        // Route-table janitor: drop forwarded requests whose replies
        // never came (paper §4.4's expiration-time future work). Parks on
        // the stop signal so shutdown() tears it down without a tick of lag.
        let stop = FifoQueue::bounded(1);
        let janitor_thread = {
            let core = Arc::clone(&core);
            let stop = stop.clone();
            // wsd-lint: allow(raw-thread-spawn): single long-lived maintenance thread parked on a condvar; pooling it would pin a pool slot forever
            std::thread::Builder::new()
                .name(format!("route-janitor-{host}"))
                .spawn(move || {
                    let sweep_every = (ROUTE_TTL / 4).max(std::time::Duration::from_millis(50));
                    while stop.pop_timeout(sweep_every) == Err(PopError::Empty) {
                        core.expire_routes(crate::rt::now_us(), ROUTE_TTL.as_micros() as u64);
                    }
                })
                .expect("janitor thread")
        };
        let front = ReactorFrontEnd::start("reactor", cx_pool, &scope.child("reactor"));
        let server = Arc::new(MsgDispatcherServer {
            core,
            stop,
            janitor_thread: Mutex::new(Some(janitor_thread)),
            front,
            ws_pool,
            ws_conns: ConnTracker::new(),
            dests: Arc::new(ShardedMap::new()),
            counters: MsgCounters::new(scope),
            connects: scope.counter("connects"),
            reused_sends: scope.counter("reused_sends"),
            scope: scope.clone(),
            net: Arc::clone(net),
        });
        let handler = Arc::clone(&server);
        let accept = one_by_one(Arc::new(move |req| handler.accept(&config, req)));
        server.front.listen(net, host, port, accept);
        server
    }

    /// A handle to the live counters.
    pub fn counters(&self) -> MsgCounters {
        self.counters.clone()
    }

    /// What the counters read now, as the end-to-end benchmark reads them.
    pub fn stats(&self) -> MsgServerStats {
        let c = &self.counters;
        MsgServerStats {
            accepted: c.acked.get().into(),
            delivered: c.delivered.get().into(),
            dropped: c.dropped.get().into(),
            rejected: c.rejected.get().into(),
        }
    }

    /// The routing core (for inspecting pending routes).
    pub fn core(&self) -> &MsgCore {
        &self.core
    }

    /// Client connections currently open (parked or being served).
    pub fn open_connections(&self) -> usize {
        self.front.open_connections()
    }

    /// Stops accepting, closes connections and queues, joins both pools.
    pub fn shutdown(&self) {
        self.stop.close();
        if let Some(h) = self.janitor_thread.lock().take() {
            audit::assert_unlocked("MsgDispatcherServer::shutdown's join");
            let _ = h.join();
        }
        // The accept side first: once the CxThreads are joined nothing
        // creates a destination any more, so every queue gets closed.
        self.front.shutdown();
        self.dests.for_each(|_, d| d.queue.close());
        self.ws_conns.close_all();
        self.ws_pool.shutdown();
    }

    /// CxThread work: route (splice fast path when possible), enqueue, ack.
    fn accept(self: &Arc<Self>, config: &DispatcherConfig, req: Request) -> Response {
        self.counters.received.inc();
        // The queue takes the rewritten envelope whole.
        let mut body = String::new();
        let routed = (req.body_str())
            .map(|xml| self.core.route_raw_into(xml, req.body.len(), now_us(), &mut body));
        let (to, message_id) = match self.counters.routed(routed) {
            Ok(routed) => routed,
            Err(reject) => return reject,
        };
        if !self.enqueue(config, &to, body, message_id) {
            return Response::empty(Status::SERVICE_UNAVAILABLE);
        }
        self.counters.acked.inc();
        Response::empty(Status::ACCEPTED)
    }

    /// Offers a routed message to its destination's queue; a full queue
    /// drops it, on the books.
    fn enqueue(
        self: &Arc<Self>,
        config: &DispatcherConfig,
        to: &Url,
        body: String,
        msg_id: Option<String>,
    ) -> bool {
        let fwd = Request::soap_post(
            &to.authority(),
            &to.path,
            SoapVersion::V11.content_type(),
            body.into_bytes(),
        );
        let authority = to.authority();
        let dest = self.dests.get_or_insert_with(authority.clone(), || {
            let queue = FifoQueue::bounded(config.queue_capacity);
            queue.bind_telemetry(&self.scope.labeled("dest", &authority));
            Arc::new(Dest {
                host: to.host.clone(),
                port: to.port,
                queue,
                active: AtomicBool::new(false),
            })
        });
        if dest.queue.try_push(QueuedMsg { req: fwd, msg_id }).is_err() {
            self.counters.drop(DropReason::QueueFull, 1);
            return false;
        }
        self.counters.enqueued.inc();
        self.activate(config, dest);
        true
    }

    /// Hands the destination to a WsThread if none owns it.
    fn activate(self: &Arc<Self>, config: &DispatcherConfig, dest: Arc<Dest>) {
        if dest.active.swap(true, Ordering::AcqRel) {
            return; // someone is already draining it
        }
        let server = Arc::clone(self);
        let config = config.clone();
        let pool = Arc::clone(&self.ws_pool);
        let _ = pool.execute(move || server.drain(&config, dest));
    }

    /// WsThread work: do what the destination's [`Link`] says, with
    /// blocking I/O, until the queue has been idle for
    /// `connection_linger` — a batch of up to [`DRAIN_BATCH`] envelopes goes
    /// out in one write and one flush over the kept-open connection, then
    /// the answers are read back one by one, so a connection that dies
    /// mid-batch costs a resend of the unanswered messages only. A backoff
    /// is waited out on this thread: the paper's blocked `WsThread`.
    fn drain(self: &Arc<Self>, config: &DispatcherConfig, dest: Arc<Dest>) {
        let mut link = Link::new(DRAIN_BATCH);
        let mut client: Option<HttpClient<wsd_http::PipeStream>> = None;
        let mut buf: Vec<u8> = Vec::with_capacity(4096);
        // Written for the first time, not yet on the books.
        let mut written = 0u64;
        let mut fresh_conn = false;
        loop {
            let step = link.next(false);
            if written > 0 && !matches!(step, LinkStep::Write | LinkStep::Await) {
                self.counters.delivered.add(std::mem::take(&mut written));
            }
            match step {
                // Keep the thread (and connection) for `connection_linger`
                // of idleness, then hand the slot back.
                LinkStep::Idle => {
                    match dest.queue.pop_timeout_batch(config.connection_linger, DRAIN_BATCH) {
                        Ok(batch) => link.take(batch),
                        Err(_) => break,
                    }
                }
                LinkStep::Connect => {
                    client = self.connect(config, &dest);
                    fresh_conn = client.is_some();
                    if fresh_conn {
                        link.connected();
                    } else {
                        link.connect_failed();
                    }
                }
                LinkStep::Write => {
                    let reqs = link.batch().map(|m| &m.req);
                    match client.as_mut().map(|c| c.send_pipelined(reqs, &mut buf)) {
                        Some(Ok(n)) => {
                            written += link.wrote(n) as u64;
                            self.counters.drain_batches.inc();
                            // The first send on a fresh connection opens
                            // it; every other message reuses it.
                            let opened = usize::from(std::mem::take(&mut fresh_conn));
                            self.reused_sends.add((n - opened) as u64);
                        }
                        _ => {
                            client = None;
                            link.write_failed();
                        }
                    }
                }
                LinkStep::Await => match client.as_mut().map(|c| c.read_response()) {
                    Some(Ok(resp)) => {
                        let msg_id = link.answered().and_then(|m| m.msg_id);
                        self.translate_rpc_response(config, msg_id.as_deref(), &resp);
                    }
                    // Closed, errored or silent past `response_timeout`.
                    _ => {
                        client = None;
                        link.connection_lost();
                    }
                },
                LinkStep::Wait(backoff_us) => {
                    let _ = self.stop.pop_timeout(std::time::Duration::from_micros(backoff_us));
                    link.backoff_elapsed();
                }
                LinkStep::GiveUp(lost) => {
                    let dropped = lost.len() + dest.queue.drain().len();
                    self.counters.drop(DropReason::GivenUp, dropped as u64);
                }
            }
        }
        dest.active.store(false, Ordering::Release);
        // Re-activate if messages raced in while we were shutting down.
        if !dest.queue.is_empty() && !dest.queue.is_closed() {
            self.activate(config, dest);
        }
    }

    /// Opens the destination's connection; answers on it are waited for
    /// `response_timeout` at most. `None` when the destination is
    /// unreachable — or the server is stopping, so a `WsThread` with work
    /// left gives up instead of outliving `shutdown()`.
    fn connect(
        &self,
        config: &DispatcherConfig,
        dest: &Dest,
    ) -> Option<HttpClient<wsd_http::PipeStream>> {
        if self.stop.is_closed() {
            return None;
        }
        let stream = self.net.connect(&dest.host, dest.port).ok()?;
        self.ws_conns.track(&stream);
        // `shutdown()` may have closed the tracked connections since the
        // check above; one tracked after that would never be interrupted.
        if self.stop.is_closed() {
            return None;
        }
        self.connects.inc();
        let mut client = HttpClient::new(stream);
        client.set_response_timeout(Some(config.response_timeout)).ok()?;
        Some(client)
    }

    /// Routes what an RPC-style destination answered synchronously back
    /// to the original sender as a reply message (Table 1 quadrant 3); a
    /// plain `202` ack translates to nothing. `req_msg_id` is the
    /// forwarded request's `MessageID`, captured when the request was
    /// enqueued — the request envelope is never re-parsed here.
    fn translate_rpc_response(
        self: &Arc<Self>,
        config: &DispatcherConfig,
        req_msg_id: Option<&str>,
        resp: &Response,
    ) {
        let Some(routable) = correlate_rpc_reply(resp, req_msg_id) else {
            return;
        };
        // The dispatcher's own message, not a client's: neither `received`
        // nor `acked`, routed like any, and a reject has nobody to answer.
        let mut body = String::new();
        let routed = self.core.route_raw_into(&routable, routable.len(), now_us(), &mut body);
        if let Ok((to, message_id)) = self.counters.routed(Some(routed)) {
            self.enqueue(config, &to, body, message_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::rt::echo_server::EchoServer;
    use std::time::Duration;
    use wsd_soap::rpc as soap_rpc;
    use wsd_wsa::{EndpointReference, WsaHeaders};

    fn quick_config() -> DispatcherConfig {
        DispatcherConfig {
            connection_linger: Duration::from_millis(50),
            ..DispatcherConfig::default()
        }
    }

    fn one_way(net: &Arc<Network>, reply_to: &str, id: &str, text: &str) -> Status {
        let mut env = soap_rpc::echo_request(SoapVersion::V11, text);
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .reply_to(EndpointReference::new(reply_to))
            .message_id(id)
            .apply(&mut env);
        let req = Request::soap_post(
            "dispatcher:8080",
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let stream = net.connect("dispatcher", 8080).unwrap();
        let mut client = HttpClient::new(stream);
        client.call(&req).unwrap().status
    }

    #[test]
    fn shutdown_is_immediate_despite_long_route_ttl() {
        let net = Network::new();
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 3);
        // `ROUTE_TTL` is 300 s: the sweep tick is 75 s.
        let disp =
            MsgDispatcherServer::start(&net, "dispatcher", 8080, core, DispatcherConfig::default());
        let t0 = std::time::Instant::now();
        disp.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown must interrupt the janitor's sweep wait immediately"
        );
    }

    #[test]
    fn forwards_one_way_messages_to_service() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp =
            MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        for i in 0..5 {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        // Wait for the WsThread to drain.
        for _ in 0..100 {
            if disp.counters().delivered.get() == 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.counters().delivered.get(), 5);
        assert_eq!(ws.stats().processed.get(), 5);
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn telemetry_counts_messages_and_connection_reuse() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp = MsgDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8080,
            core,
            quick_config(),
            &reg.scope("rt.msg"),
        );
        for i in 0..5 {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:t{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
        }
        for _ in 0..100 {
            if disp.counters().delivered.get() == 5 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        disp.shutdown();
        ws.shutdown();
        let snap = reg.snapshot();
        let books = disp.counters();
        books.assert_matches(&snap, "rt.msg");
        assert_eq!(snap.counter("rt.msg.received"), 5);
        assert_eq!(snap.counter("rt.msg.acked"), 5);
        assert_eq!(snap.counter("rt.msg.forwarded"), 5);
        // The echo answers `200`: each answer is a reply (quadrant 3),
        // queued for a callback nobody listens on.
        assert_eq!(snap.counter("rt.msg.replies_routed"), 5);
        assert_eq!(snap.counter("rt.msg.queue_enqueued"), 10);
        assert_eq!(snap.counter("rt.msg.delivered"), 5);
        assert!(snap.counter("rt.msg.drain_batches") >= 1);
        // The view the benchmark reads is a copy of the same counters.
        let view = disp.stats();
        assert_eq!(view.accepted.load(Ordering::Relaxed), books.acked.get());
        assert_eq!(view.delivered.load(Ordering::Relaxed), books.delivered.get());
        // One kept-open connection serves the whole run: at least one
        // send must have reused it.
        assert!(snap.counter("rt.msg.connects") < 5);
        assert!(snap.counter("rt.msg.reused_sends") >= 1);
        // Per-destination queue instruments appear under a labeled scope.
        assert_eq!(snap.counter("rt.msg.dest{ws:8888}.pushed"), 5);
        assert!(snap.counter("rt.msg.cx_pool.completed") >= 1);
        // Canonical envelopes take the splice fast path.
        assert!(snap.counter("rt.msg.core.fastpath_hits") >= 5);
    }

    /// Polls `cond` for up to two seconds.
    fn eventually(cond: impl Fn() -> bool) -> bool {
        for _ in 0..200 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        cond()
    }

    #[test]
    fn refused_translated_reply_is_counted_as_dropped() {
        const SENT: u64 = 6;
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        // A reply endpoint that accepts the connection and never reads:
        // the WsThread draining it parks on the first reply's response,
        // the second reply fills the one-slot queue, the rest are refused.
        let held = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        net.listen("client", 9000, move |stream| held2.lock().push(stream));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let config = DispatcherConfig { queue_capacity: 1, ..quick_config() };
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, config);
        let books = disp.counters();
        for i in 0..SENT {
            let status = one_way(&net, "http://client:9000/cb", &format!("uuid:q3-{i}"), "x");
            assert_eq!(status, Status::ACCEPTED);
            // `delivered` moves once the echo's 200 has been translated
            // and the reply offered to the client's queue, so the next
            // request finds the service's own one-slot queue empty.
            assert!(eventually(|| books.delivered.get() == i + 1));
            // ...and the first reply is in flight before the second is
            // offered, whatever the WsThread's start-up lag.
            assert!(eventually(|| !held.lock().is_empty()));
        }
        assert_eq!(books.acked.get(), SENT);
        assert_eq!(books.replies_routed.get(), SENT, "every 200 is translated");
        assert_eq!(books.dropped.get(), SENT - 2, "one reply in flight, one queued");

        // Release the endpoint. Edited with the link machine: the reply in
        // flight was written, so losing its connection puts it on the
        // books as delivered (it used to be dropped with its batch) and it
        // is resent once; no connection can be opened for the resend, and
        // after the backoff the destination is given up on — only the
        // reply still queued is dropped. Every accepted request and the
        // reply it spawned is on the books, as before.
        net.unlisten("client", 9000);
        held.lock().clear();
        assert!(eventually(|| books.dropped.get() == SENT - 1));
        assert_eq!(books.delivered.get(), SENT + 1);
        assert_eq!(books.acked.get(), SENT);
        assert_eq!(
            books.forwarded.get() + books.replies_routed.get(),
            books.written_or_dropped()
        );
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn silent_destination_does_not_park_a_wsthread() {
        let net = Network::new();
        // Accepts every connection, never reads, never answers.
        let held = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        net.listen("ws", 8888, move |stream| held2.lock().push(stream));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let config = DispatcherConfig {
            response_timeout: Duration::from_millis(50),
            ..quick_config()
        };
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, config);
        let books = disp.counters();
        let status = one_way(&net, "http://client:9000/cb", "uuid:silent", "x");
        assert_eq!(status, Status::ACCEPTED);
        // No answer within `response_timeout` is a lost connection: the
        // message (written, so delivered) goes out once more on a fresh one…
        assert!(eventually(|| held.lock().len() == 2));
        assert!(eventually(|| books.delivered.get() == 1));
        // …and only once: the WsThread comes back instead of retrying for
        // ever, and nothing is counted twice or dropped.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(held.lock().len(), 2);
        assert_eq!(books.delivered.get(), 1);
        assert_eq!(books.dropped.get(), 0);
        let t0 = std::time::Instant::now();
        disp.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "ws_pool must drain");
    }

    #[test]
    fn shutdown_interrupts_a_backoff_and_a_timed_read() {
        let net = Network::new();
        let held = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let held2 = Arc::clone(&held);
        net.listen("ws", 8888, move |stream| held2.lock().push(stream));
        net.set_firewalled("client", true);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        registry.register("Dead", Url::parse("http://client:9000/cb").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        // Default `response_timeout`: 30 s.
        let disp = MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        // One WsThread reads answers a silent destination never sends…
        assert_eq!(one_way(&net, "http://x:1/cb", "uuid:read", "x"), Status::ACCEPTED);
        assert!(eventually(|| !held.lock().is_empty()));
        // …another waits out the backoff before a firewalled one.
        let mut env = soap_rpc::echo_request(SoapVersion::V11, "x");
        WsaHeaders::new().to("http://dispatcher/svc/Dead").message_id("uuid:wait").apply(&mut env);
        let req = Request::soap_post(
            "dispatcher:8080",
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let mut client = HttpClient::new(net.connect("dispatcher", 8080).unwrap());
        assert_eq!(client.call(&req).unwrap().status, Status::ACCEPTED);
        std::thread::sleep(Duration::from_millis(200));
        let t0 = std::time::Instant::now();
        disp.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2), "{:?}", t0.elapsed());
        // What could not be written any more is on the books as dropped.
        assert_eq!(disp.counters().dropped.get(), 1);
    }

    #[test]
    fn unroutable_message_rejected_with_fault() {
        let net = Network::new();
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 3);
        let disp =
            MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let env = soap_rpc::echo_request(SoapVersion::V11, "x"); // no WSA headers
        let req = Request::soap_post(
            "dispatcher:8080",
            "/msg",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let stream = net.connect("dispatcher", 8080).unwrap();
        let mut client = HttpClient::new(stream);
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        assert_eq!(disp.counters().rejected.get(), 1);
        disp.shutdown();
    }

    #[test]
    fn many_concurrent_senders_nothing_lost() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 8, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 3);
        let disp =
            MsgDispatcherServer::start(&net, "dispatcher", 8080, core, quick_config());
        let mut handles = Vec::new();
        for t in 0..8 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    let status = one_way(
                        &net,
                        "http://client:9000/cb",
                        &format!("uuid:{t}-{i}"),
                        "x",
                    );
                    assert_eq!(status, Status::ACCEPTED);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..300 {
            if disp.counters().delivered.get() == 80 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(disp.counters().delivered.get(), 80);
        assert_eq!(ws.stats().processed.get(), 80);
        disp.shutdown();
        ws.shutdown();
    }
}
