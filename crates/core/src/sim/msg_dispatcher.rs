//! The simulated MSG-Dispatcher (paper §4.2, Figure 3).
//!
//! Incoming one-way messages are accepted by the `CxThread` stage (a
//! FIFO CPU here), routed through [`MsgCore`] (logical-address
//! resolution + WS-Addressing rewrite), acknowledged with `202`, and
//! handed to the `WsThread` stage: per-destination FIFO queues drained
//! by a bounded pool of sender threads, each holding one kept-open
//! connection to its destination ("multiple messages can be delivered to
//! a destination over one connection which is more efficient than
//! opening multiple short lived connections").
//!
//! A `WsThread` whose destination is unreachable (a firewalled client)
//! holds its pool slot through the connect timeout and retry backoff —
//! which is exactly how undeliverable replies starve request forwarding
//! and produce the middle curve of Figure 6.

use std::collections::{HashMap, VecDeque};

use wsd_http::{Request, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};
use wsd_soap::SoapVersion;
use wsd_telemetry::{Gauge, Scope};

use crate::config::{DispatcherConfig, DRAIN_BATCH, ROUTE_TTL};
use crate::msg::link::{Link, LinkStep};
use crate::msg::{correlate_rpc_reply, DropReason, MsgCore, MsgCounters};
use crate::sim::{request_payload, response_payload, to_sim, CpuQueue, ACCEPTED, CONNECT_TIMEOUT};
use crate::url::Url;

type DestKey = (String, u16);

/// What the dispatcher records beside its [`MsgCounters`]: the busy
/// `WsThread` gauge and per-destination queue-depth gauges. Built from a
/// [`Scope::noop`] by default, so unobserved runs record into thin air.
struct DispatcherTelemetry {
    scope: Scope,
    active_threads: Gauge,
    dest_queue_depth: HashMap<DestKey, Gauge>,
}

impl DispatcherTelemetry {
    fn new(scope: &Scope) -> Self {
        DispatcherTelemetry {
            active_threads: scope.gauge("active_threads"),
            dest_queue_depth: HashMap::new(),
            scope: scope.clone(),
        }
    }

    fn dest_queue_depth(&mut self, key: &DestKey) -> &Gauge {
        // Looked up first: the key is cloned only for a new destination.
        if !self.dest_queue_depth.contains_key(key) {
            let label = format!("{}:{}", key.0, key.1);
            let gauge = self.scope.labeled("dest", &label).gauge("queue_depth");
            self.dest_queue_depth.insert(key.clone(), gauge);
        }
        &self.dest_queue_depth[key]
    }
}

/// A queued outbound message: its `MessageID` (for the quadrant-3
/// correlation) and the serialized request.
type QueuedMsg = (String, Payload);

struct Dest {
    /// Admitted and not yet handed to the link; bounded by
    /// `queue_capacity`. Messages stay here until the connection is up.
    queue: VecDeque<QueuedMsg>,
    /// The connection's state and what is in flight on it — the
    /// `WsThread` discipline both runtimes share.
    link: Link<QueuedMsg>,
    /// The established connection, while the link is up.
    conn: Option<ConnId>,
    has_thread: bool,
    /// Token of the timer armed last — the backoff while the link backs
    /// off, the linger of an idle connection otherwise; an older one that
    /// fires is stale.
    timer: u64,
}

impl Dest {
    fn new() -> Self {
        Dest {
            queue: VecDeque::new(),
            link: Link::new(DRAIN_BATCH),
            conn: None,
            has_thread: false,
            timer: 0,
        }
    }
}

/// The MSG-Dispatcher as a simulation actor.
pub struct SimMsgDispatcher {
    core: MsgCore,
    /// Read: `ws_max_threads` (the width of the `WsThread` pool model),
    /// `queue_capacity` and `connection_linger`; [`DRAIN_BATCH`] and
    /// [`ROUTE_TTL`] are constants. Every message is its own simulated
    /// send, so only `drain_batches` sees [`DRAIN_BATCH`].
    config: DispatcherConfig,
    /// `CxThread` CPU cost per routed message.
    dispatch_time: SimDuration,
    cpu: CpuQueue,
    stats: MsgCounters,
    next_token: u64,
    /// Routing work waiting for CPU: token → (conn to answer on, raw
    /// bytes). Translated RPC responses re-enter here with no answer
    /// connection — the "translation of semantics" CPU cost.
    routing: HashMap<u64, (Option<ConnId>, Payload)>,
    dests: HashMap<DestKey, Dest>,
    active_threads: usize,
    /// Destinations with work, waiting for a free `WsThread`.
    waiting: VecDeque<DestKey>,
    /// Destination connections, connecting or established (the link
    /// knows which).
    dest_conns: HashMap<ConnId, DestKey>,
    /// Pending backoff and linger timers.
    dest_timers: HashMap<u64, DestKey>,
    /// Token of the pending route-table janitor tick (armed lazily so an
    /// idle dispatcher schedules no events and `run()` can drain).
    janitor_token: u64,
    janitor_armed: bool,
    tele: DispatcherTelemetry,
}

impl SimMsgDispatcher {
    /// Creates the dispatcher actor around a routing core.
    pub fn new(core: MsgCore, dispatch_time: SimDuration, config: DispatcherConfig) -> Self {
        SimMsgDispatcher {
            core,
            config,
            dispatch_time,
            cpu: CpuQueue::default(),
            stats: MsgCounters::new(&Scope::noop()),
            next_token: 0,
            routing: HashMap::new(),
            dests: HashMap::new(),
            active_threads: 0,
            waiting: VecDeque::new(),
            dest_conns: HashMap::new(),
            dest_timers: HashMap::new(),
            janitor_token: 0,
            janitor_armed: false,
            tele: DispatcherTelemetry::new(&Scope::noop()),
        }
    }

    /// Attaches telemetry: the [`MsgCounters`], the `active_threads`
    /// gauge, per-destination `dest{host:port}.queue_depth` gauges, and
    /// message-lifecycle trace events.
    pub fn with_telemetry(mut self, scope: &Scope) -> Self {
        self.stats = MsgCounters::new(scope);
        self.tele = DispatcherTelemetry::new(scope);
        self.core.bind_telemetry(&scope.child("core"));
        self
    }

    /// A handle to the live counters (take it after `with_telemetry`).
    pub fn stats(&self) -> MsgCounters {
        self.stats.clone()
    }

    /// Concurrently busy `WsThread`s; `peak()` is the high-water mark.
    #[cfg(test)]
    fn active_threads(&self) -> Gauge {
        self.tele.active_threads.clone()
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Schedules the next route-expiry sweep if routes are pending.
    fn arm_janitor(&mut self, ctx: &mut Ctx<'_>) {
        if !self.janitor_armed && self.core.pending_routes() > 0 {
            self.janitor_armed = true;
            self.janitor_token = self.token();
            ctx.set_timer(to_sim(ROUTE_TTL / 4), self.janitor_token);
        }
    }

    fn route_now(&mut self, ctx: &mut Ctx<'_>, client_conn: Option<ConnId>, raw: Payload) {
        // The splice fast path needs only the request's body bytes, read
        // in place; the envelope is parsed solely when the scan declines.
        let xml = wsd_http::request_body(&raw).ok().and_then(|b| std::str::from_utf8(b).ok());
        let (now, mut body) = (ctx.now().as_micros(), String::new());
        let routed = xml.map(|xml| self.core.route_raw_into(xml, raw.len(), now, &mut body));
        match (self.stats.routed(routed), client_conn) {
            (Ok((to, message_id)), _) => {
                if client_conn.is_some_and(|conn| ctx.send(conn, ACCEPTED).is_ok()) {
                    self.stats.acked.inc();
                }
                self.enqueue(ctx, to, body, message_id);
                // A no-op after a reply: the forward that left a route armed it.
                self.arm_janitor(ctx);
            }
            (Err(reject), Some(conn)) => drop(ctx.send(conn, response_payload(&reject))),
            (Err(_), None) => {}
        }
    }

    fn enqueue(&mut self, ctx: &mut Ctx<'_>, to: Url, body: String, msg_id: Option<String>) {
        // The id was captured by `route_raw` at rewrite time — no re-parse.
        let msg_id = msg_id.unwrap_or_default();
        let req = Request::soap_post(
            &to.authority(),
            &to.path,
            SoapVersion::V11.content_type(),
            body.into_bytes(),
        );
        let payload = request_payload(&req);
        let key = (to.host, to.port);
        let cap = self.config.queue_capacity;
        if !self.dests.contains_key(&key) {
            self.dests.insert(key.clone(), Dest::new());
        }
        let dest = self.dests.get_mut(&key).expect("inserted above");
        if dest.queue.len() >= cap {
            self.stats.drop(DropReason::QueueFull, 1);
            return;
        }
        dest.queue.push_back((msg_id, payload));
        let depth = dest.queue.len();
        self.stats.enqueued.inc();
        self.tele.dest_queue_depth(&key).set(depth as i64);
        self.schedule_dest(ctx, key);
    }

    /// Ensures `key` either has a thread working it or is queued for one.
    fn schedule_dest(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        let Some(dest) = self.dests.get_mut(&key) else {
            return;
        };
        if dest.has_thread || (dest.queue.is_empty() && !dest.link.has_unsent()) {
            return;
        }
        if self.active_threads < self.config.ws_max_threads {
            dest.has_thread = true;
            self.active_threads += 1;
            self.tele.active_threads.set(self.active_threads as i64);
            self.work_dest(ctx, key);
        } else if !self.waiting.contains(&key) {
            self.waiting.push_back(key);
        }
    }

    /// Advances a destination that owns a thread: does what its link says
    /// until the link waits on an event (the connect's outcome, the
    /// backoff timer) or has nothing left to write, which frees the thread.
    fn work_dest(&mut self, ctx: &mut Ctx<'_>, key: DestKey) {
        loop {
            let Some(dest) = self.dests.get_mut(&key) else {
                return;
            };
            match dest.link.next(!dest.queue.is_empty()) {
                LinkStep::Connect => {
                    let conn = ctx.connect(&key.0, key.1, CONNECT_TIMEOUT);
                    self.dest_conns.insert(conn, key);
                    return;
                }
                // Hold the thread through the backoff — this is the
                // blocked-WsThread behaviour.
                LinkStep::Wait(backoff_us) => {
                    return self.arm_dest_timer(ctx, key, SimDuration::from_micros(backoff_us));
                }
                LinkStep::Write => {
                    let conn = dest.conn.expect("an up link has its connection");
                    let (mut wrote, mut broken) = (0, false);
                    for (_, payload) in dest.link.batch() {
                        if ctx.send(conn, payload.clone()).is_err() {
                            broken = true;
                            break;
                        }
                        wrote += 1;
                    }
                    if wrote > 0 {
                        self.stats.delivered.add(dest.link.wrote(wrote) as u64);
                        self.stats.drain_batches.inc();
                    }
                    if broken {
                        // Connection died under us: the batch goes out on
                        // the next one.
                        self.dest_conns.remove(&conn);
                        dest.conn = None;
                        dest.link.write_failed();
                    }
                }
                LinkStep::GiveUp(lost) => {
                    let n = lost.len() + dest.queue.len();
                    dest.queue.clear();
                    self.stats.drop(DropReason::GivenUp, n as u64);
                }
                LinkStep::Idle | LinkStep::Await => {
                    let up = dest.link.is_up();
                    if up && !dest.queue.is_empty() {
                        let n = dest.queue.len().min(DRAIN_BATCH);
                        dest.link.take(dest.queue.drain(..n));
                        continue;
                    }
                    // Nothing left to write (answers arrive as events):
                    // release the thread, keep a live connection warm.
                    let depth = dest.queue.len();
                    self.tele.dest_queue_depth(&key).set(depth as i64);
                    self.release_thread(ctx, &key);
                    if up {
                        self.arm_dest_timer(ctx, key, to_sim(self.config.connection_linger));
                    }
                    return;
                }
            }
        }
    }

    /// Arms the destination's timer; one armed earlier goes stale.
    fn arm_dest_timer(&mut self, ctx: &mut Ctx<'_>, key: DestKey, after: SimDuration) {
        let token = self.token();
        if let Some(dest) = self.dests.get_mut(&key) {
            dest.timer = token;
        }
        self.dest_timers.insert(token, key);
        ctx.set_timer(after, token);
    }

    fn release_thread(&mut self, ctx: &mut Ctx<'_>, key: &DestKey) {
        if let Some(dest) = self.dests.get_mut(key) {
            if !dest.has_thread {
                return;
            }
            dest.has_thread = false;
        }
        self.active_threads = self.active_threads.saturating_sub(1);
        self.tele.active_threads.set(self.active_threads as i64);
        // Hand the slot to the next waiting destination with work.
        while self.active_threads < self.config.ws_max_threads {
            let Some(next) = self.waiting.pop_front() else {
                break;
            };
            self.schedule_dest(ctx, next);
        }
    }

    /// Handles an HTTP response arriving on a destination connection.
    fn on_dest_response(&mut self, ctx: &mut Ctx<'_>, key: DestKey, bytes: Payload) {
        // The request this answers: the oldest the link wrote to the
        // connection the answer came in on.
        let request = self.dests.get_mut(&key).and_then(|d| d.link.answered());
        // Only a 200 carries a reply to translate: a plain ack (202) or an
        // error is read no further than its status.
        if wsd_http::response_status(&bytes) != Some(Status::OK) {
            return;
        }
        let Ok(resp) = wsd_http::parse_response_bytes(&bytes) else {
            return;
        };
        let req_id = request.as_ref().map(|(msg_id, _)| msg_id.as_str());
        let Some(routable) = correlate_rpc_reply(&resp, req_id) else {
            return;
        };
        // Translation costs CxThread CPU like any inbound message — this
        // is why Table 1 calls the RPC server "a bottleneck (translation
        // of semantics from messaging to RPC)".
        let synthetic = Request::soap_post(
            "translated",
            "/msg",
            SoapVersion::V11.content_type(),
            routable.into_owned().into_bytes(),
        );
        let done_at = self.cpu.reserve(ctx.now(), self.dispatch_time);
        let token = self.token();
        self.routing
            .insert(token, (None, request_payload(&synthetic)));
        ctx.set_timer(done_at.since(ctx.now()), token);
    }
}

impl Process for SimMsgDispatcher {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::ConnAccepted { .. } => {}
            ProcEvent::Message { conn, bytes } => {
                if let Some(key) = self.dest_conns.get(&conn).cloned() {
                    // A response from a destination. `202` is a plain
                    // ack; `200` with a SOAP body is an *RPC* service
                    // answering synchronously — translate it into a reply
                    // message (Table 1 quadrant 3).
                    self.on_dest_response(ctx, key, bytes);
                    return;
                }
                self.stats.received.inc();
                let done_at = self.cpu.reserve(ctx.now(), self.dispatch_time);
                let token = self.token();
                self.routing.insert(token, (Some(conn), bytes));
                ctx.set_timer(done_at.since(ctx.now()), token);
            }
            ProcEvent::Timer { token } => {
                if self.janitor_armed && token == self.janitor_token {
                    // The route-table janitor (paper §4.4: routes carry
                    // expiration). Re-armed only while routes are
                    // pending, so an idle simulation can drain.
                    self.janitor_armed = false;
                    let ttl_us = ROUTE_TTL.as_micros() as u64;
                    self.core.expire_routes(ctx.now().as_micros(), ttl_us);
                    self.arm_janitor(ctx);
                } else if let Some((conn, raw)) = self.routing.remove(&token) {
                    self.route_now(ctx, conn, raw);
                } else if let Some(key) = self.dest_timers.remove(&token) {
                    let Some(dest) = self.dests.get_mut(&key).filter(|d| d.timer == token) else {
                        return;
                    };
                    if dest.link.backoff_elapsed() {
                        self.work_dest(ctx, key);
                    } else if dest.queue.is_empty() && dest.link.idle_expired() {
                        if let Some(conn) = dest.conn.take() {
                            self.dest_conns.remove(&conn);
                            ctx.close(conn);
                        }
                    }
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some(key) = self.dest_conns.get(&conn).cloned() {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        dest.link.connected();
                        dest.conn = Some(conn);
                        self.work_dest(ctx, key);
                    }
                }
            }
            ProcEvent::ConnRefused { conn, .. } => {
                if let Some(key) = self.dest_conns.remove(&conn) {
                    if let Some(dest) = self.dests.get_mut(&key) {
                        dest.link.connect_failed();
                        self.work_dest(ctx, key);
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if let Some(key) = self.dest_conns.remove(&conn) {
                    // An established connection has no thread on it between
                    // events. What it left unanswered goes out once more on
                    // a fresh one; its ids die with it.
                    if let Some(dest) = self.dests.get_mut(&key).filter(|d| d.conn == Some(conn)) {
                        dest.conn = None;
                        dest.link.connection_lost();
                        self.schedule_dest(ctx, key);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::sim::{EchoMode, SimEchoService};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wsd_http::Response;
    use wsd_soap::rpc as soap_rpc;
    use wsd_wsa::{EndpointReference, WsaHeaders};
    use wsd_netsim::{FirewallPolicy, HostConfig, Simulation};

    /// Sends `total` one-way echo requests, paced by 202 acks; records
    /// replies POSTed to its callback listener.
    struct OneWayClient {
        total: usize,
        sent: usize,
        reply_to: String,
        got_acks: Rc<RefCell<usize>>,
    }

    impl OneWayClient {
        fn request(&self, i: usize) -> Payload {
            let mut env = soap_rpc::echo_request(SoapVersion::V11, &format!("m{i}"));
            WsaHeaders::new()
                .to("http://dispatcher/svc/Echo")
                .reply_to(EndpointReference::new(&self.reply_to))
                .message_id(format!("uuid:{}-{i}", self.reply_to))
                .apply(&mut env);
            let req = Request::soap_post(
                "dispatcher:8080",
                "/msg",
                SoapVersion::V11.content_type(),
                env.to_xml().into_bytes(),
            );
            request_payload(&req)
        }
    }

    impl Process for OneWayClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect("dispatcher", 8080, SimDuration::from_secs(5));
                }
                ProcEvent::ConnEstablished { conn } => {
                    let msg = self.request(self.sent);
                    ctx.send(conn, msg).unwrap();
                    self.sent += 1;
                }
                ProcEvent::Message { conn, bytes }
                    if bytes.starts_with(b"HTTP/1.1 202") => {
                        *self.got_acks.borrow_mut() += 1;
                        if self.sent < self.total {
                            let msg = self.request(self.sent);
                            let _ = ctx.send(conn, msg);
                            self.sent += 1;
                        }
                    }
                _ => {}
            }
        }
    }

    struct ReplySink {
        got: Rc<RefCell<Vec<String>>>,
    }

    impl Process for ReplySink {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Message { conn, bytes } = ev {
                self.got
                    .borrow_mut()
                    .push(String::from_utf8_lossy(&bytes).to_string());
                let ack = Response::empty(Status::ACCEPTED);
                let _ = ctx.send(conn, response_payload(&ack));
            }
        }
    }

    type BuildOut = (
        Simulation,
        MsgCounters,
        Gauge,
        crate::echo::EchoCounters,
        Rc<RefCell<Vec<String>>>,
        Rc<RefCell<usize>>,
    );

    fn build(client_firewalled: bool, threads: usize) -> BuildOut {
        build_observed(client_firewalled, threads, &Scope::noop())
    }

    fn build_observed(client_firewalled: bool, threads: usize, scope: &Scope) -> BuildOut {
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_cfg = if client_firewalled {
            HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly)
        } else {
            HostConfig::named("client")
        };
        let client_host = sim.add_host(client_cfg);

        // Echo service in one-way mode, replying through the dispatcher.
        let service =
            SimEchoService::new(EchoMode::OneWay { workers: 8 }, SimDuration::from_millis(2));
        let echo_stats = service.stats();
        let ws = sim.spawn(ws_host, Box::new(service));
        sim.listen(ws, 8888);

        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 9);
        let dispatcher = SimMsgDispatcher::new(
            core,
            SimDuration::from_millis(2),
            DispatcherConfig {
                ws_max_threads: threads,
                ..DispatcherConfig::default()
            },
        )
        .with_telemetry(scope);
        let (stats, threads) = (dispatcher.stats(), dispatcher.active_threads());
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);

        // Client callback listener + sender.
        let got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: got.clone() }));
        sim.listen(sink, 9000);
        let acks = Rc::new(RefCell::new(0));
        sim.spawn(
            client_host,
            Box::new(OneWayClient {
                total: 5,
                sent: 0,
                reply_to: "http://client:9000/cb".into(),
                got_acks: acks.clone(),
            }),
        );
        (sim, stats, threads, echo_stats, got, acks)
    }

    #[test]
    fn full_round_trip_through_dispatcher() {
        let (mut sim, stats, _threads, echo_stats, got, acks) = build(false, 16);
        sim.run();
        assert_eq!(stats.forwarded.get(), 5);
        assert_eq!(echo_stats.accepted.get(), 5);
        assert_eq!(stats.replies_routed.get(), 5, "WS replies must route back");
        assert_eq!(stats.delivered.get(), 10);
        assert_eq!(got.borrow().len(), 5, "client must receive 5 replies");
        assert_eq!(*acks.borrow(), 5);
        // Replies carry correlation to the original ids.
        assert!(got.borrow()[0].contains("RelatesTo"));
    }

    #[test]
    fn firewalled_client_replies_are_dropped_after_retries() {
        let reg = wsd_telemetry::Registry::new();
        let (mut sim, stats, threads, echo_stats, got, _acks) =
            build_observed(true, 16, &reg.scope("msg_dispatcher"));
        sim.run();
        // Everything forwards and the WS processes it...
        assert_eq!(stats.forwarded.get(), 5);
        assert_eq!(echo_stats.accepted.get(), 5);
        // ...but replies can't reach the firewalled client.
        assert_eq!(got.borrow().len(), 0);
        assert_eq!(stats.dropped_for(DropReason::GivenUp), 5);
        assert_eq!(
            stats.forwarded.get() + stats.replies_routed.get(),
            stats.written_or_dropped()
        );
        let snap = reg.snapshot();
        stats.assert_matches(&snap, "msg_dispatcher");
        assert!(threads.peak() >= 1);
        assert_eq!(threads.peak(), snap.gauge_peak("msg_dispatcher.active_threads"));
    }

    #[test]
    fn blocked_destination_holds_a_thread() {
        let (mut sim, stats, threads, _echo, _got, _acks) = build(true, 1);
        // With a single WsThread, the blocked client destination and the
        // WS destination compete for it; everything still completes, but
        // the run takes at least the connect-timeout + backoff cycles.
        sim.run();
        assert!(sim.now().as_secs_f64() >= 3.0, "{}", sim.now());
        assert_eq!(threads.peak(), 1);
        assert_eq!(stats.dropped.get(), 5);
    }

    #[test]
    fn connection_reuse_across_messages() {
        let (mut sim, stats, _threads, echo_stats, _got, _acks) = build(false, 16);
        sim.run();
        // 5 messages delivered to the WS over (at most) one or two
        // connections — delivered counts messages, not connections.
        assert!(stats.delivered.get() >= 5);
        assert_eq!(echo_stats.accepted.get(), 5);
    }

    #[test]
    fn unroutable_message_gets_400() {
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let core = MsgCore::new(Arc::new(Registry::new()), "http://dispatcher:8080/msg", 9);
        let dispatcher = SimMsgDispatcher::new(
            core,
            SimDuration::from_millis(1),
            DispatcherConfig::default(),
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8080);

        struct BadClient {
            responses: Rc<RefCell<Vec<String>>>,
        }
        impl Process for BadClient {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start => {
                        ctx.connect("dispatcher", 8080, SimDuration::from_secs(5));
                    }
                    ProcEvent::ConnEstablished { conn } => {
                        // No WSA headers at all: unroutable.
                        let env = soap_rpc::echo_request(SoapVersion::V11, "x");
                        let req = Request::soap_post(
                            "dispatcher:8080",
                            "/msg",
                            SoapVersion::V11.content_type(),
                            env.to_xml().into_bytes(),
                        );
                        ctx.send(conn, request_payload(&req)).unwrap();
                    }
                    ProcEvent::Message { bytes, .. } => {
                        self.responses
                            .borrow_mut()
                            .push(String::from_utf8_lossy(&bytes).to_string());
                    }
                    _ => {}
                }
            }
        }
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(BadClient {
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.rejected.get(), 1);
        let got = &responses.borrow()[0];
        assert!(got.starts_with("HTTP/1.1 400"), "{got}");
        assert!(got.contains("message has no destination"), "{got}");
    }
}
