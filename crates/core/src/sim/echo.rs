//! The simulated echo Web Service — the paper's test service, in both
//! interaction styles of Table 1.
//!
//! * [`EchoMode::Rpc`]: the response rides the same connection, after the
//!   service's CPU time (which can exceed the client's HTTP timeout —
//!   Table 1's "may not work at all if message reply comes too late").
//! * [`EchoMode::OneWay`]: the response is a fresh one-way message to the
//!   request's `wsa:ReplyTo`. Reply work occupies one of a bounded pool
//!   of worker threads; when the reply endpoint is firewalled, each
//!   attempt blocks a worker for the whole [`CONNECT_TIMEOUT`] — the
//!   mechanism behind Figure 6's slowest curve.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use wsd_http::{parse_request_bytes, Request, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};
use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};
use wsd_wsa::WsaHeaders;

use crate::sim::{response_payload, CpuQueue, CONNECT_TIMEOUT};
use crate::url::Url;

/// Interaction style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EchoMode {
    /// Request/response on one connection.
    Rpc,
    /// Fire-and-forget requests; replies are new one-way messages.
    OneWay {
        /// Worker threads shared by processing and reply delivery.
        workers: usize,
    },
}

#[derive(Debug, Default)]
struct EchoStatsInner {
    accepted: u64,
    processed: u64,
    responses_sent: u64,
    replies_blocked: u64,
    active_conns: usize,
}

/// Shared, cheaply clonable view of the service's counters.
#[derive(Debug, Clone, Default)]
pub struct EchoStats {
    inner: Rc<RefCell<EchoStatsInner>>,
}

impl EchoStats {
    /// Requests accepted off the wire.
    pub fn accepted(&self) -> u64 {
        self.inner.borrow().accepted
    }
    /// Requests fully processed (service time spent).
    pub fn processed(&self) -> u64 {
        self.inner.borrow().processed
    }
    /// RPC responses (or one-way replies) actually sent.
    pub fn responses_sent(&self) -> u64 {
        self.inner.borrow().responses_sent
    }
    /// One-way replies abandoned because the endpoint was unreachable.
    pub fn replies_blocked(&self) -> u64 {
        self.inner.borrow().replies_blocked
    }
    /// Currently open inbound connections.
    pub fn active_conns(&self) -> usize {
        self.inner.borrow().active_conns
    }
}

type DestKey = (String, u16);

enum DestState {
    /// Connection in flight; replies queued behind it (each still holds
    /// its worker).
    Connecting { queued: Vec<Payload> },
    /// Kept-open connection.
    Ready(ConnId),
}

/// The echo service process.
pub struct SimEchoService {
    mode: EchoMode,
    /// CPU cost per request.
    service_time: SimDuration,
    /// Per-open-connection slowdown factor (Figure 5's contention droop):
    /// effective time = `service_time × (1 + penalty × active_conns)`.
    conn_penalty: f64,
    stats: EchoStats,
    cpu: CpuQueue,
    next_token: u64,
    /// RPC: timer token → (connection, finished response payload).
    pending_rpc: HashMap<u64, (ConnId, Payload)>,
    /// One-way: parsed requests (and the connection to ack on) awaiting a
    /// worker. The ack is only sent once a worker picks the message up —
    /// acceptance is coupled to processing, as in the paper's service.
    inbox: VecDeque<(ConnId, Envelope)>,
    busy_workers: usize,
    /// One-way: timer token → request whose service time just finished.
    in_service: HashMap<u64, (ConnId, Envelope)>,
    dests: HashMap<DestKey, DestState>,
    connecting: HashMap<ConnId, DestKey>,
    ready_conn_keys: HashMap<ConnId, DestKey>,
    inbound: HashSet<ConnId>,
}

impl SimEchoService {
    /// Creates the service.
    pub fn new(mode: EchoMode, service_time: SimDuration) -> Self {
        SimEchoService {
            mode,
            service_time,
            conn_penalty: 0.0,
            stats: EchoStats::default(),
            cpu: CpuQueue::default(),
            next_token: 0,
            pending_rpc: HashMap::new(),
            inbox: VecDeque::new(),
            busy_workers: 0,
            in_service: HashMap::new(),
            dests: HashMap::new(),
            connecting: HashMap::new(),
            ready_conn_keys: HashMap::new(),
            inbound: HashSet::new(),
        }
    }

    /// Sets the contention penalty. Returns `self` for chaining.
    pub fn with_conn_penalty(mut self, penalty: f64) -> Self {
        self.conn_penalty = penalty;
        self
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> EchoStats {
        self.stats.clone()
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    fn effective_service_time(&self) -> SimDuration {
        let factor = 1.0 + self.conn_penalty * self.stats.active_conns() as f64;
        SimDuration((self.service_time.0 as f64 * factor) as u64)
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: Payload) {
        let Ok(req) = parse_request_bytes(&bytes) else {
            let resp = Response::empty(Status::BAD_REQUEST);
            let _ = ctx.send(conn, response_payload(&resp));
            return;
        };
        let Ok(env) = Envelope::parse(&req.body_utf8()) else {
            let resp = Response::empty(Status::BAD_REQUEST);
            let _ = ctx.send(conn, response_payload(&resp));
            return;
        };
        self.stats.inner.borrow_mut().accepted += 1;
        match self.mode {
            EchoMode::Rpc => self.start_rpc(ctx, conn, &req, env),
            EchoMode::OneWay { .. } => {
                // The ack (202) is sent when a worker starts the message:
                // closed-loop senders are paced by the service's actual
                // processing rate (paper §4.3.2: blocked replies lead to
                // "fewer messages accepted by the Web Service").
                self.inbox.push_back((conn, env));
                self.pump(ctx);
            }
        }
    }

    fn start_rpc(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _req: &Request, env: Envelope) {
        let text = soap_rpc::parse_echo(&env).unwrap_or_default();
        let reply = soap_rpc::echo_response(env.version, &text);
        let resp = Response::new(
            Status::OK,
            env.version.content_type(),
            reply.to_xml().into_bytes(),
        );
        let done_at = self.cpu.reserve(ctx.now(), self.effective_service_time());
        let token = self.token();
        self.pending_rpc
            .insert(token, (conn, response_payload(&resp)));
        ctx.set_timer(done_at.since(ctx.now()), token);
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let EchoMode::OneWay { workers } = self.mode else {
            return;
        };
        while self.busy_workers < workers {
            let Some((conn, env)) = self.inbox.pop_front() else {
                break;
            };
            self.busy_workers += 1;
            let done_at = self.cpu.reserve(ctx.now(), self.effective_service_time());
            let token = self.token();
            self.in_service.insert(token, (conn, env));
            ctx.set_timer(done_at.since(ctx.now()), token);
        }
    }

    fn on_service_done(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, env: Envelope) {
        self.stats.inner.borrow_mut().processed += 1;
        // Acknowledge acceptance now that the message has been processed.
        let ack = Response::empty(Status::ACCEPTED);
        let _ = ctx.send(conn, response_payload(&ack));
        // Build the one-way reply addressed to the request's ReplyTo.
        let headers = WsaHeaders::from_envelope(&env).unwrap_or_default();
        let Some(reply_to) = headers.reply_to.filter(|r| !r.is_anonymous()) else {
            // Nowhere to reply: the worker is done.
            self.busy_workers = self.busy_workers.saturating_sub(1);
            self.pump(ctx);
            return;
        };
        let Ok(url) = Url::parse(&reply_to.address) else {
            self.stats.inner.borrow_mut().replies_blocked += 1;
            self.busy_workers = self.busy_workers.saturating_sub(1);
            self.pump(ctx);
            return;
        };
        let text = soap_rpc::parse_echo(&env).unwrap_or_default();
        let mut reply = soap_rpc::echo_response(env.version, &text);
        let mut h = WsaHeaders::new().to(reply_to.address.clone());
        if let Some(id) = headers.message_id {
            h = h.relates_to(id);
        }
        h.apply(&mut reply);
        let req = Request::soap_post(
            &url.authority(),
            &url.path,
            SoapVersion::V11.content_type(),
            reply.to_xml().into_bytes(),
        );
        self.deliver_reply(ctx, (url.host.clone(), url.port), crate::sim::request_payload(&req));
    }

    fn deliver_reply(&mut self, ctx: &mut Ctx<'_>, key: DestKey, payload: Payload) {
        match self.dests.get_mut(&key) {
            Some(DestState::Ready(conn)) => {
                let conn = *conn;
                if ctx.send(conn, payload.clone()).is_ok() {
                    self.finish_replies(ctx, 1, true);
                } else {
                    // Stale connection: drop it and reconnect.
                    self.dests.remove(&key);
                    self.ready_conn_keys.remove(&conn);
                    self.start_connect(ctx, key, payload);
                }
            }
            Some(DestState::Connecting { queued }) => queued.push(payload),
            None => self.start_connect(ctx, key, payload),
        }
    }

    fn start_connect(&mut self, ctx: &mut Ctx<'_>, key: DestKey, payload: Payload) {
        let conn = ctx.connect(&key.0, key.1, CONNECT_TIMEOUT);
        self.connecting.insert(conn, key.clone());
        self.dests.insert(
            key,
            DestState::Connecting {
                queued: vec![payload],
            },
        );
    }

    /// Releases `n` workers, crediting sent or blocked replies.
    fn finish_replies(&mut self, ctx: &mut Ctx<'_>, n: usize, sent: bool) {
        {
            let mut s = self.stats.inner.borrow_mut();
            if sent {
                s.responses_sent += n as u64;
            } else {
                s.replies_blocked += n as u64;
            }
        }
        self.busy_workers = self.busy_workers.saturating_sub(n);
        self.pump(ctx);
    }
}

impl Process for SimEchoService {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {}
            ProcEvent::ConnAccepted { conn, .. } => {
                self.inbound.insert(conn);
                self.stats.inner.borrow_mut().active_conns += 1;
            }
            ProcEvent::Message { conn, bytes } => {
                // Traffic on our own outbound reply connections (202 acks
                // from dispatchers/mailboxes) is not a request.
                if self.ready_conn_keys.contains_key(&conn) || self.connecting.contains_key(&conn)
                {
                    return;
                }
                self.on_request(ctx, conn, bytes);
            }
            ProcEvent::Timer { token } => {
                if let Some((conn, payload)) = self.pending_rpc.remove(&token) {
                    // RPC service time elapsed: reply on the same
                    // connection (silently dropped if the client gave up —
                    // Table 1 quadrant 2).
                    if ctx.send(conn, payload).is_ok() {
                        self.stats.inner.borrow_mut().responses_sent += 1;
                    }
                    self.stats.inner.borrow_mut().processed += 1;
                } else if let Some((conn, env)) = self.in_service.remove(&token) {
                    self.on_service_done(ctx, conn, env);
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some(key) = self.connecting.remove(&conn) {
                    if let Some(DestState::Connecting { queued }) = self.dests.remove(&key) {
                        let n = queued.len();
                        let mut ok = 0;
                        for p in queued {
                            if ctx.send(conn, p).is_ok() {
                                ok += 1;
                            }
                        }
                        self.dests.insert(key.clone(), DestState::Ready(conn));
                        self.ready_conn_keys.insert(conn, key);
                        self.finish_replies(ctx, ok, true);
                        if n > ok {
                            self.finish_replies(ctx, n - ok, false);
                        }
                    }
                }
            }
            ProcEvent::ConnRefused { conn, .. } => {
                if let Some(key) = self.connecting.remove(&conn) {
                    if let Some(DestState::Connecting { queued }) = self.dests.remove(&key) {
                        let n = queued.len();
                        self.finish_replies(ctx, n, false);
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if self.inbound.remove(&conn) {
                    let mut s = self.stats.inner.borrow_mut();
                    s.active_conns = s.active_conns.saturating_sub(1);
                } else if let Some(key) = self.ready_conn_keys.remove(&conn) {
                    self.dests.remove(&key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_netsim::{FirewallPolicy, HostConfig, Simulation};

    /// A test client: RPC mode does call/response; OneWay mode sends a
    /// message with ReplyTo and optionally listens for the reply.
    struct TestClient {
        target: (String, u16),
        body: Payload,
        responses: Rc<RefCell<Vec<String>>>,
    }

    impl Process for TestClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect(&self.target.0, self.target.1, SimDuration::from_secs(5));
                }
                ProcEvent::ConnEstablished { conn } => {
                    ctx.send(conn, self.body.clone()).unwrap();
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

    /// A listener that records anything POSTed to it (a reply endpoint).
    struct ReplySink {
        got: Rc<RefCell<Vec<String>>>,
    }

    impl Process for ReplySink {
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: ProcEvent) {
            if let ProcEvent::Message { bytes, .. } = ev {
                self.got
                    .borrow_mut()
                    .push(String::from_utf8_lossy(&bytes).to_string());
            }
        }
    }

    fn rpc_request_payload(text: &str) -> Payload {
        let env = soap_rpc::echo_request(SoapVersion::V11, text);
        let req = Request::soap_post(
            "ws",
            "/echo",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        crate::sim::request_payload(&req)
    }

    fn oneway_request_payload(text: &str, reply_to: &str, msg_id: &str) -> Payload {
        let mut env = soap_rpc::echo_request(SoapVersion::V11, text);
        WsaHeaders::new()
            .to("http://ws/echo")
            .reply_to(wsd_wsa::EndpointReference::new(reply_to))
            .message_id(msg_id)
            .apply(&mut env);
        let req = Request::soap_post(
            "ws",
            "/echo",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        crate::sim::request_payload(&req)
    }

    #[test]
    fn rpc_mode_echoes_on_same_connection() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(10));
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                target: ("ws".into(), 80),
                body: rpc_request_payload("bonjour"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.accepted(), 1);
        assert_eq!(stats.responses_sent(), 1);
        let got = responses.borrow();
        assert_eq!(got.len(), 1);
        assert!(got[0].contains("bonjour"), "{}", got[0]);
        assert!(got[0].starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn rpc_service_time_caps_throughput() {
        // 10 ms of CPU per request: 5 concurrent requests finish ~50 ms
        // after the last arrives, not in parallel.
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let service = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(10));
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        let responses = Rc::new(RefCell::new(vec![]));
        for i in 0..5 {
            let ch = sim.add_host(HostConfig::named(format!("c{i}")));
            sim.spawn(
                ch,
                Box::new(TestClient {
                    target: ("ws".into(), 80),
                    body: rpc_request_payload("x"),
                    responses: responses.clone(),
                }),
            );
        }
        sim.run();
        assert_eq!(stats.responses_sent(), 5);
        // Serial CPU: total ≥ 5 × 10 ms.
        assert!(sim.now().as_secs_f64() >= 0.05, "{}", sim.now());
    }

    #[test]
    fn oneway_replies_to_reply_to_endpoint() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimEchoService::new(
            EchoMode::OneWay { workers: 4 },
            SimDuration::from_millis(10),
        );
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        // The client's reply endpoint (open).
        let got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: got.clone() }));
        sim.listen(sink, 9000);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                target: ("ws".into(), 80),
                body: oneway_request_payload("salut", "http://client:9000/cb", "uuid:1"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        // The client got the 202 ack on the request connection.
        assert!(responses.borrow()[0].starts_with("HTTP/1.1 202"));
        // The reply arrived at the callback endpoint, correlated.
        let replies = got.borrow();
        assert_eq!(replies.len(), 1);
        assert!(replies[0].contains("salut"));
        assert!(replies[0].contains("uuid:1"), "RelatesTo must correlate");
        assert_eq!(stats.responses_sent(), 1);
        assert_eq!(stats.replies_blocked(), 0);
    }

    #[test]
    fn oneway_blocked_replies_stall_workers() {
        // Reply endpoint behind a firewall: every reply attempt blocks a
        // worker for the full connect timeout (Figure 6, worst curve).
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host =
            sim.add_host(HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly));
        let service = SimEchoService::new(
            EchoMode::OneWay { workers: 1 },
            SimDuration::from_millis(1),
        );
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        let sink_got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: sink_got.clone() }));
        sim.listen(sink, 9000);
        for i in 0..3 {
            sim.spawn(
                client_host,
                Box::new(TestClient {
                    target: ("ws".into(), 80),
                    body: oneway_request_payload(
                        &format!("m{i}"),
                        "http://client:9000/cb",
                        &format!("uuid:{i}"),
                    ),
                    responses: Rc::new(RefCell::new(vec![])),
                }),
            );
        }
        sim.run();
        assert_eq!(stats.accepted(), 3);
        assert_eq!(stats.replies_blocked(), 3);
        assert!(sink_got.borrow().is_empty());
        // One worker, ~3 s blocked per reply: at least ~9 s of virtual
        // time (the queue feeds one blocked attempt after another; the
        // connection cache coalesces per destination, so attempts to the
        // same dead client batch — still ≥ one full timeout).
        assert!(sim.now().as_secs_f64() >= 3.0, "{}", sim.now());
    }

    #[test]
    fn oneway_connection_reuse_batches_replies() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimEchoService::new(
            EchoMode::OneWay { workers: 8 },
            SimDuration::from_millis(1),
        );
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        let got = Rc::new(RefCell::new(vec![]));
        let sink = sim.spawn(client_host, Box::new(ReplySink { got: got.clone() }));
        sim.listen(sink, 9000);
        for i in 0..10 {
            sim.spawn(
                client_host,
                Box::new(TestClient {
                    target: ("ws".into(), 80),
                    body: oneway_request_payload(
                        &format!("m{i}"),
                        "http://client:9000/cb",
                        &format!("uuid:{i}"),
                    ),
                    responses: Rc::new(RefCell::new(vec![])),
                }),
            );
        }
        sim.run();
        assert_eq!(stats.responses_sent(), 10);
        assert_eq!(got.borrow().len(), 10);
    }

    #[test]
    fn malformed_request_gets_400() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(1));
        let stats = service.stats();
        let sp = sim.spawn(ws_host, Box::new(service));
        sim.listen(sp, 80);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                target: ("ws".into(), 80),
                body: Payload::from_static(b"GARBAGE\r\n\r\n"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert!(responses.borrow()[0].starts_with("HTTP/1.1 400"));
        assert_eq!(stats.accepted(), 0);
    }

    #[test]
    fn contention_penalty_slows_effective_service() {
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(10))
            .with_conn_penalty(0.01);
        assert_eq!(svc.effective_service_time(), SimDuration::from_millis(10));
        svc.stats.inner.borrow_mut().active_conns = 100;
        assert_eq!(svc.effective_service_time(), SimDuration::from_millis(20));
    }
}
