//! The simulated echo Web Service: [`crate::echo`] decides every answer
//! and keeps the books; this driver models what Figures 5 and 6 depend on.
//!
//! * [`EchoMode::Rpc`]: the response rides the same connection, after the
//!   service's CPU time, which droops with every open connection (Fig. 5)
//!   and can exceed the client's HTTP timeout (Table 1 quadrant 2).
//! * [`EchoMode::OneWay`]: the reply is a fresh one-way message to the
//!   request's `wsa:ReplyTo`, sent by one of a bounded pool of workers;
//!   a firewalled reply endpoint blocks a worker for the whole
//!   [`CONNECT_TIMEOUT`] — Figure 6's slowest curve.

use std::collections::{HashMap, HashSet, VecDeque};

use wsd_http::{parse_request_bytes, Request, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};

use crate::echo::{Echo, EchoCounters, EchoMode};
use crate::sim::{request_payload, response_payload, CpuQueue, ACCEPTED, CONNECT_TIMEOUT};

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
    /// Per-open-connection slowdown factor: effective time =
    /// `service_time × (1 + penalty × open inbound connections)`.
    conn_penalty: f64,
    books: EchoCounters,
    cpu: CpuQueue,
    next_token: u64,
    /// One-way: accepted requests (and the connection to ack on) awaiting
    /// a worker; the ack waits for the processing, as in the paper.
    inbox: VecDeque<(ConnId, Echo)>,
    busy_workers: usize,
    /// Timer token → request whose service time is running.
    in_service: HashMap<u64, (ConnId, Echo)>,
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
            books: EchoCounters::default(),
            cpu: CpuQueue::default(),
            next_token: 0,
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
    pub fn stats(&self) -> EchoCounters {
        self.books.clone()
    }

    fn effective_service_time(&self) -> SimDuration {
        let factor = 1.0 + self.conn_penalty * self.inbound.len() as f64;
        SimDuration((self.service_time.0 as f64 * factor) as u64)
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: Payload) {
        let echo = match parse_request_bytes(&bytes) {
            Ok(req) => self.books.accept(self.mode, &req),
            Err(_) => Err(Response::empty(Status::BAD_REQUEST)),
        };
        match echo {
            Err(resp) => drop(ctx.send(conn, response_payload(&resp))),
            Ok(echo) if self.mode == EchoMode::Rpc => self.start(ctx, conn, echo),
            Ok(echo) => {
                // Senders are paced by the processing (paper §4.3.2: blocked
                // replies lead to "fewer messages accepted by the Web Service").
                self.inbox.push_back((conn, echo));
                self.pump(ctx);
            }
        }
    }

    /// Reserves the CPU for `echo`; its timer finishes it.
    fn start(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, echo: Echo) {
        let done_at = self.cpu.reserve(ctx.now(), self.effective_service_time());
        self.next_token += 1;
        self.in_service.insert(self.next_token, (conn, echo));
        ctx.set_timer(done_at.since(ctx.now()), self.next_token);
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let EchoMode::OneWay { workers } = self.mode else {
            return;
        };
        while self.busy_workers < workers {
            let Some((conn, echo)) = self.inbox.pop_front() else {
                break;
            };
            self.busy_workers += 1;
            self.start(ctx, conn, echo);
        }
    }

    fn on_service_done(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, echo: Echo) {
        self.books.process(&echo);
        if let Echo::Response(resp) = &echo {
            // Lost if the client gave up (Table 1 quadrant 2).
            let sent = ctx.send(conn, response_payload(resp)).is_ok();
            self.books.replied(1, sent);
            return;
        }
        // Acknowledge acceptance now that the message has been processed.
        let _ = ctx.send(conn, ACCEPTED);
        let Echo::Reply { to, version, xml } = echo else {
            return self.release(ctx, 1); // nothing to send
        };
        let content_type = version.content_type();
        let req = Request::soap_post(&to.authority(), &to.path, content_type, xml.into_bytes());
        self.deliver_reply(ctx, (to.host, to.port), request_payload(&req));
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
        self.dests.insert(key, DestState::Connecting { queued: vec![payload] });
    }

    /// Releases `n` workers, counting their replies sent or blocked.
    fn finish_replies(&mut self, ctx: &mut Ctx<'_>, n: usize, sent: bool) {
        self.books.replied(n as u64, sent);
        self.release(ctx, n);
    }

    fn release(&mut self, ctx: &mut Ctx<'_>, n: usize) {
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
                if let Some((conn, echo)) = self.in_service.remove(&token) {
                    self.on_service_done(ctx, conn, echo);
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some(key) = self.connecting.remove(&conn) {
                    if let Some(DestState::Connecting { queued }) = self.dests.remove(&key) {
                        let n = queued.len();
                        let sent = queued.into_iter().map(|p| ctx.send(conn, p));
                        let ok = sent.filter(Result::is_ok).count();
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
                        self.finish_replies(ctx, queued.len(), false);
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                self.inbound.remove(&conn);
                if let Some(key) = self.ready_conn_keys.remove(&conn) {
                    self.dests.remove(&key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wsd_soap::{rpc as soap_rpc, SoapVersion};
    use wsd_wsa::WsaHeaders;
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
        request_payload(&req)
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
        request_payload(&req)
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
        assert_eq!(stats.replies_sent.get(), 5);
        stats.assert_conserved();
        // Serial CPU: total ≥ 5 × 10 ms.
        assert!(sim.now().as_secs_f64() >= 0.05, "{}", sim.now());
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
        assert_eq!(stats.accepted.get(), 3);
        assert_eq!(stats.replies_blocked.get(), 3);
        assert!(sink_got.borrow().is_empty());
        stats.assert_conserved();
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
        assert_eq!(stats.replies_sent.get(), 10);
        assert_eq!(got.borrow().len(), 10);
        stats.assert_conserved();
    }

    #[test]
    fn contention_penalty_slows_effective_service() {
        let mut svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(10))
            .with_conn_penalty(0.01);
        assert_eq!(svc.effective_service_time(), SimDuration::from_millis(10));
        svc.inbound.extend((0..100).map(ConnId));
        assert_eq!(svc.effective_service_time(), SimDuration::from_millis(20));
    }
}
