//! The simulated RPC-Dispatcher (paper §4.2, first implementation
//! phase): an HTTP proxy that forwards RPC invocations.
//!
//! For each client request it resolves the logical address through the
//! registry, opens a *new* connection to the target WS ("this introduces
//! additional processing time to establish the forwarded connection"),
//! relays the response back on the original client connection, and closes
//! the upstream connection. It decides nothing itself: a request is a
//! [`crate::rpc`] exchange, planned on arrival and acted on once the CPU
//! has spent `dispatch_time` on it, and whichever event ends the forward
//! finishes it.

use std::collections::HashMap;
use std::sync::Arc;

use wsd_http::{parse_request_bytes, parse_response_bytes, Response};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, RefuseReason, SimDuration};
use wsd_telemetry::{Gauge, Scope};

use crate::config::DispatcherConfig;
use crate::registry::Registry;
use crate::rpc::{RpcCounters, RpcExchange, UpstreamFailure};
use crate::security::PolicyChain;
use crate::sim::{request_payload, response_payload, to_sim, CpuQueue, CONNECT_TIMEOUT};

/// A planned request: the forward to start, or the refusal to send.
type Planned = Result<(RpcExchange, Payload), Response>;

/// The RPC-Dispatcher as a simulation actor.
pub struct SimRpcDispatcher {
    registry: Arc<Registry>,
    policies: PolicyChain,
    /// CPU cost to parse + plan one request (header parse, registry
    /// lookup, header rewrite).
    dispatch_time: SimDuration,
    response_timeout: SimDuration,
    cpu: CpuQueue,
    stats: RpcCounters,
    /// Upstream requests awaiting a response.
    inflight: Gauge,
    next_token: u64,
    /// Planned requests waiting for dispatcher CPU: token → (client conn,
    /// plan).
    pending_plan: HashMap<u64, (ConnId, Planned)>,
    /// Upstream connections being established → (client conn, exchange,
    /// request to write).
    connecting: HashMap<ConnId, (ConnId, RpcExchange, Payload)>,
    /// Upstream connection → (client conn, exchange) awaiting the response.
    awaiting: HashMap<ConnId, (ConnId, RpcExchange)>,
    /// Response timeout timers: token → upstream connection.
    timeouts: HashMap<u64, ConnId>,
}

impl SimRpcDispatcher {
    /// Creates the dispatcher actor; of `config` it reads the
    /// `response_timeout`, as the threaded one does.
    pub fn new(
        registry: Arc<Registry>,
        dispatch_time: SimDuration,
        config: DispatcherConfig,
    ) -> Self {
        SimRpcDispatcher {
            registry,
            policies: PolicyChain::new(),
            dispatch_time,
            response_timeout: to_sim(config.response_timeout),
            cpu: CpuQueue::default(),
            stats: RpcCounters::new(&Scope::noop()),
            inflight: Gauge::new(),
            next_token: 0,
            pending_plan: HashMap::new(),
            connecting: HashMap::new(),
            awaiting: HashMap::new(),
            timeouts: HashMap::new(),
        }
    }

    /// Installs security policies. Returns `self` for chaining.
    pub fn with_policies(mut self, policies: PolicyChain) -> Self {
        self.policies = policies;
        self
    }

    /// Registers the counters and the `inflight` gauge under `scope`.
    /// Returns `self` for chaining.
    pub fn with_telemetry(mut self, scope: &Scope) -> Self {
        self.stats = RpcCounters::new(scope);
        self.inflight = scope.gauge("inflight");
        self
    }

    /// A handle to the live counters (take it after `with_telemetry`).
    pub fn stats(&self) -> RpcCounters {
        self.stats.clone()
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Ends an exchange taken off whichever map held it and sends the
    /// client what it answers.
    fn finish(
        &self,
        ctx: &mut Ctx<'_>,
        (client_conn, exchange): (ConnId, RpcExchange),
        out: Result<Response, UpstreamFailure>,
    ) {
        self.inflight.set(self.awaiting.len() as i64);
        let resp = self.stats.finish(&self.registry, exchange, out);
        let _ = ctx.send(client_conn, response_payload(&resp));
    }
}

impl Process for SimRpcDispatcher {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start | ProcEvent::ConnAccepted { .. } => {}
            ProcEvent::Message { conn, bytes } => {
                if let Some(job) = self.awaiting.remove(&conn) {
                    // Upstream response: relay on the original connection.
                    let outcome = parse_response_bytes(&bytes);
                    self.finish(ctx, job, outcome.map_err(|_| UpstreamFailure::ClosedEarly));
                    ctx.close(conn);
                } else if let Ok(req) = parse_request_bytes(&bytes) {
                    // Fresh client request: planned now, acted on once the
                    // dispatcher's CPU is done with it.
                    let planned = (self.stats.plan(&self.registry, &self.policies, &req))
                        .map(|(exchange, fwd)| (exchange, request_payload(&fwd)));
                    let done_at = self.cpu.reserve(ctx.now(), self.dispatch_time);
                    let token = self.token();
                    self.pending_plan.insert(token, (conn, planned));
                    ctx.set_timer(done_at.since(ctx.now()), token);
                } else {
                    ctx.close(conn); // no HTTP request: as the threaded front end does
                }
            }
            ProcEvent::Timer { token } => {
                if let Some((client_conn, planned)) = self.pending_plan.remove(&token) {
                    match planned {
                        Ok((exchange, payload)) => {
                            let url = &exchange.url;
                            let upstream = ctx.connect(&url.host, url.port, CONNECT_TIMEOUT);
                            self.connecting.insert(upstream, (client_conn, exchange, payload));
                        }
                        Err(refusal) => drop(ctx.send(client_conn, response_payload(&refusal))),
                    }
                } else if let Some(upstream) = self.timeouts.remove(&token) {
                    if let Some(job) = self.awaiting.remove(&upstream) {
                        // The WS took longer than the HTTP/TCP timeout.
                        self.finish(ctx, job, Err(UpstreamFailure::ResponseTimeout));
                        ctx.close(upstream);
                    }
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some((client_conn, exchange, payload)) = self.connecting.remove(&conn) {
                    if ctx.send(conn, payload).is_ok() {
                        self.stats.forwarded.inc();
                        self.awaiting.insert(conn, (client_conn, exchange));
                        self.inflight.set(self.awaiting.len() as i64);
                        let token = self.token();
                        self.timeouts.insert(token, conn);
                        ctx.set_timer(self.response_timeout, token);
                    } else {
                        self.finish(ctx, (client_conn, exchange), Err(UpstreamFailure::Send));
                    }
                }
            }
            ProcEvent::ConnRefused { conn, reason } => {
                if let Some((client_conn, exchange, _)) = self.connecting.remove(&conn) {
                    // The connecting side reads an RST either way.
                    let failure = match reason {
                        RefuseReason::NoListener => UpstreamFailure::NoListener("Refused".into()),
                        RefuseReason::AcceptOverflow => UpstreamFailure::Connect("Refused".into()),
                        other => UpstreamFailure::Connect(format!("{other:?}")),
                    };
                    self.finish(ctx, (client_conn, exchange), Err(failure));
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if let Some(job) = self.awaiting.remove(&conn) {
                    // Upstream died before responding.
                    self.finish(ctx, job, Err(UpstreamFailure::ClosedEarly));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{EchoMode, SimEchoService};
    use crate::url::Url;
    use wsd_http::Request;
    use wsd_netsim::{HostConfig, OverLimit, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::time::Duration;
    use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};

    struct TestClient {
        body: Payload,
        responses: Rc<RefCell<Vec<String>>>,
    }

    impl Process for TestClient {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect("dispatcher", 8081, SimDuration::from_secs(5));
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

    fn dispatcher_request(text: &str) -> Payload {
        let env = soap_rpc::echo_request(SoapVersion::V11, text);
        let req = Request::soap_post(
            "dispatcher:8081",
            "/svc/Echo",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        request_payload(&req)
    }

    fn setup(
        service_time: SimDuration,
        response_timeout: Duration,
    ) -> (Simulation, RpcCounters, Rc<RefCell<Vec<String>>>) {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));

        let service = SimEchoService::new(EchoMode::Rpc, service_time);
        let ws = sim.spawn(ws_host, Box::new(service));
        sim.listen(ws, 8888);

        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let config = DispatcherConfig { response_timeout, ..DispatcherConfig::default() };
        let dispatcher = SimRpcDispatcher::new(registry, SimDuration::from_millis(3), config);
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);

        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                body: dispatcher_request("via-proxy"),
                responses: responses.clone(),
            }),
        );
        (sim, stats, responses)
    }

    #[test]
    fn telemetry_mirrors_forward_counters() {
        let reg = wsd_telemetry::Registry::new();
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let ws = sim.spawn(
            ws_host,
            Box::new(SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(5))),
        );
        sim.listen(ws, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher = SimRpcDispatcher::new(
            registry,
            SimDuration::from_millis(3),
            DispatcherConfig::default(),
        )
        .with_telemetry(&reg.scope("rpc_dispatcher"));
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                body: dispatcher_request("observed"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rpc_dispatcher.received"), 1);
        assert_eq!(snap.counter("rpc_dispatcher.forwarded"), 1);
        assert_eq!(snap.counter("rpc_dispatcher.relayed"), 1);
        assert_eq!(snap.gauge_peak("rpc_dispatcher.inflight"), 1);
        assert_eq!(snap.counter("rpc_dispatcher.refused"), 0);
        stats.assert_matches(&snap, "rpc_dispatcher");
    }

    #[test]
    fn forwards_and_relays_response() {
        let (mut sim, stats, responses) =
            setup(SimDuration::from_millis(5), Duration::from_secs(30));
        sim.run();
        assert_eq!(stats.received.get(), 1);
        assert_eq!(stats.forwarded.get(), 1);
        assert_eq!(stats.relayed.get(), 1);
        stats.assert_conserved(0);
        let got = responses.borrow();
        assert!(got[0].starts_with("HTTP/1.1 200"), "{}", got[0]);
        assert!(got[0].contains("via-proxy"));
    }

    #[test]
    fn slow_service_times_out_with_bad_gateway() {
        // Table 1 quadrant 2: the response comes after the HTTP timeout.
        let (mut sim, stats, responses) =
            setup(SimDuration::from_secs(60), Duration::from_secs(5));
        sim.run();
        assert_eq!(stats.upstream_failures.get(), 1);
        // Forwarded, then timed out: a failure after the send.
        stats.assert_conserved(1);
        let got = responses.borrow();
        assert!(got[0].starts_with("HTTP/1.1 502"), "{}", got[0]);
        assert!(got[0].contains("timed out"));
    }

    #[test]
    fn unknown_service_yields_404() {
        let mut sim = Simulation::new(1);
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let dispatcher = SimRpcDispatcher::new(
            Arc::new(Registry::new()),
            SimDuration::from_millis(1),
            DispatcherConfig::default(),
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                body: dispatcher_request("x"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.refused.get(), 1);
        stats.assert_conserved(0);
        let got = responses.borrow();
        assert!(got[0].starts_with("HTTP/1.1 404"), "{}", got[0]);
        let body = got[0].split("\r\n\r\n").nth(1).unwrap();
        assert!(Envelope::parse(body).unwrap().as_fault().is_some());
    }

    #[test]
    fn dead_service_yields_bad_gateway() {
        let mut sim = Simulation::new(1);
        let _ws_host = sim.add_host(HostConfig::named("ws")); // nothing listening
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher = SimRpcDispatcher::new(
            Arc::clone(&registry),
            SimDuration::from_millis(1),
            DispatcherConfig::default(),
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                body: dispatcher_request("x"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.upstream_failures.get(), 1);
        // Never connected: a failure before anything was forwarded.
        stats.assert_conserved(0);
        assert!(responses.borrow()[0].starts_with("HTTP/1.1 502"));
        // Nothing listens there: the endpoint is marked down.
        assert!(registry.entry("Echo").unwrap().live_endpoints().is_empty());
    }

    #[test]
    fn accept_overflow_is_502_and_leaves_the_endpoint_live() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws").accept_limit(0, OverLimit::Refuse));
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let ws = sim.spawn(
            ws_host,
            Box::new(SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(1))),
        );
        sim.listen(ws, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher = SimRpcDispatcher::new(
            Arc::clone(&registry),
            SimDuration::from_millis(1),
            DispatcherConfig::default(),
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(TestClient {
                body: dispatcher_request("x"),
                responses: responses.clone(),
            }),
        );
        sim.run();
        stats.assert_conserved(0);
        let got = &responses.borrow()[0];
        assert!(got.starts_with("HTTP/1.1 502"), "{got}");
        // The fault's text is the one Figs. 4 and 5 carry on the wire.
        let reason = "upstream failure: connect failed: Refused<";
        assert!(got.contains(reason), "{got}");
        assert_eq!(registry.entry("Echo").unwrap().live_endpoints().len(), 1);
    }

    #[test]
    fn a_client_that_gave_up_is_still_on_the_books() {
        // Sends its request and closes before the service can answer.
        struct Quitter(Payload);
        impl Process for Quitter {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start => {
                        ctx.connect("dispatcher", 8081, SimDuration::from_secs(5));
                    }
                    ProcEvent::ConnEstablished { conn } => {
                        ctx.send(conn, self.0.clone()).unwrap();
                        ctx.close(conn);
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, stats, responses) =
            setup(SimDuration::from_millis(50), Duration::from_secs(30));
        let client_host = sim.host_id("client").unwrap();
        sim.spawn(client_host, Box::new(Quitter(dispatcher_request("gone"))));
        sim.run();
        // Both answers were decided; one of them found nobody to take it.
        assert_eq!(responses.borrow().len(), 1);
        assert_eq!((stats.received.get(), stats.relayed.get()), (2, 2));
        stats.assert_conserved(0);
    }

    #[test]
    fn pipelined_requests_all_served() {
        // One client connection carrying several requests in sequence.
        struct SerialClient {
            sent: usize,
            total: usize,
            responses: Rc<RefCell<Vec<String>>>,
        }
        impl Process for SerialClient {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
                match ev {
                    ProcEvent::Start => {
                        ctx.connect("dispatcher", 8081, SimDuration::from_secs(5));
                    }
                    ProcEvent::ConnEstablished { conn } => {
                        ctx.send(conn, dispatcher_request("m0")).unwrap();
                        self.sent = 1;
                    }
                    ProcEvent::Message { conn, bytes } => {
                        self.responses
                            .borrow_mut()
                            .push(String::from_utf8_lossy(&bytes).to_string());
                        if self.sent < self.total {
                            let msg = dispatcher_request(&format!("m{}", self.sent));
                            ctx.send(conn, msg).unwrap();
                            self.sent += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let disp_host = sim.add_host(HostConfig::named("dispatcher"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let ws = sim.spawn(
            ws_host,
            Box::new(SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(2))),
        );
        sim.listen(ws, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let dispatcher = SimRpcDispatcher::new(
            registry,
            SimDuration::from_millis(1),
            DispatcherConfig::default(),
        );
        let stats = dispatcher.stats();
        let dp = sim.spawn(disp_host, Box::new(dispatcher));
        sim.listen(dp, 8081);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(SerialClient {
                sent: 0,
                total: 5,
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(stats.relayed.get(), 5);
        assert_eq!(responses.borrow().len(), 5);
        for (i, r) in responses.borrow().iter().enumerate() {
            assert!(r.contains(&format!("m{i}")), "response {i} out of order");
        }
    }
}
