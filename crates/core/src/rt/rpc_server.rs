//! The threaded RPC-Dispatcher: forwards an RPC invocation to the
//! service and relays the response on the client's connection (paper
//! §4.2, "the first phase of the implementation"). Each request is one
//! [`crate::rpc`] exchange run straight through on a `CxThread`: plan,
//! take a kept-open connection to the service (or connect), write, wait
//! for the answer, finish.
//!
//! The paper's dispatcher "opens a second connection to the real
//! service" per invocation; this one keeps those connections open, as
//! the paper's own MSG-Dispatcher keeps one per destination, in one
//! LIFO stack of idle connections per `(host, port)`. A connection goes
//! back on its stack only after an exchange that completed and that
//! neither side closed: one that failed or timed out could still carry
//! a late answer, which must never be read as the answer to a later
//! request. The simulated dispatcher keeps the paper's connection per
//! request, so the figures are the paper's.

use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_http::{HttpClient, HttpError, PipeStream, Request, Response};
use wsd_telemetry::Scope;

use crate::config::{DispatcherConfig, CX_CORE_THREADS, CX_MAX_THREADS};
use crate::registry::Registry;
use crate::rpc::{RpcCounters, UpstreamFailure};
use crate::rt::{one_by_one, Network, ReactorFrontEnd};
use crate::security::PolicyChain;
use crate::url::Url;

/// A running RPC dispatcher.
pub struct RpcDispatcherServer {
    front: ReactorFrontEnd,
    stats: RpcCounters,
    upstreams: Arc<Upstreams>,
}

impl RpcDispatcherServer {
    /// Starts the dispatcher on `host:port`.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        registry: Arc<Registry>,
        policies: PolicyChain,
        config: DispatcherConfig,
    ) -> RpcDispatcherServer {
        Self::start_with_telemetry(net, host, port, registry, policies, config, &Scope::noop())
    }

    /// Like [`RpcDispatcherServer::start`], with telemetry instruments
    /// registered under `scope` (request counters plus a `pool` sub-scope
    /// for the connection-handling thread pool).
    pub fn start_with_telemetry(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        registry: Arc<Registry>,
        policies: PolicyChain,
        config: DispatcherConfig,
        scope: &Scope,
    ) -> RpcDispatcherServer {
        let pool = Arc::new(
            ThreadPool::new(
                PoolConfig::growable(format!("rpc-disp-{host}"), CX_CORE_THREADS, CX_MAX_THREADS)
                    .telemetry(scope.child("pool")),
            )
            .expect("pool"),
        );
        let stats = RpcCounters::new(scope);
        let upstreams = Arc::new(Upstreams::default());
        let front = ReactorFrontEnd::start("reactor", pool, &scope.child("reactor"));
        let handler = {
            let (stats, net, upstreams) = (stats.clone(), Arc::clone(net), Arc::clone(&upstreams));
            let response_timeout = config.response_timeout;
            one_by_one(Arc::new(move |req| {
                handle(&net, &upstreams, &registry, &policies, &stats, response_timeout, req)
            }))
        };
        front.listen(net, host, port, handler);
        RpcDispatcherServer { front, stats, upstreams }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> RpcCounters {
        self.stats.clone()
    }

    /// Client connections currently open (parked or being served).
    pub fn open_connections(&self) -> usize {
        self.front.open_connections()
    }

    /// Stops accepting, closes live connections, joins the workers, then
    /// closes the idle upstream connections.
    pub fn shutdown(&self) {
        self.front.shutdown();
        self.upstreams.clear();
    }
}

/// Idle upstream connections: one LIFO stack per `(host, port)`, so the
/// connection taken is the one used last. A stack holds at most
/// `CX_MAX_THREADS` connections, the most exchanges that run at once.
#[derive(Default)]
struct Upstreams {
    idle: Mutex<Vec<(String, u16, Stack)>>,
}

type Stack = Vec<HttpClient<PipeStream>>;

impl Upstreams {
    fn take(&self, url: &Url) -> Option<HttpClient<PipeStream>> {
        stack_of(&mut self.idle.lock(), url).pop()
    }

    /// Puts `client` back on `url`'s stack; a full stack drops it.
    fn put(&self, url: &Url, client: HttpClient<PipeStream>) {
        let mut idle = self.idle.lock();
        let stack = stack_of(&mut idle, url);
        if stack.len() < CX_MAX_THREADS {
            stack.push(client);
            return;
        }
        // Dropped outside the lock: closing a stream wakes its peer.
        drop(idle);
        drop(client);
    }

    fn clear(&self) {
        // Taken under the lock, closed once it is released.
        let idle = std::mem::take(&mut *self.idle.lock());
        drop(idle);
    }
}

/// `url`'s stack, made on first use.
fn stack_of<'a>(idle: &'a mut Vec<(String, u16, Stack)>, url: &Url) -> &'a mut Stack {
    let at = idle.iter().position(|(host, port, _)| url.port == *port && url.host == *host);
    let at = at.unwrap_or_else(|| {
        idle.push((url.host.clone(), url.port, Vec::new()));
        idle.len() - 1
    });
    &mut idle[at].2
}

fn handle(
    net: &Arc<Network>,
    upstreams: &Upstreams,
    registry: &Registry,
    policies: &PolicyChain,
    stats: &RpcCounters,
    response_timeout: Duration,
    req: Request,
) -> Response {
    let (exchange, fwd) = match stats.plan(registry, policies, &req) {
        Ok(planned) => planned,
        Err(refusal) => return refusal,
    };
    let outcome = forward_once(net, upstreams, &exchange.url, fwd, response_timeout, stats);
    stats.finish(registry, exchange, outcome)
}

/// One upstream exchange, on a kept-open connection when `url` has one
/// idle; counts the request as `forwarded` once it is written, whatever
/// becomes of the response. A refused connect is the network's word
/// that nothing listens there.
fn forward_once(
    net: &Arc<Network>,
    upstreams: &Upstreams,
    url: &Url,
    mut fwd: Request,
    response_timeout: Duration,
    stats: &RpcCounters,
) -> Result<Response, UpstreamFailure> {
    // `Connection` is hop-by-hop: the client's says nothing of this hop.
    fwd.headers.remove("connection");
    let kept = upstreams.take(url);
    let mut client = match kept.and_then(|mut kept| kept.send_only(&fwd).is_ok().then_some(kept)) {
        Some(kept) => kept,
        // A kept connection the service has closed since took nothing:
        // the request goes out once, on a new one.
        None => {
            let mut fresh = connect(net, url, response_timeout)?;
            fresh.send_only(&fwd).map_err(|_| UpstreamFailure::Send)?;
            fresh
        }
    };
    stats.forwarded.inc();
    let resp = client.read_response().map_err(|e| match e {
        HttpError::Io(io) if io.kind() == ErrorKind::TimedOut => UpstreamFailure::ResponseTimeout,
        _ => UpstreamFailure::ClosedEarly,
    })?;
    if client.reusable() {
        upstreams.put(url, client);
    }
    Ok(resp)
}

fn connect(
    net: &Network,
    url: &Url,
    response_timeout: Duration,
) -> Result<HttpClient<PipeStream>, UpstreamFailure> {
    let stream = net.connect(&url.host, url.port).map_err(|e| match e.kind() {
        ErrorKind::ConnectionRefused => UpstreamFailure::NoListener(e.to_string()),
        _ => UpstreamFailure::Connect(e.to_string()),
    })?;
    let mut client = HttpClient::new(stream);
    client
        .set_response_timeout(Some(response_timeout))
        .map_err(|_| UpstreamFailure::Send)?;
    Ok(client)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::echo_server::EchoServer;
    use crate::rt::RequestHandler;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wsd_http::{Limits, Status};
    use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};

    fn call_dispatcher(net: &Arc<Network>, text: &str) -> Response {
        let stream = net.connect("dispatcher", 8081).unwrap();
        let mut client = HttpClient::new(stream);
        let env = soap_rpc::echo_request(SoapVersion::V11, text);
        let req = Request::soap_post(
            "dispatcher:8081",
            "/svc/Echo",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        client.call(&req).unwrap()
    }

    #[test]
    fn forwards_and_relays() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            registry,
            PolicyChain::new(),
            DispatcherConfig::default(),
        );
        let resp = call_dispatcher(&net, "through-the-proxy");
        assert_eq!(resp.status, Status::OK);
        let env = Envelope::parse(&resp.body_utf8()).unwrap();
        assert_eq!(
            soap_rpc::parse_echo_response(&env).unwrap(),
            "through-the-proxy"
        );
        let s = disp.stats();
        assert_eq!((s.received.get(), s.forwarded.get(), s.relayed.get()), (1, 1, 1));
        s.assert_conserved(0);
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn telemetry_counts_relays_and_pool_work() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let disp = RpcDispatcherServer::start_with_telemetry(
            &net,
            "dispatcher",
            8081,
            registry,
            PolicyChain::new(),
            DispatcherConfig::default(),
            &reg.scope("rt.rpc"),
        );
        let resp = call_dispatcher(&net, "counted");
        assert_eq!(resp.status, Status::OK);
        disp.shutdown();
        ws.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rt.rpc.received"), 1);
        assert_eq!(snap.counter("rt.rpc.relayed"), 1);
        disp.stats().assert_matches(&snap, "rt.rpc");
        assert!(snap.counter("rt.rpc.pool.completed") >= 1);
    }

    #[test]
    fn unknown_service_is_404() {
        let net = Network::new();
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            Arc::new(Registry::new()),
            PolicyChain::new(),
            DispatcherConfig::default(),
        );
        let resp = call_dispatcher(&net, "x");
        assert_eq!(resp.status, Status::NOT_FOUND);
        assert_eq!(disp.stats().refused.get(), 1);
        disp.stats().assert_conserved(0);
        disp.shutdown();
    }

    #[test]
    fn dead_upstream_is_502_and_marked_down() {
        let net = Network::new();
        let registry = Arc::new(Registry::new());
        registry.register_many(
            "Echo",
            vec![
                Url::parse("http://dead:1/e").unwrap(),
                Url::parse("http://ws:8888/echo").unwrap(),
            ],
            None,
        );
        let _ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            Arc::clone(&registry),
            PolicyChain::new(),
            DispatcherConfig::default(),
        );
        // First call hits the dead primary → 502, and fails it over.
        let resp = call_dispatcher(&net, "a");
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        // Second call lands on the live backup.
        let resp = call_dispatcher(&net, "b");
        assert_eq!(resp.status, Status::OK);
        assert_eq!(disp.stats().upstream_failures.get(), 1);
        // The dead primary refused the connect: nothing was forwarded to it.
        disp.stats().assert_conserved(0);
        assert_eq!(registry.entry("Echo").unwrap().live_endpoints().len(), 1);
        disp.shutdown();
    }

    #[test]
    fn firewalled_upstream_is_502_and_stays_live() {
        let net = Network::new();
        let _ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        net.set_firewalled("ws", true);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            Arc::clone(&registry),
            PolicyChain::new(),
            DispatcherConfig::default(),
        );
        // A connect that times out says nothing about the endpoint: the
        // second call tries it again instead of answering 404.
        for _ in 0..2 {
            assert_eq!(call_dispatcher(&net, "a").status, Status::BAD_GATEWAY);
        }
        assert_eq!(disp.stats().upstream_failures.get(), 2);
        assert_eq!(registry.entry("Echo").unwrap().live_endpoints().len(), 1);
        disp.shutdown();
    }

    #[test]
    fn slow_upstream_times_out() {
        let net = Network::new();
        let _ws = EchoServer::start(&net, "ws", 8888, 2, Duration::from_millis(300));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let config = DispatcherConfig {
            response_timeout: Duration::from_millis(50),
            ..DispatcherConfig::default()
        };
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            registry,
            PolicyChain::new(),
            config,
        );
        let resp = call_dispatcher(&net, "too-slow");
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        assert_eq!(disp.stats().upstream_failures.get(), 1);
        // Forwarded, then timed out: a failure after the send.
        disp.stats().assert_conserved(1);
        disp.shutdown();
    }

    fn dispatcher(net: &Arc<Network>, response_timeout: Duration) -> RpcDispatcherServer {
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let config = DispatcherConfig { response_timeout, ..DispatcherConfig::default() };
        RpcDispatcherServer::start(net, "dispatcher", 8081, registry, PolicyChain::new(), config)
    }

    /// One call through the dispatcher on a new client connection, with
    /// `body` as it is (no policy reads it), asking to close when `close`.
    fn call_raw(net: &Arc<Network>, body: &str, close: bool) -> Response {
        let mut client = HttpClient::new(net.connect("dispatcher", 8081).unwrap());
        let body = body.as_bytes().to_vec();
        let mut req = Request::soap_post("dispatcher:8081", "/svc/Echo", "text/plain", body);
        if close {
            req.headers.set("Connection", "close");
        }
        client.call(&req).unwrap()
    }

    /// Idle upstream connections the dispatcher keeps, over all stacks.
    fn idle(disp: &RpcDispatcherServer) -> usize {
        disp.upstreams.idle.lock().iter().map(|(.., stack)| stack.len()).sum()
    }

    /// A service on `ws:8888` that echoes the body, `slow` late when the
    /// body is `slow`, and records every connection it accepts and every
    /// request's `Connection` header.
    struct Upstream {
        front: Arc<ReactorFrontEnd>,
        accepted: Arc<AtomicUsize>,
        connection_headers: Arc<Mutex<Vec<Option<String>>>>,
    }

    impl Upstream {
        fn start(net: &Arc<Network>, slow: Duration) -> Upstream {
            let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("ws", 2)).unwrap());
            let front = Arc::new(ReactorFrontEnd::start("ws", pool, &Scope::noop()));
            let accepted = Arc::new(AtomicUsize::new(0));
            let connection_headers = Arc::new(Mutex::new(Vec::new()));
            let handler: RequestHandler = {
                let seen = Arc::clone(&connection_headers);
                Arc::new(move |req: Request| {
                    seen.lock().push(req.headers.get("connection").map(str::to_string));
                    if req.body == b"slow"[..] {
                        std::thread::sleep(slow);
                    }
                    Response::new(Status::OK, "text/plain", req.body)
                })
            };
            let (front2, accepted2) = (Arc::clone(&front), Arc::clone(&accepted));
            net.listen("ws", 8888, move |stream| {
                accepted2.fetch_add(1, Ordering::SeqCst);
                front2.serve(stream, Limits::default(), Arc::clone(&handler));
            });
            Upstream { front, accepted, connection_headers }
        }

        fn shutdown(&self, net: &Network) {
            net.unlisten("ws", 8888);
            self.front.shutdown();
        }
    }

    fn wait_until(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..500 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    #[test]
    fn kept_upstream_connections_never_starve_a_small_service() {
        const CLIENTS: usize = 8;
        const CALLS: usize = 50;
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::from_millis(1));
        let disp = dispatcher(&net, Duration::from_secs(2));
        std::thread::scope(|s| {
            for i in 0..CLIENTS {
                let net = &net;
                s.spawn(move || {
                    for j in 0..CALLS {
                        let text = format!("c{i}-{j}");
                        let resp = call_dispatcher(net, &text);
                        assert_eq!(resp.status, Status::OK, "{text}");
                        let env = Envelope::parse(&resp.body_utf8()).unwrap();
                        assert_eq!(soap_rpc::parse_echo_response(&env).unwrap(), text);
                    }
                });
            }
        });
        assert_eq!(disp.stats().relayed.get(), (CLIENTS * CALLS) as u64);
        assert!(idle(&disp) <= CLIENTS);
        disp.stats().assert_conserved(0);
        disp.shutdown();
        ws.shutdown();
        ws.stats().assert_conserved();
    }

    #[test]
    fn sequential_calls_open_one_upstream_connection() {
        let net = Network::new();
        let ws = Upstream::start(&net, Duration::ZERO);
        let disp = dispatcher(&net, Duration::from_secs(5));
        for i in 0..20 {
            let resp = call_raw(&net, &format!("m{i}"), false);
            assert_eq!(resp.body, format!("m{i}").into_bytes());
            assert_eq!(ws.accepted.load(Ordering::SeqCst), 1, "call {i}");
            assert_eq!(idle(&disp), 1, "call {i}");
        }
        assert_eq!(ws.front.open_connections(), 1);
        disp.stats().assert_conserved(0);
        disp.shutdown();
        assert_eq!(idle(&disp), 0);
        assert!(wait_until(|| ws.front.open_connections() == 0), "shutdown closes the kept one");
        ws.shutdown(&net);
    }

    #[test]
    fn a_clients_close_is_not_forwarded_upstream() {
        let net = Network::new();
        let ws = Upstream::start(&net, Duration::ZERO);
        let disp = dispatcher(&net, Duration::from_secs(5));
        for i in 0..3 {
            let resp = call_raw(&net, &format!("m{i}"), true);
            assert_eq!(resp.status, Status::OK);
            assert!(!resp.keep_alive(), "the answer says the hop closes");
        }
        // Each client's hop closed as it asked; the upstream hop never
        // heard of it, and carried all three.
        assert_eq!(*ws.connection_headers.lock(), [None, None, None]);
        assert_eq!(ws.accepted.load(Ordering::SeqCst), 1);
        disp.stats().assert_conserved(0);
        disp.shutdown();
        ws.shutdown(&net);
    }

    #[test]
    fn a_restarted_service_answers_the_next_call() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let disp = dispatcher(&net, Duration::from_secs(5));
        assert_eq!(call_dispatcher(&net, "before").status, Status::OK);
        assert_eq!(idle(&disp), 1);
        // The restart closes the kept connection under the dispatcher.
        ws.shutdown();
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let resp = call_dispatcher(&net, "after");
        assert_eq!(resp.status, Status::OK);
        let env = Envelope::parse(&resp.body_utf8()).unwrap();
        assert_eq!(soap_rpc::parse_echo_response(&env).unwrap(), "after");
        let s = disp.stats();
        assert_eq!((s.forwarded.get(), s.upstream_failures.get()), (2, 0));
        s.assert_conserved(0);
        disp.shutdown();
        ws.shutdown();
    }

    #[test]
    fn a_late_answer_is_never_relayed_to_a_later_request() {
        let net = Network::new();
        let ws = Upstream::start(&net, Duration::from_millis(150));
        let disp = dispatcher(&net, Duration::from_millis(100));
        // Times out; the service answers it 50 ms later.
        assert_eq!(call_raw(&net, "slow", false).status, Status::BAD_GATEWAY);
        for body in ["fast", "again"] {
            let resp = call_raw(&net, body, false);
            assert_eq!(resp.status, Status::OK, "{body}");
            assert_eq!(resp.body, body.as_bytes(), "answered with another request's answer");
        }
        // The timed-out connection was dropped, its successor kept.
        assert_eq!(ws.accepted.load(Ordering::SeqCst), 2);
        disp.stats().assert_conserved(1);
        disp.shutdown();
        ws.shutdown(&net);
    }

    #[test]
    fn concurrent_clients_through_dispatcher() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 8, Duration::from_millis(1));
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let disp = RpcDispatcherServer::start(
            &net,
            "dispatcher",
            8081,
            registry,
            PolicyChain::new(),
            DispatcherConfig::default(),
        );
        let mut handles = Vec::new();
        for i in 0..12 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let resp = call_dispatcher(&net, &format!("c{i}"));
                assert_eq!(resp.status, Status::OK);
                let env = Envelope::parse(&resp.body_utf8()).unwrap();
                assert_eq!(soap_rpc::parse_echo_response(&env).unwrap(), format!("c{i}"));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(disp.stats().relayed.get(), 12);
        assert_eq!(ws.stats().processed.get(), 12);
        disp.shutdown();
        ws.shutdown();
    }
}
