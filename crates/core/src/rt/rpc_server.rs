//! The threaded RPC-Dispatcher: forwards an RPC invocation on a new
//! upstream connection and relays the response on the client's
//! connection (paper §4.2, "the first phase of the implementation").
//! Each request is one [`crate::rpc`] exchange run straight through on a
//! `CxThread`: plan, connect, write, wait for the answer, finish.

use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;

use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_http::{HttpClient, HttpError, Request, Response};
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
        let front = ReactorFrontEnd::start("reactor", pool, &scope.child("reactor"));
        let handler = {
            let (stats, net) = (stats.clone(), Arc::clone(net));
            let response_timeout = config.response_timeout;
            one_by_one(Arc::new(move |req| {
                handle(&net, &registry, &policies, &stats, response_timeout, req)
            }))
        };
        front.listen(net, host, port, handler);
        RpcDispatcherServer { front, stats }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> RpcCounters {
        self.stats.clone()
    }

    /// Client connections currently open (parked or being served).
    pub fn open_connections(&self) -> usize {
        self.front.open_connections()
    }

    /// Stops accepting, closes live connections and joins the workers.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }
}

fn handle(
    net: &Arc<Network>,
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
    let outcome = forward_once(net, &exchange.url, fwd, response_timeout, stats);
    stats.finish(registry, exchange, outcome)
}

/// One upstream exchange on a fresh connection; counts the request as
/// `forwarded` once it is written, whatever becomes of the response. A
/// refused connect is the network's word that nothing listens there.
fn forward_once(
    net: &Arc<Network>,
    url: &Url,
    mut fwd: Request,
    response_timeout: Duration,
    stats: &RpcCounters,
) -> Result<Response, UpstreamFailure> {
    let stream = net
        .connect(&url.host, url.port)
        .map_err(|e| match e.kind() {
            ErrorKind::ConnectionRefused => UpstreamFailure::NoListener(e.to_string()),
            _ => UpstreamFailure::Connect(e.to_string()),
        })?;
    let mut client = HttpClient::new(stream);
    client
        .set_response_timeout(Some(response_timeout))
        .map_err(|_| UpstreamFailure::Send)?;
    fwd.headers.set("Connection", "close");
    client.send_only(&fwd).map_err(|_| UpstreamFailure::Send)?;
    stats.forwarded.inc();
    client.read_response().map_err(|e| match e {
        HttpError::Io(io) if io.kind() == ErrorKind::TimedOut => UpstreamFailure::ResponseTimeout,
        _ => UpstreamFailure::ClosedEarly,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::echo_server::EchoServer;
    use wsd_http::Status;
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
