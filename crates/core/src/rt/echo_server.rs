//! The threaded echo Web Service for tests, examples and benches:
//! [`crate::echo`] decides every answer and keeps the books; the
//! service's fixed worker pool runs them behind a [`ReactorFrontEnd`],
//! so a client that keeps its connection open (the RPC-Dispatcher's
//! upstream hop, the MSG-Dispatcher's WsThreads) holds a worker only
//! while a request of its own is being answered.

use std::sync::Arc;
use std::time::Duration;

use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_http::{Request, Response, ShutdownHandle, Status};
use wsd_telemetry::Scope;

use crate::echo::{Echo, EchoCounters, EchoMode};
use crate::rt::client::send_oneway_bytes;
use crate::rt::{one_by_one, Network, ReactorFrontEnd};

/// A running echo service: each accepted request costs `service_delay`
/// of (slept) CPU, and one that is not a SOAP envelope gets a `400` at once.
pub struct EchoServer {
    front: ReactorFrontEnd,
    books: EchoCounters,
}

impl EchoServer {
    /// Starts the RPC-style service on `host:port` with `workers` handler
    /// threads: the echo goes back on the request's connection.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        workers: usize,
        service_delay: Duration,
    ) -> EchoServer {
        Self::start_in(EchoMode::Rpc, net, (host, port), workers, service_delay)
    }

    /// Starts the one-way service (Table 1 quadrant 4) on `host:port` with
    /// `workers` handler threads: the worker posts the echo, serialised
    /// once, to the request's `ReplyTo` as
    /// [`send_oneway`](crate::rt::send_oneway) does, then answers `202`.
    /// A firewalled `ReplyTo` holds it for the network's `firewall_delay`.
    pub fn start_oneway(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        workers: usize,
        service_delay: Duration,
    ) -> EchoServer {
        let mode = EchoMode::OneWay { workers };
        Self::start_in(mode, net, (host, port), workers, service_delay)
    }

    fn start_in(
        mode: EchoMode,
        net: &Arc<Network>,
        (host, port): (&str, u16),
        workers: usize,
        service_delay: Duration,
    ) -> EchoServer {
        let pool = Arc::new(
            ThreadPool::new(PoolConfig::fixed(format!("echo-{host}"), workers)).expect("pool"),
        );
        let front = ReactorFrontEnd::start("echo", pool, &Scope::noop());
        let books = EchoCounters::default();
        let (books2, net2) = (books.clone(), Arc::clone(net));
        front.listen_each(net, host, port, move |conn| {
            let (books, net) = (books2.clone(), Arc::clone(&net2));
            one_by_one(Arc::new(move |req| {
                answer(&net, &books, mode, service_delay, &conn, req)
            }))
        });
        EchoServer { front, books }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> EchoCounters {
        self.books.clone()
    }

    /// Stops accepting, closes live connections and joins the workers.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }
}

/// One request on `conn`: books it, sleeps the service delay, and
/// answers. An RPC echo counts as sent only if its client is still
/// there to read it.
fn answer(
    net: &Arc<Network>,
    books: &EchoCounters,
    mode: EchoMode,
    service_delay: Duration,
    conn: &ShutdownHandle,
    req: Request,
) -> Response {
    let echo = match books.accept(mode, &req) {
        Ok(echo) => echo,
        Err(reject) => return reject,
    };
    wsd_concurrent::ordered::audit::assert_unlocked("the echo's service delay");
    std::thread::sleep(service_delay);
    books.process(&echo);
    match echo {
        Echo::Response(resp) => {
            books.replied(1, !conn.is_closed());
            resp
        }
        Echo::Reply { to, version, xml } => {
            let dest = (to.host.as_str(), to.port, to.path.as_str());
            let body = (version.content_type(), xml.into_bytes());
            let sent = send_oneway_bytes(net, dest, body);
            books.replied(1, sent.is_ok());
            Response::empty(Status::ACCEPTED)
        }
        Echo::NoReply | Echo::Unaddressable => Response::empty(Status::ACCEPTED),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_http::{serve_connection, HttpClient, Limits};
    use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};
    use wsd_wsa::{EndpointReference, WsaHeaders};

    fn post(env: &Envelope) -> Request {
        let body = env.to_xml().into_bytes();
        Request::soap_post("ws:8888", "/echo", SoapVersion::V11.content_type(), body)
    }

    #[test]
    fn echoes_over_the_network() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let mut client = HttpClient::new(net.connect("ws", 8888).unwrap());
        let env = soap_rpc::echo_request(SoapVersion::V11, "hello-rt");
        let resp = client.call(&post(&env)).unwrap();
        assert_eq!(resp.status, Status::OK);
        let renv = Envelope::parse(&resp.body_utf8()).unwrap();
        assert_eq!(soap_rpc::parse_echo_response(&renv).unwrap(), "hello-rt");
        server.shutdown();
        assert_eq!(server.stats().replies_sent.get(), 1);
        server.stats().assert_conserved();
    }

    #[test]
    fn parallel_clients_all_served() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 8, Duration::from_millis(2));
        let mut handles = Vec::new();
        for i in 0..16 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut client = HttpClient::new(net.connect("ws", 8888).unwrap());
                for j in 0..5 {
                    let text = format!("c{i}-m{j}");
                    let env = soap_rpc::echo_request(SoapVersion::V11, &text);
                    let resp = client.call(&post(&env)).unwrap();
                    let renv = Envelope::parse(&resp.body_utf8()).unwrap();
                    assert_eq!(soap_rpc::parse_echo_response(&renv).unwrap(), text);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().processed.get(), 80);
        server.shutdown();
    }

    #[test]
    fn default_limits_bound_body_size() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let mut client = HttpClient::new(net.connect("ws", 8888).unwrap());
        let body = vec![b'x'; Limits::default().max_body + 1];
        let req = Request::soap_post("ws:8888", "/echo", "text/xml", body);
        // The server tears the connection down on the oversized body.
        assert!(client.call(&req).is_err());
        server.shutdown();
    }

    #[test]
    fn bad_request_gets_400_at_once_and_is_not_processed() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 2, Duration::from_secs(2));
        let mut client = HttpClient::new(net.connect("ws", 8888).unwrap());
        let req = Request::soap_post("ws:8888", "/echo", "text/xml", b"junk".to_vec());
        let t0 = std::time::Instant::now();
        assert_eq!(client.call(&req).unwrap().status, Status::BAD_REQUEST);
        assert!(t0.elapsed() < Duration::from_secs(1), "{:?}", t0.elapsed());
        let books = server.stats();
        assert_eq!((books.accepted.get(), books.processed.get()), (0, 0));
        server.shutdown();
    }

    #[test]
    fn oneway_replies_to_reply_to_before_the_ack() {
        let net = Network::new();
        let server = EchoServer::start_oneway(&net, "ws", 8888, 2, Duration::ZERO);
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sink = Arc::clone(&got);
        net.listen("client", 9000, move |stream| {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &Limits::default(), |req| {
                    sink.lock().push(req.body_utf8().into_owned());
                    Response::empty(Status::ACCEPTED)
                });
            });
        });
        net.set_firewalled("laptop", true);
        let mut client = HttpClient::new(net.connect("ws", 8888).unwrap());
        let mut call = |reply_to: Option<&str>| {
            let mut env = soap_rpc::echo_request(SoapVersion::V11, "x");
            let epr = reply_to.map(EndpointReference::new);
            WsaHeaders { reply_to: epr, ..WsaHeaders::new() }.apply(&mut env);
            let t0 = std::time::Instant::now();
            assert_eq!(client.call(&post(&env)).unwrap().status, Status::ACCEPTED);
            t0.elapsed()
        };
        call(Some("http://client:9000/cb"));
        assert_eq!(got.lock().len(), 1, "the reply is posted before the 202");
        let held = call(Some("http://laptop:9000/cb"));
        assert!(held >= net.firewall_delay, "{held:?}");
        call(None);
        server.shutdown();
        let books = server.stats();
        let answered = [&books.replies_sent, &books.replies_blocked, &books.no_reply];
        assert_eq!(answered.map(|c| c.get()), [1, 1, 1]);
        books.assert_conserved();
    }
}
