//! A threaded echo Web Service for tests, examples and benches.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_http::{serve_connection, Limits, Request, Response, Status};
use wsd_soap::{rpc as soap_rpc, Envelope};

use crate::rt::Network;

/// A running echo service: each request costs `service_delay` of (slept)
/// CPU and echoes the SOAP payload back.
pub struct EchoServer {
    pool: Arc<ThreadPool>,
    served: Arc<AtomicU64>,
    net: Arc<Network>,
    conns: Arc<crate::rt::ConnTracker>,
    host: String,
    port: u16,
}

impl EchoServer {
    /// Starts the service on `host:port` with `workers` handler threads
    /// and default parser limits.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        workers: usize,
        service_delay: Duration,
    ) -> EchoServer {
        Self::start_with_limits(net, host, port, workers, service_delay, Limits::default())
    }

    /// Like [`EchoServer::start`], with operator-supplied parser limits
    /// bounding head/body sizes on every accepted connection.
    pub fn start_with_limits(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        workers: usize,
        service_delay: Duration,
        limits: Limits,
    ) -> EchoServer {
        let pool = Arc::new(
            ThreadPool::new(PoolConfig::fixed(format!("echo-{host}"), workers)).expect("pool"),
        );
        let served = Arc::new(AtomicU64::new(0));
        let conns = crate::rt::ConnTracker::new();
        {
            let pool2 = Arc::clone(&pool);
            let served = Arc::clone(&served);
            let conns = Arc::clone(&conns);
            net.listen(host, port, move |stream| {
                let served = Arc::clone(&served);
                conns.track(&stream);
                let _ = pool2.execute(move || {
                    let _ = serve_connection(stream, &limits, |req| {
                        if !service_delay.is_zero() {
                            std::thread::sleep(service_delay);
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                        echo_handler(req)
                    });
                });
            });
        }
        EchoServer {
            pool,
            served,
            net: Arc::clone(net),
            conns,
            host: host.to_string(),
            port,
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes live connections and joins the workers.
    pub fn shutdown(&self) {
        self.net.unlisten(&self.host, self.port);
        self.conns.close_all();
        self.pool.shutdown();
    }
}

fn echo_handler(req: Request) -> Response {
    let Ok(env) = Envelope::parse(&req.body_utf8()) else {
        return Response::empty(Status::BAD_REQUEST);
    };
    let text = soap_rpc::parse_echo(&env).unwrap_or_default();
    let reply = soap_rpc::echo_response(env.version, &text);
    Response::new(
        Status::OK,
        env.version.content_type(),
        reply.to_xml().into_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_http::HttpClient;
    use wsd_soap::SoapVersion;

    #[test]
    fn echoes_over_the_network() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let stream = net.connect("ws", 8888).unwrap();
        let mut client = HttpClient::new(stream);
        let env = soap_rpc::echo_request(SoapVersion::V11, "hello-rt");
        let req = Request::soap_post(
            "ws:8888",
            "/echo",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.status, Status::OK);
        let renv = Envelope::parse(&resp.body_utf8()).unwrap();
        assert_eq!(soap_rpc::parse_echo_response(&renv).unwrap(), "hello-rt");
        assert_eq!(server.served(), 1);
        server.shutdown();
    }

    #[test]
    fn parallel_clients_all_served() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 8, Duration::from_millis(2));
        let mut handles = Vec::new();
        for i in 0..16 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let stream = net.connect("ws", 8888).unwrap();
                let mut client = HttpClient::new(stream);
                for j in 0..5 {
                    let text = format!("c{i}-m{j}");
                    let env = soap_rpc::echo_request(SoapVersion::V11, &text);
                    let req = Request::soap_post(
                        "ws:8888",
                        "/echo",
                        SoapVersion::V11.content_type(),
                        env.to_xml().into_bytes(),
                    );
                    let resp = client.call(&req).unwrap();
                    let renv = Envelope::parse(&resp.body_utf8()).unwrap();
                    assert_eq!(soap_rpc::parse_echo_response(&renv).unwrap(), text);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.served(), 80);
        server.shutdown();
    }

    #[test]
    fn operator_limits_bound_body_size() {
        let net = Network::new();
        let server = EchoServer::start_with_limits(
            &net,
            "ws",
            8888,
            2,
            Duration::ZERO,
            Limits {
                max_body: 32,
                ..Limits::default()
            },
        );
        let stream = net.connect("ws", 8888).unwrap();
        let mut client = HttpClient::new(stream);
        let req = Request::soap_post("ws:8888", "/echo", "text/xml", vec![b'x'; 64]);
        // The server tears the connection down on the oversized body.
        assert!(client.call(&req).is_err());
        server.shutdown();
    }

    #[test]
    fn bad_request_gets_400() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let stream = net.connect("ws", 8888).unwrap();
        let mut client = HttpClient::new(stream);
        let req = Request::soap_post("ws:8888", "/echo", "text/xml", b"junk".to_vec());
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.status, Status::BAD_REQUEST);
        server.shutdown();
    }
}
