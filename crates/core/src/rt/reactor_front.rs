//! The one way an rt server turns accepted streams into handled
//! requests. Accepted streams become [`ServedConn`]s on the generic
//! [`Reactor`]: they pump bytes through an incremental [`RequestParser`]
//! and hand complete requests to the server's handler, both on the
//! server's pool — the whole run of pipelined requests already parsed at
//! once, so a handler with a per-batch cost (the durable mailbox's fsync)
//! pays it once per run, not once per request.
//!
//! This is the piece that removes the paper's thread-per-connection
//! bottleneck in the threaded runtime: a dispatcher's `CxThread` pool is
//! not pinned one-thread-per-socket — a connection occupies a worker
//! only from the wake-up that finds it parked until it has read,
//! answered and gone idle again, while thousands of idle keep-alive
//! connections cost a parser buffer each and nothing else.
//!
//! [`ReactorFrontEnd`] also owns the accept side every server needs —
//! bind the listener, track each accepted stream so shutdown can close
//! it, register it with the reactor — and the teardown order that goes
//! with it ([`ReactorFrontEnd::shutdown`]).

use std::sync::{Arc, OnceLock};

use wsd_concurrent::{Pump, Reactor, ReactorConn, ThreadPool, Wakeup};
use wsd_http::{
    response_bytes_into, response_len, Limits, PipeStream, ReadyStream, Request, RequestParser,
    Response,
};
use wsd_telemetry::Scope;

use crate::rt::{ConnTracker, Network};

/// The per-request handler a front end runs on the pool; the same shape
/// as the closure [`wsd_http::serve_connection`] takes, but shareable.
pub type RequestHandler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// What a [`ServedConn`] runs: one call per *run* — the pipelined
/// requests of one connection that were already parsed when the
/// handler was scheduled, in arrival order. The contract:
///
/// * only the last request of a run can carry `Connection: close` (the
///   connection cuts the run there; later requests are never executed);
/// * the handler returns the responses in request order, one per
///   request it executed, and may stop early only after a response that
///   itself says `Connection: close`;
/// * nothing reaches the peer until the handler returns: all responses
///   of the run leave in one write, so a handler may make the whole
///   run durable behind one barrier before any of it is acknowledged.
pub type BatchHandler = Arc<dyn Fn(Vec<Request>) -> Vec<Response> + Send + Sync>;

/// Adapts a per-request handler to the batch shape: requests run one
/// after another, stopping at a response that closes the connection —
/// exactly what a per-request serve loop does.
pub fn one_by_one(handler: RequestHandler) -> BatchHandler {
    Arc::new(move |run| {
        let mut responses = Vec::with_capacity(run.len());
        for req in run {
            let resp = handler(req);
            let close = !resp.keep_alive();
            responses.push(resp);
            if close {
                break;
            }
        }
        responses
    })
}

/// One multiplexed server-side connection: readiness-driven reads, an
/// incremental parser, and blocking response writes, all on the handler
/// pool in the one job that owns the connection at a time.
pub struct ServedConn<S: ReadyStream> {
    stream: S,
    parser: RequestParser,
    pending: Vec<Request>,
    handler: BatchHandler,
    /// Serialised responses of the run being answered; kept so a
    /// connection allocates it once, not once per run.
    wire: Vec<u8>,
    /// No further request will be read: the peer hung up, or a framing
    /// error lost the stream's message boundaries. What is already in
    /// `pending` is still answered; then the connection closes.
    done: bool,
}

impl<S: ReadyStream> ServedConn<S> {
    /// Wraps an accepted stream, parsed under [`Limits::default`].
    pub fn new(stream: S, handler: BatchHandler) -> Self {
        ServedConn {
            stream,
            parser: RequestParser::new(Limits::default()),
            pending: Vec::new(),
            handler,
            wire: Vec::new(),
            done: false,
        }
    }
}

impl<S: ReadyStream + Send + 'static> ReactorConn for ServedConn<S> {
    fn install_wakeup(&mut self, hook: Wakeup) {
        self.stream.set_read_wakeup(Some(hook));
    }

    fn pump(&mut self) -> Pump {
        let mut chunk = [0u8; 4096];
        while !self.done {
            match self.stream.try_read(&mut chunk) {
                Ok(0) => self.done = true,
                Ok(n) => {
                    let mut parsed = self.parser.feed(&chunk[..n]);
                    // Drain pipelined surplus already buffered.
                    while let Ok(Some(req)) = parsed {
                        self.pending.push(req);
                        parsed = self.parser.poll();
                    }
                    // A framing error ends the run like `Connection:
                    // close` does, exactly as in the blocking serve
                    // loop: the requests parsed before it are answered.
                    self.done = parsed.is_err();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return Pump::Closed,
            }
        }
        if !self.pending.is_empty() {
            Pump::Ready
        } else if self.done {
            Pump::Closed
        } else {
            Pump::Idle
        }
    }

    fn handle(&mut self) -> bool {
        let mut run = std::mem::take(&mut self.pending);
        if run.is_empty() {
            return !self.done;
        }
        // A request that asks to close ends the run and the connection.
        let closing = run.iter().position(|req| !req.keep_alive());
        if let Some(last) = closing {
            run.truncate(last + 1);
        }
        let asked = run.len();
        let responses = (self.handler)(run);
        // Sized once: a fetch's one response is hundreds of KB, on a
        // connection that has never answered before.
        self.wire.clear();
        self.wire.reserve(responses.iter().map(response_len).sum());
        for resp in &responses {
            response_bytes_into(&mut self.wire, resp);
        }
        if self.stream.write_all(&self.wire).and_then(|()| self.stream.flush()).is_err() {
            return false;
        }
        let keep = closing.is_none()
            && responses.len() == asked
            && responses.iter().all(Response::keep_alive);
        keep && !self.done
    }

    fn has_partial(&self) -> bool {
        self.parser.has_partial()
    }
}

/// A reactor-backed connection front end over the in-process network's
/// [`PipeStream`]s: one per server, owning the server's listener, its
/// accepted connections and the handler pool they run on.
pub struct ReactorFrontEnd {
    reactor: Arc<Reactor<ServedConn<PipeStream>>>,
    handlers: Arc<ThreadPool>,
    conns: Arc<ConnTracker>,
    /// Where [`listen`](Self::listen) bound, for `shutdown` to unbind.
    bound: OnceLock<(Arc<Network>, String, u16)>,
}

impl ReactorFrontEnd {
    /// Starts the reactor. `handlers` is the pool connections are read
    /// and their requests run on (the dispatcher's `CxThread` pool); the
    /// front end shuts it down with itself. Telemetry lands under
    /// `scope`: `open_conns`/`parked_partials` gauges, a `loop_us`
    /// histogram, `dispatches`/`wakeups` counters. `_name` is unused: the
    /// reactor has no thread to name, and the argument stays only while
    /// the frozen `benchmark/` passes it (ROADMAP item 7).
    pub fn start(_name: impl Into<String>, handlers: Arc<ThreadPool>, scope: &Scope) -> Self {
        ReactorFrontEnd {
            reactor: Reactor::start(Arc::clone(&handlers), scope),
            handlers,
            conns: ConnTracker::new(),
            bound: OnceLock::new(),
        }
    }

    /// Binds `host:port` on `net` and serves every connection accepted
    /// there: `handler` — one per server, shared by all its connections —
    /// runs once per run of pipelined requests (see [`BatchHandler`];
    /// [`one_by_one`] adapts a per-request handler).
    pub fn listen(&self, net: &Arc<Network>, host: &str, port: u16, handler: BatchHandler) {
        self.bound
            .set((Arc::clone(net), host.to_string(), port))
            .expect("a front end listens on one address");
        let (reactor, conns) = (Arc::clone(&self.reactor), Arc::clone(&self.conns));
        net.listen(host, port, move |stream| {
            conns.track(&stream);
            reactor.register(ServedConn::new(stream, Arc::clone(&handler)));
        });
    }

    /// Hands one already-accepted connection to the reactor; `handler`
    /// runs once per request. `_limits` is unused: every connection is
    /// parsed under [`Limits::default`], and the argument stays only
    /// while the frozen `benchmark/` passes it (ROADMAP item 10(c)).
    pub fn serve(&self, stream: PipeStream, _limits: Limits, handler: RequestHandler) {
        self.conns.track(&stream);
        self.reactor.register(ServedConn::new(stream, one_by_one(handler)));
    }

    /// Connections currently registered (parked or in a job).
    pub fn open_connections(&self) -> usize {
        self.reactor.open_connections()
    }

    /// Parked connections holding a partially-received request.
    pub fn parked_partials(&self) -> usize {
        self.reactor.parked_partials()
    }

    /// Tears the server's accept side down, in the only safe order: stop
    /// accepting; close every live stream, so a handler blocked writing
    /// to a stalled peer returns; stop the reactor, which drops the
    /// connections at rest; then let the running handlers finish and
    /// join the pool.
    pub fn shutdown(&self) {
        if let Some((net, host, port)) = self.bound.get() {
            net.unlisten(host, *port);
        }
        self.conns.close_all();
        self.reactor.shutdown();
        self.handlers.shutdown();
    }
}

impl std::fmt::Debug for ReactorFrontEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorFrontEnd")
            .field("open", &self.open_connections())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;
    use wsd_concurrent::PoolConfig;
    use wsd_http::{duplex, HttpClient, Status};

    fn echo() -> RequestHandler {
        Arc::new(|req: Request| Response::new(Status::OK, "text/xml", req.body))
    }

    fn front(reg: &wsd_telemetry::Registry) -> (ReactorFrontEnd, Arc<ThreadPool>) {
        let pool = Arc::new(ThreadPool::new(PoolConfig::fixed("handler", 2)).unwrap());
        let fe = ReactorFrontEnd::start("reactor-test", Arc::clone(&pool), &reg.scope("fe"));
        (fe, pool)
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
    fn serves_keep_alive_exchanges() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let (client, server) = duplex(64 * 1024);
        fe.serve(server, Limits::default(), echo());
        let mut c = HttpClient::new(client);
        for i in 0..5 {
            let req = Request::soap_post("h", "/", "text/xml", format!("m{i}").into_bytes());
            let resp = c.call(&req).unwrap();
            assert_eq!(resp.body, format!("m{i}").into_bytes());
        }
        assert_eq!(fe.open_connections(), 1);
        drop(c);
        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
    }

    /// Writes `reqs` back to back in one write (they fit the pipe, so
    /// the server parses them as one run), then reads responses until
    /// the server closes; returns their bodies.
    fn pipeline(mut client: PipeStream, reqs: &[Request]) -> Vec<Vec<u8>> {
        let mut wire = Vec::new();
        for req in reqs {
            wsd_http::request_bytes_into(&mut wire, req);
        }
        client.write_all(&wire).unwrap();
        let mut c = HttpClient::new(client);
        let mut bodies = Vec::new();
        while let Ok(resp) = c.read_response() {
            bodies.push(resp.body.to_vec());
        }
        bodies
    }

    #[test]
    fn per_request_handler_sees_a_pipelined_run_one_by_one() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let executed = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let handler: RequestHandler = {
            let executed = Arc::clone(&executed);
            Arc::new(move |req: Request| {
                executed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let mut resp = Response::new(Status::OK, "text/xml", req.body.clone());
                if req.target == "/last-word" {
                    resp.headers.set("Connection", "close");
                }
                resp
            })
        };
        let post = |target: &str, body: &str| {
            Request::soap_post("h", target, "text/xml", body.as_bytes().to_vec())
        };

        // Every request of the run is answered, in request order.
        let (client, server) = duplex(64 * 1024);
        fe.serve(server, Limits::default(), Arc::clone(&handler));
        let mut closing = post("/", "m3");
        closing.headers.set("Connection", "close");
        let reqs = [post("/", "m1"), post("/", "m2"), closing, post("/", "never")];
        let bodies = pipeline(client, &reqs);
        // Nothing after the request that asked to close is executed.
        assert_eq!(bodies, [b"m1", b"m2", b"m3"]);
        assert_eq!(executed.swap(0, std::sync::atomic::Ordering::SeqCst), 3);

        // Nor after a response that closes.
        let (client, server) = duplex(64 * 1024);
        fe.serve(server, Limits::default(), handler);
        let reqs = [post("/", "m1"), post("/last-word", "m2"), post("/", "never")];
        assert_eq!(pipeline(client, &reqs), [b"m1", b"m2"]);
        assert_eq!(executed.load(std::sync::atomic::Ordering::SeqCst), 2);

        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.get("fe.open_conns").map(gauge_value), Some(0));
        assert_eq!(snap.get("fe.parked_partials").map(gauge_value), Some(0));
    }

    #[test]
    fn many_idle_connections_few_threads() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, pool) = front(&reg);
        let mut clients = Vec::new();
        for _ in 0..64 {
            let (client, server) = duplex(64 * 1024);
            fe.serve(server, Limits::default(), echo());
            clients.push(HttpClient::new(client));
        }
        assert_eq!(fe.open_connections(), 64);
        for (i, c) in clients.iter_mut().enumerate() {
            let req = Request::soap_post("h", "/", "text/xml", format!("m{i}").into_bytes());
            assert_eq!(c.call(&req).unwrap().status, Status::OK);
        }
        // 64 live connections, still only the fixed 2 handler threads.
        assert_eq!(pool.worker_count(), 2);
        drop(clients);
        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
    }

    #[test]
    fn half_close_mid_request_releases_connection() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let (mut client, server) = duplex(4096);
        fe.serve(server, Limits::default(), echo());
        // Send half a request head, then hang up.
        client.write_all(b"POST / HTTP/1.1\r\nContent-Le").unwrap();
        assert!(wait_until(|| fe.parked_partials() == 1));
        drop(client);
        assert!(wait_until(|| fe.open_connections() == 0));
        assert_eq!(fe.parked_partials(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.get("fe.open_conns").map(gauge_value), Some(0));
        fe.shutdown();
    }

    #[test]
    fn slow_loris_partial_heads_only_park_buffers() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, pool) = front(&reg);
        let mut holders = Vec::new();
        for _ in 0..16 {
            let (mut client, server) = duplex(4096);
            fe.serve(server, Limits::default(), echo());
            // Each sender drips a few head bytes and stalls.
            client.write_all(b"POST / HT").unwrap();
            holders.push(client);
        }
        assert!(wait_until(|| fe.parked_partials() == 16));
        // No handler thread is consumed by the stalled senders.
        assert_eq!(pool.active_count(), 0);
        // One real client still gets served promptly.
        let (real, server) = duplex(4096);
        fe.serve(server, Limits::default(), echo());
        let mut c = HttpClient::new(real);
        let req = Request::soap_post("h", "/", "text/xml", b"thru".to_vec());
        assert_eq!(c.call(&req).unwrap().body, b"thru");
        drop(holders);
        drop(c);
        assert!(wait_until(|| fe.open_connections() == 0));
        assert_eq!(fe.parked_partials(), 0);
        fe.shutdown();
    }

    #[test]
    fn shutdown_with_parked_partials_releases_everything() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let mut holders = Vec::new();
        for _ in 0..8 {
            let (mut client, server) = duplex(4096);
            fe.serve(server, Limits::default(), echo());
            client.write_all(b"POST /stall HTTP/1.1\r\n").unwrap();
            holders.push(client);
        }
        assert!(wait_until(|| fe.parked_partials() == 8));
        fe.shutdown();
        assert_eq!(fe.open_connections(), 0);
        assert_eq!(fe.parked_partials(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.get("fe.open_conns").map(gauge_value), Some(0));
        assert_eq!(snap.get("fe.parked_partials").map(gauge_value), Some(0));
        // The dropped server ends surface as EOF on the stalled clients.
        for mut h in holders {
            let mut buf = [0u8; 1];
            assert_eq!(std::io::Read::read(&mut h, &mut buf).unwrap(), 0);
        }
    }

    #[test]
    fn malformed_request_closes_connection() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let (mut client, server) = duplex(4096);
        fe.serve(server, Limits::default(), echo());
        client.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
    }

    /// Two valid pipelined requests, then a complete head that is not
    /// HTTP.
    fn framing_script() -> (Vec<u8>, [usize; 2]) {
        let mut script = Vec::new();
        let mut ends = [0; 2];
        for (i, body) in ["m1", "m2"].iter().enumerate() {
            let req = Request::soap_post("h", "/", "text/xml", body.as_bytes().to_vec());
            wsd_http::request_bytes_into(&mut script, &req);
            ends[i] = script.len();
        }
        script.extend_from_slice(b"GARBAGE NOT HTTP\r\nContent-Length: zz\r\n\r\n");
        (script, ends)
    }

    /// Writes `script` in two pieces split at `at` — the second only once
    /// the server has executed every request the first one completes —
    /// then reads until the server closes. Returns the bodies the handler
    /// saw, in order, and every byte that came back.
    fn play_split(
        serve: impl FnOnce(PipeStream, RequestHandler),
        script: &[u8],
        request_ends: &[usize],
        at: usize,
    ) -> (Vec<Vec<u8>>, Vec<u8>) {
        let calls = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let handler: RequestHandler = {
            let calls = Arc::clone(&calls);
            Arc::new(move |req: Request| {
                calls.lock().push(req.body.to_vec());
                Response::new(Status::OK, "text/xml", req.body)
            })
        };
        let (mut client, server) = duplex(64 * 1024);
        serve(server, handler);
        client.write_all(&script[..at]).unwrap();
        let complete = request_ends.iter().filter(|end| **end <= at).count();
        assert!(wait_until(|| calls.lock().len() >= complete), "split {at}");
        client.write_all(&script[at..]).unwrap();
        let mut back = Vec::new();
        std::io::Read::read_to_end(&mut client, &mut back).unwrap();
        let calls = calls.lock().clone();
        (calls, back)
    }

    #[test]
    fn framing_error_behind_pipelined_requests_matches_the_blocking_loop() {
        let reg = wsd_telemetry::Registry::new();
        let (fe, _pool) = front(&reg);
        let (script, ends) = framing_script();
        let mut expected = Vec::new();
        for body in ["m1", "m2"] {
            let resp = Response::new(Status::OK, "text/xml", body.as_bytes().to_vec());
            response_bytes_into(&mut expected, &resp);
        }
        for at in 0..=script.len() {
            let blocking = play_split(
                |server, handler| {
                    std::thread::spawn(move || {
                        let served =
                            wsd_http::serve_connection(server, &Limits::default(), |req| {
                                handler(req)
                            });
                        assert!(served.is_err(), "the framing error is still reported");
                    });
                },
                &script,
                &ends,
                at,
            );
            let reactor = play_split(
                |server, handler| fe.serve(server, Limits::default(), handler),
                &script,
                &ends,
                at,
            );
            // Both executed the parsed prefix, acknowledged it, and closed
            // (`read_to_end` returned).
            assert_eq!(blocking.0, [b"m1", b"m2"], "blocking, split {at}");
            assert_eq!(blocking.1, expected, "blocking, split {at}");
            assert_eq!(reactor, blocking, "split {at}");
        }
        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
    }

    #[test]
    fn sixty_four_connections_keep_order_on_two_workers() {
        const CONNS: usize = 64;
        const CLIENTS: usize = 8;
        const EXCHANGES: usize = 500;
        let reg = wsd_telemetry::Registry::new();
        let pool = Arc::new(
            ThreadPool::new(PoolConfig::fixed("handler", 2).telemetry(reg.scope("pool"))).unwrap(),
        );
        let fe = ReactorFrontEnd::start("reactor-test", Arc::clone(&pool), &reg.scope("fe"));
        let mut clients = Vec::new();
        for _ in 0..CONNS {
            let (client, server) = duplex(64 * 1024);
            fe.serve(server, Limits::default(), echo());
            clients.push(HttpClient::new(client));
        }
        std::thread::scope(|s| {
            for (t, mine) in clients.chunks_mut(CONNS / CLIENTS).enumerate() {
                s.spawn(move || {
                    let body = |c: usize, round: usize| format!("t{t}-c{c}-r{round}").into_bytes();
                    for round in 0..EXCHANGES {
                        for (c, client) in mine.iter_mut().enumerate() {
                            let req = Request::soap_post("h", "/", "text/xml", body(c, round));
                            client.send_only(&req).unwrap();
                        }
                        for (c, client) in mine.iter_mut().enumerate() {
                            let resp = client.read_response().unwrap();
                            assert_eq!(resp.body, body(c, round), "lost, duplicated or reordered");
                        }
                    }
                });
            }
        });
        assert_eq!(fe.open_connections(), CONNS);
        assert_eq!(reg.snapshot().get("fe.open_conns").map(gauge_value), Some(CONNS as i64));
        drop(clients);
        assert!(wait_until(|| fe.open_connections() == 0));
        fe.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.get("fe.open_conns").map(gauge_value), Some(0));
        assert_eq!(snap.get("fe.parked_partials").map(gauge_value), Some(0));
        assert_eq!(snap.counter("fe.dispatches"), (CONNS * EXCHANGES) as u64);
        assert!(snap.gauge_peak("pool.workers") <= 2);
    }

    /// The north star's "every gauge back to zero on teardown", for each
    /// server the front end serves.
    #[test]
    fn every_served_server_tears_down_to_zero() {
        use crate::config::{DispatcherConfig, MsgBoxConfig};
        use crate::rt::{MsgBoxServer, MsgDispatcherServer, RegistryServer, RpcDispatcherServer};
        const HELD: usize = 8;
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let registry = Arc::new(crate::registry::Registry::new());
        let core = crate::msg::MsgCore::new(Arc::clone(&registry), "http://msg:80/msg", 3);
        let msg = MsgDispatcherServer::start_with_telemetry(
            &net,
            "msg",
            80,
            core,
            DispatcherConfig::default(),
            &reg.scope("msg"),
        );
        let rpc = RpcDispatcherServer::start_with_telemetry(
            &net,
            "rpc",
            80,
            Arc::clone(&registry),
            crate::security::PolicyChain::new(),
            DispatcherConfig::default(),
            &reg.scope("rpc"),
        );
        let msgbox = MsgBoxServer::start_with_telemetry(
            &net,
            "msgbox",
            80,
            MsgBoxConfig::default(),
            11,
            &reg.scope("msgbox"),
        );
        let directory = RegistryServer::start(&net, "registry", 80, registry);
        struct Served<'a> {
            host: &'a str,
            /// Whether the server exports its reactor's gauges (under
            /// `host`); the registry service takes no telemetry scope.
            exports: bool,
            open: &'a dyn Fn() -> usize,
            shutdown: &'a dyn Fn(),
        }
        let servers = [
            Served {
                host: "msg",
                exports: true,
                open: &|| msg.open_connections(),
                shutdown: &|| msg.shutdown(),
            },
            Served {
                host: "rpc",
                exports: true,
                open: &|| rpc.open_connections(),
                shutdown: &|| rpc.shutdown(),
            },
            Served {
                host: "msgbox",
                exports: true,
                open: &|| msgbox.open_connections().expect("pooled"),
                shutdown: &|| msgbox.shutdown(),
            },
            Served {
                host: "registry",
                exports: false,
                open: &|| directory.open_connections(),
                shutdown: &|| directory.shutdown(),
            },
        ];
        for Served { host, exports, open, shutdown } in servers {
            let gauge = |name: &str| {
                reg.snapshot().get(&format!("{host}.reactor.{name}")).map(gauge_value)
            };
            // Half-open connections: some silent, some stalled mid-head.
            let mut held = Vec::new();
            for i in 0..HELD {
                let mut client = net.connect(host, 80).unwrap();
                if i % 2 == 0 {
                    client.write_all(b"POST / HTTP/1.1\r\nContent-Le").unwrap();
                }
                held.push(client);
            }
            assert!(wait_until(|| open() == HELD), "{host}");
            if exports {
                assert!(wait_until(|| gauge("parked_partials") == Some(HELD as i64 / 2)), "{host}");
                assert_eq!(gauge("open_conns"), Some(HELD as i64), "{host}");
            }
            shutdown();
            assert_eq!(open(), 0, "{host}");
            if exports {
                assert_eq!(gauge("open_conns"), Some(0), "{host}");
                assert_eq!(gauge("parked_partials"), Some(0), "{host}");
            }
            assert!(!net.is_listening(host, 80), "{host}");
            for mut client in held {
                let mut buf = [0u8; 1];
                assert_eq!(std::io::Read::read(&mut client, &mut buf).unwrap(), 0, "{host}");
            }
        }
    }

    fn gauge_value(m: &wsd_telemetry::MetricValue) -> i64 {
        match m {
            wsd_telemetry::MetricValue::Gauge { value, .. } => *value,
            other => panic!("expected gauge, got {other:?}"),
        }
    }
}
