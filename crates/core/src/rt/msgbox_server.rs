//! The threaded WS-MsgBox service, in both designs.
//!
//! [`MsgBoxStrategy::ThreadPerMessage`] spawns a real OS thread per
//! connection, gated by a [`ThreadBudget`]; exhausting the budget sets
//! the crashed flag and the service goes dark — the honest in-process
//! version of the paper's `OutOfMemoryError`. The pooled design serves
//! from a bounded [`ThreadPool`] and survives the same load.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wsd_concurrent::{PoolConfig, ThreadBudget, ThreadPool};
use wsd_http::{serve_connection, Limits, Request, Response, Status};
use wsd_telemetry::{Counter, Scope};

use crate::config::{MsgBoxConfig, MsgBoxStrategy};
use crate::msgbox::{serve_run, MailboxCounters, MsgBoxStore};
use crate::rt::{now_us, Network, ReactorFrontEnd};

/// A running WS-MsgBox service.
pub struct MsgBoxServer {
    store: Arc<MsgBoxStore>,
    /// Present in the pooled design: connections are multiplexed on a
    /// reactor instead of pinning a thread each, so the service scales
    /// past the worker count in open sockets.
    front: Option<ReactorFrontEnd>,
    budget: ThreadBudget,
    crashed: Arc<AtomicBool>,
    /// The service's books: `deposits()` and `stats()` read these cells.
    counters: MailboxCounters,
    crashes: Counter,
    net: Arc<Network>,
    conns: Arc<crate::rt::ConnTracker>,
    host: String,
    port: u16,
}

impl MsgBoxServer {
    /// Starts the service on `host:port`.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        config: MsgBoxConfig,
        seed: u64,
    ) -> Arc<MsgBoxServer> {
        Self::start_with_telemetry(net, host, port, config, seed, &Scope::noop())
    }

    /// Like [`MsgBoxServer::start`], with telemetry instruments
    /// registered under `scope` (operation counters, a `budget`
    /// sub-scope, and a `pool` sub-scope in the pooled design).
    pub fn start_with_telemetry(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        config: MsgBoxConfig,
        seed: u64,
        scope: &Scope,
    ) -> Arc<MsgBoxServer> {
        // The store hangs its WAL/spill metrics (durable backend) off a
        // `store` sub-scope; the store with no log registers nothing.
        let store = Arc::new(MsgBoxStore::with_telemetry(
            config.clone(),
            seed,
            &scope.child("store"),
        ));
        let budget = ThreadBudget::new(config.thread_budget);
        budget.bind_telemetry(&scope.child("budget"));
        // The pooled redesign gets the reactor front end; thread-per-message
        // keeps the paper's original architecture (and its OOM wall).
        let front = match config.strategy {
            MsgBoxStrategy::Pooled { workers } => {
                let pool = ThreadPool::new(
                    PoolConfig::fixed(format!("msgbox-{host}"), workers)
                        .telemetry(scope.child("pool")),
                )
                .expect("pool");
                Some(ReactorFrontEnd::start("reactor", Arc::new(pool), &scope.child("reactor")))
            }
            MsgBoxStrategy::ThreadPerMessage => None,
        };
        let server = Arc::new(MsgBoxServer {
            store,
            front,
            budget,
            crashed: Arc::new(AtomicBool::new(false)),
            counters: MailboxCounters::new(scope),
            crashes: scope.counter("crashes"),
            net: Arc::clone(net),
            conns: crate::rt::ConnTracker::new(),
            host: host.to_string(),
            port,
        });
        let server2 = Arc::clone(&server);
        match &server.front {
            Some(front) => {
                front.listen(net, host, port, Arc::new(move |run| server2.handle_run(run)))
            }
            None => net.listen(host, port, move |stream| {
                server2.conns.track(&stream);
                server2.spawn_message_thread(stream);
            }),
        }
        server
    }

    /// Thread-per-connection, gated by the native-thread budget.
    fn spawn_message_thread(self: &Arc<Self>, stream: wsd_http::PipeStream) {
        if self.crashed.load(Ordering::Acquire) {
            return; // dead JVM: the socket just hangs
        }
        let server = Arc::clone(self);
        match self.budget.try_acquire() {
            Ok(lease) => {
                // wsd-lint: allow(raw-thread-spawn): deliberate thread-per-message architecture reproducing the paper's WS-MsgBox OOM wall, gated by ThreadBudget
                let spawned = std::thread::Builder::new()
                    .name("msgbox-msg".into())
                    .spawn(move || {
                        let _lease = lease;
                        server.serve(stream);
                    });
                if spawned.is_err() {
                    self.mark_crashed();
                }
            }
            Err(_) => self.mark_crashed(),
        }
    }

    fn mark_crashed(&self) {
        if !self.crashed.swap(true, Ordering::AcqRel) {
            self.crashes.inc();
            // OutOfMemoryError: stop accepting anything new.
            self.net.unlisten(&self.host, self.port);
        }
    }

    /// Thread-per-message keeps the paper's shape: one request at a
    /// time, a run of one, so each deposit is its own durability barrier.
    fn serve(&self, stream: wsd_http::PipeStream) {
        let _ = serve_connection(stream, &Limits::default(), |req| {
            // A run of one yields one response.
            self.handle_run(vec![req])
                .pop()
                .unwrap_or_else(|| Response::empty(Status::SERVICE_UNAVAILABLE))
        });
    }

    /// Serves one run of pipelined requests through the mailbox service.
    /// A run is answered when its deposits are stored, durable and
    /// counted, and no later.
    fn handle_run(&self, run: Vec<Request>) -> Vec<Response> {
        if self.crashed.load(Ordering::Acquire) {
            return run.iter().map(|_| Response::empty(Status::SERVICE_UNAVAILABLE)).collect();
        }
        serve_run(&self.store, &self.counters, run, now_us())
    }

    /// Whether the simulated OOM fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Deposits accepted.
    pub fn deposits(&self) -> u64 {
        self.counters.deposits.get()
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> MailboxCounters {
        self.counters.clone()
    }

    /// Peak concurrently live message threads (thread-per-message mode).
    pub fn peak_threads(&self) -> usize {
        self.budget.peak()
    }

    /// Direct access to the store (for assertions in tests).
    pub fn store(&self) -> &MsgBoxStore {
        &self.store
    }

    /// Open connections on the reactor front end (pooled design only).
    pub fn open_connections(&self) -> Option<usize> {
        self.front.as_ref().map(ReactorFrontEnd::open_connections)
    }

    /// Stops the service.
    pub fn shutdown(&self) {
        match &self.front {
            Some(front) => front.shutdown(),
            None => {
                self.net.unlisten(&self.host, self.port);
                self.conns.close_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msgbox::ops;
    use crate::rt::client::MailboxClient;
    use std::time::Duration;
    use wsd_http::HttpClient;
    use wsd_soap::{Envelope, SoapVersion};

    fn pooled() -> MsgBoxConfig {
        MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 4 },
            ..MsgBoxConfig::default()
        }
    }

    #[test]
    fn mailbox_lifecycle_over_the_network() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let server =
            MsgBoxServer::start_with_telemetry(&net, "msgbox", 8082, pooled(), 11, &reg.scope("mb"));
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        // Deposit directly (as a dispatcher would).
        let inner = wsd_soap::rpc::echo_response(SoapVersion::V11, "stored!").to_xml();
        let stream = net.connect("msgbox", 8082).unwrap();
        let mut c = HttpClient::new(stream);
        let req = Request::soap_post(
            "msgbox:8082",
            &format!("/deposit/{}", mbox.box_id()),
            "text/xml",
            inner.clone().into_bytes(),
        );
        assert_eq!(c.call(&req).unwrap().status, Status::ACCEPTED);
        // Poll.
        let messages = mbox.poll(10).unwrap();
        assert_eq!(messages.len(), 1);
        assert_eq!(
            wsd_soap::rpc::parse_echo_response(&messages[0]).unwrap(),
            "stored!"
        );
        // Empty after fetch; destroy works.
        assert!(mbox.poll(10).unwrap().is_empty());
        mbox.destroy().unwrap();
        assert_eq!(server.deposits(), 1);
        let stats = server.stats();
        assert_eq!(stats.fetched.get(), 1);
        assert!(stats.rpc_calls.get() >= 3);
        // The accessors read the instruments the registry reports.
        let snap = reg.snapshot();
        assert_eq!(server.deposits(), snap.counter("mb.deposits"));
        assert_eq!(stats.rpc_calls.get(), snap.counter("mb.rpc_calls"));
        assert_eq!(stats.fetched.get(), snap.counter("mb.fetched"));
        server.shutdown();
    }

    #[test]
    fn durable_backend_survives_server_restart() {
        let dir = std::env::temp_dir().join("wsd-rt-durable-msgbox-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 2 },
            backend: crate::config::MailboxBackend::Durable {
                dir: Some(dir.clone()),
                store: wsd_store::StoreConfig::default(),
            },
            ..MsgBoxConfig::default()
        };
        let net = Network::new();
        let server = MsgBoxServer::start(&net, "msgbox", 8082, cfg.clone(), 11);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let inner = wsd_soap::rpc::echo_response(SoapVersion::V11, "precious").to_xml();
        let stream = net.connect("msgbox", 8082).unwrap();
        let mut c = HttpClient::new(stream);
        let req = Request::soap_post(
            "msgbox:8082",
            &format!("/deposit/{}", mbox.box_id()),
            "text/xml",
            inner.into_bytes(),
        );
        assert_eq!(c.call(&req).unwrap().status, Status::ACCEPTED);
        let (id, key) = (mbox.box_id().to_string(), mbox.access_key().to_string());
        server.shutdown();
        // A new process over the same WAL directory: the deposit (acked
        // with 202 before the crash) must still be there.
        let server = MsgBoxServer::start(&net, "msgbox", 8083, cfg, 12);
        let mbox = MailboxClient::attach(&net, "msgbox", 8083, id, key);
        let messages = mbox.poll(10).unwrap();
        assert_eq!(messages.len(), 1);
        assert_eq!(
            wsd_soap::rpc::parse_echo_response(&messages[0]).unwrap(),
            "precious"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A pooled server on the durable backend (in-memory "disk",
    /// default group commit) with `quota` bytes of tenant quota.
    fn durable_server(net: &Arc<Network>, quota: u64) -> Arc<MsgBoxServer> {
        let cfg = MsgBoxConfig {
            backend: crate::config::MailboxBackend::Durable {
                dir: None,
                store: wsd_store::StoreConfig {
                    quota_bytes_per_tenant: quota,
                    ..wsd_store::StoreConfig::default()
                },
            },
            ..pooled()
        };
        MsgBoxServer::start(net, "msgbox", 8082, cfg, 11)
    }

    fn deposit_req(box_id: &str, body: &str) -> Request {
        Request::soap_post(
            "msgbox:8082",
            &format!("/deposit/{box_id}"),
            "text/xml",
            body.as_bytes().to_vec(),
        )
    }

    fn fetch_req(mbox: &MailboxClient) -> Request {
        Request::soap_post(
            "msgbox:8082",
            "/msgbox",
            SoapVersion::V11.content_type(),
            ops::fetch(SoapVersion::V11, mbox.box_id(), mbox.access_key(), 10)
                .to_xml()
                .into_bytes(),
        )
    }

    fn fetched(resp: &Response) -> Vec<String> {
        let env = Envelope::parse(&resp.body_utf8()).unwrap();
        ops::parse_fetch_response(&env).unwrap()
    }

    #[test]
    fn pipelined_deposits_share_one_durability_barrier() {
        const RUN: usize = 16;
        let net = Network::new();
        let server = durable_server(&net, u64::MAX);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let fsyncs_before = server.store().wal().fsync_count();
        // `deposits()` is what a dispatcher's settle loop trusts: it
        // must never run ahead of the fsync that makes a deposit real.
        let sampler = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || loop {
                let counted = server.deposits();
                let synced = server.store().wal().fsync_count() - fsyncs_before;
                assert!(counted == 0 || synced > 0, "{counted} deposits counted before any commit");
                if counted == RUN as u64 {
                    break;
                }
                std::thread::yield_now();
            })
        };
        let reqs: Vec<Request> =
            (0..RUN).map(|i| deposit_req(mbox.box_id(), &format!("<m{i}/>"))).collect();
        let mut c = HttpClient::new(net.connect("msgbox", 8082).unwrap());
        let resps = c.call_pipelined(&reqs, &mut Vec::new()).unwrap();
        assert!(resps.iter().all(|r| r.status == Status::ACCEPTED));
        assert_eq!(resps.len(), RUN);
        sampler.join().unwrap();
        let fsyncs = server.store().wal().fsync_count() - fsyncs_before;
        assert!(fsyncs <= 2, "{fsyncs} fsyncs for one pipelined run of {RUN} deposits");
        // Stored in request order.
        let got: Vec<String> = fetched(&c.call(&fetch_req(&mbox)).unwrap());
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], "<m0/>");
        assert_eq!(got[9], "<m9/>");
        server.shutdown();
    }

    #[test]
    fn a_rejected_deposit_does_not_poison_its_run() {
        let net = Network::new();
        // Room for the small bodies, not for the big one.
        let server = durable_server(&net, 64);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let big = "x".repeat(100);
        let reqs = [
            deposit_req(mbox.box_id(), "<a/>"),
            deposit_req("mbox-missing", "<lost/>"),
            deposit_req(mbox.box_id(), "<b/>"),
            deposit_req(mbox.box_id(), &big),
            deposit_req(mbox.box_id(), "<c/>"),
        ];
        let mut c = HttpClient::new(net.connect("msgbox", 8082).unwrap());
        let resps = c.call_pipelined(&reqs, &mut Vec::new()).unwrap();
        let statuses: Vec<Status> = resps.iter().map(|r| r.status).collect();
        assert_eq!(
            statuses,
            [Status::ACCEPTED, Status::NOT_FOUND, Status::ACCEPTED, Status::NOT_FOUND, Status::ACCEPTED]
        );
        assert_eq!(server.deposits(), 3);
        assert_eq!(fetched(&c.call(&fetch_req(&mbox)).unwrap()), ["<a/>", "<b/>", "<c/>"]);
        server.shutdown();
    }

    #[test]
    fn nothing_after_connection_close_is_stored() {
        let net = Network::new();
        let server = durable_server(&net, u64::MAX);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let mut closing = deposit_req(mbox.box_id(), "<last/>");
        closing.headers.set("Connection", "close");
        let mut wire = Vec::new();
        for req in [
            deposit_req(mbox.box_id(), "<first/>"),
            closing,
            deposit_req(mbox.box_id(), "<never/>"),
        ] {
            wsd_http::request_bytes_into(&mut wire, &req);
        }
        let mut stream = net.connect("msgbox", 8082).unwrap();
        std::io::Write::write_all(&mut stream, &wire).unwrap();
        let mut c = HttpClient::new(stream);
        assert_eq!(c.read_response().unwrap().status, Status::ACCEPTED);
        assert_eq!(c.read_response().unwrap().status, Status::ACCEPTED);
        assert!(c.read_response().is_err(), "the server closes after the second exchange");
        assert_eq!(server.deposits(), 2);
        assert_eq!(server.store().len(mbox.box_id(), 0).unwrap(), 2);
        server.shutdown();
    }

    #[test]
    fn a_run_mixing_deposits_and_fetches_keeps_order_and_picks_up_once() {
        let net = Network::new();
        let server = durable_server(&net, u64::MAX);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let reqs = [
            deposit_req(mbox.box_id(), "<a/>"),
            deposit_req(mbox.box_id(), "<b/>"),
            fetch_req(&mbox),
            deposit_req(mbox.box_id(), "<c/>"),
            fetch_req(&mbox),
            fetch_req(&mbox),
        ];
        let mut c = HttpClient::new(net.connect("msgbox", 8082).unwrap());
        let resps = c.call_pipelined(&reqs, &mut Vec::new()).unwrap();
        for i in [0, 1, 3] {
            assert_eq!(resps[i].status, Status::ACCEPTED);
        }
        // Each fetch sees exactly what was deposited ahead of it in
        // the run and not yet picked up.
        assert_eq!(fetched(&resps[2]), ["<a/>", "<b/>"]);
        assert_eq!(fetched(&resps[4]), ["<c/>"]);
        assert!(fetched(&resps[5]).is_empty());
        assert_eq!(server.deposits(), 3);
        server.shutdown();
    }

    #[test]
    fn thread_per_message_crashes_past_budget() {
        let reg = wsd_telemetry::Registry::new();
        let net = Network::new();
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            thread_budget: 8,
            ..MsgBoxConfig::default()
        };
        let server =
            MsgBoxServer::start_with_telemetry(&net, "msgbox", 8082, cfg, 11, &reg.scope("mb"));
        // Open many connections that hold their thread by keeping the
        // exchange open (slow readers).
        let mut held = Vec::new();
        for _ in 0..8 {
            // Connect without sending: the serve thread blocks in read.
            held.push(net.connect("msgbox", 8082).unwrap());
        }
        // Give the spawned threads a moment to start.
        std::thread::sleep(Duration::from_millis(50));
        // The 9th message is the OutOfMemoryError.
        let _ = net.connect("msgbox", 8082);
        for _ in 0..100 {
            if server.crashed() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(server.crashed(), "budget exhaustion must crash the service");
        assert!(server.peak_threads() >= 8);
        // The crashed service no longer accepts connections.
        assert!(net.connect("msgbox", 8082).is_err());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mb.crashes"), 1);
        assert!(snap.counter("mb.budget.denials") >= 1);
        assert!(snap.gauge_peak("mb.budget.live") >= 8);
        server.shutdown();
    }

    #[test]
    fn pooled_design_survives_connection_burst() {
        let net = Network::new();
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 4 },
            thread_budget: 8,
            ..MsgBoxConfig::default()
        };
        let server = MsgBoxServer::start(&net, "msgbox", 8082, cfg, 11);
        let mut handles = Vec::new();
        for _ in 0..16 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let stream = net.connect("msgbox", 8082).unwrap();
                let mut c = HttpClient::new(stream);
                let mut req = Request::soap_post(
                    "msgbox:8082",
                    "/msgbox",
                    SoapVersion::V11.content_type(),
                    ops::create(SoapVersion::V11).to_xml().into_bytes(),
                );
                req.headers.set("Connection", "close");
                c.call(&req).unwrap().status
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), Status::OK);
        }
        assert!(!server.crashed());
        assert_eq!(server.store().box_count(), 16);
        server.shutdown();
    }

    #[test]
    fn deposit_to_missing_box_is_404() {
        let net = Network::new();
        let server = MsgBoxServer::start(&net, "msgbox", 8082, pooled(), 11);
        let stream = net.connect("msgbox", 8082).unwrap();
        let mut c = HttpClient::new(stream);
        let req = Request::soap_post(
            "msgbox:8082",
            "/deposit/mbox-missing",
            "text/xml",
            b"<x/>".to_vec(),
        );
        assert_eq!(c.call(&req).unwrap().status, Status::NOT_FOUND);
        server.shutdown();
    }
}
