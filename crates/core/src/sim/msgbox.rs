//! The simulated WS-MsgBox service, in both designs the paper discusses:
//! the shipped thread-per-message design whose `OutOfMemoryError` §4.3.2
//! reports above ~50 clients, and the pooled redesign.
//!
//! The thread-explosion dynamic is modeled explicitly: every in-flight
//! piece of work holds a "native thread" whose lifetime grows with the
//! number of live threads (context-switch/GC thrash), so a burst beyond
//! the service rate snowballs. Crossing the thread budget is the
//! simulated JVM OOM: the process drops every connection and goes silent,
//! exactly as a crashed JVM would.

use std::collections::{HashMap, HashSet};

use wsd_http::{parse_request_bytes, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};
use wsd_telemetry::{Counter, Gauge, Scope};

use crate::config::{MsgBoxConfig, MsgBoxStrategy};
use crate::msgbox::{serve_run, MailboxCounters, MsgBoxStore};
use crate::sim::{response_payload, CpuQueue};

/// The simulated mailbox's books: the telemetry instruments themselves.
/// A clone is a live handle onto the same cells. The `threads` gauge and
/// the budget counters (`thread_spawns`, `budget_exhausted`) expose the
/// thread-accounting dynamic that drives the paper's §4.3.2 OOM.
#[derive(Debug, Clone)]
pub struct SimMsgBoxStats {
    /// The mailbox service's own books (`deposits`, `rpc_calls`,
    /// `fetched`), kept by the service both runtimes call.
    pub mailbox: MailboxCounters,
    /// "Native threads" started.
    pub thread_spawns: Counter,
    /// Times the simulated `OutOfMemoryError` fired.
    pub budget_exhausted: Counter,
    /// Messages ignored after the crash.
    pub dropped_after_crash: Counter,
    /// Pooled strategy: requests waiting for a worker.
    pub backlog_depth: Gauge,
    /// Concurrently live threads; `peak()` is the high-water mark.
    pub threads: Gauge,
}

impl SimMsgBoxStats {
    fn new(scope: &Scope) -> Self {
        SimMsgBoxStats {
            mailbox: MailboxCounters::new(scope),
            thread_spawns: scope.counter("thread_spawns"),
            budget_exhausted: scope.counter("budget_exhausted"),
            dropped_after_crash: scope.counter("dropped_after_crash"),
            backlog_depth: scope.gauge("backlog_depth"),
            threads: scope.gauge("threads"),
        }
    }

    /// Whether the simulated `OutOfMemoryError` fired.
    pub fn oom(&self) -> bool {
        self.budget_exhausted.get() > 0
    }
}

/// Virtual disk cost model: the durable backend's WAL counter deltas
/// (fsyncs, bytes appended) become simulated service latency, so the
/// price of durability is visible on the simulated clock. The defaults
/// model a 2004-era spinning disk: ~8 ms per fsync, ~30 MB/s streaming.
/// The memory backend has no WAL, so it adds no latency.
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Cost of one fsync, in µs.
    pub fsync_us: u64,
    /// Sequential append cost per KiB, in µs.
    pub us_per_kib: u64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile {
            fsync_us: 8_000,
            us_per_kib: 33,
        }
    }
}

/// The WS-MsgBox service as a simulation actor.
pub struct SimMsgBox {
    store: MsgBoxStore,
    config: MsgBoxConfig,
    seed: u64,
    /// CPU cost of one operation.
    service_time: SimDuration,
    /// Thread-lifetime growth per live thread (thrash factor) for the
    /// thread-per-message strategy.
    thrash_factor: f64,
    disk: DiskProfile,
    stats: SimMsgBoxStats,
    /// Thread-per-message strategy: threads alive right now (what the
    /// thrash factor multiplies).
    live_threads: usize,
    cpu: CpuQueue,
    next_token: u64,
    /// Work finishing later: token → (conn to answer on, response).
    pending: HashMap<u64, (ConnId, Payload)>,
    /// Pooled strategy: work waiting for a worker.
    backlog: std::collections::VecDeque<(ConnId, Payload)>,
    busy_workers: usize,
    crashed: bool,
    conns: HashSet<ConnId>,
}

impl SimMsgBox {
    /// Creates the service with the given strategy and budget. With a
    /// durable backend, use `dir: None` (in-memory "disk") and
    /// `SyncMode::Always` so the simulation stays deterministic.
    pub fn new(config: MsgBoxConfig, service_time: SimDuration, seed: u64) -> Self {
        SimMsgBox {
            store: MsgBoxStore::new(config.clone(), seed),
            config,
            seed,
            service_time,
            thrash_factor: 0.02,
            disk: DiskProfile::default(),
            stats: SimMsgBoxStats::new(&Scope::noop()),
            live_threads: 0,
            cpu: CpuQueue::default(),
            next_token: 0,
            pending: HashMap::new(),
            backlog: std::collections::VecDeque::new(),
            busy_workers: 0,
            crashed: false,
            conns: HashSet::new(),
        }
    }

    /// Overrides the thrash factor. Returns `self` for chaining.
    pub fn with_thrash_factor(mut self, f: f64) -> Self {
        self.thrash_factor = f;
        self
    }

    /// Registers telemetry instruments under `scope`. Returns `self`
    /// for chaining. Call before any traffic: the store is rebuilt so
    /// the durable backend's WAL metrics land under `scope` too.
    pub fn with_telemetry(mut self, scope: &Scope) -> Self {
        self.stats = SimMsgBoxStats::new(scope);
        self.store =
            MsgBoxStore::with_telemetry(self.config.clone(), self.seed, &scope.child("store"));
        self
    }

    /// A handle to the live counters (take it after `with_telemetry`).
    pub fn stats(&self) -> SimMsgBoxStats {
        self.stats.clone()
    }

    /// The backing store (e.g. to pre-create mailboxes for a workload,
    /// or to read resident/spilled byte counters).
    pub fn store(&self) -> &MsgBoxStore {
        &self.store
    }

    fn token(&mut self) -> u64 {
        self.next_token += 1;
        self.next_token
    }

    /// Computes the response for one request, immediately (storage work
    /// is cheap; what costs is the thread/CPU accounting around it). One
    /// simulated message is one request: the mailbox service sees a run
    /// of one, so every deposit is its own durability barrier.
    fn respond_to(&mut self, raw: &Payload, now_us: u64) -> Payload {
        let Ok(req) = parse_request_bytes(raw) else {
            return response_payload(&Response::empty(Status::BAD_REQUEST));
        };
        let mut responses = serve_run(&self.store, &self.stats.mailbox, [req], now_us);
        // A run of one yields one response.
        let resp = responses
            .pop()
            .unwrap_or_else(|| Response::empty(Status::SERVICE_UNAVAILABLE));
        response_payload(&resp)
    }

    fn crash(&mut self, ctx: &mut Ctx<'_>) {
        self.crashed = true;
        self.stats.budget_exhausted.inc();
        self.stats.threads.set(0);
        self.stats.backlog_depth.set(0);
        // A dying JVM drops its sockets.
        for conn in self.conns.drain() {
            ctx.close(conn);
        }
        self.pending.clear();
        self.backlog.clear();
    }

    /// Runs [`respond_to`](Self::respond_to) and converts any WAL work
    /// it caused into virtual disk latency (0 for the memory backend).
    fn respond_with_disk_cost(&mut self, bytes: &Payload, now_us: u64) -> (Payload, SimDuration) {
        let wal_work =
            |store: &MsgBoxStore| store.log().map_or((0, 0), |wal| (wal.fsync_count(), wal.bytes_appended()));
        let (fsyncs, appended) = wal_work(&self.store);
        let response = self.respond_to(bytes, now_us);
        let (fsyncs_after, appended_after) = wal_work(&self.store);
        let disk_us = (fsyncs_after - fsyncs) * self.disk.fsync_us
            + (appended_after - appended) * self.disk.us_per_kib / 1024;
        (response, SimDuration(disk_us))
    }

    /// The §4.3.2 memory wall for stored bodies: once the store keeps
    /// more bytes resident than the heap budget, the JVM dies. The
    /// durable backend spills to disk and stays under its memory
    /// budget, so it never trips this.
    fn heap_exhausted(&self) -> bool {
        self.store.resident_bytes() > self.config.heap_budget_bytes as u64
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: Payload) {
        match self.config.strategy {
            MsgBoxStrategy::ThreadPerMessage => {
                // Spawn a "thread" for this message. Lifetime grows with
                // the number already live (the runaway mechanism).
                self.live_threads += 1;
                let live = self.live_threads;
                self.stats.thread_spawns.inc();
                self.stats.threads.set(live as i64);
                if live > self.config.thread_budget {
                    self.crash(ctx);
                    return;
                }
                let factor = 1.0 + self.thrash_factor * live as f64;
                let lifetime = SimDuration((self.service_time.0 as f64 * factor) as u64);
                let (response, disk) =
                    self.respond_with_disk_cost(&bytes, ctx.now().as_micros());
                if self.heap_exhausted() {
                    self.crash(ctx);
                    return;
                }
                let token = self.token();
                self.pending.insert(token, (conn, response));
                ctx.set_timer(SimDuration(lifetime.0 + disk.0), token);
            }
            MsgBoxStrategy::Pooled { workers } => {
                if self.busy_workers < workers {
                    self.busy_workers += 1;
                    self.stats.thread_spawns.inc();
                    self.stats.threads.set(self.busy_workers as i64);
                    let (response, disk) =
                        self.respond_with_disk_cost(&bytes, ctx.now().as_micros());
                    if self.heap_exhausted() {
                        self.crash(ctx);
                        return;
                    }
                    let done_at = self
                        .cpu
                        .reserve(ctx.now(), SimDuration(self.service_time.0 + disk.0));
                    let token = self.token();
                    self.pending.insert(token, (conn, response));
                    ctx.set_timer(done_at.since(ctx.now()), token);
                } else {
                    self.backlog.push_back((conn, bytes));
                    self.stats.backlog_depth.set(self.backlog.len() as i64);
                }
            }
        }
    }
}

impl Process for SimMsgBox {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if self.crashed {
            if let ProcEvent::Message { .. } = event {
                self.stats.dropped_after_crash.inc();
            }
            return;
        }
        match event {
            ProcEvent::Start => {}
            ProcEvent::ConnAccepted { conn, .. } => {
                self.conns.insert(conn);
            }
            ProcEvent::ConnClosed { conn } => {
                self.conns.remove(&conn);
            }
            ProcEvent::Message { conn, bytes } => self.on_request(ctx, conn, bytes),
            ProcEvent::Timer { token } => {
                if let Some((conn, response)) = self.pending.remove(&token) {
                    let _ = ctx.send(conn, response);
                    match self.config.strategy {
                        MsgBoxStrategy::ThreadPerMessage => {
                            self.live_threads -= 1;
                            self.stats.threads.set(self.live_threads as i64);
                        }
                        MsgBoxStrategy::Pooled { .. } => {
                            self.busy_workers = self.busy_workers.saturating_sub(1);
                            self.stats.threads.set(self.busy_workers as i64);
                            if let Some((conn, bytes)) = self.backlog.pop_front() {
                                self.stats.backlog_depth.set(self.backlog.len() as i64);
                                self.on_request(ctx, conn, bytes);
                            }
                        }
                    }
                }
            }
            ProcEvent::ConnEstablished { .. } | ProcEvent::ConnRefused { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use wsd_http::Request;
    use crate::msgbox::ops;
    
    use wsd_netsim::{HostConfig, Simulation};
    use wsd_soap::{Envelope, SoapVersion};

    /// Drives an arbitrary sequence of requests, one after another.
    struct Scripted {
        steps: Vec<Payload>,
        at: usize,
        responses: Rc<RefCell<Vec<String>>>,
    }

    impl Process for Scripted {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
            match ev {
                ProcEvent::Start => {
                    ctx.connect("msgbox", 8082, SimDuration::from_secs(5));
                }
                ProcEvent::ConnEstablished { conn } => {
                    if let Some(p) = self.steps.get(self.at) {
                        ctx.send(conn, p.clone()).unwrap();
                    }
                }
                ProcEvent::Message { conn, bytes } => {
                    self.responses
                        .borrow_mut()
                        .push(String::from_utf8_lossy(&bytes).to_string());
                    self.at += 1;
                    if let Some(p) = self.steps.get(self.at) {
                        let _ = ctx.send(conn, p.clone());
                    }
                }
                _ => {}
            }
        }
    }

    fn rpc_payload(env: &Envelope) -> Payload {
        let req = Request::soap_post(
            "msgbox:8082",
            "/msgbox",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        crate::sim::request_payload(&req)
    }

    fn deposit_payload(box_id: &str, body: &str) -> Payload {
        let req = Request::soap_post(
            "msgbox:8082",
            &format!("/deposit/{box_id}"),
            SoapVersion::V11.content_type(),
            body.as_bytes().to_vec(),
        );
        crate::sim::request_payload(&req)
    }

    fn pooled_config() -> MsgBoxConfig {
        MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 4 },
            ..MsgBoxConfig::default()
        }
    }

    #[test]
    fn create_via_rpc_then_deposit_then_fetch() {
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimMsgBox::new(pooled_config(), SimDuration::from_millis(2), 5);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);

        // Step 1: create. Steps 2-3 are injected after we see the box id,
        // so this test scripts in two phases.
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(Scripted {
                steps: vec![rpc_payload(&ops::create(SoapVersion::V11))],
                at: 0,
                responses: responses.clone(),
            }),
        );
        sim.run();
        let create_resp = responses.borrow()[0].clone();
        let body = create_resp.split("\r\n\r\n").nth(1).unwrap();
        let (box_id, key) =
            ops::parse_create_response(&Envelope::parse(body).unwrap()).unwrap();

        // Phase 2: deposit then fetch on a fresh client.
        let responses2 = Rc::new(RefCell::new(vec![]));
        let c2 = sim.add_host(HostConfig::named("client2"));
        sim.spawn(
            c2,
            Box::new(Scripted {
                steps: vec![
                    deposit_payload(&box_id, "<stored/>"),
                    rpc_payload(&ops::fetch(SoapVersion::V11, &box_id, &key, 10)),
                ],
                at: 0,
                responses: responses2.clone(),
            }),
        );
        sim.run();
        let got = responses2.borrow();
        assert!(got[0].starts_with("HTTP/1.1 202"), "deposit ack: {}", got[0]);
        assert!(got[1].contains("fetchResponse"), "{}", got[1]);
        assert!(got[1].contains("stored"), "{}", got[1]);
        assert_eq!(stats.mailbox.deposits.get(), 1);
        assert_eq!(stats.mailbox.fetched.get(), 1);
        assert!(!stats.oom());
    }

    #[test]
    fn deposit_to_unknown_box_is_404() {
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let service = SimMsgBox::new(pooled_config(), SimDuration::from_millis(1), 5);
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let responses = Rc::new(RefCell::new(vec![]));
        sim.spawn(
            client_host,
            Box::new(Scripted {
                steps: vec![deposit_payload("mbox-nope", "<x/>")],
                at: 0,
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert!(responses.borrow()[0].starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn thread_per_message_survives_gentle_load() {
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let client_host = sim.add_host(HostConfig::named("client"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            thread_budget: 100,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(1), 5);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let responses = Rc::new(RefCell::new(vec![]));
        // Serial requests: one live thread at a time.
        sim.spawn(
            client_host,
            Box::new(Scripted {
                steps: (0..10).map(|_| rpc_payload(&ops::create(SoapVersion::V11))).collect(),
                at: 0,
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert_eq!(responses.borrow().len(), 10);
        assert!(!stats.oom());
        assert!(stats.threads.peak() <= 2);
    }

    #[test]
    fn thread_per_message_explodes_under_burst() {
        // The paper's bug: a burst of concurrent messages spawns a thread
        // each; past the budget, OutOfMemory kills the service.
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            thread_budget: 40,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(50), 5)
            .with_thrash_factor(0.1);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        // 60 clients all deposit at once.
        for i in 0..60 {
            let ch = sim.add_host(HostConfig::named(format!("c{i}")));
            sim.spawn(
                ch,
                Box::new(Scripted {
                    steps: vec![rpc_payload(&ops::create(SoapVersion::V11))],
                    at: 0,
                    responses: Rc::new(RefCell::new(vec![])),
                }),
            );
        }
        sim.run();
        assert!(stats.oom(), "burst must trigger the OOM bug");
        assert!(stats.threads.peak() > 40);
    }

    #[test]
    fn pooled_strategy_handles_the_same_burst() {
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 8 },
            thread_budget: 40,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(50), 5);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let mut resp_handles = vec![];
        for i in 0..60 {
            let ch = sim.add_host(HostConfig::named(format!("c{i}")));
            let responses = Rc::new(RefCell::new(vec![]));
            resp_handles.push(responses.clone());
            sim.spawn(
                ch,
                Box::new(Scripted {
                    steps: vec![rpc_payload(&ops::create(SoapVersion::V11))],
                    at: 0,
                    responses,
                }),
            );
        }
        sim.run();
        assert!(!stats.oom(), "pooled design must not OOM");
        assert!(stats.threads.peak() <= 8);
        // Every client got its answer.
        assert!(resp_handles.iter().all(|r| r.borrow().len() == 1));
    }

    #[test]
    fn memory_backend_hits_the_heap_wall() {
        // Bodies pile up in RAM (nobody fetches); past the heap budget
        // the JVM dies — the §4.3.2 memory wall for stored messages.
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 4 },
            heap_budget_bytes: 1024,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(1), 5);
        let (box_id, _key) = service.store().create(0);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let ch = sim.add_host(HostConfig::named("client"));
        let body = "x".repeat(200);
        sim.spawn(
            ch,
            Box::new(Scripted {
                steps: (0..10).map(|_| deposit_payload(&box_id, &body)).collect(),
                at: 0,
                responses: Rc::new(RefCell::new(vec![])),
            }),
        );
        sim.run();
        assert!(stats.oom(), "unbounded mailbox growth must OOM");
        assert!(stats.mailbox.deposits.get() < 10, "the fatal deposit is never acked");
    }

    #[test]
    fn durable_backend_spills_past_the_heap_wall() {
        // Same workload, durable backend: bodies spill to the WAL once
        // the store's memory budget fills, resident bytes stay bounded,
        // and the service survives — at a visible disk-latency price.
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::Pooled { workers: 4 },
            heap_budget_bytes: 1024,
            backend: crate::config::MailboxBackend::Durable {
                dir: None,
                store: wsd_store::StoreConfig {
                    wal: wsd_store::WalConfig {
                        sync: wsd_store::SyncMode::Always,
                        ..wsd_store::WalConfig::default()
                    },
                    memory_budget_bytes: 512,
                    ..wsd_store::StoreConfig::default()
                },
            },
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(1), 5);
        let (box_id, _key) = service.store().create(0);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let ch = sim.add_host(HostConfig::named("client"));
        let responses = Rc::new(RefCell::new(vec![]));
        let body = "x".repeat(200);
        sim.spawn(
            ch,
            Box::new(Scripted {
                steps: (0..10).map(|_| deposit_payload(&box_id, &body)).collect(),
                at: 0,
                responses: responses.clone(),
            }),
        );
        sim.run();
        assert!(!stats.oom(), "durable backend must ride out the burst");
        assert_eq!(stats.mailbox.deposits.get(), 10);
        assert!(responses.borrow().iter().all(|r| r.starts_with("HTTP/1.1 202")));
        // Each deposit fsynced: the virtual disk made durability cost
        // simulated time (10 fsyncs ≥ 80 ms on the default profile).
        assert!(sim.now().as_micros() >= 80_000, "at {}", sim.now().as_micros());
    }

    #[test]
    fn telemetry_tracks_threads_and_budget_exhaustion() {
        let reg = wsd_telemetry::Registry::new();
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            thread_budget: 40,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(50), 5)
            .with_thrash_factor(0.1)
            .with_telemetry(&reg.scope("msgbox"));
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        for i in 0..60 {
            let ch = sim.add_host(HostConfig::named(format!("c{i}")));
            sim.spawn(
                ch,
                Box::new(Scripted {
                    steps: vec![rpc_payload(&ops::create(SoapVersion::V11))],
                    at: 0,
                    responses: Rc::new(RefCell::new(vec![])),
                }),
            );
        }
        sim.run();
        assert!(stats.oom());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("msgbox.budget_exhausted"), 1);
        assert!(snap.counter("msgbox.thread_spawns") > 40);
        assert!(snap.gauge_peak("msgbox.threads") > 40);
        // The handle is the instrument: every field reads what the
        // registry reports under the same name.
        for (name, counter) in [
            ("deposits", &stats.mailbox.deposits),
            ("rpc_calls", &stats.mailbox.rpc_calls),
            ("fetched", &stats.mailbox.fetched),
            ("thread_spawns", &stats.thread_spawns),
            ("budget_exhausted", &stats.budget_exhausted),
            ("dropped_after_crash", &stats.dropped_after_crash),
        ] {
            assert_eq!(counter.get(), snap.counter(&format!("msgbox.{name}")), "{name}");
        }
        assert_eq!(stats.threads.peak(), snap.gauge_peak("msgbox.threads"));
        assert_eq!(stats.backlog_depth.peak(), snap.gauge_peak("msgbox.backlog_depth"));
    }

    #[test]
    fn crashed_service_goes_silent() {
        let mut sim = Simulation::new(1);
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let cfg = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            thread_budget: 5,
            ..MsgBoxConfig::default()
        };
        let service = SimMsgBox::new(cfg, SimDuration::from_millis(100), 5);
        let stats = service.stats();
        let mp = sim.spawn(mb_host, Box::new(service));
        sim.listen(mp, 8082);
        let mut resp_handles = vec![];
        for i in 0..20 {
            let ch = sim.add_host(HostConfig::named(format!("c{i}")));
            let responses = Rc::new(RefCell::new(vec![]));
            resp_handles.push(responses.clone());
            sim.spawn(
                ch,
                Box::new(Scripted {
                    steps: vec![
                        rpc_payload(&ops::create(SoapVersion::V11)),
                        rpc_payload(&ops::create(SoapVersion::V11)),
                    ],
                    at: 0,
                    responses,
                }),
            );
        }
        sim.run();
        assert!(stats.oom());
        // Some clients never heard back (undeterministic, puzzling
        // errors — the paper's words).
        let unanswered = resp_handles
            .iter()
            .filter(|r| r.borrow().len() < 2)
            .count();
        assert!(unanswered > 0);
    }
}
