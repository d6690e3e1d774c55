//! The sharded dispatcher fleet on the simulated runtime.
//!
//! One dispatcher instance tops out where its disk does: with the
//! durable mailbox backend every acknowledged deposit costs an fsync,
//! so a 2004-era disk caps an instance near `1/fsync` deposits per
//! second. This module scales past that by running N instances behind
//! a seeded consistent-hash ring ([`ShardRing`]):
//!
//! * **routing** — clients hash the logical service name onto the ring
//!   ([`FleetClientHub::shard_route`]) and deposit at the owning
//!   instance; every enqueue goes through the routing step first (the
//!   `shard-route-before-enqueue` lint rule enforces this shape);
//! * **registry replication** — instance 0's registry is the leader
//!   ([`RegistryLeader`]); every instance tails it through a
//!   [`RegistryFollower`] on its control tick (PSYNC shape: snapshot
//!   full resync, then offset-stamped commands);
//! * **failure & handoff** — clients detect a dead instance by ack
//!   timeout, drop it from their ring view and re-route; the ring's
//!   authoritative copy reassigns the dead arcs and a successor adopts
//!   the orphaned durable store ([`HandoffLog`]), replaying every
//!   acknowledged-but-undelivered deposit.
//!
//! # Why no acknowledged message is ever lost — or delivered twice
//!
//! An instance writes a deposit to the WAL and sends the `202` ack in
//! the *same* simulation event, so a kill can never separate them:
//! unacked ⇒ not stored. Draining does the reverse with the same
//! atomicity: [`wsd_store::DurableMsgBox::fetch`] makes the covering
//! ack durable before handing the messages out, and the instance
//! forwards them in the same event. So after a kill,
//!
//! * the successor recovers exactly the acked-but-unforwarded tail;
//! * the client re-sends exactly the unacked tail;
//!
//! and the two sets cannot intersect. Simulated clients are an
//! aggregate open-loop generator (100k clients ≈ their offered rate),
//! and instances shed load with `503` once their disk/CPU backlog
//! passes [`FleetConfig::max_backlog`] — that keeps ack latency far
//! below the ack timeout, so overload never masquerades as death.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use wsd_fleet::{HandoffLog, InstanceId, ShardRing};
use wsd_http::{parse_request_bytes, Request, Response, Status};
use wsd_netsim::{
    ConnId, Ctx, HostConfig, Payload, ProcEvent, ProcId, Process, SimDuration, SimTime,
    Simulation,
};
use wsd_store::{DurableMsgBox, StoreConfig, SyncMode, WalConfig};
use wsd_telemetry::{Counter, Gauge, Scope};

use crate::config::FleetConfig;
use crate::registry::Registry;
use crate::registry_repl::{RegistryFollower, RegistryLeader};
use crate::sim::msgbox::DiskProfile;
use crate::sim::{request_payload, response_payload, to_sim, CpuQueue};
use crate::url::Url;

/// Port every fleet instance listens on (hosts are distinct).
const FLEET_PORT: u16 = 8090;
/// Port the delivery sink listens on.
const SINK_PORT: u16 = 8099;
/// Fixed mailbox access key: box ids are logical service names, minted
/// identically on every instance so a successor can open them.
const BOX_KEY: &str = "fleet";

const TOKEN_CONTROL: u64 = 1;
const TOKEN_DRAIN: u64 = 2;
const TOKEN_RECOVERY: u64 = 3;
const TOKEN_GEN: u64 = 1;
const TOKEN_CHECK: u64 = 2;
/// Deposit-completion tokens start here.
const TOKEN_DEPOSIT_BASE: u64 = 16;

fn instance_host(i: u32) -> String {
    format!("fleet-i{i}")
}

/// Pulls the message key out of a fleet body (`<m k="NN" .../>`)
/// without a full XML parse — the sim hot path.
fn body_key(body: &str) -> Option<u64> {
    let at = body.find("k=\"")? + 3;
    let rest = &body[at..];
    let end = rest.find('"')?;
    rest[..end].parse().ok()
}

// ---------------------------------------------------------------------
// Shared control plane
// ---------------------------------------------------------------------

struct SharedInner {
    /// Authoritative ring: membership changes land here first.
    ring: ShardRing,
    alive: Vec<bool>,
    /// Each instance's simulated disk. Cloning shares the bytes, which
    /// is exactly what ownership handoff needs.
    storages: Vec<wsd_store::MemStorage>,
    handoffs: HandoffLog,
    store_cfg: StoreConfig,
}

/// Control-plane state all fleet actors share (single-threaded sim).
#[derive(Clone)]
pub struct FleetShared {
    inner: Rc<RefCell<SharedInner>>,
}

impl FleetShared {
    fn new(cfg: &FleetConfig, store_cfg: StoreConfig) -> FleetShared {
        FleetShared {
            inner: Rc::new(RefCell::new(SharedInner {
                ring: cfg.ring(),
                alive: vec![true; cfg.instances],
                storages: (0..cfg.instances)
                    .map(|_| wsd_store::MemStorage::new())
                    .collect(),
                handoffs: HandoffLog::new(),
                store_cfg,
            })),
        }
    }
}

// ---------------------------------------------------------------------
// Instance
// ---------------------------------------------------------------------

struct InstanceTelemetry {
    acked: Counter,
    shed: Counter,
    forwarded: Counter,
    recovered: Counter,
    handoffs_claimed: Counter,
    owned_ranges: Gauge,
    repl_offset: Gauge,
    repl_lag: Gauge,
    backlog_depth: Gauge,
    handoffs_in_flight: Gauge,
}

impl InstanceTelemetry {
    fn new(scope: &Scope, fleet_scope: &Scope) -> InstanceTelemetry {
        InstanceTelemetry {
            acked: scope.counter("acked"),
            shed: scope.counter("shed"),
            forwarded: scope.counter("forwarded"),
            recovered: scope.counter("recovered"),
            handoffs_claimed: scope.counter("handoffs_claimed"),
            owned_ranges: scope.gauge("owned_ranges"),
            repl_offset: scope.gauge("repl_offset"),
            repl_lag: scope.gauge("repl_lag"),
            backlog_depth: scope.gauge("backlog_depth"),
            handoffs_in_flight: fleet_scope.gauge("handoffs_in_flight"),
        }
    }
}

/// One dispatcher instance of the fleet: accepts deposits for the
/// shard arcs it owns, makes them durable, acks, then drains them to
/// the delivery sink in batches. Its control tick tails the registry
/// leader and claims ownership handoffs addressed to it.
pub struct SimFleetInstance {
    id: InstanceId,
    shared: FleetShared,
    leader: Arc<RegistryLeader>,
    follower: RegistryFollower,
    store: DurableMsgBox,
    created: HashSet<String>,
    /// Deposited-not-yet-drained counts per service (sorted for
    /// deterministic drain order).
    backlog: BTreeMap<String, u64>,
    disk: CpuQueue,
    cpu: CpuQueue,
    profile: DiskProfile,
    dispatch_cost: SimDuration,
    drain_batch: usize,
    max_backlog: SimDuration,
    control_tick: SimDuration,
    sink_conn: Option<ConnId>,
    sink_ready: bool,
    /// Deposits whose modeled disk write is still in the queue:
    /// token → (conn, service, key, body). Durable only when the
    /// timer fires — a kill before that loses them *unacked*.
    pending_deposits: HashMap<u64, (ConnId, String, u64, String)>,
    next_token: u64,
    drain_scheduled: bool,
    pending_recovery: Option<(usize, u64)>,
    tele: InstanceTelemetry,
}

impl SimFleetInstance {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: InstanceId,
        shared: FleetShared,
        leader: Arc<RegistryLeader>,
        params: &FleetParams,
        scope: &Scope,
        fleet_scope: &Scope,
    ) -> SimFleetInstance {
        let (store_cfg, storage) = {
            let inner = shared.inner.borrow();
            (
                inner.store_cfg.clone(),
                inner.storages[id.0 as usize].clone(),
            )
        };
        let (store, _report) =
            DurableMsgBox::open(store_cfg, Box::new(storage), &scope.child("store"), 0)
                .expect("in-memory storage cannot fail to open");
        SimFleetInstance {
            id,
            shared,
            leader,
            follower: RegistryFollower::new(Arc::new(Registry::new())),
            store,
            created: HashSet::new(),
            backlog: BTreeMap::new(),
            disk: CpuQueue::default(),
            cpu: CpuQueue::default(),
            profile: params.disk,
            dispatch_cost: to_sim(params.dispatch_cost),
            drain_batch: params.drain_batch,
            max_backlog: to_sim(params.fleet.max_backlog),
            control_tick: to_sim(params.fleet.control_tick),
            sink_conn: None,
            sink_ready: false,
            pending_deposits: HashMap::new(),
            next_token: TOKEN_DEPOSIT_BASE,
            drain_scheduled: false,
            pending_recovery: None,
            tele: InstanceTelemetry::new(scope, fleet_scope),
        }
    }

    fn token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Modeled disk price of one deposit: the record fsync, streaming
    /// bytes, plus a one-time fsync if the box must be created first.
    fn deposit_cost(&self, svc: &str, body_len: usize) -> SimDuration {
        let mut us = self.profile.fsync_us + body_len as u64 * self.profile.us_per_kib / 1024;
        if !self.created.contains(svc) {
            us += self.profile.fsync_us;
        }
        SimDuration(us)
    }

    fn on_deposit(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, svc: &str, body: String) {
        let key = body_key(&body).unwrap_or(u64::MAX);
        // Admission control: shed once the backlog would push ack
        // latency toward the client's failure detector.
        if self.disk.backlog(ctx.now()).0 > self.max_backlog.0
            || self.cpu.backlog(ctx.now()).0 > self.max_backlog.0
        {
            self.tele.shed.inc();
            let resp = Response::new(
                Status::SERVICE_UNAVAILABLE,
                "text/xml",
                format!("<shed k=\"{key}\"/>").into_bytes(),
            );
            let _ = ctx.send(conn, response_payload(&resp));
            return;
        }
        let cost = self.deposit_cost(svc, body.len());
        let done = self.disk.reserve(ctx.now(), cost);
        let token = self.token();
        self.pending_deposits
            .insert(token, (conn, svc.to_string(), key, body));
        ctx.set_timer(done.since(ctx.now()), token);
    }

    /// The disk finished a deposit: make it durable and ack — one
    /// event, so a kill can never ack without storing or vice versa.
    fn finish_deposit(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some((conn, svc, key, body)) = self.pending_deposits.remove(&token) else {
            return;
        };
        let now_us = ctx.now().as_micros();
        if self.created.insert(svc.clone()) {
            self.store
                .create(&svc, BOX_KEY, &svc, now_us)
                .expect("create on in-memory storage");
        }
        let status = match self.store.deposit(&svc, body, now_us, u64::MAX) {
            Ok(()) => {
                *self.backlog.entry(svc).or_insert(0) += 1;
                self.tele.acked.inc();
                Status::ACCEPTED
            }
            Err(_) => Status::INTERNAL_SERVER_ERROR,
        };
        let resp = Response::new(
            status,
            "text/xml",
            format!("<ack k=\"{key}\"/>").into_bytes(),
        );
        let _ = ctx.send(conn, response_payload(&resp));
        if !self.drain_scheduled {
            self.drain_scheduled = true;
            ctx.set_timer(SimDuration(0), TOKEN_DRAIN);
        }
    }

    fn forward_to_sink(&mut self, ctx: &mut Ctx<'_>, svc: &str, body: String) {
        let Some(conn) = self.sink_conn else { return };
        let req = Request::soap_post(
            &format!("fleet-sink:{SINK_PORT}"),
            &format!("/sink/{svc}"),
            "text/xml",
            body.into_bytes(),
        );
        let _ = ctx.send(conn, request_payload(&req));
        self.tele.forwarded.inc();
    }

    /// Drains up to one batch across services: each fetch makes the
    /// covering ack durable, and the messages leave for the sink in
    /// the same event — atomic with respect to a kill.
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        self.drain_scheduled = false;
        if !self.sink_ready {
            // Sink connection still handshaking: retry shortly.
            self.drain_scheduled = true;
            ctx.set_timer(self.control_tick, TOKEN_DRAIN);
            return;
        }
        let now = ctx.now();
        // The CPU performs the dispatches: fetching while it is still
        // busy with an earlier batch would teleport mail out of the
        // durable box faster than the model allows, so wait it out.
        let wait = self.cpu.backlog(now);
        if wait.0 > 0 {
            self.drain_scheduled = true;
            ctx.set_timer(wait, TOKEN_DRAIN);
            return;
        }
        let now_us = now.as_micros();
        let mut budget = self.drain_batch;
        let mut done = now;
        let services: Vec<String> = self.backlog.keys().cloned().collect();
        for svc in services {
            if budget == 0 {
                break;
            }
            let want = (*self.backlog.get(&svc).unwrap_or(&0)).min(budget as u64) as usize;
            if want == 0 {
                continue;
            }
            let msgs = match self.store.fetch(&svc, BOX_KEY, want, now_us) {
                Ok(msgs) => msgs,
                Err(_) => {
                    self.backlog.remove(&svc);
                    continue;
                }
            };
            let got = msgs.len() as u64;
            // One durable ack record per fetch, CPU per message.
            done = done.max(self.disk.reserve(now, SimDuration(self.profile.fsync_us)));
            done = done.max(
                self.cpu
                    .reserve(now, SimDuration(self.dispatch_cost.0 * got)),
            );
            for m in msgs {
                self.forward_to_sink(ctx, &svc, m.body);
            }
            budget -= got as usize;
            let left = self.backlog.get_mut(&svc).expect("iterating keys");
            *left = left.saturating_sub(got);
            if *left == 0 {
                self.backlog.remove(&svc);
            }
        }
        let remaining: u64 = self.backlog.values().sum();
        self.tele.backlog_depth.set(remaining as i64);
        if remaining > 0 {
            // Next batch starts when the resources it reserved free up.
            self.drain_scheduled = true;
            ctx.set_timer(done.since(now).max(SimDuration(1)), TOKEN_DRAIN);
        }
    }

    /// Claims and replays a dead instance's durable store. Fetching
    /// acks durably and forwarding happens in this one event; the
    /// ledger completes when the modeled disk/CPU time has elapsed.
    fn try_claim_handoff(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_recovery.is_some() {
            return;
        }
        let now_us = ctx.now().as_micros();
        let (at, storage, store_cfg) = {
            let mut inner = self.shared.inner.borrow_mut();
            let Some(at) = inner.handoffs.claim_for(self.id) else {
                return;
            };
            let dead = inner.handoffs.get(at).dead;
            (
                at,
                inner.storages[dead.0 as usize].clone(),
                inner.store_cfg.clone(),
            )
        };
        self.tele.handoffs_claimed.inc();
        let (dead_store, _report) =
            DurableMsgBox::open(store_cfg, Box::new(storage), &Scope::noop(), now_us)
                .expect("reopen orphaned in-memory storage");
        let fsyncs_before = dead_store.wal().fsync_count();
        let mut recovered = 0u64;
        // Box ids are logical service names; the replicated registry
        // tells the successor which ones can exist.
        for svc in self.follower.registry().list() {
            loop {
                match dead_store.fetch(&svc, BOX_KEY, self.drain_batch, now_us) {
                    Ok(msgs) if msgs.is_empty() => break,
                    Ok(msgs) => {
                        recovered += msgs.len() as u64;
                        for m in msgs {
                            self.forward_to_sink(ctx, &svc, m.body);
                        }
                    }
                    Err(_) => break,
                }
            }
        }
        let replay_fsyncs = dead_store.wal().fsync_count() - fsyncs_before;
        let now = ctx.now();
        // The handoff is complete once the dead store's WAL has been
        // replayed (disk time); the dispatch CPU debt is still owed,
        // but it delays this instance's future drains rather than
        // gating ownership transfer.
        let done = self
            .disk
            .reserve(now, SimDuration(replay_fsyncs * self.profile.fsync_us));
        self.cpu
            .reserve(now, SimDuration(self.dispatch_cost.0 * recovered));
        self.tele.recovered.add(recovered);
        self.pending_recovery = Some((at, recovered));
        ctx.set_timer(done.since(now).max(SimDuration(1)), TOKEN_RECOVERY);
    }

    fn control(&mut self, ctx: &mut Ctx<'_>) {
        // Tail the registry leader (partial resync normally, snapshot
        // install after a backlog overrun).
        let _ = self.follower.catch_up(&self.leader);
        self.tele.repl_offset.set(self.follower.offset() as i64);
        self.tele
            .repl_lag
            .set((self.leader.offset() - self.follower.offset()) as i64);
        {
            let inner = self.shared.inner.borrow();
            self.tele
                .owned_ranges
                .set(inner.ring.owned_ranges(self.id) as i64);
            self.tele
                .handoffs_in_flight
                .set(inner.handoffs.in_flight() as i64);
        }
        self.try_claim_handoff(ctx);
        ctx.set_timer(self.control_tick, TOKEN_CONTROL);
    }
}

impl Process for SimFleetInstance {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                self.sink_conn =
                    Some(ctx.connect("fleet-sink", SINK_PORT, SimDuration::from_secs(5)));
                ctx.set_timer(self.control_tick, TOKEN_CONTROL);
            }
            ProcEvent::ConnEstablished { conn } => {
                if self.sink_conn == Some(conn) {
                    self.sink_ready = true;
                }
            }
            ProcEvent::Message { conn, bytes } => {
                let Ok(req) = parse_request_bytes(&bytes) else {
                    let _ = ctx.send(conn, response_payload(&Response::empty(Status::BAD_REQUEST)));
                    return;
                };
                if let Some(svc) = req.target.strip_prefix("/fleet/") {
                    let svc = svc.to_string();
                    let body = req.body_utf8().to_string();
                    self.on_deposit(ctx, conn, &svc, body);
                } else {
                    let _ = ctx.send(conn, response_payload(&Response::empty(Status::NOT_FOUND)));
                }
            }
            ProcEvent::Timer { token } => match token {
                TOKEN_CONTROL => self.control(ctx),
                TOKEN_DRAIN => self.drain(ctx),
                TOKEN_RECOVERY => {
                    if let Some((at, recovered)) = self.pending_recovery.take() {
                        let mut inner = self.shared.inner.borrow_mut();
                        inner
                            .handoffs
                            .complete(at, recovered, ctx.now().as_micros());
                        let in_flight = inner.handoffs.in_flight();
                        drop(inner);
                        self.tele.handoffs_in_flight.set(in_flight as i64);
                    }
                }
                t => self.finish_deposit(ctx, t),
            },
            ProcEvent::ConnAccepted { .. }
            | ProcEvent::ConnClosed { .. }
            | ProcEvent::ConnRefused { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Client hub
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct HubInner {
    generated: u64,
    acked: HashSet<u64>,
    shed: u64,
    resent: u64,
    unroutable: u64,
    detected_dead: Vec<u32>,
}

/// Live counters of a [`FleetClientHub`].
#[derive(Debug, Clone, Default)]
pub struct FleetHubStats {
    inner: Rc<RefCell<HubInner>>,
}

impl FleetHubStats {
    /// Messages the generator offered.
    pub fn generated(&self) -> u64 {
        self.inner.borrow().generated
    }
    /// Messages acknowledged with `202`.
    pub fn acked(&self) -> u64 {
        self.inner.borrow().acked.len() as u64
    }
    /// Messages shed with `503` (overload, not loss).
    pub fn shed(&self) -> u64 {
        self.inner.borrow().shed
    }
    /// Messages re-routed and re-sent after a death was detected.
    pub fn resent(&self) -> u64 {
        self.inner.borrow().resent
    }
    /// Instances this hub declared dead, in detection order.
    pub fn detected_dead(&self) -> Vec<u32> {
        self.inner.borrow().detected_dead.clone()
    }
}

#[derive(Debug)]
struct PendingMsg {
    svc: usize,
    instance: u32,
    sent_at_us: u64,
    body: String,
}

/// The aggregate client population: an open-loop generator that
/// ring-routes deposits, tracks acks, detects dead instances by ack
/// timeout and re-routes what they never acknowledged.
pub struct FleetClientHub {
    services: Vec<String>,
    /// This hub's *view* of the ring — diverges from the authoritative
    /// copy until failure detection catches up.
    view: ShardRing,
    conns: Vec<Option<ConnId>>,
    established: Vec<bool>,
    dead: Vec<bool>,
    conn_to_instance: HashMap<ConnId, usize>,
    wait_q: Vec<Vec<Payload>>,
    /// Sorted so timeout scans and re-routes replay identically.
    pending: BTreeMap<u64, PendingMsg>,
    next_key: u64,
    msgs_per_tick: u64,
    gen_tick: SimDuration,
    gen_until_us: u64,
    check_until_us: u64,
    ack_timeout_us: u64,
    stats: FleetHubStats,
}

impl FleetClientHub {
    fn new(params: &FleetParams, services: Vec<String>) -> FleetClientHub {
        let n = params.fleet.instances;
        let gen_until_us = params.duration.as_micros() as u64;
        let ack_timeout_us = params.fleet.ack_timeout.as_micros() as u64;
        // Offered rate: `clients` think for `think_time`, then send one
        // message each — the aggregate open-loop approximation that
        // lets one process stand in for 100k..1M simulated clients.
        let rate_per_s = params.clients as f64 / params.think_time.as_secs_f64();
        let msgs_per_tick =
            (rate_per_s * params.gen_tick.as_secs_f64()).round().max(1.0) as u64;
        FleetClientHub {
            services,
            view: params.fleet.ring(),
            conns: vec![None; n],
            established: vec![false; n],
            dead: vec![false; n],
            conn_to_instance: HashMap::new(),
            wait_q: vec![Vec::new(); n],
            pending: BTreeMap::new(),
            next_key: 0,
            msgs_per_tick,
            gen_tick: to_sim(params.gen_tick),
            gen_until_us,
            check_until_us: gen_until_us + 3 * ack_timeout_us,
            ack_timeout_us,
            stats: FleetHubStats::default(),
        }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> FleetHubStats {
        self.stats.clone()
    }

    /// The ring-routing step: every fleet enqueue must derive its
    /// target instance here (`shard-route-before-enqueue`).
    fn shard_route(&self, svc: &str) -> Option<u32> {
        self.view.owner_of(svc).map(|id| id.0)
    }

    /// The enqueue sink: sends (or queues until the connection is up)
    /// one deposit toward `instance`. Only reachable via
    /// [`Self::shard_route`] deciding `instance`.
    fn enqueue_fleet(&mut self, ctx: &mut Ctx<'_>, instance: u32, svc: usize, body: &str) {
        let req = Request::soap_post(
            &format!("{}:{FLEET_PORT}", instance_host(instance)),
            &format!("/fleet/{}", self.services[svc]),
            "text/xml",
            body.as_bytes().to_vec(),
        );
        let payload = request_payload(&req);
        let i = instance as usize;
        match self.conns[i] {
            Some(conn) if self.established[i] => {
                let _ = ctx.send(conn, payload);
            }
            _ => self.wait_q[i].push(payload),
        }
    }

    fn generate(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        for _ in 0..self.msgs_per_tick {
            let key = self.next_key;
            self.next_key += 1;
            self.stats.inner.borrow_mut().generated += 1;
            let svc = (key % self.services.len() as u64) as usize;
            let body = format!("<m k=\"{key}\" pad=\"{:0>64}\"/>", key);
            let Some(instance) = self.shard_route(&self.services[svc]) else {
                self.stats.inner.borrow_mut().unroutable += 1;
                continue;
            };
            self.enqueue_fleet(ctx, instance, svc, &body);
            self.pending.insert(
                key,
                PendingMsg {
                    svc,
                    instance,
                    sent_at_us: now_us,
                    body,
                },
            );
        }
        if now_us + self.gen_tick.0 <= self.gen_until_us {
            ctx.set_timer(self.gen_tick, TOKEN_GEN);
        }
    }

    /// Ack-timeout failure detection: any instance sitting on an
    /// overdue ack is declared dead, dropped from this hub's ring
    /// view, and everything pending on it re-routes.
    fn check_timeouts(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        let mut newly_dead: BTreeSet<u32> = BTreeSet::new();
        for p in self.pending.values() {
            if !self.dead[p.instance as usize]
                && now_us.saturating_sub(p.sent_at_us) > self.ack_timeout_us
            {
                newly_dead.insert(p.instance);
            }
        }
        for &i in &newly_dead {
            self.dead[i as usize] = true;
            self.view.remove_instance(InstanceId(i));
            self.stats.inner.borrow_mut().detected_dead.push(i);
        }
        if !newly_dead.is_empty() {
            let stranded: Vec<u64> = self
                .pending
                .iter()
                .filter(|(_, p)| newly_dead.contains(&p.instance))
                .map(|(k, _)| *k)
                .collect();
            for key in stranded {
                let (svc, body) = {
                    let p = self.pending.get(&key).expect("collected above");
                    (p.svc, p.body.clone())
                };
                let Some(instance) = self.shard_route(&self.services[svc]) else {
                    self.stats.inner.borrow_mut().unroutable += 1;
                    self.pending.remove(&key);
                    continue;
                };
                self.enqueue_fleet(ctx, instance, svc, &body);
                self.stats.inner.borrow_mut().resent += 1;
                let p = self.pending.get_mut(&key).expect("collected above");
                p.instance = instance;
                p.sent_at_us = now_us;
            }
        }
        if now_us <= self.check_until_us {
            ctx.set_timer(SimDuration(self.ack_timeout_us / 8), TOKEN_CHECK);
        }
    }

    fn on_response(&mut self, bytes: &Payload) {
        let text = String::from_utf8_lossy(bytes);
        let Some(key) = body_key(&text) else { return };
        if text.starts_with("HTTP/1.1 202") {
            if self.pending.remove(&key).is_some() {
                self.stats.inner.borrow_mut().acked.insert(key);
            }
        } else if text.starts_with("HTTP/1.1 503") && self.pending.remove(&key).is_some() {
            self.stats.inner.borrow_mut().shed += 1;
        }
        // Other statuses: leave pending; the timeout path owns it.
    }
}

impl Process for FleetClientHub {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                for i in 0..self.conns.len() {
                    let conn = ctx.connect(
                        &instance_host(i as u32),
                        FLEET_PORT,
                        SimDuration::from_secs(5),
                    );
                    self.conns[i] = Some(conn);
                    self.conn_to_instance.insert(conn, i);
                }
                ctx.set_timer(self.gen_tick, TOKEN_GEN);
                ctx.set_timer(SimDuration(self.ack_timeout_us / 8), TOKEN_CHECK);
            }
            ProcEvent::ConnEstablished { conn } => {
                if let Some(&i) = self.conn_to_instance.get(&conn) {
                    self.established[i] = true;
                    for payload in std::mem::take(&mut self.wait_q[i]) {
                        let _ = ctx.send(conn, payload);
                    }
                }
            }
            ProcEvent::ConnClosed { conn } | ProcEvent::ConnRefused { conn, .. } => {
                if let Some(&i) = self.conn_to_instance.get(&conn) {
                    self.established[i] = false;
                }
            }
            ProcEvent::Message { bytes, .. } => self.on_response(&bytes),
            ProcEvent::Timer { token } => match token {
                TOKEN_GEN => self.generate(ctx),
                TOKEN_CHECK => self.check_timeouts(ctx),
                _ => {}
            },
            ProcEvent::ConnAccepted { .. } => {}
        }
    }
}

// ---------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct SinkInner {
    delivered: HashSet<u64>,
    delivered_at_us: Vec<u64>,
    duplicates: u64,
}

/// Live counters of a [`FleetSink`].
#[derive(Debug, Clone, Default)]
pub struct FleetSinkStats {
    inner: Rc<RefCell<SinkInner>>,
}

impl FleetSinkStats {
    /// Distinct messages delivered.
    pub fn delivered(&self) -> u64 {
        self.inner.borrow().delivered.len() as u64
    }
    /// Messages delivered more than once (must stay 0).
    pub fn duplicates(&self) -> u64 {
        self.inner.borrow().duplicates
    }
    fn contains(&self, key: u64) -> bool {
        self.inner.borrow().delivered.contains(&key)
    }
    fn last_delivery_us(&self) -> Option<u64> {
        self.inner.borrow().delivered_at_us.last().copied()
    }
}

/// Where delivered messages land: counts distinct keys and flags any
/// duplicate delivery.
pub struct FleetSink {
    stats: FleetSinkStats,
}

impl FleetSink {
    fn new() -> FleetSink {
        FleetSink {
            stats: FleetSinkStats::default(),
        }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> FleetSinkStats {
        self.stats.clone()
    }
}

impl Process for FleetSink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { bytes, .. } = event {
            let text = String::from_utf8_lossy(&bytes);
            if let Some(key) = body_key(&text) {
                let mut inner = self.stats.inner.borrow_mut();
                if inner.delivered.insert(key) {
                    let now = ctx.now().as_micros();
                    inner.delivered_at_us.push(now);
                } else {
                    inner.duplicates += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Everything one fleet run needs: the tier config plus workload and
/// cost-model knobs.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// The dispatcher-tier configuration (instances, ring seed, ...).
    pub fleet: FleetConfig,
    /// Logical services sharded across the ring.
    pub services: usize,
    /// Simulated client population (aggregate open-loop rate:
    /// `clients / think_time` messages per second).
    pub clients: u64,
    /// Per-client think time between messages.
    pub think_time: Duration,
    /// How long the generator offers load (virtual time).
    pub duration: Duration,
    /// Generator tick (messages are batched per tick).
    pub gen_tick: Duration,
    /// Messages an instance coalesces per drain pass.
    pub drain_batch: usize,
    /// CPU cost of dispatching one message.
    pub dispatch_cost: Duration,
    /// Virtual disk cost model for the durable store.
    pub disk: DiskProfile,
    /// Kill this instance at this virtual time, if set.
    pub kill: Option<(u32, Duration)>,
    /// Services registered at the leader mid-run (exercises live
    /// replication), as a fraction of `duration`.
    pub late_services: usize,
    /// Simulation seed (network jitter determinism).
    pub seed: u64,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            fleet: FleetConfig::default(),
            services: 16,
            clients: 10_000,
            think_time: Duration::from_secs(60),
            duration: Duration::from_secs(30),
            gen_tick: Duration::from_millis(20),
            drain_batch: 16,
            dispatch_cost: Duration::from_micros(3_300),
            disk: DiskProfile::default(),
            kill: None,
            late_services: 0,
            seed: 0xF1EE7,
        }
    }
}

/// The ownership-handoff half of a [`FleetOutcome`].
#[derive(Debug, Clone)]
pub struct HandoffReport {
    /// Acknowledged messages the successor replayed out of the dead
    /// instance's store.
    pub recovered: u64,
    /// Announce → recovery-complete span in virtual µs.
    pub rebalance_latency_us: u64,
}

/// What one fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Messages the generator offered.
    pub generated: u64,
    /// Messages acknowledged durable (`202`).
    pub acked: u64,
    /// Messages shed under overload (`503`) — bounded-latency load
    /// shedding, not loss.
    pub shed: u64,
    /// Distinct messages delivered to the sink.
    pub delivered: u64,
    /// Messages delivered more than once. The no-duplicate invariant
    /// says this stays 0 even across a kill.
    pub duplicates: u64,
    /// Acknowledged messages that never reached the sink. The
    /// zero-acked-loss invariant says this stays 0 even across a kill.
    pub acked_lost: u64,
    /// Messages the hub re-routed after detecting a death.
    pub resent: u64,
    /// Instances the hub declared dead.
    pub detected_dead: Vec<u32>,
    /// Handoff ledger summary for the killed instance, if any.
    pub handoff: Option<HandoffReport>,
    /// Virtual time when the last message reached the sink, in µs.
    pub last_delivery_us: u64,
    /// Telemetry snapshot at the end of the run.
    pub snapshot: wsd_telemetry::Snapshot,
}

/// Stops a fleet instance's process and performs the membership half
/// of failure handling: drop it from the authoritative ring, pick the
/// next live instance as successor, and announce the handoff.
pub fn kill_fleet_instance(
    sim: &mut Simulation,
    shared: &FleetShared,
    procs: &[ProcId],
    victim: u32,
    registry: &wsd_telemetry::Registry,
) {
    sim.stop_process(procs[victim as usize]);
    let now_us = sim.now().as_micros();
    let mut inner = shared.inner.borrow_mut();
    inner.alive[victim as usize] = false;
    let ranges = inner.ring.remove_instance(InstanceId(victim));
    let n = inner.alive.len() as u32;
    let successor = (1..n)
        .map(|d| (victim + d) % n)
        .find(|&i| inner.alive[i as usize])
        .map(InstanceId)
        .expect("killing the last live instance leaves nobody to hand off to");
    inner
        .handoffs
        .announce(InstanceId(victim), successor, ranges, now_us);
    // The dead instance can no longer update its own gauges; the
    // monitor (this harness) zeroes its ownership.
    registry
        .scope("fleet")
        .child(&format!("i{victim}"))
        .gauge("owned_ranges")
        .set(0);
}

/// Builds the full fleet topology, offers the configured load, applies
/// the optional kill, and runs until the tail drains.
pub fn run_fleet(params: &FleetParams) -> FleetOutcome {
    let registry = wsd_telemetry::Registry::new();
    let fleet_scope = registry.scope("fleet");
    let store_cfg = StoreConfig {
        wal: WalConfig {
            sync: SyncMode::Always,
            ..WalConfig::default()
        },
        ..StoreConfig::default()
    };
    let shared = FleetShared::new(&params.fleet, store_cfg);

    // Instance 0's registry is the replication leader; services map to
    // the sink so successors can enumerate mailboxes after a handoff.
    let leader = Arc::new(RegistryLeader::new(
        Arc::new(Registry::new()),
        params.fleet.repl_backlog,
    ));
    let services: Vec<String> = (0..params.services).map(|i| format!("svc-{i}")).collect();
    for svc in &services {
        leader.register(
            svc,
            Url::parse(&format!("http://fleet-sink:{SINK_PORT}/sink/{svc}")).expect("static url"),
        );
    }

    let mut sim = Simulation::new(params.seed);
    let sink_host = sim.add_host(HostConfig::named("fleet-sink"));
    let sink = FleetSink::new();
    let sink_stats = sink.stats();
    let sink_proc = sim.spawn(sink_host, Box::new(sink));
    sim.listen(sink_proc, SINK_PORT);

    let mut procs = Vec::new();
    for i in 0..params.fleet.instances as u32 {
        let host = sim.add_host(HostConfig::named(instance_host(i)));
        let scope = fleet_scope.child(&format!("i{i}"));
        let instance = SimFleetInstance::new(
            InstanceId(i),
            shared.clone(),
            Arc::clone(&leader),
            params,
            &scope,
            &fleet_scope,
        );
        let proc = sim.spawn(host, Box::new(instance));
        sim.listen(proc, FLEET_PORT);
        procs.push(proc);
    }

    let hub_host = sim.add_host(HostConfig::named("fleet-hub"));
    let hub = FleetClientHub::new(params, services.clone());
    let hub_stats = hub.stats();
    sim.spawn(hub_host, Box::new(hub));

    let end = SimTime::ZERO
        + to_sim(params.duration)
        + SimDuration(3 * params.fleet.ack_timeout.as_micros() as u64)
        + SimDuration::from_secs(15);

    // Mid-run registrations exercise the live replication stream.
    if params.late_services > 0 {
        sim.run_until(SimTime::ZERO + SimDuration(to_sim(params.duration).0 / 2));
        for i in 0..params.late_services {
            leader.register(
                &format!("late-{i}"),
                Url::parse(&format!("http://fleet-sink:{SINK_PORT}/sink/late-{i}"))
                    .expect("static url"),
            );
        }
    }
    if let Some((victim, at)) = params.kill {
        sim.run_until(SimTime::ZERO + to_sim(at));
        kill_fleet_instance(&mut sim, &shared, &procs, victim, &registry);
    }
    sim.run_until(end);

    let handoff = shared
        .inner
        .borrow()
        .handoffs
        .entries()
        .iter()
        .find_map(|h| {
            h.rebalance_latency_us().map(|lat| HandoffReport {
                recovered: h.recovered,
                rebalance_latency_us: lat,
            })
        });
    let acked_lost = {
        let inner = hub_stats.inner.borrow();
        inner
            .acked
            .iter()
            .filter(|k| !sink_stats.contains(**k))
            .count() as u64
    };
    FleetOutcome {
        generated: hub_stats.generated(),
        acked: hub_stats.acked(),
        shed: hub_stats.shed(),
        delivered: sink_stats.delivered(),
        duplicates: sink_stats.duplicates(),
        acked_lost,
        resent: hub_stats.resent(),
        detected_dead: hub_stats.detected_dead(),
        handoff,
        last_delivery_us: sink_stats.last_delivery_us().unwrap_or(0),
        snapshot: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(instances: usize, clients: u64) -> FleetParams {
        FleetParams {
            fleet: FleetConfig {
                instances,
                ..FleetConfig::default()
            },
            clients,
            services: 8,
            duration: Duration::from_secs(10),
            ..FleetParams::default()
        }
    }

    #[test]
    fn single_instance_delivers_everything_under_light_load() {
        // 600 clients ≈ 10 msg/s — far under one instance's ~120/s.
        let out = run_fleet(&quick_params(1, 600));
        assert!(out.generated > 50, "generated {}", out.generated);
        assert_eq!(out.shed, 0, "no shedding under light load");
        assert_eq!(out.acked, out.generated);
        assert_eq!(out.delivered, out.generated);
        assert_eq!(out.duplicates, 0);
        assert_eq!(out.acked_lost, 0);
        assert!(out.detected_dead.is_empty());
    }

    #[test]
    fn overload_sheds_instead_of_stalling() {
        // ~333 msg/s against one ~120 msg/s instance: admission
        // control sheds the excess and acks stay within the timeout
        // (no false-positive death detection).
        let out = run_fleet(&quick_params(1, 20_000));
        assert!(out.shed > 0, "overload must shed");
        assert!(out.detected_dead.is_empty(), "shedding is not death");
        assert_eq!(out.acked_lost, 0);
        assert_eq!(out.duplicates, 0);
        assert_eq!(out.acked, out.delivered);
    }

    #[test]
    fn two_instances_outdeliver_one_under_overload() {
        let one = run_fleet(&quick_params(1, 40_000));
        let two = run_fleet(&quick_params(2, 40_000));
        assert!(
            two.delivered as f64 > one.delivered as f64 * 1.6,
            "2 instances: {} vs 1 instance: {}",
            two.delivered,
            one.delivered
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_fleet(&quick_params(2, 20_000));
        let b = run_fleet(&quick_params(2, 20_000));
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.acked, b.acked);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.last_delivery_us, b.last_delivery_us);
    }

    // Satellite 3: seeded failover — no acked loss, no duplicate
    // delivery, gauges return to 0.
    #[test]
    fn killing_an_instance_loses_nothing_acked() {
        let mut params = quick_params(3, 48_000);
        params.duration = Duration::from_secs(12);
        params.kill = Some((1, Duration::from_secs(6)));
        // Make delivery CPU-bound (drain ≈ 83 msg/s < per-shard offered
        // load) so every instance carries an acked-but-undrained
        // backlog — the kill must then strand mail that only ownership
        // handoff can recover.
        params.dispatch_cost = Duration::from_millis(12);
        let out = run_fleet(&params);

        assert_eq!(out.detected_dead, vec![1], "hub must detect the kill");
        assert_eq!(out.acked_lost, 0, "acked messages must survive the kill");
        assert_eq!(out.duplicates, 0, "recovery must not double-deliver");
        let handoff = out.handoff.expect("handoff must complete");
        assert!(handoff.recovered > 0, "victim had acked-undrained mail");
        assert!(
            handoff.rebalance_latency_us < 2_000_000,
            "rebalance took {} µs",
            handoff.rebalance_latency_us
        );
        assert!(out.resent > 0, "unacked tail must re-route");

        // Gauges return to rest: the dead instance owns nothing, no
        // handoff is in flight, and live followers caught up.
        use wsd_telemetry::MetricValue;
        let gauge = |name: &str| match out.snapshot.get(name) {
            Some(MetricValue::Gauge { value, .. }) => *value,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(gauge("fleet.i1.owned_ranges"), 0);
        assert_eq!(gauge("fleet.handoffs_in_flight"), 0);
        assert_eq!(gauge("fleet.i0.repl_lag"), 0);
        assert_eq!(gauge("fleet.i2.repl_lag"), 0);
        assert_eq!(gauge("fleet.i0.backlog_depth"), 0);
        assert_eq!(gauge("fleet.i2.backlog_depth"), 0);
    }

    #[test]
    fn late_registrations_replicate_to_followers() {
        let mut params = quick_params(2, 2_000);
        params.late_services = 3;
        let out = run_fleet(&params);
        use wsd_telemetry::MetricValue;
        for i in 0..2 {
            match out.snapshot.get(&format!("fleet.i{i}.repl_lag")) {
                Some(MetricValue::Gauge { value, .. }) => assert_eq!(*value, 0, "i{i} lag"),
                other => panic!("missing lag gauge: {other:?}"),
            }
            match out.snapshot.get(&format!("fleet.i{i}.repl_offset")) {
                // 8 initial services + 3 late ones = offset 11.
                Some(MetricValue::Gauge { value, .. }) => assert_eq!(*value, 11, "i{i} offset"),
                other => panic!("missing offset gauge: {other:?}"),
            }
        }
    }
}
