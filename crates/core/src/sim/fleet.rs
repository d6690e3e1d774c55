//! A dispatcher instance of the sharded fleet, on the simulated runtime.
//!
//! One dispatcher instance tops out where its disk does: with the
//! durable mailbox every acknowledged deposit costs an fsync, so a
//! 2004-era disk caps an instance near `1/fsync` deposits per second.
//! The fleet scales past that with N instances behind a seeded
//! consistent-hash ring ([`ShardRing`]); `wsd_experiments::fleet` builds
//! it, with the client population that routes deposits over the ring.
//! An instance is the shipped WS-MsgBox service ([`serve_run`]) over its
//! own [`DurableMsgBox`], plus one [`Link`] per destination forwarding
//! what it stored:
//!
//! * **deposits** — `POST /deposit/<service>`: a box's id is its
//!   service's name and its key is fixed, so every instance makes the
//!   same boxes;
//! * **registry replication** — instance 0's registry is the leader
//!   ([`RegistryLeader`]) and every instance tails it through a
//!   [`RegistryFollower`] on its control tick; its copy names where each
//!   service's mail is forwarded;
//! * **handoff** — [`kill_fleet_instance`] stops an instance and
//!   [`HandoffLog::fail_over`] names a successor, which adopts the dead
//!   instance's store ([`DurableMsgBox::adopt`]) on its control tick and
//!   forwards the adopted mail through its ordinary drain.
//!
//! # Why no acknowledged message is ever lost — or delivered twice
//!
//! An instance stores a deposit and answers `202` in the *same*
//! simulation event (one `serve_run` call when the modeled disk write
//! finishes), so a kill can never separate them: unacked ⇒ not stored.
//! Forwarding is the reverse with the same atomicity: a `fetch` through
//! `serve_run` acks durably before it hands messages out, and it is made
//! only for a link that is up, which writes them in the same event. So
//! after a kill the successor adopts exactly the acked-but-unforwarded
//! tail, clients re-send exactly the unacked tail, and the two sets
//! cannot intersect. An instance sheds with `503` once its disk or CPU
//! backlog passes [`MAX_BACKLOG`], which keeps answers far inside a
//! client's failure detector, so overload never masquerades as death.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use wsd_fleet::{HandoffLog, InstanceId, ShardRing};
use wsd_http::{parse_request_bytes, Request, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, ProcId, Process, SimDuration, Simulation};
use wsd_soap::SoapVersion;
use wsd_store::{DurableMsgBox, MemStorage, StoreConfig, SyncMode, WalConfig};
use wsd_telemetry::{Counter, Gauge, Scope};

use crate::config::{DRAIN_BATCH, RING_SEED, RING_VNODES};
use crate::msg::link::{Link, LinkStep};
use crate::msg::DropReason;
use crate::msgbox::{ops, serve_run, MailboxCounters, MsgBoxStore};
use crate::registry::Registry;
use crate::registry_repl::{RegistryFollower, RegistryLeader};
use crate::sim::msgbox::DiskProfile;
use crate::sim::{request_payload, response_payload, CpuQueue, CONNECT_TIMEOUT};

/// Port every fleet instance listens on (hosts are distinct).
pub const FLEET_PORT: u16 = 8090;
/// Instance control loop: replication catch-up, gauges, handoff claims.
pub const CONTROL_TICK: SimDuration = SimDuration(250_000);
/// An instance sheds (`503`) once its disk or CPU backlog passes this.
pub const MAX_BACKLOG: SimDuration = SimDuration(1_000_000);
/// Every box's key, so a successor adopts the boxes it would have made.
const BOX_KEY: &str = "fleet";
const TENANT: &str = "fleet";
/// A fleet box keeps acknowledged mail until it is forwarded: it never
/// expires (and a successor adopts a box's mail behind one barrier).
const RETENTION: Duration = Duration::from_micros(u64::MAX);

const TOKEN_CONTROL: u64 = 1;
const TOKEN_DRAIN: u64 = 2;
const TOKEN_RECOVERY: u64 = 3;
/// Disk and backoff timer tokens start past this.
const TOKEN_BASE: u64 = 16;

/// Host of fleet instance `i`.
pub fn instance_host(i: u32) -> String {
    format!("fleet-i{i}")
}

fn store_config() -> StoreConfig {
    let wal = WalConfig {
        sync: SyncMode::Always,
        ..WalConfig::default()
    };
    StoreConfig {
        wal,
        ..StoreConfig::default()
    }
}

/// Control-plane state every fleet actor shares (single-threaded sim).
pub struct FleetShared {
    /// Authoritative ring: membership changes land here first.
    pub ring: ShardRing,
    /// The ownership-handoff ledger.
    pub handoffs: HandoffLog,
    /// Per instance: requests on its disk, mail in its boxes and messages
    /// its links hold unanswered. Zero while it is quiet.
    pub work: Vec<usize>,
    /// Each instance's simulated disk. A clone shares the bytes, which is
    /// what adoption needs.
    disks: Vec<MemStorage>,
}

impl FleetShared {
    /// The control plane of a fleet of `instances`, all live.
    pub fn new(instances: usize) -> Rc<RefCell<FleetShared>> {
        Rc::new(RefCell::new(FleetShared {
            ring: ShardRing::with_instances(RING_SEED, RING_VNODES, instances as u32),
            handoffs: HandoffLog::new(),
            work: vec![0; instances],
            disks: (0..instances).map(|_| MemStorage::new()).collect(),
        }))
    }

    /// Whether every live instance is idle and no handoff is in flight.
    pub fn quiet(&self) -> bool {
        let idle = self
            .ring
            .members()
            .iter()
            .all(|i| self.work[i.0 as usize] == 0);
        idle && self.handoffs.all_complete()
    }
}

/// Stops fleet instance `victim` and performs the membership half of
/// failure handling ([`HandoffLog::fail_over`]). The dead instance can no
/// longer update its own gauges: this monitor zeroes its ownership.
pub fn kill_fleet_instance(
    sim: &mut Simulation,
    shared: &RefCell<FleetShared>,
    procs: &[ProcId],
    victim: u32,
    fleet_scope: &Scope,
) {
    sim.stop_process(procs[victim as usize]);
    let mut shared = shared.borrow_mut();
    let shared = &mut *shared;
    (shared
        .handoffs
        .fail_over(&mut shared.ring, InstanceId(victim), sim.now().as_micros()))
    .expect("killing the last live instance leaves nobody to hand off to");
    fleet_scope
        .child(&format!("i{victim}"))
        .gauge("owned_ranges")
        .set(0);
}

struct InstanceTelemetry {
    mailbox: MailboxCounters,
    shed: Counter,
    forwarded: Counter,
    dropped: Counter,
    /// `dropped`'s one reason here: every drop is a give-up.
    given_up: Counter,
    recovered: Counter,
    owned_ranges: Gauge,
    repl_offset: Gauge,
    repl_lag: Gauge,
    backlog_depth: Gauge,
    handoffs_in_flight: Gauge,
}

/// One destination's link and its connection, connecting or up.
struct Dest {
    link: Link<Payload>,
    conn: Option<ConnId>,
}

type DestKey = (String, u16);

/// One dispatcher instance of the fleet: the mailbox service for the
/// shard arcs it owns, and a forwarder draining its boxes to each
/// service's destination. Its control tick tails the registry leader and
/// claims the handoffs addressed to it.
pub struct SimFleetInstance {
    id: InstanceId,
    shared: Rc<RefCell<FleetShared>>,
    leader: Arc<RegistryLeader>,
    follower: RegistryFollower,
    store: MsgBoxStore,
    /// Mail stored per box and not yet fetched for forwarding (sorted
    /// for a deterministic drain order).
    backlog: BTreeMap<String, u64>,
    disk: CpuQueue,
    cpu: CpuQueue,
    profile: DiskProfile,
    dispatch_cost: SimDuration,
    /// Requests in the disk queue by timer token, served when their
    /// modeled write finishes (a kill before then loses them unacked).
    /// The disk is FIFO, so a connection's answers leave in request
    /// order, as HTTP/1.1 has them. `Err` is an answer decided on
    /// arrival — a shed, a malformed request — which takes no disk time
    /// but waits its turn.
    on_disk: HashMap<u64, (ConnId, Result<Request, Status>)>,
    dests: BTreeMap<DestKey, Dest>,
    dest_timers: HashMap<u64, DestKey>,
    next_token: u64,
    drain_scheduled: bool,
    pending_recovery: Option<(usize, u64)>,
    tele: InstanceTelemetry,
}

impl SimFleetInstance {
    /// Instance `id` over its disk in `shared`, with instruments under
    /// `fleet.i{id}` of `fleet_scope`; dispatching a message costs
    /// `dispatch_cost` of CPU.
    pub fn new(
        id: u32,
        shared: Rc<RefCell<FleetShared>>,
        leader: Arc<RegistryLeader>,
        dispatch_cost: SimDuration,
        fleet_scope: &Scope,
    ) -> SimFleetInstance {
        let scope = fleet_scope.child(&format!("i{id}"));
        let disk = shared.borrow().disks[id as usize].clone();
        let (store, _) =
            DurableMsgBox::open(store_config(), Box::new(disk), &scope.child("store"), 0)
                .expect("in-memory storage cannot fail to open");
        SimFleetInstance {
            id: InstanceId(id),
            shared,
            leader,
            follower: RegistryFollower::new(Arc::new(Registry::new())),
            store: MsgBoxStore::over(store, RETENTION, u64::from(id)),
            backlog: BTreeMap::new(),
            disk: CpuQueue::default(),
            cpu: CpuQueue::default(),
            profile: DiskProfile::default(),
            dispatch_cost,
            on_disk: HashMap::new(),
            dests: BTreeMap::new(),
            dest_timers: HashMap::new(),
            next_token: TOKEN_BASE,
            drain_scheduled: false,
            pending_recovery: None,
            tele: InstanceTelemetry {
                mailbox: MailboxCounters::new(&scope),
                shed: scope.counter("shed"),
                forwarded: scope.counter("forwarded"),
                dropped: scope.counter("dropped"),
                given_up: scope.counter(DropReason::GivenUp.key()),
                recovered: scope.counter("recovered"),
                owned_ranges: scope.gauge("owned_ranges"),
                repl_offset: scope.gauge("repl_offset"),
                repl_lag: scope.gauge("repl_lag"),
                backlog_depth: scope.gauge("backlog_depth"),
                handoffs_in_flight: fleet_scope.gauge("handoffs_in_flight"),
            },
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_>, after: SimDuration) -> u64 {
        self.next_token += 1;
        ctx.set_timer(after, self.next_token);
        self.next_token
    }

    /// A request arrived: shed it, or reserve its modeled disk write —
    /// the record's fsync and bytes, plus a box creation's fsync on a
    /// service's first deposit.
    fn on_request(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, bytes: Payload) {
        let now = ctx.now();
        let overloaded =
            self.disk.backlog(now) > MAX_BACKLOG || self.cpu.backlog(now) > MAX_BACKLOG;
        let (req, us) = match parse_request_bytes(&bytes) {
            Err(_) => (Err(Status::BAD_REQUEST), 0),
            Ok(_) if overloaded => {
                self.tele.shed.inc();
                (Err(Status::SERVICE_UNAVAILABLE), 0)
            }
            Ok(req) => {
                let fsyncs =
                    1 + u64::from(deposit_box(&req).is_some_and(|svc| !self.store.exists(svc)));
                let bytes_us = req.body.len() as u64 * self.profile.us_per_kib / 1024;
                (Ok(req), fsyncs * self.profile.fsync_us + bytes_us)
            }
        };
        let done = self.disk.reserve(now, SimDuration(us));
        let token = self.timer(ctx, done.since(now));
        self.on_disk.insert(token, (conn, req));
    }

    /// A request's turn on the disk came: serve it through the mailbox
    /// service and answer — one event, so a kill never acks without
    /// storing or stores without acking. A service's box is made on its
    /// first deposit, once the replicated registry knows the service.
    fn serve(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, req: Result<Request, Status>) {
        let now_us = ctx.now().as_micros();
        let answer = match req {
            Err(status) => Response::empty(status),
            Ok(req) => {
                let svc = deposit_box(&req).map(str::to_string);
                let unmade =
                    |s: &&str| !self.store.exists(s) && self.follower.registry().lookup(s).is_ok();
                if let Some(svc) = svc.as_deref().filter(unmade) {
                    DurableMsgBox::create(&self.store, svc, BOX_KEY, TENANT, now_us)
                        .expect("create on in-memory storage");
                }
                let mut answers = serve_run(&self.store, &self.tele.mailbox, [req], now_us);
                let answer = answers
                    .pop()
                    .unwrap_or_else(|| Response::empty(Status::SERVICE_UNAVAILABLE));
                if let Some(svc) = svc.filter(|_| answer.status == Status::ACCEPTED) {
                    *self.backlog.entry(svc).or_insert(0) += 1;
                    self.schedule_drain(ctx, SimDuration(0));
                }
                answer
            }
        };
        let _ = ctx.send(conn, response_payload(&answer));
    }

    fn schedule_drain(&mut self, ctx: &mut Ctx<'_>, after: SimDuration) {
        if !self.drain_scheduled {
            self.drain_scheduled = true;
            ctx.set_timer(after, TOKEN_DRAIN);
        }
    }

    /// Forwards up to one batch across boxes, to the destination the
    /// replicated registry names for each service. A box is fetched
    /// through the mailbox service, which acks durably, and only for a
    /// link that is up, which writes the batch in this same event:
    /// atomic with respect to a kill.
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        self.drain_scheduled = false;
        let now = ctx.now();
        // The CPU performs the dispatches: fetching while it is still
        // busy with an earlier batch would move mail out of the durable
        // box faster than the model allows, so wait it out.
        let wait = self.cpu.backlog(now);
        if wait.0 > 0 {
            return self.schedule_drain(ctx, wait);
        }
        let (mut budget, mut done) = (DRAIN_BATCH as u64, now);
        let services: Vec<String> = self.backlog.keys().cloned().collect();
        for svc in services {
            let Ok(url) = self.follower.registry().lookup(&svc) else {
                continue;
            };
            let key = (url.host.clone(), url.port);
            if !self.dests.contains_key(&key) {
                let (link, conn) = (Link::new(DRAIN_BATCH), None);
                self.dests.insert(key.clone(), Dest { link, conn });
                self.drive(ctx, &key);
            }
            if !self.dests[&key].link.is_up() {
                continue; // The mail waits in its box until the link is up.
            }
            let want = self.backlog[&svc].min(budget);
            let bodies = self.fetch(&svc, want, now.as_micros());
            let got = bodies.len() as u64;
            // One durable ack record per fetch, CPU per message.
            done = done.max(self.disk.reserve(now, SimDuration(self.profile.fsync_us)));
            done = done.max(
                self.cpu
                    .reserve(now, SimDuration(self.dispatch_cost.0 * got)),
            );
            let post = |body: String| {
                Request::soap_post(&url.authority(), &url.path, "text/xml", body.into_bytes())
            };
            let requests = bodies.into_iter().map(|body| request_payload(&post(body)));
            self.dests
                .get_mut(&key)
                .expect("entered above")
                .link
                .take(requests);
            self.drive(ctx, &key);
            let left = self.backlog.get_mut(&svc).expect("iterating its keys");
            *left -= got;
            if *left == 0 || got < want {
                self.backlog.remove(&svc);
            }
            budget -= got;
            if budget == 0 {
                break;
            }
        }
        let remaining: u64 = self.backlog.values().sum();
        self.tele.backlog_depth.set(remaining as i64);
        if remaining > 0 && done > now {
            // The next batch starts when the resources it reserved free up.
            self.schedule_drain(ctx, done.since(now));
        }
    }

    /// Fetches up to `max` of a box's messages through the mailbox service.
    fn fetch(&self, svc: &str, max: u64, now_us: u64) -> Vec<String> {
        let env = ops::fetch(SoapVersion::V11, svc, BOX_KEY, max as usize).to_xml();
        let req = Request::soap_post(
            "localhost",
            "/msgbox",
            SoapVersion::V11.content_type(),
            env.into_bytes(),
        );
        let answer = serve_run(&self.store, &self.tele.mailbox, [req], now_us);
        answer
            .first()
            .and_then(|r| {
                ops::fetched_bodies(&r.body_utf8())
                    .map(|b| b.into_iter().map(Cow::into_owned).collect())
            })
            .unwrap_or_default()
    }

    /// Does what `key`'s link says until it waits on an event. Mail for a
    /// destination may wait in a box at any time, so a link that is down
    /// always reconnects: after a give-up too, which drops only what it
    /// had taken.
    fn drive(&mut self, ctx: &mut Ctx<'_>, key: &DestKey) {
        while let Some(dest) = self.dests.get_mut(key) {
            match dest.link.next(true) {
                LinkStep::Connect => {
                    let conn = ctx.connect(&key.0, key.1, CONNECT_TIMEOUT);
                    dest.conn = Some(conn);
                    return;
                }
                LinkStep::Write => {
                    let conn = dest.conn.expect("an up link has its connection");
                    let size = dest.link.batch().count();
                    let wrote = dest
                        .link
                        .batch()
                        .take_while(|p| ctx.send(conn, Payload::clone(p)).is_ok())
                        .count();
                    let broken = wrote < size;
                    self.tele.forwarded.add(dest.link.wrote(wrote) as u64);
                    if broken {
                        dest.conn = None;
                        dest.link.write_failed();
                    }
                }
                LinkStep::Wait(us) => {
                    let token = self.timer(ctx, SimDuration(us));
                    self.dest_timers.insert(token, key.clone());
                    return;
                }
                LinkStep::GiveUp(lost) => {
                    self.tele.dropped.add(lost.len() as u64);
                    self.tele.given_up.add(lost.len() as u64);
                }
                LinkStep::Idle | LinkStep::Await => return,
            }
        }
    }

    /// A destination connection's event: its link hears of it.
    fn on_dest_event(&mut self, ctx: &mut Ctx<'_>, key: DestKey, event: ProcEvent) {
        let Some(dest) = self.dests.get_mut(&key) else {
            return;
        };
        match event {
            // The answer to the oldest message written on the connection.
            ProcEvent::Message { .. } => {
                let _ = dest.link.answered();
            }
            // Resends go out now; the boxes are fetched by the drain.
            ProcEvent::ConnEstablished { .. } => {
                dest.link.connected();
                self.schedule_drain(ctx, SimDuration(0));
            }
            ProcEvent::ConnRefused { .. } => {
                dest.conn = None;
                dest.link.connect_failed();
            }
            _ => {
                dest.conn = None;
                dest.link.connection_lost();
            }
        }
        self.drive(ctx, &key);
    }

    /// Adopts a dead instance's store when a handoff names this one its
    /// successor. The adopted mail joins this instance's backlog; the
    /// handoff completes when the modeled disk has done the adoption's
    /// writes in both stores.
    fn try_claim_handoff(&mut self, ctx: &mut Ctx<'_>) {
        if self.pending_recovery.is_some() {
            return;
        }
        let now = ctx.now();
        let (at, disk) = {
            let mut shared = self.shared.borrow_mut();
            let Some(at) = shared.handoffs.claim_for(self.id) else {
                return;
            };
            let dead = shared.handoffs.get(at).dead;
            (at, shared.disks[dead.0 as usize].clone())
        };
        let written =
            |store: &DurableMsgBox| (store.wal().fsync_count(), store.wal().bytes_appended());
        let live: &DurableMsgBox = &self.store;
        let before = written(live);
        let (dead, _) = DurableMsgBox::open(
            store_config(),
            Box::new(disk),
            &Scope::noop(),
            now.as_micros(),
        )
        .expect("reopen an in-memory disk");
        let moved = live
            .adopt(&dead, now.as_micros())
            .expect("adopt onto in-memory storage");
        let after = written(live);
        let fsyncs = after.0 - before.0 + written(&dead).0;
        let disk_us =
            fsyncs * self.profile.fsync_us + (after.1 - before.1) * self.profile.us_per_kib / 1024;
        let mut recovered = 0;
        for (svc, n) in moved {
            recovered += n as u64;
            *self.backlog.entry(svc).or_insert(0) += n as u64;
        }
        self.tele.recovered.add(recovered);
        self.pending_recovery = Some((at, recovered));
        let done = self.disk.reserve(now, SimDuration(disk_us));
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
            let shared = self.shared.borrow();
            self.tele
                .owned_ranges
                .set(shared.ring.owned_ranges(self.id) as i64);
            self.tele
                .handoffs_in_flight
                .set(shared.handoffs.in_flight() as i64);
        }
        self.try_claim_handoff(ctx);
        if !self.backlog.is_empty() {
            self.schedule_drain(ctx, SimDuration(0));
        }
        ctx.set_timer(CONTROL_TICK, TOKEN_CONTROL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_CONTROL => self.control(ctx),
            TOKEN_DRAIN => self.drain(ctx),
            TOKEN_RECOVERY => {
                let Some((at, recovered)) = self.pending_recovery.take() else {
                    return;
                };
                let mut shared = self.shared.borrow_mut();
                shared
                    .handoffs
                    .complete(at, recovered, ctx.now().as_micros());
                self.tele
                    .handoffs_in_flight
                    .set(shared.handoffs.in_flight() as i64);
            }
            t => {
                if let Some((conn, req)) = self.on_disk.remove(&t) {
                    return self.serve(ctx, conn, req);
                }
                let Some(key) = self.dest_timers.remove(&t) else {
                    return;
                };
                if let Some(dest) = self.dests.get_mut(&key) {
                    dest.link.backoff_elapsed();
                }
                self.drive(ctx, &key);
            }
        }
    }
}

/// The box a request deposits into.
fn deposit_box(req: &Request) -> Option<&str> {
    req.target.strip_prefix("/deposit/")
}

impl Process for SimFleetInstance {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        // A destination's connection: the one its link connects or uses.
        let dest = match &event {
            ProcEvent::Message { conn, .. }
            | ProcEvent::ConnEstablished { conn }
            | ProcEvent::ConnRefused { conn, .. }
            | ProcEvent::ConnClosed { conn } => {
                let mut dests = self.dests.iter();
                dests
                    .find(|(_, d)| d.conn == Some(*conn))
                    .map(|(key, _)| key.clone())
            }
            _ => None,
        };
        match (dest, event) {
            (Some(key), event) => self.on_dest_event(ctx, key, event),
            (None, ProcEvent::Start) => self.control(ctx),
            (None, ProcEvent::Message { conn, bytes }) => self.on_request(ctx, conn, bytes),
            (None, ProcEvent::Timer { token }) => self.on_timer(ctx, token),
            (None, _) => {}
        }
        let links: usize = self.dests.values().map(|d| d.link.in_flight()).sum();
        let boxes: u64 = self.backlog.values().sum();
        self.shared.borrow_mut().work[self.id.0 as usize] =
            self.on_disk.len() + boxes as usize + links;
    }
}
