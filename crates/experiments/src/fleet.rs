//! Fleet scaling and failover — the scale-out extension beyond the
//! paper's single-dispatcher evaluation.
//!
//! The paper's dispatcher is one intermediary host; §4.3 shows its
//! throughput pinned by one machine's resources. This experiment runs
//! the sharded fleet ([`wsd_core::sim::SimFleetInstance`]) at a fixed
//! offered load far above what one instance can ack durably, sweeping
//! the instance count: delivered throughput should scale ~linearly until
//! the offered load is absorbed, because the consistent-hash ring splits
//! both the deposit fsyncs and the drain CPU across instances.
//!
//! The failover scenario kills one instance mid-run and checks the
//! tier's two delivery invariants — no acknowledged message lost, no
//! message delivered twice — plus how long the ring took to rebalance.
//!
//! The topology: one aggregate client hub routing deposits over its view
//! of the ring, the instances, and a sink every service's mail is
//! forwarded to. A run lasts until the fleet is quiet, and its books
//! must balance ([`FleetOutcome::assert_conserved`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use wsd_core::config::REPL_BACKLOG;
use wsd_core::registry::Registry;
use wsd_core::registry_repl::RegistryLeader;
use wsd_core::sim::fleet::{instance_host, CONTROL_TICK, FLEET_PORT};
use wsd_core::sim::{
    kill_fleet_instance, request_payload, response_payload, to_sim, FleetShared, SimFleetInstance,
};
use wsd_core::url::Url;
use wsd_fleet::{InstanceId, ShardRing};
use wsd_http::{Request, Response, Status};
use wsd_netsim::{
    ConnId, Ctx, HostConfig, Payload, ProcEvent, Process, SimDuration, SimTime, Simulation,
};

use crate::parallel_map;

/// Instance counts the scaling sweep visits.
pub const INSTANCE_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Simulated client population for the scaling sweep: 200k clients on
/// a 60 s think time offer ~3 333 msg/s — more than 8 disk-bound
/// instances absorb, so every sweep point saturates.
pub const SCALING_CLIENTS: u64 = 200_000;

/// The instance the failover scenario kills.
pub const FAILOVER_VICTIM: u32 = 1;

/// Port the delivery sink listens on.
const SINK_PORT: u16 = 8099;
/// How long the hub waits for an answer before it declares the instance
/// dead and re-routes through the ring.
const ACK_TIMEOUT: SimDuration = SimDuration(5_000_000);
/// Per-client think time: `clients / 60 s` is the offered rate.
const THINK_TIME: Duration = Duration::from_secs(60);
/// The generator offers its messages in batches this far apart.
const GEN_TICK: SimDuration = SimDuration(20_000);
const SEED: u64 = 0xF1EE7;
/// How long past the offered load a run may take to go quiet.
const QUIESCENCE_CAP: SimDuration = SimDuration(300_000_000);
const TOKEN_GEN: u64 = 1;
const TOKEN_CHECK: u64 = 2;

/// The message key in a fleet body (`<m k="NN" .../>`), read without an
/// XML parse.
fn body_key(body: &str) -> Option<u64> {
    let at = body.find("k=\"")? + 3;
    let rest = &body[at..];
    rest[..rest.find('"')?].parse().ok()
}

// ---------------------------------------------------------------------
// Client hub
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct HubBooks {
    generated: u64,
    acked: HashSet<u64>,
    shed: u64,
    resent: u64,
    unroutable: u64,
    detected_dead: Vec<u32>,
    /// Offered, and neither acked nor shed yet.
    pending: usize,
}

/// Where a message was last sent, and when. Its key names its service
/// and its body.
#[derive(Debug)]
struct PendingMsg {
    instance: u32,
    sent_at_us: u64,
}

/// The aggregate client population: an open-loop generator that
/// ring-routes deposits, pairs each instance's answers with its requests
/// in order, detects dead instances by answer timeout and re-routes what
/// they never acknowledged.
struct FleetClientHub {
    services: Vec<String>,
    /// This hub's *view* of the ring: an instance leaves it when the hub
    /// declares it dead, before the authoritative copy hears of it.
    view: ShardRing,
    /// One connection per instance, opened at start.
    conns: Vec<ConnId>,
    /// Per instance, the keys sent on its connection and not answered
    /// yet, oldest first: HTTP/1.1 answers come back in that order.
    sent: Vec<VecDeque<u64>>,
    /// Sorted so timeout scans and re-routes replay identically.
    pending: BTreeMap<u64, PendingMsg>,
    next_key: u64,
    msgs_per_tick: u64,
    gen_until_us: u64,
    books: Rc<RefCell<HubBooks>>,
}

impl FleetClientHub {
    fn new(params: &FleetParams, view: ShardRing, books: Rc<RefCell<HubBooks>>) -> FleetClientHub {
        // Offered rate: `clients` think for `THINK_TIME`, then send one
        // message each — the aggregate open-loop approximation that lets
        // one process stand in for 100k..1M simulated clients.
        let per_tick = params.clients as f64 / THINK_TIME.as_secs_f64() * GEN_TICK.0 as f64 / 1e6;
        FleetClientHub {
            services: (0..params.services).map(|i| format!("svc-{i}")).collect(),
            view,
            conns: Vec::new(),
            sent: vec![VecDeque::new(); params.instances],
            pending: BTreeMap::new(),
            next_key: 0,
            msgs_per_tick: per_tick.round().max(1.0) as u64,
            gen_until_us: params.duration.as_micros() as u64,
            books,
        }
    }

    fn service(&self, key: u64) -> &str {
        &self.services[(key % self.services.len() as u64) as usize]
    }

    /// The ring-routing step: every fleet enqueue must derive its target
    /// instance here. The failover tests below lose messages, and the
    /// scaling sweep stops scaling, when a key is aimed anywhere else.
    fn shard_route(&self, svc: &str) -> Option<u32> {
        self.view.owner_of(svc).map(|id| id.0)
    }

    /// Routes pending message `key` over this hub's ring view and sends it
    /// to the owner; with no live owner left it is unroutable. `true` if
    /// it was sent.
    fn route(&mut self, ctx: &mut Ctx<'_>, key: u64, now_us: u64) -> bool {
        let Some(instance) = self.shard_route(self.service(key)) else {
            self.pending.remove(&key);
            self.books.borrow_mut().unroutable += 1;
            return false;
        };
        self.enqueue_fleet(ctx, instance, key, now_us);
        true
    }

    /// The enqueue sink: sends pending message `key` toward `instance`.
    /// Only reachable via [`Self::shard_route`] deciding `instance`. A send
    /// the connection refuses is never answered: the timeout path owns it.
    fn enqueue_fleet(&mut self, ctx: &mut Ctx<'_>, instance: u32, key: u64, now_us: u64) {
        let pending = PendingMsg {
            instance,
            sent_at_us: now_us,
        };
        self.pending.insert(key, pending);
        let req = Request::soap_post(
            &format!("{}:{FLEET_PORT}", instance_host(instance)),
            &format!("/deposit/{}", self.service(key)),
            "text/xml",
            format!("<m k=\"{key}\" pad=\"{key:0>64}\"/>").into_bytes(),
        );
        let i = instance as usize;
        if ctx.send(self.conns[i], request_payload(&req)).is_ok() {
            self.sent[i].push_back(key);
        }
    }

    fn generate(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        for _ in 0..self.msgs_per_tick {
            let key = self.next_key;
            self.next_key += 1;
            self.books.borrow_mut().generated += 1;
            self.route(ctx, key, now_us);
        }
        if now_us + GEN_TICK.0 <= self.gen_until_us {
            ctx.set_timer(GEN_TICK, TOKEN_GEN);
        }
    }

    /// Answer-timeout failure detection: any instance sitting on an
    /// overdue answer is declared dead, dropped from this hub's ring view,
    /// and everything pending on it re-routes.
    fn check_timeouts(&mut self, ctx: &mut Ctx<'_>) {
        let now_us = ctx.now().as_micros();
        let newly_dead: BTreeSet<u32> = (self.pending.values())
            .filter(|p| {
                now_us - p.sent_at_us > ACK_TIMEOUT.0 && self.view.contains(InstanceId(p.instance))
            })
            .map(|p| p.instance)
            .collect();
        for &i in &newly_dead {
            self.sent[i as usize].clear();
            self.view.remove_instance(InstanceId(i));
            self.books.borrow_mut().detected_dead.push(i);
        }
        let stranded: Vec<u64> = (self.pending.iter())
            .filter(|(_, p)| newly_dead.contains(&p.instance))
            .map(|(k, _)| *k)
            .collect();
        for key in stranded {
            if self.route(ctx, key, now_us) {
                self.books.borrow_mut().resent += 1;
            }
        }
        if now_us < self.gen_until_us || !self.pending.is_empty() {
            ctx.set_timer(SimDuration(ACK_TIMEOUT.0 / 8), TOKEN_CHECK);
        }
    }

    /// An instance answered its oldest request still unanswered.
    fn on_answer(&mut self, instance: usize, bytes: &Payload) {
        let Some(key) = self.sent[instance].pop_front() else {
            return;
        };
        let mut books = self.books.borrow_mut();
        if bytes.starts_with(b"HTTP/1.1 202") {
            if self.pending.remove(&key).is_some() {
                books.acked.insert(key);
            }
        } else if bytes.starts_with(b"HTTP/1.1 503") && self.pending.remove(&key).is_some() {
            books.shed += 1;
        }
        // Any other answer leaves the message pending: the timeout path owns it.
    }
}

impl Process for FleetClientHub {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                let connect =
                    |i| ctx.connect(&instance_host(i), FLEET_PORT, SimDuration::from_secs(5));
                self.conns = (0..self.sent.len() as u32).map(connect).collect();
                ctx.set_timer(GEN_TICK, TOKEN_GEN);
                ctx.set_timer(SimDuration(ACK_TIMEOUT.0 / 8), TOKEN_CHECK);
            }
            ProcEvent::Message { conn, bytes } => {
                if let Some(i) = self.conns.iter().position(|c| *c == conn) {
                    self.on_answer(i, &bytes);
                }
            }
            ProcEvent::Timer { token: TOKEN_GEN } => self.generate(ctx),
            ProcEvent::Timer { token: TOKEN_CHECK } => self.check_timeouts(ctx),
            _ => {}
        }
        self.books.borrow_mut().pending = self.pending.len();
    }
}

// ---------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct SinkBooks {
    delivered: HashSet<u64>,
    duplicates: u64,
    last_delivery_us: u64,
}

/// Where forwarded messages land: counts distinct keys, flags any
/// duplicate delivery, and answers each with `202`.
struct FleetSink {
    books: Rc<RefCell<SinkBooks>>,
}

impl Process for FleetSink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { conn, bytes } = event {
            if let Some(key) = body_key(&String::from_utf8_lossy(&bytes)) {
                let mut books = self.books.borrow_mut();
                if books.delivered.insert(key) {
                    books.last_delivery_us = ctx.now().as_micros();
                } else {
                    books.duplicates += 1;
                }
            }
            let _ = ctx.send(conn, response_payload(&Response::empty(Status::ACCEPTED)));
        }
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// One fleet run: the tier config plus the workload.
#[derive(Debug, Clone)]
pub struct FleetParams {
    /// Dispatcher instances in the fleet.
    pub instances: usize,
    /// Logical services sharded across the ring.
    pub services: usize,
    /// Simulated client population (aggregate open-loop rate: `clients`
    /// messages per 60 s).
    pub clients: u64,
    /// How long the generator offers load (virtual time).
    pub duration: Duration,
    /// CPU cost of dispatching one message.
    pub dispatch_cost: Duration,
    /// Kill this instance at this virtual time, if set.
    pub kill: Option<(u32, Duration)>,
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            instances: 1,
            services: 16,
            clients: 10_000,
            duration: Duration::from_secs(30),
            dispatch_cost: Duration::from_micros(3_300),
            kill: None,
        }
    }
}

/// What one fleet run produced, read once it has gone quiet.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Fleet size.
    pub instances: usize,
    /// Messages the generator offered.
    pub generated: u64,
    /// Messages acknowledged durable (`202`).
    pub acked: u64,
    /// Messages shed under overload (`503`) — bounded-latency load
    /// shedding, not loss.
    pub shed: u64,
    /// Messages no live instance could be routed to.
    pub unroutable: u64,
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
    /// Acknowledged messages the successor adopted from the killed
    /// instance's store.
    pub recovered: u64,
    /// The handoff's announce → adoption-complete span in virtual µs (0
    /// when nothing was killed).
    pub rebalance_latency_us: u64,
    /// Virtual time when the last message reached the sink, in µs.
    pub last_delivery_us: u64,
    /// Telemetry snapshot at the end of the run.
    pub snapshot: wsd_telemetry::Snapshot,
}

impl FleetOutcome {
    /// The fleet's books: every offered message was acked, shed or
    /// unroutable, and every deposit an instance stored reached the sink
    /// (a message stored twice arrives twice: a duplicate).
    pub fn assert_conserved(&self) {
        let (g, a, s, u) = (self.generated, self.acked, self.shed, self.unroutable);
        assert_eq!(
            g,
            a + s + u,
            "generated {g} != acked {a} + shed {s} + unroutable {u}"
        );
        // Every instance's mailbox service counts under `fleet.i{n}.deposits`.
        let d = self.snapshot.counter_sum("deposits");
        let (dl, dup) = (self.delivered, self.duplicates);
        assert_eq!(
            d,
            dl + dup,
            "Σ mailbox.deposits {d} != delivered {dl} + duplicates {dup}"
        );
    }
}

/// Builds the fleet, offers the configured load, applies the optional
/// kill, and runs until the fleet is quiet: nothing pending at the hub,
/// nothing held by a live instance, no handoff in flight. Panics if that
/// takes more than five minutes of virtual time past the offered load.
pub fn run_fleet(params: &FleetParams) -> FleetOutcome {
    let registry = wsd_telemetry::Registry::new();
    let fleet_scope = registry.scope("fleet");
    let shared = FleetShared::new(params.instances);

    // Instance 0's registry is the replication leader; every service's
    // mail is forwarded to the sink.
    let leader = Arc::new(RegistryLeader::new(Arc::new(Registry::new()), REPL_BACKLOG));
    for svc in (0..params.services).map(|i| format!("svc-{i}")) {
        leader.register(
            &svc,
            Url::parse(&format!("http://fleet-sink:{SINK_PORT}/sink/{svc}")).expect("static url"),
        );
    }

    let mut sim = Simulation::new(SEED);
    let sink_host = sim.add_host(HostConfig::named("fleet-sink"));
    let sink_books = Rc::new(RefCell::new(SinkBooks::default()));
    let sink = sim.spawn(
        sink_host,
        Box::new(FleetSink {
            books: Rc::clone(&sink_books),
        }),
    );
    sim.listen(sink, SINK_PORT);
    let mut procs = Vec::new();
    for i in 0..params.instances as u32 {
        let host = sim.add_host(HostConfig::named(instance_host(i)));
        let (shared, leader, cost) = (
            Rc::clone(&shared),
            Arc::clone(&leader),
            to_sim(params.dispatch_cost),
        );
        let proc = sim.spawn(
            host,
            Box::new(SimFleetInstance::new(i, shared, leader, cost, &fleet_scope)),
        );
        sim.listen(proc, FLEET_PORT);
        procs.push(proc);
    }
    let hub_host = sim.add_host(HostConfig::named("fleet-hub"));
    let hub_books = Rc::new(RefCell::new(HubBooks::default()));
    sim.spawn(
        hub_host,
        Box::new(FleetClientHub::new(
            params,
            shared.borrow().ring.clone(),
            Rc::clone(&hub_books),
        )),
    );

    let offered = SimTime::ZERO + to_sim(params.duration);
    if let Some((victim, at)) = params.kill {
        sim.run_until(SimTime::ZERO + to_sim(at));
        kill_fleet_instance(&mut sim, &shared, &procs, victim, &fleet_scope);
    }
    sim.run_until(offered);
    while hub_books.borrow().pending > 0 || !shared.borrow().quiet() {
        assert!(
            sim.now() < offered + QUIESCENCE_CAP,
            "the fleet never went quiet: {} pending at the hub, instance work {:?}, {} handoffs in flight",
            hub_books.borrow().pending,
            shared.borrow().work,
            shared.borrow().handoffs.in_flight(),
        );
        sim.run_until(sim.now() + CONTROL_TICK);
    }

    let shared = shared.borrow();
    let handoff = shared.handoffs.entries().first();
    let (hub, sink) = (hub_books.borrow(), sink_books.borrow());
    let snapshot = registry.snapshot();
    FleetOutcome {
        instances: params.instances,
        generated: hub.generated,
        acked: hub.acked.len() as u64,
        shed: hub.shed,
        unroutable: hub.unroutable,
        delivered: sink.delivered.len() as u64,
        duplicates: sink.duplicates,
        acked_lost: hub
            .acked
            .iter()
            .filter(|k| !sink.delivered.contains(k))
            .count() as u64,
        resent: hub.resent,
        detected_dead: hub.detected_dead.clone(),
        recovered: handoff.map_or(0, |h| h.recovered),
        rebalance_latency_us: handoff.and_then(|h| h.rebalance_latency_us()).unwrap_or(0),
        last_delivery_us: sink.last_delivery_us,
        snapshot,
    }
}

// ---------------------------------------------------------------------
// The figure
// ---------------------------------------------------------------------

fn scaling_params(instances: usize, seconds: u64, clients: u64) -> FleetParams {
    FleetParams {
        instances,
        services: 64,
        clients,
        duration: Duration::from_secs(seconds),
        ..FleetParams::default()
    }
}

/// Sweeps fleet sizes at a fixed offered load (points run in
/// parallel; each is an independent deterministic simulation).
pub fn run_scaling(seconds: u64, counts: &[usize], clients: u64) -> Vec<FleetOutcome> {
    parallel_map(counts.to_vec(), |instances| {
        let out = run_fleet(&scaling_params(instances, seconds, clients));
        out.assert_conserved();
        out
    })
}

/// Kills instance [`FAILOVER_VICTIM`] of a 4-instance fleet halfway
/// through the offered load and runs until the fleet is quiet. The drain
/// is made CPU-bound (12 ms/dispatch) so the victim carries an
/// acked-but-undrained backlog — the hard case for handoff.
pub fn run_failover(seconds: u64) -> FleetOutcome {
    let mut params = scaling_params(4, seconds, 64_000);
    params.services = 16;
    params.dispatch_cost = Duration::from_millis(12);
    params.kill = Some((FAILOVER_VICTIM, Duration::from_secs(seconds / 2)));
    let out = run_fleet(&params);
    out.assert_conserved();
    out
}

/// Prints the scaling sweep, `seconds` of offered load, the way the paper
/// prints its tables.
pub fn print(rows: &[FleetOutcome], seconds: u64) {
    println!("fleet scaling: {SCALING_CLIENTS} clients, 64 services, fixed offered load");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "instances", "generated", "acked", "shed", "delivered", "msgs/s"
    );
    let base = rows.first().map_or(0, |r| r.delivered).max(1);
    for r in rows {
        let speedup = r.delivered as f64 / base as f64;
        let per_sec = r.delivered as f64 / seconds as f64;
        println!(
            "{:>9} {:>10} {:>10} {:>10} {:>10} {per_sec:>12.1}  ({speedup:.2}x)",
            r.instances, r.generated, r.acked, r.shed, r.delivered
        );
    }
}

/// Prints the failover scenario outcome.
pub fn print_failover(o: &FleetOutcome) {
    println!(
        "fleet failover: killed i{} of {} — acked={} delivered={} acked_lost={} \
         duplicates={} recovered={} resent={} rebalance={}ms",
        FAILOVER_VICTIM,
        o.instances,
        o.acked,
        o.delivered,
        o.acked_lost,
        o.duplicates,
        o.recovered,
        o.resent,
        o.rebalance_latency_us / 1_000
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_telemetry::MetricValue;

    fn quick_params(instances: usize, clients: u64) -> FleetParams {
        FleetParams {
            instances,
            clients,
            services: 8,
            duration: Duration::from_secs(10),
            ..FleetParams::default()
        }
    }

    fn run(params: &FleetParams) -> FleetOutcome {
        let out = run_fleet(params);
        out.assert_conserved();
        out
    }

    fn gauge(out: &FleetOutcome, name: &str) -> i64 {
        match out.snapshot.get(name) {
            Some(MetricValue::Gauge { value, .. }) => *value,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn single_instance_delivers_everything_under_light_load() {
        // 600 clients ≈ 10 msg/s — far under one instance's ~120/s.
        let out = run(&quick_params(1, 600));
        assert!(out.generated > 50, "generated {}", out.generated);
        assert_eq!(out.shed, 0, "no shedding under light load");
        assert_eq!(out.acked, out.generated);
        assert_eq!(out.delivered, out.generated);
        assert_eq!((out.duplicates, out.acked_lost), (0, 0));
        assert!(out.detected_dead.is_empty());
    }

    #[test]
    fn overload_sheds_instead_of_stalling() {
        // ~333 msg/s against one ~120 msg/s instance: admission control
        // sheds the excess and answers stay within the timeout (no
        // false-positive death detection).
        let out = run(&quick_params(1, 20_000));
        assert!(out.shed > 0, "overload must shed");
        assert!(out.detected_dead.is_empty(), "shedding is not death");
        assert_eq!((out.duplicates, out.acked_lost), (0, 0));
        assert_eq!(out.acked, out.delivered);
    }

    #[test]
    fn runs_are_deterministic_and_followers_replicate() {
        let (a, b) = (run(&quick_params(2, 20_000)), run(&quick_params(2, 20_000)));
        assert_eq!(
            (a.generated, a.acked, a.delivered, a.shed),
            (b.generated, b.acked, b.delivered, b.shed)
        );
        assert_eq!(a.last_delivery_us, b.last_delivery_us);
        for i in 0..2 {
            // Every instance tailed the leader's 8 registrations.
            assert_eq!(
                gauge(&a, &format!("fleet.i{i}.repl_offset")),
                8,
                "i{i} offset"
            );
            assert_eq!(gauge(&a, &format!("fleet.i{i}.repl_lag")), 0, "i{i} lag");
        }
    }

    // Seeded failover: no acked loss, no duplicate delivery, gauges
    // return to 0.
    #[test]
    fn killing_an_instance_loses_nothing_acked() {
        let mut params = quick_params(3, 48_000);
        params.duration = Duration::from_secs(12);
        params.kill = Some((1, Duration::from_secs(6)));
        // Make delivery CPU-bound (drain ≈ 83 msg/s < per-shard offered
        // load) so every instance carries an acked-but-undrained backlog
        // — the kill must then strand mail that only adoption recovers.
        params.dispatch_cost = Duration::from_millis(12);
        let out = run(&params);

        assert_eq!(out.detected_dead, vec![1], "hub must detect the kill");
        assert_eq!(out.acked_lost, 0, "acked messages must survive the kill");
        assert_eq!(out.duplicates, 0, "recovery must not double-deliver");
        assert!(out.recovered > 0, "victim had acked-undrained mail");
        let latency = out.rebalance_latency_us;
        assert!(
            (1..2_000_000).contains(&latency),
            "rebalance took {latency} µs"
        );
        assert!(out.resent > 0, "unacked tail must re-route");

        // Gauges return to rest: the dead instance owns nothing, no
        // handoff is in flight, and live followers caught up.
        assert_eq!(gauge(&out, "fleet.i1.owned_ranges"), 0);
        assert_eq!(gauge(&out, "fleet.handoffs_in_flight"), 0);
        for live in [0, 2] {
            assert_eq!(gauge(&out, &format!("fleet.i{live}.repl_lag")), 0);
            assert_eq!(gauge(&out, &format!("fleet.i{live}.backlog_depth")), 0);
        }
    }

    #[test]
    fn scaling_sweep_scales_delivery() {
        let rows = run_scaling(8, &[1, 2, 4], SCALING_CLIENTS);
        let speedup = |i: usize| rows[i].delivered as f64 / rows[0].delivered as f64;
        assert!(
            speedup(1) > 1.6,
            "2 instances must deliver >1.6x one: {rows:?}"
        );
        assert!(
            speedup(2) >= 3.0,
            "4 instances must deliver >=3x one: {rows:?}"
        );
    }

    #[test]
    fn failover_loses_nothing() {
        let o = run_failover(10);
        assert_eq!(o.acked_lost, 0);
        assert_eq!(o.duplicates, 0);
        assert!(o.recovered > 0, "victim must strand acked mail");
    }

    /// The full-length figure: the successor is still draining adopted
    /// mail long after the offered load ends, and the run waits for it.
    #[test]
    fn full_length_failover_loses_nothing() {
        let o = run_failover(30);
        let (acked, delivered) = (o.acked, o.delivered);
        assert_eq!(
            (o.acked_lost, o.duplicates),
            (0, 0),
            "acked {acked}, delivered {delivered}"
        );
        assert_eq!(o.delivered, o.acked);
        assert!(o.recovered > 0, "victim must strand acked mail");
    }
}
