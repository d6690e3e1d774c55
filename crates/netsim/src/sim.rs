//! The simulation engine: owns hosts, processes and connections, and runs
//! the event loop.

use std::collections::HashMap;

use wsd_telemetry::{Counter, Scope, VirtualClock, WallClock};

use crate::conn::{ConnId, ConnPhase, Connection, RefuseReason, Side};
use crate::event::{EventQueue, SimEvent};
use crate::host::{propagation, FirewallPolicy, Host, HostConfig, HostId, OverLimit};
use crate::process::{Ctx, Op, ProcEvent, ProcId, Process};
use crate::rand::SimRng;
use crate::time::{SimDuration, SimTime};

/// Wire size charged for SYN / SYN-ACK / FIN segments.
const CONTROL_SEGMENT_BYTES: usize = 60;

struct ProcSlot {
    host: HostId,
    process: Option<Box<dyn Process>>,
}

/// A deterministic discrete-event simulation.
pub struct Simulation {
    now: SimTime,
    queue: EventQueue,
    rng: SimRng,
    hosts: Vec<Host>,
    host_names: HashMap<String, HostId>,
    procs: Vec<ProcSlot>,
    listeners: HashMap<(HostId, u16), ProcId>,
    conns: HashMap<ConnId, Connection>,
    next_conn: u64,
    events_processed: u64,
    messages_delivered: u64,
    tele: Option<NetTelemetry>,
    /// Host CPU spent in each host's processes, by [`HostId`], while
    /// [`time_hosts`](Simulation::time_hosts) has switched it on.
    host_cpu: Option<(WallClock, Vec<u64>)>,
}

/// Network-level instruments bound by [`Simulation::bind_telemetry`]: the
/// accept/refuse/timeout outcomes of the TCP-like handshake model, plus a
/// [`VirtualClock`] the event loop advances so registry snapshots stamp
/// virtual (not wall) time.
struct NetTelemetry {
    clock: VirtualClock,
    connect_attempts: Counter,
    conns_established: Counter,
    syn_dropped_firewall: Counter,
    syn_dropped_backlog: Counter,
    refused_backlog: Counter,
    refused_no_listener: Counter,
    refused_local_limit: Counter,
    refused_no_host: Counter,
    connect_timeouts: Counter,
    messages_delivered: Counter,
    bytes_delivered: Counter,
}

impl Simulation {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            rng: SimRng::new(seed),
            hosts: Vec::new(),
            host_names: HashMap::new(),
            procs: Vec::new(),
            listeners: HashMap::new(),
            conns: HashMap::new(),
            next_conn: 0,
            events_processed: 0,
            messages_delivered: 0,
            tele: None,
            host_cpu: None,
        }
    }

    /// Starts timing every [`Process::on_event`] on the host, per host:
    /// the per-host CPU split of [`host_cpu_ns`](Self::host_cpu_ns). Off,
    /// it costs one branch per event. Virtual time never reads it.
    pub fn time_hosts(&mut self) {
        self.host_cpu = Some((WallClock::new(), Vec::new()));
    }

    /// Host nanoseconds each host's processes have spent in `on_event`
    /// since [`time_hosts`](Self::time_hosts), by host name in the order
    /// the hosts were added; empty when timing is off.
    pub fn host_cpu_ns(&self) -> Vec<(&str, u64)> {
        let Some((_, spent)) = &self.host_cpu else {
            return Vec::new();
        };
        let spent = |i: usize| spent.get(i).copied().unwrap_or(0);
        (self.hosts.iter().enumerate())
            .map(|(i, h)| (h.config.name.as_str(), spent(i)))
            .collect()
    }

    /// Binds network-level instruments under `scope` and hands the event
    /// loop the [`VirtualClock`] to advance as virtual time progresses.
    /// Pass the clock the owning registry was built with
    /// ([`wsd_telemetry::Registry::with_clock`]) so snapshot and trace
    /// timestamps are in virtual microseconds.
    pub fn bind_telemetry(&mut self, scope: &Scope, clock: VirtualClock) {
        self.tele = Some(NetTelemetry {
            clock,
            connect_attempts: scope.counter("connect_attempts"),
            conns_established: scope.counter("conns_established"),
            syn_dropped_firewall: scope.counter("syn_dropped_firewall"),
            syn_dropped_backlog: scope.counter("syn_dropped_backlog"),
            refused_backlog: scope.counter("refused_backlog"),
            refused_no_listener: scope.counter("refused_no_listener"),
            refused_local_limit: scope.counter("refused_local_limit"),
            refused_no_host: scope.counter("refused_no_host"),
            connect_timeouts: scope.counter("connect_timeouts"),
            messages_delivered: scope.counter("messages_delivered"),
            bytes_delivered: scope.counter("bytes_delivered"),
        });
    }

    fn tele_count(&self, pick: impl Fn(&NetTelemetry) -> &Counter) {
        if let Some(t) = &self.tele {
            pick(t).inc();
        }
    }

    /// Adds a host.
    ///
    /// # Panics
    ///
    /// Panics if another host already carries the same name.
    pub fn add_host(&mut self, config: HostConfig) -> HostId {
        let id = HostId(self.hosts.len());
        let prev = self.host_names.insert(config.name.clone(), id);
        assert!(prev.is_none(), "duplicate host name {:?}", config.name);
        self.hosts.push(Host::new(config));
        id
    }

    /// Spawns a process on a host; it receives [`ProcEvent::Start`] at the
    /// current time.
    pub fn spawn(&mut self, host: HostId, process: Box<dyn Process>) -> ProcId {
        self.spawn_at(host, process, self.now)
    }

    /// Spawns a process whose `Start` event fires at `at` (for ramped
    /// workloads).
    pub fn spawn_at(&mut self, host: HostId, process: Box<dyn Process>, at: SimTime) -> ProcId {
        assert!(host.0 < self.hosts.len(), "unknown host");
        let id = ProcId(self.procs.len());
        self.procs.push(ProcSlot {
            host,
            process: Some(process),
        });
        self.queue.push(at.max(self.now), SimEvent::ProcStart(id));
        id
    }

    /// Registers `proc` as the listener on its host's `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port is taken.
    pub fn listen(&mut self, proc: ProcId, port: u16) {
        let host = self.procs[proc.0].host;
        let prev = self.listeners.insert((host, port), proc);
        assert!(prev.is_none(), "port {port} already bound on host {host:?}");
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total messages delivered to processes so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// The id of the host named `name`.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.host_names.get(name).copied()
    }

    /// Number of currently established inbound connections on a host.
    pub fn inbound_established(&self, host: HostId) -> usize {
        self.hosts[host.0].inbound_established
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the queue drains or virtual time would pass `deadline`;
    /// events at exactly `deadline` still run.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
        if let Some(t) = &self.tele {
            t.clock.advance_to(self.now.as_micros());
        }
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        if let Some(t) = &self.tele {
            t.clock.advance_to(at.as_micros());
        }
        self.events_processed += 1;
        self.handle(event);
        true
    }

    fn handle(&mut self, event: SimEvent) {
        match event {
            SimEvent::ProcStart(p) => self.dispatch(p, ProcEvent::Start),
            SimEvent::Timer(p, token) => self.dispatch(p, ProcEvent::Timer { token }),
            SimEvent::SynArrives { conn } => self.on_syn(conn),
            SimEvent::EstablishedAtClient { conn } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if c.phase == ConnPhase::Established && !c.client_notified {
                    c.client_notified = true;
                    let client = c.client_proc;
                    self.tele_count(|t| &t.conns_established);
                    self.dispatch(client, ProcEvent::ConnEstablished { conn });
                }
            }
            SimEvent::RefusedAtClient { conn, reason } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if !c.client_notified && c.phase != ConnPhase::Closed {
                    c.client_notified = true;
                    c.phase = ConnPhase::Closed;
                    let client = c.client_proc;
                    self.release_outbound(conn);
                    self.dispatch(client, ProcEvent::ConnRefused { conn, reason });
                }
            }
            SimEvent::ConnectTimeout { conn } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if !c.client_notified && c.phase != ConnPhase::Closed {
                    c.client_notified = true;
                    c.phase = ConnPhase::Closed;
                    let client = c.client_proc;
                    let server = c.server_proc;
                    self.release_inbound(conn);
                    self.release_outbound(conn);
                    self.tele_count(|t| &t.connect_timeouts);
                    if let Some(server) = server {
                        self.dispatch(server, ProcEvent::ConnClosed { conn });
                    }
                    self.dispatch(
                        client,
                        ProcEvent::ConnRefused {
                            conn,
                            reason: RefuseReason::TimedOut,
                        },
                    );
                }
            }
            SimEvent::Deliver { conn, to, bytes } => {
                let Some(c) = self.conns.get(&conn) else {
                    return;
                };
                // Data already serialized onto the wire is delivered
                // unless the *receiving* side closed by its own call —
                // a sender's FIN never outruns its data, as in TCP.
                if c.locally_closed[side_ix(to)] {
                    return;
                }
                if let (_, Some(proc)) = c.endpoint(to) {
                    self.messages_delivered += 1;
                    if let Some(t) = &self.tele {
                        t.messages_delivered.inc();
                        t.bytes_delivered.add(bytes.len() as u64);
                    }
                    self.dispatch(proc, ProcEvent::Message { conn, bytes });
                }
            }
            SimEvent::CloseArrives { conn, to } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                if c.close_seen[side_ix(to)] {
                    return; // this side already closed
                }
                c.phase = ConnPhase::Closed;
                c.close_seen[side_ix(to)] = true;
                let target = c.endpoint(to).1;
                self.release_inbound(conn);
                self.release_outbound(conn);
                if let Some(proc) = target {
                    self.dispatch(proc, ProcEvent::ConnClosed { conn });
                }
            }
        }
    }

    fn on_syn(&mut self, conn: ConnId) {
        let Some(c) = self.conns.get(&conn) else {
            return;
        };
        if c.phase != ConnPhase::Connecting {
            return; // already timed out
        }
        let server_host = c.server_host;
        let port = c.server_port;
        let client_host = c.client_host;
        let host_cfg = self.hosts[server_host.0].config.clone();
        let back_prop = propagation(
            &self.hosts[server_host.0].config,
            &self.hosts[client_host.0].config,
        );
        // Firewalls drop inbound SYNs silently: the client just times out.
        if host_cfg.firewall == FirewallPolicy::OutboundOnly {
            self.tele_count(|t| &t.syn_dropped_firewall);
            return;
        }
        let listener = self.listeners.get(&(server_host, port)).copied();
        let Some(listener) = listener else {
            // Active refusal: RST travels back.
            self.tele_count(|t| &t.refused_no_listener);
            self.queue.push(
                self.now + back_prop,
                SimEvent::RefusedAtClient {
                    conn,
                    reason: RefuseReason::NoListener,
                },
            );
            return;
        };
        // Accept-limit check (the SYN backlog).
        let host = &self.hosts[server_host.0];
        if host.inbound_established >= host.config.accept_limit {
            let over_limit = host.config.over_limit;
            match over_limit {
                OverLimit::Drop => {
                    // Silence — client times out.
                    self.tele_count(|t| &t.syn_dropped_backlog);
                }
                OverLimit::Refuse => {
                    self.tele_count(|t| &t.refused_backlog);
                    self.queue.push(
                        self.now + back_prop,
                        SimEvent::RefusedAtClient {
                            conn,
                            reason: RefuseReason::AcceptOverflow,
                        },
                    );
                }
            }
            return;
        }
        self.hosts[server_host.0].inbound_established += 1;
        let c = self.conns.get_mut(&conn).expect("conn vanished");
        c.counted_inbound = true;
        c.server_proc = Some(listener);
        c.phase = ConnPhase::Established;
        // SYN-ACK travels back; charge it like a control segment.
        let established_at =
            self.path_delivery_time(server_host, client_host, CONTROL_SEGMENT_BYTES, false);
        self.queue
            .push(established_at, SimEvent::EstablishedAtClient { conn });
        self.dispatch(listener, ProcEvent::ConnAccepted { conn, port });
    }

    /// Time at which `bytes` sent now from `src` finish arriving at `dst`
    /// (optionally including the receiver's CPU cost).
    fn path_delivery_time(
        &mut self,
        src: HostId,
        dst: HostId,
        bytes: usize,
        charge_cpu: bool,
    ) -> SimTime {
        let up_done = self.hosts[src.0].reserve_uplink(self.now, bytes);
        let prop = propagation(&self.hosts[src.0].config, &self.hosts[dst.0].config);
        let arrive = up_done + prop;
        let down_done = self.hosts[dst.0].reserve_downlink(arrive, bytes);
        if charge_cpu {
            down_done + self.hosts[dst.0].processing_time(bytes)
        } else {
            down_done
        }
    }

    fn release_inbound(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            if c.counted_inbound {
                c.counted_inbound = false;
                let h = &mut self.hosts[c.server_host.0];
                h.inbound_established = h.inbound_established.saturating_sub(1);
            }
        }
    }

    fn release_outbound(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            if c.counted_outbound {
                c.counted_outbound = false;
                let h = &mut self.hosts[c.client_host.0];
                h.outbound_open = h.outbound_open.saturating_sub(1);
            }
        }
    }

    fn dispatch(&mut self, proc: ProcId, event: ProcEvent) {
        let Some(mut process) = self.procs[proc.0].process.take() else {
            return; // process was stopped
        };
        let mut ctx = Ctx {
            now: self.now,
            me: proc,
            rng: &mut self.rng,
            ops: Vec::new(),
            next_conn_id: &mut self.next_conn,
            conns: &self.conns,
        };
        match &mut self.host_cpu {
            None => process.on_event(&mut ctx, event),
            Some((clock, spent)) => {
                let started = clock.now_ns();
                process.on_event(&mut ctx, event);
                let host = self.procs[proc.0].host.0;
                if spent.len() <= host {
                    spent.resize(host + 1, 0);
                }
                spent[host] += clock.now_ns() - started;
            }
        }
        let ops = ctx.ops;
        self.procs[proc.0].process = Some(process);
        for op in ops {
            self.apply(proc, op);
        }
    }

    fn apply(&mut self, proc: ProcId, op: Op) {
        match op {
            Op::SetTimer { delay, token } => {
                self.queue.push(self.now + delay, SimEvent::Timer(proc, token));
            }
            Op::Connect {
                conn,
                host,
                port,
                timeout,
            } => {
                let client_host = self.procs[proc.0].host;
                self.tele_count(|t| &t.connect_attempts);
                // Local socket exhaustion fails before any packet moves.
                {
                    let h = &self.hosts[client_host.0];
                    if h.outbound_open >= h.config.outbound_limit {
                        self.conns.insert(
                            conn,
                            Connection {
                                client_host,
                                client_proc: proc,
                                server_host: client_host, // placeholder
                                server_port: port,
                                server_proc: None,
                                phase: ConnPhase::Connecting,
                                counted_inbound: false,
                                counted_outbound: false,
                                client_notified: false,
                                close_seen: [false; 2],
                                locally_closed: [false; 2],
                            },
                        );
                        self.tele_count(|t| &t.refused_local_limit);
                        self.queue.push(
                            self.now + SimDuration::from_micros(10),
                            SimEvent::RefusedAtClient {
                                conn,
                                reason: RefuseReason::LocalLimit,
                            },
                        );
                        return;
                    }
                }
                let Some(server_host) = self.host_id(&host) else {
                    self.conns.insert(
                        conn,
                        Connection {
                            client_host,
                            client_proc: proc,
                            server_host: client_host, // placeholder
                            server_port: port,
                            server_proc: None,
                            phase: ConnPhase::Connecting,
                            counted_inbound: false,
                            counted_outbound: false,
                            client_notified: false,
                            close_seen: [false; 2],
                            locally_closed: [false; 2],
                        },
                    );
                    self.tele_count(|t| &t.refused_no_host);
                    self.queue.push(
                        self.now + SimDuration::from_micros(1),
                        SimEvent::RefusedAtClient {
                            conn,
                            reason: RefuseReason::NoSuchHost,
                        },
                    );
                    return;
                };
                self.conns.insert(
                    conn,
                    Connection {
                        client_host,
                        client_proc: proc,
                        server_host,
                        server_port: port,
                        server_proc: None,
                        phase: ConnPhase::Connecting,
                        counted_inbound: false,
                        counted_outbound: true,
                        client_notified: false,
                        close_seen: [false; 2],
                        locally_closed: [false; 2],
                    },
                );
                self.hosts[client_host.0].outbound_open += 1;
                let syn_at = self.path_delivery_time(
                    client_host,
                    server_host,
                    CONTROL_SEGMENT_BYTES,
                    false,
                );
                self.queue.push(syn_at, SimEvent::SynArrives { conn });
                self.queue
                    .push(self.now + timeout, SimEvent::ConnectTimeout { conn });
            }
            Op::Send { conn, bytes } => {
                let Some(c) = self.conns.get(&conn) else {
                    return;
                };
                let from_side = if c.client_proc == proc {
                    Side::Client
                } else {
                    Side::Server
                };
                if c.phase != ConnPhase::Established || c.close_seen[side_ix(from_side)] {
                    return;
                }
                let (src, _) = c.endpoint(from_side);
                let (dst, _) = c.endpoint(from_side.other());
                let to = from_side.other();
                let deliver_at = self.path_delivery_time(src, dst, bytes.len(), true);
                self.queue
                    .push(deliver_at, SimEvent::Deliver { conn, to, bytes });
            }
            Op::Close { conn } => {
                let Some(c) = self.conns.get_mut(&conn) else {
                    return;
                };
                let from_side = if c.client_proc == proc {
                    Side::Client
                } else {
                    Side::Server
                };
                let ix = side_ix(from_side);
                if c.close_seen[ix] {
                    return; // already closed locally
                }
                c.close_seen[ix] = true;
                c.locally_closed[ix] = true;
                let established = c.phase == ConnPhase::Established;
                let both_closed = c.close_seen[side_ix(from_side.other())];
                let (src, _) = c.endpoint(from_side);
                let (dst, _) = c.endpoint(from_side.other());
                let to = from_side.other();
                if !established || both_closed {
                    // Aborting an unestablished attempt, or completing a
                    // mutual close: tear down now.
                    c.phase = ConnPhase::Closed;
                    self.release_inbound(conn);
                    self.release_outbound(conn);
                    return;
                }
                // Graceful close: the FIN serializes onto the same links
                // *behind* any data already queued, so in-flight sends
                // still arrive (TCP semantics).
                let fin_at = self.path_delivery_time(src, dst, CONTROL_SEGMENT_BYTES, false);
                self.queue.push(fin_at, SimEvent::CloseArrives { conn, to });
            }
        }
    }

    /// Stops a process: it receives no further events. Its connections
    /// stay open until closed by peers or timeouts (a crashed JVM's
    /// sockets linger similarly).
    pub fn stop_process(&mut self, proc: ProcId) {
        self.procs[proc.0].process = None;
    }
}

fn side_ix(side: Side) -> usize {
    match side {
        Side::Client => 0,
        Side::Server => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Records everything that happens to it.
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
        /// On Start, connect here (host, port) if set.
        target: Option<(String, u16)>,
        /// Payload to send once established.
        send_on_establish: Option<Payload>,
        /// Echo received messages back.
        echo: bool,
        /// Close after receiving this many messages.
        close_after: Option<usize>,
        received: usize,
        /// Arrival times of received messages.
        msg_times: Rc<RefCell<Vec<SimTime>>>,
    }

    impl Recorder {
        fn new(log: Rc<RefCell<Vec<String>>>) -> Self {
            Recorder {
                log,
                target: None,
                send_on_establish: None,
                echo: false,
                close_after: None,
                received: 0,
                msg_times: Rc::new(RefCell::new(Vec::new())),
            }
        }
    }

    impl Process for Recorder {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    self.log.borrow_mut().push("start".into());
                    if let Some((host, port)) = self.target.clone() {
                        ctx.connect(&host, port, SimDuration::from_secs(3));
                    }
                }
                ProcEvent::Timer { token } => {
                    self.log.borrow_mut().push(format!("timer:{token}"));
                }
                ProcEvent::ConnEstablished { conn } => {
                    self.log.borrow_mut().push("established".into());
                    if let Some(p) = self.send_on_establish.take() {
                        ctx.send(conn, p).unwrap();
                    }
                }
                ProcEvent::ConnRefused { reason, .. } => {
                    self.log.borrow_mut().push(format!("refused:{reason:?}"));
                }
                ProcEvent::ConnAccepted { .. } => {
                    self.log.borrow_mut().push("accepted".into());
                }
                ProcEvent::Message { conn, bytes } => {
                    self.received += 1;
                    self.msg_times.borrow_mut().push(ctx.now());
                    self.log
                        .borrow_mut()
                        .push(format!("msg:{}", String::from_utf8_lossy(&bytes)));
                    if self.echo {
                        let _ = ctx.send(conn, bytes);
                    }
                    if self.close_after == Some(self.received) {
                        ctx.close(conn);
                    }
                }
                ProcEvent::ConnClosed { .. } => {
                    self.log.borrow_mut().push("closed".into());
                }
            }
        }
    }

    fn two_host_sim() -> (Simulation, HostId, HostId) {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b"));
        (sim, a, b)
    }

    #[test]
    fn echo_round_trip_works() {
        let (mut sim, a, b) = two_host_sim();
        let slog = Rc::new(RefCell::new(vec![]));
        let clog = Rc::new(RefCell::new(vec![]));
        let mut server = Recorder::new(slog.clone());
        server.echo = true;
        let sp = sim.spawn(b, Box::new(server));
        sim.listen(sp, 80);
        let mut client = Recorder::new(clog.clone());
        client.target = Some(("b".into(), 80));
        client.send_on_establish = Some(Payload::from_static(b"hello"));
        sim.spawn(a, Box::new(client));
        sim.run();
        assert_eq!(
            clog.borrow().as_slice(),
            ["start", "established", "msg:hello"]
        );
        assert_eq!(slog.borrow().as_slice(), ["start", "accepted", "msg:hello"]);
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn timing_hosts_splits_by_host_and_moves_nothing_virtual() {
        let run = |timed: bool| {
            let (mut sim, a, b) = two_host_sim();
            if timed {
                sim.time_hosts();
            }
            let mut server = Recorder::new(Rc::new(RefCell::new(vec![])));
            server.echo = true;
            let sp = sim.spawn(b, Box::new(server));
            sim.listen(sp, 80);
            let mut client = Recorder::new(Rc::new(RefCell::new(vec![])));
            client.target = Some(("b".into(), 80));
            client.send_on_establish = Some(Payload::from_static(b"hello"));
            sim.spawn(a, Box::new(client));
            sim.run();
            let hosts: Vec<String> = sim.host_cpu_ns().iter().map(|(h, _)| h.to_string()).collect();
            (sim.now(), sim.events_processed(), hosts)
        };
        let (plain, timed) = (run(false), run(true));
        assert_eq!((plain.0, plain.1), (timed.0, timed.1));
        assert!(plain.2.is_empty());
        assert_eq!(timed.2, ["a", "b"]);
    }

    #[test]
    fn connect_to_missing_host_refused() {
        let (mut sim, a, _) = two_host_sim();
        let log = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(log.clone());
        client.target = Some(("nowhere".into(), 80));
        sim.spawn(a, Box::new(client));
        sim.run();
        assert_eq!(log.borrow().as_slice(), ["start", "refused:NoSuchHost"]);
    }

    #[test]
    fn connect_to_closed_port_refused() {
        let (mut sim, a, _b) = two_host_sim();
        let log = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(log.clone());
        client.target = Some(("b".into(), 81));
        sim.spawn(a, Box::new(client));
        sim.run();
        assert_eq!(log.borrow().as_slice(), ["start", "refused:NoListener"]);
    }

    #[test]
    fn firewall_drops_syn_then_client_times_out() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b").firewall(FirewallPolicy::OutboundOnly));
        let slog = Rc::new(RefCell::new(vec![]));
        let sp = sim.spawn(b, Box::new(Recorder::new(slog.clone())));
        sim.listen(sp, 80);
        let log = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(log.clone());
        client.target = Some(("b".into(), 80));
        sim.spawn(a, Box::new(client));
        sim.run();
        assert_eq!(log.borrow().as_slice(), ["start", "refused:TimedOut"]);
        // The server never saw anything.
        assert_eq!(slog.borrow().as_slice(), ["start"]);
        // And the timeout took the configured 3 seconds.
        assert!(sim.now() >= SimTime::ZERO + SimDuration::from_secs(3));
    }

    #[test]
    fn outbound_through_firewall_still_works() {
        let mut sim = Simulation::new(1);
        let inria = sim.add_host(HostConfig::named("inria").firewall(FirewallPolicy::OutboundOnly));
        let us = sim.add_host(HostConfig::named("us"));
        let slog = Rc::new(RefCell::new(vec![]));
        let mut server = Recorder::new(slog.clone());
        server.echo = true;
        let sp = sim.spawn(us, Box::new(server));
        sim.listen(sp, 80);
        let clog = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(clog.clone());
        client.target = Some(("us".into(), 80));
        client.send_on_establish = Some(Payload::from_static(b"out"));
        sim.spawn(inria, Box::new(client));
        sim.run();
        assert_eq!(clog.borrow().last().unwrap(), "msg:out");
    }

    #[test]
    fn accept_limit_drop_causes_timeouts() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b").accept_limit(2, OverLimit::Drop));
        let slog = Rc::new(RefCell::new(vec![]));
        let sp = sim.spawn(b, Box::new(Recorder::new(slog.clone())));
        sim.listen(sp, 80);
        let mut logs = vec![];
        for _ in 0..5 {
            let log = Rc::new(RefCell::new(vec![]));
            let mut client = Recorder::new(log.clone());
            client.target = Some(("b".into(), 80));
            sim.spawn(a, Box::new(client));
            logs.push(log);
        }
        sim.run();
        let established = logs
            .iter()
            .filter(|l| l.borrow().iter().any(|e| e == "established"))
            .count();
        let timed_out = logs
            .iter()
            .filter(|l| l.borrow().iter().any(|e| e == "refused:TimedOut"))
            .count();
        assert_eq!(established, 2);
        assert_eq!(timed_out, 3);
        assert_eq!(sim.inbound_established(sim.host_id("b").unwrap()), 2);
    }

    #[test]
    fn accept_limit_refuse_fails_fast() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b").accept_limit(1, OverLimit::Refuse));
        let sp = sim.spawn(b, Box::new(Recorder::new(Rc::new(RefCell::new(vec![])))));
        sim.listen(sp, 80);
        let mut logs = vec![];
        for _ in 0..3 {
            let log = Rc::new(RefCell::new(vec![]));
            let mut client = Recorder::new(log.clone());
            client.target = Some(("b".into(), 80));
            sim.spawn(a, Box::new(client));
            logs.push(log);
        }
        // Refusals must arrive long before the 3 s connect timeout.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        let refused = logs
            .iter()
            .filter(|l| l.borrow().iter().any(|e| e == "refused:AcceptOverflow"))
            .count();
        assert_eq!(refused, 2);
    }

    #[test]
    fn close_notifies_peer_and_releases_inbound_slot() {
        let mut sim = Simulation::new(1);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b").accept_limit(1, OverLimit::Refuse));
        let slog = Rc::new(RefCell::new(vec![]));
        let mut server = Recorder::new(slog.clone());
        server.echo = false;
        server.close_after = Some(1);
        let sp = sim.spawn(b, Box::new(server));
        sim.listen(sp, 80);
        let clog = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(clog.clone());
        client.target = Some(("b".into(), 80));
        client.send_on_establish = Some(Payload::from_static(b"x"));
        sim.spawn(a, Box::new(client));
        sim.run();
        assert!(clog.borrow().iter().any(|e| e == "closed"));
        assert_eq!(sim.inbound_established(sim.host_id("b").unwrap()), 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timed {
            log: Rc<RefCell<Vec<String>>>,
        }
        impl Process for Timed {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
                match event {
                    ProcEvent::Start => {
                        ctx.set_timer(SimDuration::from_millis(20), 2);
                        ctx.set_timer(SimDuration::from_millis(10), 1);
                        ctx.set_timer(SimDuration::from_millis(30), 3);
                    }
                    ProcEvent::Timer { token } => {
                        self.log.borrow_mut().push(format!("t{token}@{}", ctx.now()));
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, a, _) = two_host_sim();
        let log = Rc::new(RefCell::new(vec![]));
        sim.spawn(a, Box::new(Timed { log: log.clone() }));
        sim.run();
        let entries = log.borrow();
        assert!(entries[0].starts_with("t1"));
        assert!(entries[1].starts_with("t2"));
        assert!(entries[2].starts_with("t3"));
    }

    #[test]
    fn bandwidth_shapes_delivery_time() {
        // Same payload over a fast vs slow uplink: slow arrives later.
        let run = |up_kbps: u32| -> SimTime {
            let mut sim = Simulation::new(1);
            let a = sim.add_host(HostConfig::named("a").bandwidth(up_kbps, 100_000));
            let b = sim.add_host(HostConfig::named("b"));
            let slog = Rc::new(RefCell::new(vec![]));
            let server = Recorder::new(slog);
            let arrival = server.msg_times.clone();
            let sp = sim.spawn(b, Box::new(server));
            sim.listen(sp, 80);
            let clog = Rc::new(RefCell::new(vec![]));
            let mut client = Recorder::new(clog);
            client.target = Some(("b".into(), 80));
            client.send_on_establish = Some(Payload::from(vec![0u8; 10_000]));
            sim.spawn(a, Box::new(client));
            sim.run();
            let t = arrival.borrow()[0];
            t
        };
        assert!(run(288) > run(2739));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let (mut sim, a, b) = two_host_sim();
            let slog = Rc::new(RefCell::new(vec![]));
            let mut server = Recorder::new(slog.clone());
            server.echo = true;
            let sp = sim.spawn(b, Box::new(server));
            sim.listen(sp, 80);
            for _ in 0..10 {
                let log = Rc::new(RefCell::new(vec![]));
                let mut client = Recorder::new(log);
                client.target = Some(("b".into(), 80));
                client.send_on_establish = Some(Payload::from_static(b"m"));
                sim.spawn(a, Box::new(client));
            }
            sim.run();
            (sim.events_processed(), sim.messages_delivered(), sim.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        struct Ticker;
        impl Process for Ticker {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
                match event {
                    ProcEvent::Start | ProcEvent::Timer { .. } => {
                        ctx.set_timer(SimDuration::from_millis(10), 0);
                    }
                    _ => {}
                }
            }
        }
        let (mut sim, a, _) = two_host_sim();
        sim.spawn(a, Box::new(Ticker));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(1));
        // ~100 ticks, not unbounded.
        assert!(sim.events_processed() <= 102);
    }

    #[test]
    fn stopped_process_gets_no_events() {
        let (mut sim, a, b) = two_host_sim();
        let slog = Rc::new(RefCell::new(vec![]));
        let sp = sim.spawn(b, Box::new(Recorder::new(slog.clone())));
        sim.listen(sp, 80);
        sim.stop_process(sp);
        let clog = Rc::new(RefCell::new(vec![]));
        let mut client = Recorder::new(clog.clone());
        client.target = Some(("b".into(), 80));
        sim.spawn(a, Box::new(client));
        sim.run();
        // Stopped listener: accept still happens at the host level? No —
        // the process is gone, so dispatch is a no-op; the client still
        // sees TCP establish (the OS accepts), which mirrors a hung JVM.
        assert!(slog.borrow().len() <= 1);
    }

    #[test]
    fn telemetry_clock_tracks_virtual_time_and_counts_outcomes() {
        let clock = wsd_telemetry::VirtualClock::new();
        let reg = wsd_telemetry::Registry::with_clock(std::sync::Arc::new(clock.clone()));
        let mut sim = Simulation::new(1);
        sim.bind_telemetry(&reg.scope("net"), clock);
        let a = sim.add_host(HostConfig::named("a"));
        let b = sim.add_host(HostConfig::named("b").firewall(FirewallPolicy::OutboundOnly));
        let sp = sim.spawn(b, Box::new(Recorder::new(Rc::new(RefCell::new(vec![])))));
        sim.listen(sp, 80);
        let mut blocked = Recorder::new(Rc::new(RefCell::new(vec![])));
        blocked.target = Some(("b".into(), 80));
        sim.spawn(a, Box::new(blocked));
        let mut lost = Recorder::new(Rc::new(RefCell::new(vec![])));
        lost.target = Some(("nowhere".into(), 80));
        sim.spawn(a, Box::new(lost));
        sim.run();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("net.connect_attempts"), 2);
        assert_eq!(snap.counter("net.syn_dropped_firewall"), 1);
        assert_eq!(snap.counter("net.refused_no_host"), 1);
        assert_eq!(snap.counter("net.connect_timeouts"), 1);
        // The registry clock advanced with virtual time: the blocked
        // connect timed out at 3 virtual seconds.
        assert_eq!(snap.at_us(), sim.now().as_micros());
        assert!(snap.at_us() >= 3_000_000);
    }

    #[test]
    fn send_on_unknown_conn_is_not_yours() {
        struct BadSender {
            result: Rc<RefCell<Option<Result<(), crate::process::SendError>>>>,
        }
        impl Process for BadSender {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
                if let ProcEvent::Start = event {
                    let r = ctx.send(ConnId(999), Payload::from_static(b"x"));
                    *self.result.borrow_mut() = Some(r);
                }
            }
        }
        let (mut sim, a, _) = two_host_sim();
        let result = Rc::new(RefCell::new(None));
        sim.spawn(a, Box::new(BadSender { result: result.clone() }));
        sim.run();
        assert_eq!(
            *result.borrow(),
            Some(Err(crate::process::SendError::NotYours))
        );
    }
}
