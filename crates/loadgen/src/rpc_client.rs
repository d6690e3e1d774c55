//! The closed-loop RPC echo client of Figures 4–5.
//!
//! Each client keeps one connection open and ping-pongs the paper's
//! 483-byte echo message for the run duration. Failed connection
//! attempts and timed-out responses count as "packets not sent"; the
//! client retries after a short backoff, as the paper's ramping test
//! client does.

use wsd_core::sim::CONNECT_TIMEOUT;
use wsd_http::Request;
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration, SimTime};
use wsd_soap::{rpc as soap_rpc, SoapVersion};
use wsd_telemetry::{Counter, Histogram, Scope};

use crate::stats::{LatencySummary, RunTotals};

/// Timer tokens.
const STOP: u64 = 0;
const RETRY: u64 = 1;
const THINK: u64 = 2;
/// Response-timeout tokens are `RESP_BASE + generation`.
const RESP_BASE: u64 = 10;

/// Client parameters.
#[derive(Debug, Clone)]
pub struct RpcClientConfig {
    /// Server (or dispatcher) to talk to.
    pub target_host: String,
    /// Target port.
    pub target_port: u16,
    /// Request path (`/echo` direct, `/svc/Echo` through the
    /// dispatcher).
    pub path: String,
    /// Per-request response timeout (the HTTP/TCP timeout of the paper).
    pub response_timeout: SimDuration,
    /// Backoff before retrying after a failure.
    pub retry_backoff: SimDuration,
    /// How long to keep sending (the paper's one minute).
    pub run_for: SimDuration,
    /// Client-side pause between receiving a response and sending the
    /// next request (client stack processing / think time).
    pub think_time: SimDuration,
}

impl Default for RpcClientConfig {
    fn default() -> Self {
        RpcClientConfig {
            target_host: "dispatcher".into(),
            target_port: 8081,
            path: "/svc/Echo".into(),
            response_timeout: SimDuration::from_secs(10),
            retry_backoff: SimDuration::from_millis(50),
            run_for: SimDuration::from_secs(60),
            think_time: SimDuration::ZERO,
        }
    }
}

/// The books of an RPC fleet: every client of it counts into one clone.
#[derive(Debug, Clone)]
pub struct RpcClientStats {
    /// Completed request/response round trips.
    pub transmitted: Counter,
    /// Failed attempts (refused, timed out, connection lost, answered
    /// with an error).
    pub not_sent: Counter,
    /// Round-trip latency of each completed exchange, µs.
    pub latency_us: Histogram,
}

impl RpcClientStats {
    /// The books under `scope`: `transmitted`, `not_sent`, `latency_us`.
    pub fn new(scope: &Scope) -> Self {
        RpcClientStats {
            transmitted: scope.counter("transmitted"),
            not_sent: scope.counter("not_sent"),
            latency_us: scope.histogram("latency_us"),
        }
    }

    /// The fleet's totals so far.
    pub fn totals(&self) -> RunTotals {
        RunTotals {
            transmitted: self.transmitted.get(),
            not_sent: self.not_sent.get(),
            latency: LatencySummary::from_histogram(&self.latency_us),
        }
    }
}

/// The client process.
pub struct SimRpcClient {
    config: RpcClientConfig,
    stats: RpcClientStats,
    payload: Payload,
    conn: Option<ConnId>,
    sent_at: Option<SimTime>,
    /// Increments per request; stale response-timeout timers are
    /// recognized by generation mismatch.
    generation: u64,
    stopped: bool,
}

impl SimRpcClient {
    /// Creates a client sending the paper's 483-byte echo message and
    /// counting into `stats`.
    pub fn new(config: RpcClientConfig, stats: RpcClientStats) -> Self {
        let env = soap_rpc::paper_echo_request();
        let req = Request::soap_post(
            &format!("{}:{}", config.target_host, config.target_port),
            &config.path,
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        SimRpcClient {
            config,
            stats,
            payload: Payload::from(wsd_http::request_bytes(&req)),
            conn: None,
            sent_at: None,
            generation: 0,
            stopped: false,
        }
    }

    fn connect(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(
            &self.config.target_host,
            self.config.target_port,
            CONNECT_TIMEOUT,
        );
        self.conn = Some(conn);
    }

    fn send_next(&mut self, ctx: &mut Ctx<'_>) {
        let Some(conn) = self.conn else { return };
        self.generation += 1;
        if ctx.send(conn, self.payload.clone()).is_err() {
            self.fail_and_retry(ctx);
            return;
        }
        self.sent_at = Some(ctx.now());
        ctx.set_timer(self.config.response_timeout, RESP_BASE + self.generation);
    }

    fn fail_and_retry(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.not_sent.inc();
        self.sent_at = None;
        if let Some(conn) = self.conn.take() {
            ctx.close(conn);
        }
        if !self.stopped {
            ctx.set_timer(self.config.retry_backoff, RETRY);
        }
    }
}

impl Process for SimRpcClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                ctx.set_timer(self.config.run_for, STOP);
                self.connect(ctx);
            }
            ProcEvent::ConnEstablished { conn } => {
                if self.conn == Some(conn) && !self.stopped {
                    self.send_next(ctx);
                }
            }
            ProcEvent::ConnRefused { conn, .. } => {
                if self.conn == Some(conn) {
                    self.conn = None;
                    self.stats.not_sent.inc();
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY);
                    }
                }
            }
            ProcEvent::Message { conn, bytes } => {
                if self.conn == Some(conn) {
                    let status = wsd_http::parse_response_bytes(&bytes)
                        .map(|r| r.status.0)
                        .unwrap_or(0);
                    if status == 202 {
                        // A one-way ack, not the RPC response: keep
                        // waiting (Table 1 quadrant 2 — the real reply
                        // may never come).
                        return;
                    }
                    if let Some(sent_at) = self.sent_at.take() {
                        if status == 200 {
                            self.stats.transmitted.inc();
                            self.stats.latency_us.record(ctx.now().since(sent_at).as_micros());
                        } else {
                            // 4xx/5xx: the dispatcher or service refused
                            // — a lost packet.
                            self.stats.not_sent.inc();
                        }
                        if !self.stopped {
                            if self.config.think_time > SimDuration::ZERO {
                                ctx.set_timer(self.config.think_time, THINK);
                            } else {
                                self.send_next(ctx);
                            }
                        } else if let Some(conn) = self.conn.take() {
                            ctx.close(conn);
                        }
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if self.conn == Some(conn) {
                    self.conn = None;
                    if self.sent_at.take().is_some() {
                        self.stats.not_sent.inc();
                    }
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY);
                    }
                }
            }
            ProcEvent::Timer { token } => match token {
                STOP => {
                    self.stopped = true;
                    if self.sent_at.is_none() {
                        if let Some(conn) = self.conn.take() {
                            ctx.close(conn);
                        }
                    }
                }
                RETRY
                    if !self.stopped && self.conn.is_none() => {
                        self.connect(ctx);
                    }
                THINK
                    if !self.stopped && self.conn.is_some() && self.sent_at.is_none() => {
                        self.send_next(ctx);
                    }
                g if g > RESP_BASE
                    // Response timeout for generation g-RESP_BASE.
                    && self.generation == g - RESP_BASE && self.sent_at.is_some() => {
                        self.fail_and_retry(ctx);
                    }
                _ => {}
            },
            ProcEvent::ConnAccepted { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsd_core::registry::Registry;
    use wsd_core::sim::{EchoMode, SimEchoService};
    use wsd_core::url::Url;
    use wsd_netsim::{FirewallPolicy, HostConfig, HostId, Simulation};

    /// Spawns one client on `host` counting into books of its own.
    fn spawn(sim: &mut Simulation, host: HostId, config: RpcClientConfig) -> RpcClientStats {
        let stats = RpcClientStats::new(&Scope::noop());
        sim.spawn(host, Box::new(SimRpcClient::new(config, stats.clone())));
        stats
    }

    fn client_config(host: &str, port: u16, path: &str, secs: u64) -> RpcClientConfig {
        RpcClientConfig {
            target_host: host.into(),
            target_port: port,
            path: path.into(),
            run_for: SimDuration::from_secs(secs),
            ..RpcClientConfig::default()
        }
    }

    #[test]
    fn direct_echo_loop_counts_round_trips() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let c_host = sim.add_host(HostConfig::named("client"));
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(5));
        let svc_stats = svc.stats();
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let stats = spawn(&mut sim, c_host, client_config("ws", 8888, "/echo", 2));
        sim.run();
        assert!(stats.transmitted.get() > 10, "{}", stats.transmitted.get());
        assert_eq!(stats.not_sent.get(), 0);
        assert_eq!(svc_stats.replies_sent.get(), stats.transmitted.get());
        assert_eq!(stats.latency_us.count(), stats.transmitted.get());
    }

    #[test]
    fn unreachable_service_counts_not_sent() {
        let mut sim = Simulation::new(1);
        let _ws = sim.add_host(HostConfig::named("ws")); // no listener
        let c_host = sim.add_host(HostConfig::named("client"));
        let mut cfg = client_config("ws", 8888, "/echo", 1);
        cfg.retry_backoff = SimDuration::from_millis(100);
        let stats = spawn(&mut sim, c_host, cfg);
        sim.run();
        assert_eq!(stats.transmitted.get(), 0);
        assert!(stats.not_sent.get() > 2, "{}", stats.not_sent.get());
    }

    #[test]
    fn firewalled_service_times_out_slowly() {
        let mut sim = Simulation::new(1);
        let ws_host =
            sim.add_host(HostConfig::named("ws").firewall(FirewallPolicy::OutboundOnly));
        let c_host = sim.add_host(HostConfig::named("client"));
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(1));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let stats = spawn(&mut sim, c_host, client_config("ws", 8888, "/echo", 10));
        sim.run();
        assert_eq!(stats.transmitted.get(), 0);
        // ~10s / (3s timeout + 50ms backoff) ≈ 3 attempts.
        assert!((2..=5).contains(&stats.not_sent.get()), "{}", stats.not_sent.get());
    }

    #[test]
    fn slow_response_times_out_and_counts_lost() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let c_host = sim.add_host(HostConfig::named("client"));
        // Service takes 30 s; client allows 2 s.
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_secs(30));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let mut cfg = client_config("ws", 8888, "/echo", 8);
        cfg.response_timeout = SimDuration::from_secs(2);
        let stats = spawn(&mut sim, c_host, cfg);
        sim.run_until(wsd_netsim::SimTime::ZERO + SimDuration::from_secs(12));
        assert_eq!(stats.transmitted.get(), 0);
        assert!(stats.not_sent.get() >= 2, "{}", stats.not_sent.get());
    }

    #[test]
    fn through_dispatcher_round_trips() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let d_host = sim.add_host(HostConfig::named("dispatcher"));
        let c_host = sim.add_host(HostConfig::named("client"));
        let svc = SimEchoService::new(EchoMode::Rpc, SimDuration::from_millis(5));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let disp = wsd_core::sim::SimRpcDispatcher::new(
            registry,
            SimDuration::from_millis(2),
            wsd_core::DispatcherConfig::default(),
        );
        let dp = sim.spawn(d_host, Box::new(disp));
        sim.listen(dp, 8081);
        let stats = spawn(&mut sim, c_host, client_config("dispatcher", 8081, "/svc/Echo", 2));
        sim.run();
        assert!(stats.transmitted.get() > 5, "{}", stats.transmitted.get());
        assert_eq!(stats.not_sent.get(), 0);
    }
}
