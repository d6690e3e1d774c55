//! The four workloads: how each is set up, what one closed-loop
//! operation does, and what it checks.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsd_core::rt::{MailboxClient, MsgBoxServer, MsgDispatcherServer, Network};
use wsd_experiments::fig6::{self, Series};
use wsd_http::{HttpClient, PipeStream, Request, Response, Status};
use wsd_soap::{rpc, Envelope};
use wsd_telemetry::Scope;
use wsd_wsa::WsaHeaders;

use crate::gen::{paper_pad_len, Generator, BACKLOG_PAYLOAD_BYTES};
use crate::harness::{Client, Recorder, Rig, OP_TIMEOUT};
use crate::spans::SpanKind;
use crate::topology::{
    Topology, WsKind, DISPATCHER, MSGBOX_PORT, MSG_PORT, RPC_PORT, WS_HOST, WS_PORT,
};

/// Messages in one `backlog_durable` burst.
pub const BURST: usize = 512;
/// Messages asked for per pick-up fetch.
pub const FETCH: usize = 64;
/// Sleep after an empty mailbox poll.
const EMPTY_POLL_SLEEP: Duration = Duration::from_micros(100);
/// Sleep between looks at the mailbox service's deposit counter while a
/// burst settles (about 1.4 s): coarse, so that the generator's own
/// wake-ups do not weigh on `cpu_us_per_msg`.
const SETTLE_SLEEP: Duration = Duration::from_millis(1);
/// Keep-alive connections of one `rpc_echo` client thread, one exchange
/// in flight on each.
pub const RPC_CONNS: usize = 4;
/// Unrecorded operations ([`RPC_CONNS`] exchanges each) per `rpc_echo`
/// client before the window opens.
const RPC_WARMUP_OPS: u64 = 500;
/// Conversations `conv_pingpong`'s client keeps in flight.
pub const CONV_DEPTH: usize = 8;
/// Unrecorded operations (top up, poll once) before `conv_pingpong`'s
/// window opens.
const CONV_WARMUP_OPS: u64 = 500;
/// The EXPERIMENTS.md Figure-6 row every `sim_fig6` repetition runs and
/// must reproduce: 50 clients, 60 virtual seconds, MSG-Dispatcher +
/// WS-MsgBox → processed / accepted / fetched.
pub const FIG6_PINNED: (u64, u64, u64) = (5490, 5489, 5350);
const FIG6_CLIENTS: usize = 50;
const FIG6_SECONDS: u64 = 60;

/// Client threads of the rt workloads: at most two, and never more than
/// the cores there are.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Builds the named workload's topology under `scope` and connects its
/// clients. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, scope: &Scope) -> Option<Rig> {
    Some(match name {
        "rpc_echo" => {
            let topo = Topology::rpc(scope);
            let pad = paper_pad_len();
            let client = |i: usize, via_dispatcher: bool| -> Box<dyn Client> {
                let (host, port, target) = if via_dispatcher {
                    (DISPATCHER, RPC_PORT, "/svc/Echo")
                } else {
                    (WS_HOST, WS_PORT, "/echo")
                };
                Box::new(RpcClient {
                    conns: (0..RPC_CONNS)
                        .map(|_| Conn::new(&topo.net, host, port))
                        .collect(),
                    target,
                    // Direct clients draw from their own streams so the
                    // dispatcher phase sees the same bytes with or
                    // without a direct phase before it.
                    gen: Generator::new(seed, if via_dispatcher { i } else { 100 + i }),
                    pad,
                })
            };
            Rig {
                clients: (0..client_threads()).map(|i| client(i, true)).collect(),
                direct: (0..client_threads()).map(|i| client(i, false)).collect(),
                warmup_ops: RPC_WARMUP_OPS,
                inline: false,
                topo,
            }
        }
        "conv_pingpong" => {
            let topo = Topology::messaging(seed, WsKind::OneWay, false, scope);
            let client = ConvClient {
                conn: Conn::new(&topo.net, DISPATCHER, MSG_PORT),
                mailbox: create_mailbox(&topo.net),
                gen: Generator::new(seed, 0),
                pad: paper_pad_len(),
                outstanding: HashMap::with_capacity(CONV_DEPTH),
                progress: Instant::now(),
            };
            Rig {
                clients: vec![Box::new(client)],
                direct: Vec::new(),
                warmup_ops: CONV_WARMUP_OPS,
                inline: false,
                topo,
            }
        }
        "backlog_durable" => {
            let topo = Topology::messaging(seed, WsKind::Rpc, true, scope);
            let client = BacklogClient {
                conn: Conn::new(&topo.net, DISPATCHER, MSG_PORT),
                mailbox: create_mailbox(&topo.net),
                gen: Generator::new(seed, 0),
                msg: Arc::clone(topo.msg.as_ref().expect("messaging topology")),
                msgbox: Arc::clone(topo.msgbox.as_ref().expect("messaging topology")),
            };
            Rig {
                clients: vec![Box::new(client)],
                direct: Vec::new(),
                // One whole burst cycle.
                warmup_ops: 1,
                // Every cycle is a slice of its own.
                inline: true,
                topo,
            }
        }
        "sim_fig6" => Rig {
            clients: vec![Box::new(SimClient {
                observed: scope.is_active(),
                repetitions: 0,
            })],
            direct: Vec::new(),
            warmup_ops: 1,
            inline: true,
            topo: Topology::empty(),
        },
        _ => return None,
    })
}

fn create_mailbox(net: &Arc<Network>) -> MailboxClient {
    MailboxClient::create(net, DISPATCHER, MSGBOX_PORT).expect("create mailbox")
}

/// A keep-alive client connection that reconnects after a failure.
struct Conn {
    net: Arc<Network>,
    host: &'static str,
    port: u16,
    http: Option<HttpClient<PipeStream>>,
}

impl Conn {
    fn new(net: &Arc<Network>, host: &'static str, port: u16) -> Conn {
        Conn {
            net: Arc::clone(net),
            host,
            port,
            http: None,
        }
    }

    fn authority(&self) -> String {
        format!("{}:{}", self.host, self.port)
    }

    /// Sends `req`, connecting first when there is no connection. A
    /// transport error here or in [`recv`](Self::recv) drops the
    /// connection so the next exchange starts clean.
    fn send(&mut self, req: &Request) -> Result<(), String> {
        if self.http.is_none() {
            let stream = self
                .net
                .connect(self.host, self.port)
                .map_err(|e| e.to_string())?;
            let mut http = HttpClient::new(stream);
            http.set_response_timeout(Some(OP_TIMEOUT))
                .map_err(|e| e.to_string())?;
            self.http = Some(http);
        }
        let result = self.http.as_mut().expect("connected above").send_only(req);
        if result.is_err() {
            self.http = None;
        }
        result.map_err(|e| e.to_string())
    }

    /// Reads the response to the request sent last.
    fn recv(&mut self) -> Result<Response, String> {
        let http = self.http.as_mut().ok_or("not connected")?;
        let result = http.read_response();
        if result.is_err() {
            self.http = None;
        }
        result.map_err(|e| e.to_string())
    }

    /// One exchange.
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.send(req)?;
        self.recv()
    }
}

/// `rpc_echo`: the paper's 263-byte echo over [`RPC_CONNS`] keep-alive
/// connections. One operation sends a request on each and then reads
/// and checks each response in turn.
struct RpcClient {
    conns: Vec<Conn>,
    target: &'static str,
    gen: Generator,
    pad: usize,
}

/// What an echo response must be: `200` and echoing `text`.
fn check_echo(resp: &Response, text: &str) -> Result<(), String> {
    if resp.status != Status::OK {
        return Err(format!("status {}", resp.status.0));
    }
    let env = Envelope::parse(&resp.body_utf8()).map_err(|e| e.to_string())?;
    let echoed = rpc::parse_echo_response(&env).map_err(|e| e.to_string())?;
    if echoed == text {
        Ok(())
    } else {
        Err("echoed text differs from sent text".to_string())
    }
}

impl Client for RpcClient {
    fn op(&mut self, rec: &mut Recorder) {
        rec.attempt(self.conns.len() as u64);
        let t0 = rec.begin_op(self.gen.sent() + 1);
        let mut sent = Vec::with_capacity(self.conns.len());
        for conn in &mut self.conns {
            let (req, text) = self
                .gen
                .rpc_request(&conn.authority(), self.target, self.pad);
            sent.push((rec.now_ns(), text, conn.send(&req)));
        }
        for (conn, (at, text, accepted)) in self.conns.iter_mut().zip(sent) {
            let outcome = accepted
                .and_then(|()| conn.recv())
                .and_then(|resp| check_echo(&resp, &text));
            match outcome {
                Ok(()) => {
                    rec.latency(rec.now_ns() - at);
                    rec.complete(1);
                }
                Err(why) => rec.fail(1, true, || format!("rpc_echo: {why}")),
            }
        }
        let t1 = rec.now_ns();
        rec.phase(SpanKind::Send, t0, t1);
        rec.end_op(t0, t1);
    }
}

/// What a reply envelope must be: correlated to `message_id` and
/// echoing `text`.
fn check_reply(env: &Envelope, message_id: &str, text: &str) -> Result<(), String> {
    let headers = WsaHeaders::from_envelope(env).map_err(|e| e.to_string())?;
    match headers.relates_to.as_slice() {
        [(id, _)] if id == message_id => {}
        other => return Err(format!("RelatesTo {other:?}, expected {message_id}")),
    }
    let echoed = rpc::parse_echo_response(env).map_err(|e| e.to_string())?;
    if echoed == text {
        Ok(())
    } else {
        Err(format!("reply to {message_id} echoes different text"))
    }
}

/// The one `RelatesTo` id of a reply; empty when it has none.
fn relates_to(env: &Envelope) -> String {
    WsaHeaders::from_envelope(env)
        .ok()
        .and_then(|h| h.relates_to.into_iter().next())
        .map(|(id, _)| id)
        .unwrap_or_default()
}

/// `conv_pingpong`: a firewalled client that keeps [`CONV_DEPTH`]
/// conversations in flight. Each is one addressed request whose reply
/// comes back through the dispatcher into the client's mailbox. One
/// operation starts a conversation for every one that ended, then polls
/// the mailbox until at least one reply is in hand.
struct ConvClient {
    conn: Conn,
    mailbox: MailboxClient,
    gen: Generator,
    pad: usize,
    /// Conversations whose reply is not yet in hand: `MessageID` → echo
    /// text and send stamp.
    outstanding: HashMap<String, (String, u64)>,
    /// When a reply last arrived, or the wait for one began.
    progress: Instant,
}

impl ConvClient {
    /// Polls the mailbox once, checks off what arrived and returns how
    /// many replies that was; sleeps after an empty poll. `None` once
    /// nothing has arrived for [`OP_TIMEOUT`]: every conversation still
    /// open has then failed. Replies count as completed messages only
    /// while `record`.
    fn collect(&mut self, rec: &mut Recorder, record: bool) -> Option<usize> {
        rec.polls += u64::from(rec.recording());
        let got = match self.mailbox.poll(FETCH) {
            Ok(got) => got,
            Err(e) => {
                rec.fail(0, true, || format!("conv_pingpong: poll failed: {e}"));
                Vec::new()
            }
        };
        if got.is_empty() {
            if self.progress.elapsed() > OP_TIMEOUT {
                let missing = self.outstanding.len() as u64;
                rec.fail(missing, true, || {
                    format!("conv_pingpong: {missing} replies missing after 5 s")
                });
                self.outstanding.clear();
                return None;
            }
            std::thread::sleep(EMPTY_POLL_SLEEP);
            return Some(0);
        }
        self.progress = Instant::now();
        let now = rec.now_ns();
        for env in &got {
            let id = relates_to(env);
            // Each reply must answer an open conversation exactly once:
            // anything else is a duplicate or a stray.
            match self.outstanding.remove(&id) {
                Some((text, sent_at)) => match check_reply(env, &id, &text) {
                    Ok(()) if record => {
                        rec.latency(now - sent_at);
                        rec.complete(1);
                    }
                    Ok(()) => {}
                    Err(why) => rec.fail(1, true, || format!("conv_pingpong: {why}")),
                },
                None => rec.fail(1, true, || {
                    format!("conv_pingpong: unexpected reply to {id:?}")
                }),
            }
        }
        Some(got.len())
    }
}

impl Client for ConvClient {
    fn op(&mut self, rec: &mut Recorder) {
        let t0 = rec.begin_op(self.gen.sent() + 1);
        for _ in self.outstanding.len()..CONV_DEPTH {
            let sent = self.gen.oneway_request(
                &self.conn.authority(),
                &self.mailbox.deposit_url(),
                self.pad,
            );
            rec.attempt(1);
            let at = rec.now_ns();
            match self.conn.call(&sent.request) {
                Ok(resp) if resp.status == Status::ACCEPTED => {
                    self.outstanding.insert(sent.message_id, (sent.text, at));
                }
                Ok(resp) => rec.fail(1, false, || {
                    format!("conv_pingpong: refused with {}", resp.status.0)
                }),
                Err(why) => rec.fail(1, false, || format!("conv_pingpong: send failed: {why}")),
            }
        }
        let t1 = rec.now_ns();
        rec.phase(SpanKind::Send, t0, t1);
        self.progress = Instant::now();
        while !self.outstanding.is_empty() && self.collect(rec, true) == Some(0) {}
        let t2 = rec.now_ns();
        rec.phase(SpanKind::Poll, t1, t2);
        rec.end_op(t0, t2);
    }

    /// Waits for the replies of the conversations still open when the
    /// window closed, so that a lost or duplicated one is seen; they no
    /// longer count as completed.
    fn finish(&mut self, rec: &mut Recorder) {
        self.progress = Instant::now();
        while !self.outstanding.is_empty() && self.collect(rec, false).is_some() {}
    }
}

/// `backlog_durable`: burst, wait until the mailbox holds every reply,
/// pick up in large fetches, reconcile against the servers' counters.
struct BacklogClient {
    conn: Conn,
    mailbox: MailboxClient,
    gen: Generator,
    msg: Arc<MsgDispatcherServer>,
    msgbox: Arc<MsgBoxServer>,
}

/// The MSG-Dispatcher's and mailbox's counters the burst reconciles
/// against: `(accepted, delivered, dropped, rejected, deposits)`.
fn server_counts(msg: &MsgDispatcherServer, msgbox: &MsgBoxServer) -> [u64; 5] {
    use std::sync::atomic::Ordering::Relaxed;
    let s = msg.stats();
    [
        s.accepted.load(Relaxed),
        s.delivered.load(Relaxed),
        s.dropped.load(Relaxed),
        s.rejected.load(Relaxed),
        msgbox.deposits(),
    ]
}

impl Client for BacklogClient {
    fn op(&mut self, rec: &mut Recorder) {
        let before = server_counts(&self.msg, &self.msgbox);
        rec.attempt(BURST as u64);
        // The cycle's spans carry the number of its first message.
        let t0 = rec.begin_op(self.gen.sent() + 1);

        // Burst: every request waits for its 202, none for its reply.
        let mut outstanding: HashMap<String, (String, u64)> = HashMap::with_capacity(BURST);
        let authority = self.conn.authority();
        let reply_to = self.mailbox.deposit_url();
        for _ in 0..BURST {
            let sent = self
                .gen
                .oneway_request(&authority, &reply_to, BACKLOG_PAYLOAD_BYTES);
            let at = rec.now_ns();
            match self.conn.call(&sent.request) {
                Ok(resp) if resp.status == Status::ACCEPTED => {
                    outstanding.insert(sent.message_id, (sent.text, at));
                }
                Ok(resp) => rec.fail(1, false, || {
                    format!("backlog: refused with {}", resp.status.0)
                }),
                Err(why) => rec.fail(1, false, || format!("backlog: send failed: {why}")),
            }
        }
        let accepted = outstanding.len() as u64;
        let t1 = rec.now_ns();
        rec.phase(SpanKind::Send, t0, t1);

        // Settle: all replies stored. Gives up when the count stalls.
        let mut progress = (Instant::now(), 0);
        loop {
            let stored = self.msgbox.deposits() - before[4];
            if stored >= accepted {
                break;
            }
            if stored > progress.1 {
                progress = (Instant::now(), stored);
            } else if progress.0.elapsed() > OP_TIMEOUT {
                break;
            }
            std::thread::sleep(SETTLE_SLEEP);
        }
        let t2 = rec.now_ns();
        rec.phase(SpanKind::Settle, t1, t2);

        // Pick up until the mailbox is empty; each reply must answer an
        // outstanding request exactly once.
        let mut picked = 0u64;
        loop {
            rec.polls += u64::from(rec.recording());
            let got = match self.mailbox.poll(FETCH) {
                Ok(got) if got.is_empty() => break,
                Ok(got) => got,
                Err(e) => {
                    rec.fail(0, true, || format!("backlog: fetch failed: {e}"));
                    break;
                }
            };
            let now = rec.now_ns();
            for env in &got {
                let id = relates_to(env);
                match outstanding.remove(&id) {
                    Some((text, sent_at)) => match check_reply(env, &id, &text) {
                        Ok(()) => {
                            picked += 1;
                            rec.latency(now - sent_at);
                        }
                        Err(why) => rec.fail(1, true, || format!("backlog: {why}")),
                    },
                    // Not outstanding: a duplicate or a stray.
                    None => rec.fail(1, true, || format!("backlog: unexpected reply to {id:?}")),
                }
            }
        }
        let t3 = rec.now_ns();
        rec.phase(SpanKind::Poll, t2, t3);
        let missing = outstanding.len() as u64;
        if missing > 0 {
            rec.fail(missing, true, || {
                format!("backlog: {missing} replies never arrived")
            });
        }

        // Reconcile with the servers: every accepted request was
        // delivered to the service and its reply to the mailbox, nothing
        // dropped or rejected. `delivered` is bumped after the mailbox
        // acknowledged, so allow it a moment to catch up.
        let expected = [accepted, 2 * accepted, 0, 0, accepted];
        let settled = Instant::now();
        let delta = loop {
            let after = server_counts(&self.msg, &self.msgbox);
            let delta: [u64; 5] = std::array::from_fn(|i| after[i] - before[i]);
            if delta == expected || settled.elapsed() > Duration::from_millis(200) {
                break delta;
            }
            std::thread::sleep(EMPTY_POLL_SLEEP);
        };
        if delta != expected || picked + missing != accepted {
            rec.fail(0, true, || {
                format!(
                    "backlog: offered {BURST}, accepted {accepted}, picked up {picked}, missing \
                     {missing}; server deltas [accepted, delivered, dropped, rejected, deposits] \
                     {delta:?}, expected {expected:?}"
                )
            });
        }

        rec.complete(picked);
        rec.deposited(accepted, t2 - t0);
        rec.picked(picked, t3 - t2);
        rec.end_op(t0, t3);
    }
}

/// `sim_fig6`: one Figure-6 point per operation — the pinned
/// EXPERIMENTS.md row itself, so every repetition is checked against it
/// — on the figure's own fixed seed (`--seed` is ignored: the simulator
/// is the program under test here and takes no generated input).
struct SimClient {
    /// Run with the simulator's telemetry on (traced run).
    observed: bool,
    repetitions: u64,
}

impl Client for SimClient {
    fn op(&mut self, rec: &mut Recorder) {
        rec.attempt(1);
        self.repetitions += 1;
        let t0 = rec.begin_op(self.repetitions);
        let series = Series::DispatcherWithMsgBox;
        let point = if self.observed {
            fig6::run_one_observed(series, FIG6_CLIENTS, FIG6_SECONDS).0
        } else {
            fig6::run_one(series, FIG6_CLIENTS, FIG6_SECONDS)
        };
        let t1 = rec.now_ns();
        let got = (point.ws_processed, point.accepted, point.responses_fetched);
        if got == FIG6_PINNED {
            rec.latency(t1 - t0);
            rec.complete(point.ws_processed);
            rec.deposited(point.accepted, t1 - t0);
            rec.picked(point.responses_fetched, t1 - t0);
        } else {
            rec.fail(1, true, || {
                format!(
                    "sim_fig6: 50 clients / 60 s gave {got:?}, EXPERIMENTS.md pins {FIG6_PINNED:?}"
                )
            });
        }
        rec.end_op(t0, t1);
    }
}
