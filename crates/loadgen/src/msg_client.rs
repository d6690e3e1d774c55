//! The one-way messaging client of Figure 6, in all three
//! configurations: direct to the WS, through the MSG-Dispatcher with a
//! direct callback, and through the MSG-Dispatcher with a WS-MsgBox
//! mailbox the client polls over RPC.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use wsd_core::msgbox::ops;
use wsd_core::sim::{ACCEPTED, CONNECT_TIMEOUT};
use wsd_http::{parse_response_bytes, Request, Response, Status};
use wsd_netsim::{ConnId, Ctx, Payload, ProcEvent, Process, SimDuration};
use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

const STOP: u64 = 0;
const RETRY_TARGET: u64 = 1;
const RETRY_MBOX: u64 = 2;
const POLL: u64 = 3;
const RETRY_CREATE: u64 = 4;

/// Where the client asks for replies.
#[derive(Debug, Clone)]
pub enum ReplyMode {
    /// `wsa:ReplyTo` is a callback URL on the client's own host (works
    /// only if the client is reachable from outside).
    Callback {
        /// The callback URL.
        url: String,
    },
    /// `wsa:ReplyTo` is a WS-MsgBox mailbox the client creates at start
    /// and polls over RPC.
    Mailbox {
        /// Mailbox service host.
        host: String,
        /// Mailbox service port.
        port: u16,
        /// Poll period.
        poll_interval: SimDuration,
    },
}

/// Client parameters.
#[derive(Debug, Clone)]
pub struct MsgClientConfig {
    /// Host accepting the one-way messages (the WS itself or the
    /// MSG-Dispatcher).
    pub target_host: String,
    /// Target port.
    pub target_port: u16,
    /// POST path at the target.
    pub path: String,
    /// The `wsa:To` address (logical through the dispatcher, physical
    /// when direct).
    pub to_address: String,
    /// Reply routing.
    pub reply_mode: ReplyMode,
    /// Backoff before reconnecting after failures.
    pub retry_backoff: SimDuration,
    /// Sending window (the paper's minute).
    pub run_for: SimDuration,
    /// Unique name mixed into message ids.
    pub client_name: String,
}

#[derive(Debug, Default)]
struct StatsInner {
    sent: u64,
    send_failures: u64,
    responses_received: u64,
}

/// Shared view of one messaging client's counters.
#[derive(Debug, Clone, Default)]
pub struct MsgClientStats {
    inner: Rc<RefCell<StatsInner>>,
}

impl MsgClientStats {
    /// One-way messages accepted (`202`) by the target.
    pub fn sent(&self) -> u64 {
        self.inner.borrow().sent
    }
    /// Failed sends / connects.
    pub fn send_failures(&self) -> u64 {
        self.inner.borrow().send_failures
    }
    /// Responses observed (mailbox fetches; callback arrivals are
    /// counted by the [`CallbackSink`]).
    pub fn responses_received(&self) -> u64 {
        self.inner.borrow().responses_received
    }
}

enum MboxPhase {
    NotUsed,
    Connecting,
    AwaitingCreate,
    /// Connected, the last `create` answered with no mailbox: it is sent
    /// again on the backoff.
    CreateFailed,
    Ready { box_id: String, key: String },
    AwaitingFetch { box_id: String, key: String },
}

/// Stands in for a value while a [`Template`] is written: the writers
/// copy it through as it is, and write none of their own.
const HOLE: char = '\u{1}';

/// One message cut around its two values, the body length and the
/// sequence number: the echo with its WSA headers in a POST, written by
/// the tree and HTTP writers once per reply address.
struct Template {
    /// The [`SimMsgClient::reply_key`] it was written for.
    reply_key: Option<String>,
    /// The body length less the sequence number's digits.
    xml_len: usize,
    /// The wire bytes up to the length, from it to the number, after it.
    pieces: [String; 3],
}

/// The one-way messaging client process.
pub struct SimMsgClient {
    config: MsgClientConfig,
    stats: MsgClientStats,
    target_conn: Option<ConnId>,
    mbox_conn: Option<ConnId>,
    mbox: MboxPhase,
    /// The paper's padded echo request; each message is a copy with its
    /// own WSA headers.
    echo: Envelope,
    /// That copy serialised, for the current reply address.
    template: Option<Template>,
    seq: u64,
    stopped: bool,
}

impl SimMsgClient {
    /// Creates the client.
    pub fn new(config: MsgClientConfig) -> Self {
        SimMsgClient {
            config,
            stats: MsgClientStats::default(),
            target_conn: None,
            mbox_conn: None,
            mbox: MboxPhase::NotUsed,
            echo: soap_rpc::paper_echo_request(),
            template: None,
            seq: 0,
            stopped: false,
        }
    }

    /// A handle to the live counters.
    pub fn stats(&self) -> MsgClientStats {
        self.stats.clone()
    }

    /// What the reply address is made of: the callback URL, or the
    /// mailbox id while there is a mailbox.
    fn reply_key(&self) -> Option<&str> {
        match (&self.config.reply_mode, &self.mbox) {
            (ReplyMode::Callback { url }, _) => Some(url),
            (ReplyMode::Mailbox { .. }, MboxPhase::Ready { box_id, .. })
            | (ReplyMode::Mailbox { .. }, MboxPhase::AwaitingFetch { box_id, .. }) => Some(box_id),
            _ => None,
        }
    }

    fn reply_address(&self) -> Option<String> {
        let key = self.reply_key()?;
        Some(match &self.config.reply_mode {
            ReplyMode::Callback { .. } => key.to_string(),
            ReplyMode::Mailbox { host, port, .. } => format!("http://{host}:{port}/deposit/{key}"),
        })
    }

    /// The echo with its WSA headers: `To`, `ReplyTo` when there is a
    /// reply address, and `message_id`.
    fn envelope(&self, message_id: String) -> Envelope {
        let mut env = self.echo.clone();
        let mut h = WsaHeaders::new().to(self.config.to_address.clone()).message_id(message_id);
        if let Some(addr) = self.reply_address() {
            h = h.reply_to(EndpointReference::new(addr));
        }
        h.apply(&mut env);
        env
    }

    /// Message `seq` as the wire carries it: the template for the
    /// current reply address, rebuilt when that address has changed, with
    /// `seq` and the body length in it.
    fn message(&mut self, seq: u64) -> Vec<u8> {
        let key = self.reply_key();
        if self.template.as_ref().map(|t| t.reply_key.as_deref()) != Some(key) {
            self.template = Some(self.template());
        }
        let t = self.template.as_ref().expect("built above");
        let [http, head, tail] = &t.pieces;
        let digits = seq.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut out = Vec::with_capacity(http.len() + head.len() + tail.len() + 2 * 20);
        out.extend_from_slice(http.as_bytes());
        let _ = write!(out, "{}", t.xml_len + digits);
        out.extend_from_slice(head.as_bytes());
        let _ = write!(out, "{seq}");
        out.extend_from_slice(tail.as_bytes());
        out
    }

    /// The request for the current reply address, written by the tree
    /// and HTTP writers with holes for the body length and the sequence
    /// number, and cut at them.
    fn template(&self) -> Template {
        let id = format!("uuid:{}-{HOLE}", self.config.client_name);
        let xml = self.envelope(id).to_xml();
        let mut req = Request::soap_post(
            &format!("{}:{}", self.config.target_host, self.config.target_port),
            &self.config.path,
            SoapVersion::V11.content_type(),
            Vec::new(),
        );
        // `Headers::set` would move the header to the end: rebuild the
        // list in its order, with the hole in the length's place.
        let headers = std::mem::take(&mut req.headers);
        let hole = HOLE.to_string();
        for (name, value) in headers.iter() {
            let length = name.eq_ignore_ascii_case("Content-Length");
            req.headers.add(name, if length { hole.as_str() } else { value });
        }
        let head = String::from_utf8(wsd_http::request_bytes(&req)).expect("a UTF-8 head");
        let wire = head + &xml;
        let pieces: Vec<String> = wire.split(HOLE).map(str::to_string).collect();
        Template {
            reply_key: self.reply_key().map(str::to_string),
            xml_len: xml.len() - HOLE.len_utf8(),
            pieces: pieces.try_into().expect("a hole for the length and one for the number"),
        }
    }

    fn next_message(&mut self) -> Payload {
        self.seq += 1;
        Payload::from(self.message(self.seq))
    }

    fn connect_target(&mut self, ctx: &mut Ctx<'_>) {
        let conn = ctx.connect(
            &self.config.target_host,
            self.config.target_port,
            CONNECT_TIMEOUT,
        );
        self.target_conn = Some(conn);
    }

    fn connect_mbox(&mut self, ctx: &mut Ctx<'_>) {
        if let ReplyMode::Mailbox { host, port, .. } = &self.config.reply_mode {
            let conn = ctx.connect(host, *port, CONNECT_TIMEOUT);
            self.mbox_conn = Some(conn);
            self.mbox = MboxPhase::Connecting;
        }
    }

    fn send_one(&mut self, ctx: &mut Ctx<'_>) {
        if self.stopped {
            return;
        }
        let Some(conn) = self.target_conn else { return };
        let msg = self.next_message();
        if ctx.send(conn, msg).is_err() {
            self.stats.inner.borrow_mut().send_failures += 1;
            self.target_conn = None;
            ctx.set_timer(self.config.retry_backoff, RETRY_TARGET);
        }
    }

    fn mbox_rpc(&mut self, ctx: &mut Ctx<'_>, env: &Envelope) {
        let ReplyMode::Mailbox { host, port, .. } = &self.config.reply_mode else {
            return;
        };
        let Some(conn) = self.mbox_conn else { return };
        let req = Request::soap_post(
            &format!("{host}:{port}"),
            "/msgbox",
            SoapVersion::V11.content_type(),
            env.to_xml().into_bytes(),
        );
        if ctx.send(conn, Payload::from(wsd_http::request_bytes(&req))).is_err() {
            self.mbox_conn = None;
            ctx.set_timer(self.config.retry_backoff, RETRY_MBOX);
        }
    }

    /// Reads the mailbox's answer to the `create` or `fetch` in flight.
    /// An answer that carries no mailbox or no fetch (one that does not
    /// parse, say, or a `503` with no body) counts nothing: a fetch goes
    /// back to `Ready` for the next poll, a create is sent again on the
    /// backoff.
    fn on_mbox_response(&mut self, ctx: &mut Ctx<'_>, bytes: &Payload) {
        let resp = parse_response_bytes(bytes).ok();
        let text = resp.as_ref().map(Response::body_utf8).unwrap_or_default();
        // A fetch framed as the mailbox service writes it is counted off a
        // scan; any other answer is read as a tree.
        let scanned = match self.mbox {
            MboxPhase::AwaitingFetch { .. } => ops::scan_fetch_response(&text).map(|b| b.len()),
            _ => None,
        };
        let env = match scanned {
            Some(_) => None,
            None => Envelope::parse(&text).ok(),
        };
        match std::mem::replace(&mut self.mbox, MboxPhase::NotUsed) {
            MboxPhase::AwaitingCreate => {
                if let Some((box_id, key)) = env.as_ref().and_then(ops::parse_create_response) {
                    self.mbox = MboxPhase::Ready { box_id, key };
                    // Mailbox ready: start the sending loop and polling.
                    if self.target_conn.is_none() {
                        self.connect_target(ctx);
                    }
                    if let ReplyMode::Mailbox { poll_interval, .. } = self.config.reply_mode {
                        ctx.set_timer(poll_interval, POLL);
                    }
                } else {
                    self.mbox = MboxPhase::CreateFailed;
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY_CREATE);
                    }
                }
            }
            MboxPhase::AwaitingFetch { box_id, key } => {
                let fetched =
                    scanned.or_else(|| Some(ops::parse_fetch_response(env.as_ref()?)?.len()));
                if let Some(n) = fetched {
                    self.stats.inner.borrow_mut().responses_received += n as u64;
                }
                self.mbox = MboxPhase::Ready { box_id, key };
            }
            other => self.mbox = other,
        }
    }
}

impl Process for SimMsgClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Start => {
                ctx.set_timer(self.config.run_for, STOP);
                match self.config.reply_mode {
                    ReplyMode::Callback { .. } => self.connect_target(ctx),
                    ReplyMode::Mailbox { .. } => self.connect_mbox(ctx),
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                if self.target_conn == Some(conn) {
                    self.send_one(ctx);
                } else if self.mbox_conn == Some(conn) {
                    self.mbox = MboxPhase::AwaitingCreate;
                    self.mbox_rpc(ctx, &ops::create(SoapVersion::V11));
                }
            }
            ProcEvent::ConnRefused { conn, .. } => {
                if self.target_conn == Some(conn) {
                    self.target_conn = None;
                    self.stats.inner.borrow_mut().send_failures += 1;
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY_TARGET);
                    }
                } else if self.mbox_conn == Some(conn) {
                    self.mbox_conn = None;
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY_MBOX);
                    }
                }
            }
            ProcEvent::ConnClosed { conn } => {
                if self.target_conn == Some(conn) {
                    self.target_conn = None;
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY_TARGET);
                    }
                } else if self.mbox_conn == Some(conn) {
                    self.mbox_conn = None;
                    if !self.stopped {
                        ctx.set_timer(self.config.retry_backoff, RETRY_MBOX);
                    }
                }
            }
            ProcEvent::Message { conn, bytes } => {
                if self.target_conn == Some(conn) {
                    match parse_response_bytes(&bytes) {
                        Ok(resp) if resp.status == Status::ACCEPTED => {
                            self.stats.inner.borrow_mut().sent += 1;
                            self.send_one(ctx); // closed loop on the ack
                        }
                        _ => {
                            self.stats.inner.borrow_mut().send_failures += 1;
                            self.send_one(ctx);
                        }
                    }
                } else if self.mbox_conn == Some(conn) {
                    self.on_mbox_response(ctx, &bytes);
                }
            }
            ProcEvent::Timer { token } => match token {
                STOP => {
                    self.stopped = true;
                    if let Some(conn) = self.target_conn.take() {
                        ctx.close(conn);
                    }
                    // One final poll below, then the mailbox connection
                    // closes with the simulation.
                }
                RETRY_TARGET
                    if !self.stopped && self.target_conn.is_none()
                        // Only reconnect once the reply address exists.
                        && (self.reply_key().is_some()
                            || matches!(self.config.reply_mode, ReplyMode::Callback { .. }))
                        => {
                            self.connect_target(ctx);
                        }
                RETRY_MBOX
                    if !self.stopped && self.mbox_conn.is_none() => {
                        self.connect_mbox(ctx);
                    }
                RETRY_CREATE
                    if !self.stopped && matches!(self.mbox, MboxPhase::CreateFailed) => {
                        self.mbox = MboxPhase::AwaitingCreate;
                        self.mbox_rpc(ctx, &ops::create(SoapVersion::V11));
                    }
                POLL => {
                    match std::mem::replace(&mut self.mbox, MboxPhase::NotUsed) {
                        MboxPhase::Ready { box_id, key } => {
                            let fetch = ops::fetch(SoapVersion::V11, &box_id, &key, 100);
                            self.mbox = MboxPhase::AwaitingFetch { box_id, key };
                            self.mbox_rpc(ctx, &fetch);
                        }
                        other => self.mbox = other, // fetch already in flight
                    }
                    if !self.stopped {
                        if let ReplyMode::Mailbox { poll_interval, .. } = self.config.reply_mode {
                            ctx.set_timer(poll_interval, POLL);
                        }
                    }
                }
                _ => {}
            },
            ProcEvent::ConnAccepted { .. } => {}
        }
    }
}

/// A callback listener counting replies POSTed to the client's own
/// endpoint (used by the direct-callback configurations).
pub struct CallbackSink {
    received: Rc<RefCell<u64>>,
}

impl CallbackSink {
    /// Creates the sink; read the count through the returned handle.
    pub fn new() -> (CallbackSink, Rc<RefCell<u64>>) {
        let received = Rc::new(RefCell::new(0));
        (
            CallbackSink {
                received: received.clone(),
            },
            received,
        )
    }
}

impl Process for CallbackSink {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { conn, bytes } = event {
            if wsd_http::request_body(&bytes).is_ok() {
                *self.received.borrow_mut() += 1;
                let _ = ctx.send(conn, ACCEPTED);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsd_core::config::MsgBoxConfig;
    use wsd_core::msg::MsgCore;
    use wsd_core::registry::Registry;
    use wsd_core::config::DispatcherConfig;
    use wsd_core::sim::{EchoMode, SimEchoService, SimMsgBox, SimMsgDispatcher};
    use wsd_core::url::Url;
    use wsd_netsim::{FirewallPolicy, HostConfig, Simulation};

    fn config(reply_mode: ReplyMode) -> MsgClientConfig {
        MsgClientConfig {
            target_host: "dispatcher".into(),
            target_port: 8080,
            path: "/msg".into(),
            to_address: "http://dispatcher/svc/Echo".into(),
            reply_mode,
            retry_backoff: SimDuration::from_millis(100),
            run_for: SimDuration::from_secs(5),
            client_name: "c1".into(),
        }
    }

    fn mailbox_mode() -> ReplyMode {
        ReplyMode::Mailbox {
            host: "msgbox".into(),
            port: 8082,
            poll_interval: SimDuration::from_millis(500),
        }
    }

    /// Every message the template writes is the tree's, byte for byte,
    /// across sequence numbers of every width and every reply address
    /// the client can have: a callback, none yet, a mailbox, a
    /// re-created one.
    #[test]
    fn the_template_writes_the_tree_body() {
        let check = |client: &mut SimMsgClient| {
            for seq in [1, 9, 10, 99, 100, 1000] {
                let xml = client.envelope(format!("uuid:c1-{seq}")).to_xml();
                let content_type = SoapVersion::V11.content_type();
                let tree = Request::soap_post("dispatcher:8080", "/msg", content_type, xml);
                let message = String::from_utf8(client.message(seq)).unwrap();
                let tree = String::from_utf8(wsd_http::request_bytes(&tree)).unwrap();
                assert_eq!(message, tree, "seq {seq}");
            }
        };
        let url = "http://client:9000/cb?a=1&b=<2>".to_string();
        check(&mut SimMsgClient::new(config(ReplyMode::Callback { url })));
        let mut client = SimMsgClient::new(config(mailbox_mode()));
        let mailbox = |box_id: &str| MboxPhase::Ready { box_id: box_id.into(), key: "k".into() };
        for phase in [
            MboxPhase::Connecting,
            mailbox("mbox-1"),
            MboxPhase::AwaitingFetch { box_id: "mbox-1".into(), key: "k".into() },
            MboxPhase::Connecting,
            mailbox("mbox-2"),
        ] {
            client.mbox = phase;
            check(&mut client);
        }
        assert_eq!(client.template.unwrap().reply_key.as_deref(), Some("mbox-2"));
    }

    /// A mailbox that answers the first request naming `op` with a `503`
    /// and no body, and every other request properly.
    struct FlakyMsgBox {
        inner: SimMsgBox,
        op: &'static [u8],
        failed: bool,
    }

    impl Process for FlakyMsgBox {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            if let ProcEvent::Message { conn, bytes } = &event {
                if !self.failed && bytes.windows(self.op.len()).any(|w| w == self.op) {
                    self.failed = true;
                    let busy = Response::empty(Status::SERVICE_UNAVAILABLE);
                    let _ = ctx.send(*conn, Payload::from(wsd_http::response_bytes(&busy)));
                    return;
                }
            }
            self.inner.on_event(ctx, event);
        }
    }

    /// Figure 6(c) with the mailbox failing the first `op` once: the
    /// client keeps going and picks its replies up all the same.
    fn survives_one_bad_answer(op: &'static [u8]) {
        let mut sim = Simulation::new(1);
        let d_host = sim.add_host(HostConfig::named("dispatcher"));
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let c_host =
            sim.add_host(HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly));
        let svc = SimEchoService::new(EchoMode::OneWay { workers: 8 }, SimDuration::from_millis(2));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 7);
        let service_time = SimDuration::from_millis(2);
        let disp = SimMsgDispatcher::new(core, service_time, DispatcherConfig::default());
        let dp = sim.spawn(d_host, Box::new(disp));
        sim.listen(dp, 8080);
        let inner = SimMsgBox::new(MsgBoxConfig::default(), SimDuration::from_millis(1), 5);
        let mbox_stats = inner.stats();
        let mp = sim.spawn(mb_host, Box::new(FlakyMsgBox { inner, op, failed: false }));
        sim.listen(mp, 8082);
        let client = SimMsgClient::new(config(mailbox_mode()));
        let stats = client.stats();
        sim.spawn(c_host, Box::new(client));
        sim.run_until(wsd_netsim::SimTime::ZERO + SimDuration::from_secs(10));
        assert!(stats.sent() > 3, "sent {}", stats.sent());
        let deposits = mbox_stats.mailbox.deposits.get();
        assert!(deposits > 3, "deposits {deposits}");
        // Polling goes on to the end: all but what arrived after the last
        // poll is picked up.
        let received = stats.responses_received();
        assert!(received * 10 >= deposits * 9, "picked up {received} of {deposits}");
    }

    #[test]
    fn a_bad_fetch_answer_does_not_stop_the_polling() {
        survives_one_bad_answer(b"<m:fetch");
    }

    #[test]
    fn a_bad_create_answer_is_retried() {
        survives_one_bad_answer(b"<m:create");
    }

    /// Full Figure-6(c) topology: firewalled client + dispatcher + WS +
    /// mailbox.
    #[test]
    fn mailbox_cycle_end_to_end() {
        let mut sim = Simulation::new(1);
        let d_host = sim.add_host(HostConfig::named("dispatcher"));
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let mb_host = sim.add_host(HostConfig::named("msgbox"));
        let c_host =
            sim.add_host(HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly));

        let svc = SimEchoService::new(
            EchoMode::OneWay { workers: 8 },
            SimDuration::from_millis(2),
        );
        let svc_stats = svc.stats();
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);

        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 7);
        let disp = SimMsgDispatcher::new(
            core,
            SimDuration::from_millis(2),
            DispatcherConfig::default(),
        );
        let dp = sim.spawn(d_host, Box::new(disp));
        sim.listen(dp, 8080);

        let mbox = SimMsgBox::new(MsgBoxConfig::default(), SimDuration::from_millis(1), 5);
        let mbox_stats = mbox.stats();
        let mp = sim.spawn(mb_host, Box::new(mbox));
        sim.listen(mp, 8082);

        let client = SimMsgClient::new(MsgClientConfig {
            target_host: "dispatcher".into(),
            target_port: 8080,
            path: "/msg".into(),
            to_address: "http://dispatcher/svc/Echo".into(),
            reply_mode: ReplyMode::Mailbox {
                host: "msgbox".into(),
                port: 8082,
                poll_interval: SimDuration::from_millis(500),
            },
            retry_backoff: SimDuration::from_millis(100),
            run_for: SimDuration::from_secs(5),
            client_name: "c1".into(),
        });
        let stats = client.stats();
        sim.spawn(c_host, Box::new(client));

        sim.run_until(wsd_netsim::SimTime::ZERO + SimDuration::from_secs(10));
        assert!(stats.sent() > 3, "sent {}", stats.sent());
        assert!(svc_stats.accepted.get() > 3);
        assert!(mbox_stats.mailbox.deposits.get() > 3, "deposits {}", mbox_stats.mailbox.deposits.get());
        assert!(
            stats.responses_received() > 3,
            "responses {}",
            stats.responses_received()
        );
        assert_eq!(stats.send_failures(), 0);
    }

    /// Figure-6(a): direct one-way to the WS, responses blocked at the
    /// firewalled client.
    #[test]
    fn direct_blocked_callbacks_slow_the_service() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let c_host =
            sim.add_host(HostConfig::named("client").firewall(FirewallPolicy::OutboundOnly));
        let svc = SimEchoService::new(EchoMode::OneWay { workers: 2 }, SimDuration::from_millis(2));
        let svc_stats = svc.stats();
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let (sink, received) = CallbackSink::new();
        let sk = sim.spawn(c_host, Box::new(sink));
        sim.listen(sk, 9000);
        let client = SimMsgClient::new(MsgClientConfig {
            target_host: "ws".into(),
            target_port: 8888,
            path: "/echo".into(),
            to_address: "http://ws:8888/echo".into(),
            reply_mode: ReplyMode::Callback {
                url: "http://client:9000/cb".into(),
            },
            retry_backoff: SimDuration::from_millis(100),
            run_for: SimDuration::from_secs(10),
            client_name: "c1".into(),
        });
        let stats = client.stats();
        sim.spawn(c_host, Box::new(client));
        sim.run_until(wsd_netsim::SimTime::ZERO + SimDuration::from_secs(15));
        // Some messages were accepted, but every reply is blocked...
        assert!(stats.sent() > 0);
        assert_eq!(*received.borrow(), 0);
        assert!(svc_stats.replies_blocked.get() > 0);
        // ...and since acceptance is paced by processing and every reply
        // stalls a worker for the 3 s connect timeout, throughput
        // collapses: with 2 workers over ~10 s the service can accept
        // only a handful of messages (an unblocked service would do
        // thousands).
        assert!(stats.sent() < 20, "sent {}", stats.sent());
    }

    /// An open client actually receives direct callbacks.
    #[test]
    fn open_client_receives_callbacks() {
        let mut sim = Simulation::new(1);
        let ws_host = sim.add_host(HostConfig::named("ws"));
        let c_host = sim.add_host(HostConfig::named("client"));
        let svc = SimEchoService::new(EchoMode::OneWay { workers: 8 }, SimDuration::from_millis(2));
        let sp = sim.spawn(ws_host, Box::new(svc));
        sim.listen(sp, 8888);
        let (sink, received) = CallbackSink::new();
        let sk = sim.spawn(c_host, Box::new(sink));
        sim.listen(sk, 9000);
        let client = SimMsgClient::new(MsgClientConfig {
            target_host: "ws".into(),
            target_port: 8888,
            path: "/echo".into(),
            to_address: "http://ws:8888/echo".into(),
            reply_mode: ReplyMode::Callback {
                url: "http://client:9000/cb".into(),
            },
            retry_backoff: SimDuration::from_millis(100),
            run_for: SimDuration::from_secs(3),
            client_name: "c1".into(),
        });
        let stats = client.stats();
        sim.spawn(c_host, Box::new(client));
        sim.run_until(wsd_netsim::SimTime::ZERO + SimDuration::from_secs(6));
        assert!(stats.sent() > 3);
        assert!(*received.borrow() > 3);
    }
}
