//! WS-MsgBox: the "post-office mailbox" store (paper §3, Figure 2).
//!
//! A client with no network endpoint creates a mailbox, hands the mailbox
//! address out as its `wsa:ReplyTo`, then polls for messages over plain
//! RPC (which works from behind any firewall). When done it destroys the
//! box "to free memory space in the WS-MsgBox service implementation".
//!
//! Implemented future-work items: per-mailbox **access keys** (the paper:
//! "currently the message box has unique hard to guess address but that
//! is the only protection" — we add a secret key checked on fetch and
//! destroy) and **message expiration** (TTL cleanup).
//!
//! The store itself is [`DurableMsgBox`], with a log or without one (see
//! [`MailboxBackend`]). This module adds what that store leaves to its
//! caller — minting mailbox ids and keys, turning the TTL into a
//! drop-dead time — and the SOAP facade and deposit runs both runtimes
//! serve.

use std::ops::Deref;
use std::time::Duration;

use wsd_http::{Request, Response, Status};
use wsd_soap::{rpc::RpcCall, Envelope, Fault, FaultCode, SoapVersion};
use wsd_store::{DurableMsgBox, FetchedMessage, FsStorage, MemStorage, Storage, StoreError};
use wsd_telemetry::{Counter, Scope};
use wsd_wsa::MsgIdGen;

use crate::config::{MailboxBackend, MsgBoxConfig};

/// Namespace of the WS-MsgBox SOAP operations.
pub const MSGBOX_NS: &str = "urn:wsd:msgbox";

/// Tenant every mailbox is billed to until the facade grows multi-tenant
/// routing; the per-tenant quota then caps the whole store.
const TENANT: &str = "default";

/// The mailbox store: [`DurableMsgBox`] (every operation but `create`
/// and `deposit` is its own, through `Deref`) plus the id minting and
/// TTL it leaves to its caller. Thread-safe; time is supplied by the
/// caller in microseconds so both runtimes share it.
pub struct MsgBoxStore {
    store: DurableMsgBox,
    ids: MsgIdGen,
    message_ttl: Duration,
}

impl MsgBoxStore {
    /// An empty store with no telemetry.
    pub fn new(config: MsgBoxConfig, seed: u64) -> Self {
        Self::with_telemetry(config, seed, &Scope::noop())
    }

    /// An empty store; one with a log hangs its WAL metrics off `scope`
    /// (one without registers nothing). Opening a store with a log
    /// replays any WAL already in `dir`, so messages acknowledged
    /// before a crash are back.
    ///
    /// Panics if the log cannot be opened or repaired — a store that
    /// cannot promise durability must not start.
    pub fn with_telemetry(config: MsgBoxConfig, seed: u64, scope: &Scope) -> Self {
        let store = match config.backend {
            MailboxBackend::Memory => DurableMsgBox::without_log(),
            MailboxBackend::Durable { dir, store } => {
                let storage: Box<dyn Storage> = match dir {
                    Some(d) => Box::new(FsStorage::open(d).expect("durable mailbox WAL directory")),
                    None => Box::new(MemStorage::new()),
                };
                DurableMsgBox::open(store, storage, scope, 0)
                    .expect("durable mailbox WAL recovery")
                    .0
            }
        };
        Self::over(store, config.message_ttl, seed)
    }

    /// The facade over a store already open (a fleet member's, over the
    /// disk its successor adopts).
    pub fn over(store: DurableMsgBox, message_ttl: Duration, seed: u64) -> Self {
        MsgBoxStore {
            store,
            ids: MsgIdGen::new(seed),
            message_ttl,
        }
    }

    /// Creates a mailbox; returns `(mailbox id, access key)`.
    pub fn create(&self, now: u64) -> (String, String) {
        let id = format!("mbox-{}", &self.ids.next_id()[5..]);
        let key = format!("key-{}", &self.ids.next_id()[5..]);
        self.store
            .create(&id, &key, TENANT, now)
            .expect("durable mailbox create");
        (id, key)
    }

    /// Deposits a serialized envelope into a mailbox. Anyone may deposit
    /// (that is the point — services and dispatchers deliver here); only
    /// fetching needs the key.
    pub fn deposit(&self, id: &str, body: String, now: u64) -> Result<(), StoreError> {
        self.store.deposit(id, body, now, self.expires_at(now))
    }

    /// Drop-dead time of a message deposited at `now`.
    fn expires_at(&self, now: u64) -> u64 {
        now.saturating_add(self.message_ttl.as_micros() as u64)
    }
}

impl Deref for MsgBoxStore {
    type Target = DurableMsgBox;

    fn deref(&self) -> &DurableMsgBox {
        &self.store
    }
}

// ---------------------------------------------------------------------
// SOAP facade: create / fetch / destroy as RPC operations, so clients
// interact with the store through ordinary SOAP-RPC (paper: "All
// interactions between clients and the WS-MsgBox are RPC").
// ---------------------------------------------------------------------

/// Handles one WS-MsgBox RPC envelope, producing the response envelope.
///
/// A `fetch` answered here is a tree; [`serve_run`] writes the same
/// bytes without one, and this is the reference it is tested against.
pub fn handle_soap(store: &MsgBoxStore, env: &Envelope, now: u64) -> Envelope {
    match serve_op(store, env, now) {
        Answer::Fetched(messages) => {
            let mut op = wsd_xml::Element::new_ns(Some("m"), "fetchResponse", MSGBOX_NS)
                .declare_namespace(Some("m"), MSGBOX_NS);
            // Stored envelopes nest as CDATA so arbitrary XML payloads
            // survive unescaped inspection.
            op.children = messages
                .into_iter()
                .map(|m| {
                    let mut holder = wsd_xml::Element::new("message");
                    holder.children = vec![wsd_xml::Node::CData(m.body)];
                    wsd_xml::Node::Element(holder)
                })
                .collect();
            Envelope::request(env.version, op)
        }
        Answer::Envelope(answer) => answer,
    }
}

/// What one WS-MsgBox operation answers.
enum Answer {
    /// A `fetch`'s messages, in order, to be framed as a `fetchResponse`.
    Fetched(Vec<FetchedMessage>),
    /// Any other answer — `createResponse`, `destroyResponse`, a fault.
    Envelope(Envelope),
}

/// Runs one WS-MsgBox RPC operation against the store.
fn serve_op(store: &MsgBoxStore, env: &Envelope, now: u64) -> Answer {
    let version = env.version;
    let call = match RpcCall::from_envelope(env) {
        Ok(c) if c.namespace == MSGBOX_NS => c,
        Ok(_) => return fault(version, FaultCode::Sender, "not a WS-MsgBox operation"),
        Err(e) => return fault(version, FaultCode::Sender, &e.to_string()),
    };
    match call.operation.as_str() {
        "create" => {
            let (id, key) = store.create(now);
            let op = wsd_xml::Element::new_ns(Some("m"), "createResponse", MSGBOX_NS)
                .declare_namespace(Some("m"), MSGBOX_NS)
                .with_child(wsd_xml::Element::new("boxId").with_text(id))
                .with_child(wsd_xml::Element::new("accessKey").with_text(key));
            Answer::Envelope(Envelope::request(version, op))
        }
        "fetch" => {
            let id = call.param("boxId").unwrap_or_default();
            let key = call.param("accessKey").unwrap_or_default();
            let max: usize = call
                .param("max")
                .and_then(|m| m.parse().ok())
                .unwrap_or(usize::MAX);
            match store.fetch(id, key, max, now) {
                Ok(messages) => Answer::Fetched(messages),
                Err(e) => fault(version, FaultCode::Sender, &e.to_string()),
            }
        }
        "destroy" => {
            let id = call.param("boxId").unwrap_or_default();
            let key = call.param("accessKey").unwrap_or_default();
            match store.destroy(id, key) {
                Ok(()) => {
                    let op = wsd_xml::Element::new_ns(Some("m"), "destroyResponse", MSGBOX_NS)
                        .declare_namespace(Some("m"), MSGBOX_NS);
                    Answer::Envelope(Envelope::request(version, op))
                }
                Err(e) => fault(version, FaultCode::Sender, &e.to_string()),
            }
        }
        other => fault(
            version,
            FaultCode::Sender,
            &format!("unknown WS-MsgBox operation {other:?}"),
        ),
    }
}

fn fault(version: SoapVersion, code: FaultCode, reason: &str) -> Answer {
    Answer::Envelope(Envelope::fault(version, Fault::new(code, reason)))
}

/// The `fetchResponse` text the tree writer makes of [`handle_soap`]'s
/// envelope, written straight from the stored bodies into one `String`
/// sized up front: the envelope head, each body as a CDATA section, the
/// tail.
fn write_fetch_response(version: SoapVersion, messages: &[FetchedMessage]) -> String {
    use ops::{fetch_close, fetch_open, ITEM_CLOSE, ITEM_OPEN, OP_CLOSE};
    let (open, close) = (fetch_open(version), fetch_close(version));
    let frame: usize = open.iter().chain(&close).map(|s| s.len()).sum();
    let items: usize = messages
        .iter()
        .map(|m| ITEM_OPEN.len() + m.body.len() + ITEM_CLOSE.len())
        .sum();
    let mut out = String::with_capacity(frame + ">".len() + items + OP_CLOSE.len());
    open.iter().for_each(|s| out.push_str(s));
    if messages.is_empty() {
        out.push_str("/>");
    } else {
        out.push('>');
        for m in messages {
            if m.body.contains("]]>") {
                // No CDATA section can hold "]]>": escaped text, as the
                // tree writer falls back to (and the only growth past the
                // size reserved).
                out.push_str("<message>");
                wsd_xml::escape::push_escaped_text(&m.body, &mut out);
                out.push_str("</message>");
            } else {
                out.push_str(ITEM_OPEN);
                out.push_str(&m.body);
                out.push_str(ITEM_CLOSE);
            }
        }
        out.push_str(OP_CLOSE);
    }
    close.iter().for_each(|s| out.push_str(s));
    out
}

/// Target prefix of a mailbox deposit: `/deposit/<mailbox id>`.
const DEPOSIT_PREFIX: &str = "/deposit/";

/// The mailbox service's books, in both runtimes: the telemetry
/// instruments themselves (a clone is a live handle). While nothing
/// expires or is destroyed, `deposits == fetched + Σ store.len(box)`.
#[derive(Debug, Clone)]
pub struct MailboxCounters {
    /// One-way deposits stored, counted after their durability barrier.
    pub deposits: Counter,
    /// RPC operations served (create/fetch/destroy).
    pub rpc_calls: Counter,
    /// Stored messages handed to clients by `fetch`.
    pub fetched: Counter,
}

impl MailboxCounters {
    /// The counters, registered under `scope`.
    pub fn new(scope: &Scope) -> Self {
        MailboxCounters {
            deposits: scope.counter("deposits"),
            rpc_calls: scope.counter("rpc_calls"),
            fetched: scope.counter("fetched"),
        }
    }
}

/// The mailbox service both runtimes serve through; a driver owns only
/// the connection, the clock and what it models or enforces around this
/// call (threads, the crash). Serves one run of pipelined requests in
/// order, one response each. Consecutive `/deposit/`s are stored together
/// behind one commit, and only then counted and answered (`202`, or `404`
/// when the mailbox refused it), so a dispatcher's 16-wide drain batch
/// costs one fsync, not sixteen; the SOAP operations are barriers between
/// groups.
pub fn serve_run(
    store: &MsgBoxStore,
    counters: &MailboxCounters,
    run: impl IntoIterator<Item = Request>,
    now: u64,
) -> Vec<Response> {
    let run = run.into_iter();
    let mut responses = Vec::with_capacity(run.size_hint().0);
    // `(target, body)` of the deposits not yet stored.
    let mut deposits: Vec<(String, String)> = Vec::new();
    let store_deposits = |deposits: &mut Vec<(String, String)>, responses: &mut Vec<Response>| {
        if deposits.is_empty() {
            return;
        }
        let stored = store.deposit_batch(
            deposits
                .iter_mut()
                .map(|(target, body)| (&target[DEPOSIT_PREFIX.len()..], std::mem::take(body))),
            now,
            store.expires_at(now),
        );
        deposits.clear();
        responses.extend(stored.into_iter().map(|result| match result {
            Ok(()) => {
                counters.deposits.inc();
                Response::empty(Status::ACCEPTED)
            }
            Err(_) => Response::empty(Status::NOT_FOUND),
        }));
    };
    for mut req in run {
        if req.target.starts_with(DEPOSIT_PREFIX) {
            // The request's own buffer becomes the stored body.
            let target = std::mem::take(&mut req.target);
            deposits.push((target, req.into_body_string()));
            continue;
        }
        store_deposits(&mut deposits, &mut responses);
        responses.push(match Envelope::parse(&req.body_utf8()) {
            Ok(env) => {
                counters.rpc_calls.inc();
                let answer = match serve_op(store, &env, now) {
                    Answer::Fetched(messages) => {
                        counters.fetched.add(messages.len() as u64);
                        write_fetch_response(env.version, &messages)
                    }
                    Answer::Envelope(answer) => answer.to_xml(),
                };
                Response::new(Status::OK, env.version.content_type(), answer.into_bytes())
            }
            Err(_) => Response::empty(Status::BAD_REQUEST),
        });
    }
    store_deposits(&mut deposits, &mut responses);
    responses
}

/// Client-side helpers building the RPC requests [`handle_soap`] serves
/// and reading its answers.
pub mod ops {
    use std::borrow::Cow;

    use super::MSGBOX_NS;
    use wsd_soap::{rpc::RpcCall, Envelope, SoapVersion};

    /// `create` request.
    pub fn create(version: SoapVersion) -> Envelope {
        RpcCall::new(MSGBOX_NS, "create").to_envelope(version)
    }

    /// `fetch` request.
    pub fn fetch(version: SoapVersion, box_id: &str, key: &str, max: usize) -> Envelope {
        RpcCall::new(MSGBOX_NS, "fetch")
            .with_param("boxId", box_id)
            .with_param("accessKey", key)
            .with_param("max", max.to_string())
            .to_envelope(version)
    }

    /// `destroy` request.
    pub fn destroy(version: SoapVersion, box_id: &str, key: &str) -> Envelope {
        RpcCall::new(MSGBOX_NS, "destroy")
            .with_param("boxId", box_id)
            .with_param("accessKey", key)
            .to_envelope(version)
    }

    /// Reads `(boxId, accessKey)` out of a `createResponse`.
    pub fn parse_create_response(env: &Envelope) -> Option<(String, String)> {
        let op = env.payload()?.first()?;
        let id = op.find_child(None, "boxId")?.text();
        let key = op.find_child(None, "accessKey")?.text();
        Some((id, key))
    }

    /// Reads the stored messages out of a `fetchResponse`.
    pub fn parse_fetch_response(env: &Envelope) -> Option<Vec<String>> {
        let op = env.payload()?.first()?;
        if op.name.local != "fetchResponse" {
            return None;
        }
        Some(
            op.find_children(None, "message")
                .map(|m| m.text())
                .collect(),
        )
    }

    // The `fetchResponse` framing the tree writer gives `handle_soap`'s
    // envelope, which `serve_run` writes directly and
    // `scan_fetch_response` reads back: `fetch_open`, then `/>` when no
    // message follows, or `>`, one item per message and `OP_CLOSE`;
    // then `fetch_close`.

    /// Everything before the first message, the operation's start tag
    /// left open.
    pub(super) fn fetch_open(version: SoapVersion) -> [&'static str; 11] {
        let (p, ns) = (version.prefix(), version.envelope_ns());
        let op = ":Body><m:fetchResponse xmlns:m=\"";
        ["<", p, ":Envelope xmlns:", p, "=\"", ns, "\"><", p, op, MSGBOX_NS, "\""]
    }

    /// Everything after the operation element.
    pub(super) fn fetch_close(version: SoapVersion) -> [&'static str; 5] {
        let p = version.prefix();
        ["</", p, ":Body></", p, ":Envelope>"]
    }

    /// A message's item around its body, as a CDATA section.
    pub(super) const ITEM_OPEN: &str = "<message><![CDATA[";
    pub(super) const ITEM_CLOSE: &str = "]]></message>";
    /// The operation's end tag.
    pub(super) const OP_CLOSE: &str = "</m:fetchResponse>";

    /// The stored messages of a `fetchResponse`, borrowed from its text
    /// with no tree built — or `None`, and the caller reads the tree.
    ///
    /// Only the exact framing `serve_run` writes, in either SOAP version,
    /// is scanned: any other text (a fault, a body written as escaped
    /// text because it holds `]]>`, another server's spacing, a truncated
    /// answer) is `None`. Whatever this accepts, `Envelope::parse` accepts
    /// too, and [`parse_fetch_response`] then reads the same bodies: a
    /// CDATA section is verbatim up to its first `]]>` in both.
    pub fn scan_fetch_response(text: &str) -> Option<Vec<&str>> {
        let (version, rest) = [SoapVersion::V11, SoapVersion::V12]
            .into_iter()
            .find_map(|v| Some((v, eat(text, &fetch_open(v))?)))?;
        let mut bodies = Vec::new();
        let rest = match rest.strip_prefix("/>") {
            Some(rest) => rest,
            None => {
                let mut rest = rest.strip_prefix('>')?;
                while let Some(item) = rest.strip_prefix(ITEM_OPEN) {
                    let end = wsd_xml::swar::find_seq(item.as_bytes(), b"]]>")?;
                    bodies.push(&item[..end]);
                    rest = item[end..].strip_prefix(ITEM_CLOSE)?;
                }
                rest.strip_prefix(OP_CLOSE)?
            }
        };
        eat(rest, &fetch_close(version))?.is_empty().then_some(bodies)
    }

    /// `text` after the `pieces` it starts with, in order.
    fn eat<'a>(text: &'a str, pieces: &[&str]) -> Option<&'a str> {
        pieces.iter().try_fold(text, |rest, piece| rest.strip_prefix(piece))
    }

    /// The stored messages a `fetchResponse`'s text carries: borrowed by
    /// [`scan_fetch_response`] when it can, read off the tree by
    /// [`parse_fetch_response`] otherwise. `None` when the text is not a
    /// `fetchResponse` (a fault, or not an envelope at all).
    pub fn fetched_bodies(text: &str) -> Option<Vec<Cow<'_, str>>> {
        match scan_fetch_response(text) {
            Some(bodies) => Some(bodies.into_iter().map(Cow::Borrowed).collect()),
            None => {
                let bodies = parse_fetch_response(&Envelope::parse(text).ok()?)?;
                Some(bodies.into_iter().map(Cow::Owned).collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MsgBoxStore {
        MsgBoxStore::new(MsgBoxConfig::default(), 42)
    }

    #[test]
    fn expiry_drops_old_messages_only() {
        let cfg = MsgBoxConfig {
            message_ttl: Duration::from_micros(100),
            ..MsgBoxConfig::default()
        };
        let s = MsgBoxStore::new(cfg, 1);
        let (id, key) = s.create(0);
        s.deposit(&id, "old".into(), 0).unwrap();
        s.deposit(&id, "new".into(), 80).unwrap();
        // At t=100 the first expires (expires_at = 100), second survives.
        let got = s.fetch(&id, &key, 10, 100).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].body, "new");
    }

    #[test]
    fn ids_and_keys_are_unique() {
        let s = store();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (id, key) = s.create(0);
            assert!(seen.insert(id));
            assert!(seen.insert(key));
        }
        assert_eq!(s.box_count(), 100);
    }

    #[test]
    fn soap_create_fetch_destroy_round_trip() {
        use wsd_soap::SoapVersion::V11;
        let s = store();
        // create
        let resp = handle_soap(&s, &ops::create(V11), 0);
        let (id, key) = ops::parse_create_response(&resp).unwrap();
        // deposit directly (as a dispatcher would), then fetch via SOAP.
        s.deposit(&id, "<stored><xml/></stored>".into(), 5).unwrap();
        let resp = handle_soap(&s, &ops::fetch(V11, &id, &key, 10), 10);
        let messages = ops::parse_fetch_response(&resp).unwrap();
        assert_eq!(messages, vec!["<stored><xml/></stored>".to_string()]);
        // destroy
        let resp = handle_soap(&s, &ops::destroy(V11, &id, &key), 20);
        assert!(resp.as_fault().is_none());
        assert!(!s.exists(&id));
    }

    #[test]
    fn soap_fetch_survives_serialization() {
        use wsd_soap::SoapVersion::V11;
        let s = store();
        let resp = handle_soap(&s, &ops::create(V11), 0);
        let (id, key) = ops::parse_create_response(&resp).unwrap();
        let inner = wsd_soap::rpc::echo_response(V11, "hello").to_xml();
        s.deposit(&id, inner.clone(), 0).unwrap();
        let resp = handle_soap(&s, &ops::fetch(V11, &id, &key, 1), 0);
        let wire = resp.to_xml();
        let reparsed = Envelope::parse(&wire).unwrap();
        let messages = ops::parse_fetch_response(&reparsed).unwrap();
        assert_eq!(messages, vec![inner.clone()]);
        // The recovered message is itself a parseable envelope.
        let inner_env = Envelope::parse(&messages[0]).unwrap();
        assert_eq!(
            wsd_soap::rpc::parse_echo_response(&inner_env).unwrap(),
            "hello"
        );
    }

    /// One box holding `bodies` in each of two identical stores (same
    /// seed, same deposits); a `fetch` of all of them, answered once by
    /// [`serve_run`]'s direct write and once by [`handle_soap`]'s tree:
    /// `(written, tree)`.
    fn fetch_both_ways(version: SoapVersion, bodies: &[String]) -> (String, String) {
        let [direct, tree] = [store(), store()];
        let [(id, key), _] = [direct.create(0), tree.create(0)];
        for body in bodies {
            direct.deposit(&id, body.clone(), 0).unwrap();
            tree.deposit(&id, body.clone(), 0).unwrap();
        }
        let env = ops::fetch(version, &id, &key, bodies.len());
        let req = Request::soap_post("msgbox", "/msgbox", version.content_type(), env.to_xml());
        let counters = MailboxCounters::new(&Scope::noop());
        let resp = serve_run(&direct, &counters, [req], 0).pop().unwrap();
        assert_eq!(resp.headers.get("content-type"), Some(version.content_type()));
        assert_eq!(counters.fetched.get(), bodies.len() as u64);
        (resp.body_utf8().into_owned(), handle_soap(&tree, &env, 0).to_xml())
    }

    /// What the tree path reads out of a `fetchResponse`'s text.
    fn tree_read(text: &str) -> Option<Vec<String>> {
        ops::parse_fetch_response(&Envelope::parse(text).ok()?)
    }

    /// The scanner either declines `text` or reads what the tree reads.
    fn scan_agrees(text: &str) -> Result<(), String> {
        let Some(scanned) = ops::scan_fetch_response(text) else {
            return Ok(());
        };
        match tree_read(text) {
            Some(tree) if tree == scanned => Ok(()),
            tree => Err(format!("scan {scanned:?}, tree {tree:?}: {text:?}")),
        }
    }

    fn golden_bodies() -> Vec<Vec<String>> {
        let reply = wsd_soap::rpc::echo_response(SoapVersion::V11, "hello").to_xml();
        let odd = [
            "x]]>y",
            "a & b",
            "<not-xml",
            "héllo — 世界",
            "",
            "]]>",
            "<![CDATA[nested]]>",
            "</message>",
        ];
        vec![
            vec![],
            vec![reply.clone()],
            (0..64).map(|i| format!("{reply}<!-- {i} -->")).collect(),
            odd.iter().map(|s| s.to_string()).collect(),
        ]
    }

    #[test]
    fn the_direct_fetch_write_is_the_tree_writers_bytes() {
        for version in [SoapVersion::V11, SoapVersion::V12] {
            for bodies in golden_bodies() {
                let (written, tree) = fetch_both_ways(version, &bodies);
                assert_eq!(written, tree, "{version}, {} bodies", bodies.len());
                assert_eq!(tree_read(&written), Some(bodies.clone()), "{version}");
                // Scanned in place unless a body had to be escaped.
                let escaped = bodies.iter().any(|b| b.contains("]]>"));
                let scanned = ops::scan_fetch_response(&written);
                assert_eq!(scanned.is_none(), escaped, "{version}: {written}");
                scan_agrees(&written).unwrap();
                let fetched = ops::fetched_bodies(&written).unwrap();
                assert_eq!(fetched, bodies);
            }
        }
        let empty = fetch_both_ways(SoapVersion::V11, &[]).0;
        assert!(empty.contains("<m:fetchResponse xmlns:m=\"urn:wsd:msgbox\"/>"), "{empty}");
    }

    #[test]
    fn the_scanner_declines_what_it_does_not_frame() {
        let s = store();
        let fault = handle_soap(&s, &ops::fetch(SoapVersion::V11, "nope", "k", 1), 0).to_xml();
        let created = handle_soap(&s, &ops::create(SoapVersion::V12), 0).to_xml();
        let (written, _) = fetch_both_ways(SoapVersion::V11, &["<a/>".into(), "<b/>".into()]);
        let spaced = written.replace("</message><message>", "</message> <message>");
        for text in [&fault, &created, &spaced, &format!("{written} "), "", "not xml"] {
            assert_eq!(ops::scan_fetch_response(text), None, "{text}");
        }
        // The tree still reads the spaced one.
        assert_eq!(tree_read(&spaced), Some(vec!["<a/>".into(), "<b/>".into()]));
        for cut in 0..written.len() {
            assert_eq!(ops::scan_fetch_response(&written[..cut]), None, "cut at {cut}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn direct_fetch_write_and_scan_match_the_tree(
            v12 in proptest::prelude::any::<bool>(),
            bodies in proptest::collection::vec(
                "(a|é|世|<|>|&|\\]|\\]\\]>| |<x/>|<!\\[CDATA\\[|</message>|\\n){0,12}",
                0..70,
            ),
        ) {
            let version = if v12 { SoapVersion::V12 } else { SoapVersion::V11 };
            let (written, tree) = fetch_both_ways(version, &bodies);
            proptest::prop_assert_eq!(&written, &tree);
            proptest::prop_assert_eq!(tree_read(&written), Some(bodies.clone()));
            scan_agrees(&written).map_err(proptest::TestCaseError::fail)?;
        }

        #[test]
        fn a_mutated_fetch_response_is_declined_or_read_alike(
            bodies in proptest::collection::vec("(a|<|>|&|\\]| |<x/>|</message>){0,8}", 0..6),
            at in proptest::prelude::any::<proptest::sample::Index>(),
            edit in 0usize..3,
            with in "(<|>|/|\\]|\\]\\]>|<message><!\\[CDATA\\[|</message>| |a)",
        ) {
            let (written, _) = fetch_both_ways(SoapVersion::V11, &bodies);
            let mut cut = at.index(written.len() + 1);
            while !written.is_char_boundary(cut) {
                cut -= 1;
            }
            let (head, tail) = written.split_at(cut);
            let next = tail.chars().next().map_or(0, char::len_utf8);
            let mutated = match edit {
                0 => format!("{head}{with}{tail}"),
                1 => format!("{head}{}", &tail[next..]),
                _ => format!("{head}{with}{}", &tail[next..]),
            };
            scan_agrees(&mutated).map_err(proptest::TestCaseError::fail)?;
        }
    }

    #[test]
    fn soap_errors_become_faults() {
        use wsd_soap::SoapVersion::V11;
        let s = store();
        let resp = handle_soap(&s, &ops::fetch(V11, "nope", "k", 1), 0);
        assert!(resp.as_fault().is_some());
        let resp = handle_soap(
            &s,
            &RpcCall::new(MSGBOX_NS, "explode").to_envelope(V11),
            0,
        );
        assert!(resp.as_fault().unwrap().reason.contains("explode"));
        let resp = handle_soap(
            &s,
            &RpcCall::new("urn:other", "create").to_envelope(V11),
            0,
        );
        assert!(resp.as_fault().is_some());
    }
}
