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
use wsd_store::{DurableMsgBox, FsStorage, MemStorage, Storage, StoreError};
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
pub fn handle_soap(store: &MsgBoxStore, env: &Envelope, now: u64) -> Envelope {
    serve_op(store, env, now).0
}

/// [`handle_soap`], plus how many stored messages a `fetch` handed out.
fn serve_op(store: &MsgBoxStore, env: &Envelope, now: u64) -> (Envelope, usize) {
    let version = env.version;
    let call = match RpcCall::from_envelope(env) {
        Ok(c) if c.namespace == MSGBOX_NS => c,
        Ok(_) => return (fault(version, FaultCode::Sender, "not a WS-MsgBox operation"), 0),
        Err(e) => return (fault(version, FaultCode::Sender, &e.to_string()), 0),
    };
    let mut handed_out = 0;
    let response = match call.operation.as_str() {
        "create" => {
            let (id, key) = store.create(now);
            let op = wsd_xml::Element::new_ns(Some("m"), "createResponse", MSGBOX_NS)
                .declare_namespace(Some("m"), MSGBOX_NS)
                .with_child(wsd_xml::Element::new("boxId").with_text(id))
                .with_child(wsd_xml::Element::new("accessKey").with_text(key));
            Envelope::request(version, op)
        }
        "fetch" => {
            let id = call.param("boxId").unwrap_or_default();
            let key = call.param("accessKey").unwrap_or_default();
            let max: usize = call
                .param("max")
                .and_then(|m| m.parse().ok())
                .unwrap_or(usize::MAX);
            match store.fetch(id, key, max, now) {
                Ok(messages) => {
                    handed_out = messages.len();
                    let mut op = wsd_xml::Element::new_ns(Some("m"), "fetchResponse", MSGBOX_NS)
                        .declare_namespace(Some("m"), MSGBOX_NS);
                    for m in messages {
                        // Stored envelopes nest as CDATA so arbitrary XML
                        // payloads survive unescaped inspection.
                        let mut holder = wsd_xml::Element::new("message");
                        holder.children.push(wsd_xml::Node::CData(m.body));
                        op = op.with_child(holder);
                    }
                    Envelope::request(version, op)
                }
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
                    Envelope::request(version, op)
                }
                Err(e) => fault(version, FaultCode::Sender, &e.to_string()),
            }
        }
        other => fault(
            version,
            FaultCode::Sender,
            &format!("unknown WS-MsgBox operation {other:?}"),
        ),
    };
    (response, handed_out)
}

fn fault(version: SoapVersion, code: FaultCode, reason: &str) -> Envelope {
    Envelope::fault(version, Fault::new(code, reason))
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
    for req in run {
        if req.target.starts_with(DEPOSIT_PREFIX) {
            let body = req.body_utf8().into_owned();
            deposits.push((req.target, body));
            continue;
        }
        store_deposits(&mut deposits, &mut responses);
        responses.push(match Envelope::parse(&req.body_utf8()) {
            Ok(env) => {
                counters.rpc_calls.inc();
                let (answer, handed_out) = serve_op(store, &env, now);
                counters.fetched.add(handed_out as u64);
                Response::new(Status::OK, env.version.content_type(), answer.to_xml().into_bytes())
            }
            Err(_) => Response::empty(Status::BAD_REQUEST),
        });
    }
    store_deposits(&mut deposits, &mut responses);
    responses
}

/// Client-side helpers building the RPC requests [`handle_soap`] serves.
pub mod ops {
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
