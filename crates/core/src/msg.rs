//! MSG-Dispatcher core: the `CxThread` stage's decision logic.
//!
//! Paper §4.2, Figure 3: a `CxThread` maps the logical address to the
//! physical WS address and rewrites the WS-Addressing headers so replies
//! return through the dispatcher; a `WsThread` owns a FIFO queue per
//! destination and a kept-open connection. This module implements the
//! decision ("where does this envelope go next?"), the route table
//! correlating replies and, in [`link`], the `WsThread`'s delivery policy
//! as a pure machine; queues, sockets and threads belong to the runtimes.

pub mod link;

use std::borrow::Cow;

use wsd_concurrent::ShardedMap;
use wsd_http::Response;
use wsd_soap::Envelope;
use wsd_telemetry::{Counter, Scope};
use wsd_wsa::{correlation_id, rewrite_for_forward, rewrite_for_reply, MsgIdGen, RouteRecord, WsaHeaders};

use crate::error::WsdError;
use crate::registry::Registry;
use crate::security::PolicyChain;
use crate::url::Url;

/// Where the dispatcher decided an envelope must go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routed {
    /// A client request: forward to the resolved service endpoint.
    Forward {
        /// Physical destination.
        to: Url,
        /// Logical name it resolved from.
        logical: String,
        /// The rewritten envelope.
        envelope: Envelope,
    },
    /// A service reply: deliver to the client's original reply endpoint
    /// (or its mailbox).
    Reply {
        /// Destination (reply endpoint or mailbox service).
        to: Url,
        /// The rewritten envelope.
        envelope: Envelope,
    },
}

/// [`Routed`] for the raw hot path: the rewritten envelope is already
/// serialized (spliced byte-for-byte when the fast path applied), and the
/// `MessageID` the queues need for correlation is carried alongside so no
/// stage downstream has to re-parse the body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedRaw {
    /// A client request: forward to the resolved service endpoint.
    Forward {
        /// Physical destination.
        to: Url,
        /// Logical name it resolved from.
        logical: String,
        /// The rewritten envelope, serialized.
        body: String,
        /// `MessageID` of the forwarded request (always present: the
        /// dispatcher mints one when the client sent none).
        message_id: String,
    },
    /// A service reply: deliver to the client's original reply endpoint
    /// (or its mailbox).
    Reply {
        /// Destination (reply endpoint or mailbox service).
        to: Url,
        /// The rewritten envelope, serialized.
        body: String,
        /// The reply's own `MessageID`, if it carries one.
        message_id: Option<String>,
    },
}

/// [`RoutedRaw`] minus the body: the routing decision for
/// [`MsgCore::route_raw_into`], which writes the rewritten envelope into
/// a caller-supplied buffer instead of returning an owned `String`. The
/// logical name and the `MessageID`s borrow from the input envelope when
/// the splice fast path applied, so steady-state routing allocates
/// nothing for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutedMeta<'a> {
    /// A client request: forward to the resolved service endpoint.
    Forward {
        /// Physical destination.
        to: Url,
        /// Logical name it resolved from — a slice of the request's `To`
        /// on the fast path.
        logical: Cow<'a, str>,
        /// `MessageID` of the forwarded request (always present: the
        /// dispatcher mints one when the client sent none) — borrowed
        /// from the request on the fast path unless it was minted.
        message_id: Cow<'a, str>,
    },
    /// A service reply: deliver to the client's original reply endpoint
    /// (or its mailbox).
    Reply {
        /// Destination (reply endpoint or mailbox service).
        to: Url,
        /// The reply's own `MessageID`, if it carries one — borrowed
        /// from the scanned envelope on the fast path.
        message_id: Option<Cow<'a, str>>,
    },
}

/// Why a routed message was never written anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Its destination's queue was at capacity.
    QueueFull,
    /// Its destination's connect retries ran out
    /// ([`LinkStep::GiveUp`](link::LinkStep::GiveUp)) while it was in
    /// flight or queued behind them.
    GivenUp,
}

impl DropReason {
    /// Every reason, in counter order.
    pub const ALL: [DropReason; 2] = [DropReason::QueueFull, DropReason::GivenUp];

    /// The reason's counter name. It is not `dropped` (the sum) nor ends
    /// in `.dropped`, so `Snapshot::counter_sum("dropped")` counts each
    /// drop once.
    pub fn key(self) -> &'static str {
        match self {
            DropReason::QueueFull => "dropped_queue_full",
            DropReason::GivenUp => "dropped_given_up",
        }
    }
}

/// Why routing refused a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// No usable destination: no `To`, an unparseable address, or a
    /// reply with nowhere to go.
    NoDestination,
    /// The logical service is not registered, or has no live endpoint.
    UnknownService,
    /// A security policy refused it, or its WS-Addressing headers do not
    /// read (both [`WsdError::Rejected`]).
    Policy,
    /// The body is not a readable SOAP envelope.
    Unreadable,
}

impl RejectReason {
    /// Every reason, in counter order.
    pub const ALL: [RejectReason; 4] = [
        RejectReason::NoDestination,
        RejectReason::UnknownService,
        RejectReason::Policy,
        RejectReason::Unreadable,
    ];

    /// The reason's counter name (`rejected` is the sum).
    pub fn key(self) -> &'static str {
        match self {
            RejectReason::NoDestination => "rejected_no_destination",
            RejectReason::UnknownService => "rejected_unknown_service",
            RejectReason::Policy => "rejected_policy",
            RejectReason::Unreadable => "rejected_unreadable",
        }
    }

    fn of(err: &WsdError) -> RejectReason {
        match err {
            WsdError::NoDestination | WsdError::BadAddress(_) => RejectReason::NoDestination,
            WsdError::UnknownService(_) => RejectReason::UnknownService,
            WsdError::Rejected(_) => RejectReason::Policy,
            // Routing raises neither a mailbox error nor overload.
            WsdError::Soap(_) | WsdError::MsgBox(_) | WsdError::Overloaded => {
                RejectReason::Unreadable
            }
        }
    }
}

/// The MSG-Dispatcher's books, in both runtimes: the telemetry
/// instruments themselves (a clone is a live handle onto the same cells).
/// Every message routed is finished once, written or lost, so at
/// quiescence `forwarded + replies_routed == delivered + Σ dropped[reason]`
/// ([`written_or_dropped`](Self::written_or_dropped)).
#[derive(Debug, Clone)]
pub struct MsgCounters {
    /// Messages read off client connections.
    pub received: Counter,
    /// `202 Accepted` answers to clients.
    pub acked: Counter,
    /// Requests routed toward services.
    pub forwarded: Counter,
    /// Replies routed toward clients or mailboxes, translated quadrant-3
    /// replies included.
    pub replies_routed: Counter,
    /// Messages placed on a destination queue (`queue_enqueued`).
    pub enqueued: Counter,
    /// Messages written to a destination connection, each once: a resend
    /// is not counted again.
    pub delivered: Counter,
    /// Routed messages never written anywhere, every [`DropReason`]
    /// summed; written only by `MsgCounters::drop`.
    pub dropped: Counter,
    /// Messages routing refused, every [`RejectReason`] summed; written
    /// only by `MsgCounters::reject`.
    pub rejected: Counter,
    /// Writes to a destination connection that carried at least one message.
    pub drain_batches: Counter,
    /// One counter per [`DropReason`], in [`DropReason::ALL`] order.
    dropped_by: [Counter; 2],
    /// One counter per [`RejectReason`], in [`RejectReason::ALL`] order.
    rejected_by: [Counter; 4],
}

impl MsgCounters {
    /// The counters, registered under `scope`.
    pub fn new(scope: &Scope) -> Self {
        MsgCounters {
            received: scope.counter("received"),
            acked: scope.counter("acked"),
            forwarded: scope.counter("forwarded"),
            replies_routed: scope.counter("replies_routed"),
            enqueued: scope.counter("queue_enqueued"),
            delivered: scope.counter("delivered"),
            dropped: scope.counter("dropped"),
            rejected: scope.counter("rejected"),
            drain_batches: scope.counter("drain_batches"),
            dropped_by: DropReason::ALL.map(|r| scope.counter(r.key())),
            rejected_by: RejectReason::ALL.map(|r| scope.counter(r.key())),
        }
    }

    /// Counts `n` routed messages lost for `reason`.
    pub(crate) fn drop(&self, reason: DropReason, n: u64) {
        self.dropped.add(n);
        self.dropped_by[reason as usize].add(n);
    }

    /// Counts one message routing refused for `reason`.
    fn reject(&self, reason: RejectReason) {
        self.rejected.inc();
        self.rejected_by[reason as usize].inc();
    }

    /// Messages lost for `reason`.
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped_by[reason as usize].get()
    }

    /// Messages refused for `reason`.
    pub fn rejected_for(&self, reason: RejectReason) -> u64 {
        self.rejected_by[reason as usize].get()
    }

    /// `delivered + Σ dropped[reason]`: every routed message finished so
    /// far, which at quiescence is `forwarded + replies_routed`.
    pub fn written_or_dropped(&self) -> u64 {
        let dropped: u64 = DropReason::ALL.iter().map(|&r| self.dropped_for(r)).sum();
        self.delivered.get() + dropped
    }

    /// Counts what routing decided (`None`: the body could not be read):
    /// where the message goes and its `MessageID`, or a reject and the
    /// sender's answer, `error_response`'s fault or an empty `400`.
    pub(crate) fn routed(
        &self,
        routed: Option<Result<RoutedMeta<'_>, WsdError>>,
    ) -> Result<(Url, Option<String>), Response> {
        match routed {
            Some(Ok(RoutedMeta::Forward { to, message_id, .. })) => {
                self.forwarded.inc();
                Ok((to, Some(message_id.into_owned())))
            }
            Some(Ok(RoutedMeta::Reply { to, message_id })) => {
                self.replies_routed.inc();
                Ok((to, message_id.map(Cow::into_owned)))
            }
            rejected => {
                let err = rejected.and_then(Result::err);
                self.reject(err.as_ref().map_or(RejectReason::Unreadable, RejectReason::of));
                Err(err.map_or_else(
                    || Response::empty(wsd_http::Status::BAD_REQUEST),
                    |e| crate::rpc::error_response(wsd_soap::SoapVersion::V11, &e),
                ))
            }
        }
    }

    /// Asserts the handle is the instrument: every field reads what the
    /// registry snapshot reports under `scope`.
    #[cfg(test)]
    pub(crate) fn assert_matches(&self, snap: &wsd_telemetry::Snapshot, scope: &str) {
        for (name, counter) in [
            ("received", &self.received),
            ("acked", &self.acked),
            ("forwarded", &self.forwarded),
            ("replies_routed", &self.replies_routed),
            ("queue_enqueued", &self.enqueued),
            ("delivered", &self.delivered),
            ("dropped", &self.dropped),
            ("rejected", &self.rejected),
            ("drain_batches", &self.drain_batches),
        ] {
            assert_eq!(counter.get(), snap.counter(&format!("{scope}.{name}")), "{name}");
        }
        for (r, counter) in DropReason::ALL.iter().zip(&self.dropped_by) {
            assert_eq!(counter.get(), snap.counter(&format!("{scope}.{}", r.key())));
        }
        for (r, counter) in RejectReason::ALL.iter().zip(&self.rejected_by) {
            assert_eq!(counter.get(), snap.counter(&format!("{scope}.{}", r.key())));
        }
    }
}

/// Hot-path instruments: how many envelopes the single-pass splice
/// rewrite handled vs. fell back to parse + tree rewrite + re-serialize.
struct CoreTelemetry {
    fastpath_hits: Counter,
    fastpath_fallbacks: Counter,
}

impl CoreTelemetry {
    fn new(scope: &Scope) -> Self {
        CoreTelemetry {
            fastpath_hits: scope.counter("fastpath_hits"),
            fastpath_fallbacks: scope.counter("fastpath_fallbacks"),
        }
    }
}

/// A route-table entry: the [`RouteRecord`] plus its insertion time (µs)
/// for TTL cleanup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRoute {
    /// What the reply path needs.
    pub record: RouteRecord,
    /// Insertion time, µs on the runtime's clock.
    pub stored_at: u64,
}

/// The MSG-Dispatcher decision core. Thread-safe.
pub struct MsgCore {
    registry: std::sync::Arc<Registry>,
    routes: ShardedMap<String, PendingRoute>,
    /// The address services reply to (this dispatcher).
    pub dispatcher_address: String,
    /// Mailbox service address used when a client gave no reply
    /// endpoint, if a WS-MsgBox is deployed.
    pub mailbox_fallback: Option<String>,
    ids: MsgIdGen,
    policies: PolicyChain,
    tele: CoreTelemetry,
}

impl MsgCore {
    /// Creates the core. `dispatcher_address` is the URL services use to
    /// reach this dispatcher (it becomes the rewritten `ReplyTo`).
    pub fn new(
        registry: std::sync::Arc<Registry>,
        dispatcher_address: impl Into<String>,
        seed: u64,
    ) -> Self {
        MsgCore {
            registry,
            routes: ShardedMap::new(),
            dispatcher_address: dispatcher_address.into(),
            mailbox_fallback: None,
            ids: MsgIdGen::new(seed),
            policies: PolicyChain::new(),
            tele: CoreTelemetry::new(&Scope::noop()),
        }
    }

    /// Registers the fast-path counters (`fastpath_hits`,
    /// `fastpath_fallbacks`) under `scope`.
    pub fn bind_telemetry(&mut self, scope: &Scope) {
        self.tele = CoreTelemetry::new(scope);
    }

    /// Sets the mailbox fallback address. Returns `self` for chaining.
    pub fn with_mailbox(mut self, address: impl Into<String>) -> Self {
        self.mailbox_fallback = Some(address.into());
        self
    }

    /// Installs a security policy chain. Returns `self` for chaining.
    pub fn with_policies(mut self, policies: PolicyChain) -> Self {
        self.policies = policies;
        self
    }

    /// The registry this core resolves against.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Number of forwarded requests still awaiting replies.
    pub fn pending_routes(&self) -> usize {
        self.routes.len()
    }

    /// Drops route entries older than `ttl_us`; returns how many.
    pub fn expire_routes(&self, now: u64, ttl_us: u64) -> usize {
        let before = self.routes.len();
        self.routes
            .retain(|_, r| now.saturating_sub(r.stored_at) < ttl_us);
        before - self.routes.len()
    }

    /// Routes one inbound envelope: a reply if its `RelatesTo` matches a
    /// pending route, a fresh request otherwise.
    ///
    /// `serialized_len` is the on-the-wire size (for security policies);
    /// `now` is µs on the runtime's clock.
    pub fn route(
        &self,
        mut env: Envelope,
        serialized_len: usize,
        now: u64,
    ) -> Result<Routed, WsdError> {
        self.policies.inspect(serialized_len, &env)?;
        // Reply path: correlate via RelatesTo.
        if let Ok(Some(rel)) = correlation_id(&env) {
            if let Some(pending) = self.routes.remove(&rel) {
                let dest = rewrite_for_reply(
                    &mut env,
                    &pending.record,
                    self.mailbox_fallback.as_deref(),
                )
                .map_err(|e| WsdError::Rejected(e.to_string()))?
                .ok_or(WsdError::NoDestination)?;
                let to = Url::parse(&dest)?;
                return Ok(Routed::Reply { to, envelope: env });
            }
        }
        // Request path: resolve the logical To.
        let headers =
            WsaHeaders::from_envelope(&env).map_err(|e| WsdError::Rejected(e.to_string()))?;
        let to = headers.to.ok_or(WsdError::NoDestination)?;
        let logical = logical_service(&to)?.to_string();
        let (physical, physical_text) = self.registry.resolve(&logical)?;
        // Ensure the request has a MessageID so the reply can correlate.
        let mut env = env;
        let message_id = match headers.message_id {
            Some(id) => id,
            None => {
                let id = self.ids.next_id();
                let mut h = WsaHeaders::from_envelope(&env)
                    .map_err(|e| WsdError::Rejected(e.to_string()))?;
                h.message_id = Some(id.clone());
                h.apply(&mut env);
                id
            }
        };
        let record = rewrite_for_forward(&mut env, &physical_text, &self.dispatcher_address)
            .map_err(|e| WsdError::Rejected(e.to_string()))?;
        self.routes.insert(
            message_id,
            PendingRoute {
                record,
                stored_at: now,
            },
        );
        Ok(Routed::Forward {
            to: physical,
            logical,
            envelope: env,
        })
    }

    /// Routes one serialized envelope, avoiding the parse → rebuild →
    /// re-serialize cycle whenever possible.
    ///
    /// The fast path runs [`wsd_wsa::scan`] — one streaming pass locating
    /// the WS-Addressing headers — and splices the rewritten headers into
    /// the original bytes; the body is copied verbatim, never parsed. Any
    /// anomaly (non-canonical serialization, foreign headers, reference
    /// parameters, …) and the fast path declines: the envelope takes
    /// [`MsgCore::route`] instead. Installed security policies also force
    /// the tree path, since they inspect the parsed envelope. Both
    /// outcomes are counted (`fastpath_hits` / `fastpath_fallbacks`) when
    /// telemetry is bound.
    pub fn route_raw(
        &self,
        xml: &str,
        serialized_len: usize,
        now: u64,
    ) -> Result<RoutedRaw, WsdError> {
        let mut out = String::new();
        match self.route_raw_into(xml, serialized_len, now, &mut out)? {
            RoutedMeta::Forward { to, logical, message_id } => Ok(RoutedRaw::Forward {
                to,
                logical: logical.into_owned(),
                body: out,
                message_id: message_id.into_owned(),
            }),
            RoutedMeta::Reply { to, message_id } => Ok(RoutedRaw::Reply {
                to,
                body: out,
                message_id: message_id.map(Cow::into_owned),
            }),
        }
    }

    /// [`route_raw`](Self::route_raw), appending the rewritten envelope
    /// to the caller's buffer.
    ///
    /// The buffer's size is decided here, from the input: `out` is
    /// reserved `xml.len() + 128` bytes up front — room for the longer
    /// rewritten addresses and a minted `MessageID` — so a fresh
    /// `String::new()` costs one allocation whatever the body's size, and
    /// a reused buffer none. On the steady-state reply splice path the
    /// only other allocations are the two `String`s inside the parsed
    /// destination [`Url`]: the body is spliced into `out`, the
    /// destination is taken by value from the consumed [`PendingRoute`],
    /// and the reply's `MessageID` is returned borrowed from `xml`.
    pub fn route_raw_into<'a>(
        &self,
        xml: &'a str,
        serialized_len: usize,
        now: u64,
        out: &mut String,
    ) -> Result<RoutedMeta<'a>, WsdError> {
        out.reserve(xml.len() + 128);
        if self.policies.is_empty() {
            if let Some(scanned) = wsd_wsa::scan(xml) {
                self.tele.fastpath_hits.inc();
                return self.route_spliced_into(&scanned, now, out);
            }
        }
        self.tele.fastpath_fallbacks.inc();
        self.route_tree_fallback(xml, serialized_len, now, out)
    }

    /// The anomaly path behind [`route_raw_into`](Self::route_raw_into):
    /// full parse → tree route → re-serialize. Envelopes the splice
    /// scanner cannot handle (non-canonical prefixes, policy rewrites)
    /// land here; it allocates freely and is deliberately outside the
    /// allocation budget `tests/alloc_budget.rs` holds the splice path to.
    fn route_tree_fallback<'a>(
        &self,
        xml: &'a str,
        serialized_len: usize,
        now: u64,
        out: &mut String,
    ) -> Result<RoutedMeta<'a>, WsdError> {
        let env = Envelope::parse(xml)?;
        match self.route(env, serialized_len, now)? {
            Routed::Forward { to, logical, envelope } => {
                let message_id = WsaHeaders::from_envelope(&envelope)
                    .ok()
                    .and_then(|h| h.message_id)
                    .unwrap_or_default();
                envelope.write_into(out);
                Ok(RoutedMeta::Forward {
                    to,
                    logical: Cow::Owned(logical),
                    message_id: Cow::Owned(message_id),
                })
            }
            Routed::Reply { to, envelope } => {
                let message_id = WsaHeaders::from_envelope(&envelope)
                    .ok()
                    .and_then(|h| h.message_id)
                    .map(Cow::Owned);
                envelope.write_into(out);
                Ok(RoutedMeta::Reply { to, message_id })
            }
        }
    }

    /// The splice fast path: same decisions as [`MsgCore::route`], output
    /// byte-identical to the tree rewrite for canonical envelopes.
    fn route_spliced_into<'a>(
        &self,
        scanned: &wsd_wsa::ScannedWsa<'a>,
        now: u64,
        out: &mut String,
    ) -> Result<RoutedMeta<'a>, WsdError> {
        // Reply path: correlate via RelatesTo.
        if let Some(rel) = scanned.correlation_id() {
            if let Some(pending) = self.routes.remove(rel) {
                // The consumed PendingRoute owns the destination string:
                // take it by value rather than cloning.
                let destination = pending
                    .record
                    .original_reply_to
                    .filter(|epr| !epr.is_anonymous())
                    .map(|epr| epr.address)
                    .or_else(|| self.mailbox_fallback.clone())
                    .ok_or(WsdError::NoDestination)?;
                // The reply path's whole allocation budget: Url host + path.
                let to = Url::parse(&destination)?;
                scanned.splice_reply_into(Some(&destination), out);
                return Ok(RoutedMeta::Reply {
                    to,
                    message_id: scanned.message_id_cow(),
                });
            }
        }
        // Request path: resolve the logical To, a slice of the To header.
        let logical = match scanned.to_cow().ok_or(WsdError::NoDestination)? {
            Cow::Borrowed(to) => Cow::Borrowed(logical_service(to)?),
            Cow::Owned(to) => Cow::Owned(logical_service(&to)?.to_string()),
        };
        // The registry rendered the endpoint's address when it was
        // registered: the rewritten To is written from that text.
        let (physical, physical_text) = self.registry.resolve(&logical)?;
        // Ensure the request has a MessageID so the reply can correlate.
        let minted = scanned.message_id().is_none().then(|| self.ids.next_id());
        let record = scanned.splice_forward_into(
            &physical_text,
            &self.dispatcher_address,
            minted.as_deref(),
            out,
        );
        let message_id = match minted {
            Some(id) => Cow::Owned(id),
            None => scanned.message_id_cow().expect("the scan read a MessageID"),
        };
        // The route map's key is the one copy of the id routing makes.
        self.routes.insert(
            message_id.to_string(),
            PendingRoute {
                record,
                stored_at: now,
            },
        );
        Ok(RoutedMeta::Forward {
            to: physical,
            logical,
            message_id,
        })
    }
}

/// The logical service a request's `To` names (`http://…/svc/<name>`),
/// as a slice of it.
fn logical_service(to: &str) -> Result<&str, WsdError> {
    Url::logical_service_of(to)?.ok_or_else(|| WsdError::UnknownService(to.to_string()))
}

/// Turns what a destination answered a forwarded one-way request with
/// into a message the dispatcher can route as that request's reply
/// (Table 1 quadrant 3, "translation of semantics from messaging to
/// RPC"); `req_id` is the forwarded request's `MessageID`. `None`
/// when there is nothing to translate: a plain ack (`202`), an error, or
/// a `200` whose body is no envelope. A canonically serialized reply that
/// already correlates itself passes through as the bytes it came in, and
/// a canonical answer with no Header gains `RelatesTo` by a splice
/// ([`wsd_wsa::splice::splice_relates_to`]); anything else is parsed and
/// gains `RelatesTo` unless it carries one. Both ways write the same
/// bytes for a parse-canonical answer.
pub fn correlate_rpc_reply<'a>(resp: &'a Response, req_id: Option<&str>) -> Option<Cow<'a, str>> {
    let xml = resp.body_str().filter(|_| resp.status.0 == 200)?;
    if wsd_wsa::scan(xml).is_some_and(|s| s.correlation_id().is_some()) {
        return Some(Cow::Borrowed(xml));
    }
    let req_id = req_id.filter(|id| !id.is_empty());
    if let Some(spliced) = wsd_wsa::splice::splice_relates_to(xml, req_id) {
        return Some(spliced);
    }
    let mut env = Envelope::parse(xml).ok()?;
    if let (Some(id), Ok(mut h)) = (req_id, WsaHeaders::from_envelope(&env)) {
        if h.relates_to.is_empty() {
            h.relates_to.push((id.to_string(), None));
            h.apply(&mut env);
        }
    }
    Some(Cow::Owned(env.to_xml()))
}

impl std::fmt::Debug for MsgCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgCore")
            .field("dispatcher_address", &self.dispatcher_address)
            .field("pending_routes", &self.routes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wsd_soap::{rpc as soap_rpc, SoapVersion};
    use wsd_wsa::EndpointReference;

    fn core() -> MsgCore {
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws-host:8888/echo").unwrap());
        MsgCore::new(registry, "http://dispatcher/msg", 7)
            .with_mailbox("http://msgbox/deposit")
    }

    fn request(reply_to: Option<&str>, message_id: Option<&str>) -> Envelope {
        let mut env = soap_rpc::echo_request(SoapVersion::V11, "ping");
        let mut h = WsaHeaders::new().to("http://dispatcher/svc/Echo");
        if let Some(r) = reply_to {
            h = h.reply_to(EndpointReference::new(r));
        }
        if let Some(id) = message_id {
            h = h.message_id(id);
        }
        h.apply(&mut env);
        env
    }

    #[test]
    fn request_forwards_to_physical_endpoint() {
        let c = core();
        let routed = c.route(request(Some("http://client/cb"), Some("uuid:1")), 483, 0).unwrap();
        match routed {
            Routed::Forward { to, logical, envelope } => {
                assert_eq!(to, Url::parse("http://ws-host:8888/echo").unwrap());
                assert_eq!(logical, "Echo");
                let h = WsaHeaders::from_envelope(&envelope).unwrap();
                assert_eq!(h.to.as_deref(), Some("http://ws-host:8888/echo"));
                assert_eq!(h.reply_to.unwrap().address, "http://dispatcher/msg");
            }
            other => panic!("expected Forward, got {other:?}"),
        }
        assert_eq!(c.pending_routes(), 1);
    }

    #[test]
    fn reply_routes_back_to_original_client() {
        let c = core();
        c.route(request(Some("http://client:9999/cb"), Some("uuid:42")), 483, 0)
            .unwrap();
        // Service reply relating to uuid:42.
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "ping");
        WsaHeaders::new()
            .to("http://dispatcher/msg")
            .relates_to("uuid:42")
            .apply(&mut reply);
        let routed = c.route(reply, 500, 1).unwrap();
        match routed {
            Routed::Reply { to, envelope } => {
                assert_eq!(to, Url::parse("http://client:9999/cb").unwrap());
                let h = WsaHeaders::from_envelope(&envelope).unwrap();
                assert_eq!(h.to.as_deref(), Some("http://client:9999/cb"));
            }
            other => panic!("expected Reply, got {other:?}"),
        }
        assert_eq!(c.pending_routes(), 0, "route must be consumed");
    }

    #[test]
    fn anonymous_reply_to_falls_back_to_mailbox() {
        let c = core();
        c.route(request(Some(wsd_wsa::ANONYMOUS), Some("uuid:a")), 483, 0)
            .unwrap();
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "x");
        WsaHeaders::new().relates_to("uuid:a").apply(&mut reply);
        match c.route(reply, 400, 1).unwrap() {
            Routed::Reply { to, .. } => {
                assert_eq!(to, Url::parse("http://msgbox/deposit").unwrap());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_reply_to_without_mailbox_is_no_destination() {
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws/e").unwrap());
        let c = MsgCore::new(registry, "http://d/msg", 1); // no mailbox
        c.route(request(None, Some("uuid:n")), 483, 0).unwrap();
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "x");
        WsaHeaders::new().relates_to("uuid:n").apply(&mut reply);
        assert_eq!(c.route(reply, 100, 1), Err(WsdError::NoDestination));
    }

    #[test]
    fn message_id_minted_when_absent() {
        let c = core();
        let routed = c.route(request(Some("http://cl/cb"), None), 483, 0).unwrap();
        let Routed::Forward { envelope, .. } = routed else {
            panic!()
        };
        let h = WsaHeaders::from_envelope(&envelope).unwrap();
        let id = h.message_id.expect("id must be minted");
        assert!(id.starts_with("uuid:"));
        // And the minted id routes the reply.
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "x");
        WsaHeaders::new().relates_to(id).apply(&mut reply);
        assert!(matches!(c.route(reply, 1, 1), Ok(Routed::Reply { .. })));
    }

    #[test]
    fn unknown_logical_service_is_error() {
        let c = core();
        let mut env = soap_rpc::echo_request(SoapVersion::V11, "x");
        WsaHeaders::new()
            .to("http://dispatcher/svc/Missing")
            .apply(&mut env);
        assert!(matches!(
            c.route(env, 1, 0),
            Err(WsdError::UnknownService(_))
        ));
    }

    #[test]
    fn envelope_without_to_is_no_destination() {
        let c = core();
        let env = soap_rpc::echo_request(SoapVersion::V11, "x");
        assert_eq!(c.route(env, 1, 0), Err(WsdError::NoDestination));
    }

    #[test]
    fn unmatched_relates_to_is_treated_as_request() {
        // A reply whose route expired: RelatesTo matches nothing, and it
        // has no To → NoDestination (not a crash, not a misroute).
        let c = core();
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "x");
        WsaHeaders::new().relates_to("uuid:expired").apply(&mut reply);
        assert_eq!(c.route(reply, 1, 0), Err(WsdError::NoDestination));
    }

    #[test]
    fn route_expiry_drops_stale_entries() {
        let c = core();
        c.route(request(Some("http://cl/cb"), Some("uuid:old")), 1, 1000)
            .unwrap();
        c.route(request(Some("http://cl/cb"), Some("uuid:new")), 1, 9000)
            .unwrap();
        assert_eq!(c.pending_routes(), 2);
        assert_eq!(c.expire_routes(10_000, 5_000), 1);
        assert_eq!(c.pending_routes(), 1);
    }

    #[test]
    fn security_policy_applies_to_all_messages() {
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws/e").unwrap());
        let c = MsgCore::new(registry, "http://d/msg", 1)
            .with_policies(crate::security::PolicyChain::new().with(crate::security::MaxSize(100)));
        let env = request(Some("http://cl/cb"), Some("uuid:1"));
        assert!(matches!(c.route(env, 500, 0), Err(WsdError::Rejected(_))));
    }

    #[test]
    fn route_raw_fastpath_is_byte_identical_to_tree_route() {
        // Two cores with the same seed mint the same ids; exercising the
        // minting path (no MessageID) covers the hardest case.
        let fast = core();
        let tree = core();
        let xml = request(Some("http://client/cb"), None).to_xml();
        let raw = fast.route_raw(&xml, xml.len(), 0).unwrap();
        let routed = tree
            .route(Envelope::parse(&xml).unwrap(), xml.len(), 0)
            .unwrap();
        match (raw, routed) {
            (
                RoutedRaw::Forward { to, logical, body, message_id },
                Routed::Forward { to: t_to, logical: t_logical, envelope },
            ) => {
                assert_eq!(to, t_to);
                assert_eq!(logical, t_logical);
                assert_eq!(body, envelope.to_xml(), "spliced bytes must match the tree path");
                let h = WsaHeaders::from_envelope(&envelope).unwrap();
                assert_eq!(Some(message_id), h.message_id);
            }
            other => panic!("expected two Forwards, got {other:?}"),
        }
        assert_eq!(fast.pending_routes(), 1);
    }

    #[test]
    fn route_raw_reply_round_trip_counts_fastpath_hits() {
        let reg = wsd_telemetry::Registry::new();
        let mut c = core();
        c.bind_telemetry(&reg.scope("core"));
        let req_xml = request(Some("http://client:9999/cb"), Some("uuid:42")).to_xml();
        c.route_raw(&req_xml, req_xml.len(), 0).unwrap();
        let mut reply = soap_rpc::echo_response(SoapVersion::V11, "pong");
        WsaHeaders::new()
            .to("http://dispatcher/msg")
            .relates_to("uuid:42")
            .message_id("uuid:r1")
            .apply(&mut reply);
        let xml = reply.to_xml();
        match c.route_raw(&xml, xml.len(), 1).unwrap() {
            RoutedRaw::Reply { to, body, message_id } => {
                assert_eq!(to, Url::parse("http://client:9999/cb").unwrap());
                assert!(body.contains("http://client:9999/cb"));
                assert_eq!(message_id.as_deref(), Some("uuid:r1"));
            }
            other => panic!("expected Reply, got {other:?}"),
        }
        assert_eq!(c.pending_routes(), 0, "route must be consumed");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("core.fastpath_hits"), 2);
        assert_eq!(snap.counter("core.fastpath_fallbacks"), 0);
    }

    #[test]
    fn route_raw_policies_force_the_tree_path() {
        let reg = wsd_telemetry::Registry::new();
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws-host:8888/echo").unwrap());
        let mut c = MsgCore::new(registry, "http://dispatcher/msg", 7).with_policies(
            crate::security::PolicyChain::new().with(crate::security::MaxSize(1 << 20)),
        );
        c.bind_telemetry(&reg.scope("core"));
        let xml = request(Some("http://client/cb"), Some("uuid:p1")).to_xml();
        assert!(matches!(
            c.route_raw(&xml, xml.len(), 0),
            Ok(RoutedRaw::Forward { .. })
        ));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("core.fastpath_hits"), 0);
        assert_eq!(snap.counter("core.fastpath_fallbacks"), 1);
    }

    #[test]
    fn route_raw_malformed_envelope_is_soap_error() {
        let c = core();
        assert!(matches!(
            c.route_raw("<not-xml", 8, 0),
            Err(WsdError::Soap(_))
        ));
    }

    /// Quadrant 3's correlation as it was written before the splice:
    /// every answer parsed, given `RelatesTo` unless it has one, and
    /// serialised.
    fn correlate_by_tree(resp: &Response, req_id: Option<&str>) -> Option<String> {
        let xml = resp.body_str().filter(|_| resp.status.0 == 200)?;
        let mut env = Envelope::parse(xml).ok()?;
        if let (Some(id), Ok(mut h)) = (
            req_id.filter(|id| !id.is_empty()),
            WsaHeaders::from_envelope(&env),
        ) {
            if h.relates_to.is_empty() {
                h.relates_to.push((id.to_string(), None));
                h.apply(&mut env);
            }
        }
        Some(env.to_xml())
    }

    #[test]
    fn correlated_answers_are_byte_identical_to_the_reference() {
        let ok = |v: SoapVersion, xml: &str| {
            Response::new(wsd_http::Status::OK, v.content_type(), xml.as_bytes().to_vec())
        };
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let bare = soap_rpc::echo_response(v, "héllo <&> MARK").to_xml();
            let mut headed = soap_rpc::echo_response(v, "x");
            WsaHeaders::new().message_id("uuid:own").apply(&mut headed);
            let mut related = soap_rpc::echo_response(v, "x");
            WsaHeaders::new().relates_to("uuid:earlier").apply(&mut related);
            // Well-formed, but not the writer's spacing.
            let spaced = bare.replacen('>', " >", 1);
            let answers = [
                (bare.clone(), "spliced"),
                (headed.to_xml(), "tree: has a Header"),
                (related.to_xml(), "passes through"),
                (spaced, "tree: not canonical"),
            ];
            for (xml, how) in &answers {
                for id in [Some("uuid:req-1"), Some("uuid:a&b<c"), Some(""), None] {
                    let resp = ok(v, xml);
                    let got = correlate_rpc_reply(&resp, id);
                    let want = correlate_by_tree(&resp, id);
                    assert_eq!(got.as_deref(), want.as_deref(), "{v} {how} {id:?}");
                }
            }
            let malformed = bare.replace("MARK", "<open>");
            assert!(Envelope::parse(&malformed).is_err());
            for id in [Some("uuid:req-1"), None] {
                assert_eq!(correlate_rpc_reply(&ok(v, &malformed), id), None, "{v} {id:?}");
            }
            let accepted = Response::new(wsd_http::Status::ACCEPTED, v.content_type(), Vec::new());
            assert_eq!(correlate_rpc_reply(&accepted, Some("uuid:req-1")), None);
        }
    }

    #[test]
    fn round_robin_farm_spreads_forwards() {
        let registry = Arc::new(
            Registry::new().with_strategy(crate::registry::BalanceStrategy::RoundRobin),
        );
        registry.register_many(
            "Echo",
            vec![
                Url::parse("http://ws-a/e").unwrap(),
                Url::parse("http://ws-b/e").unwrap(),
            ],
            None,
        );
        let c = MsgCore::new(registry, "http://d/msg", 1);
        let mut hosts = std::collections::HashSet::new();
        for i in 0..4 {
            let env = {
                let mut e = soap_rpc::echo_request(SoapVersion::V11, "x");
                WsaHeaders::new()
                    .to("http://d/svc/Echo")
                    .message_id(format!("uuid:{i}"))
                    .apply(&mut e);
                e
            };
            if let Routed::Forward { to, .. } = c.route(env, 1, 0).unwrap() {
                hosts.insert(to.host);
            }
        }
        assert_eq!(hosts.len(), 2, "both endpoints must be used");
    }
}
