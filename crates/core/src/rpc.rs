//! RPC-Dispatcher logic: HTTP-proxy-style forwarding.
//!
//! Paper §4.2: one thread parses the HTTP header, copies the XML message
//! into a new request for the target WS, performs the RPC, and relays the
//! result on the original client connection. This module is the part both
//! runtimes share: per request `RpcCounters::plan`, `forwarded` once it
//! is written upstream, then `RpcCounters::finish`. A driver moves the
//! bytes, keeps the time and sends the client only what those return.

use wsd_http::{Request, Response, Status};
use wsd_soap::{Envelope, Fault, FaultCode, SoapVersion};
use wsd_telemetry::{Counter, Scope};

use crate::error::WsdError;
use crate::registry::Registry;
use crate::security::PolicyChain;
use crate::url::Url;

/// The RPC dispatcher's books, in both runtimes: the telemetry
/// instruments themselves. A clone is a live handle onto the same cells,
/// so `stats()` and the registry snapshot can never disagree. At
/// quiescence `received == refused + relayed + upstream_failures`.
#[derive(Debug, Clone)]
pub struct RpcCounters {
    /// Requests accepted from clients.
    pub received: Counter,
    /// Requests written to a service's connection.
    pub forwarded: Counter,
    /// Responses relayed back to clients.
    pub relayed: Counter,
    /// Requests refused (unknown service, security, malformed).
    pub refused: Counter,
    /// Forwards that failed: connect, send, timeout or close at the
    /// service side (the last two after the request was `forwarded`).
    pub upstream_failures: Counter,
}

impl RpcCounters {
    /// The counters, registered under `scope`.
    pub fn new(scope: &Scope) -> Self {
        RpcCounters {
            received: scope.counter("received"),
            forwarded: scope.counter("forwarded"),
            relayed: scope.counter("relayed"),
            refused: scope.counter("refused"),
            upstream_failures: scope.counter("upstream_failures"),
        }
    }

    /// Counts a request `received`, then refuses it with the client's
    /// answer, or notes it dispatched to its endpoint and returns the
    /// rewritten request to write there.
    pub(crate) fn plan(
        &self,
        registry: &Registry,
        policies: &PolicyChain,
        req: &Request,
    ) -> Result<(RpcExchange, Request), Response> {
        self.received.inc();
        match plan_forward(registry, policies, req) {
            Ok((url, logical, fwd)) => {
                registry.note_dispatched(&logical, &url);
                Ok((RpcExchange { url, logical }, fwd))
            }
            Err(e) => {
                self.refused.inc();
                Err(error_response(SoapVersion::V11, &e))
            }
        }
    }

    /// Notes the request completed, marks the endpoint down if nothing
    /// listens there, and counts the client's answer: the service's, less
    /// the upstream hop's `Connection` header, or a `502`.
    pub(crate) fn finish(
        &self,
        registry: &Registry,
        exchange: RpcExchange,
        outcome: Result<Response, UpstreamFailure>,
    ) -> Response {
        let RpcExchange { url, logical } = exchange;
        registry.note_completed(&logical, &url);
        let failure = match outcome {
            Ok(mut upstream) => {
                self.relayed.inc();
                upstream.headers.remove("connection");
                return upstream;
            }
            Err(failure) => failure,
        };
        // A dead endpoint stays down: nothing marks it up again.
        if let UpstreamFailure::NoListener(_) = failure {
            registry.mark_down(&logical, &url);
        }
        self.upstream_failures.inc();
        let reason = format!("upstream failure: {failure}");
        fault_response(Status::BAD_GATEWAY, SoapVersion::V11, &FaultCode::Receiver, &reason)
    }

    /// Asserts the books balance at quiescence; `after_send` is how many
    /// of the failures happened once the request was on the upstream wire.
    #[cfg(test)]
    pub(crate) fn assert_conserved(&self, after_send: u64) {
        assert_eq!(
            self.received.get(),
            self.refused.get() + self.relayed.get() + self.upstream_failures.get()
        );
        assert_eq!(self.forwarded.get(), self.relayed.get() + after_send);
    }

    /// Asserts the handle is the instrument: every field reads what the
    /// registry snapshot reports under `scope`.
    #[cfg(test)]
    pub(crate) fn assert_matches(&self, snap: &wsd_telemetry::Snapshot, scope: &str) {
        for (name, counter) in [
            ("received", &self.received),
            ("forwarded", &self.forwarded),
            ("relayed", &self.relayed),
            ("refused", &self.refused),
            ("upstream_failures", &self.upstream_failures),
        ] {
            assert_eq!(counter.get(), snap.counter(&format!("{scope}.{name}")), "{name}");
        }
    }
}

/// A request between [`RpcCounters::plan`] and [`RpcCounters::finish`].
#[derive(Debug)]
pub(crate) struct RpcExchange {
    /// The endpoint it was planned to.
    pub(crate) url: Url,
    logical: String,
}

/// Why a forward failed once an endpoint had been chosen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpstreamFailure {
    /// Nothing listens there (the transport's word for it): the only
    /// failure that says the endpoint is dead.
    NoListener(String),
    /// Any other failed connect: a timeout, a full accept queue, a local
    /// socket limit.
    Connect(String),
    /// The request could not be written to the open connection.
    Send,
    /// No answer within the response timeout (Table 1: "may not work at
    /// all if message reply comes too late").
    ResponseTimeout,
    /// The service closed the connection before answering.
    ClosedEarly,
}

impl std::fmt::Display for UpstreamFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpstreamFailure::NoListener(why) | UpstreamFailure::Connect(why) => {
                write!(f, "connect failed: {why}")
            }
            UpstreamFailure::Send => f.write_str("send failed"),
            UpstreamFailure::ResponseTimeout => f.write_str("response timed out"),
            UpstreamFailure::ClosedEarly => f.write_str("upstream closed before responding"),
        }
    }
}

/// Decides the fate of one inbound client request.
///
/// On success, returns the resolved physical URL, the logical name it was
/// resolved from, and the rewritten request to send there (new `Host`,
/// physical path, `Via` marker; body forwarded verbatim).
pub fn plan_forward(
    registry: &Registry,
    policies: &PolicyChain,
    req: &Request,
) -> Result<(Url, String, Request), WsdError> {
    let logical = logical_name(&req.target)?;
    // Security inspection happens before any upstream work: parse the
    // envelope once and run the chain on it.
    if !policies.is_empty() {
        let body = std::str::from_utf8(&req.body)
            .map_err(|_| WsdError::Rejected("body is not UTF-8".to_string()))?;
        let env = Envelope::parse(body)?;
        policies.inspect(req.body.len(), &env)?;
    }
    let physical = registry.lookup(&logical)?;
    let mut forwarded = req.clone();
    forwarded.target = physical.path.clone();
    forwarded.headers.set("Host", physical.authority());
    forwarded.headers.set("Via", "1.1 wsd-rpc-dispatcher");
    Ok((physical, logical, forwarded))
}

/// Extracts the logical service name from a dispatcher request target
/// (`/svc/<name>`), copied once.
fn logical_name(target: &str) -> Result<String, WsdError> {
    crate::url::logical_name(target)
        .map(str::to_string)
        .ok_or_else(|| WsdError::UnknownService(target.to_string()))
}

/// Builds the client-facing error response for a failed dispatch.
///
/// SOAP 1.1 faults ride HTTP 500; addressing-level routing failures map
/// to 404/502/503 so plain HTTP clients see sensible statuses too.
pub fn error_response(version: SoapVersion, err: &WsdError) -> Response {
    let (status, code) = match err {
        WsdError::UnknownService(_) => (Status::NOT_FOUND, FaultCode::Sender),
        WsdError::Overloaded => (Status::SERVICE_UNAVAILABLE, FaultCode::Receiver),
        _ => (Status::BAD_REQUEST, FaultCode::Sender),
    };
    fault_response(status, version, &code, &err.to_string())
}

/// Writes the fault envelope through the raw byte path — its own
/// `String`, no tree construction — and hands that buffer to the
/// `Response` as its body, without a copy.
fn fault_response(
    status: Status,
    version: SoapVersion,
    code: &FaultCode,
    reason: &str,
) -> Response {
    let mut out = String::new();
    Fault::push_fault_envelope(version, code, reason, &mut out);
    Response::new(status, version.content_type(), out.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::BalanceStrategy;
    use crate::security::{MaxSize, PolicyChain};
    use wsd_soap::rpc as soap_rpc;

    fn setup() -> Registry {
        let r = Registry::new();
        r.register("Echo", Url::parse("http://inria-slow:8888/real/echo").unwrap());
        r
    }

    fn echo_request(target: &str) -> Request {
        let body = soap_rpc::echo_request(SoapVersion::V11, "hi").to_xml();
        Request::soap_post("dispatcher", target, SoapVersion::V11.content_type(), body.into_bytes())
    }

    #[test]
    fn forwards_to_physical_address() {
        let registry = setup();
        let req = echo_request("/svc/Echo");
        let (url, logical, fwd) =
            plan_forward(&registry, &PolicyChain::new(), &req).unwrap();
        assert_eq!(url.host, "inria-slow");
        assert_eq!(logical, "Echo");
        assert_eq!(fwd.target, "/real/echo");
        assert_eq!(fwd.headers.get("host"), Some("inria-slow:8888"));
        assert_eq!(fwd.headers.get("via"), Some("1.1 wsd-rpc-dispatcher"));
        assert_eq!(fwd.body, req.body, "payload must be verbatim");
    }

    #[test]
    fn unknown_service_is_error() {
        let registry = setup();
        let req = echo_request("/svc/Nope");
        assert!(matches!(
            plan_forward(&registry, &PolicyChain::new(), &req),
            Err(WsdError::UnknownService(_))
        ));
    }

    #[test]
    fn non_svc_target_is_error() {
        let registry = setup();
        let req = echo_request("/other/path");
        assert!(plan_forward(&registry, &PolicyChain::new(), &req).is_err());
    }

    #[test]
    fn security_rejection_stops_forwarding() {
        let registry = setup();
        let policies = PolicyChain::new().with(MaxSize(10));
        let req = echo_request("/svc/Echo");
        assert!(matches!(
            plan_forward(&registry, &policies, &req),
            Err(WsdError::Rejected(_))
        ));
    }

    #[test]
    fn malformed_body_rejected_when_policies_active() {
        let registry = setup();
        let policies = PolicyChain::new().with(MaxSize(1_000_000));
        let mut req = echo_request("/svc/Echo");
        req.body = b"not xml at all".to_vec().into();
        assert!(plan_forward(&registry, &policies, &req).is_err());
        // Without policies the proxy does not look inside (fast path).
        assert!(plan_forward(&registry, &PolicyChain::new(), &req).is_ok());
    }

    #[test]
    fn error_responses_carry_faults_and_statuses() {
        let resp = error_response(
            SoapVersion::V11,
            &WsdError::UnknownService("X".to_string()),
        );
        assert_eq!(resp.status, Status::NOT_FOUND);
        let env = Envelope::parse(&resp.body_utf8()).unwrap();
        assert!(env.as_fault().unwrap().reason.contains("X"));

        let resp = error_response(SoapVersion::V12, &WsdError::Overloaded);
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(Envelope::parse(&resp.body_utf8()).unwrap().version, SoapVersion::V12);

        let registry = setup();
        let books = RpcCounters::new(&Scope::noop());
        let req = echo_request("/svc/Echo");
        let (exchange, _) = books.plan(&registry, &PolicyChain::new(), &req).unwrap();
        let failure = UpstreamFailure::Connect("timed out".to_string());
        let resp = books.finish(&registry, exchange, Err(failure));
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        let env = Envelope::parse(&resp.body_utf8()).unwrap();
        let reason = &env.as_fault().unwrap().reason;
        assert_eq!(reason, "upstream failure: connect failed: timed out");
        books.assert_conserved(0);
        assert_eq!(books.upstream_failures.get(), 1);
    }

    #[test]
    fn only_an_endpoint_nothing_listens_at_is_marked_down() {
        let registry = Registry::new().with_strategy(BalanceStrategy::LeastPending);
        let a = Url::parse("http://a:1/e").unwrap();
        let b = Url::parse("http://b:1/e").unwrap();
        registry.register_many("Echo", vec![a.clone(), b.clone()], None);
        let books = RpcCounters::new(&Scope::noop());
        let req = echo_request("/svc/Echo");
        let plan = || books.plan(&registry, &PolicyChain::new(), &req).unwrap().0;
        let live = || registry.entry("Echo").unwrap().live_endpoints();
        // A request in flight at `a` sends the next one to `b`; finishing
        // it makes `a` the least pending again.
        for failure in [
            UpstreamFailure::Connect("TimedOut".to_string()),
            UpstreamFailure::ResponseTimeout,
            UpstreamFailure::ClosedEarly,
        ] {
            let (at_a, at_b) = (plan(), plan());
            assert_eq!((&at_a.url, &at_b.url), (&a, &b));
            books.finish(&registry, at_b, Ok(Response::empty(Status::OK)));
            books.finish(&registry, at_a, Err(failure));
            assert_eq!(live().len(), 2);
        }
        let failure = UpstreamFailure::NoListener("Refused".to_string());
        let resp = books.finish(&registry, plan(), Err(failure));
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        assert_eq!(live(), vec![b]);
    }

    #[test]
    fn logical_name_parsing() {
        assert_eq!(logical_name("/svc/Echo").unwrap(), "Echo");
        assert!(logical_name("/").is_err());
        assert!(logical_name("/svc/").is_err());
    }
}
