//! The echo Web Service, the paper's test service in both styles of
//! Table 1, decided once for both runtimes: [`EchoCounters::accept`]
//! answers a request, [`EchoCounters::process`] finishes it once its
//! service time is spent, and the driver counts what became of what it
//! sent. A driver keeps the time, the workers and the connections.

use wsd_http::{Request, Response, Status};
use wsd_soap::{rpc as soap_rpc, Envelope};
use wsd_telemetry::Counter;
use wsd_wsa::WsaHeaders;

use crate::url::Url;

/// Interaction style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EchoMode {
    /// Request/response on one connection.
    Rpc,
    /// Fire-and-forget requests; replies are new one-way messages.
    OneWay {
        /// Worker threads shared by processing and reply delivery.
        workers: usize,
    },
}

/// What an accepted request is answered with once its service time is
/// spent. Every one-way answer is acknowledged with `202`.
#[derive(Debug)]
pub enum Echo {
    /// RPC: the `200` echo response, on the request's connection.
    Response(Response),
    /// One-way, `ReplyTo` absent or anonymous: nothing to send.
    NoReply,
    /// One-way, the `ReplyTo` address does not parse.
    Unaddressable,
    /// One-way: the echo response, `To` the `ReplyTo` address and
    /// `RelatesTo` the request's `MessageID` if it has one, posted to `to`.
    Reply {
        /// The `ReplyTo` address.
        to: Url,
        /// The reply.
        envelope: Envelope,
    },
}

/// The echo service's books, in both runtimes: telemetry instruments,
/// unregistered (a clone is a live handle onto the same cells). At
/// quiescence `accepted == processed == replies_sent + replies_blocked +
/// no_reply`.
#[derive(Debug, Clone, Default)]
pub struct EchoCounters {
    /// Requests whose body is a SOAP envelope.
    pub accepted: Counter,
    /// Requests whose service time has been spent.
    pub processed: Counter,
    /// RPC responses and one-way replies handed to a live connection.
    pub replies_sent: Counter,
    /// RPC responses whose client had gone; one-way replies whose
    /// `ReplyTo` did not parse or could not be reached.
    pub replies_blocked: Counter,
    /// One-way requests with no `ReplyTo` to answer.
    pub no_reply: Counter,
}

impl EchoCounters {
    /// Counts `req` `accepted` and decides its answer, or returns the
    /// `400` to send at once for a body that is not a SOAP envelope.
    pub fn accept(&self, mode: EchoMode, req: &Request) -> Result<Echo, Response> {
        let Ok(env) = Envelope::parse(&req.body_utf8()) else {
            return Err(Response::empty(Status::BAD_REQUEST));
        };
        self.accepted.inc();
        let text = soap_rpc::parse_echo(&env).unwrap_or_default();
        let mut reply = soap_rpc::echo_response(env.version, &text);
        if mode == EchoMode::Rpc {
            let body = reply.to_xml().into_bytes();
            return Ok(Echo::Response(Response::new(Status::OK, env.version.content_type(), body)));
        }
        let headers = WsaHeaders::from_envelope(&env).unwrap_or_default();
        let Some(reply_to) = headers.reply_to.filter(|r| !r.is_anonymous()) else {
            return Ok(Echo::NoReply);
        };
        let Ok(to) = Url::parse(&reply_to.address) else {
            return Ok(Echo::Unaddressable);
        };
        let mut h = WsaHeaders::new().to(reply_to.address);
        if let Some(id) = headers.message_id {
            h = h.relates_to(id);
        }
        h.apply(&mut reply);
        Ok(Echo::Reply { to, envelope: reply })
    }

    /// Counts `echo` `processed`, and a one-way answer with nothing to
    /// send as `no_reply` or `replies_blocked`.
    pub fn process(&self, echo: &Echo) {
        self.processed.inc();
        match echo {
            Echo::NoReply => self.no_reply.inc(),
            Echo::Unaddressable => self.replies_blocked.inc(),
            Echo::Response(_) | Echo::Reply { .. } => {}
        }
    }

    /// Counts `n` responses or replies handed to a live connection
    /// (`sent`), or lost.
    pub fn replied(&self, n: u64, sent: bool) {
        let counter = if sent { &self.replies_sent } else { &self.replies_blocked };
        counter.add(n);
    }
}

#[cfg(test)]
impl EchoCounters {
    /// Asserts the books balance at quiescence.
    pub(crate) fn assert_conserved(&self) {
        let answered = self.replies_sent.get() + self.replies_blocked.get() + self.no_reply.get();
        assert_eq!((self.accepted.get(), self.processed.get()), (answered, answered), "{self:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_soap::rpc::RpcCall;
    use wsd_soap::SoapVersion;
    use wsd_wsa::EndpointReference;

    const ONE_WAY: EchoMode = EchoMode::OneWay { workers: 1 };

    fn post(env: &Envelope) -> Request {
        let body = env.to_xml().into_bytes();
        Request::soap_post("ws", "/echo", env.version.content_type(), body)
    }

    /// `env` with `To`, `ReplyTo` and, when given, a `MessageID`.
    fn addressed(mut env: Envelope, reply_to: &str, id: Option<&str>) -> Envelope {
        let h = WsaHeaders { message_id: id.map(str::to_string), ..WsaHeaders::new() };
        h.to("http://ws/echo").reply_to(EndpointReference::new(reply_to)).apply(&mut env);
        env
    }

    /// The RPC answer as the services built it before this module: the
    /// tree echo of the parsed text.
    fn reference_rpc(env: &Envelope) -> (String, Vec<u8>) {
        let text = soap_rpc::parse_echo(env).unwrap_or_default();
        let reply = soap_rpc::echo_response(env.version, &text);
        (env.version.content_type().to_string(), reply.to_xml().into_bytes())
    }

    /// The one-way reply as the simulated service built it before this
    /// module.
    fn reference_reply(env: &Envelope) -> String {
        let headers = WsaHeaders::from_envelope(env).unwrap_or_default();
        let reply_to = headers.reply_to.unwrap();
        let text = soap_rpc::parse_echo(env).unwrap_or_default();
        let mut reply = soap_rpc::echo_response(env.version, &text);
        let mut h = WsaHeaders::new().to(reply_to.address.clone());
        if let Some(id) = headers.message_id {
            h = h.relates_to(id);
        }
        h.apply(&mut reply);
        reply.to_xml()
    }

    #[test]
    fn answers_are_byte_identical_to_the_reference() {
        let books = EchoCounters::default();
        let not_echo = |v| RpcCall::new("urn:other", "ping").to_envelope(v);
        for v in [SoapVersion::V11, SoapVersion::V12] {
            for env in [soap_rpc::echo_request(v, "héllo <&>"), not_echo(v)] {
                let Ok(Echo::Response(resp)) = books.accept(EchoMode::Rpc, &post(&env)) else {
                    panic!("an RPC echo answers 200");
                };
                assert_eq!(resp.status, Status::OK);
                let (content_type, body) = reference_rpc(&env);
                assert_eq!(resp.headers.get("content-type"), Some(content_type.as_str()));
                assert_eq!(&resp.body[..], &body[..]);
            }
            for id in [Some("uuid:1"), None] {
                for env in [soap_rpc::echo_request(v, "salut"), not_echo(v)] {
                    let env = addressed(env, "http://client:9000/cb", id);
                    let Ok(Echo::Reply { to, envelope }) = books.accept(ONE_WAY, &post(&env)) else {
                        panic!("an addressed one-way echo replies");
                    };
                    assert_eq!(to, Url::parse("http://client:9000/cb").unwrap());
                    assert_eq!(envelope.to_xml(), reference_reply(&env));
                }
            }
        }
        assert_eq!(books.accepted.get(), 12);
    }

    #[test]
    fn rpc_mode_echoes_on_same_connection() {
        let books = EchoCounters::default();
        let env = soap_rpc::echo_request(SoapVersion::V11, "bonjour");
        let echo = books.accept(EchoMode::Rpc, &post(&env)).unwrap();
        books.process(&echo);
        books.replied(1, true);
        let Echo::Response(resp) = echo else { panic!("{echo:?}") };
        let renv = Envelope::parse(&resp.body_utf8()).unwrap();
        assert_eq!(soap_rpc::parse_echo_response(&renv).unwrap(), "bonjour");
        assert_eq!(books.accepted.get(), 1);
        assert_eq!(books.replies_sent.get(), 1);
        books.assert_conserved();
    }

    #[test]
    fn oneway_replies_to_reply_to_endpoint() {
        let books = EchoCounters::default();
        let echo_req = soap_rpc::echo_request(SoapVersion::V11, "salut");
        let env = addressed(echo_req, "http://client:9000/cb", Some("uuid:1"));
        let echo = books.accept(ONE_WAY, &post(&env)).unwrap();
        books.process(&echo);
        let Echo::Reply { to, envelope } = echo else { panic!("{echo:?}") };
        assert_eq!((to.host.as_str(), to.port, to.path.as_str()), ("client", 9000, "/cb"));
        assert_eq!(soap_rpc::parse_echo_response(&envelope).unwrap(), "salut");
        let h = WsaHeaders::from_envelope(&envelope).unwrap();
        assert_eq!(h.to.as_deref(), Some("http://client:9000/cb"));
        assert_eq!(h.relates_to[0].0, "uuid:1", "RelatesTo must correlate");
        books.replied(1, true);
        books.assert_conserved();
    }

    #[test]
    fn oneway_without_an_address_is_finished_on_the_books() {
        let books = EchoCounters::default();
        let echo_req = |v| soap_rpc::echo_request(v, "x");
        let anonymous = addressed(echo_req(SoapVersion::V11), wsd_wsa::ANONYMOUS, Some("uuid:a"));
        let bare = echo_req(SoapVersion::V12);
        let unparseable = addressed(echo_req(SoapVersion::V11), "not a url", Some("uuid:u"));
        for (env, unaddressable) in [(anonymous, false), (bare, false), (unparseable, true)] {
            let echo = books.accept(ONE_WAY, &post(&env)).unwrap();
            assert_eq!(matches!(echo, Echo::Unaddressable), unaddressable, "{echo:?}");
            assert_eq!(matches!(echo, Echo::NoReply), !unaddressable, "{echo:?}");
            books.process(&echo);
        }
        assert_eq!((books.no_reply.get(), books.replies_blocked.get()), (2, 1));
        books.assert_conserved();
    }

    #[test]
    fn malformed_request_gets_400() {
        let books = EchoCounters::default();
        for mode in [EchoMode::Rpc, ONE_WAY] {
            let req = Request::soap_post("ws", "/echo", "text/xml", b"junk".to_vec());
            let resp = books.accept(mode, &req).unwrap_err();
            assert_eq!(resp.status, Status::BAD_REQUEST);
        }
        assert_eq!(books.accepted.get(), 0);
        books.assert_conserved();
    }
}
