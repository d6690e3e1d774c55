//! The echo Web Service, the paper's test service in both styles of
//! Table 1, decided once for both runtimes: [`EchoCounters::accept`]
//! answers a request, [`EchoCounters::process`] finishes it once its
//! service time is spent, and the driver counts what became of what it
//! sent. A driver keeps the time, the workers and the connections.

use std::sync::OnceLock;

use wsd_http::{Request, Response, Status};
use wsd_soap::{rpc as soap_rpc, Envelope, SoapVersion};
use wsd_telemetry::Counter;
use wsd_wsa::WsaHeaders;
use wsd_xml::escape::push_escaped_text;

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
#[derive(Debug, PartialEq, Eq)]
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
        /// The request's SOAP version, which the reply is written in.
        version: SoapVersion,
        /// The reply, serialised.
        xml: String,
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
    /// The writer's canonical echo request is answered off a scan;
    /// anything else is parsed into a tree.
    pub fn accept(&self, mode: EchoMode, req: &Request) -> Result<Echo, Response> {
        let src = req.body_utf8();
        let echo = scan(mode, &src)
            .or_else(|| tree(mode, &src))
            .ok_or_else(|| Response::empty(Status::BAD_REQUEST))?;
        self.accepted.inc();
        Ok(echo)
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

/// The reference answer: `src` parsed into a tree, the echo built as a
/// tree and serialised. `None` when `src` is not a SOAP envelope.
fn tree(mode: EchoMode, src: &str) -> Option<Echo> {
    let env = Envelope::parse(src).ok()?;
    let text = soap_rpc::parse_echo(&env).unwrap_or_default();
    let mut reply = soap_rpc::echo_response(env.version, &text);
    if mode == EchoMode::Rpc {
        let body = reply.to_xml().into_bytes();
        return Some(Echo::Response(Response::new(Status::OK, env.version.content_type(), body)));
    }
    let headers = WsaHeaders::from_envelope(&env).unwrap_or_default();
    let Some(reply_to) = headers.reply_to.filter(|r| !r.is_anonymous()) else {
        return Some(Echo::NoReply);
    };
    let Ok(to) = Url::parse(&reply_to.address) else {
        return Some(Echo::Unaddressable);
    };
    let mut h = WsaHeaders::new().to(reply_to.address);
    if let Some(id) = headers.message_id {
        h = h.relates_to(id);
    }
    h.apply(&mut reply);
    Some(Echo::Reply { to, version: env.version, xml: reply.to_xml() })
}

/// The scan path: the writer's canonical echo request of either SOAP
/// version, with no header or with one [`wsd_wsa::scan`] accepts,
/// answered with [`tree`]'s bytes and no tree built. `None` leaves the
/// request to the tree: any other body, and any text the tree would not
/// write back byte for byte (an entity reference, a `>` it writes as
/// `&gt;`, a CR), since the scan copies the text verbatim.
fn scan(mode: EchoMode, src: &str) -> Option<Echo> {
    let f = frames().iter().find(|f| src.starts_with(f.open.as_str()))?;
    let head = src.strip_suffix(f.tail.as_str())?;
    let text_at = head.rfind('>')? + 1;
    let text = &head[text_at..];
    if wsd_xml::swar::find_byte3(text.as_bytes(), b'<', b'&', b'\r').is_some() {
        return None;
    }
    let before = head[..text_at].strip_suffix(f.body.as_str())?;
    let wsa = if before.len() == f.open.len() {
        wsd_xml::splice::verify_element_with_prefixes(src, before.len(), &[f.version.prefix()])?;
        None
    } else {
        // A scan that accepts has verified that the Body element runs
        // from the end of the header block to `</P:Envelope>`; the only
        // such element ending in this tail is the one found above.
        Some(wsd_wsa::scan(src)?)
    };
    if mode == EchoMode::Rpc {
        let body = fill(&f.response, &[text]).into_bytes();
        return Some(Echo::Response(Response::new(Status::OK, f.version.content_type(), body)));
    }
    let wsa = wsa.as_ref();
    let Some(reply_to) = wsa.and_then(|w| w.reply_to()).filter(|&a| a != wsd_wsa::ANONYMOUS) else {
        return Some(Echo::NoReply);
    };
    let Ok(to) = Url::parse(reply_to) else {
        return Some(Echo::Unaddressable);
    };
    let xml = match wsa.and_then(|w| w.message_id()) {
        Some(id) => fill(&f.reply, &[reply_to, id, text]),
        None => fill(&f.reply_unrelated, &[reply_to, text]),
    };
    Some(Echo::Reply { to, version: f.version, xml })
}

/// Stands in for a value while [`Frames`] are serialised: the writer
/// copies it through as it is, and writes none of its own.
const HOLE: char = '\u{1}';

/// The bytes [`tree`]'s writer puts around the echo's values in one SOAP
/// version: each frame is the tree's own `to_xml()` with a [`HOLE`] for
/// every value, cut at the holes, so the scan path compares and writes
/// only what the tree writes.
struct Frames {
    version: SoapVersion,
    /// `<P:Envelope xmlns:P="…">`.
    open: String,
    /// `<P:Body><m:echo xmlns:m="urn:wsd:echo"><text>`.
    body: String,
    /// `</text></m:echo></P:Body></P:Envelope>`.
    tail: String,
    /// The RPC response, around the text.
    response: [String; 2],
    /// The one-way reply, around `To`, `RelatesTo` and the text.
    reply: [String; 4],
    /// The one-way reply to a request with no `MessageID`, around `To`
    /// and the text.
    reply_unrelated: [String; 3],
}

fn frames() -> &'static [Frames; 2] {
    static FRAMES: OnceLock<[Frames; 2]> = OnceLock::new();
    FRAMES.get_or_init(|| [SoapVersion::V11, SoapVersion::V12].map(Frames::new))
}

impl Frames {
    fn new(version: SoapVersion) -> Frames {
        let hole = HOLE.to_string();
        let reply = |related: bool| {
            let mut env = soap_rpc::echo_response(version, &hole);
            let h = WsaHeaders::new().to(hole.as_str());
            let h = if related { h.relates_to(hole.as_str()) } else { h };
            h.apply(&mut env);
            env
        };
        let [head, tail] = cut(&soap_rpc::echo_request(version, &hole));
        let open_len = head.find('>').expect("an envelope open tag") + 1;
        Frames {
            version,
            open: head[..open_len].to_string(),
            body: head[open_len..].to_string(),
            tail,
            response: cut(&soap_rpc::echo_response(version, &hole)),
            reply: cut(&reply(true)),
            reply_unrelated: cut(&reply(false)),
        }
    }
}

/// `env` serialised and cut at its holes.
fn cut<const N: usize>(env: &Envelope) -> [String; N] {
    let parts: Vec<String> = env.to_xml().split(HOLE).map(str::to_string).collect();
    parts.try_into().expect("one hole per value")
}

/// `frame` with `values` in its holes, escaped as the writer escapes
/// text, in one `String` sized for them.
fn fill(frame: &[String], values: &[&str]) -> String {
    let len = frame.iter().map(String::len).sum::<usize>()
        + values.iter().map(|v| v.len()).sum::<usize>();
    let mut out = String::with_capacity(len);
    for (piece, value) in frame.iter().zip(values) {
        out.push_str(piece);
        push_escaped_text(value, &mut out);
    }
    out.push_str(&frame[values.len()]);
    out
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
    use proptest::prelude::*;
    use wsd_soap::rpc::RpcCall;
    use wsd_wsa::{EndpointReference, ANONYMOUS};

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
                    let Ok(Echo::Reply { to, xml, .. }) = books.accept(ONE_WAY, &post(&env)) else {
                        panic!("an addressed one-way echo replies");
                    };
                    assert_eq!(to, Url::parse("http://client:9000/cb").unwrap());
                    assert_eq!(xml, reference_reply(&env));
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
        let Echo::Reply { to, version, xml } = echo else { panic!("{echo:?}") };
        assert_eq!(version, SoapVersion::V11);
        let envelope = Envelope::parse(&xml).unwrap();
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

    #[test]
    fn the_scan_answers_the_paper_and_the_backlog_echoes() {
        // The paper's 263 B echo, as a client sends it over RPC, and a
        // 4 KiB echo as the MSG-Dispatcher forwards it (`backlog_durable`).
        let paper = soap_rpc::paper_echo_request().to_xml();
        assert_eq!(paper.len(), soap_rpc::PAPER_XML_BYTES);
        let mut backlog = soap_rpc::echo_request(SoapVersion::V11, &"k7".repeat(2048));
        WsaHeaders::new()
            .to("http://ws:8888/echo")
            .reply_to(EndpointReference::new("http://dispatcher:8080/msg"))
            .action("urn:wsd:echo:echo")
            .message_id("uuid:0000000000000001-0-1")
            .apply(&mut backlog);
        let backlog = backlog.to_xml();
        let answered = [(EchoMode::Rpc, &paper), (EchoMode::Rpc, &backlog), (ONE_WAY, &backlog)];
        for (mode, xml) in answered {
            let scanned = scan(mode, xml).expect("the scan answers");
            assert_eq!(Some(scanned), tree(mode, xml));
        }
        assert!(matches!(scan(ONE_WAY, &backlog), Some(Echo::Reply { .. })));
        // What the scan declines, the tree answers.
        for declined in [
            soap_rpc::echo_request(SoapVersion::V11, "a &amp; b").to_xml(),
            soap_rpc::echo_request(SoapVersion::V11, "1 > 0").to_xml(),
            soap_rpc::echo_request(SoapVersion::V11, "cr\r").to_xml(),
            RpcCall::new("urn:other", "ping").to_envelope(SoapVersion::V11).to_xml(),
            paper.replace("<text>", "<text >"),
        ] {
            assert_eq!(scan(EchoMode::Rpc, &declined), None, "{declined}");
            assert!(tree(EchoMode::Rpc, &declined).is_some(), "{declined}");
        }
    }

    /// One request the differential sends: its SOAP version, text and
    /// addressing headers, written by the tree writer.
    fn generated(
        v12: bool,
        text: &str,
        reply_to: Option<&str>,
        id: Option<&str>,
        action: bool,
    ) -> String {
        let version = if v12 { SoapVersion::V12 } else { SoapVersion::V11 };
        let mut env = soap_rpc::echo_request(version, text);
        let h = WsaHeaders {
            reply_to: reply_to.map(EndpointReference::new),
            message_id: id.map(str::to_string),
            action: action.then(|| "urn:wsd:echo:echo".to_string()),
            ..WsaHeaders::new()
        };
        h.apply(&mut env);
        env.to_xml()
    }

    /// `xml` with `edit` applied at the char boundary at or before `at`
    /// (modulo its length): 0 inserts `piece`, 1 removes a char, 2
    /// replaces one with `piece`.
    fn mutated(xml: &str, at: usize, edit: u8, piece: &str) -> String {
        let mut at = at % (xml.len() + 1);
        while !xml.is_char_boundary(at) {
            at -= 1;
        }
        let next = xml[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        match edit {
            0 => format!("{}{piece}{}", &xml[..at], &xml[at..]),
            1 => format!("{}{}", &xml[..at], &xml[next..]),
            _ => format!("{}{piece}{}", &xml[..at], &xml[next..]),
        }
    }

    const REPLY_TOS: [&str; 5] = [
        ANONYMOUS,
        "http://client:9000/cb",
        "http://msgbox:8082/deposit/mbox-1",
        "not a url",
        "http://h/a&b<c>",
    ];
    const IDS: [&str; 3] = ["uuid:c1-7", "uuid:<&>", ""];
    const PIECES: [&str; 12] =
        ["<", ">", "&", "&amp;", " ", "/", "\"", "x", "\r", "<x/>", "</text>", "<wsa:To>"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Wherever the scan answers, it answers what the tree does,
        /// byte for byte, in both modes and both SOAP versions; and it
        /// does answer every canonical request whose text it can copy.
        #[test]
        fn the_scan_answers_as_the_tree_does(
            v12 in any::<bool>(),
            text in "(a|é|世|<|>|&|\\r|\\n| |x|\u{1}){0,12}",
            reply_to in prop::option::of(0..REPLY_TOS.len()),
            id in prop::option::of(0..IDS.len()),
            action in any::<bool>(),
            edit in prop::option::of((any::<usize>(), 0u8..3, 0..PIECES.len())),
        ) {
            let canonical =
                generated(v12, &text, reply_to.map(|i| REPLY_TOS[i]), id.map(|i| IDS[i]), action);
            let xml = match edit {
                Some((at, kind, piece)) => mutated(&canonical, at, kind, PIECES[piece]),
                None => canonical.clone(),
            };
            for mode in [EchoMode::Rpc, ONE_WAY] {
                let scanned = scan(mode, &xml);
                if scanned.is_some() {
                    prop_assert_eq!(&scanned, &tree(mode, &xml), "{}", xml);
                }
                if xml == canonical && !text.contains(['<', '>', '&', '\r']) {
                    prop_assert!(scanned.is_some(), "declined {}", xml);
                }
            }
        }
    }
}
