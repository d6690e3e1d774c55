//! One scenario table, two runtimes.
//!
//! Every row is data: what to stand up, the requests a client sends, what
//! each answer must look like, what must arrive at the client's reply
//! endpoint, and where the components' books must stand at quiescence.
//! One executor runs a row on the simulated runtime (a scripted
//! [`Process`] client over `wsd_netsim`), the other on the threaded
//! runtime ([`HttpClient`] over `rt::Network`). The rows cover the
//! decisions `wsd-core` makes once for both runtimes — the echo service
//! in both styles, the mailbox request handler, the RPC exchange (its answer and which endpoints it
//! leaves live), the MSG-Dispatcher's rejects and drops (a row of its own
//! for each `RejectReason` and `DropReason`), the RPC-reply translation,
//! and the per-destination link machine's connect / write / retry /
//! give-up policy (a connection lost under a batch, a dead destination
//! with a backlog, a full queue, a reconnect under quadrant 3) — so a
//! drift between the two drivers fails here first.
//!
//! Where the runtimes still differ on purpose the row says so in `differs`
//! and pins each side's answer: a full destination queue is acked and
//! dropped in sim and refused in rt, because Fig. 6 reproduces sim's
//! answer.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ws_dispatcher::core::config::{DispatcherConfig, MsgBoxConfig, MsgBoxStrategy};
use ws_dispatcher::core::echo::EchoCounters;
use ws_dispatcher::core::msg::{DropReason, MsgCore, MsgCounters, RejectReason};
use ws_dispatcher::core::msgbox::ops;
use ws_dispatcher::core::registry::Registry;
use ws_dispatcher::core::rpc::RpcCounters;
use ws_dispatcher::core::rt::{
    EchoServer, MsgBoxServer, MsgDispatcherServer, Network, RpcDispatcherServer,
};
use ws_dispatcher::core::security::{PolicyChain, TokenAuth};
use ws_dispatcher::core::sim::{
    request_payload, response_payload, EchoMode, SimEchoService, SimMsgBox, SimMsgBoxStats,
    SimMsgDispatcher, SimRpcDispatcher,
};
use ws_dispatcher::core::url::Url;
use ws_dispatcher::http::{
    parse_request_bytes, parse_response_bytes, serve_connection, write_response, HttpClient,
    Limits, MessageReader, PipeStream, Request, Response, Status,
};
use ws_dispatcher::netsim::{
    ConnId, Ctx, FirewallPolicy, HostConfig, HostId, ProcEvent, Process, SimDuration, Simulation,
};
use ws_dispatcher::soap::{rpc as soap_rpc, Envelope, SoapVersion};
use ws_dispatcher::wsa::{EndpointReference, WsaHeaders};

const V11: SoapVersion = SoapVersion::V11;

type Addr = (&'static str, u16);
const WS: Addr = ("ws", 8888);
const RPC: Addr = ("dispatcher", 8081);
const MSG: Addr = ("dispatcher", 8080);
const MBOX: Addr = ("msgbox", 8082);
const CLIENT: Addr = ("client", 9000);

// ---------------------------------------------------------------------
// The table's vocabulary
// ---------------------------------------------------------------------

/// What listens on `ws:8888`.
#[derive(Debug, Clone, Copy)]
enum Service {
    /// Nothing: connects are refused.
    Dead,
    /// The RPC-style echo service, answering after this many milliseconds.
    Echo(u64),
    /// The one-way echo service (Table 1 quadrant 4): acknowledges with
    /// `202` and posts its reply to the request's `ReplyTo`.
    OneWayEcho,
    /// An RPC-style echo whose `200` already carries `RelatesTo`.
    CorrelatingEcho,
    /// Answers the first `answers` requests it ever reads (`rpc`: with the
    /// echo's `200`, else with a bare `202`), drops the connection on
    /// reading the next one without answering it, and answers everything
    /// on later connections. On the threaded runtime the very first answer
    /// takes 100 ms, so what the client sends meanwhile reaches it as one
    /// pipelined batch.
    ClosesAfter { answers: usize, rpc: bool },
    /// Never takes a message: a firewalled host whose connects time out in
    /// sim, a listener that accepts and never reads in rt.
    Wedged,
    /// Acknowledges every request with a bare `202`, but is slow to take
    /// the first: its host is 100 ms away in sim, so a connect to it takes
    /// two of those, and in rt its first answer takes 100 ms.
    SlowAck,
}

/// Where a one-way message asks for its reply.
#[derive(Debug, Clone, Copy)]
enum ReplyTo {
    /// The client's own listener, `client:9000`.
    Callback,
    /// The mailbox the conversation created.
    Mailbox,
}

/// One client request.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// SOAP-RPC echo of this text through the RPC-Dispatcher at `/svc/Echo`.
    Call(&'static str),
    /// WS-MsgBox `create`; the conversation remembers the box and its key.
    Create,
    /// `POST /deposit/<box>` of this body.
    Deposit(&'static str),
    /// A deposit aimed at a mailbox nobody created.
    DepositToMissingBox(&'static str),
    /// WS-MsgBox `fetch` of up to ten messages.
    Fetch,
    /// A `fetch` presenting the wrong access key.
    FetchWithWrongKey,
    /// `Fetch`, repeated until it hands out something.
    Poll,
    /// WS-MsgBox `destroy`.
    Destroy,
    /// A one-way echo request `(MessageID, text, ReplyTo)` through the
    /// MSG-Dispatcher.
    OneWay(&'static str, &'static str, ReplyTo),
    /// A one-way message with no WS-Addressing headers at all.
    Unroutable,
    /// A one-way message whose body is not a SOAP envelope.
    NotAnEnvelope,
    /// Sends nothing for 50 ms (virtual in sim), so a WsThread has taken
    /// what was queued before the next step; "answered" with status 0.
    Pause,
}

/// What one answer must look like.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// This status, whatever the body.
    Status(u16),
    /// `200` carrying the echo of this text.
    Echo(&'static str),
    /// This status carrying a SOAP fault whose reason contains the text.
    Fault(u16, &'static str),
    /// `200` `createResponse`.
    Created,
    /// `200` `fetchResponse` handing out exactly these bodies, in order.
    Fetched(&'static [&'static str]),
    /// `200` `fetchResponse` handing out one echo reply `(text, RelatesTo)`.
    FetchedReply(&'static str, &'static str),
    /// `200` `destroyResponse`.
    Destroyed,
    /// The runtimes answer differently on purpose (see the row's
    /// `differs`): `(sim, rt)`.
    PerRuntime(&'static Expect, &'static Expect),
}

/// The components' books at quiescence.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Books {
    rpc: RpcBooks,
    mailbox: MailboxBooks,
    msg: MsgBooks,
    echo: EchoBooks,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct RpcBooks {
    received: u64,
    forwarded: u64,
    relayed: u64,
    refused: u64,
    upstream_failures: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct MailboxBooks {
    deposits: u64,
    fetched: u64,
    /// Messages still in the conversation's mailbox, measured by draining
    /// it after the books are read.
    resident: u64,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct MsgBooks {
    forwarded: u64,
    replies_routed: u64,
    delivered: u64,
    dropped: u64,
    rejected: u64,
    /// `dropped` by reason, in `DropReason::ALL` order.
    dropped_by: [u64; 2],
    /// `rejected` by reason, in `RejectReason::ALL` order.
    rejected_by: [u64; 4],
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct EchoBooks {
    accepted: u64,
    processed: u64,
    replies_sent: u64,
    replies_blocked: u64,
    no_reply: u64,
}

impl Books {
    /// Only the RPC-Dispatcher saw traffic; arguments in field order.
    fn rpc(received: u64, forwarded: u64, relayed: u64, refused: u64, failures: u64) -> Books {
        let rpc = RpcBooks {
            received,
            forwarded,
            relayed,
            refused,
            upstream_failures: failures,
        };
        Books {
            rpc,
            ..Books::default()
        }
    }

    /// Only WS-MsgBox saw traffic.
    fn mailbox(deposits: u64, fetched: u64, resident: u64) -> Books {
        let mailbox = MailboxBooks {
            deposits,
            fetched,
            resident,
        };
        Books {
            mailbox,
            ..Books::default()
        }
    }

    /// The MSG-Dispatcher's books, on top of `self`, with nothing
    /// dropped or rejected; arguments in field order.
    fn msg(self, forwarded: u64, replies_routed: u64, delivered: u64) -> Books {
        let msg = MsgBooks {
            forwarded,
            replies_routed,
            delivered,
            ..MsgBooks::default()
        };
        Books { msg, ..self }
    }

    /// `n` more messages the MSG-Dispatcher dropped for `reason`.
    fn dropped(mut self, reason: DropReason, n: u64) -> Books {
        self.msg.dropped += n;
        self.msg.dropped_by[reason as usize] += n;
        self
    }

    /// `n` more messages the MSG-Dispatcher rejected for `reason`.
    fn rejected(mut self, reason: RejectReason, n: u64) -> Books {
        self.msg.rejected += n;
        self.msg.rejected_by[reason as usize] += n;
        self
    }

    /// The echo service's books, on top of `self`; arguments in field
    /// order.
    fn echo(self, accepted: u64, processed: u64, sent: u64, blocked: u64, no_reply: u64) -> Books {
        let echo = EchoBooks {
            accepted,
            processed,
            replies_sent: sent,
            replies_blocked: blocked,
            no_reply,
        };
        Books { echo, ..self }
    }
}

/// One row.
struct Scenario {
    name: &'static str,
    service: Service,
    /// Whether the registry maps `Echo` to `ws:8888`.
    registered: bool,
    /// `Echo` is a farm whose first endpoint, `ws:1`, has no listener,
    /// ahead of `ws:8888`.
    dead_primary: bool,
    /// How many of `Echo`'s endpoints the registry holds live at the end,
    /// where the row pins it.
    live_endpoints: Option<usize>,
    /// The dispatchers' `response_timeout`: the RPC-Dispatcher's wait for
    /// a service's answer, and the threaded MSG-Dispatcher's for each
    /// answer on a destination connection.
    response_timeout_ms: u64,
    /// The client host accepts no inbound connection.
    firewalled_client: bool,
    /// WS-MsgBox in the paper's thread-per-message design.
    thread_per_message: bool,
    /// The MSG-Dispatcher admits only messages carrying its auth token,
    /// which no step sends.
    requires_token: bool,
    script: Vec<(Step, Expect)>,
    /// rt sends the script from this step on as one pipelined run on one
    /// connection; sim sends it one by one.
    pipeline_from: Option<usize>,
    /// Capacity of each destination queue of the MSG-Dispatcher, where
    /// the row needs it small.
    queue_capacity: Option<usize>,
    /// `(echoed text, RelatesTo)` of each message that must reach the
    /// client's reply endpoint.
    delivered: &'static [(&'static str, &'static str)],
    /// `(echo text, at least, at most)`: how often each one-way message
    /// must be read by a `ClosesAfter` service.
    arrivals: &'static [(&'static str, usize, usize)],
    books: Books,
    /// The threaded runtime's books, where they differ on purpose.
    rt_books: Option<Books>,
    /// The books must not reach their final state sooner than this after
    /// the row started (virtual time in sim): a retry after the backoff
    /// came first.
    gives_up_after_ms: u64,
    /// What the runtimes do differently here, on purpose, and this table
    /// pins rather than reconciles (ROADMAP item 2).
    differs: &'static [&'static str],
    /// A bug this row exposes at the parent commit, fixed with the table.
    fixed_here: Option<&'static str>,
}

impl Scenario {
    fn new(name: &'static str, script: Vec<(Step, Expect)>) -> Scenario {
        Scenario {
            name,
            service: Service::Echo(0),
            registered: true,
            dead_primary: false,
            live_endpoints: None,
            response_timeout_ms: 30_000,
            firewalled_client: false,
            thread_per_message: false,
            requires_token: false,
            script,
            pipeline_from: None,
            queue_capacity: None,
            delivered: &[],
            arrivals: &[],
            books: Books::default(),
            rt_books: None,
            gives_up_after_ms: 0,
            differs: &[],
            fixed_here: None,
        }
    }

    fn destroys(&self) -> bool {
        self.script
            .iter()
            .any(|(step, _)| matches!(step, Step::Destroy))
    }
}

fn mailbox_lifecycle() -> Vec<(Step, Expect)> {
    vec![
        (Step::Create, Expect::Created),
        (Step::Deposit("<a/>"), Expect::Status(202)),
        (Step::Deposit("<b/>"), Expect::Status(202)),
        (Step::Fetch, Expect::Fetched(&["<a/>", "<b/>"])),
        (Step::Fetch, Expect::Fetched(&[])),
        (
            Step::FetchWithWrongKey,
            Expect::Fault(200, "wrong mailbox access key"),
        ),
        (Step::DepositToMissingBox("<lost/>"), Expect::Status(404)),
        (Step::Destroy, Expect::Destroyed),
    ]
}

fn table() -> Vec<Scenario> {
    let call = Step::Call("hello");
    let timed_out = Expect::Fault(502, "upstream failure: response timed out");
    let connect_failed = Expect::Fault(502, "upstream failure: connect failed");
    vec![
        Scenario {
            books: Books::rpc(1, 1, 1, 0, 0).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "RPC client, RPC service: forwarded and relayed (Table 1 quadrant 1)",
                vec![(call, Expect::Echo("hello"))],
            )
        },
        Scenario {
            registered: false,
            books: Books::rpc(1, 0, 0, 1, 0),
            ..Scenario::new(
                "unknown logical service is refused with 404",
                vec![(call, Expect::Fault(404, "unknown logical service"))],
            )
        },
        Scenario {
            service: Service::Dead,
            live_endpoints: Some(0),
            books: Books::rpc(2, 0, 0, 1, 1),
            fixed_here: Some(
                "sim's RPC-Dispatcher never marked an endpoint down: its second call was \
                 another 502 where rt's was a 404",
            ),
            ..Scenario::new(
                "dead upstream is a 502 that marks it down: the next call is a 404",
                vec![
                    (call, connect_failed),
                    (call, Expect::Fault(404, "no live endpoint")),
                ],
            )
        },
        Scenario {
            dead_primary: true,
            live_endpoints: Some(1),
            books: Books::rpc(2, 1, 1, 0, 1).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "a farm whose first endpoint has no listener: 502, then 200 from the live one",
                vec![(call, connect_failed), (call, Expect::Echo("hello"))],
            )
        },
        Scenario {
            service: Service::Echo(300),
            response_timeout_ms: 50,
            live_endpoints: Some(1),
            // Both answers come after the dispatcher has hung up.
            books: Books::rpc(2, 2, 0, 0, 2).echo(2, 2, 0, 2, 0),
            fixed_here: Some(
                "rt marked an endpoint down on any upstream failure and nothing marks it \
                 up again: after one timeout the second answer was 404 and refused == 1",
            ),
            ..Scenario::new(
                "upstream slower than the response timeout, twice in a row: 502 and 502",
                vec![(call, timed_out), (call, timed_out)],
            )
        },
        Scenario {
            books: Books::mailbox(2, 2, 0),
            ..Scenario::new(
                "mailbox create, deposit x2, fetch in order, fetch empty, wrong key, \
                 missing box, destroy",
                mailbox_lifecycle(),
            )
        },
        Scenario {
            thread_per_message: true,
            books: Books::mailbox(2, 2, 0),
            ..Scenario::new(
                "the same mailbox conversation against the thread-per-message design",
                mailbox_lifecycle(),
            )
        },
        Scenario {
            pipeline_from: Some(1),
            books: Books::mailbox(4, 3, 1),
            ..Scenario::new(
                "pipelined deposit-deposit-fetch-deposit-fetch-deposit on one connection",
                vec![
                    (Step::Create, Expect::Created),
                    (Step::Deposit("<a/>"), Expect::Status(202)),
                    (Step::Deposit("<b/>"), Expect::Status(202)),
                    (Step::Fetch, Expect::Fetched(&["<a/>", "<b/>"])),
                    (Step::Deposit("<c/>"), Expect::Status(202)),
                    (Step::Fetch, Expect::Fetched(&["<c/>"])),
                    (Step::Deposit("<d/>"), Expect::Status(202)),
                ],
            )
        },
        Scenario {
            delivered: &[("q3", "uuid:q3-plain")],
            books: Books::default().msg(1, 1, 2).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "MSG client, RPC service (Table 1 quadrant 3): the 200 is translated into \
                 a reply and RelatesTo injected",
                vec![(
                    Step::OneWay("uuid:q3-plain", "q3", ReplyTo::Callback),
                    Expect::Status(202),
                )],
            )
        },
        Scenario {
            service: Service::CorrelatingEcho,
            delivered: &[("q3", "uuid:q3-self")],
            books: Books::default().msg(1, 1, 2),
            ..Scenario::new(
                "quadrant 3 with a service whose 200 already correlates itself",
                vec![(
                    Step::OneWay("uuid:q3-self", "q3", ReplyTo::Callback),
                    Expect::Status(202),
                )],
            )
        },
        Scenario {
            firewalled_client: true,
            books: Books::mailbox(1, 1, 0).msg(1, 1, 2).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "Figure 1 with an RPC service: a firewalled client converses through \
                 dispatcher and mailbox",
                figure1(),
            )
        },
        Scenario {
            firewalled_client: true,
            books: Books::default()
                .msg(1, 1, 1)
                .dropped(DropReason::GivenUp, 1)
                .echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "a reply to a firewalled client with no mailbox is dropped, on the books",
                vec![(
                    Step::OneWay("uuid:fw", "lost", ReplyTo::Callback),
                    Expect::Status(202),
                )],
            )
        },
        Scenario {
            service: Service::OneWayEcho,
            firewalled_client: true,
            books: Books::mailbox(1, 1, 0).msg(1, 1, 2).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "Figure 1: a firewalled client converses with a one-way service through \
                 dispatcher and mailbox (Table 1 quadrant 4)",
                figure1(),
            )
        },
        Scenario {
            service: Service::OneWayEcho,
            delivered: &[("q4", "uuid:q4")],
            books: Books::default().msg(1, 1, 2).echo(1, 1, 1, 0, 0),
            ..Scenario::new(
                "a one-way service's reply reaches the client's callback through the \
                 dispatcher, correlated",
                vec![one_way("uuid:q4", "q4")],
            )
        },
        Scenario {
            service: Service::OneWayEcho,
            firewalled_client: true,
            books: Books::default()
                .msg(1, 1, 1)
                .dropped(DropReason::GivenUp, 1)
                .echo(1, 1, 1, 0, 0),
            gives_up_after_ms: 500,
            ..Scenario::new(
                "a one-way service's reply to a firewalled client with no mailbox is \
                 dropped after one retry, on the books",
                vec![one_way("uuid:q4-fw", "lost")],
            )
        },
        Scenario {
            books: Books::default().rejected(RejectReason::NoDestination, 1),
            fixed_here: Some("sim answered an empty 400 where rt answered the fault"),
            ..Scenario::new(
                "a one-way message with no destination is rejected with a 400 fault",
                vec![(Step::Unroutable, Expect::Fault(400, "no destination"))],
            )
        },
        Scenario {
            registered: false,
            books: Books::default().rejected(RejectReason::UnknownService, 1),
            ..Scenario::new(
                "a one-way message to an unknown logical service is rejected with a 404 fault",
                vec![(
                    Step::OneWay("uuid:unknown", "nowhere", ReplyTo::Callback),
                    Expect::Fault(404, "unknown logical service"),
                )],
            )
        },
        Scenario {
            requires_token: true,
            books: Books::default().rejected(RejectReason::Policy, 1),
            ..Scenario::new(
                "a one-way message without the auth token the security policy requires is \
                 rejected with a 400 fault",
                vec![(
                    Step::OneWay("uuid:no-token", "intruder", ReplyTo::Callback),
                    Expect::Fault(400, "missing wsd:AuthToken"),
                )],
            )
        },
        Scenario {
            books: Books::default().rejected(RejectReason::Unreadable, 1),
            ..Scenario::new(
                "a one-way message that is not a SOAP envelope is rejected with a 400 fault",
                vec![(Step::NotAnEnvelope, Expect::Fault(400, "SOAP error"))],
            )
        },
        Scenario {
            service: Service::ClosesAfter {
                answers: 3,
                rpc: false,
            },
            pipeline_from: Some(1),
            arrivals: &[
                ("primer", 1, 1),
                ("m0", 1, 1),
                ("m1", 1, 1),
                ("m2", 1, 2),
                ("m3", 1, 2),
            ],
            books: Books::default().msg(5, 0, 5),
            fixed_here: Some(
                "rt resent the whole batch after any transport error, so the two messages \
                 the destination had already answered reached it twice",
            ),
            ..Scenario::new(
                "a destination answers two of a pipelined batch of four, then drops the \
                 connection: the answered ones are finished, the rest are resent once",
                vec![
                    one_way("uuid:k-primer", "primer"),
                    one_way("uuid:k-0", "m0"),
                    one_way("uuid:k-1", "m1"),
                    one_way("uuid:k-2", "m2"),
                    one_way("uuid:k-3", "m3"),
                ],
            )
        },
        Scenario {
            firewalled_client: true,
            books: Books::default()
                .msg(3, 3, 3)
                .dropped(DropReason::GivenUp, 3)
                .echo(3, 3, 3, 0, 0),
            gives_up_after_ms: 500,
            ..Scenario::new(
                "a dead destination with a backlog: one retry after the backoff, then \
                 every queued reply is dropped together",
                vec![
                    one_way("uuid:dead-0", "r0"),
                    one_way("uuid:dead-1", "r1"),
                    one_way("uuid:dead-2", "r2"),
                ],
            )
        },
        Scenario {
            service: Service::SlowAck,
            queue_capacity: Some(1),
            arrivals: &[("q0", 1, 1), ("q1", 0, 1), ("q2", 0, 0)],
            books: Books::default().msg(3, 0, 1).dropped(DropReason::QueueFull, 2),
            rt_books: Some(Books::default().msg(3, 0, 2).dropped(DropReason::QueueFull, 1)),
            differs: &[
                "a full destination queue: sim acks 202 on receipt and then drops, rt offers \
                 first and answers 503 (as in the next row)",
                "sim keeps the first message queued while it connects, so the next two find \
                 the queue full; rt's WsThread has taken the first and waits for its answer, \
                 so only the third does",
            ],
            ..Scenario::new(
                "a destination slow to take its first message: what overflows its queue \
                 meanwhile is dropped, on the books, and the rest is delivered",
                vec![
                    one_way("uuid:slow-0", "q0"),
                    (Step::Pause, Expect::Status(0)),
                    one_way("uuid:slow-1", "q1"),
                    (
                        Step::OneWay("uuid:slow-2", "q2", ReplyTo::Callback),
                        Expect::PerRuntime(&Expect::Status(202), &Expect::Status(503)),
                    ),
                ],
            )
        },
        Scenario {
            service: Service::Wedged,
            queue_capacity: Some(1),
            // rt waits this long for each answer the wedged destination
            // never sends; sim's MSG-Dispatcher has no such wait.
            response_timeout_ms: 200,
            books: Books::default()
                .msg(3, 0, 0)
                .dropped(DropReason::QueueFull, 2)
                .dropped(DropReason::GivenUp, 1),
            rt_books: Some(Books::default().msg(3, 0, 2).dropped(DropReason::QueueFull, 1)),
            differs: &[
                "a full destination queue: sim acks 202 on receipt and then drops (the 2004 \
                 implementation, kept because Fig. 6 reproduces it: 59 712 of the 74 816 \
                 messages its dispatcher loses, 80 %, are lost to a full queue), rt offers \
                 first and answers 503",
                "rt's destination accepts and never reads, so the first message is written \
                 with the second queued behind it; each is written once more after its \
                 answer times out and is on the books as delivered once that one times out \
                 too. sim's is firewalled, so everything stays queued until the connect \
                 retries are exhausted and is given up together",
            ],
            ..Scenario::new(
                "a full destination queue behind a wedged destination drops the message, \
                 on the books",
                vec![
                    one_way("uuid:full-0", "q0"),
                    (Step::Pause, Expect::Status(0)),
                    one_way("uuid:full-1", "q1"),
                    (
                        Step::OneWay("uuid:full-2", "q2", ReplyTo::Callback),
                        Expect::PerRuntime(&Expect::Status(202), &Expect::Status(503)),
                    ),
                ],
            )
        },
        Scenario {
            service: Service::ClosesAfter {
                answers: 0,
                rpc: true,
            },
            delivered: &[("a", "uuid:q3-a"), ("b", "uuid:q3-b")],
            books: Books::default().msg(2, 2, 4),
            fixed_here: Some(
                "sim kept the MessageID of a request whose connection closed under it, \
                 never resent that request, and correlated the next 200 with the stale id: \
                 the one reply that arrived carried the other request's RelatesTo",
            ),
            ..Scenario::new(
                "quadrant 3 across a reconnect: every reply carries its own request's \
                 MessageID",
                vec![
                    one_way("uuid:q3-a", "a"),
                    (Step::Pause, Expect::Status(0)),
                    one_way("uuid:q3-b", "b"),
                ],
            )
        },
    ]
}

/// Figure 1: create a mailbox, send a one-way request whose reply goes
/// there, poll until the correlated reply is picked up.
fn figure1() -> Vec<(Step, Expect)> {
    let (id, text) = ("uuid:fig1", "behind the firewall");
    vec![
        (Step::Create, Expect::Created),
        (Step::OneWay(id, text, ReplyTo::Mailbox), Expect::Status(202)),
        (Step::Poll, Expect::FetchedReply(text, id)),
    ]
}

/// A one-way echo request asking for its reply at the client's callback,
/// acknowledged with `202`.
fn one_way(id: &'static str, text: &'static str) -> (Step, Expect) {
    (
        Step::OneWay(id, text, ReplyTo::Callback),
        Expect::Status(202),
    )
}

// ---------------------------------------------------------------------
// What both executors share: building requests, judging answers
// ---------------------------------------------------------------------

/// What the client has learnt so far: its mailbox and the key to it.
#[derive(Debug, Default, Clone)]
struct Conversation {
    box_id: String,
    key: String,
}

/// One answer as the client saw it.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    body: String,
}

impl Reply {
    fn of(resp: &Response) -> Reply {
        Reply {
            status: resp.status.0,
            body: resp.body_utf8().into_owned(),
        }
    }

    fn fetched(&self) -> Option<Vec<String>> {
        let bodies = ops::fetched_bodies(&self.body)?;
        Some(bodies.into_iter().map(Cow::into_owned).collect())
    }
}

fn soap_post(to: Addr, path: &str, body: String) -> Request {
    Request::soap_post(
        &format!("{}:{}", to.0, to.1),
        path,
        V11.content_type(),
        body.into_bytes(),
    )
}

impl Step {
    /// The listener this step talks to and the request it sends there.
    fn request(&self, conv: &Conversation) -> (Addr, Request) {
        match *self {
            Step::Call(text) => {
                let env = soap_rpc::echo_request(V11, text);
                (RPC, soap_post(RPC, "/svc/Echo", env.to_xml()))
            }
            Step::Create => (MBOX, soap_post(MBOX, "/msgbox", ops::create(V11).to_xml())),
            Step::Deposit(body) => {
                let path = format!("/deposit/{}", conv.box_id);
                (MBOX, soap_post(MBOX, &path, body.to_string()))
            }
            Step::DepositToMissingBox(body) => (
                MBOX,
                soap_post(MBOX, "/deposit/mbox-missing", body.to_string()),
            ),
            Step::Fetch | Step::FetchWithWrongKey => {
                let wrong_key = matches!(self, Step::FetchWithWrongKey);
                let key = if wrong_key { "key-wrong" } else { &conv.key };
                let env = ops::fetch(V11, &conv.box_id, key, 10);
                (MBOX, soap_post(MBOX, "/msgbox", env.to_xml()))
            }
            Step::Poll => Step::Fetch.request(conv),
            Step::Destroy => {
                let env = ops::destroy(V11, &conv.box_id, &conv.key);
                (MBOX, soap_post(MBOX, "/msgbox", env.to_xml()))
            }
            Step::OneWay(id, text, reply_to) => {
                let reply_to = match reply_to {
                    ReplyTo::Callback => format!("http://{}:{}/cb", CLIENT.0, CLIENT.1),
                    ReplyTo::Mailbox => {
                        format!("http://{}:{}/deposit/{}", MBOX.0, MBOX.1, conv.box_id)
                    }
                };
                let mut env = soap_rpc::echo_request(V11, text);
                WsaHeaders::new()
                    .to("http://dispatcher/svc/Echo")
                    .reply_to(EndpointReference::new(reply_to))
                    .message_id(id)
                    .apply(&mut env);
                (MSG, soap_post(MSG, "/msg", env.to_xml()))
            }
            Step::Unroutable => (
                MSG,
                soap_post(MSG, "/msg", soap_rpc::echo_request(V11, "nowhere").to_xml()),
            ),
            Step::NotAnEnvelope => (MSG, soap_post(MSG, "/msg", "not an envelope".to_string())),
            Step::Pause => unreachable!("a pause sends nothing"),
        }
    }

    /// Whether `reply` ends this step (a `Poll` goes on until the mailbox
    /// hands something out).
    fn answered_by(&self, reply: &Reply) -> bool {
        !matches!(self, Step::Poll) || reply.fetched().is_none_or(|got| !got.is_empty())
    }
}

impl Conversation {
    /// Remembers the mailbox a `create` answered with.
    fn learn(&mut self, step: &Step, reply: &Reply) {
        if let Step::Create = step {
            let created = Envelope::parse(&reply.body)
                .ok()
                .and_then(|env| ops::parse_create_response(&env));
            if let Some((box_id, key)) = created {
                *self = Conversation { box_id, key };
            }
        }
    }
}

/// The echoed text and the first `RelatesTo` of a serialized echo reply.
fn echo_reply(xml: &str) -> (String, String) {
    let env = Envelope::parse(xml).expect("a reply envelope");
    let text = soap_rpc::parse_echo_response(&env).expect("an echo response");
    let headers = WsaHeaders::from_envelope(&env).expect("WS-Addressing headers");
    let relates_to = headers
        .relates_to
        .first()
        .map(|(id, _)| id.clone())
        .unwrap_or_default();
    (text, relates_to)
}

impl Expect {
    fn check(&self, reply: &Reply, on_sim: bool, at: &str) {
        let fault_reason = || {
            let env =
                Envelope::parse(&reply.body).unwrap_or_else(|e| panic!("{at}: {e}: {reply:?}"));
            env.as_fault()
                .unwrap_or_else(|| panic!("{at}: not a fault: {reply:?}"))
                .reason
                .clone()
        };
        let fetched = || {
            reply
                .fetched()
                .unwrap_or_else(|| panic!("{at}: no fetchResponse: {reply:?}"))
        };
        match *self {
            Expect::Status(status) => assert_eq!(reply.status, status, "{at}: {reply:?}"),
            Expect::Echo(text) => {
                assert_eq!(reply.status, 200, "{at}: {reply:?}");
                let env = Envelope::parse(&reply.body).expect("an envelope");
                assert_eq!(
                    soap_rpc::parse_echo_response(&env).as_deref(),
                    Ok(text),
                    "{at}"
                );
            }
            Expect::Fault(status, needle) => {
                assert_eq!(reply.status, status, "{at}: {reply:?}");
                let reason = fault_reason();
                assert!(
                    reason.contains(needle),
                    "{at}: fault says {reason:?}, not {needle:?}"
                );
            }
            Expect::Created => {
                assert_eq!(reply.status, 200, "{at}: {reply:?}");
                let env = Envelope::parse(&reply.body).expect("an envelope");
                assert!(
                    ops::parse_create_response(&env).is_some(),
                    "{at}: {reply:?}"
                );
            }
            Expect::Fetched(bodies) => {
                assert_eq!(reply.status, 200, "{at}: {reply:?}");
                assert_eq!(fetched(), bodies, "{at}");
            }
            Expect::FetchedReply(text, relates_to) => {
                let got = fetched();
                assert_eq!(got.len(), 1, "{at}: {got:?}");
                assert_eq!(
                    echo_reply(&got[0]),
                    (text.to_string(), relates_to.to_string()),
                    "{at}"
                );
            }
            Expect::Destroyed => {
                assert_eq!(reply.status, 200, "{at}: {reply:?}");
                assert!(reply.body.contains("destroyResponse"), "{at}: {reply:?}");
            }
            Expect::PerRuntime(sim, rt) => if on_sim { sim } else { rt }.check(reply, on_sim, at),
        }
    }
}

/// The RPC-style echo that correlates its own `200`: `RelatesTo` is the
/// request's `MessageID`.
fn correlating_echo(req: &Request) -> Response {
    let env = Envelope::parse(&req.body_utf8()).expect("a request envelope");
    let id = WsaHeaders::from_envelope(&env)
        .expect("headers")
        .message_id
        .unwrap_or_default();
    let mut reply = soap_rpc::echo_response(V11, &soap_rpc::parse_echo(&env).unwrap_or_default());
    WsaHeaders::new().relates_to(id).apply(&mut reply);
    Response::new(Status::OK, V11.content_type(), reply.to_xml().into_bytes())
}

/// The text a one-way echo request asks to have echoed.
fn echo_text(req: &Request) -> String {
    let env = Envelope::parse(&req.body_utf8()).expect("a request envelope");
    soap_rpc::parse_echo(&env).expect("an echo request")
}

/// The decisions of a [`Service::ClosesAfter`] or [`Service::SlowAck`],
/// whichever runtime carries the bytes.
#[derive(Debug, Default)]
struct ClosingService {
    answers: usize,
    rpc: bool,
    answered: usize,
    closed_once: bool,
    /// The echo text of every request read, in order.
    arrivals: Vec<String>,
}

impl ClosingService {
    /// The decisions of a `ClosesAfter` or `SlowAck` service (a `SlowAck`
    /// never closes).
    fn of(service: Service) -> ClosingService {
        let (answers, rpc) = match service {
            Service::ClosesAfter { answers, rpc } => (answers, rpc),
            _ => (usize::MAX, false),
        };
        ClosingService {
            answers,
            rpc,
            ..ClosingService::default()
        }
    }

    /// The answer to `req`; `None` says drop the connection instead.
    fn on_request(&mut self, req: &Request) -> Option<Response> {
        let text = echo_text(req);
        self.arrivals.push(text.clone());
        if !self.closed_once && self.answered == self.answers {
            self.closed_once = true;
            return None;
        }
        self.answered += 1;
        Some(if self.rpc {
            let reply = soap_rpc::echo_response(V11, &text);
            Response::new(Status::OK, V11.content_type(), reply.to_xml().into_bytes())
        } else {
            Response::empty(Status::ACCEPTED)
        })
    }
}

/// A runtime with the whole topology of one row stood up.
trait Runtime {
    /// Sends `steps` in order (`pipelined`: as one run on one connection,
    /// where the runtime can) and returns one answer per step.
    fn run(
        &mut self,
        steps: &[Step],
        pipelined: bool,
        conv: &Rc<RefCell<Conversation>>,
    ) -> Vec<Reply>;
    /// The books right now, `resident` left at zero.
    fn books(&self) -> Books;
    /// The registry both dispatchers resolve against.
    fn registry(&self) -> &Registry;
    /// Bodies POSTed to the client's reply endpoint so far.
    fn delivered(&self) -> Vec<String>;
    /// The echo text of every request a `ClosesAfter` service has read.
    fn arrivals(&self) -> Vec<String>;
    /// Milliseconds since the row started (virtual in sim).
    fn elapsed_ms(&self) -> u64;
    fn shutdown(&mut self) {}
}

/// Polls `read` until it returns `want` or five seconds pass (the
/// threaded runtime settles asynchronously; the simulation has already
/// run to quiescence and answers at once).
fn settled<T: PartialEq>(want: &T, read: impl Fn() -> T) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let got = read();
        if got == *want || Instant::now() >= deadline {
            return got;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn check(row: &Scenario, runtime: &mut dyn Runtime, on_sim: bool) {
    let mut at = format!("[{}] {}", if on_sim { "sim" } else { "rt" }, row.name);
    for note in row.differs {
        at.push_str(&format!(
            "\n  (the runtimes differ here on purpose: {note})"
        ));
    }
    if let Some(bug) = row.fixed_here {
        at.push_str(&format!("\n  (fails at the parent commit: {bug})"));
    }
    let conv = Rc::new(RefCell::new(Conversation::default()));
    let steps: Vec<Step> = row.script.iter().map(|(step, _)| *step).collect();
    let split = row.pipeline_from.unwrap_or(steps.len());
    let mut replies = runtime.run(&steps[..split], false, &conv);
    replies.extend(runtime.run(&steps[split..], true, &conv));
    assert_eq!(replies.len(), steps.len(), "{at}: one answer per request");
    for (i, ((_, expect), reply)) in row.script.iter().zip(&replies).enumerate() {
        expect.check(reply, on_sim, &format!("{at}, step {i}"));
    }

    let want: Vec<(String, String)> = row
        .delivered
        .iter()
        .map(|(text, id)| (text.to_string(), id.to_string()))
        .collect();
    let delivered = settled(&want, || {
        runtime
            .delivered()
            .iter()
            .map(|xml| echo_reply(xml))
            .collect()
    });
    assert_eq!(delivered, want, "{at}: at the client's reply endpoint");

    let want_books = row.rt_books.filter(|_| !on_sim).unwrap_or(row.books);
    let unmeasured = Books {
        mailbox: MailboxBooks {
            resident: 0,
            ..want_books.mailbox
        },
        ..want_books
    };
    let mut books = settled(&unmeasured, || runtime.books());
    let settled_at_ms = runtime.elapsed_ms();
    // What is left in the mailbox is what a last fetch hands out.
    if !conv.borrow().box_id.is_empty() && !row.destroys() {
        let drain = runtime.run(&[Step::Fetch], false, &conv);
        books.mailbox.resident = drain[0].fetched().map_or(0, |got| got.len() as u64);
    }
    assert_eq!(books, want_books, "{at}: books at quiescence");
    if let Some(want) = row.live_endpoints {
        let echo = runtime.registry().entry("Echo");
        let live = echo.map_or(0, |entry| entry.live_endpoints().len());
        assert_eq!(live, want, "{at}: live endpoints of Echo");
    }
    assert!(
        settled_at_ms >= row.gives_up_after_ms,
        "{at}: gave up after {settled_at_ms} ms, no retry after the backoff"
    );
    // What the service read, once every message has reached it.
    let count = |got: &[String], text: &str| got.iter().filter(|t| *t == text).count();
    let arrivals = settled(&true, || {
        let got = runtime.arrivals();
        (row.arrivals.iter()).all(|(text, min, _)| count(&got, text) >= *min)
    });
    assert!(arrivals, "{at}: some message never reached the service");
    let arrivals = runtime.arrivals();
    for (text, min, max) in row.arrivals {
        let n = count(&arrivals, text);
        assert!(
            n <= *max,
            "{at}: {text:?} reached the service {n} times, not {min} to {max}: {arrivals:?}"
        );
    }

    // The identities behind the numbers.
    let rpc = books.rpc;
    assert_eq!(
        rpc.received,
        rpc.refused + rpc.relayed + rpc.upstream_failures,
        "{at}"
    );
    assert!(rpc.relayed <= rpc.forwarded, "{at}: {rpc:?}");
    assert!(
        rpc.forwarded - rpc.relayed <= rpc.upstream_failures,
        "{at}: {rpc:?}"
    );
    if !row.destroys() {
        let mb = books.mailbox;
        assert_eq!(mb.deposits, mb.fetched + mb.resident, "{at}: {mb:?}");
    }
    let msg = books.msg;
    assert_eq!(
        msg.forwarded + msg.replies_routed,
        msg.delivered + msg.dropped_by.iter().sum::<u64>(),
        "{at}: every routed message is written or dropped, once: {msg:?}"
    );
    assert_eq!(
        (msg.dropped, msg.rejected),
        (msg.dropped_by.iter().sum(), msg.rejected_by.iter().sum()),
        "{at}: the totals are the reasons' sums: {msg:?}"
    );
    let echo = books.echo;
    assert_eq!(echo.accepted, echo.processed, "{at}: {echo:?}");
    assert_eq!(
        echo.processed,
        echo.replies_sent + echo.replies_blocked + echo.no_reply,
        "{at}: every processed request is answered, blocked or needs no reply: {echo:?}"
    );
}

/// The one registry both executors stand a row up with.
fn registry(row: &Scenario) -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    let mut urls = vec![Url::parse("http://ws:8888/echo").unwrap()];
    if row.dead_primary {
        urls.insert(0, Url::parse("http://ws:1/echo").unwrap());
    }
    if row.registered {
        registry.register_many("Echo", urls, None);
    }
    registry
}

/// The MSG-Dispatcher's routing core both executors stand a row up with.
fn msg_core(row: &Scenario, registry: &Arc<Registry>) -> MsgCore {
    let core = MsgCore::new(Arc::clone(registry), "http://dispatcher:8080/msg", 21);
    if row.requires_token {
        core.with_policies(PolicyChain::new().with(TokenAuth::new(["token"])))
    } else {
        core
    }
}

/// The one dispatcher configuration both executors stand a row up with.
fn dispatcher_config(row: &Scenario) -> DispatcherConfig {
    let default = DispatcherConfig::default();
    DispatcherConfig {
        response_timeout: Duration::from_millis(row.response_timeout_ms),
        connection_linger: Duration::from_millis(50),
        queue_capacity: row.queue_capacity.unwrap_or(default.queue_capacity),
        ..default
    }
}

// ---------------------------------------------------------------------
// The simulated executor
// ---------------------------------------------------------------------

/// Sends its steps one after another, each on the kept-open connection
/// to the step's listener, and records the answers.
struct ScriptedClient {
    steps: Vec<Step>,
    at: usize,
    conns: HashMap<Addr, ConnId>,
    dialing: Option<Addr>,
    polls_left: u32,
    conv: Rc<RefCell<Conversation>>,
    replies: Rc<RefCell<Vec<Reply>>>,
}

impl ScriptedClient {
    fn send_current(&mut self, ctx: &mut Ctx<'_>) {
        let Some(step) = self.steps.get(self.at) else {
            return;
        };
        if let Step::Pause = step {
            ctx.set_timer(SimDuration::from_millis(50), PAUSE_OVER);
            return;
        }
        let (to, req) = step.request(&self.conv.borrow());
        match self.conns.get(&to) {
            Some(&conn) => ctx
                .send(conn, request_payload(&req))
                .expect("an open connection"),
            None => {
                ctx.connect(to.0, to.1, SimDuration::from_secs(5));
                self.dialing = Some(to);
            }
        }
    }
}

/// Timer token of a [`Step::Pause`] (a poll's retry timer carries 0).
const PAUSE_OVER: u64 = 1;

impl Process for ScriptedClient {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Timer { token: PAUSE_OVER } => {
                let body = String::new();
                self.replies.borrow_mut().push(Reply { status: 0, body });
                self.at += 1;
                self.send_current(ctx);
            }
            ProcEvent::Start | ProcEvent::Timer { .. } => self.send_current(ctx),
            ProcEvent::ConnEstablished { conn } => {
                let to = self.dialing.take().expect("a connect in flight");
                self.conns.insert(to, conn);
                self.send_current(ctx);
            }
            ProcEvent::Message { bytes, .. } => {
                let reply = Reply::of(&parse_response_bytes(&bytes).expect("an HTTP response"));
                let step = self.steps[self.at];
                if !step.answered_by(&reply) && self.polls_left > 0 {
                    self.polls_left -= 1;
                    ctx.set_timer(SimDuration::from_millis(100), 0);
                    return;
                }
                self.conv.borrow_mut().learn(&step, &reply);
                self.replies.borrow_mut().push(reply);
                self.at += 1;
                self.send_current(ctx);
            }
            ProcEvent::ConnRefused { .. } => panic!("the scripted client's connect was refused"),
            ProcEvent::ConnAccepted { .. } | ProcEvent::ConnClosed { .. } => {}
        }
    }
}

/// Answers each request through `handler`, at once.
struct SimHandler<F>(F);

impl<F: FnMut(&Request) -> Response> Process for SimHandler<F> {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { conn, bytes } = event {
            let req = parse_request_bytes(&bytes).expect("an HTTP request");
            let _ = ctx.send(conn, response_payload(&(self.0)(&req)));
        }
    }
}

/// A [`Service::ClosesAfter`] or [`Service::SlowAck`] on the simulated network.
struct SimClosingService(Rc<RefCell<ClosingService>>);

impl Process for SimClosingService {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
        if let ProcEvent::Message { conn, bytes } = event {
            let req = parse_request_bytes(&bytes).expect("an HTTP request");
            match self.0.borrow_mut().on_request(&req) {
                Some(resp) => drop(ctx.send(conn, response_payload(&resp))),
                None => ctx.close(conn),
            }
        }
    }
}

struct SimRuntime {
    sim: Simulation,
    client_host: HostId,
    registry: Arc<Registry>,
    rpc: RpcCounters,
    msg: MsgCounters,
    mailbox: SimMsgBoxStats,
    echo: Option<EchoCounters>,
    sink: Rc<RefCell<Vec<String>>>,
    closing: Rc<RefCell<ClosingService>>,
}

impl SimRuntime {
    fn start(row: &Scenario) -> SimRuntime {
        let mut sim = Simulation::new(21);
        let ws_policy = match row.service {
            Service::Wedged => FirewallPolicy::OutboundOnly,
            _ => FirewallPolicy::Open,
        };
        let mut ws_config = HostConfig::named(WS.0).firewall(ws_policy);
        if let Service::SlowAck = row.service {
            ws_config = ws_config.latency(SimDuration::from_millis(100));
        }
        let ws_host = sim.add_host(ws_config);
        let disp_host = sim.add_host(HostConfig::named(RPC.0));
        let mbox_host = sim.add_host(HostConfig::named(MBOX.0));
        let client_policy = if row.firewalled_client {
            FirewallPolicy::OutboundOnly
        } else {
            FirewallPolicy::Open
        };
        let client_host = sim.add_host(HostConfig::named(CLIENT.0).firewall(client_policy));

        let closing = Rc::new(RefCell::new(ClosingService::default()));
        let mut echo = None;
        let mut echo_service = |mode, delay_ms| -> Option<Box<dyn Process>> {
            let service = SimEchoService::new(mode, SimDuration::from_millis(delay_ms));
            echo = Some(service.stats());
            Some(Box::new(service))
        };
        let service: Option<Box<dyn Process>> = match row.service {
            Service::Dead | Service::Wedged => None,
            Service::ClosesAfter { .. } | Service::SlowAck => {
                *closing.borrow_mut() = ClosingService::of(row.service);
                Some(Box::new(SimClosingService(Rc::clone(&closing))))
            }
            Service::Echo(delay_ms) => echo_service(EchoMode::Rpc, delay_ms),
            Service::OneWayEcho => echo_service(EchoMode::OneWay { workers: 4 }, 0),
            Service::CorrelatingEcho => Some(Box::new(SimHandler(correlating_echo))),
        };
        if let Some(service) = service {
            let p = sim.spawn(ws_host, service);
            sim.listen(p, WS.1);
        }

        let registry = registry(row);
        let config = dispatcher_config(row);
        let rpc = SimRpcDispatcher::new(
            Arc::clone(&registry),
            SimDuration::from_millis(1),
            config.clone(),
        );
        let rpc_stats = rpc.stats();
        let p = sim.spawn(disp_host, Box::new(rpc));
        sim.listen(p, RPC.1);

        let core = msg_core(row, &registry);
        let msg = SimMsgDispatcher::new(core, SimDuration::from_millis(1), config);
        let msg_stats = msg.stats();
        let p = sim.spawn(disp_host, Box::new(msg));
        sim.listen(p, MSG.1);

        let mailbox = SimMsgBox::new(msgbox_config(row), SimDuration::from_millis(1), 21);
        let mailbox_stats = mailbox.stats();
        let p = sim.spawn(mbox_host, Box::new(mailbox));
        sim.listen(p, MBOX.1);

        let sink = Rc::new(RefCell::new(Vec::new()));
        let got = Rc::clone(&sink);
        let p = sim.spawn(
            client_host,
            Box::new(SimHandler(move |req: &Request| {
                got.borrow_mut().push(req.body_utf8().into_owned());
                Response::empty(Status::ACCEPTED)
            })),
        );
        sim.listen(p, CLIENT.1);

        SimRuntime {
            sim,
            client_host,
            registry,
            rpc: rpc_stats,
            msg: msg_stats,
            mailbox: mailbox_stats,
            echo,
            sink,
            closing,
        }
    }
}

fn msgbox_config(row: &Scenario) -> MsgBoxConfig {
    let strategy = if row.thread_per_message {
        MsgBoxStrategy::ThreadPerMessage
    } else {
        MsgBoxStrategy::Pooled { workers: 4 }
    };
    MsgBoxConfig {
        strategy,
        ..MsgBoxConfig::default()
    }
}

impl Runtime for SimRuntime {
    fn run(&mut self, steps: &[Step], _: bool, conv: &Rc<RefCell<Conversation>>) -> Vec<Reply> {
        let replies = Rc::new(RefCell::new(Vec::new()));
        self.sim.spawn(
            self.client_host,
            Box::new(ScriptedClient {
                steps: steps.to_vec(),
                at: 0,
                conns: HashMap::new(),
                dialing: None,
                polls_left: 100,
                conv: Rc::clone(conv),
                replies: Rc::clone(&replies),
            }),
        );
        self.sim.run();
        replies.take()
    }

    fn books(&self) -> Books {
        Books {
            rpc: rpc_books(&self.rpc),
            mailbox: MailboxBooks {
                deposits: self.mailbox.mailbox.deposits.get(),
                fetched: self.mailbox.mailbox.fetched.get(),
                resident: 0,
            },
            msg: msg_books(&self.msg),
            echo: echo_books(self.echo.as_ref()),
        }
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn delivered(&self) -> Vec<String> {
        self.sink.borrow().clone()
    }

    fn arrivals(&self) -> Vec<String> {
        self.closing.borrow().arrivals.clone()
    }

    fn elapsed_ms(&self) -> u64 {
        self.sim.now().as_micros() / 1000
    }
}

fn rpc_books(c: &RpcCounters) -> RpcBooks {
    RpcBooks {
        received: c.received.get(),
        forwarded: c.forwarded.get(),
        relayed: c.relayed.get(),
        refused: c.refused.get(),
        upstream_failures: c.upstream_failures.get(),
    }
}

fn echo_books(c: Option<&EchoCounters>) -> EchoBooks {
    c.map_or_else(EchoBooks::default, |c| EchoBooks {
        accepted: c.accepted.get(),
        processed: c.processed.get(),
        replies_sent: c.replies_sent.get(),
        replies_blocked: c.replies_blocked.get(),
        no_reply: c.no_reply.get(),
    })
}

fn msg_books(c: &MsgCounters) -> MsgBooks {
    MsgBooks {
        forwarded: c.forwarded.get(),
        replies_routed: c.replies_routed.get(),
        delivered: c.delivered.get(),
        dropped: c.dropped.get(),
        rejected: c.rejected.get(),
        dropped_by: DropReason::ALL.map(|r| c.dropped_for(r)),
        rejected_by: RejectReason::ALL.map(|r| c.rejected_for(r)),
    }
}

// ---------------------------------------------------------------------
// The threaded executor
// ---------------------------------------------------------------------

/// Serves every connection to `at` on a thread of its own through `handler`.
fn rt_listen(
    net: &Arc<Network>,
    at: Addr,
    handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
) {
    let handler = Arc::new(handler);
    net.listen(at.0, at.1, move |stream| {
        let handler = Arc::clone(&handler);
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &Limits::default(), |req| handler(&req));
        });
    });
}

/// A [`Service::ClosesAfter`] or [`Service::SlowAck`] on the threaded
/// network: a thread per connection reads requests one by one and writes
/// each answer at once.
fn rt_closing_service(net: &Arc<Network>, service: &Arc<Mutex<ClosingService>>) {
    let service = Arc::clone(service);
    net.listen(WS.0, WS.1, move |stream| {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let mut reader = MessageReader::new(stream);
            while let Ok(req) = reader.read_request(&Limits::default()) {
                let (first, answer) = {
                    let mut service = service.lock().unwrap();
                    (service.answered == 0, service.on_request(&req))
                };
                let Some(resp) = answer else {
                    return; // dropping the stream closes the connection
                };
                if first {
                    // What the client sends meanwhile queues up behind this
                    // message and goes out as one pipelined batch.
                    std::thread::sleep(Duration::from_millis(100));
                }
                if write_response(reader.stream_mut(), &resp).is_err() {
                    return;
                }
            }
        });
    });
}

struct RtRuntime {
    net: Arc<Network>,
    registry: Arc<Registry>,
    ws: Option<EchoServer>,
    rpc: RpcDispatcherServer,
    msg: Arc<MsgDispatcherServer>,
    mailbox: Arc<MsgBoxServer>,
    sink: Arc<Mutex<Vec<String>>>,
    closing: Arc<Mutex<ClosingService>>,
    /// Connections a `Wedged` service accepted and never reads.
    held: Arc<Mutex<Vec<PipeStream>>>,
    started: Instant,
    conns: HashMap<Addr, HttpClient<PipeStream>>,
}

impl RtRuntime {
    fn start(row: &Scenario) -> RtRuntime {
        let net = Network::new();
        let closing = Arc::new(Mutex::new(ClosingService::default()));
        let held = Arc::new(Mutex::new(Vec::new()));
        let ws = match row.service {
            Service::Dead => None,
            Service::ClosesAfter { .. } | Service::SlowAck => {
                *closing.lock().unwrap() = ClosingService::of(row.service);
                rt_closing_service(&net, &closing);
                None
            }
            Service::Wedged => {
                let held = Arc::clone(&held);
                net.listen(WS.0, WS.1, move |stream| held.lock().unwrap().push(stream));
                None
            }
            Service::Echo(ms) => Some(EchoServer::start(&net, WS.0, WS.1, 4, Duration::from_millis(ms))),
            Service::OneWayEcho => Some(EchoServer::start_oneway(&net, WS.0, WS.1, 4, Duration::ZERO)),
            Service::CorrelatingEcho => {
                rt_listen(&net, WS, correlating_echo);
                None
            }
        };
        let registry = registry(row);
        let config = dispatcher_config(row);
        let rpc = RpcDispatcherServer::start(
            &net,
            RPC.0,
            RPC.1,
            Arc::clone(&registry),
            PolicyChain::new(),
            config.clone(),
        );
        let core = msg_core(row, &registry);
        let msg = MsgDispatcherServer::start(&net, MSG.0, MSG.1, core, config);
        let mailbox = MsgBoxServer::start(&net, MBOX.0, MBOX.1, msgbox_config(row), 21);

        let sink = Arc::new(Mutex::new(Vec::new()));
        let got = Arc::clone(&sink);
        rt_listen(&net, CLIENT, move |req| {
            got.lock().unwrap().push(req.body_utf8().into_owned());
            Response::empty(Status::ACCEPTED)
        });
        net.set_firewalled(CLIENT.0, row.firewalled_client);

        RtRuntime {
            net,
            registry,
            ws,
            rpc,
            msg,
            mailbox,
            sink,
            closing,
            held,
            started: Instant::now(),
            conns: HashMap::new(),
        }
    }

    fn client(&mut self, to: Addr) -> &mut HttpClient<PipeStream> {
        let net = &self.net;
        self.conns
            .entry(to)
            .or_insert_with(|| HttpClient::new(net.connect(to.0, to.1).expect("a listener")))
    }
}

impl Runtime for RtRuntime {
    fn run(
        &mut self,
        steps: &[Step],
        pipelined: bool,
        conv: &Rc<RefCell<Conversation>>,
    ) -> Vec<Reply> {
        if pipelined && !steps.is_empty() {
            let (tos, reqs): (Vec<Addr>, Vec<Request>) = steps
                .iter()
                .map(|step| step.request(&conv.borrow()))
                .unzip();
            assert!(
                tos.iter().all(|to| *to == tos[0]),
                "a run rides one connection"
            );
            let resps = self
                .client(tos[0])
                .call_pipelined(&reqs, &mut Vec::new())
                .expect("a run");
            return resps.iter().map(Reply::of).collect();
        }
        let mut replies = Vec::new();
        for step in steps {
            if let Step::Pause = step {
                std::thread::sleep(Duration::from_millis(50));
                let body = String::new();
                replies.push(Reply { status: 0, body });
                continue;
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            let reply = loop {
                let (to, req) = step.request(&conv.borrow());
                let reply = Reply::of(&self.client(to).call(&req).expect("an answer"));
                if step.answered_by(&reply) || Instant::now() >= deadline {
                    break reply;
                }
                std::thread::sleep(Duration::from_millis(10));
            };
            conv.borrow_mut().learn(step, &reply);
            replies.push(reply);
        }
        replies
    }

    fn books(&self) -> Books {
        Books {
            rpc: rpc_books(&self.rpc.stats()),
            mailbox: MailboxBooks {
                deposits: self.mailbox.deposits(),
                fetched: self.mailbox.stats().fetched.get(),
                resident: 0,
            },
            msg: msg_books(&self.msg.counters()),
            echo: echo_books(self.ws.as_ref().map(EchoServer::stats).as_ref()),
        }
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn delivered(&self) -> Vec<String> {
        self.sink.lock().unwrap().clone()
    }

    fn arrivals(&self) -> Vec<String> {
        self.closing.lock().unwrap().arrivals.clone()
    }

    fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn shutdown(&mut self) {
        self.conns.clear();
        // A WsThread parked on a wedged destination comes back once the
        // connection is gone and no new one can be opened.
        self.net.unlisten(WS.0, WS.1);
        self.held.lock().unwrap().clear();
        self.mailbox.shutdown();
        self.msg.shutdown();
        self.rpc.shutdown();
        if let Some(ws) = &self.ws {
            ws.shutdown();
        }
        self.net.unlisten(CLIENT.0, CLIENT.1);
    }
}

// ---------------------------------------------------------------------

/// Runs every row, each against a topology of its own, and reports all
/// the rows that failed rather than the first.
fn run_table(on_sim: bool) {
    let table = table();
    let failed: Vec<&str> = table
        .iter()
        .filter(|row| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut runtime: Box<dyn Runtime> = if on_sim {
                    Box::new(SimRuntime::start(row))
                } else {
                    Box::new(RtRuntime::start(row))
                };
                check(row, runtime.as_mut(), on_sim);
                runtime.shutdown();
            }))
            .is_err()
        })
        .map(|row| row.name)
        .collect();
    assert!(failed.is_empty(), "rows that do not hold: {failed:#?}");
}

/// The one drop or reject reason `msg` counts, as an index into
/// `DropReason::ALL` followed by `RejectReason::ALL`.
fn only_reason(msg: &MsgBooks) -> Option<usize> {
    let counts: Vec<u64> = msg.dropped_by.iter().chain(&msg.rejected_by).copied().collect();
    let mut counted = (0..counts.len()).filter(|&i| counts[i] > 0);
    match (counted.next(), counted.next()) {
        (Some(i), None) => Some(i),
        _ => None,
    }
}

#[test]
fn every_drop_and_reject_reason_has_a_row_of_its_own() {
    let mut alone: Vec<usize> = table()
        .iter()
        .filter_map(|row| {
            let sim = only_reason(&row.books.msg)?;
            let rt = only_reason(&row.rt_books.unwrap_or(row.books).msg)?;
            (sim == rt).then_some(sim)
        })
        .collect();
    alone.sort_unstable();
    alone.dedup();
    let reasons = DropReason::ALL.len() + RejectReason::ALL.len();
    assert_eq!(alone, (0..reasons).collect::<Vec<_>>());
}

#[test]
fn every_row_holds_on_the_simulated_runtime() {
    run_table(true);
}

#[test]
fn every_row_holds_on_the_threaded_runtime() {
    run_table(false);
}
