//! The threaded-runtime topologies the workloads drive, built from the
//! public `*_with_telemetry` constructors so one code path serves the
//! timed run (`Scope::noop`) and the traced run (a live registry), plus
//! the bench-owned one-way echo service of `conv_pingpong`.
//!
//! All traffic crosses the in-process `PipeStream` network: the rt
//! servers cannot listen on TCP, so no loopback or real link is priced.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use wsd_core::config::MailboxBackend;
use wsd_core::rt::{EchoServer, MsgBoxServer, MsgDispatcherServer, Network, RpcDispatcherServer};
use wsd_core::security::PolicyChain;
use wsd_core::{DispatcherConfig, MsgBoxConfig, MsgCore, Registry, Url};
use wsd_http::{
    serve_connection, HttpClient, Limits, PipeStream, Request, Response, ShutdownHandle, Status,
};
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_store::StoreConfig;
use wsd_telemetry::Scope;
use wsd_wsa::WsaHeaders;

/// Dispatcher host name on the in-process network.
pub const DISPATCHER: &str = "dispatcher";
/// RPC-Dispatcher port.
pub const RPC_PORT: u16 = 8081;
/// MSG-Dispatcher port.
pub const MSG_PORT: u16 = 8080;
/// WS-MsgBox port.
pub const MSGBOX_PORT: u16 = 8082;
/// Web-service host name.
pub const WS_HOST: &str = "ws";
/// Web-service port.
pub const WS_PORT: u16 = 8888;
/// Physical address the registry resolves `Echo` to.
pub const WS_URL: &str = "http://ws:8888/echo";
/// Address services use to reach the MSG-Dispatcher.
pub const MSG_ADDRESS: &str = "http://dispatcher:8080/msg";
/// Resident-body budget of the durable mailbox: about half of one 2 MiB
/// `backlog_durable` burst spills.
pub const DURABLE_MEMORY_BUDGET: u64 = 1024 * 1024;

/// Which Web service answers behind the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsKind {
    /// The runtime's RPC-style `EchoServer` (Table 1 quadrant 3 on the
    /// MSG path: the dispatcher translates the `200` into a reply).
    Rpc,
    /// The bench-owned one-way echo (quadrant 4): answers `202`, sends
    /// the correlated reply to the dispatcher as a new message.
    OneWay,
}

/// A running topology. Fields are `None` when the workload has no use
/// for that component.
pub struct Topology {
    /// The in-process network.
    pub net: Arc<Network>,
    /// RPC-style echo service.
    pub echo: Option<EchoServer>,
    /// Bench-owned one-way echo service.
    pub oneway: Option<OneWayWs>,
    /// RPC-Dispatcher.
    pub rpc: Option<RpcDispatcherServer>,
    /// MSG-Dispatcher.
    pub msg: Option<Arc<MsgDispatcherServer>>,
    /// WS-MsgBox.
    pub msgbox: Option<Arc<MsgBoxServer>>,
    /// WAL directory of the durable mailbox, removed on shutdown.
    pub wal_dir: Option<PathBuf>,
}

/// A registry resolving `Echo` to [`WS_URL`].
pub fn registry() -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse(WS_URL).expect("WS_URL parses"));
    registry
}

/// Echo workers: every keep-alive connection pins one for its lifetime,
/// so leave room for `rpc_echo`'s eight direct client connections and as
/// many on the dispatcher's upstream side.
const ECHO_WORKERS: usize = 20;

/// Directory benchmark artefacts (trace files, WAL directories) go to:
/// `benchmark/out`, inside the checkout and git-ignored.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// A fresh, empty directory under [`out_dir`] for one WAL.
pub fn fresh_wal_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "wal-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The durable store configuration of `backlog_durable`: default group
/// commit, [`DURABLE_MEMORY_BUDGET`] of resident bodies.
pub fn durable_store_config() -> StoreConfig {
    StoreConfig {
        memory_budget_bytes: DURABLE_MEMORY_BUDGET,
        ..StoreConfig::default()
    }
}

impl Topology {
    /// `rpc_echo`: RPC-Dispatcher in front of the RPC-style echo service.
    pub fn rpc(scope: &Scope) -> Topology {
        let net = Network::new();
        let echo = EchoServer::start(&net, WS_HOST, WS_PORT, ECHO_WORKERS, Duration::ZERO);
        let rpc = RpcDispatcherServer::start_with_telemetry(
            &net,
            DISPATCHER,
            RPC_PORT,
            registry(),
            PolicyChain::new(),
            DispatcherConfig::default(),
            &scope.child("rpc"),
        );
        Topology {
            echo: Some(echo),
            rpc: Some(rpc),
            ..Topology::bare(net)
        }
    }

    /// The Figure-1 messaging topology: MSG-Dispatcher + WS-MsgBox in
    /// front of `ws`; `durable` puts the mailbox on a WAL in a fresh
    /// directory under `benchmark/out`.
    pub fn messaging(seed: u64, ws: WsKind, durable: bool, scope: &Scope) -> Topology {
        let net = Network::new();
        // The client has no listener and accepts nothing inbound.
        net.set_firewalled("client", true);
        let (echo, oneway) = match ws {
            WsKind::Rpc => (
                Some(EchoServer::start(
                    &net,
                    WS_HOST,
                    WS_PORT,
                    ECHO_WORKERS,
                    Duration::ZERO,
                )),
                None,
            ),
            WsKind::OneWay => (None, Some(OneWayWs::start(&net))),
        };
        let wal_dir = durable.then(fresh_wal_dir);
        let msgbox_config = MsgBoxConfig {
            backend: match &wal_dir {
                Some(dir) => MailboxBackend::Durable {
                    dir: Some(dir.clone()),
                    store: durable_store_config(),
                },
                None => MailboxBackend::Memory,
            },
            ..MsgBoxConfig::default()
        };
        let msgbox = MsgBoxServer::start_with_telemetry(
            &net,
            DISPATCHER,
            MSGBOX_PORT,
            msgbox_config,
            seed,
            &scope.child("msgbox"),
        );
        let core = MsgCore::new(registry(), MSG_ADDRESS, seed)
            .with_mailbox(format!("http://{DISPATCHER}:{MSGBOX_PORT}/deposit"));
        let msg = MsgDispatcherServer::start_with_telemetry(
            &net,
            DISPATCHER,
            MSG_PORT,
            core,
            DispatcherConfig::default(),
            &scope.child("msg"),
        );
        Topology {
            echo,
            oneway,
            msg: Some(msg),
            msgbox: Some(msgbox),
            wal_dir,
            ..Topology::bare(net)
        }
    }

    /// A topology with nothing in it (`sim_fig6` runs no rt server).
    pub fn empty() -> Topology {
        Topology::bare(Network::new())
    }

    fn bare(net: Arc<Network>) -> Topology {
        Topology {
            net,
            echo: None,
            oneway: None,
            rpc: None,
            msg: None,
            msgbox: None,
            wal_dir: None,
        }
    }

    /// Stops every component, joins its threads and removes the WAL.
    pub fn shutdown(self) {
        if let Some(m) = &self.msgbox {
            m.shutdown();
        }
        if let Some(m) = &self.msg {
            m.shutdown();
        }
        if let Some(r) = &self.rpc {
            r.shutdown();
        }
        if let Some(e) = &self.echo {
            e.shutdown();
        }
        if let Some(w) = self.oneway {
            w.shutdown();
        }
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The reply the one-way echo service sends for `request_xml` (a
/// forwarded, addressed echo request): an echo response addressed to
/// the request's `ReplyTo`, correlated by `RelatesTo`, carrying
/// `reply_id` as its own `MessageID`. Returns the destination and the
/// serialized envelope, or `None` when the request is not an addressed
/// echo.
pub fn oneway_reply(request_xml: &str, reply_id: &str) -> Option<(Url, String)> {
    let env = Envelope::parse(request_xml).ok()?;
    let headers = WsaHeaders::from_envelope(&env).ok()?;
    let text = rpc::parse_echo(&env).ok()?;
    let reply_to = headers.reply_to?.address;
    let mut reply = rpc::echo_response(env.version, &text);
    WsaHeaders::new()
        .to(reply_to.clone())
        .relates_to(headers.message_id?)
        .message_id(reply_id)
        .apply(&mut reply);
    Some((Url::parse(&reply_to).ok()?, reply.to_xml()))
}

/// The bench-owned one-way echo Web service (Table 1 quadrant 4). Each
/// accepted connection gets a thread that answers `202` and sends the
/// correlated reply to the request's `ReplyTo` (the dispatcher's `/msg`)
/// over a kept-open connection before the `202` goes out.
pub struct OneWayWs {
    net: Arc<Network>,
    state: Arc<OneWayState>,
}

#[derive(Default)]
struct OneWayState {
    threads: Mutex<Vec<JoinHandle<()>>>,
    conns: Mutex<Vec<ShutdownHandle>>,
    replies: AtomicU64,
}

impl OneWayWs {
    fn start(net: &Arc<Network>) -> OneWayWs {
        let state = Arc::new(OneWayState::default());
        let (net2, state2) = (Arc::clone(net), Arc::clone(&state));
        net.listen(WS_HOST, WS_PORT, move |stream| {
            state2
                .conns
                .lock()
                .expect("one-way WS connection list")
                .push(stream.shutdown_handle());
            let (net, state) = (Arc::clone(&net2), Arc::clone(&state2));
            let handle = std::thread::Builder::new()
                .name("bench-oneway-ws".into())
                .spawn(move || serve_oneway(&net, &state, stream))
                .expect("spawn one-way WS thread");
            state2
                .threads
                .lock()
                .expect("one-way WS thread list")
                .push(handle);
        });
        OneWayWs {
            net: Arc::clone(net),
            state,
        }
    }

    fn shutdown(self) {
        self.net.unlisten(WS_HOST, WS_PORT);
        for conn in self
            .state
            .conns
            .lock()
            .expect("one-way WS connection list")
            .drain(..)
        {
            conn.shutdown();
        }
        let threads: Vec<_> = self
            .state
            .threads
            .lock()
            .expect("one-way WS thread list")
            .drain(..)
            .collect();
        for t in threads {
            t.join().expect("one-way WS thread panicked");
        }
    }
}

fn serve_oneway(net: &Arc<Network>, state: &OneWayState, stream: PipeStream) {
    let mut upstream: Option<HttpClient<PipeStream>> = None;
    let _ = serve_connection(stream, &Limits::default(), |req| {
        let n = state.replies.fetch_add(1, Ordering::Relaxed);
        let Some((to, xml)) = req
            .body_str()
            .and_then(|body| oneway_reply(body, &format!("uuid:bench-ws-reply-{n}")))
        else {
            return Response::empty(Status::BAD_REQUEST);
        };
        let reply = Request::soap_post(
            &to.authority(),
            &to.path,
            SoapVersion::V11.content_type(),
            xml.into_bytes(),
        );
        // One retry on a fresh connection covers a kept-open connection
        // the dispatcher closed in the meantime.
        for _ in 0..2 {
            if upstream.is_none() {
                upstream = net.connect(&to.host, to.port).ok().map(HttpClient::new);
            }
            match upstream.as_mut().map(|c| c.call(&reply)) {
                Some(Ok(resp)) if resp.status == Status::ACCEPTED => {
                    return Response::empty(Status::ACCEPTED)
                }
                _ => upstream = None,
            }
        }
        Response::empty(Status::SERVICE_UNAVAILABLE)
    });
}
