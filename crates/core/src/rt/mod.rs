//! The threaded runtime: dispatcher components on real OS threads.
//!
//! This is the "is the implementation language suitable?" half of the
//! paper: the same registry / dispatcher / mailbox logic, run on
//! [`wsd_concurrent`] thread pools over in-memory byte streams
//! ([`wsd_http::duplex`]), with genuine parallelism and back-pressure.
//!
//! [`Network`] is the in-process internet: hosts listen on
//! `(name, port)`, clients connect and get a [`PipeStream`]; a host can
//! be marked firewalled, making inbound connects fail the way a dropped
//! SYN does.

pub mod client;
pub mod deployment;
pub mod echo_server;
pub mod fleet;
pub mod msg_server;
pub mod msgbox_server;
pub mod reactor_front;
pub mod registry_server;
pub mod rpc_server;

pub use client::{rpc_call, send_oneway, MailboxClient};
pub use deployment::{Deployment, DeploymentBuilder};
pub use echo_server::EchoServer;
pub use fleet::{FleetDeployment, FleetMember};
pub use msg_server::MsgDispatcherServer;
pub use msgbox_server::MsgBoxServer;
pub use reactor_front::{one_by_one, BatchHandler, ReactorFrontEnd, RequestHandler, ServedConn};
pub use registry_server::RegistryServer;
pub use rpc_server::RpcDispatcherServer;

use std::collections::{HashMap, HashSet};
use std::io;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use wsd_http::{duplex, PipeStream};

/// Microseconds on the runtime's shared [`wsd_telemetry::WallClock`]
/// (origin = first call). Store timestamps and route TTLs only ever
/// compare these values relatively, so an epoch anchor buys nothing —
/// routing through the telemetry clock keeps rt and sim on one timing
/// discipline.
pub fn now_us() -> u64 {
    use wsd_telemetry::Clock;
    static CLOCK: std::sync::OnceLock<wsd_telemetry::WallClock> = std::sync::OnceLock::new();
    CLOCK.get_or_init(wsd_telemetry::WallClock::new).now_us()
}

/// Sets glibc's `malloc` up for a thread-per-stage runtime, once per
/// process; any other allocator is left alone (DESIGN §7b):
///
/// * Arenas are capped at eight per core and the threads past the cap
///   share, by the order in which they first allocate. The paper's pools
///   are pre-created, so a two-core host runs 38 threads on 16 arenas,
///   and whenever two of the five that carry a message (each allocates
///   the body the next one frees) landed on one arena the durable
///   deposit rate was a fifth lower for the whole run. 64 arenas is what
///   glibc allows by itself on eight cores.
/// * A block above 128 KiB gets a mapping of its own and a freed heap
///   top goes back to the kernel, and both thresholds then move up to
///   the largest mapped block freed so far. A 64-message mailbox fetch
///   still needs four buffers of ≈ 300 KB (the written answer, the
///   server's wire bytes, the client's read buffer and its body), and
///   left to glibc they cost a sixth of pick-up (48 000 against 40 000
///   messages/s). Set above any buffer a body within
///   [`wsd_http::Limits`] needs, both stay where they are.
fn settle_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        static ONCE: std::sync::Once = std::sync::Once::new();
        // SAFETY: glibc's `int mallopt(int, int)`; it takes the allocator's
        // own lock, touches no memory of ours and reports a parameter it
        // does not know by returning 0, which changes nothing.
        ONCE.call_once(|| unsafe {
            mallopt(-8, 64); // M_ARENA_MAX
            mallopt(-3, 16 << 20); // M_MMAP_THRESHOLD
            mallopt(-1, 32 << 20); // M_TRIM_THRESHOLD
        });
    }
}

type ConnHandler = Arc<dyn Fn(PipeStream) + Send + Sync>;

/// Tracks live server-side connections so shutdown can interrupt workers
/// blocked in `read` on keep-alive connections.
pub(crate) struct ConnTracker {
    inner: Mutex<Tracked>,
}

struct Tracked {
    handles: Vec<wsd_http::ShutdownHandle>,
    /// Length at which the next `track` first sweeps out the handles of
    /// connections that have closed since: twice what survived the last
    /// sweep, so sweeping is amortised O(1) per connection and the list
    /// never exceeds twice the live connections (plus the floor).
    sweep_at: usize,
}

/// Below this many handles a sweep is not worth the walk.
const SWEEP_FLOOR: usize = 64;

impl ConnTracker {
    pub(crate) fn new() -> Arc<ConnTracker> {
        Arc::new(ConnTracker {
            inner: Mutex::new(Tracked {
                handles: Vec::new(),
                sweep_at: SWEEP_FLOOR,
            }),
        })
    }

    /// Remembers `stream` until it closes. A server that accepts one
    /// connection per request (the RPC-Dispatcher's upstream hop, every
    /// mailbox poll) would otherwise keep two pipe buffers alive per
    /// connection ever accepted.
    pub(crate) fn track(&self, stream: &PipeStream) {
        let mut t = self.inner.lock();
        if t.handles.len() >= t.sweep_at {
            t.handles.retain(|h| !h.is_closed());
            t.sweep_at = (2 * t.handles.len()).max(SWEEP_FLOOR);
        }
        t.handles.push(stream.shutdown_handle());
    }

    pub(crate) fn close_all(&self) {
        for h in self.inner.lock().handles.drain(..) {
            h.shutdown();
        }
    }
}

/// The in-process network: named listeners, firewalls, connects.
pub struct Network {
    listeners: Mutex<HashMap<(String, u16), ConnHandler>>,
    firewalled: Mutex<HashSet<String>>,
    /// How long a connect into a firewalled host blocks before failing
    /// (the dropped-SYN timeout, scaled down for tests).
    pub firewall_delay: Duration,
    /// Per-direction pipe buffering for new connections.
    pub pipe_capacity: usize,
}

impl Network {
    /// An empty network.
    pub fn new() -> Arc<Network> {
        settle_allocator();
        Arc::new(Network {
            listeners: Mutex::new(HashMap::new()),
            firewalled: Mutex::new(HashSet::new()),
            firewall_delay: Duration::from_millis(100),
            pipe_capacity: 64 * 1024,
        })
    }

    /// Registers a listener. The handler is invoked on the *connecting*
    /// thread and must hand the stream off (e.g. to a pool) rather than
    /// serve it inline.
    ///
    /// # Panics
    ///
    /// Panics if the address is already bound.
    pub fn listen(
        &self,
        host: &str,
        port: u16,
        handler: impl Fn(PipeStream) + Send + Sync + 'static,
    ) {
        let mut l = self.listeners.lock();
        let prev = l.insert((host.to_string(), port), Arc::new(handler));
        assert!(prev.is_none(), "{host}:{port} already bound");
    }

    /// Removes a listener; future connects are refused.
    pub fn unlisten(&self, host: &str, port: u16) {
        self.listeners.lock().remove(&(host.to_string(), port));
    }

    /// Marks a host as allowing outbound connections only.
    pub fn set_firewalled(&self, host: &str, firewalled: bool) {
        let mut f = self.firewalled.lock();
        if firewalled {
            f.insert(host.to_string());
        } else {
            f.remove(host);
        }
    }

    /// Opens a connection to `host:port`, returning the client end.
    ///
    /// Firewalled destinations block for [`firewall_delay`](Self::firewall_delay)
    /// then fail with `TimedOut` (a dropped SYN); missing listeners fail
    /// fast with `ConnectionRefused` (an RST).
    pub fn connect(&self, host: &str, port: u16) -> io::Result<PipeStream> {
        if self.firewalled.lock().contains(host) {
            wsd_concurrent::ordered::audit::assert_unlocked("a firewalled connect");
            std::thread::sleep(self.firewall_delay);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("connect to {host}:{port} timed out (firewall)"),
            ));
        }
        let handler = self
            .listeners
            .lock()
            .get(&(host.to_string(), port))
            .cloned()
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("{host}:{port} refused"),
                )
            })?;
        let (client_end, server_end) = duplex(self.pipe_capacity);
        handler(server_end);
        Ok(client_end)
    }

    /// Whether something listens on `host:port`.
    pub fn is_listening(&self, host: &str, port: u16) -> bool {
        self.listeners.lock().contains_key(&(host.to_string(), port))
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("listeners", &self.listeners.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn connect_reaches_listener() {
        let net = Network::new();
        net.listen("server", 80, |mut stream| {
            std::thread::spawn(move || {
                let mut buf = [0u8; 4];
                stream.read_exact(&mut buf).unwrap();
                stream.write_all(&buf).unwrap();
            });
        });
        let mut c = net.connect("server", 80).unwrap();
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
    }

    #[test]
    fn conn_tracker_forgets_closed_connections() {
        let tracker = ConnTracker::new();
        // Three keep-alive connections stay open throughout …
        let live: Vec<_> = (0..3).map(|_| duplex(64)).collect();
        for (_, server_end) in &live {
            tracker.track(server_end);
        }
        // … while 10 000 one-exchange connections come and go.
        for _ in 0..10_000 {
            let (mut client_end, mut server_end) = duplex(64);
            tracker.track(&server_end);
            client_end.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            server_end.read_exact(&mut buf).unwrap();
        }
        let tracked = tracker.inner.lock().handles.len();
        assert!(
            tracked <= 2 * SWEEP_FLOOR,
            "{tracked} handles kept for 3 live connections"
        );
        // The live ones are still tracked: shutdown reaches them.
        tracker.close_all();
        for (client_end, _) in live {
            assert!(client_end.shutdown_handle().is_closed());
        }
    }

    #[test]
    fn missing_listener_refused_fast() {
        let net = Network::new();
        let err = net.connect("ghost", 80).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn firewalled_host_times_out() {
        let net = Network::new();
        net.listen("inria", 80, |_s| {});
        net.set_firewalled("inria", true);
        let t0 = std::time::Instant::now();
        let err = net.connect("inria", 80).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t0.elapsed() >= Duration::from_millis(90));
        // Lifting the firewall restores reachability.
        net.set_firewalled("inria", false);
        assert!(net.connect("inria", 80).is_ok());
    }

    #[test]
    fn unlisten_refuses_future_connects() {
        let net = Network::new();
        net.listen("s", 80, |_s| {});
        assert!(net.is_listening("s", 80));
        net.unlisten("s", 80);
        assert!(!net.is_listening("s", 80));
        assert!(net.connect("s", 80).is_err());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn double_bind_panics() {
        let net = Network::new();
        net.listen("s", 80, |_s| {});
        net.listen("s", 80, |_s| {});
    }

    #[test]
    fn concurrent_connects_are_independent() {
        let net = Network::new();
        net.listen("server", 80, |mut stream| {
            std::thread::spawn(move || {
                let mut buf = [0u8; 1];
                stream.read_exact(&mut buf).unwrap();
                stream.write_all(&[buf[0] + 1]).unwrap();
            });
        });
        let mut handles = Vec::new();
        for i in 0..16u8 {
            let net = Arc::clone(&net);
            handles.push(std::thread::spawn(move || {
                let mut c = net.connect("server", 80).unwrap();
                c.write_all(&[i]).unwrap();
                let mut buf = [0u8; 1];
                c.read_exact(&mut buf).unwrap();
                assert_eq!(buf[0], i + 1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
