//! # ws-dispatcher
//!
//! Asynchronous peer-to-peer Web Services through firewalls — a complete
//! Rust implementation of the system described in *"Asynchronous
//! Peer-to-Peer Web Services and Firewalls"* (Caromel, di Costanzo,
//! Gannon, Slominski — IPDPS 2005).
//!
//! This crate is the facade: it re-exports the whole stack under stable
//! names. The pieces:
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`concurrent`] | `wsd-concurrent` | thread pool, FIFO queue, sharded map, thread budget |
//! | [`xml`] | `wsd-xml` | from-scratch XML parser/writer with namespaces |
//! | [`soap`] | `wsd-soap` | SOAP 1.1/1.2 envelopes, faults, RPC wrapping |
//! | [`wsa`] | `wsd-wsa` | WS-Addressing headers, EPRs, dispatcher rewrite |
//! | [`http`] | `wsd-http` | HTTP/1.x messages, parser, in-memory streams |
//! | [`netsim`] | `wsd-netsim` | deterministic discrete-event network simulator |
//! | [`core`] | `wsd-core` | **the dispatcher**: registry, RPC/MSG dispatching, WS-MsgBox |
//! | [`loadgen`] | `wsd-loadgen` | the paper's ramping echo test client |
//! | [`telemetry`] | `wsd-telemetry` | counters, gauges, histograms and their registry |
//!
//! # Quickstart (threaded runtime)
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use ws_dispatcher::core::registry::Registry;
//! use ws_dispatcher::core::rt::{rpc_call, EchoServer, Network, RpcDispatcherServer};
//! use ws_dispatcher::core::security::PolicyChain;
//! use ws_dispatcher::core::url::Url;
//! use ws_dispatcher::core::config::DispatcherConfig;
//! use ws_dispatcher::soap::{rpc, SoapVersion};
//!
//! let net = Network::new();
//! let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
//! let registry = Arc::new(Registry::new());
//! registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
//! let disp = RpcDispatcherServer::start(
//!     &net, "dispatcher", 8081, registry, PolicyChain::new(), DispatcherConfig::default());
//!
//! let req = rpc::echo_request(SoapVersion::V11, "hello");
//! let resp = rpc_call(&net, "dispatcher", 8081, "/svc/Echo", &req, None).unwrap();
//! assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "hello");
//! disp.shutdown();
//! ws.shutdown();
//! ```

pub use wsd_concurrent as concurrent;
pub use wsd_core as core;
pub use wsd_http as http;
pub use wsd_loadgen as loadgen;
pub use wsd_netsim as netsim;
pub use wsd_soap as soap;
pub use wsd_telemetry as telemetry;
pub use wsd_wsa as wsa;
pub use wsd_xml as xml;
