//! WS-Dispatcher: asynchronous peer-to-peer Web Services through firewalls.
//!
//! This crate is the paper's primary contribution (Caromel, di Costanzo,
//! Gannon, Slominski, IPDPS'05): an intermediary that lets Web-Service
//! peers behind firewalls — or with no network endpoint at all — hold
//! reliable, long-running conversations.
//!
//! # Components
//!
//! * [`registry`] — the shared service registry: logical → physical
//!   address mapping backed by a concurrent map and a text-file format,
//!   with the paper's future-work extensions (load balancing across
//!   endpoints, liveness marking, browseable listing).
//! * [`rpc`] — the RPC-Dispatcher: an HTTP/SOAP forwarding proxy that
//!   relays the response on the original connection.
//! * [`msg`] — the MSG-Dispatcher core: WS-Addressing header rewriting,
//!   the route table correlating replies to forwarded requests, and
//!   [`msg::link`], the per-destination connect / write / retry / give-up
//!   machine both MSG-Dispatchers drive (with the hold/retry policy of
//!   the paper's WS-ReliableMessaging-ish future work).
//! * [`msgbox`] — WS-MsgBox, the "post-office mailbox" for clients with
//!   no inbound endpoint: create / deposit / fetch / destroy, with access
//!   keys and message expiry.
//! * [`echo`] — the paper's test service, RPC and one-way, and its books.
//! * [`security`] — the message-inspection hook (size limits, required
//!   actions, single-sign-on tokens).
//!
//! # Runtimes
//!
//! The same logic runs on two substrates:
//!
//! * [`sim`] — actors on the [`wsd_netsim`] discrete-event network; every
//!   figure in the paper is regenerated on this runtime.
//! * [`rt`] — real OS threads from [`wsd_concurrent`] pools over
//!   in-memory byte streams; this is the "is the implementation language
//!   suitable?" half of the paper, with genuine parallelism.

#![warn(missing_docs)]

pub mod config;
pub mod echo;
pub mod error;
pub mod msg;
pub mod msgbox;
pub mod registry;
pub mod registry_repl;
pub mod registry_soap;
pub mod rpc;
pub mod rt;
pub mod security;
pub mod sim;
pub mod url;

pub use config::{DispatcherConfig, MsgBoxConfig, MsgBoxStrategy};
pub use error::WsdError;
pub use msg::{MsgCore, Routed, RoutedMeta, RoutedRaw};
pub use msgbox::MsgBoxStore;
pub use registry::{BalanceStrategy, Registry, ServiceEntry};
pub use url::Url;
