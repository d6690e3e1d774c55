//! WS-Addressing (August 2004 member submission) for the WS-Dispatcher.
//!
//! The paper routes asynchronous messages with WS-Addressing \[10\]: the
//! MSG-Dispatcher parses the request's addressing headers, replaces the
//! client's return address with its own, and forwards the message; replies
//! are correlated back through `RelatesTo`. This crate implements the
//! header vocabulary ([`WsaHeaders`]), endpoint references
//! ([`EndpointReference`]), message-id generation ([`MsgIdGen`]) and the
//! dispatcher's header rewrite ([`rewrite`]).
//!
//! # Example
//!
//! ```
//! use wsd_soap::{Envelope, SoapVersion, rpc};
//! use wsd_wsa::{WsaHeaders, EndpointReference, ANONYMOUS};
//!
//! let mut env = rpc::echo_request(SoapVersion::V11, "hi");
//! let headers = WsaHeaders::new()
//!     .to("http://dispatcher/svc/echo")
//!     .reply_to(EndpointReference::new(ANONYMOUS))
//!     .action("urn:wsd:echo:echo")
//!     .message_id("uuid:1");
//! headers.apply(&mut env);
//! let read = WsaHeaders::from_envelope(&env).unwrap();
//! assert_eq!(read.to.as_deref(), Some("http://dispatcher/svc/echo"));
//! ```

#![warn(missing_docs)]

pub mod epr;
pub mod headers;
pub mod msgid;
pub mod rewrite;
pub mod splice;

pub use epr::EndpointReference;
pub use headers::WsaHeaders;
pub use msgid::MsgIdGen;
pub use rewrite::{correlation_id, rewrite_for_forward, rewrite_for_reply, RouteRecord};
pub use splice::{scan, ScannedWsa};

/// The WS-Addressing namespace the paper used (2004/08 member submission).
pub const WSA_NS: &str = "http://schemas.xmlsoap.org/ws/2004/08/addressing";

/// The anonymous endpoint URI: "reply on the same connection".
pub const ANONYMOUS: &str =
    "http://schemas.xmlsoap.org/ws/2004/08/addressing/role/anonymous";

/// Errors raised while reading addressing headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsaError {
    /// An EPR element with no `Address` child.
    MissingAddress(&'static str),
    /// A header that must appear at most once appeared twice.
    Duplicated(&'static str),
}

impl std::fmt::Display for WsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WsaError::MissingAddress(h) => write!(f, "{h} endpoint reference has no Address"),
            WsaError::Duplicated(h) => write!(f, "duplicate {h} header"),
        }
    }
}

impl std::error::Error for WsaError {}
