//! SOAP 1.1 / 1.2 envelope handling for the WS-Dispatcher.
//!
//! Mirrors the XSUL modules the paper's implementation uses (§4.2): "SOAP
//! 1.1 and 1.2 wrapping/unwrapping" and "RPC style wrapping". Everything is
//! hand-rolled on top of [`wsd_xml`] — there is no schema machinery, just
//! the envelope structure the dispatcher needs to inspect, rewrite and
//! forward messages. A fault can also be written straight into a caller's
//! `String` ([`Fault::push_fault_envelope`]), with no tree and no buffer
//! of this crate's own.
//!
//! # Example
//!
//! ```
//! use wsd_soap::{Envelope, SoapVersion, rpc};
//!
//! // Build the paper's echo request and round-trip it.
//! let env = rpc::echo_request(SoapVersion::V11, "ping-1");
//! let text = env.to_xml();
//! let parsed = Envelope::parse(&text).unwrap();
//! assert_eq!(rpc::parse_echo(&parsed).unwrap(), "ping-1");
//! ```

#![warn(missing_docs)]

pub mod envelope;
pub mod fault;
pub mod rpc;
pub mod version;

pub use envelope::{Body, Envelope};
pub use fault::{Fault, FaultCode};
pub use version::SoapVersion;

/// Errors raised while interpreting a document as a SOAP envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoapError {
    /// The document is not XML at all.
    Xml(wsd_xml::XmlError),
    /// The root element is not a SOAP 1.1 or 1.2 `Envelope`.
    NotAnEnvelope,
    /// The envelope has no `Body` element.
    MissingBody,
    /// The body is not shaped like the expected RPC call.
    BadRpc(&'static str),
}

impl std::fmt::Display for SoapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "invalid XML: {e}"),
            SoapError::NotAnEnvelope => f.write_str("root element is not a SOAP Envelope"),
            SoapError::MissingBody => f.write_str("SOAP envelope has no Body"),
            SoapError::BadRpc(m) => write!(f, "malformed RPC body: {m}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<wsd_xml::XmlError> for SoapError {
    fn from(e: wsd_xml::XmlError) -> Self {
        SoapError::Xml(e)
    }
}
