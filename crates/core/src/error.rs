//! The crate-wide error type.

use wsd_soap::SoapError;

/// Errors surfaced by dispatcher components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WsdError {
    /// The message was not a usable SOAP envelope.
    Soap(SoapError),
    /// The logical service name is not registered.
    UnknownService(String),
    /// A physical/WSA address could not be parsed.
    BadAddress(String),
    /// The message carries no usable destination.
    NoDestination,
    /// Mailbox errors.
    MsgBox(wsd_store::StoreError),
    /// A security policy rejected the message.
    Rejected(String),
    /// The component is saturated (queue full / out of workers).
    Overloaded,
}

impl std::fmt::Display for WsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WsdError::Soap(e) => write!(f, "SOAP error: {e}"),
            WsdError::UnknownService(s) => write!(f, "unknown logical service {s:?}"),
            WsdError::BadAddress(a) => write!(f, "unparseable address {a:?}"),
            WsdError::NoDestination => f.write_str("message has no destination"),
            WsdError::MsgBox(e) => write!(f, "mailbox error: {e}"),
            WsdError::Rejected(why) => write!(f, "rejected by security policy: {why}"),
            WsdError::Overloaded => f.write_str("dispatcher overloaded"),
        }
    }
}

impl std::error::Error for WsdError {}

impl From<SoapError> for WsdError {
    fn from(e: SoapError) -> Self {
        WsdError::Soap(e)
    }
}

impl From<wsd_store::StoreError> for WsdError {
    fn from(e: wsd_store::StoreError) -> Self {
        WsdError::MsgBox(e)
    }
}
