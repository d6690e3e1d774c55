//! Minimal HTTP/1.x for SOAP transport.
//!
//! The paper's dispatcher speaks SOAP over HTTP exclusively (XSUL's "HTTP
//! transport (client and server)" module). This crate provides the
//! matching pieces:
//!
//! * an owned message model ([`Request`], [`Response`], [`Headers`]),
//!   whose head is one buffer: [`Headers`] keeps its lines as they go
//!   on the wire, so a parsed head is one allocation and a written one
//!   one copy,
//! * a parser and serializer, both for complete byte buffers (used on the
//!   simulated network, which delivers whole messages) and for blocking
//!   [`Stream`]s (used by the real-thread runtime), plus two borrowed
//!   readers of a complete buffer ([`request_body`], [`response_status`])
//!   that walk the head by the buffer parser's own rule and build no
//!   message; both stream readers cut messages out of their bytes
//!   through one crate-private `Content-Length` framer that reads the
//!   length by that rule too,
//! * an incremental [`RequestParser`] plus readiness support on streams
//!   ([`ReadyStream`]: `try_read` and wakeup hooks), so an
//!   event-driven front end can multiplex many connections without
//!   blocking a thread per socket,
//! * an in-memory duplex pipe ([`duplex`]) so the threaded runtime can run
//!   a full client/dispatcher/service stack without real sockets,
//! * [`HttpClient`] / [`serve_connection`] helpers with HTTP/1.0-1.1
//!   keep-alive semantics.
//!
//! Only what SOAP needs is implemented: `Content-Length` framing (no
//! chunked encoding), no compression, UTF-8 bodies.

#![warn(missing_docs)]

pub mod conn;
mod frame;
pub mod incremental;
pub mod message;
pub mod parse;
pub mod serialize;
pub mod stream;

pub use bytes::Bytes;
pub use conn::{serve_connection, HttpClient};
pub use incremental::RequestParser;
pub use message::{Headers, Method, Request, Response, Status, Version};
pub use parse::{
    parse_request_bytes, parse_response_bytes, request_body, response_status, MessageReader,
};
pub use serialize::{
    request_bytes, request_bytes_into, response_bytes, response_bytes_into, response_len,
    write_request, write_response,
};
pub use stream::{duplex, PipeStream, ReadyStream, ShutdownHandle, Stream, WakeHook};

/// Errors raised by HTTP parsing and I/O.
#[derive(Debug)]
pub enum HttpError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// Malformed start line or header.
    BadSyntax(&'static str),
    /// Headers or body exceeded the configured limit.
    TooLarge(&'static str),
    /// The peer closed mid-message.
    UnexpectedEof,
    /// The peer closed before sending anything (clean close between
    /// keep-alive requests).
    Closed,
}

impl PartialEq for HttpError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (HttpError::Io(a), HttpError::Io(b)) => a.kind() == b.kind(),
            (HttpError::BadSyntax(a), HttpError::BadSyntax(b)) => a == b,
            (HttpError::TooLarge(a), HttpError::TooLarge(b)) => a == b,
            (HttpError::UnexpectedEof, HttpError::UnexpectedEof) => true,
            (HttpError::Closed, HttpError::Closed) => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "transport error: {e}"),
            HttpError::BadSyntax(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::TooLarge(m) => write!(f, "message too large: {m}"),
            HttpError::UnexpectedEof => f.write_str("connection closed mid-message"),
            HttpError::Closed => f.write_str("connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Parser limits; the defaults suit SOAP messages.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of start line + headers.
    pub max_head: usize,
    /// Maximum body bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head: 16 * 1024,
            max_body: 4 * 1024 * 1024,
        }
    }
}
