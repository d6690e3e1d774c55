//! Owned HTTP message model.

use std::borrow::Cow;

use bytes::Bytes;

/// HTTP protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Version {
    /// HTTP/1.0 — connections close after one exchange by default.
    V10,
    /// HTTP/1.1 — connections persist by default.
    #[default]
    V11,
}

impl Version {
    /// The start-line token.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::V10 => "HTTP/1.0",
            Version::V11 => "HTTP/1.1",
        }
    }

    /// Parses a start-line token.
    pub fn parse(s: &str) -> Option<Version> {
        match s {
            "HTTP/1.0" => Some(Version::V10),
            "HTTP/1.1" => Some(Version::V11),
            _ => None,
        }
    }
}

/// Request method. SOAP uses POST; GET exists for the registry's
/// browseable WSDL listing (paper's "Yellow Pages").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Retrieve (registry browsing, liveness checks).
    Get,
    /// Submit a SOAP message.
    Post,
}

impl Method {
    /// The start-line token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
        }
    }

    /// Parses a start-line token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            _ => None,
        }
    }
}

/// Response status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// 200 OK.
    pub const OK: Status = Status(200);
    /// 202 Accepted — one-way message taken for forwarding.
    pub const ACCEPTED: Status = Status(202);
    /// 400 Bad Request.
    pub const BAD_REQUEST: Status = Status(400);
    /// 404 Not Found — unknown logical service or mailbox.
    pub const NOT_FOUND: Status = Status(404);
    /// 408 Request Timeout.
    pub const REQUEST_TIMEOUT: Status = Status(408);
    /// 500 Internal Server Error — SOAP fault carrier for 1.1.
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    /// 502 Bad Gateway — forwarding to the service failed.
    pub const BAD_GATEWAY: Status = Status(502);
    /// 503 Service Unavailable — dispatcher saturated.
    pub const SERVICE_UNAVAILABLE: Status = Status(503);

    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            408 => "Request Timeout",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Whether the status is 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// An ordered, case-insensitive header multimap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// First value for `name`, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Sets `name`, replacing every existing occurrence.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.entries.push((name, value.into()));
    }

    /// Appends a header without touching existing occurrences.
    pub fn add(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Removes every occurrence of `name`; returns whether any existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        self.entries.len() != before
    }

    /// All entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether there are no headers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parsed `Content-Length`, if present and numeric.
    pub fn content_length(&self) -> Option<usize> {
        self.get("content-length")?.trim().parse().ok()
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target (origin form, e.g. `/svc/echo`).
    pub target: String,
    /// Protocol version.
    pub version: Version,
    /// Header lines.
    pub headers: Headers,
    /// Message body — cheaply clonable, shared, immutable.
    pub body: Bytes,
}

impl Request {
    /// A SOAP POST carrying `body` to `target`, with the headers the
    /// paper's client sends (Host, SOAPAction, Content-Type,
    /// Content-Length).
    pub fn soap_post(
        host: &str,
        target: &str,
        content_type: &str,
        body: impl Into<Bytes>,
    ) -> Request {
        let body = body.into();
        let mut headers = Headers::new();
        headers.set("Host", host);
        headers.set("Content-Type", content_type);
        headers.set("Content-Length", body.len().to_string());
        headers.set("SOAPAction", "\"\"");
        headers.set("User-Agent", "wsd-client/0.1");
        Request {
            method: Method::Post,
            target: target.to_string(),
            version: Version::V11,
            headers,
            body,
        }
    }

    /// A bodyless GET.
    pub fn get(host: &str, target: &str) -> Request {
        let mut headers = Headers::new();
        headers.set("Host", host);
        Request {
            method: Method::Get,
            target: target.to_string(),
            version: Version::V11,
            headers,
            body: Bytes::new(),
        }
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        keep_alive(self.version, self.headers.get("connection"))
    }

    /// The body as UTF-8, lossily: borrowed unless it is not UTF-8.
    pub fn body_utf8(&self) -> Cow<'_, str> {
        utf8_lossy(&self.body)
    }

    /// The body as UTF-8, borrowed — no copy, `None` when not UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The body as an owned `String`, lossily: the body's own buffer when
    /// this request holds its only handle and it is UTF-8, a copy
    /// otherwise. The bytes are those [`body_utf8`](Self::body_utf8)
    /// reads.
    pub fn into_body_string(self) -> String {
        String::from_utf8(self.body.into_vec())
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }
}

/// `String::from_utf8_lossy`, with the validating fast path first: the
/// lossy walk is several times slower on the valid bodies every
/// exchange carries, and returns the same borrow for them.
fn utf8_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Protocol version.
    pub version: Version,
    /// Status code.
    pub status: Status,
    /// Header lines.
    pub headers: Headers,
    /// Message body — cheaply clonable, shared, immutable.
    pub body: Bytes,
}

impl Response {
    /// A response with a body and explicit content type.
    pub fn new(status: Status, content_type: &str, body: impl Into<Bytes>) -> Response {
        let body = body.into();
        let mut headers = Headers::new();
        headers.set("Content-Type", content_type);
        headers.set("Content-Length", body.len().to_string());
        headers.set("Server", "wsd/0.1");
        Response {
            version: Version::V11,
            status,
            headers,
            body,
        }
    }

    /// An empty-bodied response.
    pub fn empty(status: Status) -> Response {
        let mut headers = Headers::new();
        headers.set("Content-Length", "0");
        headers.set("Server", "wsd/0.1");
        Response {
            version: Version::V11,
            status,
            headers,
            body: Bytes::new(),
        }
    }

    /// Whether the connection should stay open after this exchange.
    pub fn keep_alive(&self) -> bool {
        keep_alive(self.version, self.headers.get("connection"))
    }

    /// The body as UTF-8, lossily: borrowed unless it is not UTF-8.
    pub fn body_utf8(&self) -> Cow<'_, str> {
        utf8_lossy(&self.body)
    }

    /// The body as UTF-8, borrowed — no copy, `None` when not UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

fn keep_alive(version: Version, connection: Option<&str>) -> bool {
    match connection.map(|c| c.to_ascii_lowercase()) {
        Some(c) if c.contains("close") => false,
        Some(c) if c.contains("keep-alive") => true,
        _ => version == Version::V11,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headers_are_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/xml");
        assert_eq!(h.get("content-type"), Some("text/xml"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/xml"));
        assert!(h.remove("CoNtEnT-tYpE"));
        assert!(h.get("content-type").is_none());
    }

    #[test]
    fn set_replaces_all_add_appends() {
        let mut h = Headers::new();
        h.add("X", "1");
        h.add("x", "2");
        assert_eq!(h.len(), 2);
        h.set("X", "3");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("x"), Some("3"));
    }

    #[test]
    fn content_length_parses() {
        let mut h = Headers::new();
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn keep_alive_defaults_per_version() {
        let mut req = Request::get("h", "/");
        assert!(req.keep_alive());
        req.version = Version::V10;
        assert!(!req.keep_alive());
        req.headers.set("Connection", "keep-alive");
        assert!(req.keep_alive());
        req.version = Version::V11;
        req.headers.set("Connection", "close");
        assert!(!req.keep_alive());
    }

    #[test]
    fn soap_post_has_framing_headers() {
        let req = Request::soap_post("svc.example", "/echo", "text/xml; charset=utf-8", vec![0; 10]);
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.headers.content_length(), Some(10));
        assert_eq!(req.headers.get("host"), Some("svc.example"));
        assert!(req.headers.get("soapaction").is_some());
    }

    #[test]
    fn body_text_is_the_lossy_conversion() {
        for body in [&b"<e>plain</e>"[..], "héllo — 世界".as_bytes(), b"bad \xff\xfe utf-8", b""] {
            let req = Request::soap_post("h", "/", "text/xml", body.to_vec());
            let lossy = String::from_utf8_lossy(body);
            assert_eq!(req.body_utf8(), lossy);
            assert_eq!(matches!(req.body_utf8(), Cow::Borrowed(_)), req.body_str().is_some());
            let resp = Response::new(Status::OK, "text/xml", body.to_vec());
            assert_eq!(resp.body_utf8(), lossy);
            assert_eq!(req.into_body_string(), lossy);
        }
    }

    #[test]
    fn a_unique_body_becomes_a_string_in_place() {
        let body = b"<stored/>".to_vec();
        let at = body.as_ptr();
        let req = Request::soap_post("h", "/deposit/x", "text/xml", body);
        let stored = req.into_body_string();
        assert_eq!(stored.as_ptr(), at);
    }

    #[test]
    fn status_reasons() {
        assert_eq!(Status::OK.reason(), "OK");
        assert_eq!(Status::BAD_GATEWAY.reason(), "Bad Gateway");
        assert_eq!(Status(299).reason(), "Unknown");
        assert!(Status::ACCEPTED.is_success());
        assert!(!Status::NOT_FOUND.is_success());
    }

    #[test]
    fn method_version_tokens_round_trip() {
        for m in [Method::Get, Method::Post] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        for v in [Version::V10, Version::V11] {
            assert_eq!(Version::parse(v.as_str()), Some(v));
        }
        assert_eq!(Method::parse("BREW"), None);
        assert_eq!(Version::parse("HTTP/2"), None);
    }
}
