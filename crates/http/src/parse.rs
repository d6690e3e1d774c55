//! Message parsing, from complete buffers (simulated network) or from
//! blocking streams (threaded runtime).

use crate::frame::Framer;
use crate::message::{Headers, Method, Request, Response, Status, Version};
use crate::stream::Stream;
use crate::{HttpError, Limits};

/// Parses one complete request from a buffer that contains exactly one
/// message (what the simulated network delivers).
pub fn parse_request_bytes(bytes: &[u8]) -> Result<Request, HttpError> {
    let head = Head::split(bytes)?;
    let (method, target, version) = request_line(head.start)?;
    let (headers, length) = head.headers()?;
    // The body's one copy: the message buffer is the reader's to reuse.
    let body = bytes::Bytes::copy_from_slice(head.body(bytes, length)?);
    Ok(Request {
        method,
        target: target.to_string(),
        version,
        headers,
        body,
    })
}

/// The body of the one request in `bytes`, borrowed: `Ok` with the body
/// [`parse_request_bytes`] would copy, or the error it would return, read
/// by the same walk without building the [`Request`].
pub fn request_body(bytes: &[u8]) -> Result<&[u8], HttpError> {
    let head = Head::split(bytes)?;
    request_line(head.start)?;
    let length = head.walk(|_, _| {})?;
    head.body(bytes, length)
}

/// Parses one complete response from a buffer.
pub fn parse_response_bytes(bytes: &[u8]) -> Result<Response, HttpError> {
    let head = Head::split(bytes)?;
    let (version, status) = status_line(head.start)?;
    let (headers, length) = head.headers()?;
    let body = bytes::Bytes::copy_from_slice(head.body(bytes, length)?);
    Ok(Response {
        version,
        status,
        headers,
        body,
    })
}

/// The status of the response in `bytes`, read off its start line once
/// the head is complete: wherever [`parse_response_bytes`] parses, its
/// `status`. It may answer where the whole parse would fail on a header
/// or a short body, so a caller that needs the message parses it.
pub fn response_status(bytes: &[u8]) -> Option<Status> {
    status_line(Head::split(bytes).ok()?.start).ok().map(|(_, status)| status)
}

/// The body length the head of `bytes`, whose terminator starts at
/// `end`, declares: what the stream readers' one framer (`Framer`) cuts
/// a message by before they parse it, read by the walk that parse makes,
/// so a message is framed and parsed by one rule. A head the parse would reject is
/// rejected here.
pub(crate) fn declared_length(bytes: &[u8], end: usize) -> Result<usize, HttpError> {
    Ok(Head::cut(bytes, end)?.walk(|_, _| {})?.unwrap_or(0))
}

/// A complete buffer's head, cut at its terminator: the one acceptance
/// rule every parser above walks, and the stream readers frame by.
struct Head<'a> {
    /// The start line.
    start: &'a str,
    /// The header lines after it, each behind its `\r\n`.
    fields: &'a str,
    /// Where the body starts in the buffer.
    body_start: usize,
}

impl<'a> Head<'a> {
    fn split(bytes: &'a [u8]) -> Result<Head<'a>, HttpError> {
        let end = wsd_xml::swar::find_seq(bytes, b"\r\n\r\n");
        Head::cut(bytes, end.ok_or(HttpError::UnexpectedEof)?)
    }

    /// The head of `bytes` whose terminator starts at `end`.
    fn cut(bytes: &'a [u8], end: usize) -> Result<Head<'a>, HttpError> {
        let head = std::str::from_utf8(&bytes[..end])
            .map_err(|_| HttpError::BadSyntax("head not UTF-8"))?;
        let (start, fields) = head.split_at(head.find("\r\n").unwrap_or(head.len()));
        Ok(Head {
            start,
            fields,
            body_start: end + 4,
        })
    }

    /// Checks every header line in order, handing each to `each` as name
    /// and trimmed value (blank lines are skipped; a line without a colon
    /// or with a bad name is an error), and returns the last
    /// `Content-Length`, `None` when there is none; one that is not a
    /// number is an error.
    fn walk(&self, mut each: impl FnMut(&'a str, &'a str)) -> Result<Option<usize>, HttpError> {
        let mut length = None;
        for line in self.fields.split("\r\n").filter(|line| !line.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadSyntax("header line without colon"))?;
            if name.is_empty() || name.contains(' ') {
                return Err(HttpError::BadSyntax("bad header name"));
            }
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let parsed = value.parse();
                length = Some(parsed.map_err(|_| HttpError::BadSyntax("bad Content-Length"))?);
            }
            each(name, value);
        }
        Ok(length)
    }

    /// The header lines in one buffer sized from the head, and the
    /// `Content-Length` [`walk`](Self::walk) read.
    fn headers(&self) -> Result<(Headers, Option<usize>), HttpError> {
        let mut headers = Headers::with_capacity(self.fields.len());
        let length = self.walk(|name, value| headers.add(name, value))?;
        Ok((headers, length))
    }

    /// The body `length` declares (none: empty); a short one is
    /// [`HttpError::UnexpectedEof`].
    fn body(&self, bytes: &'a [u8], length: Option<usize>) -> Result<&'a [u8], HttpError> {
        (self.body_start.checked_add(length.unwrap_or(0)))
            .and_then(|end| bytes.get(self.body_start..end))
            .ok_or(HttpError::UnexpectedEof)
    }
}

fn request_line(start: &str) -> Result<(Method, &str, Version), HttpError> {
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::BadSyntax("bad method"))?;
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(HttpError::BadSyntax("missing target"))?;
    let version = parts
        .next()
        .and_then(Version::parse)
        .ok_or(HttpError::BadSyntax("bad version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadSyntax("extra tokens in start line"));
    }
    Ok((method, target, version))
}

fn status_line(start: &str) -> Result<(Version, Status), HttpError> {
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .and_then(Version::parse)
        .ok_or(HttpError::BadSyntax("bad version"))?;
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .map(Status)
        .ok_or(HttpError::BadSyntax("bad status code"))?;
    // The reason phrase is ignored; the code is canonical.
    Ok((version, status))
}

/// A buffered reader that pulls complete messages off a [`Stream`],
/// preserving any bytes that belong to the next keep-alive message.
pub struct MessageReader<S: Stream> {
    stream: S,
    framer: Framer,
}

impl<S: Stream> MessageReader<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        MessageReader {
            stream,
            framer: Framer::new(),
        }
    }

    /// The underlying stream (for writing replies and setting timeouts).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Reads until the buffer holds one complete message (head + declared
    /// body), then hands its bytes to `parse`.
    fn read_message<T>(
        &mut self,
        limits: &Limits,
        parse: impl Fn(&[u8]) -> Result<T, HttpError>,
    ) -> Result<T, HttpError> {
        loop {
            if let Some(message) = self.framer.next(limits, &parse)? {
                return Ok(message);
            }
            if self.framer.fill(|room| self.stream.read(room))? == 0 {
                return Err(match self.framer.buffered() {
                    0 => HttpError::Closed,
                    _ => HttpError::UnexpectedEof,
                });
            }
        }
    }

    /// Whether the buffer already holds one complete message (head plus
    /// declared body) — i.e. whether the next `read_*` call can succeed
    /// without touching the stream. Malformed buffered heads report
    /// `true`: the subsequent read errors out instead of blocking.
    ///
    /// Servers use this to keep serving pipelined requests from the
    /// buffer and only flush batched responses before a read that would
    /// actually block.
    pub fn has_buffered_message(&self) -> bool {
        self.framer.has_message()
    }

    /// Reads one request.
    pub fn read_request(&mut self, limits: &Limits) -> Result<Request, HttpError> {
        self.read_message(limits, parse_request_bytes)
    }

    /// Reads one response.
    pub fn read_response(&mut self, limits: &Limits) -> Result<Response, HttpError> {
        self.read_message(limits, parse_response_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{request_bytes, response_bytes};
    use crate::stream::duplex;
    use std::io::Write;

    #[test]
    fn request_bytes_round_trip() {
        let req = Request::soap_post("h", "/svc/echo", "text/xml; charset=utf-8", b"<e/>".to_vec());
        let parsed = parse_request_bytes(&request_bytes(&req)).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn response_bytes_round_trip() {
        let resp = Response::new(Status::OK, "text/xml", b"<r/>".to_vec());
        let parsed = parse_response_bytes(&response_bytes(&resp)).unwrap();
        assert_eq!(parsed, resp);
    }

    #[test]
    fn truncated_body_is_eof() {
        let req = Request::soap_post("h", "/", "text/xml", b"full body".to_vec());
        let bytes = request_bytes(&req);
        let cut = &bytes[..bytes.len() - 3];
        assert_eq!(parse_request_bytes(cut), Err(HttpError::UnexpectedEof));
    }

    #[test]
    fn missing_head_terminator_is_eof() {
        assert_eq!(
            parse_request_bytes(b"POST / HTTP/1.1\r\nHost: h\r\n"),
            Err(HttpError::UnexpectedEof)
        );
    }

    #[test]
    fn bad_start_lines_rejected() {
        assert!(matches!(
            parse_request_bytes(b"BREW / HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadSyntax(_))
        ));
        assert!(matches!(
            parse_request_bytes(b"POST / HTTP/9.9\r\n\r\n"),
            Err(HttpError::BadSyntax(_))
        ));
        assert!(matches!(
            parse_response_bytes(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(HttpError::BadSyntax(_))
        ));
    }

    #[test]
    fn header_without_colon_rejected() {
        assert!(matches!(
            parse_request_bytes(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadSyntax(_))
        ));
    }

    #[test]
    fn content_length_is_read_alike_for_framing_and_parsing() {
        // Two lengths: the last one frames the message and is its body.
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 9\r\nContent-Length: 2\r\n\r\nab";
        assert_eq!(parse_request_bytes(wire).unwrap().body, &b"ab"[..]);
        let (mut client, server) = duplex(256);
        client.write_all(wire).unwrap();
        drop(client);
        let read = MessageReader::new(server).read_request(&Limits::default());
        assert_eq!(read.unwrap().body, &b"ab"[..]);
        // A length that is not a number is an error to the parse too.
        let junk = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n";
        assert_eq!(parse_request_bytes(junk), Err(HttpError::BadSyntax("bad Content-Length")));
        assert_eq!(request_body(junk), Err(HttpError::BadSyntax("bad Content-Length")));
    }

    #[test]
    fn reason_phrase_with_spaces_ok() {
        let resp = parse_response_bytes(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(resp.status, Status::INTERNAL_SERVER_ERROR);
    }

    #[test]
    fn reader_handles_pipelined_messages() {
        let (mut client, server) = duplex(4096);
        let r1 = Request::soap_post("h", "/a", "text/xml", b"one".to_vec());
        let r2 = Request::soap_post("h", "/b", "text/xml", b"two!".to_vec());
        let mut bytes = request_bytes(&r1);
        bytes.extend_from_slice(&request_bytes(&r2));
        client.write_all(&bytes).unwrap();
        let mut reader = MessageReader::new(server);
        let limits = Limits::default();
        assert_eq!(reader.read_request(&limits).unwrap(), r1);
        assert_eq!(reader.read_request(&limits).unwrap(), r2);
    }

    #[test]
    fn reader_takes_a_large_body_across_many_reads() {
        let body: Vec<u8> = (0..300_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let resp = Response::new(Status::OK, "text/xml", body.clone());
        let (mut server, client) = duplex(64 * 1024);
        let writer = std::thread::spawn(move || {
            // A second response behind it: what the first one's reads
            // pull in of it must still be there for the next call.
            let next = Response::new(Status::OK, "text/xml", b"next".to_vec());
            let mut wire = response_bytes(&resp);
            wire.extend_from_slice(&response_bytes(&next));
            server.write_all(&wire).unwrap();
        });
        let mut reader = MessageReader::new(client);
        let got = reader.read_response(&Limits::default()).unwrap();
        assert_eq!(got.body, body);
        assert_eq!(reader.read_response(&Limits::default()).unwrap().body, b"next");
        writer.join().unwrap();
    }

    #[test]
    fn reader_reports_clean_close_between_messages() {
        let (client, server) = duplex(64);
        drop(client);
        let mut reader = MessageReader::new(server);
        assert_eq!(
            reader.read_request(&Limits::default()),
            Err(HttpError::Closed)
        );
    }

    #[test]
    fn reader_reports_mid_message_close() {
        let (mut client, server) = duplex(64);
        client.write_all(b"POST / HTTP/1.1\r\n").unwrap();
        drop(client);
        let mut reader = MessageReader::new(server);
        assert_eq!(
            reader.read_request(&Limits::default()),
            Err(HttpError::UnexpectedEof)
        );
    }

    #[test]
    fn reader_enforces_head_limit() {
        let (mut client, server) = duplex(1 << 20);
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', 64 * 1024));
        client.write_all(&big).unwrap();
        let mut reader = MessageReader::new(server);
        assert_eq!(
            reader.read_request(&Limits::default()),
            Err(HttpError::TooLarge("head"))
        );
    }

    #[test]
    fn reader_enforces_body_limit() {
        let (mut client, server) = duplex(4096);
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n")
            .unwrap();
        let mut reader = MessageReader::new(server);
        assert_eq!(
            reader.read_request(&Limits::default()),
            Err(HttpError::TooLarge("body"))
        );
    }

    #[test]
    fn body_with_binary_content_survives() {
        let mut req = Request::soap_post("h", "/", "application/octet-stream", vec![]);
        req.body = (0..=255u8).collect::<Vec<u8>>().into();
        req.headers.set("Content-Length", req.body.len().to_string());
        let parsed = parse_request_bytes(&request_bytes(&req)).unwrap();
        assert_eq!(parsed.body, req.body);
    }
}
