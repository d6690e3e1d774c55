//! Message parsing, from complete buffers (simulated network) or from
//! blocking streams (threaded runtime).

use crate::message::{Headers, Method, Request, Response, Status, Version};
use crate::stream::Stream;
use crate::{HttpError, Limits};

/// Parses one complete request from a buffer that contains exactly one
/// message (what the simulated network delivers).
pub fn parse_request_bytes(bytes: &[u8]) -> Result<Request, HttpError> {
    let (head, body_start) = split_head(bytes)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(HttpError::BadSyntax("empty head"))?;
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::BadSyntax("bad method"))?;
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(HttpError::BadSyntax("missing target"))?
        .to_string();
    let version = parts
        .next()
        .and_then(Version::parse)
        .ok_or(HttpError::BadSyntax("bad version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadSyntax("extra tokens in start line"));
    }
    let headers = parse_headers(lines)?;
    let body = read_body(bytes, body_start, &headers)?;
    Ok(Request {
        method,
        target,
        version,
        headers,
        body,
    })
}

/// Parses one complete response from a buffer.
pub fn parse_response_bytes(bytes: &[u8]) -> Result<Response, HttpError> {
    let (head, body_start) = split_head(bytes)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(HttpError::BadSyntax("empty head"))?;
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
    let headers = parse_headers(lines)?;
    let body = read_body(bytes, body_start, &headers)?;
    Ok(Response {
        version,
        status,
        headers,
        body,
    })
}

fn split_head(bytes: &[u8]) -> Result<(&str, usize), HttpError> {
    let end = find_head_end(bytes).ok_or(HttpError::UnexpectedEof)?;
    let head =
        std::str::from_utf8(&bytes[..end]).map_err(|_| HttpError::BadSyntax("head not UTF-8"))?;
    Ok((head, end + 4))
}

fn find_head_end(bytes: &[u8]) -> Option<usize> {
    wsd_xml::swar::find_seq(bytes, b"\r\n\r\n")
}

/// [`find_head_end`] resuming at `from` — used by the incremental reader
/// so bytes already scanned on a previous fill are not rescanned.
fn find_head_end_from(bytes: &[u8], from: usize) -> Option<usize> {
    wsd_xml::swar::find_seq(bytes.get(from..)?, b"\r\n\r\n").map(|i| i + from)
}

fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadSyntax("header line without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadSyntax("bad header name"));
        }
        headers.add(name, value.trim());
    }
    Ok(headers)
}

fn read_body(
    bytes: &[u8],
    body_start: usize,
    headers: &Headers,
) -> Result<bytes::Bytes, HttpError> {
    let len = headers.content_length().unwrap_or(0);
    let available = bytes.len().saturating_sub(body_start);
    if available < len {
        return Err(HttpError::UnexpectedEof);
    }
    // The body's one copy: the message buffer is the reader's to reuse.
    Ok(bytes::Bytes::copy_from_slice(&bytes[body_start..body_start + len]))
}

/// Bytes one read asks for while the head is incomplete.
const HEAD_CHUNK: usize = 4096;
/// Most bytes one read asks for: a pipe's default window.
const FILL_CHUNK: usize = 64 * 1024;

/// A buffered reader that pulls complete messages off a [`Stream`],
/// preserving any bytes that belong to the next keep-alive message.
pub struct MessageReader<S: Stream> {
    stream: S,
    buf: Vec<u8>,
    /// Bytes before this offset are consumed messages. Advancing a
    /// cursor instead of `drain`-ing the front keeps a pipelined batch
    /// from being memmoved once per message it contains (O(batch²)
    /// bytes shifted, which a 16-wide drain batch would pay per run).
    pos: usize,
}

impl<S: Stream> MessageReader<S> {
    /// Wraps a stream.
    pub fn new(stream: S) -> Self {
        MessageReader {
            stream,
            buf: Vec::with_capacity(1024),
            pos: 0,
        }
    }

    /// The underlying stream (for writing replies and setting timeouts).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }

    /// Consumes the reader, returning the stream. Buffered bytes are
    /// discarded.
    pub fn into_stream(self) -> S {
        self.stream
    }

    /// One read from the stream straight into the buffer, of at most
    /// `want` bytes (capped at [`FILL_CHUNK`], so that a short read does
    /// not leave much zeroed room behind to be zeroed again).
    fn fill(&mut self, want: usize) -> Result<usize, HttpError> {
        let len = self.buf.len();
        self.buf.resize(len + want.clamp(1, FILL_CHUNK), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        Ok(read?)
    }

    /// Reads until the buffer holds one complete message (head + declared
    /// body), then hands its bytes to `parse`.
    fn read_message<T>(
        &mut self,
        limits: &Limits,
        parse: impl Fn(&[u8]) -> Result<T, HttpError>,
    ) -> Result<T, HttpError> {
        // 1. Accumulate the head. Each fill resumes the terminator scan
        // where the last one stopped (minus 3 bytes, for a `\r\n\r\n`
        // torn across the chunk boundary) instead of rescanning the
        // whole buffer.
        let mut scan_from = 0usize;
        let head_end = loop {
            if let Some(end) = find_head_end_from(&self.buf[self.pos..], scan_from) {
                // The completed head must itself respect the limit: a
                // large read chunk must not smuggle in an oversized head
                // that a byte-at-a-time arrival would have rejected.
                if end + 4 > limits.max_head {
                    return Err(HttpError::TooLarge("head"));
                }
                break end + 4;
            }
            if self.buf.len() - self.pos > limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            scan_from = (self.buf.len() - self.pos).saturating_sub(3);
            if self.fill(HEAD_CHUNK)? == 0 {
                return if self.buf.len() == self.pos {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::UnexpectedEof)
                };
            }
        };
        // 2. Find the declared body length (cheap scan of the head).
        let head = std::str::from_utf8(&self.buf[self.pos..self.pos + head_end - 4])
            .map_err(|_| HttpError::BadSyntax("head not UTF-8"))?;
        let mut body_len = 0usize;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    body_len = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::BadSyntax("bad Content-Length"))?;
                }
            }
        }
        if body_len > limits.max_body {
            return Err(HttpError::TooLarge("body"));
        }
        // 3. Accumulate the body: room for all of it at once, then reads
        // straight into that room.
        let total = head_end + body_len;
        self.buf.reserve((self.pos + total).saturating_sub(self.buf.len()));
        while self.buf.len() - self.pos < total {
            if self.fill(self.pos + total - self.buf.len())? == 0 {
                return Err(HttpError::UnexpectedEof);
            }
        }
        // 4. Parse and retain any bytes of the next message: advance the
        // cursor past this one, reclaiming the buffer only when it is
        // fully consumed (free) or the dead prefix outgrows the live
        // tail (one bounded memmove per reclaim, amortized O(1)/byte).
        let result = parse(&self.buf[self.pos..self.pos + total]);
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos > self.buf.len() - self.pos {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        result
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
        let buf = &self.buf[self.pos..];
        let Some(end) = find_head_end(buf) else {
            return false;
        };
        let Ok(head) = std::str::from_utf8(&buf[..end]) else {
            return true; // read_* will reject it without blocking
        };
        let mut body_len = 0usize;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    match value.trim().parse() {
                        Ok(n) => body_len = n,
                        Err(_) => return true, // ditto: immediate BadSyntax
                    }
                }
            }
        }
        buf.len() >= end + 4 + body_len
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
