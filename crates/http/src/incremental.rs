//! Incremental request parsing for event-driven front ends.
//!
//! A reactor reads whatever bytes a connection has ready and must park
//! the partial message until more arrive — it cannot block in
//! [`crate::MessageReader`]'s fill loop. [`RequestParser`] is the
//! push-style equivalent: feed it arbitrary chunks, get complete
//! [`Request`]s out. [`Limits`] are enforced *progressively* — an
//! oversized head or declared body is rejected as soon as it is
//! detectable, not after the bytes have been buffered — and a completed
//! message is handed to [`parse_request_bytes`], so accepted requests are
//! exactly what the blocking reader would have produced.

use crate::message::Request;
use crate::parse::{declared_length, parse_request_bytes};
use crate::{HttpError, Limits};

/// Where the parser is in the current message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accumulating start line + headers, scanning for `\r\n\r\n`.
    Head,
    /// Head complete: `head_end` bytes of head (terminator included),
    /// `body_len` declared body bytes still expected in full.
    Body { head_end: usize, body_len: usize },
}

/// A push-style HTTP/1.x request parser.
///
/// ```
/// use wsd_http::{Limits, RequestParser};
///
/// let mut p = RequestParser::new(Limits::default());
/// assert!(p.feed(b"POST / HTTP/1.1\r\nContent-Le").unwrap().is_none());
/// assert!(p.has_partial());
/// let req = p.feed(b"ngth: 2\r\n\r\nhi").unwrap().expect("complete");
/// assert_eq!(req.body.as_ref(), b"hi");
/// assert!(!p.has_partial());
/// ```
///
/// After an error the connection is unrecoverable (framing is lost);
/// callers must drop the stream, exactly as the blocking serve loop does.
pub struct RequestParser {
    limits: Limits,
    buf: Vec<u8>,
    phase: Phase,
    /// Resume offset for the head-terminator scan (relative to `pos`),
    /// so a byte-at-a-time feed stays linear instead of rescanning the
    /// whole head each call.
    scan_from: usize,
    /// Bytes before this offset are completed messages. A cursor instead
    /// of `drain`-ing the front keeps a pipelined batch from being
    /// memmoved once per message it contains (O(batch²) bytes shifted).
    pos: usize,
}

impl RequestParser {
    /// A parser enforcing `limits`.
    pub fn new(limits: Limits) -> Self {
        RequestParser {
            limits,
            buf: Vec::with_capacity(1024),
            phase: Phase::Head,
            scan_from: 0,
            pos: 0,
        }
    }

    /// Appends `bytes` and tries to complete one request. `Ok(None)`
    /// means "need more bytes". Call [`poll`](Self::poll) afterwards to
    /// drain further pipelined requests already buffered.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        self.buf.extend_from_slice(bytes);
        self.poll()
    }

    /// Tries to complete one request from already-buffered bytes.
    pub fn poll(&mut self) -> Result<Option<Request>, HttpError> {
        if self.phase == Phase::Head && !self.try_finish_head()? {
            return Ok(None);
        }
        let Phase::Body { head_end, body_len } = self.phase else {
            unreachable!("head completed above")
        };
        let total = head_end + body_len;
        if self.buf.len() - self.pos < total {
            return Ok(None);
        }
        let req = parse_request_bytes(&self.buf[self.pos..self.pos + total])?;
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos > self.buf.len() - self.pos {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.phase = Phase::Head;
        self.scan_from = 0;
        Ok(Some(req))
    }

    /// Scans for the head terminator; on success parses `Content-Length`
    /// and advances to [`Phase::Body`]. Returns whether the head is
    /// complete. Limit violations surface exactly like the blocking
    /// reader's: oversized head while the terminator is missing,
    /// oversized declared body as soon as the head closes.
    fn try_finish_head(&mut self) -> Result<bool, HttpError> {
        let from = self.scan_from.saturating_sub(3);
        let live = self.buf.len() - self.pos;
        let Some(at) = wsd_xml::swar::find_seq(&self.buf[self.pos + from..], b"\r\n\r\n") else {
            if live > self.limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            self.scan_from = live;
            return Ok(false);
        };
        let head_end = from + at + 4;
        // Same rule as the blocking reader: a completed head over the
        // limit is rejected even when it arrived in one large chunk, so
        // acceptance is independent of how the bytes were chunked.
        if head_end > self.limits.max_head {
            return Err(HttpError::TooLarge("head"));
        }
        let body_len = declared_length(&self.buf[self.pos..], head_end - 4)?;
        if body_len > self.limits.max_body {
            return Err(HttpError::TooLarge("body"));
        }
        self.phase = Phase::Body { head_end, body_len };
        Ok(true)
    }

    /// Whether a partially-received message is parked in the buffer.
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.pos
    }

    /// Bytes currently buffered (partial message + pipelined surplus).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl std::fmt::Debug for RequestParser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestParser")
            .field("buffered", &(self.buf.len() - self.pos))
            .field("phase", &self.phase)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::request_bytes;

    fn sample(body: &str) -> Vec<u8> {
        request_bytes(&Request::soap_post(
            "h",
            "/svc",
            "text/xml",
            body.as_bytes().to_vec(),
        ))
    }

    #[test]
    fn whole_buffer_matches_batch_parser() {
        let bytes = sample("<env>payload</env>");
        let expected = parse_request_bytes(&bytes).unwrap();
        let mut p = RequestParser::new(Limits::default());
        assert_eq!(p.feed(&bytes).unwrap().unwrap(), expected);
        assert!(!p.has_partial());
    }

    #[test]
    fn byte_at_a_time_matches_batch_parser() {
        let bytes = sample("drip-fed");
        let expected = parse_request_bytes(&bytes).unwrap();
        let mut p = RequestParser::new(Limits::default());
        let mut got = None;
        for (i, b) in bytes.iter().enumerate() {
            match p.feed(std::slice::from_ref(b)).unwrap() {
                Some(req) => {
                    assert_eq!(i, bytes.len() - 1, "complete only on the last byte");
                    got = Some(req);
                }
                None => assert!(p.has_partial()),
            }
        }
        assert_eq!(got.unwrap(), expected);
    }

    #[test]
    fn pipelined_messages_drain_with_poll() {
        let mut bytes = sample("one");
        bytes.extend_from_slice(&sample("two!"));
        let mut p = RequestParser::new(Limits::default());
        let first = p.feed(&bytes).unwrap().unwrap();
        assert_eq!(first.body.as_ref(), b"one");
        let second = p.poll().unwrap().unwrap();
        assert_eq!(second.body.as_ref(), b"two!");
        assert!(p.poll().unwrap().is_none());
        assert!(!p.has_partial());
    }

    #[test]
    fn head_limit_enforced_before_terminator() {
        let limits = Limits {
            max_head: 64,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        let mut err = None;
        for _ in 0..40 {
            match p.feed(b"X-Pad: aaaa\r\n") {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(HttpError::TooLarge("head")));
    }

    #[test]
    fn body_limit_enforced_at_head_completion() {
        let limits = Limits {
            max_body: 8,
            ..Limits::default()
        };
        let mut p = RequestParser::new(limits);
        // The declared length alone trips the limit: no body bytes sent.
        let err = p
            .feed(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n")
            .unwrap_err();
        assert_eq!(err, HttpError::TooLarge("body"));
    }

    #[test]
    fn bad_content_length_rejected() {
        let mut p = RequestParser::new(Limits::default());
        let err = p
            .feed(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            .unwrap_err();
        assert_eq!(err, HttpError::BadSyntax("bad Content-Length"));
    }

    #[test]
    fn split_terminator_across_feeds_is_found() {
        let mut p = RequestParser::new(Limits::default());
        assert!(p.feed(b"GET / HTTP/1.1\r\n").unwrap().is_none());
        assert!(p.feed(b"\r").unwrap().is_none());
        let req = p.feed(b"\n").unwrap().unwrap();
        assert_eq!(req.target, "/");
    }
}
