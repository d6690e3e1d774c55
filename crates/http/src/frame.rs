//! `Content-Length` framing: the one [`Framer`] both stream readers,
//! [`RequestParser`](crate::RequestParser) and
//! [`MessageReader`](crate::MessageReader), keep their bytes in.

use crate::parse::declared_length;
use crate::{HttpError, Limits};

/// Bytes one read asks for while the head is incomplete.
const HEAD_CHUNK: usize = 4096;
/// Most bytes one read asks for: a pipe's default window.
const FILL_CHUNK: usize = 64 * 1024;

/// A byte buffer cut into HTTP/1.x messages: each head's declared length
/// is read by the buffer parse's own walk ([`declared_length`]), and
/// [`Limits`] are enforced as soon as a violation shows, before the bytes
/// are buffered.
pub(crate) struct Framer {
    buf: Vec<u8>,
    /// Bytes before this offset are consumed messages. A cursor instead
    /// of `drain`-ing the front keeps a pipelined batch from being
    /// memmoved once per message it contains (O(batch²) bytes shifted).
    pos: usize,
    /// Resume offset for the head-terminator scan (relative to `pos`), so
    /// a byte-at-a-time arrival stays linear.
    scan_from: usize,
    /// The current message's length, head and body, once its head is in.
    len: Option<usize>,
}

impl Framer {
    pub(crate) fn new() -> Self {
        Framer {
            buf: Vec::with_capacity(1024),
            pos: 0,
            scan_from: 0,
            len: None,
        }
    }

    /// Bytes buffered and not yet handed out as a message.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One `read` straight into the buffer, asking for the rest of the
    /// current message once its length is known and [`HEAD_CHUNK`] before
    /// (capped at [`FILL_CHUNK`], so that a short read does not leave much
    /// zeroed room behind to be zeroed again). Returns what `read` read.
    pub(crate) fn fill(
        &mut self,
        read: impl FnOnce(&mut [u8]) -> std::io::Result<usize>,
    ) -> Result<usize, HttpError> {
        let len = self.buf.len();
        let want = self.len.map_or(HEAD_CHUNK, |total| self.pos + total - len);
        self.buf.resize(len + want.clamp(1, FILL_CHUNK), 0);
        let read = read(&mut self.buf[len..]);
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        Ok(read?)
    }

    /// Where the current message's head terminator starts (relative to
    /// `pos`), resuming the scan 3 bytes before where the last one stopped
    /// (for a `\r\n\r\n` torn across two arrivals).
    fn head_end(&self) -> Option<usize> {
        let from = self.scan_from.saturating_sub(3);
        wsd_xml::swar::find_seq(&self.buf[self.pos + from..], b"\r\n\r\n").map(|at| from + at)
    }

    /// `parse`'s result on the next message's bytes, which it consumes,
    /// or `Ok(None)` while they are not all buffered.
    pub(crate) fn next<T>(
        &mut self,
        limits: &Limits,
        parse: impl FnOnce(&[u8]) -> Result<T, HttpError>,
    ) -> Result<Option<T>, HttpError> {
        if self.len.is_none() {
            let Some(end) = self.head_end() else {
                if self.buffered() > limits.max_head {
                    return Err(HttpError::TooLarge("head"));
                }
                self.scan_from = self.buffered();
                return Ok(None);
            };
            // A completed head over the limit is rejected even when it
            // arrived in one chunk, so acceptance is chunking-independent.
            if end + 4 > limits.max_head {
                return Err(HttpError::TooLarge("head"));
            }
            let body_len = declared_length(&self.buf[self.pos..], end)?;
            if body_len > limits.max_body {
                return Err(HttpError::TooLarge("body"));
            }
            let len = end + 4 + body_len;
            // Room for all of the message at once.
            self.buf.reserve((self.pos + len).saturating_sub(self.buf.len()));
            self.len = Some(len);
        }
        match self.len {
            Some(len) if self.buffered() >= len => self.take(len, parse).map(Some),
            _ => Ok(None),
        }
    }

    /// Hands the `len` bytes of the framed message to `parse` and consumes
    /// them. The buffer is reclaimed only when it is fully consumed (free)
    /// or the dead prefix outgrows the live tail (one bounded memmove per
    /// reclaim, amortized O(1) a byte).
    fn take<T>(&mut self, len: usize, parse: impl FnOnce(&[u8]) -> T) -> T {
        let result = parse(&self.buf[self.pos..self.pos + len]);
        self.pos += len;
        self.len = None;
        self.scan_from = 0;
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

    /// Whether [`next`](Self::next) answers without more bytes: one whole
    /// message is buffered, or a head the parse rejects.
    pub(crate) fn has_message(&self) -> bool {
        let live = &self.buf[self.pos..];
        let len = self.len.map(Ok).or_else(|| {
            let end = self.head_end()?;
            Some(declared_length(live, end).map(|body| end + 4 + body))
        });
        len.is_some_and(|len| len.map_or(true, |len| live.len() >= len))
    }
}
