//! Connection helpers: a keep-alive client and a serve loop.

use std::time::Duration;

use crate::message::{Request, Response};
use crate::parse::MessageReader;
use crate::serialize::response_bytes_into;
use crate::stream::Stream;
use crate::{HttpError, Limits};

/// A client-side HTTP connection: send a request, read the response,
/// optionally reuse the connection (keep-alive). Responses are parsed
/// under [`Limits::default`].
pub struct HttpClient<S: Stream> {
    reader: MessageReader<S>,
    /// Set once either side signals `Connection: close`.
    exhausted: bool,
}

impl<S: Stream> HttpClient<S> {
    /// Wraps a connected stream.
    pub fn new(stream: S) -> Self {
        HttpClient {
            reader: MessageReader::new(stream),
            exhausted: false,
        }
    }

    /// Sets the response read timeout (the paper's HTTP/TCP timeout that
    /// dooms slow RPC responses).
    pub fn set_response_timeout(&mut self, timeout: Option<Duration>) -> Result<(), HttpError> {
        self.reader.stream_mut().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Whether the connection can carry another exchange: neither side
    /// has said `Connection: close` (a caller that pools connections
    /// asks this once the response is read).
    pub fn reusable(&self) -> bool {
        !self.exhausted
    }

    /// Performs one request/response exchange.
    pub fn call(&mut self, req: &Request) -> Result<Response, HttpError> {
        if self.exhausted {
            return Err(HttpError::Closed);
        }
        crate::serialize::write_request(self.reader.stream_mut(), req)?;
        let resp = self.reader.read_response(&Limits::default())?;
        if !req.keep_alive() || !resp.keep_alive() {
            self.exhausted = true;
        }
        Ok(resp)
    }

    /// Performs a batch of exchanges over the kept-open connection: every
    /// request is serialized into `buf` (the caller's reusable buffer) and
    /// written with a single flush, then the responses are read back in
    /// order (HTTP/1.1 pipelining). Returns the responses, one per
    /// request; any transport error mid-batch fails the whole call.
    // wsd-lint: allow(pub-without-caller): tests/scenarios.rs's pipelined row and rt::msgbox_server's tests drive the servers' pipelining with it
    pub fn call_pipelined<'a>(
        &mut self,
        reqs: impl IntoIterator<Item = &'a Request>,
        buf: &mut Vec<u8>,
    ) -> Result<Vec<Response>, HttpError> {
        let n = self.send_pipelined(reqs, buf)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.read_response()?);
        }
        Ok(out)
    }

    /// The write half of [`call_pipelined`](Self::call_pipelined): the
    /// requests go out in one write and one flush, and the caller reads
    /// the answers one by one with [`read_response`](Self::read_response)
    /// — so it knows how many arrived before a connection died. Returns
    /// how many requests were written; an error means none was.
    pub fn send_pipelined<'a>(
        &mut self,
        reqs: impl IntoIterator<Item = &'a Request>,
        buf: &mut Vec<u8>,
    ) -> Result<usize, HttpError> {
        if self.exhausted {
            return Err(HttpError::Closed);
        }
        buf.clear();
        let mut keep = true;
        let mut n = 0usize;
        for req in reqs {
            crate::serialize::request_bytes_into(buf, req);
            keep &= req.keep_alive();
            n += 1;
        }
        if n > 0 {
            self.reader.stream_mut().write_all(buf)?;
            self.reader.stream_mut().flush()?;
            self.exhausted = !keep;
        }
        Ok(n)
    }

    /// Sends a request without waiting for any response (one-way
    /// messaging; the MSG-Dispatcher acknowledges with `202 Accepted`
    /// which the caller may read later or ignore). One that says
    /// `Connection: close` ends the connection's reuse.
    pub fn send_only(&mut self, req: &Request) -> Result<(), HttpError> {
        if self.exhausted {
            return Err(HttpError::Closed);
        }
        crate::serialize::write_request(self.reader.stream_mut(), req)?;
        self.exhausted = !req.keep_alive();
        Ok(())
    }

    /// Reads one response (pairs with [`send_only`](Self::send_only) and
    /// [`send_pipelined`](Self::send_pipelined)); one that says
    /// `Connection: close` ends the connection's reuse.
    pub fn read_response(&mut self) -> Result<Response, HttpError> {
        let resp = self.reader.read_response(&Limits::default())?;
        self.exhausted |= !resp.keep_alive();
        Ok(resp)
    }
}

/// Serves one connection: reads requests, calls `handler`, writes
/// responses, until the connection closes, keep-alive ends, or the handler
/// returns a response with `Connection: close`.
///
/// Returns the number of exchanges served, or the error that ended the
/// loop (a clean close between messages is `Ok`). Responses to requests
/// handled before a framing error are still written.
pub fn serve_connection<S: Stream>(
    stream: S,
    limits: &Limits,
    mut handler: impl FnMut(Request) -> Response,
) -> Result<usize, HttpError> {
    let mut reader = MessageReader::new(stream);
    let mut served = 0usize;
    // Responses to pipelined requests accumulate here and go out in one
    // write: a 16-message batch costs one stream write (and one peer
    // wakeup) instead of sixteen.
    let mut pending: Vec<u8> = Vec::with_capacity(1024);
    loop {
        // Flush batched responses only when the next read would actually
        // block — while complete requests sit in the buffer, keep
        // serving. (Deadlock-free: the peer waiting on a response always
        // sees the flush before this side blocks on its next request.)
        if !pending.is_empty() && !reader.has_buffered_message() {
            reader.stream_mut().write_all(&pending)?;
            reader.stream_mut().flush()?;
            pending.clear();
        }
        let req = match reader.read_request(limits) {
            Ok(req) => req,
            Err(HttpError::Closed) => return Ok(served),
            Err(e) => {
                // The flush above is skipped for a buffered head that is
                // malformed. A framing error ends the run as `Connection:
                // close` does: what was executed is acknowledged before
                // the connection goes (best effort — the peer may be gone).
                if reader.stream_mut().write_all(&pending).is_ok() {
                    let _ = reader.stream_mut().flush();
                }
                return Err(e);
            }
        };
        let client_keep_alive = req.keep_alive();
        let mut resp = handler(req);
        // The connection closes after this answer: it says so, or a client
        // that reads `keep_alive()` writes into a dead one.
        if !client_keep_alive {
            resp.headers.set("Connection", "close");
        }
        response_bytes_into(&mut pending, &resp);
        served += 1;
        if !resp.keep_alive() {
            reader.stream_mut().write_all(&pending)?;
            reader.stream_mut().flush()?;
            return Ok(served);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use crate::stream::duplex;
    use std::thread;

    fn echo_handler(req: Request) -> Response {
        Response::new(Status::OK, "text/xml", req.body)
    }

    #[test]
    fn single_exchange() {
        let (client, server) = duplex(4096);
        let h = thread::spawn(move || serve_connection(server, &Limits::default(), echo_handler));
        let mut c = HttpClient::new(client);
        let mut req = Request::soap_post("h", "/", "text/xml", b"payload".to_vec());
        req.headers.set("Connection", "close");
        let resp = c.call(&req).unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body, b"payload");
        assert!(!c.reusable());
        assert_eq!(h.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn the_answer_to_a_closing_request_says_close() {
        let (client, server) = duplex(4096);
        let h = thread::spawn(move || serve_connection(server, &Limits::default(), echo_handler));
        let mut c = HttpClient::new(client);
        let mut req = Request::soap_post("h", "/", "text/xml", b"bye".to_vec());
        req.headers.set("Connection", "close");
        let resp = c.call(&req).unwrap();
        assert!(!resp.keep_alive(), "the connection closes after this answer");
        assert_eq!(h.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn keep_alive_reuses_connection() {
        let (client, server) = duplex(4096);
        let h = thread::spawn(move || serve_connection(server, &Limits::default(), echo_handler));
        let mut c = HttpClient::new(client);
        for i in 0..5 {
            let req = Request::soap_post("h", "/", "text/xml", format!("m{i}").into_bytes());
            let resp = c.call(&req).unwrap();
            assert_eq!(resp.body, format!("m{i}").into_bytes());
            assert!(c.reusable());
        }
        drop(c);
        assert_eq!(h.join().unwrap().unwrap(), 5);
    }

    #[test]
    fn pipelined_batch_round_trips_in_order() {
        let (client, server) = duplex(1 << 16);
        let h = thread::spawn(move || serve_connection(server, &Limits::default(), echo_handler));
        let mut c = HttpClient::new(client);
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request::soap_post("h", "/", "text/xml", format!("m{i}").into_bytes()))
            .collect();
        let mut buf = Vec::new();
        let resps = c.call_pipelined(reqs.iter(), &mut buf).unwrap();
        assert_eq!(resps.len(), 4);
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(r.body, format!("m{i}").into_bytes());
        }
        assert!(c.reusable());
        // The buffer is reusable across batches; an empty batch is a no-op.
        assert_eq!(c.call_pipelined([].into_iter(), &mut buf).unwrap().len(), 0);
        let resps = c.call_pipelined(reqs.iter().take(1), &mut buf).unwrap();
        assert_eq!(resps.len(), 1);
        drop(c);
        assert_eq!(h.join().unwrap().unwrap(), 5);
    }

    #[test]
    fn response_timeout_surfaces_as_io_error() {
        let (client, _server_kept_open) = duplex(4096);
        let mut c = HttpClient::new(client);
        c.set_response_timeout(Some(Duration::from_millis(20))).unwrap();
        let req = Request::soap_post("h", "/", "text/xml", b"x".to_vec());
        // No server thread: the send succeeds, the read times out.
        match c.call(&req) {
            Err(HttpError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn server_close_ends_keep_alive_client() {
        let (client, server) = duplex(4096);
        let h = thread::spawn(move || {
            serve_connection(server, &Limits::default(), |req| {
                let mut resp = Response::new(Status::OK, "text/xml", req.body);
                resp.headers.set("Connection", "close");
                resp
            })
        });
        let mut c = HttpClient::new(client);
        let req = Request::soap_post("h", "/", "text/xml", b"x".to_vec());
        c.call(&req).unwrap();
        assert!(!c.reusable());
        assert_eq!(c.call(&req), Err(HttpError::Closed));
        assert_eq!(h.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn one_way_send_then_read_ack() {
        let (client, server) = duplex(4096);
        let h = thread::spawn(move || {
            serve_connection(server, &Limits::default(), |_req| {
                Response::empty(Status::ACCEPTED)
            })
        });
        let mut c = HttpClient::new(client);
        let mut req = Request::soap_post("h", "/msg", "text/xml", b"async".to_vec());
        req.headers.set("Connection", "close");
        c.send_only(&req).unwrap();
        assert!(!c.reusable(), "the request said close");
        let ack = c.read_response().unwrap();
        assert_eq!(ack.status, Status::ACCEPTED);
        drop(c);
        h.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_request_ends_serve_with_error() {
        let (mut client, server) = duplex(4096);
        let h = thread::spawn(move || serve_connection(server, &Limits::default(), echo_handler));
        use std::io::Write;
        client.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        drop(client);
        assert!(h.join().unwrap().is_err());
    }
}
