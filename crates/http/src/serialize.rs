//! Message serialization: message → bytes / stream.

use std::io::Write;

use crate::message::{Headers, Request, Response};
use crate::HttpError;

fn push_request_head(out: &mut Vec<u8>, req: &Request) {
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.target.as_bytes());
    out.push(b' ');
    out.extend_from_slice(req.version.as_str().as_bytes());
    out.extend_from_slice(b"\r\n");
    push_headers(out, &req.headers);
}

fn push_response_head(out: &mut Vec<u8>, resp: &Response) {
    let (version, status) = (resp.version.as_str(), resp.status);
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "{version} {} {}\r\n", status.0, status.reason());
    push_headers(out, &resp.headers);
}

/// Serialized size of a full response, head and body — what
/// [`response_bytes_into`] appends, computed without writing it.
pub fn response_len(resp: &Response) -> usize {
    let status = resp.status.0.checked_ilog10().map_or(1, |d| d as usize + 1);
    let start = resp.version.as_str().len() + 1 + status + 1 + resp.status.reason().len() + 2;
    start + resp.headers.as_wire().len() + 2 + resp.body.len()
}

fn push_headers(out: &mut Vec<u8>, headers: &Headers) {
    out.extend_from_slice(headers.as_wire().as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Serializes a full request.
pub fn request_bytes(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + req.body.len());
    request_bytes_into(&mut out, req);
    out
}

/// Appends a full serialized request to `out` without clearing it —
/// the batched drain path serializes many requests into one reusable
/// buffer and writes them with a single flush.
pub fn request_bytes_into(out: &mut Vec<u8>, req: &Request) {
    push_request_head(out, req);
    out.extend_from_slice(&req.body);
}

/// Serializes a full response.
pub fn response_bytes(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(256 + resp.body.len());
    response_bytes_into(&mut out, resp);
    out
}

/// Appends a full serialized response to `out` without clearing it.
pub fn response_bytes_into(out: &mut Vec<u8>, resp: &Response) {
    push_response_head(out, resp);
    out.extend_from_slice(&resp.body);
}

/// Writes a request to a stream.
pub fn write_request(stream: &mut dyn Write, req: &Request) -> Result<(), HttpError> {
    stream.write_all(&request_bytes(req))?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Status, Version};

    #[test]
    fn request_wire_format() {
        let req = Request::soap_post("h.example", "/svc", "text/xml; charset=utf-8", b"<x/>".to_vec());
        let bytes = request_bytes(&req);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /svc HTTP/1.1\r\n"), "{text}");
        assert!(text.contains("Host: h.example\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.ends_with("\r\n\r\n<x/>"), "{text}");
    }

    #[test]
    fn response_wire_format() {
        let resp = Response::new(Status::OK, "text/xml", b"<ok/>".to_vec());
        let text = String::from_utf8(response_bytes(&resp)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n<ok/>"));
    }

    #[test]
    fn response_len_is_the_wire_size() {
        let mut closing = Response::new(Status(7), "text/xml", vec![b'x'; 300]);
        closing.headers.set("Connection", "close");
        for resp in [
            Response::new(Status::OK, "text/xml", b"<ok/>".to_vec()),
            Response::empty(Status::ACCEPTED),
            Response::empty(Status(65535)),
            closing,
        ] {
            assert_eq!(response_len(&resp), response_bytes(&resp).len(), "{resp:?}");
        }
    }

    #[test]
    fn http10_start_line() {
        let mut req = Request::get("h", "/");
        req.version = Version::V10;
        let text = String::from_utf8(request_bytes(&req)).unwrap();
        assert!(text.starts_with("GET / HTTP/1.0\r\n"));
    }
}
