//! Property-based invariants for the HTTP layer.

use proptest::prelude::*;
use std::io::Write;
use wsd_http::{
    duplex, parse_request_bytes, parse_response_bytes, request_body, request_bytes, response_bytes,
    response_status, Headers, HttpError, Limits, MessageReader, Method, Request, RequestParser,
    Response, Status, Version,
};

fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,15}"
}

fn header_value() -> impl Strategy<Value = String> {
    // No CR/LF or leading/trailing whitespace (values are trimmed on parse).
    "[\\x21-\\x7e]( ?[\\x21-\\x7e]){0,30}"
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        prop_oneof![Just(Method::Get), Just(Method::Post)],
        "/[a-z0-9/._-]{0,30}",
        prop_oneof![Just(Version::V10), Just(Version::V11)],
        proptest::collection::vec((header_name(), header_value()), 0..8),
        proptest::collection::vec(any::<u8>(), 0..256),
    )
        .prop_map(|(method, target, version, hdrs, body)| {
            let mut headers = Headers::new();
            let mut seen = std::collections::HashSet::new();
            for (n, v) in hdrs {
                let key = n.to_ascii_lowercase();
                if key == "content-length" || !seen.insert(key) {
                    continue;
                }
                headers.set(n, v);
            }
            headers.set("Content-Length", body.len().to_string());
            Request {
                method,
                target,
                version,
                headers,
                body: body.into(),
            }
        })
}

proptest! {
    /// serialize ∘ parse = id for requests.
    #[test]
    fn request_round_trips(req in request_strategy()) {
        let parsed = parse_request_bytes(&request_bytes(&req)).unwrap();
        prop_assert_eq!(parsed, req);
    }

    /// serialize ∘ parse = id for responses.
    #[test]
    fn response_round_trips(
        code in 100u16..600,
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let resp = Response::new(Status(code), "text/xml; charset=utf-8", body);
        let parsed = parse_response_bytes(&response_bytes(&resp)).unwrap();
        prop_assert_eq!(parsed, resp);
    }

    /// Declared Content-Length always equals the actual body length for
    /// constructor-built messages.
    #[test]
    fn content_length_matches_body(body in proptest::collection::vec(any::<u8>(), 0..512)) {
        let req = Request::soap_post("h", "/svc", "text/xml", body.clone());
        let declared = body.len().to_string();
        prop_assert_eq!(req.headers.get("content-length"), Some(declared.as_str()));
        let resp = Response::new(Status::OK, "text/xml", body.clone());
        prop_assert_eq!(resp.headers.get("content-length"), Some(declared.as_str()));
    }

    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = parse_request_bytes(&bytes);
        let _ = parse_response_bytes(&bytes);
    }

    /// Any prefix of a valid message either parses to the same message
    /// (full prefix) or errors — never to a different message.
    #[test]
    fn truncation_never_yields_wrong_message(req in request_strategy(), cut in 0usize..64) {
        let bytes = request_bytes(&req);
        let cut = cut.min(bytes.len());
        let prefix = &bytes[..bytes.len() - cut];
        if let Ok(parsed) = parse_request_bytes(prefix) { prop_assert_eq!(parsed, req) }
    }
}

/// Feeds `bytes` to a fresh incremental parser in the given chunk sizes
/// and returns the first completed message or error.
fn feed_chunked(
    bytes: &[u8],
    limits: Limits,
    chunks: impl Iterator<Item = usize>,
) -> Result<Option<Request>, HttpError> {
    let mut parser = RequestParser::new(limits);
    let mut at = 0;
    for size in chunks {
        if at >= bytes.len() {
            break;
        }
        let end = (at + size.max(1)).min(bytes.len());
        match parser.feed(&bytes[at..end]) {
            Ok(Some(req)) => return Ok(Some(req)),
            Ok(None) => {}
            Err(e) => return Err(e),
        }
        at = end;
    }
    // Flush any remainder in one final chunk.
    if at < bytes.len() {
        return parser.feed(&bytes[at..]);
    }
    Ok(None)
}

/// Splits `len` bytes into chunk sizes drawn from `cuts` (cycled).
fn cycled(cuts: Vec<usize>, len: usize) -> impl Iterator<Item = usize> {
    cuts.into_iter().cycle().take(len + 1)
}

proptest! {
    /// Byte-at-a-time incremental parsing yields exactly what the
    /// whole-buffer parser yields on a valid message.
    #[test]
    fn incremental_byte_at_a_time_matches_whole_buffer(req in request_strategy()) {
        let bytes = request_bytes(&req);
        let whole = parse_request_bytes(&bytes).unwrap();
        let fed = feed_chunked(&bytes, Limits::default(), std::iter::repeat_n(1, bytes.len()))
            .unwrap()
            .expect("complete message must be produced");
        prop_assert_eq!(fed, whole);
    }

    /// Random chunking never changes the parsed message.
    #[test]
    fn incremental_random_chunks_match_whole_buffer(
        req in request_strategy(),
        cuts in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let bytes = request_bytes(&req);
        let whole = parse_request_bytes(&bytes).unwrap();
        let fed = feed_chunked(&bytes, Limits::default(), cycled(cuts, bytes.len()))
            .unwrap()
            .expect("complete message must be produced");
        prop_assert_eq!(fed, whole);
    }

    /// An oversized head is rejected with `TooLarge("head")` no matter
    /// how the bytes arrive — even before the terminator shows up.
    #[test]
    fn incremental_head_limit_is_chunking_independent(
        req in request_strategy(),
        cuts in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let bytes = request_bytes(&req);
        let limits = Limits { max_head: 16, ..Limits::default() };
        let byte_wise =
            feed_chunked(&bytes, limits, std::iter::repeat_n(1, bytes.len())).unwrap_err();
        let chunked = feed_chunked(&bytes, limits, cycled(cuts, bytes.len())).unwrap_err();
        prop_assert_eq!(&byte_wise, &HttpError::TooLarge("head"));
        prop_assert_eq!(&chunked, &HttpError::TooLarge("head"));
    }

    /// An oversized declared body is rejected with `TooLarge("body")` at
    /// head completion, independent of chunking.
    #[test]
    fn incremental_body_limit_is_chunking_independent(
        body_len in 9usize..256,
        cuts in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let req = Request::soap_post("h", "/svc", "text/xml", vec![b'x'; body_len]);
        let bytes = request_bytes(&req);
        let limits = Limits { max_body: 8, ..Limits::default() };
        let byte_wise =
            feed_chunked(&bytes, limits, std::iter::repeat_n(1, bytes.len())).unwrap_err();
        let chunked = feed_chunked(&bytes, limits, cycled(cuts, bytes.len())).unwrap_err();
        prop_assert_eq!(&byte_wise, &HttpError::TooLarge("body"));
        prop_assert_eq!(&chunked, &HttpError::TooLarge("body"));
    }

    /// A malformed Content-Length is rejected at head completion (the
    /// reader cannot frame the body), independent of chunking.
    #[test]
    fn incremental_bad_content_length_is_chunking_independent(
        junk in "[a-z]{1,8}",
        cuts in proptest::collection::vec(1usize..64, 1..16),
    ) {
        let bytes =
            format!("POST / HTTP/1.1\r\nHost: h\r\nContent-Length: {junk}\r\n\r\n").into_bytes();
        let byte_wise = feed_chunked(&bytes, Limits::default(), std::iter::repeat_n(1, bytes.len()))
            .unwrap_err();
        let chunked = feed_chunked(&bytes, Limits::default(), cycled(cuts, bytes.len())).unwrap_err();
        prop_assert_eq!(&byte_wise, &HttpError::BadSyntax("bad Content-Length"));
        prop_assert_eq!(&chunked, &HttpError::BadSyntax("bad Content-Length"));
    }
}

/// One [`Headers`] operation, over a few names that differ in case only
/// so that `set`, `remove` and `get` meet duplicates.
#[derive(Debug, Clone)]
enum HeaderOp {
    Add(String, String),
    Set(String, String),
    Remove(String),
    Get(String),
}

fn small_name() -> impl Strategy<Value = String> {
    "[Aa][Bb-]{0,2}"
}

fn any_value() -> impl Strategy<Value = String> {
    // Anything a builder may write: leading, trailing and inner spaces,
    // colons, lone CR or LF, empty.
    "[ :a-c\r\n]{0,6}".prop_map(|mut v| {
        while v.contains("\r\n") {
            v = v.replace("\r\n", "\n");
        }
        v
    })
}

fn header_op() -> impl Strategy<Value = HeaderOp> {
    prop_oneof![
        (small_name(), any_value()).prop_map(|(n, v)| HeaderOp::Add(n, v)),
        (small_name(), any_value()).prop_map(|(n, v)| HeaderOp::Set(n, v)),
        small_name().prop_map(HeaderOp::Remove),
        small_name().prop_map(HeaderOp::Get),
    ]
}

/// What a head mutation does to a serialised message.
#[derive(Debug, Clone)]
enum Mutation {
    /// Insert a header line (any text) after the `at`-th line.
    InsertLine(usize, String),
    /// Replace the `at`-th line.
    ReplaceLine(usize, String),
    /// Drop `n` bytes off the end.
    Truncate(usize),
    /// Overwrite one byte of the head.
    Flip(usize, u8),
}

fn head_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("broken header".to_string()),
        Just(" Spaced: x".to_string()),
        Just("Spaced name: x".to_string()),
        Just(": empty name".to_string()),
        Just("Content-Length: 3".to_string()),
        Just("content-length:0".to_string()),
        Just("Content-Length: 99999".to_string()),
        Just("Content-Length: nope".to_string()),
        Just("CONTENT-LENGTH:   7  ".to_string()),
        Just("X: \u{e9}t\u{e9}".to_string()),
        Just(String::new()),
        Just("POST / HTTP/9.9".to_string()),
        Just("HTTP/1.1 200 OK".to_string()),
        Just("HTTP/1.1 2x2 Accepted".to_string()),
        Just("GET  / HTTP/1.1".to_string()),
        "[ -~]{0,12}",
    ]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..8, head_line()).prop_map(|(at, l)| Mutation::InsertLine(at, l)),
        (0usize..8, head_line()).prop_map(|(at, l)| Mutation::ReplaceLine(at, l)),
        (0usize..16).prop_map(Mutation::Truncate),
        (0usize..256, any::<u8>()).prop_map(|(at, b)| Mutation::Flip(at, b)),
    ]
}

/// `bytes` with its head mutated as `m` says.
fn mutate(bytes: &[u8], m: &Mutation) -> Vec<u8> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(bytes.len());
    let line_starts: Vec<usize> = std::iter::once(0)
        .chain((0..head_end).filter(|&i| bytes[i..].starts_with(b"\r\n")).map(|i| i + 2))
        .collect();
    let line = |at: usize| line_starts[at % line_starts.len()];
    let mut out = bytes.to_vec();
    match m {
        Mutation::InsertLine(at, text) => {
            let mut ins = text.clone().into_bytes();
            ins.extend_from_slice(b"\r\n");
            out.splice(line(*at)..line(*at), ins);
        }
        Mutation::ReplaceLine(at, text) => {
            let start = line(*at);
            let end = start + out[start..].windows(2).position(|w| w == b"\r\n").unwrap_or(0);
            out.splice(start..end, text.bytes());
        }
        Mutation::Truncate(n) => out.truncate(out.len().saturating_sub(*n)),
        Mutation::Flip(at, b) => {
            if head_end > 0 {
                out[at % head_end] = *b;
            }
        }
    }
    out
}

proptest! {
    /// The one-buffer header set behaves as the list of pairs it
    /// replaced, operation by operation.
    #[test]
    fn headers_agree_with_a_list_of_pairs(ops in proptest::collection::vec(header_op(), 0..24)) {
        let mut headers = Headers::new();
        let mut model: Vec<(String, String)> = Vec::new();
        for op in ops {
            match op {
                HeaderOp::Add(n, v) => {
                    headers.add(&n, &v);
                    model.push((n, v));
                }
                HeaderOp::Set(n, v) => {
                    headers.set(&n, &v);
                    model.retain(|(m, _)| !m.eq_ignore_ascii_case(&n));
                    model.push((n, v));
                }
                HeaderOp::Remove(n) => {
                    let before = model.len();
                    model.retain(|(m, _)| !m.eq_ignore_ascii_case(&n));
                    prop_assert_eq!(headers.remove(&n), model.len() != before);
                }
                HeaderOp::Get(n) => {
                    let want = model.iter().find(|(m, _)| m.eq_ignore_ascii_case(&n));
                    prop_assert_eq!(headers.get(&n), want.map(|(_, v)| v.as_str()));
                }
            }
            let got: Vec<(&str, &str)> = headers.iter().collect();
            let want: Vec<(&str, &str)> =
                model.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(headers.len(), model.len());
            prop_assert_eq!(headers.is_empty(), model.is_empty());
        }
    }

    /// `request_body` reads the body `parse_request_bytes` copies, or
    /// fails as it does, on valid requests and on mutated heads.
    #[test]
    fn request_body_agrees_with_the_full_parse(req in request_strategy(), m in mutation()) {
        let bytes = request_bytes(&req);
        for bytes in [bytes.clone(), mutate(&bytes, &m)] {
            let full = parse_request_bytes(&bytes).map(|r| r.body.to_vec());
            prop_assert_eq!(request_body(&bytes).map(<[u8]>::to_vec), full);
        }
    }

    /// Both stream readers frame a message by the rule the buffer parse
    /// reads its body with: on valid requests and on mutated heads they
    /// give the request `parse_request_bytes` gives, or fail where it
    /// fails (not always alike: framing walks the header lines before
    /// the parse reads the start line).
    #[test]
    fn stream_readers_frame_as_the_full_parse_reads(req in request_strategy(), m in mutation()) {
        let bytes = request_bytes(&req);
        for bytes in [bytes.clone(), mutate(&bytes, &m)] {
            let full = parse_request_bytes(&bytes);
            let fed = RequestParser::new(Limits::default())
                .feed(&bytes)
                .and_then(|req| req.ok_or(HttpError::UnexpectedEof));
            prop_assert_eq!(fed.as_ref().ok(), full.as_ref().ok());
            let (mut client, server) = duplex(bytes.len() + 1);
            client.write_all(&bytes).unwrap();
            drop(client);
            let read = MessageReader::new(server).read_request(&Limits::default());
            prop_assert_eq!(read.as_ref().ok(), full.as_ref().ok());
        }
    }

    /// `response_status` is the full parse's status wherever it parses,
    /// and says nothing about a buffer with no complete head.
    #[test]
    fn response_status_agrees_with_the_full_parse(
        code in 100u16..600,
        body in proptest::collection::vec(any::<u8>(), 0..64),
        m in mutation(),
    ) {
        let bytes = response_bytes(&Response::new(Status(code), "text/xml", body));
        for bytes in [bytes.clone(), mutate(&bytes, &m)] {
            if let Ok(resp) = parse_response_bytes(&bytes) {
                prop_assert_eq!(response_status(&bytes), Some(resp.status));
            }
            if !bytes.windows(4).any(|w| w == b"\r\n\r\n") {
                prop_assert_eq!(response_status(&bytes), None);
            }
        }
    }
}
