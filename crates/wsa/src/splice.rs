//! Single-pass splice rewrites: the dispatcher's zero-copy fast path.
//!
//! [`scan`] runs one streaming pass over a serialized envelope and
//! locates the WS-Addressing header elements;
//! [`ScannedWsa::splice_forward_into`] and [`ScannedWsa::splice_reply_into`]
//! then emit every byte outside the addressing block verbatim into the
//! caller's buffer — the body is never parsed into a tree, rebuilt or
//! re-escaped — and splice the rewritten headers in.
//! [`splice_relates_to`] does the same for Table 1 quadrant 3: it gives
//! a headerless answer from an RPC service the `RelatesTo` that makes it
//! a reply. The body bytes are still *verified*
//! ([`wsd_xml::splice::verify_element_with_prefixes`]): the fast path
//! must never forward an envelope the tree path would reject, so
//! mismatched tags, unknown entity references and unbound prefixes all
//! decline to the tree parser instead of being spliced.
//!
//! The scan is deliberately strict: it accepts exactly the canonical
//! serialization our own [`wsd_xml::writer`] produces (the form every
//! envelope in this system is in after one `to_xml()`), because only then
//! is the spliced output byte-identical to the tree path of
//! [`crate::rewrite`]. Anything else — foreign header blocks, extra
//! attributes, CDATA, non-canonical entity forms, reference
//! properties/parameters, out-of-order headers — makes `scan` return
//! `None` and the caller falls back to parse + rewrite + re-serialize.
//! Header values are checked canonical with the writer's own escaper
//! ([`wsd_xml::escape`]).
//!
//! Byte identity with the tree path is guaranteed for envelopes in
//! parse-canonical form (a fixed point of `parse` → `to_xml`, which every
//! on-the-wire envelope our stack emits is). For other accepted inputs the
//! splice output is the *more* faithful one: the body is forwarded
//! verbatim where the tree path would normalize it (e.g. `<x></x>` to
//! `<x/>`).

use std::borrow::Cow;
use std::ops::Range;

use wsd_xml::escape::{escape_attr, escape_text, push_escaped_text};
use wsd_xml::unescape;

use crate::epr::EndpointReference;
use crate::rewrite::RouteRecord;

/// Canonical envelope framing per SOAP version, as `to_xml()` emits it.
struct Shape {
    open: &'static str,
    header_open: &'static str,
    header_close: &'static str,
    body_open: &'static str,
    env_close: &'static str,
    /// Envelope prefix, bound on the root open tag and therefore in scope
    /// for the Body the verifier walks.
    env_prefix: &'static str,
}

const V11_SHAPE: Shape = Shape {
    open: "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">",
    header_open: "<SOAP-ENV:Header>",
    header_close: "</SOAP-ENV:Header>",
    body_open: "<SOAP-ENV:Body",
    env_close: "</SOAP-ENV:Envelope>",
    env_prefix: "SOAP-ENV",
};

const V12_SHAPE: Shape = Shape {
    open: "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">",
    header_open: "<env:Header>",
    header_close: "</env:Header>",
    body_open: "<env:Body",
    env_close: "</env:Envelope>",
    env_prefix: "env",
};

/// The canonical namespace declaration every WSA header block carries.
const XMLNS_WSA: &str = " xmlns:wsa=\"http://schemas.xmlsoap.org/ws/2004/08/addressing\"";

/// A WSA header's slot in canonical order (the order `WsaHeaders::apply`
/// emits); any other local is `None` (fall back).
fn slot_of(local: &str) -> Option<i32> {
    Some(match local {
        "To" => 0,
        "From" => 1,
        "ReplyTo" => 2,
        "FaultTo" => 3,
        "Action" => 4,
        "MessageID" => 5,
        "RelatesTo" => 6,
        _ => return None,
    })
}

/// The addressing block of one canonically-serialized envelope: decoded
/// values where routing needs them, raw byte spans everywhere else.
pub struct ScannedWsa<'a> {
    src: &'a str,
    /// First byte of the first WSA header (start of the spliced region).
    run_start: usize,
    /// Offset of `</PFX:Header>` (end of the spliced region).
    run_end: usize,
    to: Option<(Cow<'a, str>, Range<usize>)>,
    from: Option<Range<usize>>,
    reply_to: Option<(Cow<'a, str>, Range<usize>)>,
    fault_to: Option<(Cow<'a, str>, Range<usize>)>,
    action: Option<Range<usize>>,
    message_id: Option<(Cow<'a, str>, Range<usize>)>,
    /// First `RelatesTo` inline (a canonical reply has exactly one; keeping
    /// it out of the `Vec` keeps the steady-state scan allocation-free),
    /// repeats spill into `relates_to_rest`.
    relates_to_first: Option<(Cow<'a, str>, Range<usize>)>,
    relates_to_rest: Vec<(Cow<'a, str>, Range<usize>)>,
}

/// Scans a serialized envelope for its WS-Addressing block. Returns
/// `None` — meaning "use the tree path" — unless the envelope is in the
/// writer's canonical form with all header children being canonical WSA
/// headers in canonical order.
pub fn scan(src: &str) -> Option<ScannedWsa<'_>> {
    let shape = shape_of(src)?;
    let mut pos = shape.open.len();
    if !src[pos..].starts_with(shape.header_open) {
        return None;
    }
    pos += shape.header_open.len();
    let mut out = ScannedWsa {
        src,
        run_start: pos,
        run_end: 0,
        to: None,
        from: None,
        reply_to: None,
        fault_to: None,
        action: None,
        message_id: None,
        relates_to_first: None,
        relates_to_rest: Vec::new(),
    };
    let mut last_slot = -1i32;
    loop {
        if src[pos..].starts_with(shape.header_close) {
            if last_slot < 0 {
                // An empty Header would not be re-emitted by the tree path.
                return None;
            }
            out.run_end = pos;
            let body = pos + shape.header_close.len();
            verify_body(src, shape, body)?;
            return Some(out);
        }
        let start = pos;
        let (local, tag) = scan_wsa_open(src, pos)?;
        let slot = slot_of(local)?;
        // Canonical order, singletons at most once (RelatesTo may repeat).
        if slot < last_slot || (slot == last_slot && slot != 6) {
            return None;
        }
        last_slot = slot;
        match slot {
            0 | 4 | 5 => {
                // To / Action / MessageID: text-only headers.
                if !tag.extra.is_empty() {
                    return None;
                }
                let (value, end) = scan_text_content(src, tag.content_start, local)?;
                match slot {
                    0 => out.to = Some((value, start..end)),
                    4 => out.action = Some(start..end),
                    _ => out.message_id = Some((value, start..end)),
                }
                pos = end;
            }
            6 => {
                // RelatesTo.
                if !tag.extra.is_empty() {
                    // Only the canonical `RelationshipType` attribute, in
                    // canonical escaping, keeps byte identity.
                    let rel = tag.extra.strip_prefix(" RelationshipType=\"")?;
                    let (raw, rest) = rel.split_once('"')?;
                    if !rest.is_empty() {
                        return None;
                    }
                    let decoded = unescape(raw)?;
                    if escape_attr(&decoded) != raw {
                        return None;
                    }
                }
                let (value, end) = scan_text_content(src, tag.content_start, local)?;
                if out.relates_to_first.is_none() {
                    out.relates_to_first = Some((value, start..end));
                } else {
                    out.relates_to_rest.push((value, start..end));
                }
                pos = end;
            }
            _ => {
                // From / ReplyTo / FaultTo: an address-only EPR.
                if !tag.extra.is_empty() {
                    return None;
                }
                let (addr, end) = scan_epr_content(src, tag.content_start, local)?;
                match slot {
                    1 => out.from = Some(start..end),
                    2 => out.reply_to = Some((addr, start..end)),
                    _ => out.fault_to = Some((addr, start..end)),
                }
                pos = end;
            }
        }
    }
}

/// The framing of `src` if it opens and closes as `to_xml()` writes an
/// envelope of either SOAP version.
fn shape_of(src: &str) -> Option<&'static Shape> {
    let shape = [&V11_SHAPE, &V12_SHAPE]
        .into_iter()
        .find(|shape| src.starts_with(shape.open))?;
    src.ends_with(shape.env_close).then_some(shape)
}

/// Checks that the Body element starting at `body` is one the tree
/// parser accepts and that `</P:Envelope>` follows it directly.
///
/// A splice copies every body byte verbatim, so the fast path must never
/// accept a body the tree path would fault on: the Body element is
/// verified token for token (matched close tags, canonical attributes,
/// known entity references, bound prefixes) before anything is written.
/// Anything questionable falls back to the tree parser and its precise
/// diagnostics.
fn verify_body(src: &str, shape: &Shape, body: usize) -> Option<()> {
    if !src[body..].starts_with(shape.body_open) {
        return None;
    }
    match src.as_bytes().get(body + shape.body_open.len()) {
        Some(b'>') | Some(b'/') => {}
        _ => return None,
    }
    let body_end =
        wsd_xml::splice::verify_element_with_prefixes(src, body, &[shape.env_prefix])?;
    (&src[body_end..] == shape.env_close).then_some(())
}

/// Table 1 quadrant 3's correlation, spliced: a canonically serialized
/// envelope with no Header gains
/// `<P:Header><wsa:RelatesTo xmlns:wsa="…">relates_to</wsa:RelatesTo></P:Header>`
/// right after its open tag, and every other byte is copied verbatim.
/// With no id to relate to, the envelope is returned as it came in.
///
/// `None` — meaning "use the tree path" — unless `src` is the writer's
/// canonical form of an envelope with no Header and a Body the tree
/// parser accepts (verified as [`scan`] verifies one). The output is
/// byte-identical to parse → [`WsaHeaders::apply`](crate::WsaHeaders::apply)
/// with the one `RelatesTo` → `to_xml()` for parse-canonical input, and
/// is written into one `String` sized for it (an id that needs escaping
/// grows it once).
pub fn splice_relates_to<'a>(src: &'a str, relates_to: Option<&str>) -> Option<Cow<'a, str>> {
    let shape = shape_of(src)?;
    let body = shape.open.len();
    verify_body(src, shape, body)?;
    let Some(id) = relates_to else {
        return Some(Cow::Borrowed(src));
    };
    let mut out = String::with_capacity(
        src.len()
            + shape.header_open.len()
            + text_header_len("RelatesTo", id)
            + shape.header_close.len(),
    );
    out.push_str(&src[..body]);
    out.push_str(shape.header_open);
    push_text_header(&mut out, "RelatesTo", id);
    out.push_str(shape.header_close);
    out.push_str(&src[body..]);
    Some(Cow::Owned(out))
}

struct OpenTag<'a> {
    /// Raw bytes between the xmlns declaration and the closing `>`.
    extra: &'a str,
    /// Offset of the first content byte.
    content_start: usize,
}

/// Matches `<wsa:Local xmlns:wsa="…"…>` at `pos`. Self-closing tags are
/// rejected: the tree path re-emits empty headers as `<x></x>`.
fn scan_wsa_open(src: &str, pos: usize) -> Option<(&str, OpenTag<'_>)> {
    let after_lt = src[pos..].strip_prefix("<wsa:")?;
    let name_len = after_lt.bytes().position(|b| !b.is_ascii_alphanumeric())?;
    if name_len == 0 {
        return None;
    }
    let local = &after_lt[..name_len];
    let after_ns = after_lt[name_len..].strip_prefix(XMLNS_WSA)?;
    let gt = after_ns.find('>')?;
    if after_ns[..gt].ends_with('/') {
        return None;
    }
    let extra = &after_ns[..gt];
    let content_start = pos + "<wsa:".len() + name_len + XMLNS_WSA.len() + gt + 1;
    Some((local, OpenTag { extra, content_start }))
}

/// Matches `text</wsa:local>` with canonically-escaped text. Returns the
/// decoded text (borrowed from `src` unless it needed unescaping — the
/// canonical URIs and uuids on the hot path never do) and the offset past
/// the close tag.
fn scan_text_content<'a>(
    src: &'a str,
    content_start: usize,
    local: &str,
) -> Option<(Cow<'a, str>, usize)> {
    let rest = &src[content_start..];
    let lt = wsd_xml::swar::find_byte(rest.as_bytes(), b'<')?;
    let raw = &rest[..lt];
    rest[lt..]
        .strip_prefix("</wsa:")?
        .strip_prefix(local)?
        .strip_prefix('>')?;
    let value = unescape(raw)?;
    if escape_text(&value) != raw {
        return None;
    }
    let end = content_start + lt + "</wsa:".len() + local.len() + 1;
    Some((value, end))
}

/// Matches `<wsa:Address>addr</wsa:Address></wsa:local>` — the canonical
/// serialization of an address-only EPR. Reference properties/parameters
/// (or any other child) fall back to the tree path.
fn scan_epr_content<'a>(
    src: &'a str,
    content_start: usize,
    local: &str,
) -> Option<(Cow<'a, str>, usize)> {
    let rest = src[content_start..].strip_prefix("<wsa:Address>")?;
    let lt = wsd_xml::swar::find_byte(rest.as_bytes(), b'<')?;
    let raw = &rest[..lt];
    rest[lt..]
        .strip_prefix("</wsa:Address>")?
        .strip_prefix("</wsa:")?
        .strip_prefix(local)?
        .strip_prefix('>')?;
    let addr = unescape(raw)?;
    if escape_text(&addr) != raw {
        return None;
    }
    let end = content_start
        + "<wsa:Address>".len()
        + lt
        + "</wsa:Address>".len()
        + "</wsa:".len()
        + local.len()
        + 1;
    Some((addr, end))
}

/// Bytes [`push_text_header`] writes for a `value` that escapes to
/// itself (a longer escaped value grows the buffer once).
fn text_header_len(local: &str, value: &str) -> usize {
    "<wsa:".len() + local.len() + XMLNS_WSA.len() + ">".len() + value.len()
        + "</wsa:".len() + local.len() + ">".len()
}

/// Emits the canonical serialization of a text-only WSA header —
/// byte-identical to `write_element_into(&text_header(local, value))`
/// without building the element.
fn push_text_header(out: &mut String, local: &str, value: &str) {
    out.push_str("<wsa:");
    out.push_str(local);
    out.push_str(XMLNS_WSA);
    out.push('>');
    push_escaped_text(value, out);
    out.push_str("</wsa:");
    out.push_str(local);
    out.push('>');
}

/// Emits the canonical serialization of an address-only EPR header —
/// byte-identical to `write_element_into(&EndpointReference::new(addr)
/// .to_element(local))` without building the elements.
fn push_epr_header(out: &mut String, local: &str, address: &str) {
    out.push_str("<wsa:");
    out.push_str(local);
    out.push_str(XMLNS_WSA);
    out.push_str("><wsa:Address>");
    push_escaped_text(address, out);
    out.push_str("</wsa:Address></wsa:");
    out.push_str(local);
    out.push('>');
}

impl<'a> ScannedWsa<'a> {
    /// Decoded `wsa:MessageID` carrying the scan input's lifetime —
    /// borrowed from the envelope bytes unless unescaping had to own it
    /// (canonical ids never do), so callers can outlive the scan without
    /// copying.
    pub fn message_id_cow(&self) -> Option<Cow<'a, str>> {
        self.message_id.as_ref().map(|(v, _)| v.clone())
    }

    /// Decoded `wsa:To`, if present, carrying the scan input's lifetime
    /// as [`message_id_cow`](Self::message_id_cow) does.
    pub fn to_cow(&self) -> Option<Cow<'a, str>> {
        self.to.as_ref().map(|(v, _)| v.clone())
    }
}

impl ScannedWsa<'_> {
    /// Decoded `wsa:ReplyTo` address, if present.
    pub fn reply_to(&self) -> Option<&str> {
        self.reply_to.as_ref().map(|(v, _)| v.as_ref())
    }

    /// Decoded `wsa:MessageID`, if present.
    pub fn message_id(&self) -> Option<&str> {
        self.message_id.as_ref().map(|(v, _)| v.as_ref())
    }

    /// Decoded first `wsa:RelatesTo` — the reply-correlation key.
    pub fn correlation_id(&self) -> Option<&str> {
        self.relates_to_first.as_ref().map(|(v, _)| v.as_ref())
    }

    fn push_raw(&self, out: &mut String, span: &Range<usize>) {
        out.push_str(&self.src[span.clone()]);
    }

    /// The forward rewrite (paper §4.2 step 3), spliced into a buffer the
    /// caller has sized: `To` becomes `physical_to`, `ReplyTo` (and
    /// `FaultTo`, when present) become the dispatcher's address,
    /// `minted_id` is inserted when the message carried no `MessageID`;
    /// every other byte is copied verbatim, and the rewritten headers are
    /// emitted as raw bytes — no element trees are built. Output and
    /// record are those of `rewrite_for_forward` + `to_xml()`.
    pub fn splice_forward_into(
        &self,
        physical_to: &str,
        dispatcher_address: &str,
        minted_id: Option<&str>,
        out: &mut String,
    ) -> RouteRecord {
        out.push_str(&self.src[..self.run_start]);
        push_text_header(out, "To", physical_to);
        if let Some(span) = &self.from {
            self.push_raw(out, span);
        }
        push_epr_header(out, "ReplyTo", dispatcher_address);
        if self.fault_to.is_some() {
            push_epr_header(out, "FaultTo", dispatcher_address);
        }
        if let Some(span) = &self.action {
            self.push_raw(out, span);
        }
        match (&self.message_id, minted_id) {
            (Some((_, span)), _) => self.push_raw(out, span),
            (None, Some(id)) => push_text_header(out, "MessageID", id),
            (None, None) => {}
        }
        for (_, span) in self.relates_to_first.iter().chain(&self.relates_to_rest) {
            self.push_raw(out, span);
        }
        out.push_str(&self.src[self.run_end..]);
        RouteRecord {
            original_reply_to: self
                .reply_to
                .as_ref()
                .map(|(a, _)| EndpointReference::new(a.clone().into_owned())),
            original_fault_to: self
                .fault_to
                .as_ref()
                .map(|(a, _)| EndpointReference::new(a.clone().into_owned())),
        }
    }

    /// The reply rewrite, spliced into a buffer the caller has sized:
    /// `To` becomes `destination` (or is dropped when `None`); everything
    /// else is copied verbatim. Output is byte-identical to
    /// `rewrite_for_reply` + `to_xml()`. The steady-state reply path
    /// allocates nothing here: spans are copied and the `To` header is
    /// emitted as raw bytes.
    pub fn splice_reply_into(&self, destination: Option<&str>, out: &mut String) {
        out.push_str(&self.src[..self.run_start]);
        if let Some(dest) = destination {
            push_text_header(out, "To", dest);
        }
        if let Some(span) = &self.from {
            self.push_raw(out, span);
        }
        if let Some((_, span)) = &self.reply_to {
            self.push_raw(out, span);
        }
        if let Some((_, span)) = &self.fault_to {
            self.push_raw(out, span);
        }
        if let Some(span) = &self.action {
            self.push_raw(out, span);
        }
        if let Some((_, span)) = &self.message_id {
            self.push_raw(out, span);
        }
        for (_, span) in self.relates_to_first.iter().chain(&self.relates_to_rest) {
            self.push_raw(out, span);
        }
        out.push_str(&self.src[self.run_end..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::WsaHeaders;
    use crate::rewrite::{rewrite_for_forward, rewrite_for_reply};
    use crate::{ANONYMOUS, WSA_NS};
    use wsd_soap::{rpc, Envelope, SoapVersion};

    const DISPATCHER: &str = "http://dispatcher.example.org/msg";
    const PHYSICAL: &str = "http://10.0.0.5:8888/echo";

    fn request(version: SoapVersion) -> Envelope {
        let mut env = rpc::echo_request(version, "hello <&> world");
        WsaHeaders::new()
            .to("http://dispatcher/svc/echo")
            .reply_to(EndpointReference::new("http://client:8080/cb"))
            .action("urn:wsd:echo:echo")
            .message_id("uuid:req-1")
            .apply(&mut env);
        env
    }

    #[test]
    fn xmlns_literal_matches_namespace_const() {
        assert_eq!(XMLNS_WSA, format!(" xmlns:wsa=\"{WSA_NS}\""));
    }

    #[test]
    fn scan_reads_canonical_headers() {
        for version in [SoapVersion::V11, SoapVersion::V12] {
            let xml = request(version).to_xml();
            let scanned = scan(&xml).expect("canonical envelope must scan");
            assert_eq!(scanned.to_cow().as_deref(), Some("http://dispatcher/svc/echo"));
            assert_eq!(scanned.reply_to(), Some("http://client:8080/cb"));
            assert_eq!(scanned.message_id(), Some("uuid:req-1"));
            assert_eq!(scanned.correlation_id(), None);
        }
    }

    #[test]
    fn splice_forward_matches_tree_rewrite() {
        for version in [SoapVersion::V11, SoapVersion::V12] {
            let xml = request(version).to_xml();
            let scanned = scan(&xml).unwrap();
            let mut spliced = String::new();
            let record = scanned.splice_forward_into(PHYSICAL, DISPATCHER, None, &mut spliced);
            let mut env = Envelope::parse(&xml).unwrap();
            let tree_record = rewrite_for_forward(&mut env, PHYSICAL, DISPATCHER).unwrap();
            assert_eq!(spliced, env.to_xml());
            assert_eq!(record, tree_record);
        }
    }

    #[test]
    fn splice_forward_inserts_minted_message_id() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        WsaHeaders::new()
            .to("http://d/svc/echo")
            .reply_to(EndpointReference::new(ANONYMOUS))
            .apply(&mut env);
        let xml = env.to_xml();
        let scanned = scan(&xml).unwrap();
        let mut spliced = String::new();
        scanned.splice_forward_into(PHYSICAL, DISPATCHER, Some("uuid:minted"), &mut spliced);
        // Tree path: mint first (as MsgCore does), then rewrite.
        let mut tree = Envelope::parse(&xml).unwrap();
        let mut h = WsaHeaders::from_envelope(&tree).unwrap();
        h.message_id = Some("uuid:minted".into());
        h.apply(&mut tree);
        rewrite_for_forward(&mut tree, PHYSICAL, DISPATCHER).unwrap();
        assert_eq!(spliced, tree.to_xml());
    }

    #[test]
    fn splice_reply_matches_tree_rewrite() {
        let mut reply = rpc::echo_response(SoapVersion::V11, "out");
        WsaHeaders::new()
            .to(DISPATCHER)
            .relates_to("uuid:req-1")
            .message_id("uuid:resp-1")
            .apply(&mut reply);
        let xml = reply.to_xml();
        let scanned = scan(&xml).unwrap();
        assert_eq!(scanned.correlation_id(), Some("uuid:req-1"));
        let record = RouteRecord {
            original_reply_to: Some(EndpointReference::new("http://client:8080/cb")),
            original_fault_to: None,
        };
        let mut spliced = String::new();
        scanned.splice_reply_into(Some("http://client:8080/cb"), &mut spliced);
        let mut env = Envelope::parse(&xml).unwrap();
        let dest = rewrite_for_reply(&mut env, &record, None).unwrap();
        assert_eq!(dest.as_deref(), Some("http://client:8080/cb"));
        assert_eq!(spliced, env.to_xml());
    }

    #[test]
    fn fault_to_is_redirected_when_present() {
        let mut env = request(SoapVersion::V11);
        let mut h = WsaHeaders::from_envelope(&env).unwrap();
        h.fault_to = Some(EndpointReference::new("http://client/faults"));
        h.apply(&mut env);
        let xml = env.to_xml();
        let scanned = scan(&xml).unwrap();
        let mut spliced = String::new();
        let record = scanned.splice_forward_into(PHYSICAL, DISPATCHER, None, &mut spliced);
        let mut tree = Envelope::parse(&xml).unwrap();
        let tree_record = rewrite_for_forward(&mut tree, PHYSICAL, DISPATCHER).unwrap();
        assert_eq!(spliced, tree.to_xml());
        assert_eq!(record, tree_record);
        assert_eq!(
            record.original_fault_to.unwrap().address,
            "http://client/faults"
        );
    }

    #[test]
    fn relates_to_with_relationship_type_passes_through() {
        let mut env = rpc::echo_response(SoapVersion::V12, "x");
        let mut h = WsaHeaders::new().message_id("uuid:r").to("http://d/msg");
        h.relates_to.push(("uuid:orig".into(), Some("wsa:Reply".into())));
        h.apply(&mut env);
        let xml = env.to_xml();
        let scanned = scan(&xml).expect("relationship type is canonical");
        assert_eq!(scanned.correlation_id(), Some("uuid:orig"));
    }

    #[test]
    fn anomalies_fall_back() {
        // No WSA headers at all.
        assert!(scan(&rpc::echo_request(SoapVersion::V11, "x").to_xml()).is_none());
        // Foreign header block.
        let mut env = request(SoapVersion::V11);
        env.headers.insert(
            0,
            wsd_xml::Element::new_ns(Some("sec"), "Token", "urn:sec")
                .declare_namespace(Some("sec"), "urn:sec")
                .with_text("t"),
        );
        assert!(scan(&env.to_xml()).is_none());
        // EPR with reference parameters.
        let mut env = request(SoapVersion::V11);
        let mut h = WsaHeaders::from_envelope(&env).unwrap();
        h.reply_to = Some(
            EndpointReference::new("http://client/cb")
                .with_parameter(wsd_xml::Element::new("session").with_text("42")),
        );
        h.apply(&mut env);
        assert!(scan(&env.to_xml()).is_none());
        // Non-canonical: whitespace inside the envelope open tag.
        let xml = request(SoapVersion::V11).to_xml();
        assert!(scan(&xml.replace("<SOAP-ENV:Header>", "<SOAP-ENV:Header >")).is_none());
        // Truncated document.
        assert!(scan(&xml[..xml.len() - 3]).is_none());
    }

    /// The tree path `splice_relates_to` stands in for: parse, gain the
    /// one `RelatesTo`, serialize.
    fn related_by_tree(xml: &str, id: Option<&str>) -> String {
        let mut env = Envelope::parse(xml).unwrap();
        if let Some(id) = id {
            WsaHeaders::new().relates_to(id).apply(&mut env);
        }
        env.to_xml()
    }

    #[test]
    fn relates_to_splice_matches_tree() {
        for version in [SoapVersion::V11, SoapVersion::V12] {
            for body in [rpc::echo_response(version, "out <&> \"q\" é"), Envelope::fault(
                version,
                wsd_soap::Fault::new(wsd_soap::FaultCode::Receiver, "boom"),
            )] {
                let xml = body.to_xml();
                for id in [Some("uuid:req-1"), Some("uuid:a&b<c"), None] {
                    let spliced = splice_relates_to(&xml, id).expect("canonical and headerless");
                    assert_eq!(spliced, related_by_tree(&xml, id), "{version} {id:?}");
                    assert_eq!(matches!(spliced, Cow::Borrowed(_)), id.is_none());
                }
            }
        }
    }

    #[test]
    fn relates_to_splice_declines_what_it_cannot_copy() {
        let xml = rpc::echo_response(SoapVersion::V11, "out").to_xml();
        // A Header already there: the tree decides where RelatesTo goes.
        let mut headed = rpc::echo_response(SoapVersion::V11, "out");
        WsaHeaders::new().message_id("uuid:r").apply(&mut headed);
        assert!(splice_relates_to(&headed.to_xml(), Some("uuid:q")).is_none());
        // Another prefix for the envelope namespace.
        let foreign = xml.replace("SOAP-ENV", "soap");
        assert!(Envelope::parse(&foreign).is_ok());
        assert!(splice_relates_to(&foreign, Some("uuid:q")).is_none());
        // A Body the tree parser rejects, and a torn envelope.
        let broken = xml.replace(">out<", "><out<");
        assert!(Envelope::parse(&broken).is_err());
        assert!(splice_relates_to(&broken, Some("uuid:q")).is_none());
        assert!(splice_relates_to(&xml[..xml.len() - 1], None).is_none());
    }

    #[test]
    fn out_of_order_headers_fall_back() {
        // Hand-build an envelope whose MessageID precedes To.
        let xml = request(SoapVersion::V11).to_xml();
        let to = "<wsa:To xmlns:wsa=\"http://schemas.xmlsoap.org/ws/2004/08/addressing\">http://dispatcher/svc/echo</wsa:To>";
        assert!(xml.contains(to));
        let swapped = xml.replacen(to, "", 1).replacen(
            "</SOAP-ENV:Header>",
            &format!("{to}</SOAP-ENV:Header>"),
            1,
        );
        assert!(scan(&swapped).is_none());
    }
}
