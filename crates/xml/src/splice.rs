//! Byte-level scanning over serialized XML.
//!
//! Building blocks for splice-style rewriters that edit a serialized
//! document in place instead of parsing it into a tree: an element
//! verifier and an entity decoder. Both are strict — anything
//! they do not recognise yields `None`, and the caller is expected to
//! fall back to the tree path.

use crate::escape::{char_ref, predefined_entity};
use crate::swar;
use std::borrow::Cow;

/// Depth cap for [`verify_element_with_prefixes`]'s fixed name stack. Deeper documents
/// are declined, never mis-verified: the caller falls back to the tree
/// path, which has no such limit.
const MAX_VERIFY_DEPTH: usize = 64;
/// Attributes per tag the verifier will track for duplicate detection.
const MAX_VERIFY_ATTRS: usize = 24;
/// Simultaneously in-scope `xmlns:p` bindings the verifier will track.
const MAX_VERIFY_BINDINGS: usize = 32;

/// Verifies that the complete element whose `<` sits at `start` is one
/// the tree parser ([`crate::Document::parse`]) would accept, and returns
/// the offset one past its end.
///
/// It re-checks every token the parser would — close-tag names must
/// *match* their open tag, names must be valid (at most one colon,
/// name-start/name-char rules), attributes must be unique, entity references must be known predefined
/// or character references, and prefixed names must have an in-scope
/// `xmlns:p` binding — all without allocating, so a splice fast path can
/// guarantee it never forwards bytes the tree path would fault on.
///
/// It is deliberately *stricter* than the parser where the canonical
/// writer gives it room to be: comments, CDATA, processing instructions,
/// DOCTYPE, single-quoted or whitespace-padded attributes, whitespace in
/// close tags, and documents deeper than the fixed stack all yield
/// `None`. Declining is always safe — the caller falls back to the tree.
///
/// `bound` holds the namespace prefixes already in scope — e.g. the
/// envelope prefix a SOAP `Body` inherits from its root element, which
/// lies outside the verified byte range.
pub fn verify_element_with_prefixes(s: &str, start: usize, bound: &[&str]) -> Option<usize> {
    let bytes = s.as_bytes();
    // (name_start, name_len) of each open element, innermost last.
    let mut stack = [(0usize, 0usize); MAX_VERIFY_DEPTH];
    let mut depth = 0usize;
    // (prefix_start, prefix_len, owner_depth) for each live xmlns:p.
    let mut decls = [(0usize, 0usize, 0usize); MAX_VERIFY_BINDINGS];
    let mut ndecls = 0usize;
    let mut pos = start;
    if bytes.get(pos) != Some(&b'<') {
        return None;
    }
    loop {
        match bytes.get(pos)? {
            b'<' if bytes.get(pos + 1) == Some(&b'/') => {
                let (ns, nl) = stack[depth.checked_sub(1)?];
                let name_end = pos + 2 + nl;
                if s.get(pos + 2..name_end)? != &s[ns..ns + nl]
                    || bytes.get(name_end) != Some(&b'>')
                {
                    return None;
                }
                depth -= 1;
                while ndecls > 0 && decls[ndecls - 1].2 == depth {
                    ndecls -= 1;
                }
                pos = name_end + 1;
                if depth == 0 {
                    return Some(pos);
                }
            }
            b'<' => {
                let name_start = pos + 1;
                let name_len = scan_raw_name(s, name_start)?;
                pos = name_start + name_len;
                let mut attrs = [(0usize, 0usize); MAX_VERIFY_ATTRS];
                let mut nattrs = 0usize;
                let decls_before = ndecls;
                let self_closing = loop {
                    match bytes.get(pos)? {
                        b'>' => {
                            pos += 1;
                            break false;
                        }
                        b'/' => {
                            if bytes.get(pos + 1) != Some(&b'>') {
                                return None;
                            }
                            pos += 2;
                            break true;
                        }
                        // Canonical form: exactly one space, then `name="value"`.
                        b' ' => {
                            let astart = pos + 1;
                            let alen = scan_raw_name(s, astart)?;
                            pos = astart + alen;
                            if bytes.get(pos) != Some(&b'=') || bytes.get(pos + 1) != Some(&b'"') {
                                return None;
                            }
                            pos += 2;
                            let aname = &s[astart..astart + alen];
                            if attrs[..nattrs].iter().any(|&(s0, l0)| s[s0..s0 + l0] == *aname)
                                || nattrs == MAX_VERIFY_ATTRS
                            {
                                return None;
                            }
                            attrs[nattrs] = (astart, alen);
                            nattrs += 1;
                            if let Some(p) = aname.strip_prefix("xmlns:") {
                                if ndecls == MAX_VERIFY_BINDINGS {
                                    return None;
                                }
                                decls[ndecls] = (astart + "xmlns:".len(), p.len(), depth);
                                ndecls += 1;
                            }
                            loop {
                                let i = swar::find_byte3(bytes.get(pos..)?, b'"', b'&', b'<')?;
                                pos += i;
                                match bytes[pos] {
                                    b'"' => {
                                        pos += 1;
                                        break;
                                    }
                                    b'<' => return None,
                                    _ => pos = verify_entity(s, pos + 1)?,
                                }
                            }
                        }
                        _ => return None,
                    }
                };
                // Prefixes resolve only after the whole tag is read: an
                // `xmlns:p` on this very tag is in scope for the tag's own
                // name, exactly as the tree parser scopes it.
                let bound_here = |pstart: usize, plen: usize| -> bool {
                    let p = &s[pstart..pstart + plen];
                    p == "xml"
                        || p == "xmlns"
                        || bound.contains(&p)
                        || decls[..ndecls].iter().any(|&(ds, dl, _)| s[ds..ds + dl] == *p)
                };
                if let Some(c) = s[name_start..name_start + name_len].find(':') {
                    if !bound_here(name_start, c) {
                        return None;
                    }
                }
                for &(astart, alen) in &attrs[..nattrs] {
                    let aname = &s[astart..astart + alen];
                    if aname == "xmlns" || aname.starts_with("xmlns:") {
                        continue;
                    }
                    if let Some(c) = aname.find(':') {
                        if !bound_here(astart, c) {
                            return None;
                        }
                    }
                }
                if self_closing {
                    ndecls = decls_before;
                    if depth == 0 {
                        return Some(pos);
                    }
                } else {
                    if depth == MAX_VERIFY_DEPTH {
                        return None;
                    }
                    stack[depth] = (name_start, name_len);
                    depth += 1;
                }
            }
            _ => {
                // Character data: bulk-skip to the next markup byte,
                // validating every entity reference on the way.
                loop {
                    let i = swar::find_byte2(bytes.get(pos..)?, b'<', b'&')?;
                    pos += i;
                    if bytes[pos] == b'<' {
                        break;
                    }
                    pos = verify_entity(s, pos + 1)?;
                }
            }
        }
    }
}

/// Length of the valid raw name (at most one colon, both parts
/// non-empty) starting at byte offset `at`. The allocation-free twin of
/// [`crate::name::is_valid_raw_name`].
fn scan_raw_name(s: &str, at: usize) -> Option<usize> {
    use crate::name::{is_name_char, is_name_start};
    let mut len = 0usize;
    let mut seen_colon = false;
    let mut part_chars = 0usize;
    for c in s.get(at..)?.chars() {
        if if part_chars == 0 { is_name_start(c) } else { is_name_char(c) } {
            part_chars += 1;
            len += c.len_utf8();
        } else if c == ':' && !seen_colon && part_chars > 0 {
            seen_colon = true;
            part_chars = 0;
            len += 1;
        } else {
            break;
        }
    }
    if part_chars == 0 {
        return None;
    }
    Some(len)
}

/// Validates the entity reference whose `&` sits just before `at`,
/// returning the offset past its `;`. Same 13-byte window and reference
/// set as the parser's `read_entity`, so the verifier accepts exactly
/// the references the tree path decodes.
fn verify_entity(s: &str, at: usize) -> Option<usize> {
    let rest = s.get(at..)?;
    let window = &rest.as_bytes()[..rest.len().min(13)];
    let semi = swar::find_byte(window, b';').filter(|&i| i <= 12)?;
    let body = &rest[..semi];
    match body.strip_prefix('#') {
        Some(num) => char_ref(num)?,
        None => predefined_entity(body)?,
    };
    Some(at + semi + 1)
}

/// Decodes entity and character references in a run of character data.
/// Returns `None` for unterminated or unknown references (the sign of a
/// document this scanner should not be trusted with).
pub fn unescape(s: &str) -> Option<Cow<'_, str>> {
    let Some(first) = swar::find_byte(s.as_bytes(), b'&') else {
        return Some(Cow::Borrowed(s));
    };
    let mut out = String::with_capacity(s.len());
    out.push_str(&s[..first]);
    let mut rest = &s[first..];
    while let Some(amp) = swar::find_byte(rest.as_bytes(), b'&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after.find(';')?;
        let name = &after[..semi];
        let c = match name.strip_prefix('#') {
            Some(body) => char_ref(body)?,
            None => predefined_entity(name)?,
        };
        out.push(c);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Some(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify_element(s: &str, start: usize) -> Option<usize> {
        verify_element_with_prefixes(s, start, &[])
    }

    #[test]
    fn verify_accepts_canonical_elements() {
        let s = "<a><b x=\"1\">t &amp; &#x41;</b><c/></a>tail";
        assert_eq!(verify_element(s, 0), Some(s.len() - 4));
        assert_eq!(verify_element("<a/>", 0), Some(4));
        assert_eq!(verify_element("<a x=\"&quot;\"/>", 0), Some(15));
    }

    #[test]
    fn verify_matches_close_tag_names() {
        // Balanced by depth, but the close-tag names must match.
        assert_eq!(verify_element("<a></b>", 0), None);
        assert_eq!(verify_element("<a></ab>", 0), None);
        assert_eq!(verify_element("<ab></a>", 0), None);
        assert_eq!(verify_element("<a><b></a></b>", 0), None);
        assert_eq!(verify_element("<a></a >", 0), None); // canonical only
    }

    #[test]
    fn verify_rejects_unknown_entities() {
        assert_eq!(verify_element("<a>&bn;</a>", 0), None);
        assert_eq!(verify_element("<a>&nbsp;</a>", 0), None);
        assert_eq!(verify_element("<a>a&b</a>", 0), None);
        assert_eq!(verify_element("<a>&#x0;</a>", 0), None);
        assert_eq!(verify_element("<a x=\"&bogus;\"/>", 0), None);
    }

    #[test]
    fn verify_rejects_bad_tokens() {
        assert_eq!(verify_element("<1a/>", 0), None);
        assert_eq!(verify_element("<a:b:c/>", 0), None);
        assert_eq!(verify_element("<a x=\"1\" x=\"2\"/>", 0), None);
        assert_eq!(verify_element("<a x='1'/>", 0), None); // canonical quotes only
        assert_eq!(verify_element("<a x=\"<\"/>", 0), None);
        assert_eq!(verify_element("<a><!-- c --></a>", 0), None); // fall back
        assert_eq!(verify_element("<a><![CDATA[x]]></a>", 0), None);
        assert_eq!(verify_element("<a><b>", 0), None); // truncated
        assert_eq!(verify_element("<a", 0), None);
    }

    #[test]
    fn verify_tracks_prefix_scopes() {
        // Binding on the tag itself covers the tag's own name.
        let s = "<m:op xmlns:m=\"urn:x\"><m:arg>1</m:arg></m:op>";
        assert_eq!(verify_element(s, 0), Some(s.len()));
        // Unbound prefixes are what the tree parser faults on.
        assert_eq!(verify_element("<m:op/>", 0), None);
        assert_eq!(verify_element("<a><w:x/></a>", 0), None);
        // A sibling does not inherit a closed scope.
        assert_eq!(
            verify_element("<a><b xmlns:p=\"u\"/><p:c/></a>", 0),
            None
        );
        // Pre-bound prefixes stand in for out-of-range ancestors.
        assert_eq!(verify_element_with_prefixes("<m:op/>", 0, &["m"]), Some(7));
        // xml: needs no declaration.
        assert_eq!(verify_element("<a xml:lang=\"en\"/>", 0), Some(18));
    }

    #[test]
    fn verify_declines_past_depth_cap() {
        let deep = format!("{}{}", "<n>".repeat(70), "</n>".repeat(70));
        assert_eq!(verify_element(&deep, 0), None);
        let ok = format!("{}{}", "<n>".repeat(50), "</n>".repeat(50));
        assert_eq!(verify_element(&ok, 0), Some(ok.len()));
    }

    #[test]
    fn unescape_decodes_references() {
        assert_eq!(unescape("plain").unwrap(), "plain");
        assert!(matches!(unescape("plain").unwrap(), Cow::Borrowed(_)));
        assert_eq!(unescape("a&lt;b&amp;c&gt;d").unwrap(), "a<b&c>d");
        assert_eq!(unescape("&#65;&#x42;").unwrap(), "AB");
    }

    #[test]
    fn unescape_rejects_bad_references() {
        assert_eq!(unescape("a&b"), None);
        assert_eq!(unescape("&nbsp;"), None);
        assert_eq!(unescape("&#x0;"), None);
    }
}
