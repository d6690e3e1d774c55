//! Escaping and unescaping of character data and attribute values.

use std::borrow::Cow;

/// Escapes character data (element text): `&`, `<`, `>`.
///
/// `>` is only mandatory in the `]]>` sequence but escaping it always is
/// harmless and round-trips cleanly.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape(s, find_text_special)
}

/// Escapes an attribute value for double-quoted output: `&`, `<`, `>`,
/// `"`, plus tab/CR/LF (so whitespace survives attribute-value
/// normalization on re-parse).
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape(s, find_attr_special)
}

/// Appends [`escape_text`]'s bytes to `out`, with no intermediate
/// `String`.
pub fn push_escaped_text(s: &str, out: &mut String) {
    push_escaped(s, out, find_text_special);
}

/// Appends [`escape_attr`]'s bytes to `out`, with no intermediate
/// `String`.
pub fn push_escaped_attr(s: &str, out: &mut String) {
    push_escaped(s, out, find_attr_special);
}

/// The first byte character data escapes. Every special byte is ASCII,
/// so a hit is always a character boundary.
fn find_text_special(bytes: &[u8]) -> Option<usize> {
    crate::swar::find_byte3(bytes, b'&', b'<', b'>')
}

/// The first byte an attribute value escapes.
fn find_attr_special(bytes: &[u8]) -> Option<usize> {
    crate::swar::find_any(bytes, [b'&', b'<', b'>', b'"', b'\t', b'\n', b'\r'])
}

fn escape(s: &str, find: fn(&[u8]) -> Option<usize>) -> Cow<'_, str> {
    let Some(first) = find(s.as_bytes()) else {
        return Cow::Borrowed(s);
    };
    let mut out = String::with_capacity(s.len() + 8);
    out.push_str(&s[..first]);
    push_escaped(&s[first..], &mut out, find);
    Cow::Owned(out)
}

/// Copies `s` to `out` a run at a time, each special byte `find` stops
/// at replaced by its reference.
fn push_escaped(s: &str, out: &mut String, find: fn(&[u8]) -> Option<usize>) {
    let mut rest = s;
    while let Some(i) = find(rest.as_bytes()) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            b'\t' => "&#9;",
            b'\n' => "&#10;",
            _ => "&#13;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Resolves one predefined entity name (`lt`, `gt`, `amp`, `apos`,
/// `quot`) to its character.
pub fn predefined_entity(name: &str) -> Option<char> {
    match name {
        "lt" => Some('<'),
        "gt" => Some('>'),
        "amp" => Some('&'),
        "apos" => Some('\''),
        "quot" => Some('"'),
        _ => None,
    }
}

/// Resolves a character reference body (the part between `&#` and `;`),
/// e.g. `x41` or `65`.
pub fn char_ref(body: &str) -> Option<char> {
    let code = if let Some(hex) = body.strip_prefix('x').or_else(|| body.strip_prefix('X')) {
        u32::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<u32>().ok()?
    };
    let c = char::from_u32(code)?;
    // XML 1.0 Char production: forbid most control characters.
    if matches!(c, '\u{9}' | '\u{A}' | '\u{D}') || c >= '\u{20}' {
        Some(c)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_is_borrowed() {
        assert!(matches!(escape_text("hello world"), Cow::Borrowed(_)));
    }

    #[test]
    fn escapes_markup_characters() {
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
    }

    #[test]
    fn attr_escapes_quotes_and_whitespace() {
        assert_eq!(escape_attr("a\"b\tc\nd\re"), "a&quot;b&#9;c&#10;d&#13;e");
    }

    #[test]
    fn text_does_not_escape_quotes() {
        assert_eq!(escape_text("a\"b'c"), "a\"b'c");
    }

    #[test]
    fn push_escaped_text_matches_escape_text() {
        for s in ["plain", "", "a<b&c>d", "&&&", "tail>", "héllo — 世界 <&>"] {
            let mut out = String::from("prefix:");
            push_escaped_text(s, &mut out);
            assert_eq!(out, format!("prefix:{}", escape_text(s)));
        }
    }

    /// The escaper as it was written before the byte scan: one `char` at
    /// a time. Kept as the reference the scanning escapers are held to.
    fn escape_chars(s: &str, attr: bool) -> String {
        let mut out = String::with_capacity(s.len() + 8);
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if attr => out.push_str("&quot;"),
                '\t' if attr => out.push_str("&#9;"),
                '\n' if attr => out.push_str("&#10;"),
                '\r' if attr => out.push_str("&#13;"),
                c => out.push(c),
            }
        }
        out
    }

    /// Every form of both escapers, against the reference: the `Cow`
    /// (borrowed exactly when nothing changed) and the appending one.
    fn assert_matches_reference(s: &str) {
        for attr in [false, true] {
            let want = escape_chars(s, attr);
            let (cow, push): (_, fn(&str, &mut String)) = if attr {
                (escape_attr(s), push_escaped_attr)
            } else {
                (escape_text(s), push_escaped_text)
            };
            assert_eq!(cow, want, "attr={attr} {s:?}");
            assert_eq!(matches!(cow, Cow::Borrowed(_)), want == s, "attr={attr} {s:?}");
            let mut out = String::from("<");
            push(s, &mut out);
            assert_eq!(out[1..], want, "attr={attr} {s:?}");
        }
    }

    #[test]
    fn every_special_at_every_word_offset_matches_the_reference() {
        assert_matches_reference("");
        for special in ['&', '<', '>', '"', '\t', '\n', '\r', 'é', '世', '😀'] {
            for len in 1..=17 {
                for at in 0..len {
                    let s: String =
                        (0..len).map(|i| if i == at { special } else { 'a' }).collect();
                    assert_matches_reference(&s);
                }
            }
        }
    }

    proptest::proptest! {
        /// Multi-byte UTF-8 next to every special, at any offset of an
        /// 8-byte word, escapes to the reference's bytes.
        #[test]
        fn escapers_match_the_char_walk(
            s in "[a&<>\"\t\n\r'é世😀\u{80}\u{7ff}\u{ffff}]{0,40}",
        ) {
            assert_matches_reference(&s);
        }
    }

    #[test]
    fn predefined_entities_resolve() {
        assert_eq!(predefined_entity("lt"), Some('<'));
        assert_eq!(predefined_entity("gt"), Some('>'));
        assert_eq!(predefined_entity("amp"), Some('&'));
        assert_eq!(predefined_entity("apos"), Some('\''));
        assert_eq!(predefined_entity("quot"), Some('"'));
        assert_eq!(predefined_entity("nbsp"), None);
    }

    #[test]
    fn char_refs_decimal_and_hex() {
        assert_eq!(char_ref("65"), Some('A'));
        assert_eq!(char_ref("x41"), Some('A'));
        assert_eq!(char_ref("X41"), Some('A'));
        assert_eq!(char_ref("x1F600"), Some('😀'));
    }

    #[test]
    fn char_refs_reject_controls_and_garbage() {
        assert_eq!(char_ref("1"), None); // U+0001 forbidden
        assert_eq!(char_ref("x0"), None);
        assert_eq!(char_ref(""), None);
        assert_eq!(char_ref("xzz"), None);
        assert_eq!(char_ref("x110000"), None); // beyond Unicode
        assert_eq!(char_ref("9"), Some('\t')); // tab allowed
    }
}
