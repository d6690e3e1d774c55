//! Streaming pull parser.
//!
//! [`PullParser`] walks a UTF-8 document and yields raw [`Event`]s that
//! borrow from the input: names, CDATA, comments and PIs are slices of
//! it, and text and attribute values are too unless an entity had to be
//! decoded. It validates token-level syntax (names, attribute quoting,
//! entity references) but not document structure — tag matching and
//! single-root-ness are enforced by [`crate::tree::Document::parse`], which
//! is what the protocol stack uses.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::{char_ref, predefined_entity};
use crate::name::{is_name_char, is_name_start, is_valid_raw_name};

/// An opening tag with its attributes in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartTag<'a> {
    /// Raw element name as written (possibly `prefix:local`).
    pub name: &'a str,
    /// `(raw name, decoded value)` pairs in document order.
    pub attributes: Vec<(&'a str, Cow<'a, str>)>,
    /// Whether the tag ended with `/>`.
    pub self_closing: bool,
}

/// A raw parse event, borrowing from the parser's input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v">` or `<name/>`.
    StartElement(StartTag<'a>),
    /// `</name>` (never emitted for self-closing tags).
    EndElement(&'a str),
    /// Character data with entities decoded, up to the next markup.
    Text(Cow<'a, str>),
    /// `<![CDATA[...]]>` content, verbatim.
    CData(&'a str),
    /// `<!--...-->` content, verbatim.
    Comment(&'a str),
    /// `<?target data?>`. The XML declaration arrives as target `xml`.
    Pi {
        /// PI target.
        target: &'a str,
        /// Everything between the target and `?>`, trimmed of one leading
        /// space.
        data: &'a str,
    },
    /// End of input.
    Eof,
}

/// A pull parser over a complete in-memory document.
pub struct PullParser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> PullParser<'a> {
    /// Creates a parser at the start of `input`.
    pub fn new(input: &'a str) -> Self {
        PullParser { input, pos: 0 }
    }

    /// Byte offset of the next unread character.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    /// The next character; only a non-ASCII byte is decoded as UTF-8.
    fn peek(&self) -> Option<char> {
        match *self.input.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.rest().chars().next(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        self.error_at(self.pos, kind)
    }

    /// An error located at byte offset `pos` of the input.
    pub(crate) fn error_at(&self, pos: usize, kind: XmlErrorKind) -> XmlError {
        let prefix = &self.input[..pos.min(self.input.len())];
        let line = prefix.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        let column = prefix
            .rsplit_once('\n')
            .map(|(_, tail)| tail)
            .unwrap_or(prefix)
            .chars()
            .count() as u32
            + 1;
        XmlError::new(kind, line, column)
    }

    /// A name: a name start, then name characters with at most one
    /// colon, itself followed by a name start. The rule is checked while
    /// scanning, so the name is read once; it is `is_valid_raw_name`'s.
    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => self.pos += c.len_utf8(),
            Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
        }
        let bytes = self.input.as_bytes();
        let (mut colons, mut valid) = (0, true);
        while let Some(&b) = bytes.get(self.pos) {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.') {
                self.pos += 1;
            } else if b == b':' {
                self.pos += 1;
                colons += 1;
                valid &= colons == 1 && self.peek().is_some_and(is_name_start);
            } else if b.is_ascii() {
                break;
            } else {
                match self.peek() {
                    Some(c) if is_name_char(c) => self.pos += c.len_utf8(),
                    _ => break,
                }
            }
        }
        let raw = &self.input[start..self.pos];
        debug_assert_eq!(valid, is_valid_raw_name(raw), "{raw:?}");
        if !valid {
            return Err(self.error_at(start, XmlErrorKind::BadName(raw.to_string())));
        }
        Ok(raw)
    }

    /// Decodes `&...;` starting just after the `&`.
    fn read_entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        // Entities are short; cap the scan so broken input fails fast.
        let window = &self.rest().as_bytes()[..self.rest().len().min(13)];
        let semi = match crate::swar::find_byte(window, b';') {
            Some(i) if i <= 12 => i,
            _ => {
                return Err(self.error_at(
                    start,
                    XmlErrorKind::UnknownEntity(
                        self.rest().chars().take(8).collect::<String>(),
                    ),
                ))
            }
        };
        let body = &self.rest()[..semi];
        let decoded = if let Some(num) = body.strip_prefix('#') {
            char_ref(num)
                .ok_or_else(|| self.error_at(start, XmlErrorKind::BadCharRef(num.to_string())))?
        } else {
            predefined_entity(body)
                .ok_or_else(|| self.error_at(start, XmlErrorKind::UnknownEntity(body.to_string())))?
        };
        self.pos += semi + 1;
        Ok(decoded)
    }

    /// Appends `run` and then the entity after it to `decoded`, which is
    /// started from nothing at the first entity of a value.
    fn push_entity(&mut self, decoded: &mut Option<String>, run: &str) -> Result<(), XmlError> {
        let out = decoded.get_or_insert_with(String::new);
        out.push_str(run);
        out.push(self.read_entity()?);
        Ok(())
    }

    fn read_attr_value(&mut self) -> Result<Cow<'a, str>, XmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q as u8,
            Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
        };
        // Bulk-scan to the next quote/entity/`<`. A value with no entity
        // is a slice of the input; the first entity starts an owned copy.
        let mut decoded: Option<String> = None;
        loop {
            let rest = self.rest();
            let Some(i) = crate::swar::find_byte3(rest.as_bytes(), quote, b'&', b'<') else {
                self.pos = self.input.len();
                return Err(self.error(XmlErrorKind::UnexpectedEof));
            };
            let run = &rest[..i];
            self.pos += i + 1;
            match rest.as_bytes()[i] {
                b'&' => self.push_entity(&mut decoded, run)?,
                b'<' => return Err(self.error(XmlErrorKind::UnexpectedChar('<'))),
                _ => return Ok(finish(decoded, run)),
            }
        }
    }

    fn read_until(&mut self, terminator: &str) -> Result<&'a str, XmlError> {
        let rest = self.rest();
        match crate::swar::find_seq(rest.as_bytes(), terminator.as_bytes()) {
            Some(i) => {
                self.pos += i + terminator.len();
                Ok(&rest[..i])
            }
            None => {
                self.pos = self.input.len();
                Err(self.error(XmlErrorKind::UnexpectedEof))
            }
        }
    }

    /// Consumes `s`, or fails on the character found in its place.
    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.eat(s) {
            return Ok(());
        }
        Err(match self.peek() {
            Some(c) => self.error(XmlErrorKind::UnexpectedChar(c)),
            None => self.error(XmlErrorKind::UnexpectedEof),
        })
    }

    fn read_start_tag(&mut self) -> Result<StartTag<'a>, XmlError> {
        let name = self.read_name()?;
        let mut attributes: Vec<(&'a str, Cow<'a, str>)> = Vec::new();
        loop {
            self.skip_ws();
            let self_closing = match self.peek() {
                Some('>') => false,
                Some('/') => true,
                Some(c) if is_name_start(c) => {
                    let attr_start = self.pos;
                    let aname = self.read_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    if attributes.iter().any(|(n, _)| *n == aname) {
                        return Err(self.error_at(
                            attr_start,
                            XmlErrorKind::DuplicateAttribute(aname.to_string()),
                        ));
                    }
                    attributes.push((aname, value));
                    continue;
                }
                Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
                None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
            };
            self.pos += 1;
            if self_closing {
                self.expect(">")?;
            }
            return Ok(StartTag {
                name,
                attributes,
                self_closing,
            });
        }
    }

    fn read_text(&mut self) -> Result<Cow<'a, str>, XmlError> {
        // Bulk-scan to the next markup/entity byte. Text with no entity
        // is a slice of the input; the first entity starts an owned copy.
        let mut decoded: Option<String> = None;
        loop {
            let rest = self.rest();
            let Some(i) = crate::swar::find_byte2(rest.as_bytes(), b'<', b'&') else {
                self.pos = self.input.len();
                return Ok(finish(decoded, rest));
            };
            let run = &rest[..i];
            self.pos += i;
            if rest.as_bytes()[i] == b'<' {
                return Ok(finish(decoded, run));
            }
            self.pos += 1; // past the '&'
            self.push_entity(&mut decoded, run)?;
        }
    }

    /// Returns the next event, or [`Event::Eof`] at end of input.
    pub fn next_event(&mut self) -> Result<Event<'a>, XmlError> {
        match self.input.as_bytes().get(self.pos) {
            None => return Ok(Event::Eof),
            Some(b'<') => self.pos += 1,
            Some(_) => return Ok(Event::Text(self.read_text()?)),
        }
        match self.input.as_bytes().get(self.pos) {
            Some(b'/') => {
                self.pos += 1;
                let name = self.read_name()?;
                self.skip_ws();
                self.expect(">")?;
                Ok(Event::EndElement(name))
            }
            Some(b'!') if self.eat("!--") => Ok(Event::Comment(self.read_until("-->")?)),
            Some(b'!') if self.eat("![CDATA[") => Ok(Event::CData(self.read_until("]]>")?)),
            Some(b'!') => Err(self.error_at(self.pos - 1, XmlErrorKind::DtdRejected)),
            Some(b'?') => {
                self.pos += 1;
                let target = self.read_name()?;
                let data = self.read_until("?>")?;
                Ok(Event::Pi {
                    target,
                    data: data.strip_prefix(' ').unwrap_or(data),
                })
            }
            _ => Ok(Event::StartElement(self.read_start_tag()?)),
        }
    }
}

/// The value ending in `run`: borrowed when nothing was decoded before it.
fn finish<'a>(decoded: Option<String>, run: &'a str) -> Cow<'a, str> {
    match decoded {
        None => Cow::Borrowed(run),
        Some(mut out) => {
            out.push_str(run);
            Cow::Owned(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<Event<'_>>, XmlError> {
        let mut p = PullParser::new(input);
        let mut out = Vec::new();
        loop {
            match p.next_event()? {
                Event::Eof => return Ok(out),
                e => out.push(e),
            }
        }
    }

    #[test]
    fn simple_element() {
        let ev = events("<a>hi</a>").unwrap();
        assert_eq!(
            ev,
            vec![
                Event::StartElement(StartTag {
                    name: "a",
                    attributes: vec![],
                    self_closing: false
                }),
                Event::Text("hi".into()),
                Event::EndElement("a"),
            ]
        );
    }

    #[test]
    fn self_closing_with_attrs() {
        let ev = events(r#"<a x="1" y='2'/>"#).unwrap();
        match &ev[0] {
            Event::StartElement(t) => {
                assert!(t.self_closing);
                assert_eq!(t.attributes, vec![("x", "1".into()), ("y", "2".into())]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entity_decoding_in_text_and_attrs() {
        let ev = events(r#"<a v="&lt;&quot;&#65;">&amp;&gt;&#x41;</a>"#).unwrap();
        match &ev[0] {
            Event::StartElement(t) => assert_eq!(t.attributes[0].1, "<\"A"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ev[1], Event::Text("&>A".into()));
    }

    #[test]
    fn values_borrow_unless_an_entity_was_decoded() {
        let ev = events(r#"<a x="plain" y="a&amp;b">text</a>"#).unwrap();
        match &ev[0] {
            Event::StartElement(t) => {
                assert!(matches!(t.attributes[0].1, Cow::Borrowed("plain")));
                assert!(matches!(&t.attributes[1].1, Cow::Owned(v) if v == "a&b"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(ev[1], Event::Text(Cow::Borrowed("text"))));
        let ev = events("<a>x&lt;y</a>").unwrap();
        assert!(matches!(&ev[1], Event::Text(Cow::Owned(t)) if t == "x<y"));
    }

    #[test]
    fn unknown_entity_is_error() {
        let err = events("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(ref e) if e == "nbsp"));
    }

    #[test]
    fn bad_char_ref_is_error() {
        let err = events("<a>&#xZZ;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadCharRef(_)));
    }

    #[test]
    fn comment_and_cdata_and_pi() {
        let ev = events("<?xml version=\"1.0\"?><a><!-- c --><![CDATA[<raw>]]></a>").unwrap();
        assert_eq!(
            ev[0],
            Event::Pi {
                target: "xml",
                data: "version=\"1.0\""
            }
        );
        assert_eq!(ev[2], Event::Comment(" c "));
        assert_eq!(ev[3], Event::CData("<raw>"));
    }

    #[test]
    fn doctype_rejected() {
        let err = events("<!DOCTYPE html><a/>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::DtdRejected);
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute(ref a) if a == "x"));
    }

    #[test]
    fn mismatched_quote_is_eof_error() {
        let err = events(r#"<a x="1/>"#).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn lt_in_attr_value_rejected() {
        let err = events(r#"<a x="<"/>"#).unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedChar('<'));
    }

    #[test]
    fn error_positions_are_one_based() {
        let err = events("<a>\n  <b x='1' x='2'/>\n</a>").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.column > 1);
    }

    #[test]
    fn bad_names_rejected() {
        assert!(events("<1a/>").is_err());
        assert!(events("<a:b:c/>").is_err());
    }

    #[test]
    fn unterminated_comment_is_eof() {
        let err = events("<a><!-- never closed").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn whitespace_in_end_tag_ok() {
        let ev = events("<a></a >").unwrap();
        assert_eq!(ev[1], Event::EndElement("a"));
    }

    #[test]
    fn utf8_text_survives() {
        let ev = events("<a>héllo — 世界</a>").unwrap();
        assert_eq!(ev[1], Event::Text("héllo — 世界".into()));
    }
}
