//! Streaming pull parser.
//!
//! [`PullParser`] walks a UTF-8 document and yields raw [`Event`]s. It
//! validates token-level syntax (names, attribute quoting, entity
//! references) but not document structure — tag matching and
//! single-root-ness are enforced by [`super::tree::parse`], which
//! is what the protocol stack uses.

use wsd_xml::escape::{char_ref, predefined_entity};
use wsd_xml::name::{is_name_char, is_name_start};
use wsd_xml::{XmlError, XmlErrorKind};

use super::{is_valid_raw_name, new_error};

/// An opening tag with its attributes in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartTag {
    /// Raw element name as written (possibly `prefix:local`).
    pub name: String,
    /// `(raw name, decoded value)` pairs in document order.
    pub attributes: Vec<(String, String)>,
    /// Whether the tag ended with `/>`.
    pub self_closing: bool,
}

/// A raw parse event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="v">` or `<name/>`.
    StartElement(StartTag),
    /// `</name>` (never emitted for self-closing tags).
    EndElement(String),
    /// Character data with entities decoded. Adjacent runs are merged.
    Text(String),
    /// `<![CDATA[...]]>` content, verbatim.
    CData(String),
    /// `<!--...-->` content, verbatim.
    Comment(String),
    /// `<?target data?>`. The XML declaration arrives as target `xml`.
    Pi {
        /// PI target.
        target: String,
        /// Everything between the target and `?>`, trimmed of one leading
        /// space.
        data: String,
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

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
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
        while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
            self.bump();
        }
    }

    fn error(&self, kind: XmlErrorKind) -> XmlError {
        self.error_at(self.pos, kind)
    }

    fn error_at(&self, pos: usize, kind: XmlErrorKind) -> XmlError {
        let prefix = &self.input[..pos.min(self.input.len())];
        let line = prefix.bytes().filter(|&b| b == b'\n').count() as u32 + 1;
        let column = prefix
            .rsplit_once('\n')
            .map(|(_, tail)| tail)
            .unwrap_or(prefix)
            .chars()
            .count() as u32
            + 1;
        new_error(kind, line, column)
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if is_name_start(c) => {
                self.bump();
            }
            Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(c) if is_name_char(c) || c == ':') {
            self.bump();
        }
        let raw = &self.input[start..self.pos];
        if !is_valid_raw_name(raw) {
            return Err(self.error_at(start, XmlErrorKind::BadName(raw.to_string())));
        }
        Ok(raw.to_string())
    }

    /// Decodes `&...;` starting just after the `&`.
    fn read_entity(&mut self) -> Result<char, XmlError> {
        let start = self.pos;
        // Entities are short; cap the scan so broken input fails fast.
        let window = &self.rest().as_bytes()[..self.rest().len().min(13)];
        let semi = match wsd_xml::swar::find_byte(window, b';') {
            Some(i) if i <= 12 => i,
            _ => {
                return Err(self.error_at(
                    start,
                    XmlErrorKind::UnknownEntity(self.rest().chars().take(8).collect::<String>()),
                ))
            }
        };
        let body = &self.rest()[..semi];
        let decoded = if let Some(num) = body.strip_prefix('#') {
            char_ref(num)
                .ok_or_else(|| self.error_at(start, XmlErrorKind::BadCharRef(num.to_string())))?
        } else {
            predefined_entity(body).ok_or_else(|| {
                self.error_at(start, XmlErrorKind::UnknownEntity(body.to_string()))
            })?
        };
        self.pos += semi + 1;
        Ok(decoded)
    }

    fn read_attr_value(&mut self) -> Result<String, XmlError> {
        let quote = match self.bump() {
            Some(q @ ('"' | '\'')) => q,
            Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
            None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
        };
        // Bulk-scan to the next quote/entity/`<`, copying plain runs in one
        // step. Stops land on the same bytes the per-char loop decided on,
        // so error positions are unchanged.
        let mut out = String::new();
        loop {
            let rest = self.rest();
            match wsd_xml::swar::find_byte3(rest.as_bytes(), quote as u8, b'&', b'<') {
                None => {
                    self.pos = self.input.len();
                    return Err(self.error(XmlErrorKind::UnexpectedEof));
                }
                Some(i) => {
                    out.push_str(&rest[..i]);
                    self.pos += i + 1;
                    match rest.as_bytes()[i] {
                        b'&' => out.push(self.read_entity()?),
                        b'<' => return Err(self.error(XmlErrorKind::UnexpectedChar('<'))),
                        _ => return Ok(out),
                    }
                }
            }
        }
    }

    fn read_until(&mut self, terminator: &str, what: &'static str) -> Result<String, XmlError> {
        match wsd_xml::swar::find_seq(self.rest().as_bytes(), terminator.as_bytes()) {
            Some(i) => {
                let content = self.rest()[..i].to_string();
                self.pos += i + terminator.len();
                Ok(content)
            }
            None => {
                let _ = what;
                self.pos = self.input.len();
                Err(self.error(XmlErrorKind::UnexpectedEof))
            }
        }
    }

    fn read_start_tag(&mut self) -> Result<StartTag, XmlError> {
        let name = self.read_name()?;
        let mut attributes: Vec<(String, String)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump();
                    return Ok(StartTag {
                        name,
                        attributes,
                        self_closing: false,
                    });
                }
                Some('/') => {
                    self.bump();
                    if !self.eat(">") {
                        return Err(match self.peek() {
                            Some(c) => self.error(XmlErrorKind::UnexpectedChar(c)),
                            None => self.error(XmlErrorKind::UnexpectedEof),
                        });
                    }
                    return Ok(StartTag {
                        name,
                        attributes,
                        self_closing: true,
                    });
                }
                Some(c) if is_name_start(c) => {
                    let attr_start = self.pos;
                    let aname = self.read_name()?;
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(match self.peek() {
                            Some(c) => self.error(XmlErrorKind::UnexpectedChar(c)),
                            None => self.error(XmlErrorKind::UnexpectedEof),
                        });
                    }
                    self.skip_ws();
                    let value = self.read_attr_value()?;
                    if attributes.iter().any(|(n, _)| n == &aname) {
                        return Err(
                            self.error_at(attr_start, XmlErrorKind::DuplicateAttribute(aname))
                        );
                    }
                    attributes.push((aname, value));
                }
                Some(c) => return Err(self.error(XmlErrorKind::UnexpectedChar(c))),
                None => return Err(self.error(XmlErrorKind::UnexpectedEof)),
            }
        }
    }

    fn read_text(&mut self) -> Result<String, XmlError> {
        // Bulk-scan to the next markup/entity byte; plain character data
        // is copied in one `push_str` per run instead of per char.
        let mut out = String::new();
        loop {
            let rest = self.rest();
            match wsd_xml::swar::find_byte2(rest.as_bytes(), b'<', b'&') {
                None => {
                    out.push_str(rest);
                    self.pos = self.input.len();
                    return Ok(out);
                }
                Some(i) => {
                    out.push_str(&rest[..i]);
                    self.pos += i;
                    if rest.as_bytes()[i] == b'<' {
                        return Ok(out);
                    }
                    self.pos += 1; // past the '&'
                    out.push(self.read_entity()?);
                }
            }
        }
    }

    /// Returns the next event, or [`Event::Eof`] at end of input.
    pub fn next_event(&mut self) -> Result<Event, XmlError> {
        if self.pos >= self.input.len() {
            return Ok(Event::Eof);
        }
        if self.eat("<") {
            if self.eat("!--") {
                let body = self.read_until("-->", "comment")?;
                return Ok(Event::Comment(body));
            }
            if self.eat("![CDATA[") {
                let body = self.read_until("]]>", "CDATA section")?;
                return Ok(Event::CData(body));
            }
            if self.rest().starts_with('!') {
                return Err(self.error_at(self.pos - 1, XmlErrorKind::DtdRejected));
            }
            if self.eat("?") {
                let target = self.read_name()?;
                let data = self.read_until("?>", "processing instruction")?;
                return Ok(Event::Pi {
                    target,
                    data: data.strip_prefix(' ').unwrap_or(&data).to_string(),
                });
            }
            if self.eat("/") {
                let name = self.read_name()?;
                self.skip_ws();
                if !self.eat(">") {
                    return Err(match self.peek() {
                        Some(c) => self.error(XmlErrorKind::UnexpectedChar(c)),
                        None => self.error(XmlErrorKind::UnexpectedEof),
                    });
                }
                return Ok(Event::EndElement(name));
            }
            return Ok(Event::StartElement(self.read_start_tag()?));
        }
        Ok(Event::Text(self.read_text()?))
    }
}
