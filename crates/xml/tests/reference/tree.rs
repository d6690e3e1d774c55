//! The parent revision's tree builder (`Document::parse`, `NsScopes`,
//! `build_element`), kept as written there apart from its imports and
//! the crate-private error constructor, as the reference the rewritten
//! parser is compared against.

use std::collections::HashMap;

use wsd_xml::tree::XML_NS;
use wsd_xml::{Attribute, Document, Element, Node, QName, XmlError, XmlErrorKind};

use super::new_error;
use super::parser::{Event, PullParser, StartTag};

/// Parses a complete document, enforcing well-formed structure: one
/// root, matching tags, bound prefixes, nothing but whitespace,
/// comments and PIs outside the root.
pub fn parse(input: &str) -> Result<Document, XmlError> {
    let mut parser = PullParser::new(input);
    let mut scopes = NsScopes::new();
    let mut root: Option<Element> = None;
    loop {
        match parser.next_event()? {
            Event::StartElement(tag) => {
                if root.is_some() {
                    return Err(new_error(
                        XmlErrorKind::BadDocumentStructure("multiple root elements"),
                        1,
                        1,
                    ));
                }
                root = Some(build_element(tag, &mut parser, &mut scopes)?);
            }
            Event::Text(t) if t.trim().is_empty() => {}
            Event::Text(_) => {
                return Err(new_error(
                    XmlErrorKind::BadDocumentStructure("text outside the root element"),
                    1,
                    1,
                ))
            }
            Event::CData(_) => {
                return Err(new_error(
                    XmlErrorKind::BadDocumentStructure("CDATA outside the root element"),
                    1,
                    1,
                ))
            }
            Event::EndElement(_) => {
                return Err(new_error(
                    XmlErrorKind::BadDocumentStructure("end tag without a start tag"),
                    1,
                    1,
                ))
            }
            Event::Comment(_) | Event::Pi { .. } => {}
            Event::Eof => break,
        }
    }
    match root {
        Some(root) => Ok(Document { root }),
        None => Err(new_error(
            XmlErrorKind::BadDocumentStructure("no root element"),
            1,
            1,
        )),
    }
}

struct NsScopes {
    stack: Vec<HashMap<Option<String>, String>>,
}

impl NsScopes {
    fn new() -> Self {
        NsScopes { stack: Vec::new() }
    }

    fn push(&mut self, tag: &StartTag) {
        let mut scope = HashMap::new();
        for (raw, value) in &tag.attributes {
            if raw == "xmlns" {
                scope.insert(None, value.clone());
            } else if let Some(p) = raw.strip_prefix("xmlns:") {
                scope.insert(Some(p.to_string()), value.clone());
            }
        }
        self.stack.push(scope);
    }

    fn pop(&mut self) {
        self.stack.pop();
    }

    fn resolve(&self, prefix: Option<&str>) -> Option<Option<String>> {
        if prefix == Some("xml") {
            return Some(Some(XML_NS.to_string()));
        }
        if prefix == Some("xmlns") {
            return Some(None);
        }
        let key = prefix.map(str::to_string);
        for scope in self.stack.iter().rev() {
            if let Some(uri) = scope.get(&key) {
                // xmlns="" un-declares the default namespace.
                return Some(if uri.is_empty() {
                    None
                } else {
                    Some(uri.clone())
                });
            }
        }
        if prefix.is_none() {
            Some(None)
        } else {
            None
        }
    }
}

fn build_element(
    tag: StartTag,
    parser: &mut PullParser<'_>,
    scopes: &mut NsScopes,
) -> Result<Element, XmlError> {
    scopes.push(&tag);
    let name = QName::parse(&tag.name)
        .ok_or_else(|| new_error(XmlErrorKind::BadName(tag.name.clone()), 1, 1))?;
    let namespace = scopes.resolve(name.prefix.as_deref()).ok_or_else(|| {
        new_error(
            XmlErrorKind::UnboundPrefix(name.prefix.clone().unwrap_or_default()),
            1,
            1,
        )
    })?;
    let mut attributes = Vec::with_capacity(tag.attributes.len());
    for (raw, value) in &tag.attributes {
        let aname =
            QName::parse(raw).ok_or_else(|| new_error(XmlErrorKind::BadName(raw.clone()), 1, 1))?;
        let ans = match aname.prefix.as_deref() {
            // Unprefixed attributes are in no namespace; xmlns decls are
            // declarations, not namespaced attributes.
            None => None,
            Some("xmlns") => None,
            Some(p) => Some(
                scopes
                    .resolve(Some(p))
                    .ok_or_else(|| new_error(XmlErrorKind::UnboundPrefix(p.to_string()), 1, 1))?,
            ),
        };
        attributes.push(Attribute {
            name: aname,
            namespace: ans.flatten(),
            value: value.clone(),
        });
    }
    let mut element = Element {
        name,
        namespace,
        attributes,
        children: Vec::new(),
    };
    if tag.self_closing {
        scopes.pop();
        return Ok(element);
    }
    loop {
        match parser.next_event()? {
            Event::StartElement(child) => {
                let child = build_element(child, parser, scopes)?;
                element.children.push(Node::Element(child));
            }
            Event::EndElement(raw) => {
                if raw != element.name.as_written() {
                    return Err(new_error(
                        XmlErrorKind::MismatchedTag {
                            expected: element.name.as_written(),
                            found: raw,
                        },
                        1,
                        1,
                    ));
                }
                scopes.pop();
                return Ok(element);
            }
            Event::Text(t) => {
                if let Some(Node::Text(prev)) = element.children.last_mut() {
                    prev.push_str(&t);
                } else if !t.is_empty() {
                    element.children.push(Node::Text(t));
                }
            }
            Event::CData(t) => element.children.push(Node::CData(t)),
            Event::Comment(c) => element.children.push(Node::Comment(c)),
            Event::Pi { .. } => {}
            Event::Eof => {
                return Err(new_error(XmlErrorKind::UnexpectedEof, 1, 1));
            }
        }
    }
}
