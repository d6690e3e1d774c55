//! Owned element tree with namespaces resolved at parse time.

use std::borrow::Cow;

use crate::error::{XmlError, XmlErrorKind};
use crate::name::QName;
use crate::parser::{Event, PullParser, StartTag};

/// The `xml` prefix is implicitly bound to this URI.
pub const XML_NS: &str = "http://www.w3.org/XML/1998/namespace";

/// An attribute: name as written, resolved namespace (only for prefixed
/// attributes, per Namespaces in XML), and decoded value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written.
    pub name: QName,
    /// Resolved namespace URI (`None` for unprefixed attributes).
    pub namespace: Option<String>,
    /// Decoded attribute value.
    pub value: String,
}

/// A child of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entities already decoded).
    Text(String),
    /// A CDATA section's verbatim content.
    CData(String),
    /// A comment's verbatim content.
    Comment(String),
}

impl Node {
    /// The element inside, if this node is one.
    fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// An element: written name, resolved namespace, attributes (including any
/// `xmlns` declarations, so serialization is faithful) and children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Name as written (prefix preserved).
    pub name: QName,
    /// Resolved namespace URI of the element, if any.
    pub namespace: Option<String>,
    /// Attributes in document order, `xmlns`/`xmlns:*` included.
    pub attributes: Vec<Attribute>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// A namespace-less element.
    pub fn new(local: impl Into<String>) -> Self {
        Element {
            name: QName::local(local),
            namespace: None,
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// An element in namespace `uri`, written with the given prefix.
    ///
    /// This only sets the resolved namespace; emitting a matching
    /// `xmlns[:prefix]` declaration is the builder's job (see
    /// [`declare_namespace`](Self::declare_namespace)), exactly as in
    /// hand-written SOAP.
    pub fn new_ns(
        prefix: Option<&str>,
        local: impl Into<String>,
        uri: impl Into<String>,
    ) -> Self {
        Element {
            name: match prefix {
                Some(p) => QName::prefixed(p, local),
                None => QName::local(local),
            },
            namespace: Some(uri.into()),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an `xmlns` (for `prefix = None`) or `xmlns:prefix` declaration
    /// attribute. Returns `self` for chaining.
    pub fn declare_namespace(mut self, prefix: Option<&str>, uri: impl Into<String>) -> Self {
        let name = match prefix {
            Some(p) => QName::prefixed("xmlns", p),
            None => QName::local("xmlns"),
        };
        self.attributes.push(Attribute {
            name,
            namespace: None,
            value: uri.into(),
        });
        self
    }

    /// Whether this element has the given resolved namespace and local name.
    pub fn is(&self, namespace: Option<&str>, local: &str) -> bool {
        self.namespace.as_deref() == namespace && self.name.local == local
    }

    /// Child elements in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First child element matching `(namespace, local)`.
    pub fn find_child(&self, namespace: Option<&str>, local: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.is(namespace, local))
    }

    /// All child elements matching `(namespace, local)`.
    pub fn find_children<'a>(
        &'a self,
        namespace: Option<&'a str>,
        local: &'a str,
    ) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.is(namespace, local))
    }

    /// Concatenated direct text and CDATA content.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            match c {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                _ => {}
            }
        }
        out
    }

    /// Value of the first attribute whose *local* name matches (any or no
    /// prefix), skipping `xmlns` declarations.
    pub fn attr(&self, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .filter(|a| !a.is_xmlns())
            .find(|a| a.name.local == local)
            .map(|a| a.value.as_str())
    }

    /// Value of the attribute with the given resolved namespace and local
    /// name.
    // wsd-lint: allow(pub-without-caller): tests/conformance.rs and the envelope tests read attributes by their resolved namespace
    pub fn attr_ns(&self, namespace: Option<&str>, local: &str) -> Option<&str> {
        self.attributes
            .iter()
            .filter(|a| !a.is_xmlns())
            .find(|a| a.namespace.as_deref() == namespace && a.name.local == local)
            .map(|a| a.value.as_str())
    }

    /// Sets (or replaces) an unprefixed attribute.
    pub fn set_attr(&mut self, local: impl Into<String>, value: impl Into<String>) {
        let local = local.into();
        let value = value.into();
        if let Some(a) = self
            .attributes
            .iter_mut()
            .find(|a| a.name.prefix.is_none() && a.name.local == local)
        {
            a.value = value;
        } else {
            self.attributes.push(Attribute {
                name: QName::local(local),
                namespace: None,
                value,
            });
        }
    }

    /// Appends a prefixed attribute with an explicit resolved namespace.
    pub fn with_attr_ns(
        mut self,
        prefix: &str,
        local: impl Into<String>,
        namespace: impl Into<String>,
        value: impl Into<String>,
    ) -> Self {
        self.attributes.push(Attribute {
            name: QName::prefixed(prefix, local),
            namespace: Some(namespace.into()),
            value: value.into(),
        });
        self
    }

    /// Appends a child element. Returns `self` for chaining.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Appends text content. Returns `self` for chaining.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

}

impl Attribute {
    /// Whether this attribute is an `xmlns` or `xmlns:*` declaration.
    fn is_xmlns(&self) -> bool {
        self.name.prefix.as_deref() == Some("xmlns")
            || (self.name.prefix.is_none() && self.name.local == "xmlns")
    }
}

/// A parsed document: exactly one root element. The XML declaration and
/// top-level comments/PIs are not preserved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The root element.
    pub root: Element,
}

impl Document {
    /// Parses a complete document, enforcing well-formed structure: one
    /// root, matching tags, bound prefixes, nothing but whitespace,
    /// comments and PIs outside the root. A structural error is reported
    /// at the start of the token that breaks the structure.
    pub fn parse(input: &str) -> Result<Document, XmlError> {
        let mut parser = PullParser::new(input);
        let mut scopes = NsScopes::default();
        let mut root: Option<Element> = None;
        loop {
            let at = parser.position();
            let misplaced = match parser.next_event()? {
                Event::StartElement(_) if root.is_some() => "multiple root elements",
                Event::StartElement(tag) => {
                    root = Some(build_element(tag, at, &mut parser, &mut scopes)?);
                    continue;
                }
                Event::Text(t) if t.trim().is_empty() => continue,
                Event::Text(_) => "text outside the root element",
                Event::CData(_) => "CDATA outside the root element",
                Event::EndElement(_) => "end tag without a start tag",
                Event::Comment(_) | Event::Pi { .. } => continue,
                Event::Eof => break,
            };
            return Err(parser.error_at(at, XmlErrorKind::BadDocumentStructure(misplaced)));
        }
        match root {
            Some(root) => Ok(Document { root }),
            None => Err(parser.error_at(
                input.len(),
                XmlErrorKind::BadDocumentStructure("no root element"),
            )),
        }
    }
}

/// The in-scope namespace declarations, innermost last: one stack for
/// the whole document, cut back to an element's mark at its end tag.
/// A URI borrows from the input unless an entity was decoded in it.
#[derive(Default)]
struct NsScopes<'a> {
    bindings: Vec<(Option<&'a str>, Cow<'a, str>)>,
}

impl<'a> NsScopes<'a> {
    /// Pushes `tag`'s `xmlns` / `xmlns:p` declarations and returns the
    /// mark to [`truncate`](Vec::truncate) back to at its end.
    fn push(&mut self, tag: &StartTag<'a>) -> usize {
        let mark = self.bindings.len();
        for (raw, value) in &tag.attributes {
            if *raw == "xmlns" {
                self.bindings.push((None, value.clone()));
            } else if let Some(p) = raw.strip_prefix("xmlns:") {
                self.bindings.push((Some(p), value.clone()));
            }
        }
        mark
    }

    fn resolve(&self, prefix: Option<&str>) -> Option<Option<&str>> {
        match prefix {
            Some("xml") => return Some(Some(XML_NS)),
            Some("xmlns") => return Some(None),
            _ => {}
        }
        match self.bindings.iter().rev().find(|(p, _)| *p == prefix) {
            // xmlns="" un-declares the default namespace.
            Some((_, uri)) => Some(Some(&**uri).filter(|uri| !uri.is_empty())),
            None => prefix.is_none().then_some(None),
        }
    }
}

/// Builds the element `tag` opens, which started at byte `at`, reading
/// its content from `parser` up to its end tag.
fn build_element<'a>(
    tag: StartTag<'a>,
    at: usize,
    parser: &mut PullParser<'a>,
    scopes: &mut NsScopes<'a>,
) -> Result<Element, XmlError> {
    let mark = scopes.push(&tag);
    let unbound = |p: &str| parser.error_at(at, XmlErrorKind::UnboundPrefix(p.to_string()));
    let name = QName::parse(tag.name)
        .ok_or_else(|| parser.error_at(at, XmlErrorKind::BadName(tag.name.to_string())))?;
    let prefix = name.prefix.as_deref();
    let namespace = scopes
        .resolve(prefix)
        .ok_or_else(|| unbound(prefix.unwrap_or_default()))?
        .map(str::to_string);
    let mut attributes = Vec::with_capacity(tag.attributes.len());
    for (raw, value) in tag.attributes {
        let aname = QName::parse(raw)
            .ok_or_else(|| parser.error_at(at, XmlErrorKind::BadName(raw.to_string())))?;
        let ans = match aname.prefix.as_deref() {
            // Unprefixed attributes are in no namespace; xmlns decls are
            // declarations, not namespaced attributes.
            None | Some("xmlns") => None,
            Some(p) => scopes
                .resolve(Some(p))
                .ok_or_else(|| unbound(p))?
                .map(str::to_string),
        };
        attributes.push(Attribute {
            name: aname,
            namespace: ans,
            value: value.into_owned(),
        });
    }
    let mut element = Element {
        name,
        namespace,
        attributes,
        children: Vec::new(),
    };
    if tag.self_closing {
        scopes.bindings.truncate(mark);
        return Ok(element);
    }
    loop {
        let at = parser.position();
        match parser.next_event()? {
            Event::StartElement(child) => {
                let child = build_element(child, at, parser, scopes)?;
                element.children.push(Node::Element(child));
            }
            Event::EndElement(raw) => {
                if raw != tag.name {
                    return Err(parser.error_at(
                        at,
                        XmlErrorKind::MismatchedTag {
                            expected: tag.name.to_string(),
                            found: raw.to_string(),
                        },
                    ));
                }
                scopes.bindings.truncate(mark);
                return Ok(element);
            }
            Event::Text(t) => {
                if let Some(Node::Text(prev)) = element.children.last_mut() {
                    prev.push_str(&t);
                } else if !t.is_empty() {
                    element.children.push(Node::Text(t.into_owned()));
                }
            }
            Event::CData(t) => element.children.push(Node::CData(t.to_string())),
            Event::Comment(c) => element.children.push(Node::Comment(c.to_string())),
            Event::Pi { .. } => {}
            Event::Eof => return Err(parser.error_at(at, XmlErrorKind::UnexpectedEof)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_structure() {
        let doc = Document::parse("<a><b><c/></b><b/></a>").unwrap();
        assert_eq!(doc.root.name.local, "a");
        assert_eq!(doc.root.child_elements().count(), 2);
        let b = doc.root.find_child(None, "b").unwrap();
        assert!(b.find_child(None, "c").is_some());
    }

    #[test]
    fn default_namespace_applies_to_descendants() {
        let doc = Document::parse(r#"<a xmlns="urn:x"><b/></a>"#).unwrap();
        assert_eq!(doc.root.namespace.as_deref(), Some("urn:x"));
        let b = doc.root.find_child(Some("urn:x"), "b").unwrap();
        assert_eq!(b.namespace.as_deref(), Some("urn:x"));
    }

    #[test]
    fn prefixed_namespace_resolution() {
        let doc =
            Document::parse(r#"<s:a xmlns:s="urn:s" xmlns:t="urn:t"><t:b s:attr="v"/></s:a>"#)
                .unwrap();
        assert_eq!(doc.root.namespace.as_deref(), Some("urn:s"));
        let b = doc.root.find_child(Some("urn:t"), "b").unwrap();
        assert_eq!(b.attr_ns(Some("urn:s"), "attr"), Some("v"));
    }

    #[test]
    fn inner_declaration_shadows_outer() {
        let doc = Document::parse(r#"<a xmlns="urn:1"><b xmlns="urn:2"/><c/></a>"#).unwrap();
        assert!(doc.root.find_child(Some("urn:2"), "b").is_some());
        assert!(doc.root.find_child(Some("urn:1"), "c").is_some());
    }

    #[test]
    fn empty_xmlns_undeclares_default() {
        let doc = Document::parse(r#"<a xmlns="urn:1"><b xmlns=""/></a>"#).unwrap();
        assert!(doc.root.find_child(None, "b").is_some());
    }

    #[test]
    fn unbound_prefix_is_error() {
        let err = Document::parse("<x:a/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnboundPrefix(ref p) if p == "x"));
    }

    #[test]
    fn xml_prefix_is_implicit() {
        let doc = Document::parse(r#"<a xml:lang="en"/>"#).unwrap();
        assert_eq!(doc.root.attr_ns(Some(XML_NS), "lang"), Some("en"));
    }

    #[test]
    fn unprefixed_attr_has_no_namespace() {
        let doc = Document::parse(r#"<a xmlns="urn:x" k="v"/>"#).unwrap();
        assert_eq!(doc.root.attr_ns(None, "k"), Some("v"));
        assert_eq!(doc.root.attr_ns(Some("urn:x"), "k"), None);
    }

    #[test]
    fn mismatched_tags_error() {
        let err = Document::parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn multiple_roots_error() {
        let err = Document::parse("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn no_root_error() {
        let err = Document::parse("  <!-- only a comment --> ").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn text_outside_root_error() {
        let err = Document::parse("<a/>junk").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::BadDocumentStructure(_)));
    }

    #[test]
    fn text_accumulates_across_cdata_boundaries() {
        let doc = Document::parse("<a>x<![CDATA[y]]>z</a>").unwrap();
        assert_eq!(doc.root.text(), "xyz");
    }

    #[test]
    fn set_attr_replaces_existing() {
        let mut el = Element::new("a");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attr("k"), Some("2"));
        assert_eq!(el.attributes.len(), 1);
    }

    #[test]
    fn declaration_comments_pis_tolerated_around_root() {
        let doc =
            Document::parse("<?xml version=\"1.0\"?>\n<!-- hdr -->\n<a/>\n<!-- tail -->")
                .unwrap();
        assert_eq!(doc.root.name.local, "a");
    }
}
