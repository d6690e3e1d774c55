//! Tree serialization.
//!
//! Writes exactly what the tree stores: prefixes and `xmlns` declarations
//! are emitted as-is, text and attribute values are escaped, CDATA and
//! comments are preserved. `write(parse(x))` therefore reproduces the
//! structure (though not insignificant whitespace outside the root).

use crate::escape::{push_escaped_attr, push_escaped_text};
use crate::tree::{Document, Element, Node};

/// Serializes a document with an XML declaration.
pub fn write_document(doc: &Document) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_element_into(&doc.root, &mut out);
    out
}

/// Serializes a single element with no declaration.
pub fn write_element(el: &Element) -> String {
    let mut out = String::with_capacity(128);
    write_element_into(el, &mut out);
    out
}

/// Serializes an element into an existing buffer.
pub fn write_element_into(el: &Element, out: &mut String) {
    out.push('<');
    push_qname(el, out);
    for attr in &el.attributes {
        out.push(' ');
        if let Some(p) = &attr.name.prefix {
            out.push_str(p);
            out.push(':');
        }
        out.push_str(&attr.name.local);
        out.push_str("=\"");
        push_escaped_attr(&attr.value, out);
        out.push('"');
    }
    if el.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in &el.children {
        match child {
            Node::Element(e) => write_element_into(e, out),
            Node::Text(t) => push_escaped_text(t, out),
            Node::CData(t) => {
                // A CDATA section cannot contain "]]>"; fall back to escaped
                // text when it does, which preserves the character data.
                if t.contains("]]>") {
                    push_escaped_text(t, out);
                } else {
                    out.push_str("<![CDATA[");
                    out.push_str(t);
                    out.push_str("]]>");
                }
            }
            Node::Comment(c) => {
                out.push_str("<!--");
                out.push_str(c);
                out.push_str("-->");
            }
        }
    }
    out.push_str("</");
    push_qname(el, out);
    out.push('>');
}

fn push_qname(el: &Element, out: &mut String) {
    if let Some(p) = &el.name.prefix {
        out.push_str(p);
        out.push(':');
    }
    out.push_str(&el.name.local);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Document;

    fn round_trip(input: &str) -> Document {
        let doc = Document::parse(input).unwrap();
        let written = write_document(&doc);
        Document::parse(&written).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{written}"))
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = Document::parse("<a></a>").unwrap();
        assert_eq!(write_element(&doc.root), "<a/>");
    }

    #[test]
    fn attributes_and_text_round_trip() {
        let doc = round_trip(r#"<a k="v &amp; w"><b>x &lt; y</b></a>"#);
        assert_eq!(doc.root.attr("k"), Some("v & w"));
        assert_eq!(doc.root.find_child(None, "b").unwrap().text(), "x < y");
    }

    #[test]
    fn namespace_declarations_round_trip() {
        let original = Document::parse(r#"<s:a xmlns:s="urn:s"><s:b/></s:a>"#).unwrap();
        let reparsed = round_trip(r#"<s:a xmlns:s="urn:s"><s:b/></s:a>"#);
        assert_eq!(original, reparsed);
    }

    #[test]
    fn cdata_preserved() {
        let doc = round_trip("<a><![CDATA[<not-xml> & raw]]></a>");
        assert_eq!(doc.root.text(), "<not-xml> & raw");
    }

    #[test]
    fn cdata_containing_terminator_degrades_to_text() {
        let mut el = crate::Element::new("a");
        el.children.push(Node::CData("x]]>y".into()));
        let written = write_element(&el);
        let doc = Document::parse(&written).unwrap();
        assert_eq!(doc.root.text(), "x]]>y");
    }

    #[test]
    fn comments_preserved() {
        let doc = round_trip("<a><!-- note --></a>");
        assert!(matches!(&doc.root.children[0], Node::Comment(c) if c == " note "));
    }

    #[test]
    fn attribute_value_quotes_escaped() {
        let mut el = crate::Element::new("a");
        el.set_attr("k", "say \"hi\"");
        let written = write_element(&el);
        assert!(written.contains("&quot;"));
        let doc = Document::parse(&written).unwrap();
        assert_eq!(doc.root.attr("k"), Some("say \"hi\""));
    }

    #[test]
    fn document_has_declaration() {
        let doc = Document::parse("<a/>").unwrap();
        assert!(write_document(&doc).starts_with("<?xml version=\"1.0\""));
    }

    #[test]
    fn deep_nesting_round_trips() {
        let mut src = String::new();
        for i in 0..50 {
            src.push_str(&format!("<n{i}>"));
        }
        src.push_str("leaf");
        for i in (0..50).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let doc = round_trip(&src);
        let mut cur = &doc.root;
        for _ in 0..49 {
            cur = cur.child_elements().next().unwrap();
        }
        assert_eq!(cur.text(), "leaf");
    }
}
