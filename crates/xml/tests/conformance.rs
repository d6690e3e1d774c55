//! A battery of tricky-but-well-formed documents and canonical
//! rejections, beyond what the unit tests cover. These mirror the cases
//! a SOAP intermediary actually meets in the wild.

use wsd_xml::{parse, write, XmlErrorKind};

#[test]
fn namespace_redeclaration_mid_tree() {
    let doc = parse(
        r#"<a xmlns:p="urn:one"><p:x/><b xmlns:p="urn:two"><p:x/></b><p:x/></a>"#,
    )
    .unwrap();
    let kids: Vec<_> = doc.root.child_elements().collect();
    assert_eq!(kids[0].namespace.as_deref(), Some("urn:one"));
    let inner = kids[1].child_elements().next().unwrap();
    assert_eq!(inner.namespace.as_deref(), Some("urn:two"));
    assert_eq!(kids[2].namespace.as_deref(), Some("urn:one"));
}

#[test]
fn same_local_name_different_namespaces_coexist() {
    let doc = parse(
        r#"<r xmlns:a="urn:a" xmlns:b="urn:b"><a:item v="1"/><b:item v="2"/></r>"#,
    )
    .unwrap();
    assert_eq!(
        doc.root.find_child(Some("urn:a"), "item").unwrap().attr("v"),
        Some("1")
    );
    assert_eq!(
        doc.root.find_child(Some("urn:b"), "item").unwrap().attr("v"),
        Some("2")
    );
}

#[test]
fn attributes_never_inherit_the_default_namespace() {
    let doc = parse(r#"<a xmlns="urn:d" k="v"><b k="w"/></a>"#).unwrap();
    assert_eq!(doc.root.attr_ns(None, "k"), Some("v"));
    let b = doc.root.find_child(Some("urn:d"), "b").unwrap();
    assert_eq!(b.attr_ns(None, "k"), Some("w"));
    assert_eq!(b.attr_ns(Some("urn:d"), "k"), None);
}

#[test]
fn whitespace_only_text_preserved_inside_elements() {
    let doc = parse("<a> <b/> </a>").unwrap();
    // Two whitespace text nodes around <b/>.
    assert_eq!(doc.root.children.len(), 3);
    assert_eq!(doc.root.text(), "  ");
}

#[test]
fn crlf_in_text_survives() {
    let doc = parse("<a>line1\r\nline2</a>").unwrap();
    assert_eq!(doc.root.text(), "line1\r\nline2");
}

#[test]
fn numeric_references_cover_bmp_and_astral() {
    let doc = parse("<a>&#xE9;&#233;&#x1F600;</a>").unwrap();
    assert_eq!(doc.root.text(), "éé😀");
}

#[test]
fn comments_may_contain_markup_lookalikes() {
    let doc = parse("<a><!-- <not><tags> &not-an-entity; --></a>").unwrap();
    assert_eq!(doc.root.children.len(), 1);
}

#[test]
fn processing_instructions_inside_elements_skipped() {
    let doc = parse("<a>x<?php echo ?>y</a>").unwrap();
    assert_eq!(doc.root.text(), "xy");
}

#[test]
fn cdata_protects_everything() {
    let doc = parse("<a><![CDATA[ <b>&amp;</b> ]]></a>").unwrap();
    assert_eq!(doc.root.text(), " <b>&amp;</b> ");
}

#[test]
fn deeply_nested_namespaced_soap_like_document() {
    let text = r#"<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/"><SOAP-ENV:Header><wsa:To xmlns:wsa="http://schemas.xmlsoap.org/ws/2004/08/addressing">http://x/svc</wsa:To></SOAP-ENV:Header><SOAP-ENV:Body><m:op xmlns:m="urn:m"><arg>5</arg></m:op></SOAP-ENV:Body></SOAP-ENV:Envelope>"#;
    let doc = parse(text).unwrap();
    let env_ns = "http://schemas.xmlsoap.org/soap/envelope/";
    let body = doc.root.find_child(Some(env_ns), "Body").unwrap();
    let op = body.find_child(Some("urn:m"), "op").unwrap();
    assert_eq!(op.find_child(None, "arg").unwrap().text(), "5");
    // And it survives a rewrite cycle.
    let again = parse(&write(&doc)).unwrap();
    assert_eq!(again, doc);
}

#[test]
fn rejections_are_the_right_kind() {
    type KindCheck = fn(&XmlErrorKind) -> bool;
    let cases: &[(&str, KindCheck)] = &[
        ("<a><b></a>", |k| matches!(k, XmlErrorKind::MismatchedTag { .. })),
        ("<a x='1' x='2'/>", |k| {
            matches!(k, XmlErrorKind::DuplicateAttribute(_))
        }),
        ("<a>&bogus;</a>", |k| matches!(k, XmlErrorKind::UnknownEntity(_))),
        ("<a>&#x0;</a>", |k| matches!(k, XmlErrorKind::BadCharRef(_))),
        ("<!DOCTYPE a><a/>", |k| matches!(k, XmlErrorKind::DtdRejected)),
        ("<p:a/>", |k| matches!(k, XmlErrorKind::UnboundPrefix(_))),
        ("<a/><b/>", |k| {
            matches!(k, XmlErrorKind::BadDocumentStructure(_))
        }),
        ("", |k| matches!(k, XmlErrorKind::BadDocumentStructure(_))),
        ("<a", |k| matches!(k, XmlErrorKind::UnexpectedEof)),
        ("<a><![CDATA[never closed</a>", |k| {
            matches!(k, XmlErrorKind::UnexpectedEof)
        }),
    ];
    for (input, check) in cases {
        let err = parse(input).expect_err(input);
        assert!(check(&err.kind), "{input}: got {:?}", err.kind);
    }
}

#[test]
fn error_positions_point_at_the_problem() {
    let err = parse("<root>\n  <ok/>\n  <broken attr=>\n</root>").unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.column >= 10, "column {}", err.column);
}

#[test]
fn structural_errors_point_at_the_offending_token() {
    let cases: &[(&str, u32, u32)] = &[
        ("<a>\n<b></c></a>", 2, 4),      // mismatched end tag
        ("<a>\n  <p:b/></a>", 2, 3),     // unbound prefix on an element
        ("<a>\n<b p:k='v'/></a>", 2, 1), // ... and on an attribute
        ("<a/>\n<b/>", 2, 1),            // a second root
        ("<a/><![CDATA[x]]>", 1, 5),     // CDATA outside the root
        ("<a/>\njunk", 1, 5),            // text outside the root
        ("<a>\n<b>", 2, 4),              // end of input inside an element
    ];
    for &(input, line, column) in cases {
        let err = parse(input).expect_err(input);
        assert_eq!((err.line, err.column), (line, column), "{input:?}: {err}");
    }
}

#[test]
fn attribute_value_whitespace_roundtrip() {
    // Tab/newline in attribute values must be preserved via char refs.
    let mut root = wsd_xml::Element::new("a");
    root.set_attr("k", "a\tb\nc");
    let doc = wsd_xml::Document { root };
    let reparsed = parse(&write(&doc)).unwrap();
    assert_eq!(reparsed.root.attr("k"), Some("a\tb\nc"));
}

#[test]
fn huge_flat_document_parses() {
    let mut text = String::from("<list>");
    for i in 0..5000 {
        text.push_str(&format!("<item id=\"{i}\">value-{i}</item>"));
    }
    text.push_str("</list>");
    let doc = parse(&text).unwrap();
    assert_eq!(doc.root.children.len(), 5000);
    assert_eq!(
        doc.root.child_elements().last().unwrap().attr("id"),
        Some("4999")
    );
}

#[test]
fn mixed_content_order_preserved() {
    let doc = parse("<p>one<b>two</b>three<i>four</i>five</p>").unwrap();
    use wsd_xml::Node;
    let kinds: Vec<&str> = doc
        .root
        .children
        .iter()
        .map(|n| match n {
            Node::Text(_) => "t",
            Node::Element(_) => "e",
            Node::CData(_) => "c",
            Node::Comment(_) => "k",
        })
        .collect();
    assert_eq!(kinds, vec!["t", "e", "t", "e", "t"]);
    assert_eq!(doc.root.text(), "onethreefive");
}
