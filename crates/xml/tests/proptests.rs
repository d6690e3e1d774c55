//! Property-based invariants for the XML substrate, and the differential
//! against the parent revision's parser kept in `reference/`.

mod reference;

use proptest::prelude::*;
use proptest::sample::Index;
use wsd_soap::{rpc, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};
use wsd_xml::{parse, write, Document, Element, Event, Node, PullParser, XmlError, XmlErrorKind};

/// Safe name: ASCII letter/underscore start, then letters/digits/-/._
fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z_][a-zA-Z0-9_.-]{0,12}"
}

/// Arbitrary text content (any unicode except unpaired surrogates, which
/// proptest never generates). Control chars below 0x20 other than \t\n\r
/// are not valid XML chars, so filter them.
fn text_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[^\u{0}-\u{8}\u{b}\u{c}\u{e}-\u{1f}]{0,40}").unwrap()
}

fn leaf_strategy() -> impl Strategy<Value = Element> {
    (
        name_strategy(),
        proptest::collection::vec((name_strategy(), text_strategy()), 0..4),
        text_strategy(),
    )
        .prop_map(|(name, attrs, text)| {
            let mut el = Element::new(name);
            for (k, v) in attrs {
                // set_attr dedupes names, matching the parser's duplicate
                // rejection.
                el.set_attr(k, v);
            }
            if !text.is_empty() {
                el.children.push(Node::Text(text));
            }
            el
        })
}

fn tree_strategy() -> impl Strategy<Value = Element> {
    leaf_strategy().prop_recursive(4, 32, 5, |inner| {
        (leaf_strategy(), proptest::collection::vec(inner, 0..5)).prop_map(|(mut el, kids)| {
            for k in kids {
                el.children.push(Node::Element(k));
            }
            el
        })
    })
}

proptest! {
    /// write → parse reproduces the tree (after text normalization, since
    /// the parser merges adjacent text runs).
    #[test]
    fn write_then_parse_round_trips(mut root in tree_strategy()) {
        root.normalize();
        let doc = Document::with_root(root.clone());
        let text = write(&doc);
        let reparsed = parse(&text)
            .unwrap_or_else(|e| panic!("re-parse failed: {e}\n{text}"));
        prop_assert_eq!(reparsed.root, root);
    }

    /// The parser never panics, whatever bytes arrive (it may error).
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in ".{0,300}") {
        let _ = parse(&input);
    }

    /// The parser never panics on inputs that look like XML.
    #[test]
    fn parser_never_panics_on_xmlish_input(input in "[<>&;/='\"a-z0-9 \\-!\\[\\]?]{0,200}") {
        let _ = parse(&input);
    }

    /// Escaping then parsing as text content is the identity.
    #[test]
    fn escape_round_trips_any_text(text in text_strategy()) {
        let el = Element::new("t").with_text(text.clone());
        let doc = Document::with_root(el);
        let reparsed = parse(&write(&doc)).unwrap();
        prop_assert_eq!(reparsed.root.text(), text);
    }

    /// Attribute escaping round-trips, including quotes and whitespace.
    #[test]
    fn escape_round_trips_any_attribute(value in text_strategy()) {
        let el = Element::new("t").with_attr("k", value.clone());
        let doc = Document::with_root(el);
        let reparsed = parse(&write(&doc)).unwrap();
        prop_assert_eq!(reparsed.root.attr("k"), Some(value.as_str()));
    }

    /// Parsing is deterministic: same input, same result.
    #[test]
    fn parse_is_deterministic(input in "[<>a-z/ =\"']{0,120}") {
        let a = parse(&input);
        let b = parse(&input);
        prop_assert_eq!(a, b);
    }
}

/// A haystack over the bytes the parser actually hunts for, so matches
/// (and near-misses straddling the 8-byte SWAR chunks) are common.
fn xmlish_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'<'),
            Just(b'>'),
            Just(b'&'),
            Just(b'"'),
            Just(b'\r'),
            Just(b'\n'),
            Just(b'x'),
            any::<u8>(),
        ],
        0..200,
    )
}

proptest! {
    /// The SWAR finders are byte-identical to a naive linear scan for
    /// every haystack/needle combination — the parser and head-scanner
    /// swapped them in on the strength of exactly this equivalence.
    #[test]
    fn swar_finders_match_naive_scan(
        h in xmlish_bytes(),
        n1 in any::<u8>(),
        n2 in any::<u8>(),
        n3 in any::<u8>(),
    ) {
        use wsd_xml::swar;
        prop_assert_eq!(swar::find_byte(&h, n1), h.iter().position(|&b| b == n1));
        prop_assert_eq!(
            swar::find_byte2(&h, n1, n2),
            h.iter().position(|&b| b == n1 || b == n2)
        );
        prop_assert_eq!(
            swar::find_byte3(&h, n1, n2, n3),
            h.iter().position(|&b| b == n1 || b == n2 || b == n3)
        );
    }

    /// `find_seq` agrees with the naive windowed search, including
    /// needles that straddle chunk boundaries (`\r\n\r\n` head scans).
    #[test]
    fn swar_find_seq_matches_naive_scan(
        h in xmlish_bytes(),
        needle in proptest::collection::vec(
            prop_oneof![Just(b'\r'), Just(b'\n'), Just(b'<'), any::<u8>()],
            1..5,
        ),
    ) {
        let naive = h.windows(needle.len()).position(|w| w == &needle[..]);
        prop_assert_eq!(wsd_xml::swar::find_seq(&h, &needle), naive);
    }

    /// Deeply nested documents round-trip exactly — the splice scanner's
    /// depth tracking and the parser's SWAR skips never lose a level.
    #[test]
    fn deeply_nested_documents_round_trip(depth in 1usize..80, text in text_strategy()) {
        let mut el = Element::new("leaf");
        if !text.is_empty() {
            el.children.push(Node::Text(text));
        }
        for _ in 0..depth {
            let mut outer = Element::new("n");
            outer.children.push(Node::Element(el));
            el = outer;
        }
        let doc = Document::with_root(el);
        let xml = write(&doc);
        let reparsed = parse(&xml).unwrap();
        prop_assert_eq!(reparsed.root, doc.root);
    }

    /// Entity-heavy content — every reference the writer can emit, plus
    /// numeric forms — round-trips through the accelerated parser.
    #[test]
    fn entity_heavy_content_round_trips(runs in proptest::collection::vec("[&<>\"'a-z]{0,8}", 0..12)) {
        let text: String = runs.concat();
        let el = Element::new("t").with_text(text.clone());
        let reparsed = parse(&write(&Document::with_root(el))).unwrap();
        prop_assert_eq!(reparsed.root.text(), text);
    }

    /// Torn tags: every strict prefix of a well-formed document is an
    /// error (kind and position included), never a panic and never a
    /// silent success.
    #[test]
    fn torn_tag_prefixes_error_cleanly(depth in 1usize..30, cut_permille in 0u32..1000) {
        let mut el = Element::new("leaf");
        el.children.push(Node::Text("payload & more".to_string()));
        for _ in 0..depth {
            let mut outer = Element::new("n");
            outer.children.push(Node::Element(el));
            el = outer;
        }
        let xml = write(&Document::with_root(el));
        let cut = (xml.len() as u64 * cut_permille as u64 / 1000) as usize;
        // ASCII by construction, so any byte offset is a char boundary.
        let torn = &xml[..cut];
        let result = parse(torn);
        prop_assert!(result.is_err(), "strict prefix parsed: {torn:?}");
        // Determinism of the error itself (kind, line, column).
        prop_assert_eq!(result.err(), parse(torn).err());
    }
}

/// How [`mutate`] changes a text: `(how, where, which bit)`.
fn mutation() -> impl Strategy<Value = (u8, Index, u32)> {
    (0u8..4, any::<Index>(), 0u32..8)
}

/// `text` cut at a byte (one time in four), with one bit of one byte
/// flipped (one in four; repaired to UTF-8 lossily, so a flipped
/// multi-byte character becomes U+FFFD), or as is.
fn mutate(text: String, (how, at, bit): (u8, Index, u32)) -> String {
    let mut bytes = text.into_bytes();
    if !bytes.is_empty() {
        let i = at.index(bytes.len());
        match how {
            1 => bytes.truncate(i),
            2 => bytes[i] ^= 1 << bit,
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Written `tree_strategy()` documents, whole, truncated or flipped.
fn written_tree_input() -> impl Strategy<Value = String> {
    (tree_strategy(), mutation()).prop_map(|(root, m)| mutate(write(&Document::with_root(root)), m))
}

/// Entity soup, prefix re-binding and `xmlns=""`: nested elements that
/// bind, re-bind and un-bind prefixes and the default namespace, around
/// content full of references, whole, truncated or flipped. A few pieces
/// are wrong on purpose (unknown or out-of-range references, a stray end
/// tag, a DTD, a prefix bound nowhere above it).
fn namespace_soup_input() -> impl Strategy<Value = String> {
    const ELEMENTS: &[(&str, &str)] = &[
        ("<p:a xmlns:p='urn:1'>", "</p:a>"),
        ("<p:a xmlns:p=\"urn:2\" p:k='v'>", "</p:a>"),
        ("<p:b>", "</p:b>"),
        ("<a xmlns='urn:d'>", "</a>"),
        ("<a xmlns=''>", "</a>"),
        ("<c xmlns:p=''>", "</c>"),
        ("<b p:k='v' xml:lang='en' k='&amp;'>", "</b>"),
        (
            "<q:c xmlns:q='urn:&amp;q' q:k='&lt;&#x41;&quot;'>",
            "</q:c >",
        ),
        ("<é:ü xmlns:é='urn:é'>", "</é:ü>"),
        ("<c>", "</c>"),
    ];
    const CONTENT: &[&str] = &[
        "<p:d/>",
        "<d xmlns=''/>",
        "<d xmlns='urn:e' xmlns:p='urn:3'><p:e/></d>",
        "<xmlns:f/>",
        "<g xmlns:xml='urn:x'/>",
        "&amp;",
        "&#65;",
        "&#x1F600;",
        "text ",
        " \n\t",
        "<![CDATA[<p:x>&amp;]]>",
        "<!-- <p:a> -->",
        "<?pi data?>",
    ];
    const WRONG: &[&str] = &[
        "&#0;",
        "&nbsp;",
        "</c>",
        "<!DOCTYPE a>",
        "<r:h/>",
        "<d k='x<y'/>",
        "<d k='1' k='2'/>",
    ];
    let piece = prop_oneof![
        30 => (0..CONTENT.len()).prop_map(|i| CONTENT[i]),
        1 => (0..WRONG.len()).prop_map(|i| WRONG[i]),
    ];
    let leaf = proptest::collection::vec(piece, 0..4).prop_map(|p| p.concat());
    let element = leaf.prop_recursive(4, 32, 4, |inner| {
        (0..ELEMENTS.len(), proptest::collection::vec(inner, 0..4)).prop_map(|(i, kids)| {
            let (open, close) = ELEMENTS[i];
            format!("{open}{}{close}", kids.concat())
        })
    });
    (element, mutation()).prop_map(|(xml, m)| mutate(xml, m))
}

/// Real SOAP 1.1 / 1.2 echo envelopes with WS-Addressing headers, as the
/// stack writes them, whole, truncated or flipped.
fn envelope_input() -> impl Strategy<Value = String> {
    let headers = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    (
        any::<bool>(),
        any::<bool>(),
        "[ -~]{0,40}",
        headers,
        mutation(),
    )
        .prop_map(|(v12, reply, text, (to, reply_to, id, action), m)| {
            let version = if v12 {
                SoapVersion::V12
            } else {
                SoapVersion::V11
            };
            let mut env = if reply {
                rpc::echo_response(version, &text)
            } else {
                rpc::echo_request(version, &text)
            };
            let mut h = WsaHeaders::new();
            if to {
                h = h.to("http://dispatcher/svc/Echo?a=1&b=2");
            }
            if reply_to {
                h = h.reply_to(EndpointReference::new("http://client:9000/cb"));
            }
            if id {
                h = h.message_id("uuid:bench-1");
                if reply {
                    h = h.relates_to("uuid:bench-0");
                }
            }
            if action {
                h = h.action("urn:wsd:echo:echo");
            }
            h.apply(&mut env);
            mutate(env.to_xml(), m)
        })
}

fn differential_input() -> impl Strategy<Value = String> {
    prop_oneof![
        "[<>&;/='\"a-z0-9 \\-!\\[\\]?]{0,200}",
        "[<>&;:/='\"apx0-9 #\\-!?]{0,120}".prop_map(|s| s.replace('x', "xmlns")),
        written_tree_input(),
        namespace_soup_input(),
        envelope_input(),
    ]
}

/// The parent reported these (document structure, tag matching,
/// namespace binding, end of input inside an element) at 1:1; the
/// product reports the token that broke the structure, so only the kind
/// is compared.
fn structural(err: &XmlError) -> bool {
    (err.line, err.column) == (1, 1)
        && matches!(
            err.kind,
            XmlErrorKind::MismatchedTag { .. }
                | XmlErrorKind::UnboundPrefix(_)
                | XmlErrorKind::BadDocumentStructure(_)
                | XmlErrorKind::BadName(_)
                | XmlErrorKind::UnexpectedEof
        )
}

/// `input`'s pull events, owned in the reference's types, up to the end
/// or the first error.
fn product_events(input: &str) -> (Vec<reference::parser::Event>, Option<XmlError>) {
    use reference::parser::{Event as Owned, StartTag};
    let mut parser = PullParser::new(input);
    let mut out = Vec::new();
    loop {
        out.push(match parser.next_event() {
            Err(e) => return (out, Some(e)),
            Ok(Event::Eof) => return (out, None),
            Ok(Event::StartElement(tag)) => Owned::StartElement(StartTag {
                name: tag.name.to_string(),
                attributes: tag
                    .attributes
                    .into_iter()
                    .map(|(n, v)| (n.to_string(), v.into_owned()))
                    .collect(),
                self_closing: tag.self_closing,
            }),
            Ok(Event::EndElement(n)) => Owned::EndElement(n.to_string()),
            Ok(Event::Text(t)) => Owned::Text(t.into_owned()),
            Ok(Event::CData(t)) => Owned::CData(t.to_string()),
            Ok(Event::Comment(c)) => Owned::Comment(c.to_string()),
            Ok(Event::Pi { target, data }) => Owned::Pi {
                target: target.to_string(),
                data: data.to_string(),
            },
        });
    }
}

fn reference_events(input: &str) -> (Vec<reference::parser::Event>, Option<XmlError>) {
    let mut parser = reference::parser::PullParser::new(input);
    let mut out = Vec::new();
    loop {
        match parser.next_event() {
            Err(e) => return (out, Some(e)),
            Ok(reference::parser::Event::Eof) => return (out, None),
            Ok(e) => out.push(e),
        }
    }
}

proptest! {
    /// The borrowing parser builds the same tree as the parent's, or
    /// fails with the same kind of error at the same place.
    #[test]
    fn tree_parse_matches_the_reference(input in differential_input()) {
        match (parse(&input), reference::tree::parse(&input)) {
            (Ok(doc), Ok(expected)) => prop_assert_eq!(doc, expected),
            (Err(err), Err(expected)) if structural(&expected) => {
                prop_assert_eq!(err.kind, expected.kind, "{:?}", input);
            }
            (Err(err), Err(expected)) => prop_assert_eq!(err, expected, "{:?}", input),
            (got, expected) => {
                prop_assert!(false, "{:?}: got {:?}, reference {:?}", input, got, expected);
            }
        }
    }

    /// The pull parser yields the parent's events, by content, and the
    /// same error (kind, line and column) where it stops.
    #[test]
    fn pull_events_match_the_reference(input in differential_input()) {
        prop_assert_eq!(product_events(&input), reference_events(&input), "{:?}", input);
    }
}
