//! The SOAP envelope: Header / Body wrapping and unwrapping.

use wsd_xml::{Document, Element, Node};

use crate::fault::Fault;
use crate::version::SoapVersion;
use crate::SoapError;

/// Body content: either application payload elements or a fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    /// Application payload: the body's child elements in order.
    Payload(Vec<Element>),
    /// A SOAP fault.
    Fault(Fault),
}

/// A SOAP message: version, header blocks and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// SOAP version this envelope was built or parsed as.
    pub version: SoapVersion,
    /// Header blocks in order (the `Header` wrapper itself is implicit).
    pub headers: Vec<Element>,
    /// Body content.
    pub body: Body,
}

impl Envelope {
    /// An envelope wrapping one payload element.
    pub fn request(version: SoapVersion, payload: Element) -> Self {
        Envelope {
            version,
            headers: Vec::new(),
            body: Body::Payload(vec![payload]),
        }
    }

    /// An envelope carrying a fault.
    pub fn fault(version: SoapVersion, fault: Fault) -> Self {
        Envelope {
            version,
            headers: Vec::new(),
            body: Body::Fault(fault),
        }
    }

    /// Appends a header block. Returns `self` for chaining.
    pub fn with_header(mut self, header: Element) -> Self {
        self.headers.push(header);
        self
    }

    /// First header block matching `(namespace, local)`.
    pub fn find_header(&self, namespace: Option<&str>, local: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.is(namespace, local))
    }

    /// Removes all header blocks matching `(namespace, local)`; returns how
    /// many were removed.
    pub fn remove_headers(&mut self, namespace: Option<&str>, local: &str) -> usize {
        let before = self.headers.len();
        self.headers.retain(|h| !h.is(namespace, local));
        before - self.headers.len()
    }

    /// The payload elements, or `None` if the body is a fault.
    pub fn payload(&self) -> Option<&[Element]> {
        match &self.body {
            Body::Payload(p) => Some(p),
            Body::Fault(_) => None,
        }
    }

    /// The fault, if the body carries one.
    pub fn as_fault(&self) -> Option<&Fault> {
        match &self.body {
            Body::Fault(f) => Some(f),
            Body::Payload(_) => None,
        }
    }

    /// Header blocks flagged `mustUnderstand` for this version.
    pub fn must_understand_headers(&self) -> Vec<&Element> {
        let ns = self.version.envelope_ns();
        self.headers
            .iter()
            .filter(|h| {
                h.attr_ns(Some(ns), "mustUnderstand")
                    .map(|v| self.version.must_understand_true(v))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Checks every `mustUnderstand` header against the list of
    /// `(namespace, local)` pairs the processor understands; the failure
    /// carries the first offending header's name.
    pub fn check_must_understand(
        &self,
        understood: &[(&str, &str)],
    ) -> Result<(), SoapError> {
        for h in self.must_understand_headers() {
            let ok = understood.iter().any(|(ns, local)| {
                h.namespace.as_deref() == Some(*ns) && h.name.local == *local
            });
            if !ok {
                return Err(SoapError::MustUnderstand(format!(
                    "{{{}}}{}",
                    h.namespace.as_deref().unwrap_or(""),
                    h.name.local
                )));
            }
        }
        Ok(())
    }

    /// Parses an envelope from XML text. The header blocks and payload
    /// elements are moved out of the parsed tree, not copied.
    pub fn parse(text: &str) -> Result<Envelope, SoapError> {
        let root = Document::parse(text)?.root;
        let version = root
            .namespace
            .as_deref()
            .and_then(SoapVersion::from_envelope_ns)
            .filter(|_| root.name.local == "Envelope")
            .ok_or(SoapError::NotAnEnvelope)?;
        let ns = version.envelope_ns();
        // The first `Header` and the first `Body`; any later ones are
        // ignored.
        let (mut header, mut body_el) = (None, None);
        for child in elements(root.children) {
            if header.is_none() && child.is(Some(ns), "Header") {
                header = Some(child);
            } else if body_el.is_none() && child.is(Some(ns), "Body") {
                body_el = Some(child);
            }
        }
        let headers = header.map(|h| elements(h.children).collect()).unwrap_or_default();
        let body_el = body_el.ok_or(SoapError::MissingBody)?;
        let fault = body_el
            .child_elements()
            .find(|e| e.is(Some(ns), "Fault"))
            .map(|fault_el| Fault::from_element(version, fault_el))
            .transpose()?;
        let body = match fault {
            Some(fault) => Body::Fault(fault),
            None => Body::Payload(elements(body_el.children).collect()),
        };
        Ok(Envelope {
            version,
            headers,
            body,
        })
    }

    /// Serializes the envelope to XML text (no XML declaration, as is
    /// conventional for SOAP-over-HTTP payloads).
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_into(&mut out);
        out
    }

    /// Appends [`to_xml`](Self::to_xml)'s text to `out`: the
    /// `Envelope`/`Header`/`Body` wrapper as `wsd_xml`'s writer would
    /// write it, around the blocks themselves, with no tree built.
    pub fn write_into(&self, out: &mut String) {
        let p = self.version.prefix();
        // The envelope namespaces hold nothing an attribute escapes.
        let ns = self.version.envelope_ns();
        push_all(out, &["<", p, ":Envelope xmlns:", p, "=\"", ns, "\">"]);
        if !self.headers.is_empty() {
            push_all(out, &["<", p, ":Header>"]);
            self.headers.iter().for_each(|h| wsd_xml::write_element_into(h, out));
            push_all(out, &["</", p, ":Header>"]);
        }
        let fault;
        let parts = match &self.body {
            Body::Payload(parts) => parts.as_slice(),
            Body::Fault(f) => {
                fault = [f.to_element(self.version)];
                &fault[..]
            }
        };
        if parts.is_empty() {
            push_all(out, &["<", p, ":Body/>"]);
        } else {
            push_all(out, &["<", p, ":Body>"]);
            parts.iter().for_each(|e| wsd_xml::write_element_into(e, out));
            push_all(out, &["</", p, ":Body>"]);
        }
        push_all(out, &["</", p, ":Envelope>"]);
    }
}

fn push_all(out: &mut String, pieces: &[&str]) {
    pieces.iter().for_each(|s| out.push_str(s));
}

/// The elements among `nodes`, moved out.
fn elements(nodes: Vec<Node>) -> impl Iterator<Item = Element> {
    nodes.into_iter().filter_map(|n| match n {
        Node::Element(e) => Some(e),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCode;

    fn payload() -> Element {
        Element::new_ns(Some("m"), "echo", "urn:wsd:echo")
            .declare_namespace(Some("m"), "urn:wsd:echo")
            .with_child(Element::new("text").with_text("hello"))
    }

    #[test]
    fn round_trip_both_versions() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let env = Envelope::request(v, payload());
            let parsed = Envelope::parse(&env.to_xml()).unwrap();
            assert_eq!(parsed, env, "{v}");
        }
    }

    #[test]
    fn headers_round_trip() {
        let header = Element::new_ns(Some("wsa"), "To", "urn:wsa")
            .declare_namespace(Some("wsa"), "urn:wsa")
            .with_text("http://example.org/svc");
        let env = Envelope::request(SoapVersion::V11, payload()).with_header(header.clone());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.headers, vec![header]);
        assert!(parsed.find_header(Some("urn:wsa"), "To").is_some());
    }

    #[test]
    fn no_header_element_when_headers_empty() {
        let env = Envelope::request(SoapVersion::V11, payload());
        assert!(!env.to_xml().contains("Header"));
    }

    #[test]
    fn missing_body_is_error() {
        let text = r#"<e:Envelope xmlns:e="http://www.w3.org/2003/05/soap-envelope"/>"#;
        assert_eq!(Envelope::parse(text), Err(SoapError::MissingBody));
    }

    #[test]
    fn wrong_root_is_not_an_envelope() {
        assert_eq!(
            Envelope::parse("<other/>"),
            Err(SoapError::NotAnEnvelope)
        );
        let wrong_ns = r#"<e:Envelope xmlns:e="urn:nope"><e:Body/></e:Envelope>"#;
        assert_eq!(Envelope::parse(wrong_ns), Err(SoapError::NotAnEnvelope));
    }

    #[test]
    fn version_detected_from_namespace() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let env = Envelope::request(v, payload());
            assert_eq!(Envelope::parse(&env.to_xml()).unwrap().version, v);
        }
    }

    #[test]
    fn fault_body_detected() {
        let f = Fault::new(FaultCode::Receiver, "boom");
        let env = Envelope::fault(SoapVersion::V11, f.clone());
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parsed.as_fault().unwrap().reason, "boom");
        assert!(parsed.payload().is_none());
    }

    #[test]
    fn must_understand_enforced() {
        let ns = SoapVersion::V11.envelope_ns();
        let header = Element::new_ns(Some("x"), "Security", "urn:sec")
            .declare_namespace(Some("x"), "urn:sec")
            .with_attr_ns("SOAP-ENV", "mustUnderstand", ns, "1");
        let env = Envelope::request(SoapVersion::V11, payload()).with_header(header);
        let text = env.to_xml();
        // The writer must emit the prefixed attribute; re-parse and check.
        let parsed = Envelope::parse(&text).unwrap();
        assert_eq!(parsed.must_understand_headers().len(), 1);
        assert!(parsed.check_must_understand(&[("urn:sec", "Security")]).is_ok());
        let err = parsed.check_must_understand(&[("urn:other", "Thing")]);
        assert!(matches!(err, Err(SoapError::MustUnderstand(ref s)) if s.contains("Security")));
    }

    #[test]
    fn must_understand_zero_is_not_flagged() {
        let ns = SoapVersion::V11.envelope_ns();
        let header = Element::new_ns(Some("x"), "H", "urn:x")
            .declare_namespace(Some("x"), "urn:x")
            .with_attr_ns("SOAP-ENV", "mustUnderstand", ns, "0");
        let env = Envelope::request(SoapVersion::V11, payload()).with_header(header);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert!(parsed.must_understand_headers().is_empty());
    }

    #[test]
    fn remove_headers_by_name() {
        let h1 = Element::new_ns(Some("a"), "H", "urn:a").declare_namespace(Some("a"), "urn:a");
        let h2 = Element::new_ns(Some("b"), "K", "urn:b").declare_namespace(Some("b"), "urn:b");
        let mut env = Envelope::request(SoapVersion::V12, payload())
            .with_header(h1)
            .with_header(h2);
        assert_eq!(env.remove_headers(Some("urn:a"), "H"), 1);
        assert_eq!(env.headers.len(), 1);
    }

    /// The tree `write_into` writes, built and handed to `wsd_xml`'s
    /// writer: the reference it must match byte for byte.
    fn tree_xml(env: &Envelope) -> String {
        let ns = env.version.envelope_ns();
        let prefix = env.version.prefix();
        let mut root =
            Element::new_ns(Some(prefix), "Envelope", ns).declare_namespace(Some(prefix), ns);
        if !env.headers.is_empty() {
            let mut header = Element::new_ns(Some(prefix), "Header", ns);
            header.children.extend(env.headers.iter().cloned().map(Node::Element));
            root = root.with_child(header);
        }
        let mut body = Element::new_ns(Some(prefix), "Body", ns);
        match &env.body {
            Body::Payload(parts) => body.children.extend(parts.iter().cloned().map(Node::Element)),
            Body::Fault(f) => body = body.with_child(f.to_element(env.version)),
        }
        wsd_xml::write_element(&root.with_child(body))
    }

    #[test]
    fn write_into_matches_the_tree_writer() {
        let header = Element::new_ns(Some("wsa"), "To", "urn:wsa")
            .declare_namespace(Some("wsa"), "urn:wsa")
            .with_text("a & <b>");
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let empty = Envelope {
                version: v,
                headers: vec![],
                body: Body::Payload(vec![]),
            };
            for env in [
                Envelope::request(v, payload()),
                Envelope::request(v, payload()).with_header(header.clone()),
                Envelope::fault(v, Fault::new(FaultCode::Sender, "bad <input> & more")),
                empty.clone(),
                empty.with_header(header.clone()),
            ] {
                let mut out = String::from("kept:");
                env.write_into(&mut out);
                assert_eq!(out, format!("kept:{}", tree_xml(&env)));
                assert_eq!(env.to_xml(), tree_xml(&env));
            }
        }
    }

    #[test]
    fn parse_takes_the_first_header_and_body() {
        let ns = SoapVersion::V11.envelope_ns();
        let text = format!(
            r#"<e:Envelope xmlns:e="{ns}"><x/><e:Header><a/></e:Header><e:Body><p/></e:Body><e:Header><b/></e:Header><e:Body><q/></e:Body></e:Envelope>"#
        );
        let env = Envelope::parse(&text).unwrap();
        assert_eq!(env.headers, vec![Element::new("a")]);
        assert_eq!(env.payload().unwrap(), [Element::new("p")]);
    }

    #[test]
    fn multi_part_payload_preserved_in_order() {
        let env = Envelope {
            version: SoapVersion::V12,
            headers: vec![],
            body: Body::Payload(vec![
                Element::new("p1"),
                Element::new("p2"),
                Element::new("p3"),
            ]),
        };
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        let names: Vec<_> = parsed
            .payload()
            .unwrap()
            .iter()
            .map(|e| e.name.local.clone())
            .collect();
        assert_eq!(names, vec!["p1", "p2", "p3"]);
    }
}
