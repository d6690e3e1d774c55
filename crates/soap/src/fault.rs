//! SOAP faults, in both the 1.1 (`faultcode`/`faultstring`) and 1.2
//! (`Code`/`Reason`) shapes.

use wsd_xml::{Element, Node};

use crate::version::SoapVersion;
use crate::SoapError;

/// Version-independent fault category. Serialized to the right local name
/// per version (`Sender` ⇄ `Client`, `Receiver` ⇄ `Server`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultCode {
    /// Envelope namespace not understood.
    VersionMismatch,
    /// A `mustUnderstand` header was not understood.
    MustUnderstand,
    /// The message was malformed or otherwise the sender's fault.
    Sender,
    /// The receiver failed to process a well-formed message.
    Receiver,
    /// Any other code, by local name.
    Custom(String),
}

impl FaultCode {
    fn local_str(&self, version: SoapVersion) -> &str {
        match self {
            FaultCode::VersionMismatch => "VersionMismatch",
            FaultCode::MustUnderstand => "MustUnderstand",
            FaultCode::Sender => version.sender_fault_code(),
            FaultCode::Receiver => version.receiver_fault_code(),
            FaultCode::Custom(name) => name,
        }
    }

    fn local_name(&self, version: SoapVersion) -> String {
        self.local_str(version).to_string()
    }

    fn from_local_name(local: &str) -> FaultCode {
        match local {
            "VersionMismatch" => FaultCode::VersionMismatch,
            "MustUnderstand" => FaultCode::MustUnderstand,
            "Client" | "Sender" => FaultCode::Sender,
            "Server" | "Receiver" => FaultCode::Receiver,
            other => FaultCode::Custom(other.to_string()),
        }
    }
}

/// A SOAP fault: code, human-readable reason, optional acting role and
/// application-defined detail elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Fault category.
    pub code: FaultCode,
    /// Human-readable explanation (`faultstring` / `Reason/Text`).
    pub reason: String,
    /// The node that faulted (`faultactor` / `Role`).
    pub role: Option<String>,
    /// Application detail elements (`detail` / `Detail` children).
    pub detail: Vec<Element>,
}

impl Fault {
    /// A fault with no role or detail.
    pub fn new(code: FaultCode, reason: impl Into<String>) -> Self {
        Fault {
            code,
            reason: reason.into(),
            role: None,
            detail: Vec::new(),
        }
    }

    /// Builds the version-appropriate `<Fault>` element. The element
    /// assumes the envelope prefix is in scope (the envelope serializer
    /// guarantees that).
    pub fn to_element(&self, version: SoapVersion) -> Element {
        let ns = version.envelope_ns();
        let prefix = version.prefix();
        let mut fault = Element::new_ns(Some(prefix), "Fault", ns);
        match version {
            SoapVersion::V11 => {
                fault.children.push(Node::Element(
                    Element::new("faultcode")
                        .with_text(format!("{prefix}:{}", self.code.local_name(version))),
                ));
                fault.children.push(Node::Element(
                    Element::new("faultstring").with_text(self.reason.clone()),
                ));
                if let Some(role) = &self.role {
                    fault.children.push(Node::Element(
                        Element::new("faultactor").with_text(role.clone()),
                    ));
                }
                if !self.detail.is_empty() {
                    let mut detail = Element::new("detail");
                    for d in &self.detail {
                        detail.children.push(Node::Element(d.clone()));
                    }
                    fault.children.push(Node::Element(detail));
                }
            }
            SoapVersion::V12 => {
                let code = Element::new_ns(Some(prefix), "Code", ns).with_child(
                    Element::new_ns(Some(prefix), "Value", ns)
                        .with_text(format!("{prefix}:{}", self.code.local_name(version))),
                );
                fault.children.push(Node::Element(code));
                let reason = Element::new_ns(Some(prefix), "Reason", ns).with_child(
                    Element::new_ns(Some(prefix), "Text", ns)
                        .with_attr_ns("xml", "lang", wsd_xml::tree::XML_NS, "en")
                        .with_text(self.reason.clone()),
                );
                fault.children.push(Node::Element(reason));
                if let Some(role) = &self.role {
                    fault.children.push(Node::Element(
                        Element::new_ns(Some(prefix), "Role", ns).with_text(role.clone()),
                    ));
                }
                if !self.detail.is_empty() {
                    let mut detail = Element::new_ns(Some(prefix), "Detail", ns);
                    for d in &self.detail {
                        detail.children.push(Node::Element(d.clone()));
                    }
                    fault.children.push(Node::Element(detail));
                }
            }
        }
        fault
    }

    /// Writes the complete fault envelope as raw bytes into `out` —
    /// byte-identical to
    /// `Envelope::fault(version, Fault::new(code, reason)).to_xml()` but
    /// with no element tree built. Covers the faults the dispatcher
    /// generates on the hot path (code + reason, no role/detail); faults
    /// carrying role or detail still go through the tree path.
    pub fn push_fault_envelope(
        version: SoapVersion,
        code: &FaultCode,
        reason: &str,
        out: &mut String,
    ) {
        use wsd_xml::escape::push_escaped_text;

        let prefix = version.prefix();
        let ns = version.envelope_ns();
        out.push('<');
        out.push_str(prefix);
        out.push_str(":Envelope xmlns:");
        out.push_str(prefix);
        out.push_str("=\"");
        out.push_str(ns);
        out.push_str("\"><");
        out.push_str(prefix);
        out.push_str(":Body><");
        out.push_str(prefix);
        out.push_str(":Fault>");
        match version {
            SoapVersion::V11 => {
                out.push_str("<faultcode>");
                out.push_str(prefix);
                out.push(':');
                push_escaped_text(code.local_str(version), out);
                out.push_str("</faultcode><faultstring>");
                push_escaped_text(reason, out);
                out.push_str("</faultstring>");
            }
            SoapVersion::V12 => {
                out.push('<');
                out.push_str(prefix);
                out.push_str(":Code><");
                out.push_str(prefix);
                out.push_str(":Value>");
                out.push_str(prefix);
                out.push(':');
                push_escaped_text(code.local_str(version), out);
                out.push_str("</");
                out.push_str(prefix);
                out.push_str(":Value></");
                out.push_str(prefix);
                out.push_str(":Code><");
                out.push_str(prefix);
                out.push_str(":Reason><");
                out.push_str(prefix);
                out.push_str(":Text xml:lang=\"en\">");
                push_escaped_text(reason, out);
                out.push_str("</");
                out.push_str(prefix);
                out.push_str(":Text></");
                out.push_str(prefix);
                out.push_str(":Reason>");
            }
        }
        out.push_str("</");
        out.push_str(prefix);
        out.push_str(":Fault></");
        out.push_str(prefix);
        out.push_str(":Body></");
        out.push_str(prefix);
        out.push_str(":Envelope>");
    }

    /// Parses a `<Fault>` element in the given version's shape.
    pub fn from_element(version: SoapVersion, el: &Element) -> Result<Fault, SoapError> {
        let ns = version.envelope_ns();
        match version {
            SoapVersion::V11 => {
                let code_text = el
                    .find_child(None, "faultcode")
                    .map(|c| c.text())
                    .ok_or(SoapError::BadRpc("fault missing faultcode"))?;
                let local = code_text.rsplit(':').next().unwrap_or(&code_text);
                let reason = el
                    .find_child(None, "faultstring")
                    .map(|c| c.text())
                    .unwrap_or_default();
                let role = el.find_child(None, "faultactor").map(|c| c.text());
                let detail = el
                    .find_child(None, "detail")
                    .map(|d| d.child_elements().cloned().collect())
                    .unwrap_or_default();
                Ok(Fault {
                    code: FaultCode::from_local_name(local.trim()),
                    reason,
                    role,
                    detail,
                })
            }
            SoapVersion::V12 => {
                let code_text = el
                    .find_child(Some(ns), "Code")
                    .and_then(|c| c.find_child(Some(ns), "Value"))
                    .map(|v| v.text())
                    .ok_or(SoapError::BadRpc("fault missing Code/Value"))?;
                let local = code_text.rsplit(':').next().unwrap_or(&code_text);
                let reason = el
                    .find_child(Some(ns), "Reason")
                    .and_then(|r| r.find_child(Some(ns), "Text"))
                    .map(|t| t.text())
                    .unwrap_or_default();
                let role = el.find_child(Some(ns), "Role").map(|r| r.text());
                let detail = el
                    .find_child(Some(ns), "Detail")
                    .map(|d| d.child_elements().cloned().collect())
                    .unwrap_or_default();
                Ok(Fault {
                    code: FaultCode::from_local_name(local.trim()),
                    reason,
                    role,
                    detail,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Envelope;

    fn round_trip(version: SoapVersion, fault: Fault) -> Fault {
        let env = Envelope::fault(version, fault);
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        parsed.as_fault().unwrap().clone()
    }

    #[test]
    fn v11_fault_round_trips() {
        let f = Fault {
            role: Some("urn:dispatcher".into()),
            ..Fault::new(FaultCode::Sender, "bad request")
        };
        let got = round_trip(SoapVersion::V11, f.clone());
        assert_eq!(got.code, FaultCode::Sender);
        assert_eq!(got.reason, "bad request");
        assert_eq!(got.role.as_deref(), Some("urn:dispatcher"));
    }

    #[test]
    fn v12_fault_round_trips() {
        let f = Fault::new(FaultCode::Receiver, "backend down");
        let got = round_trip(SoapVersion::V12, f);
        assert_eq!(got.code, FaultCode::Receiver);
        assert_eq!(got.reason, "backend down");
    }

    #[test]
    fn v11_uses_client_server_names() {
        let xml = Envelope::fault(SoapVersion::V11, Fault::new(FaultCode::Sender, "x")).to_xml();
        assert!(xml.contains(":Client<"), "{xml}");
        let xml =
            Envelope::fault(SoapVersion::V11, Fault::new(FaultCode::Receiver, "x")).to_xml();
        assert!(xml.contains(":Server<"), "{xml}");
    }

    #[test]
    fn v12_uses_sender_receiver_names() {
        let xml = Envelope::fault(SoapVersion::V12, Fault::new(FaultCode::Sender, "x")).to_xml();
        assert!(xml.contains(":Sender<"), "{xml}");
    }

    #[test]
    fn cross_version_code_mapping() {
        // A 1.1 Client fault re-raised as 1.2 must become Sender.
        let f = round_trip(SoapVersion::V11, Fault::new(FaultCode::Sender, "x"));
        let xml = Envelope::fault(SoapVersion::V12, f).to_xml();
        assert!(xml.contains(":Sender<"));
    }

    #[test]
    fn detail_elements_round_trip() {
        let detail = Element::new("errno").with_text("42");
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let f = Fault {
                detail: vec![detail.clone()],
                ..Fault::new(FaultCode::Receiver, "x")
            };
            let got = round_trip(v, f);
            assert_eq!(got.detail.len(), 1, "{v}");
            assert_eq!(got.detail[0].text(), "42");
        }
    }

    #[test]
    fn raw_fault_bytes_match_tree_path() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            for (code, reason) in [
                (FaultCode::Sender, "unknown service: <echo> & \"co\""),
                (FaultCode::Receiver, "upstream failure: timed out"),
                (FaultCode::VersionMismatch, ""),
                (FaultCode::MustUnderstand, "hdr"),
                (FaultCode::Custom("Throttled".into()), "busy"),
            ] {
                let mut raw = String::new();
                Fault::push_fault_envelope(v, &code, reason, &mut raw);
                let tree = Envelope::fault(v, Fault::new(code.clone(), reason)).to_xml();
                assert_eq!(raw, tree, "{v} {code:?}");
            }
        }
    }

    #[test]
    fn custom_and_standard_codes_round_trip() {
        for code in [
            FaultCode::VersionMismatch,
            FaultCode::MustUnderstand,
            FaultCode::Custom("Throttled".into()),
        ] {
            for v in [SoapVersion::V11, SoapVersion::V12] {
                let got = round_trip(v, Fault::new(code.clone(), "r"));
                assert_eq!(got.code, code, "{v}");
            }
        }
    }
}
