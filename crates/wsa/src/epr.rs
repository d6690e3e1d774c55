//! Endpoint references: an address plus opaque reference properties /
//! parameters that must be echoed back to the endpoint.

use wsd_xml::{Element, Node};

use crate::{WsaError, WSA_NS};

/// A WS-Addressing endpoint reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointReference {
    /// The endpoint URI.
    pub address: String,
    /// `ReferenceProperties` children (opaque to everyone but the
    /// endpoint).
    pub reference_properties: Vec<Element>,
    /// `ReferenceParameters` children.
    pub reference_parameters: Vec<Element>,
}

impl EndpointReference {
    /// An EPR with just an address.
    pub fn new(address: impl Into<String>) -> Self {
        EndpointReference {
            address: address.into(),
            reference_properties: Vec::new(),
            reference_parameters: Vec::new(),
        }
    }

    /// Whether this is the anonymous ("reply on the same connection")
    /// endpoint.
    pub fn is_anonymous(&self) -> bool {
        self.address == crate::ANONYMOUS
    }

    /// Builds this EPR as an element named `local` (e.g. `ReplyTo`,
    /// `From`, `FaultTo`, `EndpointReference`) in the WSA namespace; the
    /// `wsa` prefix is declared on the element so it is self-contained.
    pub fn to_element(&self, local: &str) -> Element {
        let mut el = Element::new_ns(Some("wsa"), local, WSA_NS)
            .declare_namespace(Some("wsa"), WSA_NS);
        el.children.push(Node::Element(
            Element::new_ns(Some("wsa"), "Address", WSA_NS).with_text(self.address.clone()),
        ));
        if !self.reference_properties.is_empty() {
            let mut props = Element::new_ns(Some("wsa"), "ReferenceProperties", WSA_NS);
            for p in &self.reference_properties {
                props.children.push(Node::Element(p.clone()));
            }
            el.children.push(Node::Element(props));
        }
        if !self.reference_parameters.is_empty() {
            let mut params = Element::new_ns(Some("wsa"), "ReferenceParameters", WSA_NS);
            for p in &self.reference_parameters {
                params.children.push(Node::Element(p.clone()));
            }
            el.children.push(Node::Element(params));
        }
        el
    }

    /// Reads an EPR-shaped element. `what` names the header for error
    /// messages.
    pub fn from_element(el: &Element, what: &'static str) -> Result<Self, WsaError> {
        let address = el
            .find_child(Some(WSA_NS), "Address")
            .map(|a| a.text())
            .ok_or(WsaError::MissingAddress(what))?;
        let reference_properties = el
            .find_child(Some(WSA_NS), "ReferenceProperties")
            .map(|p| p.child_elements().cloned().collect())
            .unwrap_or_default();
        let reference_parameters = el
            .find_child(Some(WSA_NS), "ReferenceParameters")
            .map(|p| p.child_elements().cloned().collect())
            .unwrap_or_default();
        Ok(EndpointReference {
            address,
            reference_properties,
            reference_parameters,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_xml::Document;

    fn reparse(el: &Element) -> Element {
        Document::parse(&wsd_xml::write_element(el)).unwrap().root
    }

    #[test]
    fn minimal_epr_round_trips() {
        let epr = EndpointReference::new("http://example.org/mbox/1");
        let el = reparse(&epr.to_element("ReplyTo"));
        assert_eq!(el.name.local, "ReplyTo");
        let got = EndpointReference::from_element(&el, "ReplyTo").unwrap();
        assert_eq!(got, epr);
    }

    #[test]
    fn properties_and_parameters_round_trip() {
        let epr = EndpointReference {
            reference_properties: vec![Element::new("key").with_text("abc")],
            reference_parameters: vec![Element::new("session").with_text("42")],
            ..EndpointReference::new("http://example.org/svc")
        };
        let el = reparse(&epr.to_element("EndpointReference"));
        let got = EndpointReference::from_element(&el, "EndpointReference").unwrap();
        assert_eq!(got.reference_properties.len(), 1);
        assert_eq!(got.reference_parameters.len(), 1);
        assert_eq!(got.reference_parameters[0].text(), "42");
    }

    #[test]
    fn missing_address_is_error() {
        let el = Element::new_ns(Some("wsa"), "ReplyTo", WSA_NS)
            .declare_namespace(Some("wsa"), WSA_NS);
        let el = reparse(&el);
        assert_eq!(
            EndpointReference::from_element(&el, "ReplyTo"),
            Err(WsaError::MissingAddress("ReplyTo"))
        );
    }

    #[test]
    fn anonymous_detection() {
        assert!(EndpointReference::new(crate::ANONYMOUS).is_anonymous());
        assert!(!EndpointReference::new("http://x").is_anonymous());
    }
}
