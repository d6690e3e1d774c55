//! The WS-Addressing header block set of one message.

use wsd_soap::Envelope;
use wsd_xml::Element;

use crate::epr::EndpointReference;
use crate::{WsaError, WSA_NS};

/// A parsed (or to-be-written) set of addressing headers.
///
/// `apply` replaces any existing WSA headers on an envelope with this set,
/// in canonical order; `from_envelope` reads them back.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WsaHeaders {
    /// `wsa:To` — destination URI.
    pub to: Option<String>,
    /// `wsa:From` — source endpoint.
    pub from: Option<EndpointReference>,
    /// `wsa:ReplyTo` — where replies go.
    pub reply_to: Option<EndpointReference>,
    /// `wsa:FaultTo` — where faults go.
    pub fault_to: Option<EndpointReference>,
    /// `wsa:Action` — semantic action URI.
    pub action: Option<String>,
    /// `wsa:MessageID` — unique message id.
    pub message_id: Option<String>,
    /// `wsa:RelatesTo` — `(message id, optional RelationshipType)` pairs.
    pub relates_to: Vec<(String, Option<String>)>,
}

impl WsaHeaders {
    /// An empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `wsa:To`. Returns `self` for chaining.
    pub fn to(mut self, to: impl Into<String>) -> Self {
        self.to = Some(to.into());
        self
    }

    /// Sets `wsa:From`.
    pub fn from(mut self, epr: EndpointReference) -> Self {
        self.from = Some(epr);
        self
    }

    /// Sets `wsa:ReplyTo`.
    pub fn reply_to(mut self, epr: EndpointReference) -> Self {
        self.reply_to = Some(epr);
        self
    }

    /// Sets `wsa:FaultTo`.
    pub fn fault_to(mut self, epr: EndpointReference) -> Self {
        self.fault_to = Some(epr);
        self
    }

    /// Sets `wsa:Action`.
    pub fn action(mut self, action: impl Into<String>) -> Self {
        self.action = Some(action.into());
        self
    }

    /// Sets `wsa:MessageID`.
    pub fn message_id(mut self, id: impl Into<String>) -> Self {
        self.message_id = Some(id.into());
        self
    }

    /// Adds a `wsa:RelatesTo` (default relationship: reply).
    pub fn relates_to(mut self, id: impl Into<String>) -> Self {
        self.relates_to.push((id.into(), None));
        self
    }

    /// Reads the addressing headers of an envelope. Headers that are
    /// absent stay `None`; singleton headers appearing more than once are
    /// an error.
    pub fn from_envelope(env: &Envelope) -> Result<WsaHeaders, WsaError> {
        let ns = Some(WSA_NS);
        let mut out = WsaHeaders::new();
        let mut seen = [false; 6];
        for h in &env.headers {
            if h.namespace.as_deref() != ns {
                continue;
            }
            match h.name.local.as_str() {
                "To" => {
                    take_once(&mut seen[0], "To")?;
                    out.to = Some(h.text());
                }
                "From" => {
                    take_once(&mut seen[1], "From")?;
                    out.from = Some(EndpointReference::from_element(h, "From")?);
                }
                "ReplyTo" => {
                    take_once(&mut seen[2], "ReplyTo")?;
                    out.reply_to = Some(EndpointReference::from_element(h, "ReplyTo")?);
                }
                "FaultTo" => {
                    take_once(&mut seen[3], "FaultTo")?;
                    out.fault_to = Some(EndpointReference::from_element(h, "FaultTo")?);
                }
                "Action" => {
                    take_once(&mut seen[4], "Action")?;
                    out.action = Some(h.text());
                }
                "MessageID" => {
                    take_once(&mut seen[5], "MessageID")?;
                    out.message_id = Some(h.text());
                }
                "RelatesTo" => {
                    let rel = h.attr("RelationshipType").map(str::to_string);
                    out.relates_to.push((h.text(), rel));
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// Replaces the envelope's WSA headers with this set.
    pub fn apply(&self, env: &mut Envelope) {
        for name in [
            "To",
            "From",
            "ReplyTo",
            "FaultTo",
            "Action",
            "MessageID",
            "RelatesTo",
        ] {
            env.remove_headers(Some(WSA_NS), name);
        }
        let mut blocks: Vec<Element> = Vec::new();
        if let Some(to) = &self.to {
            blocks.push(text_header("To", to));
        }
        if let Some(from) = &self.from {
            blocks.push(from.to_element("From"));
        }
        if let Some(reply_to) = &self.reply_to {
            blocks.push(reply_to.to_element("ReplyTo"));
        }
        if let Some(fault_to) = &self.fault_to {
            blocks.push(fault_to.to_element("FaultTo"));
        }
        if let Some(action) = &self.action {
            blocks.push(text_header("Action", action));
        }
        if let Some(id) = &self.message_id {
            blocks.push(text_header("MessageID", id));
        }
        for (id, rel) in &self.relates_to {
            let mut h = text_header("RelatesTo", id);
            if let Some(rel) = rel {
                h.set_attr("RelationshipType", rel.clone());
            }
            blocks.push(h);
        }
        env.headers.extend(blocks);
    }
}

fn take_once(seen: &mut bool, what: &'static str) -> Result<(), WsaError> {
    if *seen {
        Err(WsaError::Duplicated(what))
    } else {
        *seen = true;
        Ok(())
    }
}

pub(crate) fn text_header(local: &str, value: &str) -> Element {
    Element::new_ns(Some("wsa"), local, WSA_NS)
        .declare_namespace(Some("wsa"), WSA_NS)
        .with_text(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_soap::{rpc, SoapVersion};

    fn sample() -> WsaHeaders {
        WsaHeaders::new()
            .to("http://dispatcher/svc/echo")
            .from(EndpointReference::new("http://client"))
            .reply_to(EndpointReference::new("http://msgbox/mbox-1"))
            .action("urn:wsd:echo:echo")
            .message_id("uuid:abc")
    }

    #[test]
    fn apply_then_read_round_trips() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        sample().apply(&mut env);
        // Serialize and reparse: the headers must survive the wire.
        let env = Envelope::parse(&env.to_xml()).unwrap();
        let got = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(got, sample());
    }

    #[test]
    fn apply_replaces_existing_headers() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        sample().apply(&mut env);
        let second = WsaHeaders::new().to("http://other").message_id("uuid:2");
        second.apply(&mut env);
        let got = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(got.to.as_deref(), Some("http://other"));
        assert_eq!(got.message_id.as_deref(), Some("uuid:2"));
        assert!(got.reply_to.is_none());
    }

    #[test]
    fn apply_preserves_non_wsa_headers() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        env.headers.push(
            Element::new_ns(Some("sec"), "Token", "urn:sec")
                .declare_namespace(Some("sec"), "urn:sec")
                .with_text("t"),
        );
        sample().apply(&mut env);
        assert!(env.find_header(Some("urn:sec"), "Token").is_some());
    }

    #[test]
    fn relates_to_with_relationship_type() {
        let mut env = rpc::echo_request(SoapVersion::V12, "x");
        let mut h = WsaHeaders::new().message_id("uuid:r");
        h.relates_to.push(("uuid:orig".into(), Some("wsa:Reply".into())));
        h.apply(&mut env);
        let env = Envelope::parse(&env.to_xml()).unwrap();
        let got = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(
            got.relates_to,
            vec![("uuid:orig".to_string(), Some("wsa:Reply".to_string()))]
        );
    }

    #[test]
    fn duplicate_singleton_header_is_error() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        env.headers.push(text_header("To", "a"));
        env.headers.push(text_header("To", "b"));
        assert_eq!(
            WsaHeaders::from_envelope(&env),
            Err(WsaError::Duplicated("To"))
        );
    }

    #[test]
    fn multiple_relates_to_allowed() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        env.headers.push(text_header("RelatesTo", "uuid:1"));
        env.headers.push(text_header("RelatesTo", "uuid:2"));
        let got = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(got.relates_to.len(), 2);
    }

    #[test]
    fn foreign_headers_ignored() {
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        env.headers.push(
            Element::new_ns(Some("o"), "To", "urn:other")
                .declare_namespace(Some("o"), "urn:other")
                .with_text("not-wsa"),
        );
        let got = WsaHeaders::from_envelope(&env).unwrap();
        assert!(got.to.is_none());
        sample().apply(&mut env);
        assert!(env.find_header(Some("urn:other"), "To").is_some());
    }
}
