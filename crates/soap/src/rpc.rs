//! RPC-style wrapping, including the paper's echo operation.
//!
//! The evaluation (§4.3) uses a ping-like echo operation whose serialized
//! SOAP message is ~263 bytes of XML (483 bytes with the HTTP header).
//! [`paper_echo_request`] reproduces that exact on-the-wire size so the
//! simulated experiments move the same number of bytes the paper did.

use wsd_xml::Element;

use crate::envelope::{Body, Envelope};
use crate::version::SoapVersion;
use crate::SoapError;

/// Namespace of the test echo service.
const ECHO_NS: &str = "urn:wsd:echo";

/// The serialized size of the paper's test XML message, in bytes (§4.3).
// wsd-lint: allow(pub-without-caller): the paper's 263-byte request, pinned by benchmark/tests/generator.rs and the echo and calibration tests
pub const PAPER_XML_BYTES: usize = 263;

/// The serialized size of the paper's HTTP header, in bytes (§4.3).
pub const PAPER_HTTP_HEADER_BYTES: usize = 220;

/// An RPC-style call: operation element in the service namespace, one
/// child element per parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcCall {
    /// Service namespace the operation element lives in.
    pub namespace: String,
    /// Operation (element local) name.
    pub operation: String,
    /// `(name, value)` parameters in order.
    pub params: Vec<(String, String)>,
}

impl RpcCall {
    /// A call with no parameters yet.
    pub fn new(namespace: impl Into<String>, operation: impl Into<String>) -> Self {
        RpcCall {
            namespace: namespace.into(),
            operation: operation.into(),
            params: Vec::new(),
        }
    }

    /// Appends a parameter. Returns `self` for chaining.
    pub fn with_param(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.push((name.into(), value.into()));
        self
    }

    /// Value of the first parameter with this name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Wraps the call in an envelope.
    pub fn to_envelope(&self, version: SoapVersion) -> Envelope {
        let mut op = Element::new_ns(Some("m"), &self.operation, &self.namespace)
            .declare_namespace(Some("m"), &self.namespace);
        for (name, value) in &self.params {
            op = op.with_child(Element::new(name).with_text(value));
        }
        Envelope::request(version, op)
    }

    /// Interprets an envelope's body as an RPC call.
    pub fn from_envelope(env: &Envelope) -> Result<RpcCall, SoapError> {
        let payload = match &env.body {
            Body::Payload(p) => p,
            Body::Fault(_) => return Err(SoapError::BadRpc("body is a fault, not a call")),
        };
        let op = payload
            .first()
            .ok_or(SoapError::BadRpc("empty body"))?;
        let namespace = op
            .namespace
            .clone()
            .ok_or(SoapError::BadRpc("operation element has no namespace"))?;
        let params = op
            .child_elements()
            .map(|c| (c.name.local.clone(), c.text()))
            .collect();
        Ok(RpcCall {
            namespace,
            operation: op.name.local.clone(),
            params,
        })
    }

    /// Builds the conventional `<operation>Response` envelope carrying one
    /// `<return>` element.
    pub fn response(&self, version: SoapVersion, return_value: &str) -> Envelope {
        let op = Element::new_ns(
            Some("m"),
            format!("{}Response", self.operation),
            &self.namespace,
        )
        .declare_namespace(Some("m"), &self.namespace)
        .with_child(Element::new("return").with_text(return_value));
        Envelope::request(version, op)
    }
}

/// Extracts the `<return>` value from an RPC response envelope.
fn parse_response(env: &Envelope) -> Result<String, SoapError> {
    let payload = env
        .payload()
        .ok_or(SoapError::BadRpc("response is a fault"))?;
    let op = payload
        .first()
        .ok_or(SoapError::BadRpc("empty response body"))?;
    if !op.name.local.ends_with("Response") {
        return Err(SoapError::BadRpc("not a Response element"));
    }
    Ok(op
        .find_child(None, "return")
        .map(|r| r.text())
        .unwrap_or_default())
}

/// Builds an echo request carrying `text`.
pub fn echo_request(version: SoapVersion, text: &str) -> Envelope {
    RpcCall::new(ECHO_NS, "echo")
        .with_param("text", text)
        .to_envelope(version)
}

/// Extracts the text of an echo request.
pub fn parse_echo(env: &Envelope) -> Result<String, SoapError> {
    let call = RpcCall::from_envelope(env)?;
    if call.namespace != ECHO_NS || call.operation != "echo" {
        return Err(SoapError::BadRpc("not an echo call"));
    }
    Ok(call.param("text").unwrap_or_default().to_string())
}

/// Builds the echo response for `text`.
pub fn echo_response(version: SoapVersion, text: &str) -> Envelope {
    RpcCall::new(ECHO_NS, "echo").response(version, text)
}

/// Extracts the echoed text of an echo response.
pub fn parse_echo_response(env: &Envelope) -> Result<String, SoapError> {
    parse_response(env)
}

/// The paper's test message: a SOAP 1.1 echo request padded so the
/// serialized XML is exactly [`PAPER_XML_BYTES`] long.
pub fn paper_echo_request() -> Envelope {
    let base = echo_request(SoapVersion::V11, "").to_xml().len();
    let pad = PAPER_XML_BYTES.saturating_sub(base);
    echo_request(SoapVersion::V11, &"x".repeat(pad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trips() {
        let call = RpcCall::new("urn:svc", "add")
            .with_param("a", "2")
            .with_param("b", "3");
        let env = call.to_envelope(SoapVersion::V11);
        let parsed = RpcCall::from_envelope(&Envelope::parse(&env.to_xml()).unwrap()).unwrap();
        assert_eq!(parsed, call);
    }

    #[test]
    fn response_round_trips() {
        let call = RpcCall::new("urn:svc", "add");
        let env = call.response(SoapVersion::V12, "5");
        let parsed = Envelope::parse(&env.to_xml()).unwrap();
        assert_eq!(parse_response(&parsed).unwrap(), "5");
    }

    #[test]
    fn echo_request_and_response_round_trip() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let req = echo_request(v, "hello");
            assert_eq!(
                parse_echo(&Envelope::parse(&req.to_xml()).unwrap()).unwrap(),
                "hello"
            );
            let resp = echo_response(v, "hello");
            assert_eq!(
                parse_echo_response(&Envelope::parse(&resp.to_xml()).unwrap()).unwrap(),
                "hello"
            );
        }
    }

    #[test]
    fn non_echo_call_rejected_by_parse_echo() {
        let env = RpcCall::new("urn:other", "ping").to_envelope(SoapVersion::V11);
        assert!(parse_echo(&env).is_err());
    }

    #[test]
    fn fault_body_rejected_as_call() {
        let env = Envelope::fault(
            SoapVersion::V11,
            crate::Fault::new(crate::FaultCode::Receiver, "x"),
        );
        assert!(RpcCall::from_envelope(&env).is_err());
        assert!(parse_response(&env).is_err());
    }

    #[test]
    fn empty_body_rejected() {
        let env = Envelope {
            version: SoapVersion::V11,
            headers: vec![],
            body: Body::Payload(vec![]),
        };
        assert!(matches!(
            RpcCall::from_envelope(&env),
            Err(SoapError::BadRpc("empty body"))
        ));
    }

    #[test]
    fn paper_message_is_exactly_263_bytes() {
        let xml = paper_echo_request().to_xml();
        assert_eq!(xml.len(), PAPER_XML_BYTES, "{xml}");
        // And it still parses as a valid echo call.
        let parsed = Envelope::parse(&xml).unwrap();
        assert!(parse_echo(&parsed).is_ok());
    }

    #[test]
    fn paper_total_size_matches_483_bytes() {
        assert_eq!(PAPER_XML_BYTES + PAPER_HTTP_HEADER_BYTES, 483);
    }

    #[test]
    fn response_missing_suffix_rejected() {
        let env = RpcCall::new("urn:svc", "add").to_envelope(SoapVersion::V11);
        assert!(parse_response(&env).is_err());
    }
}
