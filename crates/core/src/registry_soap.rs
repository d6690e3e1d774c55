//! SOAP-RPC operations on the registry.
//!
//! Paper §4.1: "creating a real registry of services for
//! registering/updating services is independent from forwarding
//! requests, the registry is an independent module". These operations
//! let services register themselves remotely — `register`,
//! `unregister`, `lookup` and `list` in the `urn:wsd:registry`
//! namespace — over the same SOAP-RPC any peer can speak.

use wsd_soap::{rpc::RpcCall, Envelope, Fault, FaultCode, SoapVersion};
use wsd_xml::Element;

use crate::registry::Registry;
use crate::url::Url;

/// Namespace of the registry operations.
pub const REGISTRY_NS: &str = "urn:wsd:registry";

/// Handles one registry RPC envelope, producing the response envelope.
pub fn handle_soap(registry: &Registry, env: &Envelope) -> Envelope {
    let version = env.version;
    let call = match RpcCall::from_envelope(env) {
        Ok(c) if c.namespace == REGISTRY_NS => c,
        Ok(_) => return fault(version, "not a registry operation"),
        Err(e) => return fault(version, &e.to_string()),
    };
    match call.operation.as_str() {
        "register" => {
            let Some(logical) = call.param("logical") else {
                return fault(version, "register needs a 'logical' parameter");
            };
            let endpoints: Result<Vec<Url>, _> = call
                .params
                .iter()
                .filter(|(n, _)| n == "endpoint")
                .map(|(_, v)| Url::parse(v))
                .collect();
            let endpoints = match endpoints {
                Ok(e) if !e.is_empty() => e,
                Ok(_) => return fault(version, "register needs at least one 'endpoint'"),
                Err(e) => return fault(version, &e.to_string()),
            };
            let wsdl = call.param("wsdl").map(str::to_string);
            registry.register_many(logical, endpoints, wsdl);
            ok_response(version, "register", |op| op)
        }
        "unregister" => {
            let Some(logical) = call.param("logical") else {
                return fault(version, "unregister needs a 'logical' parameter");
            };
            let removed = registry.unregister(logical);
            ok_response(version, "unregister", |op| {
                op.with_child(Element::new("removed").with_text(removed.to_string()))
            })
        }
        "lookup" => {
            let Some(logical) = call.param("logical") else {
                return fault(version, "lookup needs a 'logical' parameter");
            };
            match registry.lookup(logical) {
                Ok(url) => ok_response(version, "lookup", |op| {
                    op.with_child(Element::new("endpoint").with_text(url.to_string()))
                }),
                Err(e) => fault(version, &e.to_string()),
            }
        }
        "list" => ok_response(version, "list", |mut op| {
            for name in registry.list() {
                op = op.with_child(Element::new("service").with_text(name));
            }
            op
        }),
        other => fault(version, &format!("unknown registry operation {other:?}")),
    }
}

fn ok_response(
    version: SoapVersion,
    operation: &str,
    fill: impl FnOnce(Element) -> Element,
) -> Envelope {
    let op = Element::new_ns(Some("r"), format!("{operation}Response"), REGISTRY_NS)
        .declare_namespace(Some("r"), REGISTRY_NS);
    Envelope::request(version, fill(op))
}

fn fault(version: SoapVersion, reason: &str) -> Envelope {
    Envelope::fault(version, Fault::new(FaultCode::Sender, reason))
}

/// Client-side request builders for the operations [`handle_soap`]
/// serves.
pub mod ops {
    use super::REGISTRY_NS;
    use wsd_soap::{rpc::RpcCall, Envelope, SoapVersion};

    /// `register` request: one logical name, one or more endpoints,
    /// optional WSDL.
    pub fn register(
        version: SoapVersion,
        logical: &str,
        endpoints: &[String],
        wsdl: Option<&str>,
    ) -> Envelope {
        let mut call = RpcCall::new(REGISTRY_NS, "register").with_param("logical", logical);
        for e in endpoints {
            call = call.with_param("endpoint", e.clone());
        }
        if let Some(w) = wsdl {
            call = call.with_param("wsdl", w);
        }
        call.to_envelope(version)
    }

    /// `unregister` request.
    pub fn unregister(version: SoapVersion, logical: &str) -> Envelope {
        RpcCall::new(REGISTRY_NS, "unregister")
            .with_param("logical", logical)
            .to_envelope(version)
    }

    /// `lookup` request.
    pub fn lookup(version: SoapVersion, logical: &str) -> Envelope {
        RpcCall::new(REGISTRY_NS, "lookup")
            .with_param("logical", logical)
            .to_envelope(version)
    }

    /// `list` request.
    pub fn list(version: SoapVersion) -> Envelope {
        RpcCall::new(REGISTRY_NS, "list").to_envelope(version)
    }

    /// Reads the endpoint out of a `lookupResponse`.
    pub fn parse_lookup_response(env: &Envelope) -> Option<String> {
        let op = env.payload()?.first()?;
        if op.name.local != "lookupResponse" {
            return None;
        }
        Some(op.find_child(None, "endpoint")?.text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        Registry::new()
    }

    fn round_trip(registry: &Registry, req: Envelope) -> Envelope {
        // Serialize/parse both directions: the wire is always exercised.
        let req = Envelope::parse(&req.to_xml()).unwrap();
        let resp = handle_soap(registry, &req);
        Envelope::parse(&resp.to_xml()).unwrap()
    }

    #[test]
    fn register_lookup_unregister_cycle() {
        let r = registry();
        let resp = round_trip(
            &r,
            ops::register(
                SoapVersion::V11,
                "Echo",
                &["http://ws:8888/echo".into()],
                Some("<definitions/>"),
            ),
        );
        assert!(resp.as_fault().is_none(), "{resp:?}");
        assert_eq!(r.len(), 1);
        assert_eq!(r.entry("Echo").unwrap().wsdl.as_deref(), Some("<definitions/>"));

        let resp = round_trip(&r, ops::lookup(SoapVersion::V11, "Echo"));
        assert_eq!(
            ops::parse_lookup_response(&resp).as_deref(),
            Some("http://ws:8888/echo")
        );

        let resp = round_trip(&r, ops::unregister(SoapVersion::V11, "Echo"));
        assert!(resp.as_fault().is_none());
        assert!(r.is_empty());
    }

    #[test]
    fn register_farm_with_multiple_endpoints() {
        let r = registry();
        round_trip(
            &r,
            ops::register(
                SoapVersion::V12,
                "Farm",
                &["http://a/s".into(), "http://b/s".into()],
                None,
            ),
        );
        assert_eq!(r.entry("Farm").unwrap().endpoints().len(), 2);
    }

    #[test]
    fn list_returns_sorted_names() {
        let r = registry();
        round_trip(&r, ops::register(SoapVersion::V11, "B", &["http://b/".into()], None));
        round_trip(&r, ops::register(SoapVersion::V11, "A", &["http://a/".into()], None));
        let resp = round_trip(&r, ops::list(SoapVersion::V11));
        let op = &resp.payload().unwrap()[0];
        assert_eq!(op.name.local, "listResponse");
        let names: Vec<String> = op.find_children(None, "service").map(|s| s.text()).collect();
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn errors_are_faults() {
        let r = registry();
        let resp = round_trip(&r, ops::lookup(SoapVersion::V11, "Missing"));
        assert!(resp.as_fault().unwrap().reason.contains("Missing"));
        // Bad endpoint URL.
        let resp = round_trip(
            &r,
            ops::register(SoapVersion::V11, "X", &["ftp://nope".into()], None),
        );
        assert!(resp.as_fault().is_some());
        assert!(r.is_empty());
        // Missing parameters.
        let bare = RpcCall::new(REGISTRY_NS, "register").to_envelope(SoapVersion::V11);
        assert!(handle_soap(&r, &bare).as_fault().is_some());
        // Wrong namespace.
        let foreign = RpcCall::new("urn:other", "register").to_envelope(SoapVersion::V11);
        assert!(handle_soap(&r, &foreign).as_fault().is_some());
    }
}
