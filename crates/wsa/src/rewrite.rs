//! The MSG-Dispatcher's header rewrite (paper §4.2, Figure 3 step 3):
//! a `CxThread` maps the logical `To` to the service's physical address
//! and replaces the client's return address with the dispatcher's own, so
//! the service's reply flows back through the dispatcher. The original
//! return address is kept in a [`RouteRecord`], keyed by `MessageID`, for
//! the reply path.

use wsd_soap::Envelope;

use crate::epr::EndpointReference;
use crate::headers::WsaHeaders;
use crate::WsaError;

/// What the dispatcher must remember to route the reply of one forwarded
/// message. It is filed under the request's `MessageID`, which the reply
/// carries in `RelatesTo`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRecord {
    /// Where the client originally asked replies to go (a mailbox, its own
    /// endpoint, or anonymous).
    pub original_reply_to: Option<EndpointReference>,
    /// Where the client originally asked faults to go.
    pub original_fault_to: Option<EndpointReference>,
}

/// Rewrites a client request for forwarding to the resolved service:
/// `To` becomes `physical_to`, `ReplyTo`/`FaultTo` become the dispatcher's
/// address. Returns the record needed to route the reply.
///
/// The rewrite is idempotent: forwarding an already-forwarded message
/// (e.g. through a second dispatcher hop with the same address) changes
/// nothing but the stored original addresses.
pub fn rewrite_for_forward(
    env: &mut Envelope,
    physical_to: &str,
    dispatcher_address: &str,
) -> Result<RouteRecord, WsaError> {
    let mut headers = WsaHeaders::from_envelope(env)?;
    let record = RouteRecord {
        original_reply_to: headers.reply_to.clone(),
        original_fault_to: headers.fault_to.clone(),
    };
    headers.to = Some(physical_to.to_string());
    headers.reply_to = Some(EndpointReference::new(dispatcher_address));
    if headers.fault_to.is_some() {
        headers.fault_to = Some(EndpointReference::new(dispatcher_address));
    }
    headers.apply(env);
    Ok(record)
}

/// Rewrites a service reply for delivery to the client: `To` becomes the
/// client's original `ReplyTo` address (or `fallback` — typically a
/// mailbox — when the client never supplied one). The reply's `RelatesTo`
/// correlation is left untouched.
pub fn rewrite_for_reply(
    env: &mut Envelope,
    record: &RouteRecord,
    fallback: Option<&str>,
) -> Result<Option<String>, WsaError> {
    let mut headers = WsaHeaders::from_envelope(env)?;
    let destination = record
        .original_reply_to
        .as_ref()
        .filter(|epr| !epr.is_anonymous())
        .map(|epr| epr.address.clone())
        .or_else(|| fallback.map(str::to_string));
    headers.to = destination.clone();
    headers.apply(env);
    Ok(destination)
}

/// The `RelatesTo` id a reply correlates to, if any — the dispatcher's
/// key back into its route table.
pub fn correlation_id(env: &Envelope) -> Result<Option<String>, WsaError> {
    let headers = WsaHeaders::from_envelope(env)?;
    Ok(headers.relates_to.first().map(|(id, _)| id.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_soap::{rpc, SoapVersion};

    const DISPATCHER: &str = "http://dispatcher.example.org/msg";

    fn request() -> Envelope {
        let mut env = rpc::echo_request(SoapVersion::V11, "hi");
        WsaHeaders::new()
            .to("logical:echo")
            .reply_to(EndpointReference::new("http://client.example.org:8080/cb"))
            .message_id("uuid:req-1")
            .action("urn:wsd:echo:echo")
            .apply(&mut env);
        env
    }

    #[test]
    fn forward_rewrites_to_and_reply_to() {
        let mut env = request();
        let record =
            rewrite_for_forward(&mut env, "http://10.0.0.5:8888/echo", DISPATCHER).unwrap();
        let h = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(h.to.as_deref(), Some("http://10.0.0.5:8888/echo"));
        assert_eq!(h.reply_to.unwrap().address, DISPATCHER);
        // Untouched headers survive.
        assert_eq!(h.action.as_deref(), Some("urn:wsd:echo:echo"));
        assert_eq!(h.message_id.as_deref(), Some("uuid:req-1"));
        // The record remembers the original return address.
        assert_eq!(
            record.original_reply_to.unwrap().address,
            "http://client.example.org:8080/cb"
        );
    }

    #[test]
    fn forward_is_idempotent_on_headers() {
        let mut env = request();
        rewrite_for_forward(&mut env, "http://phys", DISPATCHER).unwrap();
        let first = WsaHeaders::from_envelope(&env).unwrap();
        rewrite_for_forward(&mut env, "http://phys", DISPATCHER).unwrap();
        let second = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn forward_survives_serialization() {
        let mut env = request();
        rewrite_for_forward(&mut env, "http://phys", DISPATCHER).unwrap();
        let reparsed = Envelope::parse(&env.to_xml()).unwrap();
        let h = WsaHeaders::from_envelope(&reparsed).unwrap();
        assert_eq!(h.to.as_deref(), Some("http://phys"));
    }

    #[test]
    fn fault_to_redirected_only_when_present() {
        let mut env = request();
        rewrite_for_forward(&mut env, "http://phys", DISPATCHER).unwrap();
        assert!(WsaHeaders::from_envelope(&env).unwrap().fault_to.is_none());

        let mut env = request();
        {
            let mut h = WsaHeaders::from_envelope(&env).unwrap();
            h.fault_to = Some(EndpointReference::new("http://client/faults"));
            h.apply(&mut env);
        }
        let record = rewrite_for_forward(&mut env, "http://phys", DISPATCHER).unwrap();
        let h = WsaHeaders::from_envelope(&env).unwrap();
        assert_eq!(h.fault_to.unwrap().address, DISPATCHER);
        assert_eq!(record.original_fault_to.unwrap().address, "http://client/faults");
    }

    #[test]
    fn reply_routes_to_original_reply_to() {
        let mut req = request();
        let record = rewrite_for_forward(&mut req, "http://phys", DISPATCHER).unwrap();
        // The service constructs a reply relating to the request.
        let mut reply = rpc::echo_response(SoapVersion::V11, "hi");
        WsaHeaders::new()
            .to(DISPATCHER)
            .relates_to("uuid:req-1")
            .message_id("uuid:resp-1")
            .apply(&mut reply);
        let dest = rewrite_for_reply(&mut reply, &record, None).unwrap();
        assert_eq!(dest.as_deref(), Some("http://client.example.org:8080/cb"));
        let h = WsaHeaders::from_envelope(&reply).unwrap();
        assert_eq!(h.to.as_deref(), Some("http://client.example.org:8080/cb"));
        assert_eq!(h.relates_to[0].0, "uuid:req-1");
    }

    #[test]
    fn reply_falls_back_to_mailbox_for_anonymous_clients() {
        let record = RouteRecord {
            original_reply_to: Some(EndpointReference::new(crate::ANONYMOUS)),
            original_fault_to: None,
        };
        let mut reply = rpc::echo_response(SoapVersion::V11, "x");
        let dest =
            rewrite_for_reply(&mut reply, &record, Some("http://msgbox/mbox-7")).unwrap();
        assert_eq!(dest.as_deref(), Some("http://msgbox/mbox-7"));
    }

    #[test]
    fn reply_with_no_destination_returns_none() {
        let record = RouteRecord {
            original_reply_to: None,
            original_fault_to: None,
        };
        let mut reply = rpc::echo_response(SoapVersion::V11, "x");
        assert_eq!(rewrite_for_reply(&mut reply, &record, None).unwrap(), None);
    }

    #[test]
    fn correlation_id_reads_relates_to() {
        let mut reply = rpc::echo_response(SoapVersion::V11, "x");
        assert_eq!(correlation_id(&reply).unwrap(), None);
        WsaHeaders::new().relates_to("uuid:q").apply(&mut reply);
        assert_eq!(correlation_id(&reply).unwrap().as_deref(), Some("uuid:q"));
    }
}
