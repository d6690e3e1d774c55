//! Cross-crate protocol-stack tests: an envelope built at the top of the
//! stack survives every layer a deployed message crosses — SOAP
//! serialization, WS-Addressing rewriting, HTTP framing, byte transport —
//! and faults map sensibly across versions.

use ws_dispatcher::http::{parse_request_bytes, request_bytes, Request};
use ws_dispatcher::soap::{rpc, Envelope, Fault, FaultCode, SoapVersion};
use ws_dispatcher::wsa::{
    correlation_id, rewrite_for_forward, rewrite_for_reply, EndpointReference, MsgIdGen,
    WsaHeaders,
};
use ws_dispatcher::xml;

/// The full life of one message: client builds it, dispatcher rewrites
/// it, service answers, dispatcher routes the reply — through serialized
/// HTTP bytes at every hop.
#[test]
fn one_message_through_every_layer() {
    let ids = MsgIdGen::new(7);
    let msg_id = ids.next_id();

    // 1. Client: envelope + addressing + HTTP framing.
    let mut env = rpc::echo_request(SoapVersion::V11, "payload");
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new("http://msgbox:8082/deposit/mbox-1"))
        .message_id(msg_id.clone())
        .action("urn:wsd:echo:echo")
        .apply(&mut env);
    let wire = request_bytes(&Request::soap_post(
        "dispatcher:8080",
        "/msg",
        SoapVersion::V11.content_type(),
        env.to_xml().into_bytes(),
    ));

    // 2. Dispatcher: parse off the wire, rewrite, re-frame.
    let req = parse_request_bytes(&wire).unwrap();
    let mut env = Envelope::parse(&req.body_utf8()).unwrap();
    let record =
        rewrite_for_forward(&mut env, "http://ws:8888/echo", "http://dispatcher:8080/msg")
            .unwrap();
    assert_eq!(
        record.original_reply_to.as_ref().unwrap().address,
        "http://msgbox:8082/deposit/mbox-1"
    );
    let wire = request_bytes(&Request::soap_post(
        "ws:8888",
        "/echo",
        SoapVersion::V11.content_type(),
        env.to_xml().into_bytes(),
    ));

    // 3. Service: parse, answer, correlate.
    let req = parse_request_bytes(&wire).unwrap();
    let env = Envelope::parse(&req.body_utf8()).unwrap();
    let h = WsaHeaders::from_envelope(&env).unwrap();
    assert_eq!(h.to.as_deref(), Some("http://ws:8888/echo"));
    assert_eq!(
        h.reply_to.as_ref().unwrap().address,
        "http://dispatcher:8080/msg"
    );
    let text = rpc::parse_echo(&env).unwrap();
    assert_eq!(text, "payload");
    let mut reply = rpc::echo_response(SoapVersion::V11, &text);
    WsaHeaders::new()
        .to(h.reply_to.unwrap().address)
        .relates_to(h.message_id.clone().unwrap())
        .apply(&mut reply);
    let wire = request_bytes(&Request::soap_post(
        "dispatcher:8080",
        "/msg",
        SoapVersion::V11.content_type(),
        reply.to_xml().into_bytes(),
    ));

    // 4. Dispatcher: correlate the reply and route it to the mailbox.
    let req = parse_request_bytes(&wire).unwrap();
    let mut reply = Envelope::parse(&req.body_utf8()).unwrap();
    assert_eq!(correlation_id(&reply).unwrap().as_deref(), Some(msg_id.as_str()));
    let dest = rewrite_for_reply(&mut reply, &record, None).unwrap();
    assert_eq!(dest.as_deref(), Some("http://msgbox:8082/deposit/mbox-1"));
    assert_eq!(rpc::parse_echo_response(&reply).unwrap(), "payload");
}

/// A SOAP 1.1 fault raised by a service is re-expressible as 1.2 (and
/// back) without losing its meaning — the dispatcher may face mixed
/// versions.
#[test]
fn faults_translate_across_versions() {
    let fault = Fault {
        role: Some("urn:wsd:dispatcher".into()),
        detail: vec![xml::Element::new("errno").with_text("7")],
        ..Fault::new(FaultCode::Receiver, "backend exploded")
    };
    let as11 = Envelope::fault(SoapVersion::V11, fault.clone());
    let parsed = Envelope::parse(&as11.to_xml()).unwrap();
    let carried = parsed.as_fault().unwrap().clone();
    let as12 = Envelope::fault(SoapVersion::V12, carried);
    let parsed = Envelope::parse(&as12.to_xml()).unwrap();
    let f = parsed.as_fault().unwrap();
    assert_eq!(f.code, FaultCode::Receiver);
    assert_eq!(f.reason, "backend exploded");
    assert_eq!(f.role.as_deref(), Some("urn:wsd:dispatcher"));
    assert_eq!(f.detail[0].text(), "7");
}

/// The paper's wire numbers hold through our stack: the echo request is
/// 263 bytes of XML, and a framed request stays in the neighbourhood of
/// the reported 483 bytes.
#[test]
fn paper_wire_sizes_hold() {
    let env = rpc::paper_echo_request();
    let xml = env.to_xml();
    assert_eq!(xml.len(), 263);
    let req = Request::soap_post(
        "ws",
        "/echo",
        SoapVersion::V11.content_type(),
        xml.into_bytes(),
    );
    let total = request_bytes(&req).len();
    // Our HTTP head is leaner than the paper's 220-byte header (fewer
    // default header lines), so the framed size lands a little under
    // 483; same order of magnitude is what matters for the link model.
    assert!((380..=560).contains(&total), "framed size {total}");
}

/// Unicode payloads, entities and attributes survive a full envelope
/// round trip through HTTP bytes.
#[test]
fn unicode_and_entities_survive() {
    let text = "héllo <&> \"世界\" 'ok'";
    let env = rpc::echo_request(SoapVersion::V12, text);
    let wire = request_bytes(&Request::soap_post(
        "h",
        "/",
        SoapVersion::V12.content_type(),
        env.to_xml().into_bytes(),
    ));
    let req = parse_request_bytes(&wire).unwrap();
    let env = Envelope::parse(&req.body_utf8()).unwrap();
    assert_eq!(rpc::parse_echo(&env).unwrap(), text);
}
