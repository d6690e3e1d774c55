//! Property-based invariants for the addressing layer.

use proptest::prelude::*;
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_wsa::{
    rewrite_for_forward, rewrite_for_reply, EndpointReference, RouteRecord, WsaHeaders,
};

fn uri() -> impl Strategy<Value = String> {
    "(http|https)://[a-z][a-z0-9.-]{0,20}(:[0-9]{2,5})?/[a-z0-9/_-]{0,20}"
}

fn headers_strategy() -> impl Strategy<Value = WsaHeaders> {
    (
        proptest::option::of(uri()),
        proptest::option::of(uri()),
        proptest::option::of(uri()),
        proptest::option::of("[a-z:/.]{1,30}"),
        proptest::option::of("uuid:[a-f0-9-]{1,30}"),
        proptest::collection::vec("uuid:[a-f0-9-]{1,20}", 0..3),
    )
        .prop_map(|(to, reply, fault, action, msgid, rel)| {
            let mut h = WsaHeaders::new();
            h.to = to;
            h.reply_to = reply.map(EndpointReference::new);
            h.fault_to = fault.map(EndpointReference::new);
            h.action = action;
            h.message_id = msgid;
            h.relates_to = rel.into_iter().map(|r| (r, None)).collect();
            h
        })
}

proptest! {
    /// apply → serialize → parse → read is the identity on header sets.
    #[test]
    fn headers_survive_the_wire(h in headers_strategy(), v in prop_oneof![Just(SoapVersion::V11), Just(SoapVersion::V12)]) {
        let mut env = rpc::echo_request(v, "payload");
        h.apply(&mut env);
        let reparsed = Envelope::parse(&env.to_xml()).unwrap();
        let got = WsaHeaders::from_envelope(&reparsed).unwrap();
        prop_assert_eq!(got, h);
    }

    /// The forward rewrite never touches the payload, and always points
    /// To/ReplyTo where told.
    #[test]
    fn forward_rewrite_preserves_payload(h in headers_strategy(), text in "[a-zA-Z0-9 ]{0,40}") {
        let mut env = rpc::echo_request(SoapVersion::V11, &text);
        h.apply(&mut env);
        rewrite_for_forward(&mut env, "http://phys.example/svc", "http://disp.example/msg").unwrap();
        let reparsed = Envelope::parse(&env.to_xml()).unwrap();
        prop_assert_eq!(rpc::parse_echo(&reparsed).unwrap(), text);
        let got = WsaHeaders::from_envelope(&reparsed).unwrap();
        prop_assert_eq!(got.to.as_deref(), Some("http://phys.example/svc"));
        prop_assert_eq!(got.reply_to.unwrap().address, "http://disp.example/msg");
        // Non-rewritten headers intact.
        prop_assert_eq!(got.action, h.action);
        prop_assert_eq!(got.message_id, h.message_id);
    }

    /// Rewrite is idempotent: a second identical forward changes nothing.
    #[test]
    fn forward_rewrite_is_idempotent(h in headers_strategy()) {
        let mut env = rpc::echo_request(SoapVersion::V12, "x");
        h.apply(&mut env);
        rewrite_for_forward(&mut env, "http://p/s", "http://d/m").unwrap();
        let once = env.to_xml();
        rewrite_for_forward(&mut env, "http://p/s", "http://d/m").unwrap();
        prop_assert_eq!(env.to_xml(), once);
    }

    /// The splice fast path produces byte-identical output to the tree
    /// path (parse → `rewrite_for_forward` → `to_xml`) for every valid
    /// all-WSA envelope, and covers every such envelope: `scan` only
    /// declines when there are no addressing headers at all.
    #[test]
    fn splice_forward_is_byte_identical_to_tree(
        h in headers_strategy(),
        v in prop_oneof![Just(SoapVersion::V11), Just(SoapVersion::V12)],
        text in "[a-zA-Z0-9<>&\"' ]{0,40}",
        rel_type in proptest::option::of(Just("wsa:Reply".to_string())),
    ) {
        let mut h = h;
        if let Some(first) = h.relates_to.first_mut() {
            first.1 = rel_type;
        }
        let mut env = rpc::echo_request(v, &text);
        h.apply(&mut env);
        // One parse round-trip puts the body in parse-canonical form (e.g.
        // an in-memory `<text></text>` with an empty text node becomes
        // `<text/>`): the byte-identity contract compares against the tree
        // path, which always re-parses.
        let xml = Envelope::parse(&env.to_xml()).unwrap().to_xml();
        let scanned = wsd_wsa::scan(&xml);
        let empty = h == WsaHeaders::new();
        prop_assert_eq!(scanned.is_some(), !empty, "fastpath coverage: {}", xml);
        let Some(scanned) = scanned else { return Ok(()); };
        // Mint an id exactly when the message carries none, as MsgCore does.
        let minted = h.message_id.is_none().then_some("uuid:minted-1");
        let mut spliced = String::new();
        let record = scanned.splice_forward_into(
            "http://phys.example/svc",
            "http://disp.example/msg",
            minted,
            &mut spliced,
        );
        let mut tree = Envelope::parse(&xml).unwrap();
        if let Some(id) = minted {
            let mut th = WsaHeaders::from_envelope(&tree).unwrap();
            th.message_id = Some(id.to_string());
            th.apply(&mut tree);
        }
        let tree_record =
            rewrite_for_forward(&mut tree, "http://phys.example/svc", "http://disp.example/msg")
                .unwrap();
        prop_assert_eq!(&spliced, &tree.to_xml());
        prop_assert_eq!(record, tree_record);
        // Spliced output is itself canonical: rescanning it must succeed.
        prop_assert!(wsd_wsa::scan(&spliced).is_some());
    }

    /// Same for the reply direction: splicing the destination into `To`
    /// matches parse → `rewrite_for_reply` → `to_xml` byte for byte.
    #[test]
    fn splice_reply_is_byte_identical_to_tree(
        h in headers_strategy(),
        v in prop_oneof![Just(SoapVersion::V11), Just(SoapVersion::V12)],
        dest in proptest::option::of(uri()),
    ) {
        let mut env = rpc::echo_response(v, "out");
        h.apply(&mut env);
        let xml = env.to_xml();
        let Some(scanned) = wsd_wsa::scan(&xml) else { return Ok(()); };
        let record = RouteRecord {
            original_reply_to: dest.clone().map(EndpointReference::new),
            original_fault_to: None,
        };
        let mut spliced = String::new();
        scanned.splice_reply_into(dest.as_deref(), &mut spliced);
        let mut tree = Envelope::parse(&xml).unwrap();
        let tree_dest = rewrite_for_reply(&mut tree, &record, None).unwrap();
        prop_assert_eq!(tree_dest, dest);
        prop_assert_eq!(spliced, tree.to_xml());
    }

    /// Structural anomalies the splice path cannot reproduce byte-for-byte
    /// are declined, never mangled: an EPR with reference parameters and a
    /// foreign header block both force the tree path.
    #[test]
    fn splice_declines_non_canonical_envelopes(h in headers_strategy(), addr in uri()) {
        let mut h = h;
        h.reply_to = Some(
            EndpointReference {
                reference_parameters: vec![wsd_xml::Element::new("session").with_text("42")],
                ..EndpointReference::new(addr)
            },
        );
        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        h.apply(&mut env);
        prop_assert!(wsd_wsa::scan(&env.to_xml()).is_none());

        let mut env = rpc::echo_request(SoapVersion::V11, "x");
        h.apply(&mut env);
        env.headers.insert(
            0,
            wsd_xml::Element::new_ns(Some("sec"), "Token", "urn:sec")
                .declare_namespace(Some("sec"), "urn:sec")
                .with_text("t"),
        );
        prop_assert!(wsd_wsa::scan(&env.to_xml()).is_none());
    }

    /// Adversarial envelopes — torn tags (truncation at every offset),
    /// deep nesting spliced into the payload, entity-heavy and
    /// malformed-entity text — either fall back (the scanner declines
    /// and the tree path takes over) or splice byte-identically. The
    /// fast path never accepts an envelope the tree parser rejects, and
    /// never produces different bytes than the tree rewrite.
    #[test]
    fn adversarial_envelopes_fall_back_never_diverge(
        h in headers_strategy(),
        v in prop_oneof![Just(SoapVersion::V11), Just(SoapVersion::V12)],
        mode in 0u8..3,
        depth in 1usize..40,
        soup in "(&[a-z]{1,6};|[a-z<>\"' ]){0,16}",
        cut_permille in 0u32..=1000,
    ) {
        let mut env = rpc::echo_request(v, "MARKER");
        h.apply(&mut env);
        let xml = env.to_xml();
        let mutated = match mode {
            // Torn tag: truncate anywhere (1000 = the full envelope).
            0 => xml[..(xml.len() as u64 * cut_permille as u64 / 1000) as usize].to_string(),
            // Deep nesting in the payload.
            1 => xml.replace(
                "MARKER",
                &format!("{}{}", "<n>".repeat(depth), "</n>".repeat(depth)),
            ),
            // Entity soup, including undefined references like `&bogus;`.
            _ => xml.replace("MARKER", &soup),
        };
        // Well-formed adversarial envelopes are compared in
        // parse-canonical form (the tree path always re-serializes, so
        // byte identity is only defined on canonical input, as in the
        // forward test above). Ill-formed ones stay raw: the fast path
        // must decline them outright.
        let adversarial = match Envelope::parse(&mutated) {
            Ok(well_formed) => well_formed.to_xml(),
            Err(_) => mutated,
        };
        let Some(scanned) = wsd_wsa::scan(&adversarial) else { return Ok(()); };
        // Accepted by the fast path: the tree path must agree it is
        // well-formed, and both rewrites must emit identical bytes.
        let tree = Envelope::parse(&adversarial);
        prop_assert!(tree.is_ok(), "fast path accepted, tree rejected: {adversarial}");
        let mut spliced = String::new();
        scanned.splice_reply_into(Some("http://dest.example/mb"), &mut spliced);
        let record = RouteRecord {
            original_reply_to: Some(EndpointReference::new("http://dest.example/mb")),
            original_fault_to: None,
        };
        let mut tree = tree.unwrap();
        rewrite_for_reply(&mut tree, &record, None).unwrap();
        prop_assert_eq!(spliced, tree.to_xml());
    }

    /// EPRs round-trip through their element form.
    #[test]
    fn epr_round_trips(addr in uri(), param_text in "[a-z0-9]{1,16}") {
        let epr = EndpointReference {
            reference_parameters: vec![wsd_xml::Element::new("p").with_text(param_text)],
            ..EndpointReference::new(addr)
        };
        let el = epr.to_element("ReplyTo");
        let root = wsd_xml::parse(&wsd_xml::write_element(&el)).unwrap().root;
        let got = EndpointReference::from_element(&root, "ReplyTo").unwrap();
        prop_assert_eq!(got, epr);
    }
}
