//! Property-based invariants for the dispatcher core.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use wsd_core::config::{MailboxBackend, MsgBoxConfig};
use wsd_core::msg::{MsgCore, Routed};
use wsd_core::msgbox::MsgBoxStore;
use wsd_core::registry::{BalanceStrategy, Registry};
use wsd_core::url::Url;
use wsd_soap::{rpc, SoapVersion};
use wsd_store::{StoreConfig, StoreError};
use wsd_wsa::{EndpointReference, WsaHeaders};

// ---------------------------------------------------------------------
// MsgBoxStore model test: behaves like a map of queues with access keys
// and a TTL, with a log and without one alike — the two backends agree
// op for op.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum BoxOp {
    Create,
    Deposit { box_ix: usize, body: String },
    Fetch { box_ix: usize, wrong_key: bool, max: usize },
    Destroy { box_ix: usize, wrong_key: bool },
}

fn box_op() -> impl Strategy<Value = BoxOp> {
    prop_oneof![
        2 => Just(BoxOp::Create),
        5 => (0usize..6, "[a-z]{1,12}").prop_map(|(box_ix, body)| BoxOp::Deposit { box_ix, body }),
        4 => (0usize..6, any::<bool>(), 1usize..8)
            .prop_map(|(box_ix, wrong_key, max)| BoxOp::Fetch { box_ix, wrong_key, max }),
        1 => (0usize..6, any::<bool>()).prop_map(|(box_ix, wrong_key)| BoxOp::Destroy { box_ix, wrong_key }),
    ]
}

/// Messages live this long (µs; one op is 1 µs), so ops outlive some.
const TTL_US: u64 = 40;

proptest! {
    #[test]
    fn msgbox_store_matches_queue_model(ops in prop::collection::vec(box_op(), 0..120)) {
        let stores = [
            MailboxBackend::Memory,
            MailboxBackend::Durable { dir: None, store: StoreConfig::default() },
        ]
        .map(|backend| {
            let config = MsgBoxConfig {
                backend,
                message_ttl: Duration::from_micros(TTL_US),
                ..MsgBoxConfig::default()
            };
            MsgBoxStore::new(config, 7)
        });
        let mut boxes: Vec<(String, String)> = Vec::new(); // (id, key)
        // id -> queued (body, expires_at)
        let mut model: HashMap<String, Vec<(String, u64)>> = HashMap::new();
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                BoxOp::Create => {
                    let [(id, key), other] = stores.each_ref().map(|s| s.create(now));
                    prop_assert_eq!(&other, &(id.clone(), key.clone()));
                    model.insert(id.clone(), Vec::new());
                    boxes.push((id, key));
                }
                BoxOp::Deposit { box_ix, body } => {
                    if boxes.is_empty() { continue; }
                    let (id, _) = &boxes[box_ix % boxes.len()];
                    let [got, other] = stores.each_ref().map(|s| s.deposit(id, body.clone(), now));
                    prop_assert_eq!(&got, &other);
                    prop_assert_eq!(got.is_ok(), model.contains_key(id));
                    if let Some(queue) = model.get_mut(id) {
                        queue.push((body, now + TTL_US));
                    }
                }
                BoxOp::Fetch { box_ix, wrong_key, max } => {
                    if boxes.is_empty() { continue; }
                    let (id, key) = &boxes[box_ix % boxes.len()];
                    let key = if wrong_key { "bogus" } else { key.as_str() };
                    let [got, other] = stores.each_ref().map(|s| {
                        s.fetch(id, key, max, now)
                            .map(|fetched| fetched.into_iter().map(|m| m.body).collect::<Vec<_>>())
                    });
                    prop_assert_eq!(&got, &other);
                    match (model.get_mut(id), wrong_key) {
                        (Some(queue), false) => {
                            queue.retain(|(_, expires_at)| *expires_at > now);
                            let expect: Vec<String> =
                                queue.drain(..max.min(queue.len())).map(|(body, _)| body).collect();
                            prop_assert_eq!(got.unwrap(), expect);
                        }
                        (Some(_), true) => prop_assert_eq!(got, Err(StoreError::WrongKey)),
                        (None, _) => prop_assert_eq!(got, Err(StoreError::NoSuchBox)),
                    }
                }
                BoxOp::Destroy { box_ix, wrong_key } => {
                    if boxes.is_empty() { continue; }
                    let (id, key) = &boxes[box_ix % boxes.len()];
                    let key = if wrong_key { "bogus" } else { key.as_str() };
                    let [got, other] = stores.each_ref().map(|s| s.destroy(id, key));
                    prop_assert_eq!(&got, &other);
                    match (model.contains_key(id), wrong_key) {
                        (true, false) => {
                            prop_assert!(got.is_ok());
                            model.remove(id);
                        }
                        (true, true) => prop_assert_eq!(got, Err(StoreError::WrongKey)),
                        (false, _) => prop_assert_eq!(got, Err(StoreError::NoSuchBox)),
                    }
                }
            }
            for store in &stores {
                prop_assert_eq!(store.box_count(), model.len());
            }
        }
    }
}

// ---------------------------------------------------------------------
// MsgCore: every forwarded request's reply routes back, exactly once.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn every_forward_routes_its_reply_exactly_once(
        n in 1usize..20,
        reply_hosts in prop::collection::vec("[a-z]{1,8}", 1..4),
    ) {
        let registry = Arc::new(Registry::new());
        registry.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        let core = MsgCore::new(registry, "http://dispatcher/msg", 5);
        let mut ids = Vec::new();
        for i in 0..n {
            let mut env = rpc::echo_request(SoapVersion::V11, "x");
            let host = &reply_hosts[i % reply_hosts.len()];
            WsaHeaders::new()
                .to("http://dispatcher/svc/Echo")
                .reply_to(EndpointReference::new(format!("http://{host}:9000/cb")))
                .message_id(format!("uuid:{i}"))
                .apply(&mut env);
            match core.route(env, 483, i as u64).unwrap() {
                Routed::Forward { to, .. } => prop_assert_eq!(to.host.as_str(), "ws"),
                other => prop_assert!(false, "expected Forward, got {:?}", other),
            }
            ids.push((format!("uuid:{i}"), reply_hosts[i % reply_hosts.len()].clone()));
        }
        prop_assert_eq!(core.pending_routes(), n);
        // Replies in arbitrary (here reversed) order each route to their
        // original client; a second identical reply has no route left.
        for (id, host) in ids.iter().rev() {
            let mut reply = rpc::echo_response(SoapVersion::V11, "x");
            WsaHeaders::new().relates_to(id.clone()).apply(&mut reply);
            match core.route(reply.clone(), 483, 0) {
                Ok(Routed::Reply { to, .. }) => {
                    prop_assert_eq!(&to.host, host);
                }
                other => prop_assert!(false, "reply must route: {:?}", other),
            }
            prop_assert!(core.route(reply, 483, 0).is_err(), "route must be consumed");
        }
        prop_assert_eq!(core.pending_routes(), 0);
    }
}

// ---------------------------------------------------------------------
// Registry: lookups always return a registered, live endpoint, whatever
// the strategy; round-robin visits everything.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn lookup_always_returns_registered_live_endpoint(
        endpoints in prop::collection::vec("[a-z]{1,8}", 1..6),
        dead_ix in any::<prop::sample::Index>(),
        strategy_ix in 0usize..3,
    ) {
        let strategy = [
            BalanceStrategy::First,
            BalanceStrategy::RoundRobin,
            BalanceStrategy::LeastPending,
        ][strategy_ix];
        let registry = Registry::new().with_strategy(strategy);
        let urls: Vec<Url> = endpoints
            .iter()
            .enumerate()
            .map(|(i, h)| Url::parse(&format!("http://{h}-{i}/s")).unwrap())
            .collect();
        registry.register_many("S", urls.clone(), None);
        // Mark one endpoint dead (if there are at least two).
        let dead = if urls.len() > 1 {
            let d = urls[dead_ix.index(urls.len())].clone();
            registry.mark_down("S", &d);
            Some(d)
        } else {
            None
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..urls.len() * 3 {
            let got = registry.lookup("S").unwrap();
            prop_assert!(urls.contains(&got));
            prop_assert_ne!(Some(&got), dead.as_ref());
            seen.insert(got);
        }
        if strategy == BalanceStrategy::RoundRobin {
            let live = urls.len() - usize::from(dead.is_some());
            prop_assert_eq!(seen.len(), live, "round robin must visit all live endpoints");
        }
    }
}
