//! The paper's headline scenario: a client with **no reachable network
//! endpoint** (behind a firewall/NAT) holds an asynchronous conversation
//! with a Web Service, using the MSG-Dispatcher and a WS-MsgBox mailbox.
//!
//! ```text
//! cargo run --example firewall_messaging
//! ```
//!
//! Flow (paper Figures 1 and 2):
//! 1. the client creates a mailbox at the WS-MsgBox service,
//! 2. sends a one-way echo request to the dispatcher with
//!    `wsa:ReplyTo` = the mailbox's deposit URL,
//! 3. the dispatcher resolves the logical name, rewrites the addressing
//!    headers and forwards to the WS,
//! 4. the WS replies through the dispatcher, which deposits into the
//!    mailbox (the client's own endpoint is unreachable),
//! 5. the client polls the mailbox over plain RPC — which always works
//!    outbound through firewalls — and picks up the correlated reply.

use std::sync::Arc;
use std::time::Duration;

use ws_dispatcher::core::config::{DispatcherConfig, MsgBoxConfig};
use ws_dispatcher::core::msg::MsgCore;
use ws_dispatcher::core::registry::Registry;
use ws_dispatcher::core::rt::{
    send_oneway, EchoServer, MailboxClient, MsgBoxServer, MsgDispatcherServer, Network,
};
use ws_dispatcher::core::url::Url;
use ws_dispatcher::soap::{rpc, SoapVersion};
use ws_dispatcher::wsa::{EndpointReference, WsaHeaders};

fn main() {
    let net = Network::new();

    // --- a one-way echo Web Service that replies via its ReplyTo ------
    let ws = EchoServer::start_oneway(&net, "ws-internal", 8888, 2, Duration::ZERO);

    // --- dispatcher + mailbox service ---------------------------------
    let registry = Arc::new(Registry::new());
    registry.register("Echo", Url::parse("http://ws-internal:8888/echo").unwrap());
    let core = MsgCore::new(registry, "http://dispatcher:8080/msg", 42);
    let dispatcher =
        MsgDispatcherServer::start(&net, "dispatcher", 8080, core, DispatcherConfig::default());
    let msgbox = MsgBoxServer::start(&net, "msgbox", 8082, MsgBoxConfig::default(), 42);

    // --- the firewalled client ----------------------------------------
    // Inbound connections to "laptop" are dropped, exactly like a NATed
    // cable-modem client. Outbound still works.
    net.set_firewalled("laptop", true);

    // 1. Create a mailbox (plain RPC, outbound — works through the
    //    firewall).
    let mailbox = MailboxClient::create(&net, "msgbox", 8082).expect("create mailbox");
    println!("mailbox created: {} -> {}", mailbox.box_id(), mailbox.deposit_url());

    // 2. Send the one-way request with ReplyTo = the mailbox.
    let mut request = rpc::echo_request(SoapVersion::V11, "message from behind the firewall");
    WsaHeaders::new()
        .to("http://dispatcher/svc/Echo")
        .reply_to(EndpointReference::new(mailbox.deposit_url()))
        .message_id("uuid:example-1")
        .apply(&mut request);
    send_oneway(&net, "dispatcher", 8080, "/msg", &request).expect("send");
    println!("one-way request accepted by the dispatcher");

    // 3-5. The reply flows WS → dispatcher → mailbox; poll for it.
    let replies = mailbox
        .poll_until(10, Duration::from_millis(20), Duration::from_secs(5))
        .expect("poll");
    assert_eq!(replies.len(), 1, "expected exactly one reply");
    let text = rpc::parse_echo_response(&replies[0]).expect("echo response");
    let correlated = WsaHeaders::from_envelope(&replies[0])
        .ok()
        .and_then(|h| h.relates_to.first().map(|(id, _)| id.clone()));
    println!("reply from mailbox: {text:?} (RelatesTo {correlated:?})");
    assert_eq!(text, "message from behind the firewall");
    assert_eq!(correlated.as_deref(), Some("uuid:example-1"));

    // Clean up: destroy the mailbox "to free memory space".
    mailbox.destroy().expect("destroy");
    dispatcher.shutdown();
    msgbox.shutdown();
    ws.shutdown();
    println!("ok");
}
