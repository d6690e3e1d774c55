//! One-call deployment of the complete WS-Dispatcher topology (paper
//! Figure 1): registry + RPC-Dispatcher + MSG-Dispatcher + WS-MsgBox on
//! the threaded runtime, ready for clients.
//!
//! ```
//! use std::time::Duration;
//! use wsd_core::rt::{Deployment, EchoServer, Network, rpc_call};
//! use wsd_core::url::Url;
//! use wsd_soap::{rpc, SoapVersion};
//!
//! let net = Network::new();
//! let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
//! let deployment = Deployment::builder(&net, "dispatcher").start();
//! deployment
//!     .registry()
//!     .register("Echo", Url::parse("http://ws:8888/echo").unwrap());
//!
//! let resp = rpc_call(&net, "dispatcher", deployment.rpc_port(), "/svc/Echo",
//!     &rpc::echo_request(SoapVersion::V11, "hi"), None).unwrap();
//! assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "hi");
//! deployment.shutdown();
//! ws.shutdown();
//! ```

use std::sync::Arc;

use crate::config::{DispatcherConfig, MsgBoxConfig};
use crate::msg::MsgCore;
use crate::registry::Registry;
use crate::rt::{MsgBoxServer, MsgDispatcherServer, Network, RegistryServer, RpcDispatcherServer};
use crate::security::PolicyChain;

/// Builder for a [`Deployment`].
pub struct DeploymentBuilder {
    net: Arc<Network>,
    host: String,
    registry: Option<Arc<Registry>>,
    msgbox_config: MsgBoxConfig,
    rpc_port: u16,
    msg_port: u16,
    msgbox_port: u16,
    registry_port: u16,
    seed: u64,
}

impl DeploymentBuilder {
    /// Overrides the registry (e.g. pre-loaded from a file).
    pub fn registry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Overrides WS-MsgBox tuning.
    pub fn msgbox_config(mut self, config: MsgBoxConfig) -> Self {
        self.msgbox_config = config;
        self
    }

    /// Seeds the id generators (deterministic message/mailbox ids).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Starts everything, the dispatchers with the default
    /// [`DispatcherConfig`] and no security policies.
    pub fn start(self) -> Deployment {
        let registry = self.registry.unwrap_or_default();
        let config = DispatcherConfig::default();
        let rpc = RpcDispatcherServer::start(
            &self.net,
            &self.host,
            self.rpc_port,
            Arc::clone(&registry),
            PolicyChain::new(),
            config.clone(),
        );
        let core = MsgCore::new(
            Arc::clone(&registry),
            format!("http://{}:{}/msg", self.host, self.msg_port),
            self.seed,
        )
        .with_mailbox(format!("http://{}:{}/deposit", self.host, self.msgbox_port));
        let msgbox = MsgBoxServer::start(
            &self.net,
            &self.host,
            self.msgbox_port,
            self.msgbox_config,
            self.seed,
        );
        let msg = MsgDispatcherServer::start(&self.net, &self.host, self.msg_port, core, config);
        let registry_service = RegistryServer::start(
            &self.net,
            &self.host,
            self.registry_port,
            Arc::clone(&registry),
        );
        Deployment {
            registry,
            rpc,
            msg,
            msgbox,
            registry_service,
            rpc_port: self.rpc_port,
            msg_port: self.msg_port,
            msgbox_port: self.msgbox_port,
            registry_port: self.registry_port,
        }
    }
}

/// A running full topology on one dispatcher host.
pub struct Deployment {
    registry: Arc<Registry>,
    rpc: RpcDispatcherServer,
    msg: Arc<MsgDispatcherServer>,
    msgbox: Arc<MsgBoxServer>,
    registry_service: RegistryServer,
    rpc_port: u16,
    msg_port: u16,
    msgbox_port: u16,
    registry_port: u16,
}

impl Deployment {
    /// Starts building a deployment on `host` with default ports
    /// (8081 RPC, 8080 MSG, 8082 WS-MsgBox, 8090 registry).
    pub fn builder(net: &Arc<Network>, host: &str) -> DeploymentBuilder {
        DeploymentBuilder {
            net: Arc::clone(net),
            host: host.to_string(),
            registry: None,
            msgbox_config: MsgBoxConfig::default(),
            rpc_port: 8081,
            msg_port: 8080,
            msgbox_port: 8082,
            registry_port: 8090,
            seed: 0xD15B,
        }
    }

    /// The shared registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// RPC-Dispatcher port.
    pub fn rpc_port(&self) -> u16 {
        self.rpc_port
    }

    /// MSG-Dispatcher port.
    pub fn msg_port(&self) -> u16 {
        self.msg_port
    }

    /// WS-MsgBox port.
    pub fn msgbox_port(&self) -> u16 {
        self.msgbox_port
    }

    /// Registry-service port.
    pub fn registry_port(&self) -> u16 {
        self.registry_port
    }

    /// The MSG dispatcher handle.
    pub fn msg_dispatcher(&self) -> &MsgDispatcherServer {
        &self.msg
    }

    /// The mailbox service handle.
    pub fn msgbox(&self) -> &MsgBoxServer {
        &self.msgbox
    }

    /// Stops every component.
    pub fn shutdown(&self) {
        self.registry_service.shutdown();
        self.msgbox.shutdown();
        self.msg.shutdown();
        self.rpc.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsgBoxStrategy;
    use crate::rt::{rpc_call, send_oneway, EchoServer, MailboxClient};
    use crate::url::Url;
    use std::time::Duration;
    use wsd_http::{HttpClient, Limits, Request};
    use wsd_soap::{rpc, SoapVersion};
    use wsd_wsa::{EndpointReference, WsaHeaders};

    /// Every listener parses under `Limits::default()`: a body one byte
    /// over `max_body` fails the call, as it does at the echo service
    /// (`echo_server::tests::default_limits_bound_body_size`). The
    /// thread-per-message mailbox serves on its own loop, so it is
    /// checked beside the deployment's four.
    #[test]
    fn every_front_end_bounds_the_body() {
        let net = Network::new();
        let deployment = Deployment::builder(&net, "dispatcher").start();
        let config = MsgBoxConfig {
            strategy: MsgBoxStrategy::ThreadPerMessage,
            ..MsgBoxConfig::default()
        };
        let per_message = MsgBoxServer::start(&net, "mailbox", 8082, config, 1);
        let d = &deployment;
        let listeners = [d.rpc_port(), d.msg_port(), d.msgbox_port(), d.registry_port()]
            .map(|port| ("dispatcher", port))
            .into_iter()
            .chain([("mailbox", 8082)]);
        let body = vec![b'x'; Limits::default().max_body + 1];
        for (host, port) in listeners {
            let mut client = HttpClient::new(net.connect(host, port).unwrap());
            let req = Request::soap_post(&format!("{host}:{port}"), "/", "text/xml", body.clone());
            let over = client.call(&req);
            assert!(over.is_err(), "{host}:{port} took a body over max_body");
        }
        per_message.shutdown();
        deployment.shutdown();
    }

    #[test]
    fn full_deployment_serves_both_styles() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let deployment = Deployment::builder(&net, "dispatcher").start();
        deployment
            .registry()
            .register("Echo", Url::parse("http://ws:8888/echo").unwrap());

        // RPC path.
        let resp = rpc_call(
            &net,
            "dispatcher",
            deployment.rpc_port(),
            "/svc/Echo",
            &rpc::echo_request(SoapVersion::V11, "rpc"),
            None,
        )
        .unwrap();
        assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "rpc");

        // MSG path with a mailbox.
        let mailbox = MailboxClient::create(&net, "dispatcher", deployment.msgbox_port()).unwrap();
        let mut env = rpc::echo_request(SoapVersion::V11, "msg");
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .reply_to(EndpointReference::new(mailbox.deposit_url()))
            .message_id("uuid:deploy-1")
            .apply(&mut env);
        send_oneway(&net, "dispatcher", deployment.msg_port(), "/msg", &env).unwrap();
        // The RPC-style WS answers synchronously; the MSG dispatcher
        // translates the response into a reply message for the mailbox.
        let got = mailbox
            .poll_until(10, Duration::from_millis(20), Duration::from_secs(5))
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(rpc::parse_echo_response(&got[0]).unwrap(), "msg");

        // Registry service answers too.
        let stream = net.connect("dispatcher", deployment.registry_port()).unwrap();
        let mut client = wsd_http::HttpClient::new(stream);
        let mut req = wsd_http::Request::get("dispatcher:8090", "/registry");
        req.headers.set("Connection", "close");
        let resp = client.call(&req).unwrap();
        assert!(resp.body_utf8().contains("Echo"));

        assert!(net.is_listening("dispatcher", deployment.rpc_port()));
        deployment.shutdown();
        assert!(!net.is_listening("dispatcher", deployment.rpc_port()));
        ws.shutdown();
    }
}
