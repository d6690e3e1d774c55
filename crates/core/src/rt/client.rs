//! Client-side helpers for the threaded runtime: RPC calls through the
//! dispatcher, one-way sends, and the mailbox client a peer with no
//! endpoint uses (paper §3: create a mailbox, hand out its address,
//! poll, destroy).

use std::sync::Arc;
use std::time::Duration;

use wsd_http::{HttpClient, Request, Response, Status};
use wsd_soap::{Envelope, SoapVersion};

use crate::error::WsdError;
use crate::msgbox::ops;
use crate::rt::Network;

/// Performs one SOAP-RPC exchange: connect, POST, parse the response
/// envelope.
pub fn rpc_call(
    net: &Arc<Network>,
    host: &str,
    port: u16,
    target: &str,
    env: &Envelope,
    response_timeout: Option<Duration>,
) -> Result<Envelope, WsdError> {
    let resp = exchange(net, (host, port, target), post_body(env), response_timeout)?;
    Envelope::parse(&resp.body_utf8()).map_err(WsdError::from)
}

/// `env`'s content type and serialised bytes, as a POST carries them.
fn post_body(env: &Envelope) -> (&'static str, Vec<u8>) {
    (env.version.content_type(), env.to_xml().into_bytes())
}

/// One POST of `body` under `content_type` to `target` at `host:port`,
/// on a connection of its own, up to the HTTP response, whose body is
/// left unparsed.
fn exchange(
    net: &Arc<Network>,
    (host, port, target): (&str, u16, &str),
    (content_type, body): (&str, Vec<u8>),
    response_timeout: Option<Duration>,
) -> Result<Response, WsdError> {
    let stream = net
        .connect(host, port)
        .map_err(|e| WsdError::Rejected(format!("connect failed: {e}")))?;
    let mut client = HttpClient::new(stream);
    if let Some(t) = response_timeout {
        client
            .set_response_timeout(Some(t))
            .map_err(|e| WsdError::Rejected(e.to_string()))?;
    }
    let mut req = Request::soap_post(&format!("{host}:{port}"), target, content_type, body);
    req.headers.set("Connection", "close");
    client
        .call(&req)
        .map_err(|e| WsdError::Rejected(format!("call failed: {e}")))
}

/// Sends a one-way message; succeeds on `202 Accepted`.
pub fn send_oneway(
    net: &Arc<Network>,
    host: &str,
    port: u16,
    target: &str,
    env: &Envelope,
) -> Result<(), WsdError> {
    send_oneway_bytes(net, (host, port, target), post_body(env))
}

/// [`send_oneway`] of a message already serialised: `body` under
/// `content_type`, POSTed to `target` at `host:port`.
pub(crate) fn send_oneway_bytes(
    net: &Arc<Network>,
    to: (&str, u16, &str),
    body: (&str, Vec<u8>),
) -> Result<(), WsdError> {
    let resp = exchange(net, to, body, None)?;
    if resp.status == Status::ACCEPTED {
        Ok(())
    } else {
        Err(WsdError::Rejected(format!(
            "one-way send answered {}",
            resp.status.0
        )))
    }
}

/// A client-held mailbox on a WS-MsgBox service.
pub struct MailboxClient {
    net: Arc<Network>,
    host: String,
    port: u16,
    box_id: String,
    key: String,
}

impl MailboxClient {
    /// Creates a mailbox on the service at `host:port`.
    pub fn create(net: &Arc<Network>, host: &str, port: u16) -> Result<MailboxClient, WsdError> {
        let resp = rpc_call(
            net,
            host,
            port,
            "/msgbox",
            &ops::create(SoapVersion::V11),
            Some(Duration::from_secs(10)),
        )?;
        let (box_id, key) = ops::parse_create_response(&resp)
            .ok_or(WsdError::Soap(wsd_soap::SoapError::BadRpc(
                "malformed createResponse",
            )))?;
        Ok(MailboxClient {
            net: Arc::clone(net),
            host: host.to_string(),
            port,
            box_id,
            key,
        })
    }

    /// Re-attaches to an existing mailbox (e.g. one that survived a
    /// service restart under the durable backend) without creating a
    /// new one. No network round trip: the next `poll` validates the
    /// key.
    pub fn attach(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        box_id: impl Into<String>,
        key: impl Into<String>,
    ) -> MailboxClient {
        MailboxClient {
            net: Arc::clone(net),
            host: host.to_string(),
            port,
            box_id: box_id.into(),
            key: key.into(),
        }
    }

    /// The mailbox id.
    pub fn box_id(&self) -> &str {
        &self.box_id
    }

    /// The secret access key (needed to re-[`attach`](Self::attach)
    /// after a restart).
    pub fn access_key(&self) -> &str {
        &self.key
    }

    /// The deposit URL other peers (or the dispatcher) use as this
    /// client's `wsa:ReplyTo`.
    pub fn deposit_url(&self) -> String {
        format!("http://{}:{}/deposit/{}", self.host, self.port, self.box_id)
    }

    /// Fetches up to `max` stored messages, parsing each back into an
    /// envelope. The fetch has already removed the batch from the
    /// mailbox, and `/deposit/<id>` stores whatever bytes it is sent, so
    /// a body that does not parse is skipped — failing here would lose
    /// every good reply picked up with it.
    ///
    /// The bodies are scanned out of the answer in place
    /// ([`ops::fetched_bodies`]); only an answer framed otherwise — a
    /// fault, a foreign server — is read as a tree.
    pub fn poll(&self, max: usize) -> Result<Vec<Envelope>, WsdError> {
        let resp = exchange(
            &self.net,
            (&self.host, self.port, "/msgbox"),
            post_body(&ops::fetch(SoapVersion::V11, &self.box_id, &self.key, max)),
            Some(Duration::from_secs(10)),
        )?;
        let text = resp.body_utf8();
        let Some(bodies) = ops::fetched_bodies(&text) else {
            return Err(match Envelope::parse(&text)?.as_fault() {
                Some(f) => WsdError::Rejected(f.reason.clone()),
                None => WsdError::Soap(wsd_soap::SoapError::BadRpc("malformed fetchResponse")),
            });
        };
        Ok(bodies
            .iter()
            .filter_map(|b| Envelope::parse(b).ok())
            .collect())
    }

    /// Polls repeatedly until at least one message arrives or `deadline`
    /// elapses.
    pub fn poll_until(
        &self,
        max: usize,
        interval: Duration,
        deadline: Duration,
    ) -> Result<Vec<Envelope>, WsdError> {
        use wsd_telemetry::Clock;
        let clock = wsd_telemetry::WallClock::new();
        let deadline_us = deadline.as_micros() as u64;
        loop {
            let got = self.poll(max)?;
            if !got.is_empty() || clock.now_us() >= deadline_us {
                return Ok(got);
            }
            wsd_concurrent::ordered::audit::assert_unlocked("MailboxClient::poll_until's interval");
            std::thread::sleep(interval);
        }
    }

    /// Destroys the mailbox.
    pub fn destroy(&self) -> Result<(), WsdError> {
        let resp = rpc_call(
            &self.net,
            &self.host,
            self.port,
            "/msgbox",
            &ops::destroy(SoapVersion::V11, &self.box_id, &self.key),
            Some(Duration::from_secs(10)),
        )?;
        if let Some(f) = resp.as_fault() {
            return Err(WsdError::Rejected(f.reason.clone()));
        }
        Ok(())
    }
}

impl std::fmt::Debug for MailboxClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxClient")
            .field("box_id", &self.box_id)
            .field("service", &format!("{}:{}", self.host, self.port))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MsgBoxConfig;
    use crate::rt::echo_server::EchoServer;
    use crate::rt::msgbox_server::MsgBoxServer;
    use wsd_soap::rpc as soap_rpc;

    #[test]
    fn rpc_call_against_echo_service() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let env = soap_rpc::echo_request(SoapVersion::V11, "direct");
        let resp = rpc_call(&net, "ws", 8888, "/echo", &env, None).unwrap();
        assert_eq!(soap_rpc::parse_echo_response(&resp).unwrap(), "direct");
        ws.shutdown();
    }

    #[test]
    fn rpc_call_to_dead_host_errors() {
        let net = Network::new();
        let env = soap_rpc::echo_request(SoapVersion::V11, "x");
        assert!(rpc_call(&net, "ghost", 1, "/", &env, None).is_err());
    }

    #[test]
    fn mailbox_deposit_url_shape() {
        let net = Network::new();
        let server = MsgBoxServer::start(&net, "msgbox", 8082, MsgBoxConfig::default(), 3);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let url = mbox.deposit_url();
        assert!(url.starts_with("http://msgbox:8082/deposit/mbox-"), "{url}");
        mbox.destroy().unwrap();
        // Destroyed: polling now faults.
        assert!(mbox.poll(1).is_err());
        server.shutdown();
    }

    #[test]
    fn poll_skips_an_unparseable_deposit_and_keeps_the_rest() {
        let net = Network::new();
        let server = MsgBoxServer::start(&net, "msgbox", 8082, MsgBoxConfig::default(), 3);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let url = crate::url::Url::parse(&mbox.deposit_url()).unwrap();
        let mut c = HttpClient::new(net.connect(&url.host, url.port).unwrap());
        let good = |text| soap_rpc::echo_response(SoapVersion::V11, text).to_xml();
        for body in [good("first"), "not xml".to_string(), good("second")] {
            let req =
                Request::soap_post(&url.authority(), &url.path, "text/xml", body.into_bytes());
            assert_eq!(c.call(&req).unwrap().status, Status::ACCEPTED);
        }
        let got = mbox.poll(10).unwrap();
        let texts: Vec<_> = got
            .iter()
            .map(|e| soap_rpc::parse_echo_response(e).unwrap())
            .collect();
        assert_eq!(texts, ["first", "second"]);
        server.shutdown();
    }

    #[test]
    fn poll_until_waits_for_arrival() {
        let net = Network::new();
        let server = MsgBoxServer::start(&net, "msgbox", 8082, MsgBoxConfig::default(), 3);
        let mbox = MailboxClient::create(&net, "msgbox", 8082).unwrap();
        let store = Arc::clone(&{
            // Deposit from another thread after a delay.
            let net = Arc::clone(&net);
            let deposit_url = mbox.deposit_url();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                let url = crate::url::Url::parse(&deposit_url).unwrap();
                let stream = net.connect(&url.host, url.port).unwrap();
                let mut c = HttpClient::new(stream);
                let body = soap_rpc::echo_response(SoapVersion::V11, "late").to_xml();
                let req = Request::soap_post(
                    &url.authority(),
                    &url.path,
                    "text/xml",
                    body.into_bytes(),
                );
                c.call(&req).unwrap();
            });
            Arc::new(())
        });
        let got = mbox
            .poll_until(10, Duration::from_millis(10), Duration::from_secs(5))
            .unwrap();
        drop(store);
        assert_eq!(got.len(), 1);
        assert_eq!(soap_rpc::parse_echo_response(&got[0]).unwrap(), "late");
        server.shutdown();
    }
}
