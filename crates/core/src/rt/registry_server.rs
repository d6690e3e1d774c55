//! The registry as its own browseable service (paper §4.1: "this
//! registry of services could be used like a directory or Yellow Pages,
//! possibly as a simple browseable list of WSDL files with metadata" and
//! §4.4: "allow simple interactions such as checking if service is
//! alive").
//!
//! Plain HTTP GET, so any client — even a browser — can use it:
//!
//! * `GET /registry` — all logical names, one per line;
//! * `GET /registry/<name>` — the entry: endpoints with live flags, and
//!   the WSDL metadata if registered;
//! * `GET /alive/<name>` — actively probes every endpoint right now,
//!   updating the registry's live flags, and reports the result.

use std::sync::Arc;

use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_http::{HttpClient, Method, Request, Response, Status};
use wsd_telemetry::Scope;

use crate::registry::Registry;
use crate::rt::{one_by_one, Network, ReactorFrontEnd};

/// A running registry service.
pub struct RegistryServer {
    front: ReactorFrontEnd,
}

impl RegistryServer {
    /// Starts the service on `host:port`.
    pub fn start(
        net: &Arc<Network>,
        host: &str,
        port: u16,
        registry: Arc<Registry>,
    ) -> RegistryServer {
        let pool = Arc::new(
            ThreadPool::new(PoolConfig::fixed(format!("registry-{host}"), 2)).expect("pool"),
        );
        let front = ReactorFrontEnd::start("reactor", pool, &Scope::noop());
        let net2 = Arc::clone(net);
        let handler = one_by_one(Arc::new(move |req| handle(&net2, &registry, req)));
        front.listen(net, host, port, handler);
        RegistryServer { front }
    }

    /// Client connections currently open (parked or being served).
    pub fn open_connections(&self) -> usize {
        self.front.open_connections()
    }

    /// Stops the service.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }
}

fn handle(net: &Arc<Network>, registry: &Registry, req: Request) -> Response {
    // POST /registry carries the SOAP registration operations
    // (register / unregister / lookup / list) — services register
    // themselves remotely.
    if req.method == Method::Post {
        if req.target != "/registry" {
            return Response::empty(Status::NOT_FOUND);
        }
        let Ok(env) = wsd_soap::Envelope::parse(&req.body_utf8()) else {
            return Response::empty(Status::BAD_REQUEST);
        };
        let resp_env = crate::registry_soap::handle_soap(registry, &env);
        return Response::new(
            Status::OK,
            env.version.content_type(),
            resp_env.to_xml().into_bytes(),
        );
    }
    if req.method != Method::Get {
        return Response::empty(Status::BAD_REQUEST);
    }
    if req.target == "/registry" {
        let body = registry.to_file_string();
        return Response::new(Status::OK, "text/plain; charset=utf-8", body.into_bytes());
    }
    if let Some(name) = req.target.strip_prefix("/registry/") {
        let Some(entry) = registry.entry(name) else {
            return Response::empty(Status::NOT_FOUND);
        };
        let live = entry.live_endpoints();
        let mut body = format!("service: {name}\n");
        for url in entry.endpoints() {
            let status = if live.contains(&url) { "alive" } else { "down" };
            body.push_str(&format!("endpoint: {url} [{status}]\n"));
        }
        if let Some(wsdl) = &entry.wsdl {
            body.push_str("wsdl:\n");
            body.push_str(wsdl);
            body.push('\n');
        }
        return Response::new(Status::OK, "text/plain; charset=utf-8", body.into_bytes());
    }
    if let Some(name) = req.target.strip_prefix("/alive/") {
        let Some(entry) = registry.entry(name) else {
            return Response::empty(Status::NOT_FOUND);
        };
        let mut body = String::new();
        for url in entry.endpoints() {
            let alive = probe(net, &url);
            if alive {
                registry.mark_alive(name, &url);
            } else {
                registry.mark_down(name, &url);
            }
            body.push_str(&format!(
                "{url} {}\n",
                if alive { "alive" } else { "down" }
            ));
        }
        return Response::new(Status::OK, "text/plain; charset=utf-8", body.into_bytes());
    }
    Response::empty(Status::NOT_FOUND)
}

/// Is anything answering at `url`? A successful HTTP exchange — any
/// status — counts as alive; connect failure counts as down.
fn probe(net: &Arc<Network>, url: &crate::url::Url) -> bool {
    let Ok(stream) = net.connect(&url.host, url.port) else {
        return false;
    };
    let mut client = HttpClient::new(stream);
    let _ = client.set_response_timeout(Some(std::time::Duration::from_secs(2)));
    let mut req = Request::get(&url.authority(), &url.path);
    req.headers.set("Connection", "close");
    client.call(&req).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::echo_server::EchoServer;
    use crate::url::Url;
    use std::time::Duration;

    fn get(net: &Arc<Network>, target: &str) -> (Status, String) {
        let stream = net.connect("registry", 8090).unwrap();
        let mut client = HttpClient::new(stream);
        let mut req = Request::get("registry:8090", target);
        req.headers.set("Connection", "close");
        let resp = client.call(&req).unwrap();
        (resp.status, resp.body_utf8().to_string())
    }

    fn setup(net: &Arc<Network>) -> (Arc<Registry>, RegistryServer) {
        let registry = Arc::new(Registry::new());
        registry.register_many(
            "Echo",
            vec![
                Url::parse("http://ws:8888/echo").unwrap(),
                Url::parse("http://ws-dead:8888/echo").unwrap(),
            ],
            Some("<definitions name=\"Echo\"/>".into()),
        );
        let server = RegistryServer::start(net, "registry", 8090, Arc::clone(&registry));
        (registry, server)
    }

    #[test]
    fn lists_services_in_file_format() {
        let net = Network::new();
        let (_registry, server) = setup(&net);
        let (status, body) = get(&net, "/registry");
        assert_eq!(status, Status::OK);
        assert!(body.contains("Echo http://ws:8888/echo,http://ws-dead:8888/echo"), "{body}");
        // The browse output is itself loadable registry configuration.
        let reloaded = Registry::new();
        assert_eq!(reloaded.load_from_str(&body).unwrap(), 1);
        server.shutdown();
    }

    #[test]
    fn idle_keep_alive_clients_do_not_starve_a_fresh_one() {
        let net = Network::new();
        let (_registry, server) = setup(&net);
        // More browsers than the service has threads, each keeping its
        // connection open after one exchange.
        let mut idle = Vec::new();
        for i in 0..9 {
            let mut client = HttpClient::new(net.connect("registry", 8090).unwrap());
            client.set_response_timeout(Some(Duration::from_secs(2))).unwrap();
            let resp = client.call(&Request::get("registry:8090", "/registry"));
            assert_eq!(resp.map(|r| r.status), Ok(Status::OK), "client {i} starved");
            idle.push(client);
        }
        assert_eq!(server.open_connections(), 9);
        server.shutdown();
        assert_eq!(server.open_connections(), 0);
    }

    #[test]
    fn shows_entry_with_wsdl() {
        let net = Network::new();
        let (_registry, server) = setup(&net);
        let (status, body) = get(&net, "/registry/Echo");
        assert_eq!(status, Status::OK);
        assert!(body.contains("endpoint: http://ws:8888/echo [alive]"));
        assert!(body.contains("<definitions name=\"Echo\"/>"));
        let (status, _) = get(&net, "/registry/Nope");
        assert_eq!(status, Status::NOT_FOUND);
        server.shutdown();
    }

    #[test]
    fn alive_probe_updates_liveness() {
        let net = Network::new();
        let (registry, server) = setup(&net);
        // Only one of the two endpoints actually runs.
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let (status, body) = get(&net, "/alive/Echo");
        assert_eq!(status, Status::OK);
        assert!(body.contains("http://ws:8888/echo alive"), "{body}");
        assert!(body.contains("http://ws-dead:8888/echo down"), "{body}");
        // The probe updated the registry: lookups now avoid the corpse.
        let entry = registry.entry("Echo").unwrap();
        assert_eq!(entry.live_endpoints().len(), 1);
        // And a second probe can revive it if it comes back.
        let revived = EchoServer::start(&net, "ws-dead", 8888, 2, Duration::ZERO);
        let (_, body) = get(&net, "/alive/Echo");
        assert!(body.contains("http://ws-dead:8888/echo alive"), "{body}");
        assert_eq!(registry.entry("Echo").unwrap().live_endpoints().len(), 2);
        revived.shutdown();
        ws.shutdown();
        server.shutdown();
    }

    #[test]
    fn malformed_post_rejected() {
        let net = Network::new();
        let (_registry, server) = setup(&net);
        let stream = net.connect("registry", 8090).unwrap();
        let mut client = HttpClient::new(stream);
        let mut req =
            Request::soap_post("registry:8090", "/registry", "text/xml", b"junk".to_vec());
        req.headers.set("Connection", "close");
        assert_eq!(client.call(&req).unwrap().status, Status::BAD_REQUEST);
        server.shutdown();
    }

    #[test]
    fn remote_service_registers_itself_over_soap() {
        use crate::registry_soap::ops;
        use wsd_soap::{Envelope, SoapVersion};
        let net = Network::new();
        let registry = Arc::new(Registry::new());
        let server = RegistryServer::start(&net, "registry", 8090, Arc::clone(&registry));
        // A service announces itself.
        let env = ops::register(
            SoapVersion::V11,
            "SelfRegistered",
            &["http://me:7000/svc".into()],
            None,
        );
        let resp = crate::rt::client::rpc_call(&net, "registry", 8090, "/registry", &env, None)
            .unwrap();
        assert!(resp.as_fault().is_none());
        assert_eq!(
            registry.lookup("SelfRegistered").unwrap().to_string(),
            "http://me:7000/svc"
        );
        // And a peer discovers it by lookup.
        let env = ops::lookup(SoapVersion::V11, "SelfRegistered");
        let resp: Envelope =
            crate::rt::client::rpc_call(&net, "registry", 8090, "/registry", &env, None).unwrap();
        assert_eq!(
            ops::parse_lookup_response(&resp).as_deref(),
            Some("http://me:7000/svc")
        );
        server.shutdown();
    }
}
