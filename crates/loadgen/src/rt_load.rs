//! Wall-clock load generation against the threaded runtime (used by the
//! Criterion benches and the overhead examples).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wsd_concurrent::{PoolConfig, ThreadPool};
use wsd_core::rt::Network;
use wsd_http::{HttpClient, Request};
use wsd_soap::{rpc as soap_rpc, SoapVersion};
use wsd_telemetry::{Clock, WallClock};

use crate::stats::{LatencySummary, RunTotals};

/// Runs `clients` pool workers, each ping-ponging the paper's echo
/// message to `host:port``path` for `duration`, over one keep-alive
/// connection each. Workers come from a fixed [`ThreadPool`] and all
/// timing flows through one shared [`WallClock`], so the load generator
/// observes the same thread and clock disciplines as the system under
/// test.
pub fn run_rpc_load(
    net: &Arc<Network>,
    host: &str,
    port: u16,
    path: &str,
    clients: usize,
    duration: Duration,
) -> RunTotals {
    let transmitted = Arc::new(AtomicU64::new(0));
    let not_sent = Arc::new(AtomicU64::new(0));
    let latencies = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let env = soap_rpc::paper_echo_request();
    let body = env.to_xml().into_bytes();
    let clock = Arc::new(WallClock::new());
    let deadline_us = clock.now_us().saturating_add(duration.as_micros() as u64);
    let pool = ThreadPool::new(PoolConfig::fixed("rpc-load", clients.max(1)))
        .expect("load generator pool");
    for _ in 0..clients {
        let net = Arc::clone(net);
        let host = host.to_string();
        let path = path.to_string();
        let body = body.clone();
        let transmitted = Arc::clone(&transmitted);
        let not_sent = Arc::clone(&not_sent);
        let latencies = Arc::clone(&latencies);
        let clock = Arc::clone(&clock);
        let submitted = pool.execute(move || {
            let mut client: Option<HttpClient<wsd_http::PipeStream>> = None;
            let mut local_lat = Vec::new();
            while clock.now_us() < deadline_us {
                if client.is_none() {
                    match net.connect(&host, port) {
                        Ok(s) => client = Some(HttpClient::new(s)),
                        Err(_) => {
                            not_sent.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                }
                let Some(c) = client.as_mut() else { break };
                let req = Request::soap_post(
                    &format!("{host}:{port}"),
                    &path,
                    SoapVersion::V11.content_type(),
                    body.clone(),
                );
                let t0 = clock.now_us();
                match c.call(&req) {
                    Ok(resp) if resp.status.is_success() => {
                        transmitted.fetch_add(1, Ordering::Relaxed);
                        local_lat.push(clock.now_us().saturating_sub(t0));
                    }
                    _ => {
                        not_sent.fetch_add(1, Ordering::Relaxed);
                        client = None;
                    }
                }
            }
            latencies.lock().extend(local_lat);
        });
        if submitted.is_err() {
            break; // pool rejected the worker; run with fewer clients
        }
    }
    // Runs every queued worker to completion and joins the pool.
    pool.shutdown();
    let samples = std::mem::take(&mut *latencies.lock());
    RunTotals {
        transmitted: transmitted.load(Ordering::Relaxed),
        not_sent: not_sent.load(Ordering::Relaxed),
        latency: Some(LatencySummary::of(samples)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsd_core::rt::EchoServer;

    #[test]
    fn load_run_counts_round_trips() {
        let net = Network::new();
        let server = EchoServer::start(&net, "ws", 8888, 4, Duration::ZERO);
        let totals = run_rpc_load(&net, "ws", 8888, "/echo", 4, Duration::from_millis(200));
        assert!(totals.transmitted > 10, "{}", totals.transmitted);
        assert_eq!(totals.not_sent, 0);
        assert_eq!(server.served(), totals.transmitted);
        let lat = totals.latency.unwrap();
        assert_eq!(lat.count as u64, totals.transmitted);
        server.shutdown();
    }

    #[test]
    fn load_against_nothing_counts_failures() {
        let net = Network::new();
        let totals = run_rpc_load(&net, "ghost", 1, "/", 2, Duration::from_millis(50));
        assert_eq!(totals.transmitted, 0);
        assert!(totals.not_sent > 0);
    }
}
