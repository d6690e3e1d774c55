//! The service registry: logical → physical address mapping.
//!
//! Both dispatchers share it (paper §4.1: "Both dispatchers share a
//! common functionality: registry of services ... the registry is an
//! independent module"). Entries map a logical name to one or more
//! permanent physical addresses; the concurrent map mirrors the paper's
//! use of the Concurrent Java Library, and the text-file format mirrors
//! its "simple registry service that uses text files".
//!
//! The paper's future-work items are implemented here too: load balancing
//! across a farm of endpoints ([`BalanceStrategy`]), liveness marking
//! (`mark_down` / `mark_alive`, "checking if service is alive"), and a
//! browseable listing with WSDL metadata (the "Yellow Pages").

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use wsd_concurrent::ShardedMap;

use crate::error::WsdError;
use crate::url::Url;

/// Endpoint selection policy when an entry has several physical
/// addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BalanceStrategy {
    /// Always the first live endpoint (primary/backup).
    #[default]
    First,
    /// Rotate across live endpoints.
    RoundRobin,
    /// Pick the live endpoint with the fewest dispatched-in-flight
    /// requests.
    LeastPending,
}

/// One registered service.
#[derive(Debug)]
pub struct ServiceEntry {
    /// Logical name clients use (`/svc/<name>`).
    pub logical: String,
    /// Physical endpoints.
    endpoints: Vec<EndpointState>,
    /// Optional WSDL (or any descriptive metadata) for browsing.
    pub wsdl: Option<String>,
    rr_cursor: AtomicUsize,
}

#[derive(Debug)]
struct EndpointState {
    url: Url,
    /// `url` rendered once, at registration: what a forward writes into
    /// the rewritten `To`.
    rendered: Arc<str>,
    alive: AtomicBool,
    pending: AtomicUsize,
}

impl ServiceEntry {
    fn new(logical: String, urls: Vec<Url>, wsdl: Option<String>) -> Self {
        ServiceEntry {
            logical,
            endpoints: urls
                .into_iter()
                .map(|url| EndpointState {
                    rendered: url.to_string().into(),
                    url,
                    alive: AtomicBool::new(true),
                    pending: AtomicUsize::new(0),
                })
                .collect(),
            wsdl,
            rr_cursor: AtomicUsize::new(0),
        }
    }

    /// All endpoint URLs, in registration order.
    pub fn endpoints(&self) -> Vec<Url> {
        self.endpoints.iter().map(|e| e.url.clone()).collect()
    }

    /// Endpoint URLs currently marked alive.
    pub fn live_endpoints(&self) -> Vec<Url> {
        self.endpoints
            .iter()
            .filter(|e| e.alive.load(Ordering::Relaxed))
            .map(|e| e.url.clone())
            .collect()
    }

    fn select(&self, strategy: BalanceStrategy) -> Option<&EndpointState> {
        let mut live = self.endpoints.iter().filter(|e| e.alive.load(Ordering::Relaxed));
        match strategy {
            BalanceStrategy::First => live.next(),
            BalanceStrategy::RoundRobin => {
                let n = live.clone().count();
                if n == 0 {
                    return None;
                }
                let i = self.rr_cursor.fetch_add(1, Ordering::Relaxed);
                live.nth(i % n)
            }
            BalanceStrategy::LeastPending => live.min_by_key(|e| e.pending.load(Ordering::Relaxed)),
        }
    }

    fn state_of(&self, url: &Url) -> Option<&EndpointState> {
        self.endpoints.iter().find(|e| &e.url == url)
    }
}

/// The registry: a sharded concurrent map of entries plus a selection
/// strategy.
pub struct Registry {
    map: ShardedMap<String, Arc<ServiceEntry>>,
    strategy: BalanceStrategy,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry with the default (First) strategy.
    pub fn new() -> Self {
        Registry {
            map: ShardedMap::new(),
            strategy: BalanceStrategy::default(),
        }
    }

    /// Sets the balancing strategy. Returns `self` for chaining.
    pub fn with_strategy(mut self, strategy: BalanceStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active strategy.
    pub fn strategy(&self) -> BalanceStrategy {
        self.strategy
    }

    /// Registers (or replaces) a service with one endpoint.
    pub fn register(&self, logical: impl Into<String>, url: Url) {
        self.register_many(logical, vec![url], None);
    }

    /// Registers (or replaces) a service with a farm of endpoints and
    /// optional WSDL metadata.
    pub fn register_many(&self, logical: impl Into<String>, urls: Vec<Url>, wsdl: Option<String>) {
        let logical = logical.into();
        let entry = Arc::new(ServiceEntry::new(logical.clone(), urls, wsdl));
        self.map.insert(logical, entry);
    }

    /// Removes a service; returns whether it existed.
    pub fn unregister(&self, logical: &str) -> bool {
        self.map.remove(logical).is_some()
    }

    /// Resolves a logical name to a physical endpoint per the strategy.
    pub fn lookup(&self, logical: &str) -> Result<Url, WsdError> {
        self.with_selected(logical, |e| e.url.clone())
    }

    /// [`lookup`](Self::lookup), with the endpoint's address also as the
    /// text it was rendered to at registration: a shared handle, not a
    /// fresh `String`.
    pub fn resolve(&self, logical: &str) -> Result<(Url, Arc<str>), WsdError> {
        self.with_selected(logical, |e| (e.url.clone(), Arc::clone(&e.rendered)))
    }

    fn with_selected<R>(
        &self,
        logical: &str,
        read: impl FnOnce(&EndpointState) -> R,
    ) -> Result<R, WsdError> {
        let entry = self
            .map
            .get(logical)
            .ok_or_else(|| WsdError::UnknownService(logical.to_string()))?;
        entry
            .select(self.strategy)
            .map(read)
            .ok_or_else(|| WsdError::UnknownService(format!("{logical} (no live endpoint)")))
    }

    /// The full entry, for browsing.
    pub fn entry(&self, logical: &str) -> Option<Arc<ServiceEntry>> {
        self.map.get(logical)
    }

    /// Marks one endpoint of a service dead (liveness checking).
    pub fn mark_down(&self, logical: &str, url: &Url) {
        if let Some(entry) = self.map.get(logical) {
            if let Some(e) = entry.state_of(url) {
                e.alive.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Marks one endpoint alive again.
    pub fn mark_alive(&self, logical: &str, url: &Url) {
        if let Some(entry) = self.map.get(logical) {
            if let Some(e) = entry.state_of(url) {
                e.alive.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Notes a request dispatched to `url` (LeastPending accounting).
    pub fn note_dispatched(&self, logical: &str, url: &Url) {
        if let Some(entry) = self.map.get(logical) {
            if let Some(e) = entry.state_of(url) {
                e.pending.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Notes a request to `url` completed.
    pub fn note_completed(&self, logical: &str, url: &Url) {
        if let Some(entry) = self.map.get(logical) {
            if let Some(e) = entry.state_of(url) {
                let _ = e
                    .pending
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
            }
        }
    }

    /// All logical names, sorted — the browseable "Yellow Pages".
    pub fn list(&self) -> Vec<String> {
        let mut names = self.map.keys();
        names.sort();
        names
    }

    /// Removes every entry — used when a replication follower installs
    /// a full-resync snapshot over whatever it held before.
    pub fn clear(&self) {
        self.map.clear();
    }

    /// Number of registered services.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no services are registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    // ----- text-file format (paper: "uses text files for mapping") -----
    //
    //   # comment / blank lines ignored
    //   <logical> <url>[,<url>...]
    //
    /// Loads entries from the text format, replacing same-named entries.
    /// Returns how many entries were loaded.
    pub fn load_from_str(&self, text: &str) -> Result<usize, WsdError> {
        let mut loaded = 0;
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (logical, rest) = line
                .split_once(char::is_whitespace)
                .ok_or_else(|| WsdError::BadAddress(line.to_string()))?;
            let urls = rest
                .trim()
                .split(',')
                .map(|u| Url::parse(u.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            if urls.is_empty() {
                return Err(WsdError::BadAddress(line.to_string()));
            }
            self.register_many(logical, urls, None);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Serializes every entry to the text format (sorted, stable).
    pub fn to_file_string(&self) -> String {
        let mut out = String::from("# WS-Dispatcher service registry\n");
        for name in self.list() {
            if let Some(entry) = self.map.get(&name) {
                let urls: Vec<String> =
                    entry.endpoints().iter().map(|u| u.to_string()).collect();
                out.push_str(&format!("{name} {}\n", urls.join(",")));
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("services", &self.map.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn register_lookup_unregister() {
        let r = Registry::new();
        r.register("Echo", url("http://ws1:8888/echo"));
        assert_eq!(r.lookup("Echo").unwrap(), url("http://ws1:8888/echo"));
        let (resolved, rendered) = r.resolve("Echo").unwrap();
        assert_eq!(resolved, url("http://ws1:8888/echo"));
        assert_eq!(&*rendered, "http://ws1:8888/echo");
        assert!(r.unregister("Echo"));
        assert!(matches!(
            r.lookup("Echo"),
            Err(WsdError::UnknownService(_))
        ));
        assert!(!r.unregister("Echo"));
    }

    #[test]
    fn round_robin_rotates_evenly() {
        let r = Registry::new().with_strategy(BalanceStrategy::RoundRobin);
        r.register_many(
            "S",
            vec![url("http://a/"), url("http://b/"), url("http://c/")],
            None,
        );
        let mut counts = std::collections::HashMap::new();
        for _ in 0..300 {
            *counts.entry(r.lookup("S").unwrap().host).or_insert(0) += 1;
        }
        assert_eq!(counts["a"], 100);
        assert_eq!(counts["b"], 100);
        assert_eq!(counts["c"], 100);
    }

    #[test]
    fn first_strategy_prefers_primary_until_down() {
        let r = Registry::new();
        r.register_many("S", vec![url("http://a/"), url("http://b/")], None);
        assert_eq!(r.lookup("S").unwrap().host, "a");
        r.mark_down("S", &url("http://a/"));
        assert_eq!(r.lookup("S").unwrap().host, "b");
        r.mark_alive("S", &url("http://a/"));
        assert_eq!(r.lookup("S").unwrap().host, "a");
    }

    #[test]
    fn all_endpoints_down_is_unknown() {
        let r = Registry::new();
        r.register_many("S", vec![url("http://a/")], None);
        r.mark_down("S", &url("http://a/"));
        assert!(r.lookup("S").is_err());
        assert!(r.entry("S").unwrap().live_endpoints().is_empty());
    }

    #[test]
    fn least_pending_prefers_idle_endpoint() {
        let r = Registry::new().with_strategy(BalanceStrategy::LeastPending);
        r.register_many("S", vec![url("http://a/"), url("http://b/")], None);
        r.note_dispatched("S", &url("http://a/"));
        r.note_dispatched("S", &url("http://a/"));
        r.note_dispatched("S", &url("http://b/"));
        assert_eq!(r.lookup("S").unwrap().host, "b");
        r.note_completed("S", &url("http://a/"));
        r.note_completed("S", &url("http://a/"));
        assert_eq!(r.lookup("S").unwrap().host, "a");
    }

    #[test]
    fn note_completed_never_underflows() {
        let r = Registry::new();
        r.register("S", url("http://a/"));
        r.note_completed("S", &url("http://a/"));
        r.note_completed("S", &url("http://a/"));
        // Still selectable.
        assert!(r.lookup("S").is_ok());
    }

    #[test]
    fn file_format_round_trips() {
        let r = Registry::new();
        r.register("Echo", url("http://ws1:8888/echo"));
        r.register_many(
            "Farm",
            vec![url("http://a:1/s"), url("http://b:2/s")],
            None,
        );
        let text = r.to_file_string();
        let r2 = Registry::new();
        assert_eq!(r2.load_from_str(&text).unwrap(), 2);
        assert_eq!(r2.lookup("Echo").unwrap(), url("http://ws1:8888/echo"));
        assert_eq!(r2.entry("Farm").unwrap().endpoints().len(), 2);
        assert_eq!(r2.list(), vec!["Echo".to_string(), "Farm".to_string()]);
    }

    #[test]
    fn file_format_tolerates_comments_and_blanks() {
        let text = "\n# registry\n  \nEcho http://a/x # trailing comment\n";
        let r = Registry::new();
        assert_eq!(r.load_from_str(text).unwrap(), 1);
        assert_eq!(r.lookup("Echo").unwrap(), url("http://a/x"));
    }

    #[test]
    fn file_format_rejects_garbage() {
        let r = Registry::new();
        assert!(r.load_from_str("just-one-token").is_err());
        assert!(r.load_from_str("name ftp://nope/").is_err());
    }

    #[test]
    fn wsdl_metadata_browseable() {
        let r = Registry::new();
        r.register_many(
            "Echo",
            vec![url("http://a/")],
            Some("<definitions/>".to_string()),
        );
        assert_eq!(
            r.entry("Echo").unwrap().wsdl.as_deref(),
            Some("<definitions/>")
        );
    }

    #[test]
    fn concurrent_lookups_and_registrations() {
        use std::sync::Arc;
        let r = Arc::new(Registry::new().with_strategy(BalanceStrategy::RoundRobin));
        r.register_many("S", vec![url("http://a/"), url("http://b/")], None);
        let mut hs = Vec::new();
        for t in 0..4 {
            let r = Arc::clone(&r);
            hs.push(std::thread::spawn(move || {
                for i in 0..200 {
                    r.lookup("S").unwrap();
                    r.register(format!("svc-{t}-{i}"), url("http://x/"));
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 1 + 4 * 200);
    }
}
