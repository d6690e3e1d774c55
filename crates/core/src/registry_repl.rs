//! Registry replication: one leader, N followers, PSYNC shape.
//!
//! Every dispatcher instance in a fleet needs the same logical →
//! physical mapping, but only one instance (the leader) accepts
//! registrations. Mutations are serialized into a compact command
//! stream — `+<logical> <url>[,<url>...]` registers or replaces,
//! `-<logical>` unregisters — and replicated the way Redis does it:
//!
//! * a follower **attaches** by sending the offset it has applied up
//!   to; if that offset is still inside the leader's bounded backlog it
//!   gets a **partial resync** (just the missed commands), otherwise a
//!   **full resync** (the registry's text-file snapshot plus the offset
//!   it corresponds to);
//! * after attach the follower tails the stream through a
//!   [`FollowerCursor`], which rejects offset regressions (a replayed
//!   command must never double-apply) and turns gaps into a fresh full
//!   resync.
//!
//! The snapshot *is* the paper's text-file registry format
//! ([`Registry::to_file_string`]) — replication is literally "ship the
//! text file, then tail the edits".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use wsd_fleet::{Admit, FollowerCursor, ReplLog};

use crate::error::WsdError;
use crate::registry::Registry;
use crate::url::Url;

/// What the leader hands a follower at attach time.
#[derive(Debug, Clone)]
pub enum Attach {
    /// The follower's offset was reachable from the backlog: replay
    /// just these `(offset, command)` pairs.
    Partial(Vec<(u64, String)>),
    /// The follower is too far behind (or brand new): install this
    /// snapshot, then start a cursor at `offset`.
    Full {
        /// Registry text-file snapshot ([`Registry::to_file_string`]).
        snapshot: String,
        /// Leader replication offset the snapshot corresponds to.
        offset: u64,
    },
}

/// Leader side: owns the authoritative [`Registry`] and the command
/// backlog. All mutations must flow through it so they replicate.
pub struct RegistryLeader {
    registry: Arc<Registry>,
    log: Mutex<ReplLog>,
}

impl RegistryLeader {
    /// Wraps `registry` as the authoritative copy, retaining up to
    /// `backlog` commands for partial resync.
    pub fn new(registry: Arc<Registry>, backlog: usize) -> RegistryLeader {
        RegistryLeader {
            registry,
            log: Mutex::new(ReplLog::new(backlog)),
        }
    }

    /// The authoritative registry (read-only use; mutate via the
    /// leader so changes replicate).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Current replication offset (`master_repl_offset`).
    pub fn offset(&self) -> u64 {
        self.log.lock().offset()
    }

    /// Registers (or replaces) a service and replicates the command.
    /// Returns the command's offset.
    pub fn register_many(&self, logical: &str, urls: Vec<Url>) -> u64 {
        let joined = urls
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.registry.register_many(logical, urls, None);
        self.log.lock().append(format!("+{logical} {joined}"))
    }

    /// Single-endpoint convenience for [`RegistryLeader::register_many`].
    pub fn register(&self, logical: &str, url: Url) -> u64 {
        self.register_many(logical, vec![url])
    }

    /// Unregisters a service and replicates the command.
    pub fn unregister(&self, logical: &str) -> u64 {
        self.registry.unregister(logical);
        self.log.lock().append(format!("-{logical}"))
    }

    /// Attach decision for a follower that has applied up to `from`
    /// (`None` = brand new, always a full resync).
    pub fn attach(&self, from: Option<u64>) -> Attach {
        let log = self.log.lock();
        if let Some(from) = from {
            if let Some(cmds) = log.commands_since(from) {
                return Attach::Partial(
                    cmds.into_iter().map(|(o, c)| (o, c.to_string())).collect(),
                );
            }
        }
        // Snapshot and offset under one lock hold, so they agree.
        Attach::Full {
            snapshot: self.registry.to_file_string(),
            offset: log.offset(),
        }
    }

    /// The `(offset, command)` stream since `from`, if the backlog
    /// still reaches that far; the live tailing path between control
    /// ticks.
    pub fn commands_since(&self, from: u64) -> Option<Vec<(u64, String)>> {
        self.log
            .lock()
            .commands_since(from)
            .map(|cmds| cmds.into_iter().map(|(o, c)| (o, c.to_string())).collect())
    }
}

impl std::fmt::Debug for RegistryLeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryLeader")
            .field("offset", &self.offset())
            .field("services", &self.registry.len())
            .finish()
    }
}

/// Follower side: a local [`Registry`] replica plus the apply cursor
/// and resync counters.
pub struct RegistryFollower {
    registry: Arc<Registry>,
    cursor: Mutex<FollowerCursor>,
    attached: Mutex<bool>,
    stale_rejected: AtomicU64,
    full_resyncs: AtomicU64,
}

impl RegistryFollower {
    /// Wraps `registry` as this instance's replica. It starts
    /// detached: the first [`RegistryFollower::catch_up`] performs a
    /// full resync regardless of what the replica holds.
    pub fn new(registry: Arc<Registry>) -> RegistryFollower {
        RegistryFollower {
            registry,
            cursor: Mutex::new(FollowerCursor::start_at(0)),
            attached: Mutex::new(false),
            stale_rejected: AtomicU64::new(0),
            full_resyncs: AtomicU64::new(0),
        }
    }

    /// The local replica (reads only — it mirrors the leader).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Offset of the next command this follower expects.
    pub fn offset(&self) -> u64 {
        self.cursor.lock().offset()
    }

    /// Commands rejected as offset regressions so far.
    fn stale_rejected(&self) -> u64 {
        self.stale_rejected.load(Ordering::Relaxed)
    }

    /// Full resyncs performed so far (1 = just the initial attach).
    fn full_resyncs(&self) -> u64 {
        self.full_resyncs.load(Ordering::Relaxed)
    }

    /// Installs a full-resync snapshot, replacing the replica's
    /// contents and restarting the cursor at `offset`.
    fn install_snapshot(&self, snapshot: &str, offset: u64) -> Result<usize, WsdError> {
        self.registry.clear();
        let loaded = self.registry.load_from_str(snapshot)?;
        *self.cursor.lock() = FollowerCursor::start_at(offset);
        *self.attached.lock() = true;
        self.full_resyncs.fetch_add(1, Ordering::Relaxed);
        Ok(loaded)
    }

    /// Offers one replicated command stamped `offset`. Applies it only
    /// if it is the next expected offset; regressions bump the
    /// `stale_rejected` counter, gaps tell the caller to full-resync.
    pub fn apply(&self, offset: u64, command: &str) -> Result<Admit, WsdError> {
        let mut cursor = self.cursor.lock();
        // Probe a copy: the cursor only advances once the command has
        // actually applied, so a parse error cannot desync the replica.
        let mut probe = *cursor;
        let verdict = probe.admit(offset);
        match verdict {
            Admit::Apply => {
                self.apply_command(command)?;
                *cursor = probe;
            }
            Admit::StaleRejected => {
                self.stale_rejected.fetch_add(1, Ordering::Relaxed);
            }
            Admit::GapResync => {}
        }
        Ok(verdict)
    }

    /// Pulls this follower up to the leader's current offset:
    /// partial-resyncs through the backlog when possible, falls back
    /// to a full snapshot install when not (first attach, backlog
    /// overrun, or a detected gap). Returns the commands applied.
    pub fn catch_up(&self, leader: &RegistryLeader) -> Result<usize, WsdError> {
        let from = {
            let attached = self.attached.lock();
            if *attached {
                Some(self.cursor.lock().offset())
            } else {
                None
            }
        };
        match leader.attach(from) {
            Attach::Partial(cmds) => {
                let mut applied = 0;
                for (off, cmd) in cmds {
                    match self.apply(off, &cmd)? {
                        Admit::Apply => applied += 1,
                        Admit::StaleRejected => {}
                        Admit::GapResync => {
                            // The stream and our cursor disagree;
                            // start over from a snapshot.
                            return self.full_resync(leader);
                        }
                    }
                }
                Ok(applied)
            }
            Attach::Full { snapshot, offset } => {
                self.install_snapshot(&snapshot, offset)?;
                Ok(0)
            }
        }
    }

    fn full_resync(&self, leader: &RegistryLeader) -> Result<usize, WsdError> {
        match leader.attach(None) {
            Attach::Full { snapshot, offset } => {
                self.install_snapshot(&snapshot, offset)?;
                Ok(0)
            }
            Attach::Partial(_) => unreachable!("attach(None) is always a full resync"),
        }
    }

    fn apply_command(&self, command: &str) -> Result<(), WsdError> {
        if let Some(rest) = command.strip_prefix('+') {
            let (logical, urls) = rest
                .split_once(' ')
                .ok_or_else(|| WsdError::BadAddress(command.to_string()))?;
            let urls = urls
                .split(',')
                .map(|u| Url::parse(u.trim()))
                .collect::<Result<Vec<_>, _>>()?;
            self.registry.register_many(logical, urls, None);
            Ok(())
        } else if let Some(logical) = command.strip_prefix('-') {
            self.registry.unregister(logical);
            Ok(())
        } else {
            Err(WsdError::BadAddress(command.to_string()))
        }
    }
}

impl std::fmt::Debug for RegistryFollower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryFollower")
            .field("offset", &self.offset())
            .field("services", &self.registry.len())
            .field("stale_rejected", &self.stale_rejected())
            .field("full_resyncs", &self.full_resyncs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn leader_with(n: usize, backlog: usize) -> RegistryLeader {
        let leader = RegistryLeader::new(Arc::new(Registry::new()), backlog);
        for i in 0..n {
            leader.register(&format!("svc-{i}"), url(&format!("http://h{i}:1/s")));
        }
        leader
    }

    fn converged(leader: &RegistryLeader, follower: &RegistryFollower) -> bool {
        follower.offset() == leader.offset()
            && follower.registry().to_file_string() == leader.registry().to_file_string()
    }

    #[test]
    fn fresh_follower_full_resyncs_then_tails() {
        let leader = leader_with(3, 64);
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.catch_up(&leader).unwrap();
        assert_eq!(follower.full_resyncs(), 1);
        assert!(converged(&leader, &follower));

        // Leader keeps mutating; the follower partial-resyncs.
        leader.register("late", url("http://late:9/s"));
        leader.unregister("svc-0");
        assert_eq!(follower.catch_up(&leader).unwrap(), 2);
        assert_eq!(follower.full_resyncs(), 1, "no second snapshot needed");
        assert!(converged(&leader, &follower));
        assert!(follower.registry().lookup("svc-0").is_err());
        assert_eq!(
            follower.registry().lookup("late").unwrap(),
            url("http://late:9/s")
        );
    }

    // Satellite 3: follower attaching mid-stream gets a snapshot plus
    // catch-up and converges.
    #[test]
    fn attach_mid_stream_converges() {
        let leader = leader_with(5, 64);
        // Attach while traffic is in flight...
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.catch_up(&leader).unwrap();
        // ...and more commands land between control ticks.
        for i in 5..12 {
            leader.register(&format!("svc-{i}"), url(&format!("http://h{i}:1/s")));
        }
        follower.catch_up(&leader).unwrap();
        assert!(converged(&leader, &follower));
        assert_eq!(follower.registry().len(), 12);
    }

    // Satellite 3: offset regression (a replayed command batch) is
    // rejected, not double-applied.
    #[test]
    fn offset_regression_is_rejected() {
        let leader = leader_with(2, 64);
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.catch_up(&leader).unwrap();
        let off = leader.register("dup", url("http://dup:1/s"));
        assert_eq!(follower.apply(off, "+dup http://dup:1/s").unwrap(), Admit::Apply);
        // The same batch arrives again (duplicated tick, retried pull).
        assert_eq!(
            follower.apply(off, "+dup http://dup:1/s").unwrap(),
            Admit::StaleRejected
        );
        // A stale *unregister* regression must not un-apply state.
        assert_eq!(follower.apply(0, "-svc-0").unwrap(), Admit::StaleRejected);
        assert!(follower.registry().lookup("svc-0").is_ok());
        assert_eq!(follower.stale_rejected(), 2);
        assert!(converged(&leader, &follower));
    }

    #[test]
    fn backlog_overrun_falls_back_to_full_resync() {
        let leader = leader_with(2, 4);
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.catch_up(&leader).unwrap();
        // Blow well past the 4-command backlog while detached.
        for i in 0..32 {
            leader.register(&format!("burst-{i}"), url("http://b:1/s"));
        }
        follower.catch_up(&leader).unwrap();
        assert_eq!(follower.full_resyncs(), 2, "overrun forces a snapshot");
        assert!(converged(&leader, &follower));
    }

    #[test]
    fn gap_in_stream_forces_full_resync() {
        let leader = leader_with(1, 64);
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.catch_up(&leader).unwrap();
        // A gapped offset arrives out of band.
        let verdict = follower.apply(leader.offset() + 5, "+ghost http://g:1/s").unwrap();
        assert_eq!(verdict, Admit::GapResync);
        assert!(follower.registry().lookup("ghost").is_err());
        // The next catch_up repairs via snapshot even though the cursor
        // never advanced past the gap.
        leader.register("after-gap", url("http://a:1/s"));
        follower.catch_up(&leader).unwrap();
        assert!(converged(&leader, &follower));
    }

    #[test]
    fn malformed_commands_error_cleanly() {
        let follower = RegistryFollower::new(Arc::new(Registry::new()));
        follower.install_snapshot("", 0).unwrap();
        assert!(follower.apply(0, "?what").is_err());
        assert!(follower.apply(0, "+no-urls").is_err());
    }
}
