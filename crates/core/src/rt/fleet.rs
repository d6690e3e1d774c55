//! The sharded dispatcher fleet on the threaded runtime: N complete
//! [`Deployment`]s behind one consistent-hash ring.
//!
//! Instance 0's registry is the replication leader; every other
//! instance runs a [`RegistryFollower`] that tails it ([`FleetDeployment::sync`]
//! is the control tick). Clients route a logical service name through
//! [`FleetDeployment::route`] — the ring owner — before dispatching to
//! that instance's ports, the same route-then-enqueue shape as the
//! simulated fleet's client hub.
//!
//! Member `n` keeps its durable mailbox on files under `{dir}/i{n}`.
//! [`FleetDeployment::stop_instance`] shuts a member down and hands its
//! mailboxes to a successor, as the simulated fleet does: the membership
//! half is [`HandoffLog::fail_over`], the store half
//! [`wsd_store::DurableMsgBox::adopt`] of the stopped member's directory.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

use wsd_fleet::{Handoff, HandoffLog, InstanceId, ShardRing};
use wsd_store::{DurableMsgBox, FsStorage, StoreConfig};
use wsd_telemetry::Scope;

use crate::config::{MailboxBackend, MsgBoxConfig, REPL_BACKLOG, RING_SEED, RING_VNODES};
use crate::registry::Registry;
use crate::registry_repl::{RegistryFollower, RegistryLeader};
use crate::rt::{now_us, Deployment, Network};
use crate::url::Url;
use crate::WsdError;

/// One member of the fleet: a full dispatcher deployment plus its
/// replication role.
pub struct FleetMember {
    id: InstanceId,
    host: String,
    deployment: Deployment,
    /// `None` on the leader (instance 0), which applies writes locally.
    follower: Option<RegistryFollower>,
}

impl FleetMember {
    /// The ring identity of this member.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The host this member's services listen on.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The member's running deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }
}

/// N dispatcher instances behind a seeded consistent-hash ring, with
/// the registry replicated leader → followers.
pub struct FleetDeployment {
    ring: RwLock<ShardRing>,
    leader: Arc<RegistryLeader>,
    members: Vec<Option<FleetMember>>,
    handoffs: HandoffLog,
    dir: PathBuf,
}

/// The directory member `i` keeps its mailboxes in.
fn member_dir(dir: &Path, i: u32) -> PathBuf {
    dir.join(format!("i{i}"))
}

impl FleetDeployment {
    /// Starts `instances` deployments on hosts `{base}-0` ..
    /// `{base}-{n-1}`, instance 0 holding the registry leader. Member `n`
    /// keeps its durable mailbox under `{dir}/i{n}`, recovering whatever
    /// a previous run left there.
    pub fn start(
        net: &Arc<Network>,
        base_host: &str,
        instances: usize,
        dir: &Path,
    ) -> FleetDeployment {
        let instances = instances.max(1) as u32;
        let leader = Arc::new(RegistryLeader::new(Arc::new(Registry::new()), REPL_BACKLOG));
        let members = (0..instances)
            .map(|i| {
                let host = format!("{base_host}-{i}");
                let (registry, follower) = if i == 0 {
                    (Arc::clone(leader.registry()), None)
                } else {
                    let follower = RegistryFollower::new(Arc::new(Registry::new()));
                    (Arc::clone(follower.registry()), Some(follower))
                };
                let backend = MailboxBackend::Durable {
                    dir: Some(member_dir(dir, i)),
                    store: StoreConfig::default(),
                };
                let deployment = Deployment::builder(net, &host)
                    .registry(registry)
                    .seed(RING_SEED ^ u64::from(i))
                    .msgbox_config(MsgBoxConfig {
                        backend,
                        ..MsgBoxConfig::default()
                    })
                    .start();
                Some(FleetMember {
                    id: InstanceId(i),
                    host,
                    deployment,
                    follower,
                })
            })
            .collect();
        FleetDeployment {
            ring: RwLock::new(ShardRing::with_instances(RING_SEED, RING_VNODES, instances)),
            leader,
            members,
            handoffs: HandoffLog::new(),
            dir: dir.to_path_buf(),
        }
    }

    /// Live members, in instance order.
    pub fn members(&self) -> impl Iterator<Item = &FleetMember> {
        self.members.iter().flatten()
    }

    /// Registers a service at the leader. Followers see it on the next
    /// [`sync`](FleetDeployment::sync).
    pub fn register(&self, logical: &str, url: Url) -> u64 {
        self.leader.register(logical, url)
    }

    /// One replication tick: every follower tails the leader. Returns
    /// the total number of commands applied.
    pub fn sync(&self) -> Result<usize, WsdError> {
        let mut applied = 0;
        for member in self.members.iter().flatten() {
            if let Some(follower) = &member.follower {
                applied += follower.catch_up(&self.leader)?;
            }
        }
        Ok(applied)
    }

    /// Routes a logical service name to the owning live member. This
    /// is the step every fleet client must take before enqueuing.
    pub fn route(&self, logical: &str) -> Option<&FleetMember> {
        let owner = self.ring.read().owner_of(logical)?;
        self.members.get(owner.0 as usize)?.as_ref()
    }

    /// Stops one instance and hands it off: its ring arcs move, so
    /// [`route`](FleetDeployment::route) stays total over live members,
    /// and the successor the handoff names adopts its mailbox directory —
    /// every box under its id and key, every message not yet fetched.
    /// Returns the completed handoff; `None` if `id` is not a live member
    /// or was the last one.
    ///
    /// Panics if the stopped member's store cannot be opened or adopted,
    /// as a mailbox whose log cannot be opened does not start.
    pub fn stop_instance(&mut self, id: InstanceId) -> Option<Handoff> {
        let member = self.members.get_mut(id.0 as usize).and_then(Option::take)?;
        member.deployment.shutdown();
        let at = self.handoffs.fail_over(self.ring.get_mut(), id, now_us())?;
        let successor = self.handoffs.get(at).successor;
        let heir = self.members[successor.0 as usize]
            .as_ref()
            .expect("the successor is a live member");
        let at = self.handoffs.claim_for(successor).expect("announced above");
        let storage = FsStorage::open(member_dir(&self.dir, id.0))
            .expect("a stopped member's mailbox directory");
        let (dead, _) = DurableMsgBox::open(
            StoreConfig::default(),
            Box::new(storage),
            &Scope::noop(),
            now_us(),
        )
        .expect("a stopped member's mailbox log");
        let moved = heir
            .deployment
            .msgbox()
            .store()
            .adopt(&dead, now_us())
            .expect("adopting a stopped member's mailboxes");
        let recovered = moved.iter().map(|(_, n)| *n as u64).sum();
        self.handoffs.complete(at, recovered, now_us());
        Some(self.handoffs.get(at).clone())
    }

    /// Stops every member.
    pub fn shutdown(&self) {
        for member in self.members.iter().flatten() {
            member.deployment.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::{rpc_call, send_oneway, EchoServer, MailboxClient};
    use std::collections::HashSet;
    use std::time::Duration;
    use wsd_soap::{rpc, SoapVersion};

    /// A fresh directory for one test's mailboxes.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wsd-fleet-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fleet_routes_and_replicates() {
        let net = Network::new();
        let ws = EchoServer::start(&net, "ws", 8888, 2, Duration::ZERO);
        let dir = temp_dir("routes");
        let mut fleet = FleetDeployment::start(&net, "fleet", 3, &dir);

        fleet.register("Echo", Url::parse("http://ws:8888/echo").unwrap());
        fleet.sync().unwrap();

        // Every member's registry converged on the same entry.
        for member in fleet.members() {
            assert!(
                member.deployment().registry().lookup("Echo").is_ok(),
                "{} missing Echo",
                member.host()
            );
        }

        // Route, then dispatch at the owner — through its own stack.
        let owner = fleet.route("Echo").expect("ring is non-empty");
        let resp = rpc_call(
            &net,
            owner.host(),
            owner.deployment().rpc_port(),
            "/svc/Echo",
            &rpc::echo_request(SoapVersion::V11, "fleet"),
            None,
        )
        .unwrap();
        assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "fleet");

        // Kill the owner: routing must fail over to a live member and
        // keep serving.
        let dead = owner.id();
        let handoff = fleet.stop_instance(dead).expect("a live member hands off");
        assert_eq!(handoff.dead, dead);
        let successor = fleet.route("Echo").expect("ring still non-empty");
        assert_ne!(successor.id(), dead);
        let resp = rpc_call(
            &net,
            successor.host(),
            successor.deployment().rpc_port(),
            "/svc/Echo",
            &rpc::echo_request(SoapVersion::V11, "again"),
            None,
        )
        .unwrap();
        assert_eq!(rpc::parse_echo_response(&resp).unwrap(), "again");

        fleet.shutdown();
        ws.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Mail deposited at a member that is then stopped is polled from its
    /// successor under the same box id and key: all of it, once each.
    #[test]
    fn a_stopped_members_mailboxes_are_polled_at_its_successor() {
        const N: usize = 25;
        let net = Network::new();
        let dir = temp_dir("kill-one");
        let mut fleet = FleetDeployment::start(&net, "fleet", 3, &dir);
        let owner = fleet.route("Inbox").expect("ring is non-empty");
        let (dead, port) = (owner.id(), owner.deployment().msgbox_port());
        let mailbox = MailboxClient::create(&net, owner.host(), port).unwrap();
        let target = format!("/deposit/{}", mailbox.box_id());
        for i in 0..N {
            let env = rpc::echo_request(SoapVersion::V11, &format!("m{i}"));
            send_oneway(&net, owner.host(), port, &target, &env).unwrap();
        }

        let handoff = fleet.stop_instance(dead).expect("a live member hands off");
        assert_eq!(handoff.recovered, N as u64);
        let heir = fleet
            .members()
            .find(|m| m.id() == handoff.successor)
            .expect("successor is live");
        let heir = MailboxClient::attach(
            &net,
            heir.host(),
            port,
            mailbox.box_id(),
            mailbox.access_key(),
        );
        let mut got = Vec::new();
        loop {
            let batch = heir.poll(10).expect("the box moved to the successor");
            if batch.is_empty() {
                break;
            }
            got.extend(batch.iter().map(|env| env.to_xml()));
        }
        let distinct: HashSet<&String> = got.iter().collect();
        assert_eq!((got.len(), distinct.len()), (N, N), "{got:?}");

        fleet.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_instance_fleet_is_a_plain_deployment() {
        let net = Network::new();
        let dir = temp_dir("solo");
        let mut fleet = FleetDeployment::start(&net, "solo", 1, &dir);
        fleet.register("Svc", Url::parse("http://ws:1/x").unwrap());
        assert_eq!(fleet.sync().unwrap(), 0, "no followers to catch up");
        let owner = fleet.route("Svc").unwrap();
        assert_eq!(owner.id(), InstanceId(0));
        assert!(
            fleet.stop_instance(InstanceId(0)).is_none(),
            "nobody to hand off to"
        );
        fleet.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
