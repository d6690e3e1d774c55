//! Consistent-hash ring with virtual nodes.
//!
//! Logical service names hash onto a 64-bit circle; each dispatcher
//! instance contributes `vnodes` points, and a name belongs to the
//! instance owning the first point at or after the name's hash
//! (wrapping). Virtual nodes keep the load split close to uniform, and
//! removing an instance moves only the arcs that instance owned — the
//! property that makes failover a bounded handoff instead of a full
//! reshuffle.
//!
//! The whole layout is a pure function of `(seed, vnodes, members)`:
//! no randomness, no addresses, no clocks. Two processes building a
//! ring from the same configuration agree on every owner, and a seeded
//! netsim run replays bit-identically.

use std::collections::BTreeSet;

/// Identifies one dispatcher instance in the fleet (dense small
/// integers; the simulation uses the spawn index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u32);

impl std::fmt::Display for InstanceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// SplitMix64 finalizer: cheap, deterministic, well-mixed.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the bytes, folded through the seed and the SplitMix64
/// finalizer so short names still spread over the whole circle.
fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// The seeded consistent-hash ring.
#[derive(Debug, Clone)]
pub struct ShardRing {
    seed: u64,
    vnodes: u32,
    /// Sorted `(point, owner)` pairs.
    points: Vec<(u64, InstanceId)>,
    members: BTreeSet<InstanceId>,
}

impl ShardRing {
    /// An empty ring. `vnodes` is the number of points each instance
    /// contributes (more points → more uniform split, slower removal).
    pub fn new(seed: u64, vnodes: u32) -> ShardRing {
        assert!(vnodes > 0, "a ring needs at least one virtual node");
        ShardRing {
            seed,
            vnodes,
            points: Vec::new(),
            members: BTreeSet::new(),
        }
    }

    /// A ring pre-populated with instances `0..n`.
    pub fn with_instances(seed: u64, vnodes: u32, n: u32) -> ShardRing {
        let mut ring = ShardRing::new(seed, vnodes);
        for i in 0..n {
            ring.add_instance(InstanceId(i));
        }
        ring
    }

    /// The seed the layout derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The point of virtual node `v` of `id` — a pure function of the
    /// ring seed, so every replica computes the same layout.
    fn vnode_point(&self, id: InstanceId, v: u32) -> u64 {
        mix64(self.seed ^ ((id.0 as u64) << 32 | v as u64))
    }

    /// Adds an instance's virtual nodes. Returns `false` (and changes
    /// nothing) if it is already a member.
    fn add_instance(&mut self, id: InstanceId) -> bool {
        if !self.members.insert(id) {
            return false;
        }
        for v in 0..self.vnodes {
            let p = self.vnode_point(id, v);
            let at = self.points.partition_point(|&(q, _)| q < p);
            self.points.insert(at, (p, id));
        }
        true
    }

    /// Removes an instance's virtual nodes: each of its arcs now belongs
    /// to the next surviving point. Returns `false` (and changes nothing)
    /// if it was not a member.
    pub fn remove_instance(&mut self, id: InstanceId) -> bool {
        if !self.members.remove(&id) {
            return false;
        }
        self.points.retain(|&(_, owner)| owner != id);
        true
    }

    /// Hashes a logical name onto the circle.
    fn key_point(&self, name: &str) -> u64 {
        hash_bytes(self.seed, name.as_bytes())
    }

    /// The instance owning a logical service name (`None` on an empty
    /// ring).
    pub fn owner_of(&self, name: &str) -> Option<InstanceId> {
        self.owner_of_point(self.key_point(name))
    }

    /// The instance owning a raw circle point: the owner of the first
    /// virtual node at or after `h`, wrapping.
    fn owner_of_point(&self, h: u64) -> Option<InstanceId> {
        if self.points.is_empty() {
            return None;
        }
        let at = self.points.partition_point(|&(q, _)| q < h);
        let (_, owner) = self.points[at % self.points.len()];
        Some(owner)
    }

    /// Current members, ascending.
    pub fn members(&self) -> Vec<InstanceId> {
        self.members.iter().copied().collect()
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: InstanceId) -> bool {
        self.members.contains(&id)
    }

    /// Number of member instances.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// How many distinct arcs `id` owns (≤ its vnode count; fewer when
    /// it is the only member).
    pub fn owned_ranges(&self, id: InstanceId) -> usize {
        if !self.members.contains(&id) {
            return 0;
        }
        if self.members.len() == 1 {
            return 1; // the whole circle
        }
        let mut arcs = 0;
        for (i, &(_, owner)) in self.points.iter().enumerate() {
            let prev = self.points[(i + self.points.len() - 1) % self.points.len()].1;
            if owner == id && prev != id {
                arcs += 1;
            }
        }
        arcs
    }

    /// The fraction of the circle `id` owns (0.0 for non-members).
    #[cfg(test)]
    fn owned_fraction(&self, id: InstanceId) -> f64 {
        if !self.members.contains(&id) || self.points.is_empty() {
            return 0.0;
        }
        if self.members.len() == 1 {
            return 1.0;
        }
        let mut owned: u128 = 0;
        for (i, &(p, owner)) in self.points.iter().enumerate() {
            if owner != id {
                continue;
            }
            let prev = self.points[(i + self.points.len() - 1) % self.points.len()].0;
            owned += u128::from(p.wrapping_sub(prev));
        }
        owned as f64 / 2f64.powi(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("svc-{i}")).collect()
    }

    #[test]
    fn layout_is_deterministic_for_a_seed() {
        let a = ShardRing::with_instances(42, 64, 4);
        let b = ShardRing::with_instances(42, 64, 4);
        for name in names(500) {
            assert_eq!(a.owner_of(&name), b.owner_of(&name));
        }
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = ShardRing::with_instances(1, 64, 4);
        let b = ShardRing::with_instances(2, 64, 4);
        let differing = names(500)
            .iter()
            .filter(|n| a.owner_of(n) != b.owner_of(n))
            .count();
        assert!(differing > 100, "only {differing} names moved");
    }

    #[test]
    fn membership_order_does_not_matter() {
        let mut a = ShardRing::new(7, 32);
        for i in [2u32, 0, 3, 1] {
            a.add_instance(InstanceId(i));
        }
        let b = ShardRing::with_instances(7, 32, 4);
        for name in names(300) {
            assert_eq!(a.owner_of(&name), b.owner_of(&name));
        }
    }

    #[test]
    fn vnodes_balance_the_split() {
        let ring = ShardRing::with_instances(0xF1EE7, 64, 4);
        let mut counts = [0usize; 4];
        for name in names(4000) {
            counts[ring.owner_of(&name).unwrap().0 as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (500..2000).contains(&c),
                "instance {i} owns {c} of 4000: {counts:?}"
            );
        }
        for i in 0..4 {
            let f = ring.owned_fraction(InstanceId(i));
            assert!((0.1..0.45).contains(&f), "fraction {f}");
        }
    }

    #[test]
    fn removal_only_moves_the_dead_instances_keys() {
        let mut ring = ShardRing::with_instances(9, 64, 4);
        let before: Vec<(String, InstanceId)> = names(1000)
            .into_iter()
            .map(|n| {
                let o = ring.owner_of(&n).unwrap();
                (n, o)
            })
            .collect();
        assert!(ring.remove_instance(InstanceId(2)));
        for (name, old_owner) in before {
            let new_owner = ring.owner_of(&name).unwrap();
            if old_owner == InstanceId(2) {
                assert_ne!(new_owner, InstanceId(2));
            } else {
                assert_eq!(new_owner, old_owner, "{name} moved needlessly");
            }
        }
    }

    #[test]
    fn add_then_remove_restores_the_layout() {
        let mut ring = ShardRing::with_instances(5, 48, 3);
        let before: Vec<Option<InstanceId>> = names(400).iter().map(|n| ring.owner_of(n)).collect();
        ring.add_instance(InstanceId(9));
        ring.remove_instance(InstanceId(9));
        let after: Vec<Option<InstanceId>> = names(400).iter().map(|n| ring.owner_of(n)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn single_member_owns_everything() {
        let mut ring = ShardRing::with_instances(3, 16, 1);
        assert_eq!(ring.owned_fraction(InstanceId(0)), 1.0);
        assert_eq!(ring.owned_ranges(InstanceId(0)), 1);
        assert_eq!(ring.owner_of("anything"), Some(InstanceId(0)));
        assert!(ring.remove_instance(InstanceId(0)));
        assert_eq!(ring.owner_of("anything"), None);
    }

    #[test]
    fn double_add_and_foreign_remove_are_noops() {
        let mut ring = ShardRing::with_instances(3, 16, 2);
        assert!(!ring.add_instance(InstanceId(0)));
        assert!(!ring.remove_instance(InstanceId(7)));
        assert_eq!(ring.len(), 2);
    }
}
