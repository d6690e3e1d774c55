//! Message-id generation.
//!
//! Ids look like `uuid:xxxxxxxx-xxxx-4xxx-8xxx-xxxxxxxxxxxx` (UUIDv4
//! shaped). The generator is deterministic from its seed — the discrete-
//! event experiments depend on bit-identical reruns — and thread-safe: a
//! shared atomic counter is mixed through SplitMix64, so concurrent
//! callers never collide.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A seeded, thread-safe message-id generator.
#[derive(Clone)]
pub struct MsgIdGen {
    seed: u64,
    counter: Arc<AtomicU64>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl MsgIdGen {
    /// Creates a generator; equal seeds yield equal id sequences.
    pub fn new(seed: u64) -> Self {
        MsgIdGen {
            seed,
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Produces the next unique id.
    pub fn next_id(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let a = splitmix64(self.seed ^ n);
        let b = splitmix64(a ^ 0xA5A5_A5A5_A5A5_A5A5);
        // UUIDv4 shape: version nibble 4, variant bits 10.
        let time_low = (a >> 32) as u32;
        let time_mid = (a >> 16) as u16;
        let time_hi = 0x4000 | ((a as u16) & 0x0FFF);
        let clock_seq = 0x8000 | ((b >> 48) as u16 & 0x3FFF);
        let node = b & 0xFFFF_FFFF_FFFF;
        format!("uuid:{time_low:08x}-{time_mid:04x}-{time_hi:04x}-{clock_seq:04x}-{node:012x}")
    }
}

impl std::fmt::Debug for MsgIdGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsgIdGen").field("seed", &self.seed).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn shape_is_uuid_urn() {
        let id = MsgIdGen::new(1).next_id();
        assert!(id.starts_with("uuid:"), "{id}");
        let hex = &id[5..];
        let parts: Vec<&str> = hex.split('-').collect();
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![8, 4, 4, 4, 12]
        );
        assert!(parts[2].starts_with('4'), "version nibble: {id}");
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let a = MsgIdGen::new(42);
        let b = MsgIdGen::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_id(), b.next_id());
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(MsgIdGen::new(1).next_id(), MsgIdGen::new(2).next_id());
    }

    #[test]
    fn no_collisions_in_many_ids() {
        let g = MsgIdGen::new(7);
        let ids: HashSet<String> = (0..10_000).map(|_| g.next_id()).collect();
        assert_eq!(ids.len(), 10_000);
    }

    #[test]
    fn clones_share_the_counter() {
        let g = MsgIdGen::new(9);
        let h = g.clone();
        let a = g.next_id();
        let b = h.next_id();
        assert_ne!(a, b);
    }

    #[test]
    fn concurrent_generation_is_unique() {
        let g = MsgIdGen::new(3);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| g.next_id()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id across threads");
            }
        }
    }
}
