//! Sharded concurrent hash map.
//!
//! The paper's registry (logical → physical service addresses) and the
//! WS-MsgBox mailbox table are both backed by the Concurrent Java Library's
//! `ConcurrentHashMap`. This is the same design idea: the key space is
//! split across `S` independent shards, each guarded by its own
//! reader-writer lock, so lookups from many dispatcher threads proceed in
//! parallel and writers only contend within one shard.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::ordered::OrderedRwLock;

/// A concurrent hash map sharded across independent `RwLock<HashMap>`s.
///
/// Values are returned by clone, so `V` is typically an `Arc<...>` or a
/// small value type. All operations are linearizable per key.
pub struct ShardedMap<K, V> {
    shards: Box<[OrderedRwLock<HashMap<K, V>>]>,
    mask: usize,
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMap<K, V> {
    /// Default shard count: enough to keep 32 dispatcher threads from
    /// contending in practice.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Creates a map with [`Self::DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Creates a map with `shards` shards (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be non-zero");
        let n = shards.next_power_of_two();
        let shards = (0..n)
            .map(|_| OrderedRwLock::new("sharded_map.shard", HashMap::new()))
            .collect();
        ShardedMap {
            shards,
            mask: n - 1,
        }
    }

    fn shard_for<Q>(&self, key: &Q) -> &OrderedRwLock<HashMap<K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Inserts a key-value pair, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_for(&key).write().insert(key, value)
    }

    /// Inserts only if the key is absent. Returns `Err` with the rejected
    /// value (and leaves the existing mapping untouched) if present.
    pub fn insert_if_absent(&self, key: K, value: V) -> Result<(), V> {
        let mut shard = self.shard_for(&key).write();
        if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(key) {
            e.insert(value);
            Ok(())
        } else {
            Err(value)
        }
    }

    /// Returns a clone of the value for `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key).read().get(key).cloned()
    }

    /// Returns the value for `key`, inserting the result of `make` first if
    /// absent. `make` runs under the shard's write lock and is called at
    /// most once.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V {
        let mut shard = self.shard_for(&key).write();
        shard.entry(key).or_insert_with(make).clone()
    }

    /// Applies `f` to the value for `key` under the shard's write lock.
    /// Returns the updated value, or `None` if the key is absent.
    pub fn update<Q>(&self, key: &Q, f: impl FnOnce(&mut V)) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shard_for(key).write();
        let v = shard.get_mut(key)?;
        f(v);
        Some(v.clone())
    }

    /// Removes `key`, returning its value if present.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key).write().remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shard_for(key).read().contains_key(key)
    }

    /// Total number of entries (sums shard sizes; a point-in-time value).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Removes every entry.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
    }

    /// Removes entries for which `keep` returns `false`.
    pub fn retain(&self, mut keep: impl FnMut(&K, &V) -> bool) {
        for s in self.shards.iter() {
            s.write().retain(|k, v| keep(k, v));
        }
    }

    /// Calls `f` on every entry. Shards are visited one at a time under
    /// their read lock; do not call map methods from inside `f`.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in self.shards.iter() {
            for (k, v) in s.read().iter() {
                f(k, v);
            }
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// A point-in-time snapshot of all entries.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// A point-in-time snapshot of all keys.
    pub fn keys(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, _| out.push(k.clone()));
        out
    }
}

impl<K, V> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_remove() {
        let m = ShardedMap::new();
        assert_eq!(m.insert("a".to_string(), 1), None);
        assert_eq!(m.insert("a".to_string(), 2), Some(1));
        assert_eq!(m.get("a"), Some(2));
        assert_eq!(m.remove("a"), Some(2));
        assert_eq!(m.get("a"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn insert_if_absent_respects_existing() {
        let m = ShardedMap::new();
        assert!(m.insert_if_absent("k".to_string(), 1).is_ok());
        assert_eq!(m.insert_if_absent("k".to_string(), 2), Err(2));
        assert_eq!(m.get("k"), Some(1));
    }

    #[test]
    fn get_or_insert_with_calls_once() {
        let m: ShardedMap<u32, u32> = ShardedMap::new();
        let mut calls = 0;
        let v = m.get_or_insert_with(7, || {
            calls += 1;
            70
        });
        assert_eq!(v, 70);
        let v = m.get_or_insert_with(7, || {
            calls += 1;
            99
        });
        assert_eq!(v, 70);
        assert_eq!(calls, 1);
    }

    #[test]
    fn update_mutates_in_place() {
        let m = ShardedMap::new();
        m.insert(1u8, 10u32);
        assert_eq!(m.update(&1, |v| *v += 5), Some(15));
        assert_eq!(m.get(&1), Some(15));
        assert_eq!(m.update(&2, |v| *v += 5), None);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u8, u8> = ShardedMap::with_shards(5);
        assert_eq!(m.shards.len(), 8);
    }

    #[test]
    fn retain_filters() {
        let m = ShardedMap::new();
        for i in 0..100u32 {
            m.insert(i, i);
        }
        m.retain(|_, v| v % 2 == 0);
        assert_eq!(m.len(), 50);
        assert!(m.contains_key(&2));
        assert!(!m.contains_key(&3));
    }

    #[test]
    fn snapshot_has_all_entries() {
        let m = ShardedMap::new();
        for i in 0..32u32 {
            m.insert(i, i * 10);
        }
        let mut snap = m.snapshot();
        snap.sort_unstable();
        assert_eq!(snap.len(), 32);
        assert_eq!(snap[5], (5, 50));
    }

    #[test]
    fn concurrent_inserts_all_visible() {
        let m = Arc::new(ShardedMap::new());
        let mut hs = Vec::new();
        for t in 0..8usize {
            let m = Arc::clone(&m);
            hs.push(thread::spawn(move || {
                for i in 0..250usize {
                    m.insert(t * 250 + i, t);
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 2000);
        for k in 0..2000usize {
            assert_eq!(m.get(&k), Some(k / 250));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let m = Arc::new(ShardedMap::new());
        for i in 0..64u32 {
            m.insert(i, 0u64);
        }
        let mut hs = Vec::new();
        for _ in 0..4 {
            let m = Arc::clone(&m);
            hs.push(thread::spawn(move || {
                for i in 0..64u32 {
                    for _ in 0..100 {
                        m.update(&i, |v| *v += 1);
                    }
                }
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        for i in 0..64u32 {
            assert_eq!(m.get(&i), Some(400));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_shards_panics() {
        let _ = ShardedMap::<u8, u8>::with_shards(0);
    }
}
