//! A sharded LRU answer cache.
//!
//! Keys are canonical query strings ([`crate::Query::key`]); the shard is
//! picked by FNV-1a over the key so placement is stable across runs and
//! thread counts. Each shard tracks a per-shard use tick that increments
//! on every touch, so recency values are unique within a shard and
//! eviction (drop the minimum tick) is deterministic even though the
//! backing `HashMap`'s iteration order is not.
//!
//! The service probes and inserts serially during batch merge, so the
//! cache never needs to be shared across threads; sharding exists to
//! bound eviction-scan cost and to expose per-shard occupancy as a
//! gauge, mirroring how a production server would partition its lock.

use std::collections::HashMap;

struct Entry<V> {
    value: V,
    last_use: u64,
}

struct Shard<V> {
    map: HashMap<String, Entry<V>>,
    tick: u64,
}

/// Shard count for a service running on `threads` workers: four shards
/// per worker, rounded up to a power of two and clamped to `[1, 64]` —
/// enough spread that concurrent batches rarely contend on one shard's
/// recency clock, without fragmenting capacity at small thread counts.
///
/// Shard count never changes *what* is answered — keys hash to shards
/// deterministically and eviction is per shard — it only moves the
/// occupancy/eviction boundaries, which the RED metrics surface.
pub fn auto_shards(threads: usize) -> usize {
    (threads.max(1) * 4).next_power_of_two().clamp(1, 64)
}

/// Sharded least-recently-used cache with a fixed per-shard capacity.
pub struct ShardedLru<V> {
    shards: Vec<Shard<V>>,
    capacity_per_shard: usize,
}

impl<V: Clone> ShardedLru<V> {
    /// Create a cache with `shards` shards of `capacity_per_shard`
    /// entries each. Both are clamped to at least 1.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Shard {
                    map: HashMap::new(),
                    tick: 0,
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
        }
    }

    fn shard_index(&self, key: &str) -> usize {
        // FNV-1a, 64-bit: stable across platforms and runs.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in key.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Look up `key`, bumping its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let idx = self.shard_index(key);
        let shard = &mut self.shards[idx];
        shard.tick += 1;
        let tick = shard.tick;
        let entry = shard.map.get_mut(key)?;
        entry.last_use = tick;
        Some(entry.value.clone())
    }

    /// Insert (or refresh) `key`, evicting the least-recently-used entry
    /// of its shard if the shard is full.
    pub fn insert(&mut self, key: &str, value: V) {
        let idx = self.shard_index(key);
        let capacity = self.capacity_per_shard;
        let shard = &mut self.shards[idx];
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.map.get_mut(key) {
            entry.value = value;
            entry.last_use = tick;
            return;
        }
        if shard.map.len() >= capacity {
            // Ticks are unique within a shard, so the minimum is unique
            // and eviction is deterministic.
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(
            key.to_string(),
            Entry {
                value,
                last_use: tick,
            },
        );
    }

    /// Total live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (shards × per-shard capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.capacity_per_shard
    }

    /// Per-shard live entry counts, in shard order.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.map.len()).collect()
    }

    /// Drop every entry, keeping shard structure and recency clocks.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_hits() {
        let mut cache: ShardedLru<u64> = ShardedLru::new(4, 8);
        assert!(cache.get("a").is_none());
        cache.insert("a", 7);
        assert_eq!(cache.get("a"), Some(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.capacity(), 32);
    }

    #[test]
    fn eviction_drops_the_least_recently_used() {
        // One shard so we control the recency order exactly.
        let mut cache: ShardedLru<u32> = ShardedLru::new(1, 2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.get("a"); // "b" is now the LRU entry
        cache.insert("c", 3);
        assert_eq!(cache.get("a"), Some(1));
        assert!(cache.get("b").is_none(), "LRU entry was evicted");
        assert_eq!(cache.get("c"), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn len_never_exceeds_capacity() {
        let mut cache: ShardedLru<usize> = ShardedLru::new(3, 4);
        for i in 0..200 {
            cache.insert(&format!("key{i}"), i);
            assert!(cache.len() <= cache.capacity());
            for (shard, occ) in cache.shard_occupancy().into_iter().enumerate() {
                assert!(occ <= 4, "shard {shard} over capacity: {occ}");
            }
        }
    }

    #[test]
    fn auto_shards_tracks_thread_count() {
        assert_eq!(auto_shards(1), 4);
        assert_eq!(auto_shards(4), 16);
        assert_eq!(auto_shards(3), 16, "rounds up to a power of two");
        assert_eq!(auto_shards(0), 4, "zero threads clamps to one worker");
        assert_eq!(auto_shards(1024), 64, "clamped to 64 shards");
    }

    #[test]
    fn occupancy_invariants_hold_at_auto_sizes() {
        // The shard counts a 1-thread and a 4-thread service resolve to.
        for threads in [1usize, 4] {
            let shards = auto_shards(threads);
            let cap = 8;
            let mut cache: ShardedLru<usize> = ShardedLru::new(shards, cap);
            for i in 0..shards * cap * 4 {
                cache.insert(&format!("key{i}"), i);
                let occ = cache.shard_occupancy();
                assert_eq!(occ.len(), shards, "{threads} threads");
                assert_eq!(occ.iter().sum::<usize>(), cache.len());
                assert!(
                    occ.iter().all(|&o| o <= cap),
                    "per-shard capacity respected"
                );
            }
            assert!(
                cache.shard_occupancy().iter().all(|&o| o > 0),
                "with 4x capacity inserted every shard is populated at {threads} threads"
            );
            assert_eq!(cache.capacity(), shards * cap);
        }
    }

    #[test]
    fn reinsert_refreshes_in_place() {
        let mut cache: ShardedLru<u32> = ShardedLru::new(1, 2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10); // refresh, not a new entry
        assert_eq!(cache.len(), 2);
        cache.insert("c", 3); // evicts "b", the stalest
        assert_eq!(cache.get("a"), Some(10));
        assert!(cache.get("b").is_none());
    }
}
