//! The per-node fiber cache of paper §4.2: "reconstituting a fiber from
//! its persisted state is still relatively slow and so a cache of
//! recently seen fibers is maintained in memory on each instance.
//! Because Vinz executes no control over where a fiber will be asked to
//! run (leaving that in the hands of the message queue), the cache is
//! only somewhat effective. Empirical measurements show cache hit rates
//! of about 18% and 66% for mutable and immutable data, respectively."
//!
//! Two compartments:
//!
//! * **mutable** — fiber continuations, validated by a version counter
//!   that increments on every save; a fiber that last ran on another
//!   node invalidates the local copy;
//! * **immutable** — write-once data (child results, task definitions),
//!   valid whenever present.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use gozer_vm::FiberState;
use parking_lot::Mutex;

/// Hit/miss counters for one compartment.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Lookups that were served from memory.
    pub hits: AtomicU64,
    /// Lookups that had to go to the store.
    pub misses: AtomicU64,
}

impl CacheStats {
    /// Hit ratio in [0, 1]; 0 when unused.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits.load(Ordering::Relaxed) as f64;
        let m = self.misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

struct Lru<V> {
    map: HashMap<String, (u64, V)>,
    generation: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: HashMap::with_capacity(capacity),
            generation: 0,
            capacity: capacity.max(1),
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        self.generation += 1;
        let generation = self.generation;
        match self.map.get_mut(key) {
            Some(slot) => {
                slot.0 = generation;
                Some(&slot.1)
            }
            None => None,
        }
    }

    fn put(&mut self, key: String, v: V) {
        self.generation += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the least recently used entry.
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, (gen, _))| *gen)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&victim);
            }
        }
        self.map.insert(key, (self.generation, v));
    }

    fn remove(&mut self, key: &str) {
        self.map.remove(key);
    }
}

/// The per-node cache.
pub struct FiberCache {
    mutable: Mutex<Lru<(u64, FiberState)>>,
    immutable: Mutex<Lru<Vec<u8>>>,
    /// Mutable-compartment statistics.
    pub mutable_stats: CacheStats,
    /// Immutable-compartment statistics.
    pub immutable_stats: CacheStats,
}

impl FiberCache {
    /// Cache with the given per-compartment capacity.
    pub fn new(capacity: usize) -> FiberCache {
        FiberCache {
            mutable: Mutex::new(Lru::new(capacity)),
            immutable: Mutex::new(Lru::new(capacity)),
            mutable_stats: CacheStats::default(),
            immutable_stats: CacheStats::default(),
        }
    }

    /// Look up a fiber state; a hit requires the cached version to match
    /// the store's current `version` (a fiber that ran elsewhere since we
    /// cached it has a higher version, so the stale local copy misses).
    pub fn get_fiber(&self, fiber_id: &str, version: u64) -> Option<FiberState> {
        let mut lru = self.mutable.lock();
        match lru.get(fiber_id) {
            Some((cached_version, state)) if *cached_version == version => {
                self.mutable_stats.hits.fetch_add(1, Ordering::Relaxed);
                let copy = state.clone();
                // The copy is the one that runs and gets saved next, so
                // the serializer's seeding tables go with it. A second
                // hit on this version (a redelivered resume) starts cold.
                state.seed.move_to(&copy.seed);
                Some(copy)
            }
            _ => {
                self.mutable_stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remember a fiber state at a version.
    pub fn put_fiber(&self, fiber_id: &str, version: u64, state: FiberState) {
        self.mutable.lock().put(fiber_id.to_string(), (version, state));
    }

    /// Drop a fiber entry (on completion).
    pub fn evict_fiber(&self, fiber_id: &str) {
        self.mutable.lock().remove(fiber_id);
    }

    /// Look up immutable data (valid whenever present).
    pub fn get_immutable(&self, key: &str) -> Option<Vec<u8>> {
        let mut lru = self.immutable.lock();
        match lru.get(key) {
            Some(data) => {
                self.immutable_stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(data.clone())
            }
            None => {
                self.immutable_stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Remember immutable data.
    pub fn put_immutable(&self, key: &str, data: Vec<u8>) {
        self.immutable.lock().put(key.to_string(), data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_a_miss() {
        let cache = FiberCache::new(8);
        cache.put_fiber("f1", 1, FiberState::default());
        assert!(cache.get_fiber("f1", 1).is_some());
        assert!(cache.get_fiber("f1", 2).is_none(), "stale copy must miss");
        assert_eq!(cache.mutable_stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.mutable_stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_hit_hands_over_the_seed_tables_once() {
        let cache = FiberCache::new(8);
        let state = FiberState::default();
        state.seed.put(3, Box::new("tables"));
        cache.put_fiber("f1", 1, state);
        let (frames, tables) = cache.get_fiber("f1", 1).unwrap().seed.take();
        assert_eq!(frames, 3);
        assert!(tables.is_some(), "the copy that runs next saves warm");
        // A redelivered resume finds the same version but must not share
        // tables the first delivery has since extended.
        assert!(cache.get_fiber("f1", 1).unwrap().seed.take().1.is_none());
    }

    #[test]
    fn immutable_hits_when_present() {
        let cache = FiberCache::new(8);
        assert!(cache.get_immutable("r1").is_none());
        cache.put_immutable("r1", vec![1, 2, 3]);
        assert_eq!(cache.get_immutable("r1"), Some(vec![1, 2, 3]));
        assert!((cache.immutable_stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = FiberCache::new(2);
        cache.put_immutable("a", vec![1]);
        cache.put_immutable("b", vec![2]);
        assert!(cache.get_immutable("a").is_some()); // refresh a
        cache.put_immutable("c", vec![3]); // evicts b
        assert!(cache.get_immutable("b").is_none());
        assert!(cache.get_immutable("a").is_some());
        assert!(cache.get_immutable("c").is_some());
    }

    #[test]
    fn hit_rate_zero_when_unused() {
        let cache = FiberCache::new(2);
        assert_eq!(cache.mutable_stats.hit_rate(), 0.0);
    }
}
