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

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Least-recently-used map. Every touch stamps the entry with a fresh
/// generation; `order` is the same stamps sorted, so the victim is its
/// first entry rather than a scan of the whole map.
struct Lru<V> {
    map: HashMap<Arc<str>, (u64, V)>,
    order: BTreeMap<u64, Arc<str>>,
    generation: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: HashMap::with_capacity(capacity),
            order: BTreeMap::new(),
            generation: 0,
            capacity: capacity.max(1),
        }
    }

    fn get(&mut self, key: &str) -> Option<&V> {
        let slot = self.map.get_mut(key)?;
        self.generation += 1;
        if let Some(key) = self.order.remove(&slot.0) {
            self.order.insert(self.generation, key);
        }
        slot.0 = self.generation;
        Some(&slot.1)
    }

    fn put(&mut self, key: &str, v: V) {
        self.generation += 1;
        // A key already held moves to the back of the order; a new one
        // may first have to make room.
        let held = match self.map.get(key) {
            Some((stamp, _)) => self.order.remove(stamp),
            None => {
                if self.map.len() >= self.capacity {
                    // Evict the least recently used entry.
                    if let Some((_, victim)) = self.order.pop_first() {
                        self.map.remove(&victim);
                    }
                }
                None
            }
        };
        let key = held.unwrap_or_else(|| Arc::from(key));
        self.order.insert(self.generation, key.clone());
        self.map.insert(key, (self.generation, v));
    }

    fn remove(&mut self, key: &str) {
        if let Some((stamp, _)) = self.map.remove(key) {
            self.order.remove(&stamp);
        }
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
        self.mutable.lock().put(fiber_id, (version, state));
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
        self.immutable.lock().put(key, data);
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

    /// The scan-for-the-minimum LRU this module used to have: the
    /// reference the indexed one must be indistinguishable from.
    struct NaiveLru {
        map: HashMap<String, (u64, u32)>,
        generation: u64,
        capacity: usize,
    }

    impl NaiveLru {
        fn get(&mut self, key: &str) -> Option<u32> {
            self.generation += 1;
            let slot = self.map.get_mut(key)?;
            slot.0 = self.generation;
            Some(slot.1)
        }

        fn put(&mut self, key: &str, v: u32) {
            self.generation += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(key) {
                let victim = self.map.iter().min_by_key(|(_, (stamp, _))| *stamp);
                if let Some(victim) = victim.map(|(k, _)| k.clone()) {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key.to_string(), (self.generation, v));
        }
    }

    #[test]
    fn lru_matches_the_naive_model_over_seeded_sequences() {
        for seed in 0..64u64 {
            let mut rng = bluebox::chaos::ChaosRng::new(seed);
            let capacity = 1 + rng.below(6) as usize;
            let mut lru = Lru::new(capacity);
            let mut naive = NaiveLru {
                map: HashMap::new(),
                generation: 0,
                capacity,
            };
            for step in 0..400u32 {
                let key = format!("k{}", rng.below(2 * capacity as u64 + 1));
                match rng.below(5) {
                    0 | 1 => assert_eq!(
                        lru.get(&key).copied(),
                        naive.get(&key),
                        "seed {seed} step {step}: get {key}"
                    ),
                    2 | 3 => {
                        lru.put(&key, step);
                        naive.put(&key, step);
                    }
                    _ => {
                        lru.remove(&key);
                        naive.map.remove(&key);
                    }
                }
                let mut held: Vec<(&str, u32)> =
                    lru.map.iter().map(|(k, (_, v))| (&**k, *v)).collect();
                let mut want: Vec<(&str, u32)> = naive
                    .map
                    .iter()
                    .map(|(k, (_, v))| (k.as_str(), *v))
                    .collect();
                held.sort_unstable();
                want.sort_unstable();
                assert_eq!(held, want, "seed {seed} step {step}");
                assert_eq!(lru.order.len(), lru.map.len(), "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn eviction_does_not_scan_the_cache() {
        const CAPACITY: usize = 50_000;
        let started = std::time::Instant::now();
        let mut lru = Lru::new(CAPACITY);
        // Fill, then evict once per put: quadratic at this size is
        // minutes, indexed is milliseconds.
        for i in 0..2 * CAPACITY {
            lru.put(&format!("k{i}"), i);
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "{} evicting puts took {:?}",
            CAPACITY,
            started.elapsed()
        );
        assert_eq!(lru.map.len(), CAPACITY);
        assert!(lru.get("k0").is_none() && lru.get(&format!("k{CAPACITY}")).is_some());
    }

    #[test]
    fn hit_rate_zero_when_unused() {
        let cache = FiberCache::new(2);
        assert_eq!(cache.mutable_stats.hit_rate(), 0.0);
    }
}
