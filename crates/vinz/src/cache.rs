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
//!   node invalidates the local copy. A hit hands the state over rather
//!   than copying it: the fiber runs it, and its next save puts the new
//!   version back;
//! * **immutable** — write-once data (child results, task definitions),
//!   valid whenever present and shared with every reader.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gozer_vm::FiberState;
use parking_lot::Mutex;
use rustc_hash::FxHashMap;

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
    map: FxHashMap<Arc<str>, (u64, V)>,
    order: BTreeMap<u64, Arc<str>>,
    generation: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: FxHashMap::with_capacity_and_hasher(capacity, Default::default()),
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

    fn remove(&mut self, key: &str) -> Option<V> {
        let (stamp, v) = self.map.remove(key)?;
        self.order.remove(&stamp);
        Some(v)
    }
}

/// The per-node cache.
pub struct FiberCache {
    mutable: Mutex<Lru<(u64, FiberState)>>,
    immutable: Mutex<Lru<Arc<Vec<u8>>>>,
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

    /// Take a fiber state out of the cache; a hit requires the cached
    /// version to match the store's current `version` (a fiber that ran
    /// elsewhere since we cached it has a higher version, so the stale
    /// local copy misses). The entry leaves the cache either way: the
    /// state that runs is the cached one, seeding tables and all, and
    /// the fiber's next save puts its new version back. A second lookup
    /// at this version (a redelivered resume) misses and loads from the
    /// store.
    pub fn get_fiber(&self, fiber_id: &str, version: u64) -> Option<FiberState> {
        let entry = self.mutable.lock().remove(fiber_id);
        match entry {
            Some((cached_version, state)) if cached_version == version => {
                self.mutable_stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(state)
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

    /// Look up immutable data (valid whenever present), shared with the
    /// cache.
    pub fn get_immutable(&self, key: &str) -> Option<Arc<Vec<u8>>> {
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
    pub fn put_immutable(&self, key: &str, data: Arc<Vec<u8>>) {
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
        assert!(tables.is_some(), "the state that runs next saves warm");
        // The state was handed over, not copied: a redelivered resume at
        // the same version must not share tables the first delivery has
        // since extended, so it misses and loads from the store.
        assert!(cache.get_fiber("f1", 1).is_none());
        assert_eq!(cache.mutable_stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.mutable_stats.misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn immutable_hits_when_present() {
        let cache = FiberCache::new(8);
        assert!(cache.get_immutable("r1").is_none());
        let data = Arc::new(vec![1, 2, 3]);
        cache.put_immutable("r1", data.clone());
        let hit = cache.get_immutable("r1").unwrap();
        assert!(Arc::ptr_eq(&hit, &data), "a hit shares the cached bytes");
        assert!((cache.immutable_stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest() {
        let cache = FiberCache::new(2);
        cache.put_immutable("a", Arc::new(vec![1]));
        cache.put_immutable("b", Arc::new(vec![2]));
        assert!(cache.get_immutable("a").is_some()); // refresh a
        cache.put_immutable("c", Arc::new(vec![3])); // evicts b
        assert!(cache.get_immutable("b").is_none());
        assert!(cache.get_immutable("a").is_some());
        assert!(cache.get_immutable("c").is_some());
    }

    /// The scan-for-the-minimum LRU this module used to have: the
    /// reference the indexed one must be indistinguishable from.
    struct NaiveLru {
        map: FxHashMap<String, (u64, u32)>,
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
                map: FxHashMap::default(),
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
