//! The lock-cheap structured event bus.
//!
//! One [`EventBus`] per cluster. Internally the bus shards its ring
//! buffers by emitting node (node id modulo shard count), so the worker
//! threads of different nodes rarely contend on the same mutex; each
//! shard is a fixed-capacity `VecDeque` ring that drops its oldest
//! event on overflow and counts the drops. A global atomic sequence
//! number gives every event a total order, so a snapshot merges the
//! shards back into one causal stream with a sort by `seq`.
//!
//! The bus is disabled by default, and enabling it is what "tracing"
//! means. An event is built only when the bus is on: [`EventBus::emit`]
//! takes the closure that builds it, so a disabled emit site costs one
//! relaxed atomic load — no `Event`, no `EventKind`, no id `String`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::Event;

/// Number of independent ring-buffer shards.
const SHARDS: usize = 8;

/// Per-shard ring capacity (events beyond it evict the oldest).
pub(crate) const SHARD_CAPACITY: usize = 16 * 1024;

struct Shard {
    ring: Mutex<VecDeque<Event>>,
}

/// Sharded ring buffer of structured [`Event`]s with a global sequence.
pub struct EventBus {
    shards: Vec<Shard>,
    seq: AtomicU64,
    enabled: AtomicBool,
    // A handle the metrics registry adopts as
    // `gozer_events_dropped_total`.
    dropped: Arc<AtomicU64>,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// New bus, disabled.
    pub fn new() -> EventBus {
        EventBus {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    ring: Mutex::new(VecDeque::new()),
                })
                .collect(),
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Turn event collection on or off. Off (the default) makes `emit`
    /// a single atomic load that never runs its closure.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether the bus is currently collecting events.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Emit the event `build` returns; `build` is not called while the
    /// bus is disabled. The one way onto the bus.
    #[inline]
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if self.is_enabled() {
            self.push(build());
        }
    }

    /// Stamp `seq` and `at`, then append to the shard of the emitting
    /// node (`node` id modulo shard count; id-less events go to shard
    /// 0).
    fn push(&self, mut event: Event) {
        event.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.at = Instant::now();
        let shard = &self.shards[event.node.unwrap_or(0) as usize % SHARDS];
        let mut ring = shard.ring.lock();
        if ring.len() >= SHARD_CAPACITY {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Merge every shard into one stream ordered by global sequence.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut all: Vec<Event> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.ring.lock().iter().cloned());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Total events currently buffered across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.ring.lock().len()).sum()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by ring overflow since the last [`EventBus::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The drop counter, for the metrics registry to adopt.
    pub fn dropped_handle(&self) -> &Arc<AtomicU64> {
        &self.dropped
    }

    /// Drop all buffered events and reset the drop counter (the global
    /// sequence keeps counting, so pre- and post-clear snapshots stay
    /// ordered).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.ring.lock().clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn disabled_bus_never_builds_the_event() {
        let bus = EventBus::new();
        assert!(!bus.is_enabled());
        bus.emit(|| panic!("a disabled bus must not run the emit closure"));
        assert!(bus.is_empty());
        // Enabling mid-run collects from the next emit on; disabling
        // again stops building events, and keeps what was collected.
        bus.set_enabled(true);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.set_enabled(false);
        bus.emit(|| panic!("a disabled bus must not run the emit closure"));
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].task.as_deref(), Some("task-1"));
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn snapshot_merges_shards_in_seq_order() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        // Spread across different shards via different node ids.
        for node in [3u32, 0, 7, 1, 5, 2] {
            bus.emit(|| {
                Event::new(EventKind::FiberRun)
                    .node(node)
                    .fiber("task-1/f0")
            });
        }
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 6);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
        assert_eq!(snap[0].node, Some(3));
        assert_eq!(snap[5].node, Some(2));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        let total = SHARD_CAPACITY as u64 + 6;
        for i in 0..total {
            // Same node → same shard → overflow after SHARD_CAPACITY.
            bus.emit(|| Event::new(EventKind::FiberRun).node(0).instance(i));
        }
        assert_eq!(bus.len(), SHARD_CAPACITY);
        assert_eq!(bus.dropped(), 6);
        let snap = bus.snapshot();
        assert_eq!(snap.first().unwrap().instance, Some(6));
        assert_eq!(snap.last().unwrap().instance, Some(total - 1));
    }

    /// Overflow drops must be counted on *every* shard, not just shard
    /// 0: emit past capacity on each shard (distinct node ids cover all
    /// eight, about 131 k events in all) and check the shared counter
    /// accounts for all of them.
    #[test]
    fn ring_overflow_counts_drops_on_every_shard() {
        const EXTRA: usize = 6;
        let bus = EventBus::new();
        bus.set_enabled(true);
        for node in 0..SHARDS as u32 {
            for _ in 0..SHARD_CAPACITY + EXTRA {
                bus.emit(|| Event::new(EventKind::FiberRun).node(node));
            }
        }
        // Every shard kept SHARD_CAPACITY events and dropped the rest.
        assert_eq!(bus.len(), SHARDS * SHARD_CAPACITY);
        assert_eq!(bus.dropped(), (SHARDS * EXTRA) as u64);
        // Each shard's survivors are that node's newest events.
        let snap = bus.snapshot();
        for node in 0..SHARDS as u32 {
            let kept = snap.iter().filter(|e| e.node == Some(node)).count();
            assert_eq!(kept, SHARD_CAPACITY, "shard for node {node}");
        }
    }

    #[test]
    fn clear_resets_buffer_but_not_seq() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.clear();
        assert!(bus.is_empty());
        assert_eq!(bus.dropped(), 0);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-2"));
        assert_eq!(bus.snapshot()[0].seq, 1);
    }

    #[test]
    fn concurrent_emitters_get_unique_seqs() {
        use std::sync::Arc;
        let bus = Arc::new(EventBus::new());
        bus.set_enabled(true);
        let handles: Vec<_> = (0..4u32)
            .map(|node| {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        bus.emit(|| Event::new(EventKind::FiberRun).node(node));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = bus.snapshot();
        assert_eq!(snap.len(), 400);
        let mut seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400);
    }
}
