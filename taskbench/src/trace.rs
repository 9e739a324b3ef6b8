//! Harness-side tracing: spans recorded from the benchmark's own files
//! around the calls into each layer, kept in memory and written out
//! when the run ends, and a store wrapper that counts and times every
//! store call the service makes during a traced run.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vinz::{CommitHook, DurabilityTicket, StateStore, StoreError, Watermark};

use crate::json::Json;

/// One timed interval. Spans of one task share `trace` (the task id);
/// `parent` is the span that caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub trace: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Record a finished span; returns its id for children to name.
    pub fn record(
        &self,
        parent: Option<u32>,
        trace: &str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking recorder");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            trace: trace.to_string(),
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        });
        id
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking recorder")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// among children counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children.entry(p.id).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(String, u64)> {
    let selfs = self_times(spans);
    let mut totals: Vec<(String, u64)> = Vec::new();
    for s in spans {
        let t = selfs[&s.id];
        match totals.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, sum)) => *sum += t,
            None => totals.push((s.name.clone(), t)),
        }
    }
    totals
}

pub fn write_trace_file(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let items: Vec<Json> = spans
        .iter()
        .map(|s| {
            Json::obj()
                .field("id", s.id as u64)
                .field(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                )
                .field("trace", s.trace.as_str())
                .field("name", s.name.as_str())
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("self_ns", selfs[&s.id])
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let doc = Json::obj()
        .field("workload", workload)
        .field("spans", items);
    std::fs::write(path, doc.pretty())
}

// ---- store wrapper ------------------------------------------------------

/// The store calls the wrapper tells apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    Put,
    PutBatch,
    Get,
    Delete,
    Flush,
}

const OPS: usize = 5;

/// Calls and busy nanoseconds per [`StoreOp`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    pub calls: [u64; OPS],
    pub nanos: [u64; OPS],
}

impl StoreCounts {
    pub fn calls(&self, op: StoreOp) -> u64 {
        self.calls[op as usize]
    }

    pub fn nanos(&self, op: StoreOp) -> u64 {
        self.nanos[op as usize]
    }

    pub fn diff(&self, earlier: &StoreCounts) -> StoreCounts {
        let mut d = StoreCounts::default();
        for i in 0..OPS {
            d.calls[i] = self.calls[i] - earlier.calls[i];
            d.nanos[i] = self.nanos[i] - earlier.nanos[i];
        }
        d
    }
}

/// A [`StateStore`] that forwards every call to `inner` and records how
/// many calls of each kind the service made and how long they took.
pub struct TracedStore {
    inner: Arc<dyn StateStore>,
    calls: [AtomicU64; OPS],
    nanos: [AtomicU64; OPS],
}

impl TracedStore {
    pub fn new(inner: Arc<dyn StateStore>) -> TracedStore {
        TracedStore {
            inner,
            calls: Default::default(),
            nanos: Default::default(),
        }
    }

    pub fn counts(&self) -> StoreCounts {
        let mut c = StoreCounts::default();
        for i in 0..OPS {
            c.calls[i] = self.calls[i].load(Ordering::Relaxed);
            c.nanos[i] = self.nanos[i].load(Ordering::Relaxed);
        }
        c
    }

    fn timed<T>(&self, op: StoreOp, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        // Statistics: they publish no other data, so Relaxed.
        self.nanos[op as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[op as usize].fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl StateStore for TracedStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.timed(StoreOp::Put, || self.inner.put(key, data))
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed(StoreOp::Get, || self.inner.get(key))
    }
    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.timed(StoreOp::Delete, || self.inner.delete(key))
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.inner.list(prefix)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<DurabilityTicket, StoreError> {
        self.timed(StoreOp::PutBatch, || self.inner.put_batch(entries))
    }
    fn flush(&self) -> Result<Watermark, StoreError> {
        self.timed(StoreOp::Flush, || self.inner.flush())
    }
    fn durable(&self, w: Watermark) -> bool {
        self.inner.durable(w)
    }
    fn attach_obs(&self, obs: &Arc<gozer_obs::Obs>) {
        self.inner.attach_obs(obs)
    }
    fn set_commit_hook(&self, hook: CommitHook) {
        self.inner.set_commit_hook(hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: "task-1".into(),
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(0, None, "task", 0, 100),
            span(1, Some(0), "start", 10, 40),
            // Overlaps `start` by 10 and runs 20 past the parent's end:
            // both parts count once or not at all.
            span(2, Some(0), "wait", 30, 120),
            span(3, Some(1), "queue", 15, 25),
        ];
        let selfs = self_times(&spans);
        // Children cover [10,40) and [30,100) of the root = [10,100).
        assert_eq!(selfs[&0], 10);
        assert_eq!(selfs[&1], 20);
        assert_eq!(selfs[&2], 90);
        assert_eq!(selfs[&3], 10);
    }

    #[test]
    fn self_time_with_no_children_is_the_duration() {
        let spans = [span(0, None, "a", 5, 9), span(1, None, "a", 20, 21)];
        let selfs = self_times(&spans);
        assert_eq!((selfs[&0], selfs[&1]), (4, 1));
        assert_eq!(self_time_by_name(&spans), vec![("a".to_string(), 5)]);
    }

    #[test]
    fn sequential_children_leave_the_gaps_as_self_time() {
        let spans = [
            span(0, None, "ladder", 0, 1_000),
            span(1, Some(0), "vm.exec", 100, 300),
            span(2, Some(0), "store.put", 300, 450),
            span(3, Some(0), "queue.handoff", 500, 900),
        ];
        assert_eq!(self_times(&spans)[&0], 1_000 - 200 - 150 - 400);
    }

    #[test]
    fn traced_store_forwards_and_counts() {
        let store = TracedStore::new(Arc::new(vinz::MemStore::new()));
        store.put("a", b"1").unwrap();
        let before = store.counts();
        store.put_batch(&[("b", b"2"), ("c", b"3")]).unwrap();
        assert_eq!(store.get("c").unwrap(), Some(b"3".to_vec()));
        assert_eq!(store.get("missing").unwrap(), None);
        store.flush().unwrap();
        let d = store.counts().diff(&before);
        assert_eq!(d.calls(StoreOp::Put), 0);
        assert_eq!(d.calls(StoreOp::PutBatch), 1);
        assert_eq!(d.calls(StoreOp::Get), 2);
        assert_eq!(d.calls(StoreOp::Flush), 1);
        assert_eq!(store.counts().calls(StoreOp::Put), 1);
    }
}
