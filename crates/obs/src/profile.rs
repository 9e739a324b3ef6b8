//! Profile aggregation and reporting: the obs-side view of the GVM
//! execution profiler.
//!
//! `gozer-obs` sits below `gozer-vm` in the dependency graph, so this
//! module defines only plain data: each node VM's profiler exports a
//! [`ProfileReport`], and the embedder (Vinz) merges reports across
//! nodes and folds in the continuation serialize/deserialize costs
//! tracked by [`SerialCosts`]. The report renders two ways:
//!
//! * [`ProfileReport::folded_stacks`] — flamegraph folded format, one
//!   `root;child;leaf weight` line per stack, weight = exclusive nanos
//!   (pipe into `flamegraph.pl` for an SVG);
//! * [`ProfileReport::top_functions`] — a top-N hot-function table by
//!   exclusive time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One profiled function's totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnProfile {
    /// Function name (chunk name; toplevel chunks are `unit#index`).
    pub name: String,
    /// Times a frame for it was entered.
    pub calls: u64,
    /// Nanos while its frame was live and running (suspended intervals
    /// excluded).
    pub incl_nanos: u64,
    /// Inclusive minus time in Gozer callees.
    pub excl_nanos: u64,
}

/// Continuation serialization cost accumulators (lock-free; shared by
/// every persist/load path of a workflow service).
#[derive(Debug, Default)]
pub struct SerialCosts {
    serialize_count: AtomicU64,
    serialize_bytes: AtomicU64,
    serialize_nanos: AtomicU64,
    /// Smallest single-sample cost; `u64::MAX` until first sample.
    serialize_min_nanos: AtomicU64,
    deserialize_count: AtomicU64,
    deserialize_bytes: AtomicU64,
    deserialize_nanos: AtomicU64,
    seed_frames_reused: AtomicU64,
    seed_frames_walked: AtomicU64,
}

impl SerialCosts {
    /// Fresh zeroed accumulators.
    pub fn new() -> SerialCosts {
        SerialCosts {
            serialize_min_nanos: AtomicU64::new(u64::MAX),
            ..SerialCosts::default()
        }
    }

    /// Record one continuation serialization.
    pub fn record_serialize(&self, bytes: u64, nanos: u64) {
        self.serialize_count.fetch_add(1, Ordering::Relaxed);
        self.serialize_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.serialize_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.serialize_min_nanos.fetch_min(nanos, Ordering::Relaxed);
    }

    /// Record one continuation deserialization.
    pub fn record_deserialize(&self, bytes: u64, nanos: u64) {
        self.deserialize_count.fetch_add(1, Ordering::Relaxed);
        self.deserialize_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.deserialize_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record how one delta save or delta load got its seeding tables:
    /// clean frames served by the continuation's seed cache against clean
    /// frames serialized again to rebuild it.
    pub fn record_seeding(&self, reused: u64, walked: u64) {
        self.seed_frames_reused.fetch_add(reused, Ordering::Relaxed);
        self.seed_frames_walked.fetch_add(walked, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    pub fn snapshot(&self) -> SerialCostSnapshot {
        let min = self.serialize_min_nanos.load(Ordering::Relaxed);
        SerialCostSnapshot {
            serialize_count: self.serialize_count.load(Ordering::Relaxed),
            serialize_bytes: self.serialize_bytes.load(Ordering::Relaxed),
            serialize_nanos: self.serialize_nanos.load(Ordering::Relaxed),
            min_serialize_nanos: if min == u64::MAX { None } else { Some(min) },
            deserialize_count: self.deserialize_count.load(Ordering::Relaxed),
            deserialize_bytes: self.deserialize_bytes.load(Ordering::Relaxed),
            deserialize_nanos: self.deserialize_nanos.load(Ordering::Relaxed),
            seed_frames_reused: self.seed_frames_reused.load(Ordering::Relaxed),
            seed_frames_walked: self.seed_frames_walked.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of [`SerialCosts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialCostSnapshot {
    /// Continuations serialized.
    pub serialize_count: u64,
    /// Total envelope bytes written.
    pub serialize_bytes: u64,
    /// Total nanos serializing.
    pub serialize_nanos: u64,
    /// Cheapest single serialization, if any happened. Every recorded
    /// sample is ≥ 1ns, so `Some(0)` never occurs.
    pub min_serialize_nanos: Option<u64>,
    /// Continuations deserialized.
    pub deserialize_count: u64,
    /// Total envelope bytes read.
    pub deserialize_bytes: u64,
    /// Total nanos deserializing.
    pub deserialize_nanos: u64,
    /// Clean frames whose delta seeding tables came from the seed cache.
    pub seed_frames_reused: u64,
    /// Clean frames serialized again to rebuild delta seeding tables.
    pub seed_frames_walked: u64,
}

impl SerialCostSnapshot {
    /// Merge (summing; min of mins).
    pub fn merge(&mut self, other: &SerialCostSnapshot) {
        self.serialize_count += other.serialize_count;
        self.serialize_bytes += other.serialize_bytes;
        self.serialize_nanos += other.serialize_nanos;
        self.min_serialize_nanos = match (self.min_serialize_nanos, other.min_serialize_nanos) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.deserialize_count += other.deserialize_count;
        self.deserialize_bytes += other.deserialize_bytes;
        self.deserialize_nanos += other.deserialize_nanos;
        self.seed_frames_reused += other.seed_frames_reused;
        self.seed_frames_walked += other.seed_frames_walked;
    }
}

/// A complete execution profile: per-function times, per-opcode counts,
/// folded stacks, and continuation costs. Plain data; mergeable across
/// node VMs.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Per-function totals, keyed by name.
    pub functions: BTreeMap<String, FnProfile>,
    /// Opcode name → executed count.
    pub opcodes: BTreeMap<String, u64>,
    /// Folded stack path (`root;child;leaf`) → exclusive nanos.
    pub folded: BTreeMap<String, u64>,
    /// Adjacent dynamic opcode pair `(first, second)` → count. Built
    /// from *constituent* opcodes by the VM profiler, so fused and
    /// unfused nodes merge into one consistent table — this is the data
    /// behind `gozer-repl profile --top-pairs` and the superinstruction
    /// fusion table.
    pub pairs: BTreeMap<(String, String), u64>,
    /// Continuation serialize/deserialize costs.
    pub serial: SerialCostSnapshot,
}

impl ProfileReport {
    /// Fold `other` into `self` (summing everything).
    pub fn merge(&mut self, other: &ProfileReport) {
        for (name, f) in &other.functions {
            let e = self.functions.entry(name.clone()).or_insert_with(|| FnProfile {
                name: name.clone(),
                calls: 0,
                incl_nanos: 0,
                excl_nanos: 0,
            });
            e.calls += f.calls;
            e.incl_nanos += f.incl_nanos;
            e.excl_nanos += f.excl_nanos;
        }
        for (op, n) in &other.opcodes {
            *self.opcodes.entry(op.clone()).or_insert(0) += n;
        }
        for (path, w) in &other.folded {
            *self.folded.entry(path.clone()).or_insert(0) += w;
        }
        for (pair, n) in &other.pairs {
            *self.pairs.entry(pair.clone()).or_insert(0) += n;
        }
        self.serial.merge(&other.serial);
    }

    /// Sum of exclusive nanos over all functions. By construction this
    /// equals [`ProfileReport::total_folded_nanos`]: each closed frame
    /// segment is attributed to exactly one function *and* one folded
    /// path.
    pub fn total_exclusive_nanos(&self) -> u64 {
        self.functions.values().map(|f| f.excl_nanos).sum()
    }

    /// Sum of folded-stack weights.
    pub fn total_folded_nanos(&self) -> u64 {
        self.folded.values().sum()
    }

    /// Total opcodes executed.
    pub fn total_opcodes(&self) -> u64 {
        self.opcodes.values().sum()
    }

    /// Flamegraph folded format: one `path weight` line per stack,
    /// sorted by path. Feed to `flamegraph.pl` (or any folded-stack
    /// consumer); zero-weight stacks are skipped.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for (path, w) in &self.folded {
            if *w > 0 {
                let _ = writeln!(out, "{path} {w}");
            }
        }
        out
    }

    /// The `n` hottest functions by exclusive time, as an aligned text
    /// table with a totals row.
    pub fn top_functions(&self, n: usize) -> String {
        let mut fns: Vec<&FnProfile> = self.functions.values().collect();
        fns.sort_by(|a, b| b.excl_nanos.cmp(&a.excl_nanos).then(a.name.cmp(&b.name)));
        fns.truncate(n);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>14} {:>14}",
            "function", "calls", "incl µs", "excl µs"
        );
        for f in &fns {
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>14.1} {:>14.1}",
                truncate_name(&f.name, 32),
                f.calls,
                f.incl_nanos as f64 / 1_000.0,
                f.excl_nanos as f64 / 1_000.0,
            );
        }
        let _ = writeln!(
            out,
            "{:<32} {:>10} {:>14} {:>14.1}",
            format!("total ({} functions)", self.functions.len()),
            "",
            "",
            self.total_exclusive_nanos() as f64 / 1_000.0,
        );
        out
    }

    /// The `n` hottest adjacent opcode pairs by dynamic count, as an
    /// aligned text table — the reproducible source of the fusion pair
    /// table (`crates/vm/src/fuse.rs`). Zero-count pairs are skipped.
    pub fn top_pairs(&self, n: usize) -> String {
        let mut pairs: Vec<(&(String, String), &u64)> =
            self.pairs.iter().filter(|(_, c)| **c > 0).collect();
        pairs.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        pairs.truncate(n);
        let total = self.total_opcodes().max(1);
        let mut out = String::new();
        let _ = writeln!(out, "{:<36} {:>12} {:>7}", "pair", "count", "share");
        for ((a, b), c) in &pairs {
            let _ = writeln!(
                out,
                "{:<36} {:>12} {:>6.1}%",
                format!("{a};{b}"),
                c,
                **c as f64 * 100.0 / total as f64,
            );
        }
        out
    }

    /// Full human-readable report: hot functions, opcode mix, and
    /// continuation costs.
    pub fn render(&self, top_n: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== hot functions (by exclusive time) ==");
        out.push_str(&self.top_functions(top_n));
        let _ = writeln!(out, "\n== opcodes ({} executed) ==", self.total_opcodes());
        let mut ops: Vec<(&String, &u64)> = self.opcodes.iter().filter(|(_, n)| **n > 0).collect();
        ops.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        for (op, n) in ops {
            let _ = writeln!(out, "{op:<16} {n:>12}");
        }
        let s = &self.serial;
        let _ = writeln!(out, "\n== continuation costs ==");
        let _ = writeln!(
            out,
            "serialize:   {} snapshot(s), {} bytes, {:.1}µs total{}",
            s.serialize_count,
            s.serialize_bytes,
            s.serialize_nanos as f64 / 1_000.0,
            match s.min_serialize_nanos {
                Some(m) => format!(" (min {m}ns)"),
                None => String::new(),
            }
        );
        let _ = writeln!(
            out,
            "deserialize: {} snapshot(s), {} bytes, {:.1}µs total",
            s.deserialize_count,
            s.deserialize_bytes,
            s.deserialize_nanos as f64 / 1_000.0,
        );
        let _ = writeln!(
            out,
            "delta seeding: {} clean frame(s) reused, {} walked",
            s.seed_frames_reused, s.seed_frames_walked,
        );
        out
    }
}

fn truncate_name(name: &str, max: usize) -> String {
    if name.len() <= max {
        name.to_string()
    } else {
        format!("{}…", &name[..name.len().min(max - 1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut r = ProfileReport::default();
        r.functions.insert(
            "main".into(),
            FnProfile {
                name: "main".into(),
                calls: 1,
                incl_nanos: 10_000,
                excl_nanos: 4_000,
            },
        );
        r.functions.insert(
            "helper".into(),
            FnProfile {
                name: "helper".into(),
                calls: 3,
                incl_nanos: 6_000,
                excl_nanos: 6_000,
            },
        );
        r.opcodes.insert("call".into(), 4);
        r.opcodes.insert("return".into(), 4);
        r.folded.insert("main".into(), 4_000);
        r.folded.insert("main;helper".into(), 6_000);
        r
    }

    #[test]
    fn folded_output_matches_flamegraph_format() {
        let r = sample_report();
        assert_eq!(r.folded_stacks(), "main 4000\nmain;helper 6000\n");
        assert_eq!(r.total_folded_nanos(), r.total_exclusive_nanos());
    }

    #[test]
    fn top_functions_sorts_by_exclusive_and_includes_totals() {
        let r = sample_report();
        let table = r.top_functions(10);
        let helper_at = table.find("helper").unwrap();
        let main_at = table.find("main").unwrap();
        assert!(helper_at < main_at, "helper (6µs excl) ranks above main");
        assert!(table.contains("total (2 functions)"));
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = sample_report();
        let b = sample_report();
        a.merge(&b);
        assert_eq!(a.functions["helper"].calls, 6);
        assert_eq!(a.folded["main;helper"], 12_000);
        assert_eq!(a.opcodes["call"], 8);
    }

    #[test]
    fn serial_costs_track_min_nonzero() {
        let c = SerialCosts::new();
        assert_eq!(c.snapshot().min_serialize_nanos, None);
        c.record_serialize(100, 500);
        c.record_serialize(80, 300);
        c.record_deserialize(100, 200);
        let s = c.snapshot();
        assert_eq!(s.serialize_count, 2);
        assert_eq!(s.serialize_bytes, 180);
        assert_eq!(s.min_serialize_nanos, Some(300));
        assert_eq!(s.deserialize_count, 1);
        let mut merged = SerialCostSnapshot::default();
        merged.merge(&s);
        merged.merge(&s);
        assert_eq!(merged.serialize_count, 4);
        assert_eq!(merged.min_serialize_nanos, Some(300));
    }
}
