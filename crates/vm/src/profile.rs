//! Low-overhead GVM execution profiler.
//!
//! Sampling-free, atomic-counter instrumentation of the interpreter:
//! per-opcode execution counts and per-function call / inclusive /
//! exclusive wall-time attribution. The profiler is wired into every
//! interpreter activation but costs one relaxed atomic load when
//! disabled — `Gvm::profiler().scope(..)` returns `None` and the step
//! loop only ever tests an `Option`.
//!
//! **Suspension is excluded by construction.** Timing is kept on a
//! shadow stack (one [`TimingEntry`] per live frame) whose clocks exist
//! only while an activation is running: when a fiber suspends at
//! `yield`, every open entry's elapsed segment is attributed and the
//! scope is dropped; when the continuation is later resumed — possibly
//! after serialize/ship/deserialize on another node — a fresh scope
//! re-seeds entries with `start = now`. Time spent suspended, persisted
//! or in transit is therefore never charged to any function, while
//! calls are counted only once (at frame entry, `pc == 0`).
//!
//! Exclusive time of a function includes time spent in native calls it
//! makes (the VM does not model native frames); a native that re-enters
//! the interpreter (handlers, macros, future bodies) is profiled again
//! under its own root, so nested activations show up as separate stacks
//! in the folded output.
//!
//! [`VmProfiler::snapshot`] exports a [`ProfileReport`]: plain data the
//! embedder merges across node VMs and completes with its continuation
//! costs. It renders as a hot-function table
//! ([`ProfileReport::top_functions`], [`ProfileReport::render`]) and as
//! flamegraph folded stacks ([`ProfileReport::folded_stacks`], one
//! `root;child;leaf weight` line per stack, weight = exclusive nanos).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;

use crate::bytecode::Op;
use crate::fiber::Frame;

/// Number of opcode kinds (the `Op` enum's variant count).
pub const OPCODE_COUNT: usize = 28;

/// Display names, indexed by [`opcode_index`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "const",
    "nil",
    "true",
    "pop",
    "dup",
    "load-local",
    "store-local",
    "load-capture",
    "load-global",
    "store-global",
    "def-global",
    "jump",
    "jump-if-false",
    "jump-if-true",
    "call",
    "tail-call",
    "return",
    "make-closure",
    "make-list",
    "make-vector",
    "make-map",
    "yield",
    "push-cc",
    "push-handler",
    "pop-handlers",
    "push-restart",
    "pop-restarts",
    "take-local",
];

/// Dense index of an opcode into the counter array.
pub(crate) fn opcode_index(op: &Op) -> usize {
    match op {
        Op::Const(_) => 0,
        Op::Nil => 1,
        Op::True => 2,
        Op::Pop => 3,
        Op::Dup => 4,
        Op::LoadLocal(_) => 5,
        Op::StoreLocal(_) => 6,
        Op::LoadCapture(_) => 7,
        Op::LoadGlobal(_) => 8,
        Op::StoreGlobal(_) => 9,
        Op::DefGlobal(_) => 10,
        Op::Jump(_) => 11,
        Op::JumpIfFalse(_) => 12,
        Op::JumpIfTrue(_) => 13,
        Op::Call(_) => 14,
        Op::TailCall(_) => 15,
        Op::Return => 16,
        Op::MakeClosure(_) => 17,
        Op::MakeList(_) => 18,
        Op::MakeVector(_) => 19,
        Op::MakeMap(_) => 20,
        Op::Yield => 21,
        Op::PushCC => 22,
        Op::PushHandler => 23,
        Op::PopHandlers(_) => 24,
        Op::PushRestart { .. } => 25,
        Op::PopRestarts(_) => 26,
        Op::TakeLocal(_) => 27,
        // Fused superinstructions are invisible to the profiler: the
        // interpreter counts their constituents individually (the first
        // via this mapping at fetch, the second inside the fused arm),
        // keeping counts bit-identical with `GVM_OPT=nofuse`.
        Op::LoadLocal2(..) | Op::LoadLocalConst(..) | Op::LoadLocalCall(..) => IDX_LOAD_LOCAL,
        Op::GlobalLocal(..) | Op::GlobalLocal2Call(..) | Op::GlobalLocalConstCall(..) => {
            IDX_LOAD_GLOBAL
        }
        Op::ConstCall(..) => IDX_CONST,
        Op::CallBranchFalse(..) => IDX_CALL,
        Op::DupStore(..) => IDX_DUP,
        Op::PopJump(..) => IDX_POP,
    }
}

// Constituent indices the fused interpreter arms count directly.
pub(crate) const IDX_CONST: usize = 0;
pub(crate) const IDX_POP: usize = 3;
pub(crate) const IDX_DUP: usize = 4;
pub(crate) const IDX_LOAD_LOCAL: usize = 5;
pub(crate) const IDX_STORE_LOCAL: usize = 6;
pub(crate) const IDX_LOAD_GLOBAL: usize = 8;
pub(crate) const IDX_JUMP: usize = 11;
pub(crate) const IDX_JUMP_IF_FALSE: usize = 12;
pub(crate) const IDX_CALL: usize = 14;

/// Per-function accumulators. One per (program id, chunk index); shared
/// across all fibers and threads of the owning VM.
struct FnStat {
    name: Arc<str>,
    calls: AtomicU64,
    incl_nanos: AtomicU64,
    excl_nanos: AtomicU64,
}

/// The per-VM profiler. Always present on a [`crate::Gvm`]; disabled by
/// default.
pub struct VmProfiler {
    enabled: AtomicBool,
    opcodes: [AtomicU64; OPCODE_COUNT],
    /// Dense `OPCODE_COUNT × OPCODE_COUNT` matrix of adjacent dynamic
    /// pairs, row = first opcode of the pair.
    pairs: Vec<AtomicU64>,
    fns: RwLock<FxHashMap<(u64, u32), Arc<FnStat>>>,
    folded: Mutex<FxHashMap<Arc<str>, u64>>,
}

impl Default for VmProfiler {
    fn default() -> VmProfiler {
        VmProfiler {
            enabled: AtomicBool::new(false),
            opcodes: std::array::from_fn(|_| AtomicU64::new(0)),
            pairs: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(OPCODE_COUNT * OPCODE_COUNT)
                .collect(),
            fns: RwLock::new(FxHashMap::default()),
            folded: Mutex::new(FxHashMap::default()),
        }
    }
}

impl VmProfiler {
    /// Turn collection on or off. Takes effect at the next interpreter
    /// activation (scopes already open keep collecting).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether collection is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zero every counter (the enabled flag is left alone).
    pub fn reset(&self) {
        for c in &self.opcodes {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.pairs {
            c.store(0, Ordering::Relaxed);
        }
        self.fns.write().clear();
        self.folded.lock().clear();
    }

    /// Begin profiling one interpreter activation over `frames`, or
    /// `None` when disabled — the per-step cost in that case is a single
    /// `Option` test.
    pub(crate) fn scope<'p>(&'p self, frames: &[Frame]) -> Option<ProfScope<'p>> {
        if !self.is_enabled() {
            return None;
        }
        let mut scope = ProfScope {
            prof: self,
            stack: Vec::with_capacity(frames.len().max(8)),
            local_folded: FxHashMap::default(),
            prev_op: None,
        };
        scope.seed(frames);
        Some(scope)
    }

    fn stat_for(&self, frame: &Frame) -> Arc<FnStat> {
        let key = (frame.program.id, frame.chunk);
        if let Some(s) = self.fns.read().get(&key) {
            return s.clone();
        }
        let mut w = self.fns.write();
        w.entry(key)
            .or_insert_with(|| {
                Arc::new(FnStat {
                    name: Arc::from(frame.fn_name()),
                    calls: AtomicU64::new(0),
                    incl_nanos: AtomicU64::new(0),
                    excl_nanos: AtomicU64::new(0),
                })
            })
            .clone()
    }

    /// Export every counter as a report with empty continuation costs
    /// (the embedder owns those). Functions are merged by name, so a
    /// redefined function keeps one row; opcodes and pairs that never
    /// ran are left out.
    pub fn snapshot(&self) -> ProfileReport {
        let mut report = ProfileReport::default();
        for (name, c) in OPCODE_NAMES.iter().zip(&self.opcodes) {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                report.opcodes.insert(name.to_string(), n);
            }
        }
        for stat in self.fns.read().values() {
            let f = report
                .functions
                .entry(stat.name.to_string())
                .or_insert_with(|| FnProfile {
                    name: stat.name.to_string(),
                    calls: 0,
                    incl_nanos: 0,
                    excl_nanos: 0,
                });
            f.calls += stat.calls.load(Ordering::Relaxed);
            f.incl_nanos += stat.incl_nanos.load(Ordering::Relaxed);
            f.excl_nanos += stat.excl_nanos.load(Ordering::Relaxed);
        }
        for (path, w) in self.folded.lock().iter() {
            report.folded.insert(path.to_string(), *w);
        }
        for (i, c) in self.pairs.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n > 0 {
                let pair = (
                    OPCODE_NAMES[i / OPCODE_COUNT].to_string(),
                    OPCODE_NAMES[i % OPCODE_COUNT].to_string(),
                );
                report.pairs.insert(pair, n);
            }
        }
        report
    }
}

/// One shadow-stack slot: the timing state of a live frame.
struct TimingEntry {
    stat: Arc<FnStat>,
    path: Arc<str>,
    start: Instant,
    child_nanos: u64,
}

/// Shadow timing stack for one interpreter activation. Mirrors the
/// frame stack exactly: push on `Call`, replace on `TailCall`, pop on
/// `Return`, truncate on restart transfer, rebuild on continuation
/// resume. Dropping the scope closes every remaining entry, so error
/// exits and suspensions attribute whatever ran.
pub(crate) struct ProfScope<'p> {
    prof: &'p VmProfiler,
    stack: Vec<TimingEntry>,
    /// Folded-path weights buffered locally and flushed on drop, so a
    /// hot recursive function costs an atomic add per return, not a
    /// global map lock.
    local_folded: FxHashMap<Arc<str>, u64>,
    /// Previous *constituent* opcode index, for the adjacent-pair
    /// matrix. Per-activation (resets at scope creation), so the pair
    /// stream is a pure function of the constituent opcode stream and
    /// identical fused vs unfused.
    prev_op: Option<usize>,
}

impl<'p> ProfScope<'p> {
    /// Count one executed opcode.
    #[inline]
    pub(crate) fn count_op(&mut self, op: &Op) {
        self.count_idx(opcode_index(op));
    }

    /// Count one executed constituent by dense index — used by the
    /// fused interpreter arms to credit their second constituent.
    #[inline]
    pub(crate) fn count_idx(&mut self, idx: usize) {
        self.prof.opcodes[idx].fetch_add(1, Ordering::Relaxed);
        if let Some(prev) = self.prev_op {
            self.prof.pairs[prev * OPCODE_COUNT + idx].fetch_add(1, Ordering::Relaxed);
        }
        self.prev_op = Some(idx);
    }

    /// Mirror the current frame stack (activation entry and
    /// continuation resume). Only never-executed frames (`pc == 0`) are
    /// counted as calls: a resumed continuation's frames were counted
    /// when first pushed.
    fn seed(&mut self, frames: &[Frame]) {
        let now = Instant::now();
        for frame in frames {
            let stat = self.prof.stat_for(frame);
            if frame.pc == 0 {
                stat.calls.fetch_add(1, Ordering::Relaxed);
            }
            let path = self.extend_path(&stat.name);
            self.stack.push(TimingEntry {
                stat,
                path,
                start: now,
                child_nanos: 0,
            });
        }
    }

    fn extend_path(&self, name: &str) -> Arc<str> {
        match self.stack.last() {
            Some(parent) => Arc::from(format!("{};{}", parent.path, name).as_str()),
            None => Arc::from(name),
        }
    }

    /// A frame was pushed by `Op::Call`.
    pub(crate) fn on_push(&mut self, frame: &Frame) {
        let stat = self.prof.stat_for(frame);
        stat.calls.fetch_add(1, Ordering::Relaxed);
        let path = self.extend_path(&stat.name);
        self.stack.push(TimingEntry {
            stat,
            path,
            start: Instant::now(),
            child_nanos: 0,
        });
    }

    /// The top frame was replaced by `Op::TailCall`: close the old
    /// entry, open (and count) the new one at the same depth.
    pub(crate) fn on_tail_call(&mut self, frame: &Frame) {
        self.close_top();
        self.on_push(frame);
    }

    /// The top frame returned.
    pub(crate) fn on_return(&mut self) {
        self.close_top();
    }

    /// The frame stack was truncated to `depth` (restart transfer).
    pub(crate) fn on_truncate(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.close_top();
        }
    }

    /// The frame stack was wholesale replaced (first-class continuation
    /// resume): close everything, mirror the new stack.
    pub(crate) fn on_replace(&mut self, frames: &[Frame]) {
        self.on_truncate(0);
        self.seed(frames);
    }

    /// Attribute every open segment now (called just before suspension
    /// so future-determination waits are not charged to the fiber).
    pub(crate) fn suspend_closeout(&mut self) {
        self.on_truncate(0);
    }

    fn close_top(&mut self) {
        let Some(e) = self.stack.pop() else { return };
        let seg = e.start.elapsed().as_nanos() as u64;
        let excl = seg.saturating_sub(e.child_nanos);
        e.stat.incl_nanos.fetch_add(seg, Ordering::Relaxed);
        e.stat.excl_nanos.fetch_add(excl, Ordering::Relaxed);
        *self.local_folded.entry(e.path).or_insert(0) += excl;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_nanos += seg;
        }
    }
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        self.on_truncate(0);
        if !self.local_folded.is_empty() {
            let mut folded = self.prof.folded.lock();
            for (path, w) in self.local_folded.drain() {
                *folded.entry(path).or_insert(0) += w;
            }
        }
    }
}

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

/// What saving and loading continuations cost a deployment. The VM
/// never fills it: the embedder reads its own save/load counters into
/// [`ProfileReport::serial`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialCostSnapshot {
    /// Continuations serialized and persisted.
    pub serialize_count: u64,
    /// Total envelope bytes persisted.
    pub serialize_bytes: u64,
    /// Total nanos serializing.
    pub serialize_nanos: u64,
    /// Cheapest single serialization, if any happened. Every recorded
    /// sample is ≥ 1ns, so `Some(0)` never occurs.
    pub min_serialize_nanos: Option<u64>,
    /// Continuation records deserialized (a base and each delta on it).
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
    /// Fold `other`'s VM data into `self` (summing); `serial` is left
    /// alone, since each deployment's costs are counted once.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (name, f) in &other.functions {
            let e = self
                .functions
                .entry(name.clone())
                .or_insert_with(|| FnProfile {
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
    fn opcode_index_is_dense_and_total() {
        // Every variant maps inside the table; spot-check both ends.
        assert_eq!(opcode_index(&Op::Const(0)), 0);
        assert_eq!(opcode_index(&Op::TakeLocal(0)), OPCODE_COUNT - 1);
        assert_eq!(OPCODE_NAMES.len(), OPCODE_COUNT);
    }

    #[test]
    fn disabled_profiler_yields_no_scope() {
        let p = VmProfiler::default();
        assert!(p.scope(&[]).is_none());
        p.set_enabled(true);
        assert!(p.scope(&[]).is_some());
    }

    #[test]
    fn snapshot_of_fresh_profiler_is_empty() {
        let p = VmProfiler::default();
        let s = p.snapshot();
        assert!(s.opcodes.is_empty());
        assert!(s.functions.is_empty());
        assert!(s.folded.is_empty());
        assert!(s.pairs.is_empty());
    }

    #[test]
    fn attributes_calls_times_and_folded_stacks() {
        let gvm = crate::Gvm::new();
        gvm.profiler().set_enabled(true);
        gvm.eval_str("(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))")
            .unwrap();
        gvm.eval_str("(fib 10)").unwrap();
        let s = gvm.profiler().snapshot();
        let fib = &s.functions["fib"];
        assert_eq!(fib.calls, 177, "fib(10) makes 177 fib invocations");
        assert!(fib.incl_nanos >= fib.excl_nanos);
        // Every exclusive segment lands in exactly one folded path.
        assert_eq!(s.total_exclusive_nanos(), s.total_folded_nanos());
        assert!(s.folded.keys().any(|p| p.contains("fib;fib")));
        assert!(s.opcodes["call"] > 0, "call opcodes counted");
        // Disabled VMs collect nothing.
        let quiet = crate::Gvm::new();
        quiet.eval_str("(+ 1 2)").unwrap();
        assert!(quiet.profiler().snapshot().functions.is_empty());
    }

    #[test]
    fn suspended_intervals_are_excluded() {
        use crate::fiber::RunOutcome;
        use gozer_lang::Value;

        let gvm = crate::Gvm::new();
        gvm.profiler().set_enabled(true);
        gvm.eval_str("(defun waiter () (yield :a) (yield :b) 42)")
            .unwrap();
        let f = gvm.function("waiter").unwrap();
        let RunOutcome::Suspended(s1) = gvm.call_fiber(&f, vec![]).unwrap() else {
            panic!("expected first suspension")
        };
        std::thread::sleep(std::time::Duration::from_millis(60));
        let RunOutcome::Suspended(s2) = gvm.resume_fiber(s1.state, Value::Nil).unwrap() else {
            panic!("expected second suspension")
        };
        std::thread::sleep(std::time::Duration::from_millis(60));
        let RunOutcome::Done(v) = gvm.resume_fiber(s2.state, Value::Nil).unwrap() else {
            panic!("expected completion")
        };
        assert_eq!(v, Value::Int(42));
        let s = gvm.profiler().snapshot();
        let w = &s.functions["waiter"];
        assert_eq!(w.calls, 1, "resume must not re-count the call");
        assert!(
            w.incl_nanos < 50_000_000,
            "suspended time charged to waiter: {}ns",
            w.incl_nanos
        );
    }
}
