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

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gozer_obs::{FnProfile, ProfileReport};
use parking_lot::{Mutex, RwLock};

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
    fns: RwLock<HashMap<(u64, u32), Arc<FnStat>>>,
    folded: Mutex<HashMap<Arc<str>, u64>>,
}

impl Default for VmProfiler {
    fn default() -> VmProfiler {
        VmProfiler {
            enabled: AtomicBool::new(false),
            opcodes: std::array::from_fn(|_| AtomicU64::new(0)),
            pairs: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(OPCODE_COUNT * OPCODE_COUNT)
                .collect(),
            fns: RwLock::new(HashMap::new()),
            folded: Mutex::new(HashMap::new()),
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
            local_folded: HashMap::new(),
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
    local_folded: HashMap<Arc<str>, u64>,
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

#[cfg(test)]
mod tests {
    use super::*;

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
