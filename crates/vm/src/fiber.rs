//! Fiber state: the heap-allocated call stack that makes continuations
//! plain data.
//!
//! A *fiber* (paper §3.1) encapsulates a single Gozer flow of control. The
//! GVM keeps the entire execution state — frames, operand stacks, handler
//! and restart stacks, and a small extension map used by Vinz — in
//! ordinary owned data structures. Capturing a continuation is therefore
//! just moving this struct; persisting it is the job of `gozer-serial`.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use gozer_lang::{Symbol, Value};
use parking_lot::Mutex;

use crate::bytecode::ProgramRef;

/// One activation record.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Program owning the running chunk.
    pub program: ProgramRef,
    /// Chunk index.
    pub chunk: u32,
    /// Next instruction index.
    pub pc: u32,
    /// Local variable slots (parameters first, then let-bound).
    pub locals: Vec<Value>,
    /// Operand stack.
    pub stack: Vec<Value>,
    /// Captured values of the closure being executed.
    pub captures: Arc<Vec<Value>>,
}

impl Frame {
    /// Name of the function this frame is executing (its chunk's name) —
    /// what backtraces and the profiler display.
    pub fn fn_name(&self) -> &str {
        &self.program.chunk(self.chunk).name
    }
}

/// An established condition handler (dynamic extent).
#[derive(Debug, Clone)]
pub struct HandlerEntry {
    /// Handler function of one argument (the condition).
    pub func: Value,
}

/// An established restart (dynamic extent), the target of
/// `invoke-restart`.
#[derive(Debug, Clone)]
pub struct RestartEntry {
    /// Fiber-unique id; control transfers reference restarts by id so the
    /// transfer can cross nested interpreter activations.
    pub id: u64,
    /// Restart name (`retry`, `ignore`, ...).
    pub name: Symbol,
    /// Index of the frame that established the restart.
    pub frame_depth: u32,
    /// Operand-stack depth of that frame at establishment.
    pub stack_depth: u32,
    /// Jump target (pc in the establishing chunk) of the restart clause.
    pub target_pc: u32,
    /// Handler-stack length at establishment (restored on transfer).
    pub handlers_len: u32,
    /// Restart-stack length at establishment (restored on transfer).
    pub restarts_len: u32,
    /// True when this entry was copied into a nested activation and its
    /// frame indices refer to an *outer* interpreter; transfers to foreign
    /// restarts propagate out as unwinds. Never true in persisted state.
    pub foreign: bool,
}

/// The dynamic-extent stacks (handlers and restarts).
#[derive(Debug, Clone, Default)]
pub struct DynState {
    /// Active condition handlers, innermost last.
    pub handlers: Vec<HandlerEntry>,
    /// Active restarts, innermost last.
    pub restarts: Vec<RestartEntry>,
}

impl DynState {
    /// Copy for a nested activation: handler prefix `visible_handlers`
    /// (per CL semantics a handler runs with only the handlers outside it
    /// active), all restarts visible but marked foreign.
    pub fn nested_view(&self, visible_handlers: usize) -> DynState {
        DynState {
            handlers: self.handlers[..visible_handlers.min(self.handlers.len())].to_vec(),
            restarts: self
                .restarts
                .iter()
                .map(|r| RestartEntry {
                    foreign: true,
                    ..r.clone()
                })
                .collect(),
        }
    }
}

/// Vinz-visible fiber extension state: travels (and is persisted) with the
/// continuation. Holds the task id, fiber id, spawn-limit bookkeeping,
/// task-variable caches, etc. A `BTreeMap` keeps serialization
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct FiberExt(pub BTreeMap<Symbol, Value>);

impl FiberExt {
    /// Read a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.get(&Symbol::intern(key))
    }

    /// Write a key.
    pub fn set(&mut self, key: &str, v: Value) {
        self.0.insert(Symbol::intern(key), v);
    }

    /// Remove a key, returning the previous value.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.0.remove(&Symbol::intern(key))
    }
}

/// Complete fiber execution state — *the continuation*.
#[derive(Debug, Clone, Default)]
pub struct FiberState {
    /// Call stack, outermost first.
    pub frames: Vec<Frame>,
    /// Handler/restart stacks.
    pub dyn_state: DynState,
    /// Next restart id (persisted so ids stay unique across migrations).
    pub next_restart_id: u64,
    /// Vinz extension data.
    pub ext: FiberExt,
    /// Number of leading frames known to serialize identically to this
    /// fiber's last persisted snapshot — the *clean prefix* that delta
    /// snapshots skip. Transient bookkeeping, never persisted: the GVM
    /// lowers it as execution touches deeper frames (the interpreter only
    /// ever mutates the top frame, so the watermark is the minimum stack
    /// depth seen since the last save), deserialization sets it to
    /// `frames.len()` (a freshly loaded state *is* its snapshot), and 0
    /// always means "no clean prefix" — the safe default.
    pub clean_prefix: usize,
    /// What the serializer kept from seeding this state's clean frames
    /// (transient like `clean_prefix`, never persisted).
    pub seed: SeedCache,
}

/// The tables `gozer-serial` built while seeding a delta snapshot from
/// this continuation's clean frames, kept so the next delta extends them
/// by the newly clean frames instead of walking the whole prefix again.
///
/// The VM never looks inside. It only records how many leading frames
/// the tables may still describe, lowering that count as execution
/// touches deeper frames — the same watermark as
/// [`FiberState::clean_prefix`], except that a save does not raise it.
/// Reachable through `&FiberState` because serialization borrows the
/// state; a clone starts cold, so two copies of one continuation can
/// never see each other's extensions.
#[derive(Default)]
pub struct SeedCache(Mutex<SeedSlot>);

/// Leading frames the tables are still valid for, and the tables.
type SeedSlot = (usize, Option<Box<dyn Any + Send + Sync>>);

impl SeedCache {
    /// Remove the tables, with the number of leading frames they are
    /// still valid for. The cache is cold until the next [`put`](Self::put).
    pub fn take(&self) -> (usize, Option<Box<dyn Any + Send + Sync>>) {
        std::mem::take(&mut *self.0.lock())
    }

    /// Store tables that describe the first `frames` frames.
    pub fn put(&self, frames: usize, tables: Box<dyn Any + Send + Sync>) {
        *self.0.lock() = (frames, Some(tables));
    }

    /// Frames at or above `frames` may have changed: the tables stay
    /// valid for at most that many leading frames.
    pub fn lower(&mut self, frames: usize) {
        let slot = self.0.get_mut();
        slot.0 = slot.0.min(frames);
    }
}

impl Clone for SeedCache {
    fn clone(&self) -> SeedCache {
        SeedCache::default()
    }
}

impl fmt::Debug for SeedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let slot = self.0.lock();
        write!(
            f,
            "SeedCache({} frames, warm: {})",
            slot.0,
            slot.1.is_some()
        )
    }
}

impl FiberState {
    /// Is there anything left to run?
    pub fn is_finished(&self) -> bool {
        self.frames.is_empty()
    }

    /// Rough footprint metric (frames and values), used by cache/bench
    /// instrumentation.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

/// Why [`crate::gvm::Gvm::run_fiber`] stopped.
#[derive(Debug)]
pub enum RunOutcome {
    /// The fiber ran to completion with this value.
    Done(Value),
    /// The fiber suspended via `yield`; resume with
    /// [`crate::gvm::Gvm::resume_fiber`].
    Suspended(Suspension),
}

/// A suspended fiber: the payload handed to `yield` plus the captured
/// continuation.
#[derive(Debug)]
pub struct Suspension {
    /// The value passed to `(yield payload)` — Vinz encodes the *reason*
    /// for suspension here (service call, awaiting children, join, ...).
    pub payload: Value,
    /// The continuation. All futures it references have been determined
    /// (§4.1), so it is immediately serializable.
    pub state: FiberState,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext_roundtrip() {
        let mut ext = FiberExt::default();
        ext.set("task-id", Value::Int(7));
        assert_eq!(ext.get("task-id"), Some(&Value::Int(7)));
        assert_eq!(ext.remove("task-id"), Some(Value::Int(7)));
        assert_eq!(ext.get("task-id"), None);
    }

    #[test]
    fn nested_view_limits_handlers_and_marks_restarts_foreign() {
        let mut ds = DynState::default();
        ds.handlers.push(HandlerEntry { func: Value::Nil });
        ds.handlers.push(HandlerEntry { func: Value::Nil });
        ds.restarts.push(RestartEntry {
            id: 1,
            name: Symbol::intern("retry"),
            frame_depth: 0,
            stack_depth: 0,
            target_pc: 0,
            handlers_len: 0,
            restarts_len: 0,
            foreign: false,
        });
        let v = ds.nested_view(1);
        assert_eq!(v.handlers.len(), 1);
        assert!(v.restarts[0].foreign);
    }

    #[test]
    fn fresh_state_is_finished() {
        assert!(FiberState::default().is_finished());
    }
}
