//! The GVM interpreter loop.
//!
//! Executes [`Op`] streams against a heap-allocated frame stack. Two
//! activation modes exist:
//!
//! * **fiber mode** (`nested = false`): the top-level run of a fiber. May
//!   suspend at `yield`, producing a serializable continuation.
//! * **nested mode** (`nested = true`): interpreter re-entry from Rust —
//!   condition handlers, macro expansion, reader macros, future bodies,
//!   and higher-order natives. A nested activation cannot suspend; Vinz
//!   relies on this to force synchronous service calls on background
//!   threads (§3.2).
//!
//! Non-local control (restart transfers, Vinz `break`/`terminate`) crosses
//! activations as [`Unwind`] errors caught by the activation that owns the
//! target restart.
//!
//! # Fast paths
//!
//! The dispatch loop carries several semantics-preserving optimizations,
//! all gated by [`crate::opt::OptConfig`] (env `GVM_OPT`) and all required
//! to keep the profiler's opcode/pair counts and every observable pc
//! bit-identical with the de-optimized interpreter:
//!
//! * **Inline caches** for `LoadGlobal`/`GlobalLocal`: each site caches
//!   `(global-table generation, slot)` in its chunk's per-pc cache word
//!   and skips the name lookup while the generation matches (the table
//!   only bumps the generation when a *new* name is defined). A second,
//!   activation-local layer ([`GlobalCache`]) caches slot *values* keyed
//!   on the table's write epoch, so a cache hit costs one atomic load
//!   and a vector index instead of a read-lock acquisition.
//! * **Superinstructions**: fused ops execute both constituents and skip
//!   the pc past both; the second constituent is still present in the
//!   next slot for jumps and resumed continuations to land on.
//! * **Frame pooling**: frames popped by `Return`/`TailCall` are recycled
//!   within the activation instead of round-tripping the allocator. The
//!   pool never touches frames below the dirty watermark, so the
//!   `clean_prefix` delta-snapshot contract is unaffected.
//! * **Two-int arithmetic and simple closure calls** inline the hottest
//!   `Call` shapes: native `+`/`-`/`*`/comparisons on two `Int`s compute
//!   in place (falling back to the generic native on overflow or other
//!   types), and calls to closures with only required parameters move
//!   their arguments straight off the caller's stack into the callee
//!   frame with no intermediate argument vector.
//!
//! The loop itself is structured for speed: `run_loop` owns
//! fetch/dispatch, so hot opcodes execute without a per-instruction
//! function call or `Flow` round-trip, and the dirty watermark is
//! maintained only at the points where the frame stack can shrink
//! (`Return`, restart transfers, suspension) — everywhere else
//! `frames.len()` is non-decreasing, so the minimum the delta-snapshot
//! contract asks for is unchanged.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use gozer_lang::Value;

use crate::bytecode::{CaptureSource, Chunk, Op, ParamSpec, Program, ProgramRef};
use crate::conditions::Condition;
use crate::error::{Unwind, VmError, VmResult};
use crate::fiber::{DynState, FiberExt, FiberState, Frame, HandlerEntry, RestartEntry};
use crate::gvm::{Gvm, NativeCtx};
use crate::opt::OptConfig;
use crate::profile::{
    ProfScope, IDX_CALL, IDX_CONST, IDX_JUMP, IDX_JUMP_IF_FALSE, IDX_LOAD_LOCAL,
    IDX_STORE_LOCAL,
};
use crate::runtime::{
    determine_deep, force, force_all, Closure, ContinuationVal, Fast2, NativeFn, NativeOutcome,
};

/// Result of the interpreter loop.
pub(crate) enum InterpOutcome {
    /// Final value of the outermost frame.
    Done(Value),
    /// Suspended at a `yield`; the payload explains why (Vinz encodes the
    /// suspension reason here). The caller owns the captured state.
    Suspended(Value),
}

/// Why `run_loop` (or `do_call`) stopped.
enum Flow {
    /// Only produced by `do_call`: the call completed without leaving the
    /// activation and the dispatch loop keeps going.
    Continue,
    Done(Value),
    Suspend(Value),
}

/// What to do with a call's result value — `Push` for plain calls,
/// `BranchFalse` for the value path of the fused `CallBranchFalse` (the
/// suspension and closure paths instead fall through to the retained
/// `JumpIfFalse` in the next slot).
#[derive(Clone, Copy)]
enum AfterCall {
    Push,
    BranchFalse(i32),
}

/// Per-activation free list of recycled [`Frame`]s. Only frames popped
/// off the *top* of the stack (Return, TailCall replacement) enter the
/// pool — frames at or below the dirty watermark are never touched, so
/// recycling is invisible to the delta-snapshot machinery. Recycled
/// frames are scrubbed (locals/stack cleared) on entry so pooled
/// capacity, not values, is what gets reused.
struct FramePool {
    enabled: bool,
    free: Vec<Frame>,
}

const FRAME_POOL_CAP: usize = 64;

impl FramePool {
    fn new(enabled: bool) -> FramePool {
        FramePool {
            enabled,
            free: Vec::new(),
        }
    }

    fn recycle(&mut self, mut f: Frame) {
        if !self.enabled || self.free.len() >= FRAME_POOL_CAP {
            return;
        }
        f.locals.clear();
        f.stack.clear();
        self.free.push(f);
    }
}

/// Activation-local global *value* cache, layered over the per-site
/// inline caches. Validated against the global table's write epoch on
/// every read: while no global anywhere changes (the common case inside
/// a hot loop), a cached slot read is one atomic load plus a vector
/// index — no lock. Any write to any global bumps the epoch and drops
/// the whole cache. Same-thread writes are always observed (the epoch
/// bump is sequenced before the next read in program order);
/// cross-thread writes race exactly as they do against the locked read
/// path.
struct GlobalCache {
    enabled: bool,
    epoch: u64,
    slots: Vec<Option<Value>>,
}

impl GlobalCache {
    fn new(enabled: bool) -> GlobalCache {
        // Epoch 0 never matches the table (it starts at 1), so the first
        // read always misses into the table.
        GlobalCache {
            enabled,
            epoch: 0,
            slots: Vec::new(),
        }
    }

    #[inline]
    fn get(&mut self, gvm: &Gvm, slot: u32) -> Value {
        if !self.enabled {
            return gvm.global_slot_value(slot);
        }
        if self.epoch == gvm.global_epoch() {
            if let Some(Some(v)) = self.slots.get(slot as usize) {
                return v.clone();
            }
        }
        self.refill(gvm, slot)
    }

    /// Epoch rollover or first read of a slot: (re)validate the cache and
    /// fill from the table. Out of line so the hit path stays small.
    #[inline(never)]
    fn refill(&mut self, gvm: &Gvm, slot: u32) -> Value {
        let cur = gvm.global_epoch();
        if cur != self.epoch {
            self.slots.clear();
            self.epoch = cur;
        }
        let i = slot as usize;
        if let Some(Some(v)) = self.slots.get(i) {
            return v.clone();
        }
        let v = gvm.global_slot_value(slot);
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(v.clone());
        v
    }
}

/// Run until completion or suspension. On entry, `resume` (if provided)
/// is pushed onto the top frame's operand stack — the value "returned by"
/// the yield that suspended the fiber.
///
/// `low` is the dirty-tracking watermark: the interpreter only ever
/// mutates the top frame (value ops, calls, returns, restart transfers
/// all work through `top`/push/pop/truncate), so the minimum stack depth
/// observed between steps bounds the damage — every frame below
/// `low - 1` is byte-identical to what the caller passed in. The caller
/// starts it no higher than its clean prefix + 1, so those frames also
/// match the last snapshot and a capture need not visit them again.
/// Continuation resumption replaces the whole stack and drops the
/// watermark to 0. Nested activations pass a throwaway.
pub(crate) fn interp(
    gvm: &Arc<Gvm>,
    frames: &mut Vec<Frame>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    nested: bool,
    resume: Option<Value>,
    low: &mut usize,
) -> VmResult<InterpOutcome> {
    if let Some(v) = resume {
        let f = frames
            .last_mut()
            .ok_or_else(|| VmError::msg("cannot resume a finished fiber"))?;
        f.stack.push(v);
    }
    // Optimization switches are sampled once per activation.
    let opt = gvm.opt();
    let mut pool = FramePool::new(opt.frame_pool);
    let mut gcache = GlobalCache::new(opt.inline_caches);
    // One enabled check per activation; a disabled profiler costs an
    // `Option` test per step from here on. Dropping the scope (any exit
    // path) attributes whatever is still open.
    let mut prof = gvm.profiler().scope(frames);
    loop {
        match run_loop(
            gvm, frames, ds, ids, ext, nested, &mut prof, low, &mut pool, &opt, &mut gcache,
        ) {
            Ok(Flow::Continue) => unreachable!("run_loop never yields Continue"),
            Ok(Flow::Done(v)) => return Ok(InterpOutcome::Done(v)),
            Ok(Flow::Suspend(payload)) => {
                // Close timing segments *before* the determination wait
                // below: time blocked on futures (whose bodies profile
                // under their own activations) is not charged here, just
                // like the suspended interval that follows.
                if let Some(p) = prof.as_mut() {
                    p.suspend_closeout();
                }
                // §4.1: the continuation only becomes available once every
                // future it references is determined.
                *low = (*low).min(frames.len());
                determine_frames(frames, *low)?;
                return Ok(InterpOutcome::Suspended(payload));
            }
            Err(e) => {
                if !try_restart_transfer(&e, frames, ds)? {
                    return Err(e);
                }
                *low = (*low).min(frames.len());
                if let Some(p) = prof.as_mut() {
                    p.on_truncate(frames.len());
                }
            }
        }
    }
}

/// Attempt to perform a restart transfer for `e` within this activation:
/// unwind the frame stack to the establishing frame, reset its operand
/// stack and pc, restore the dynamic stacks, and deliver the restart
/// arguments as a single list value. Returns true when the transfer was
/// performed; foreign restarts (owned by an outer activation) are left
/// for their owner.
fn try_restart_transfer(
    e: &VmError,
    frames: &mut Vec<Frame>,
    ds: &mut DynState,
) -> VmResult<bool> {
    let VmError::Unwind(Unwind::Restart { id, args }) = e else {
        return Ok(false);
    };
    let Some(pos) = ds
        .restarts
        .iter()
        .rposition(|r| r.id == *id && !r.foreign)
    else {
        return Ok(false);
    };
    let entry = ds.restarts[pos].clone();
    frames.truncate(entry.frame_depth as usize + 1);
    let f = frames
        .last_mut()
        .ok_or_else(|| VmError::msg("restart transfer into empty stack"))?;
    f.stack.truncate(entry.stack_depth as usize);
    f.pc = entry.target_pc;
    ds.handlers.truncate(entry.handlers_len as usize);
    ds.restarts.truncate(entry.restarts_len as usize);
    f.stack.push(Value::list(args.clone()));
    Ok(true)
}

/// Work the inner dispatch loop cannot finish against the top frame
/// alone — it breaks out and the outer loop handles it with the full
/// frame stack in scope.
enum Pending {
    Call { n: u16, tail: bool, after: AfterCall },
    Return,
    PushCC,
}

/// The fetch/dispatch loop. Runs instructions until the activation
/// finishes (`Done`), suspends (`Suspend`), or an error propagates — the
/// caller handles restart transfers and re-enters.
///
/// Structured as two nested loops: the inner loop borrows the top frame
/// *once* and dispatches every instruction that only touches that frame
/// (the overwhelming majority), so the frame's pc/stack stay in
/// registers. Instructions that grow or shrink the frame stack — calls,
/// returns, continuation capture — break out with a [`Pending`] action,
/// the outer loop applies it with full access to `frames`, and the inner
/// loop re-borrows whatever frame is then on top.
#[allow(clippy::too_many_arguments)]
fn run_loop(
    gvm: &Arc<Gvm>,
    frames: &mut Vec<Frame>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    nested: bool,
    prof: &mut Option<ProfScope<'_>>,
    low: &mut usize,
    pool: &mut FramePool,
    opt: &OptConfig,
    gcache: &mut GlobalCache,
) -> VmResult<Flow> {
    loop {
        let flen = frames.len();
        let f = frames
            .last_mut()
            .ok_or_else(|| VmError::msg("interpreter entered with no frames"))?;
        // Split the frame into disjoint field borrows so the chunk (and its
        // code slice) hoist out of the dispatch loop — nothing dispatched
        // here changes the running chunk; anything that could breaks out.
        let Frame {
            program,
            chunk: cur_chunk,
            pc,
            locals,
            stack,
            captures,
        } = f;
        let program: &ProgramRef = program;
        let cur_chunk = *cur_chunk;
        let chunk = program.chunk(cur_chunk);
        let code = &chunk.code[..];
        let pending = loop {
            let op = *code.get(*pc as usize).ok_or_else(|| {
                VmError::Bytecode(format!(
                    "pc {} ran off the end of chunk {} ({}, len {})",
                    pc,
                    cur_chunk,
                    chunk.name,
                    code.len()
                ))
            })?;
            *pc += 1;
            if let Some(p) = prof.as_mut() {
                // Fused ops count as their *first* constituent here; the fused
                // arms below credit the second at the matching execution point.
                p.count_op(&op);
            }
            match op {
                Op::Const(i) => {
                    let v = program.consts[i as usize].clone();
                    stack.push(v);
                }
                Op::Nil => stack.push(Value::Nil),
                Op::True => stack.push(Value::Bool(true)),
                Op::Pop => {
                    stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                }
                Op::Dup => {
                    let v = stack
                        .last()
                        .cloned()
                        .ok_or_else(|| VmError::msg("dup on empty stack"))?;
                    stack.push(v);
                }
                Op::LoadLocal(slot) => {
                    let v = locals[slot as usize].clone();
                    stack.push(v);
                }
                Op::StoreLocal(slot) => {
                    let v = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    locals[slot as usize] = v;
                }
                Op::TakeLocal(slot) => {
                    let v = std::mem::replace(&mut locals[slot as usize], Value::Nil);
                    stack.push(v);
                }
                Op::LoadCapture(i) => {
                    let v = captures[i as usize].clone();
                    stack.push(v);
                }
                Op::LoadGlobal(c) => {
                    let ic_pc = (*pc - 1) as usize;
                    match load_global(gvm, program, chunk, c, ic_pc, opt.inline_caches, gcache)? {
                        Some(v) => stack.push(v),
                        None => return Err(unbound_global(gvm, program, ds, ids, ext, c)),
                    }
                }
                // StoreGlobal and DefGlobal share semantics at runtime: both
                // write the named global unconditionally (`defvar`'s
                // define-if-unbound check is compiled away before this point).
                // They remain distinct opcodes only for the disassembler and
                // the profiler's per-opcode counts.
                Op::StoreGlobal(c) | Op::DefGlobal(c) => {
                    let sym = const_symbol(program, c)?;
                    let v = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    gvm.set_global(sym, v);
                }
                Op::Jump(off) => {
                    *pc = (*pc as i64 + off as i64) as u32;
                }
                Op::JumpIfFalse(off) => {
                    let v = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    let v = force(v)?;
                    if !v.is_truthy() {
                        *pc = (*pc as i64 + off as i64) as u32;
                    }
                }
                Op::JumpIfTrue(off) => {
                    let v = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    let v = force(v)?;
                    if v.is_truthy() {
                        *pc = (*pc as i64 + off as i64) as u32;
                    }
                }
                Op::Call(n) => {
                    // Two-int native arithmetic completes without leaving
                    // the inner loop; everything else is a Pending::Call.
                    if opt.fast_paths && n == 2 {
                        if let Some(v) = try_fast2(stack) {
                            stack.push(v);
                            continue;
                        }
                    }
                    break Pending::Call { n, tail: false, after: AfterCall::Push };
                }
                Op::TailCall(n) => {
                    // A native in tail position pushes its value like the
                    // generic path does (the following Return pops the
                    // frame), so fast2 applies here too.
                    if opt.fast_paths && n == 2 {
                        if let Some(v) = try_fast2(stack) {
                            stack.push(v);
                            continue;
                        }
                    }
                    break Pending::Call { n, tail: true, after: AfterCall::Push };
                }
                Op::Return => break Pending::Return,
                Op::MakeClosure(ci) => {
                    let target = program.chunk(ci);
                    let caps: Vec<Value> = target
                        .captures
                        .iter()
                        .map(|src| match src {
                            CaptureSource::Local(slot) => locals[*slot as usize].clone(),
                            CaptureSource::Capture(i) => captures[*i as usize].clone(),
                        })
                        .collect();
                    let closure = Value::Func(Arc::new(Closure {
                        program: program.clone(),
                        chunk: ci,
                        captures: Arc::new(caps),
                    }));
                    stack.push(closure);
                }
                Op::MakeList(n) => {
                    let items = popn_stack(stack, n as usize)?;
                    stack.push(Value::list(items));
                }
                Op::MakeVector(n) => {
                    let items = popn_stack(stack, n as usize)?;
                    stack.push(Value::vector(items));
                }
                Op::MakeMap(n) => {
                    let items = popn_stack(stack, 2 * n as usize)?;
                    let mut m = gozer_lang::AssocMap::new();
                    let mut it = items.into_iter();
                    while let (Some(k), Some(v)) = (it.next(), it.next()) {
                        m.insert(k, v);
                    }
                    stack.push(Value::Map(Arc::new(m)));
                }
                Op::Yield => {
                    let payload = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    if nested {
                        return Err(VmError::Unwind(Unwind::YieldFromNested));
                    }
                    return Ok(Flow::Suspend(payload));
                }
                Op::PushCC => break Pending::PushCC,
                Op::PushHandler => {
                    let func = stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    ds.handlers.push(HandlerEntry { func });
                }
                Op::PopHandlers(n) => {
                    let new_len = ds.handlers.len().saturating_sub(n as usize);
                    ds.handlers.truncate(new_len);
                }
                Op::PushRestart { name, offset } => {
                    let sym = program.consts[name as usize]
                        .as_symbol()
                        .ok_or_else(|| VmError::msg("restart name constant must be a symbol"))?;
                    let target_pc = (*pc as i64 + offset as i64) as u32;
                    *ids += 1;
                    ds.restarts.push(RestartEntry {
                        id: *ids,
                        name: sym,
                        frame_depth: (flen - 1) as u32,
                        stack_depth: stack.len() as u32,
                        target_pc,
                        handlers_len: ds.handlers.len() as u32,
                        restarts_len: ds.restarts.len() as u32,
                        foreign: false,
                    });
                }
                Op::PopRestarts(n) => {
                    let new_len = ds.restarts.len().saturating_sub(n as usize);
                    ds.restarts.truncate(new_len);
                }

                // ---- superinstructions --------------------------------------
                //
                // Each fused arm replicates its constituents *exactly* — same
                // pc at every fallible point, same profiler count stream —
                // and skips the pc past the retained second slot on the paths
                // that complete both halves. Suspension and closure-call
                // paths deliberately leave the pc at the second slot so the
                // retained original instruction runs on return/resume.
                Op::LoadLocal2(a, b) => {
                    let v = locals[a as usize].clone();
                    stack.push(v);
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_LOAD_LOCAL);
                    }
                    let v = locals[b as usize].clone();
                    stack.push(v);
                    *pc += 1;
                }
                Op::LoadLocalConst(s, c) => {
                    let v = locals[s as usize].clone();
                    stack.push(v);
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_CONST);
                    }
                    let v = program.consts[c as usize].clone();
                    stack.push(v);
                    *pc += 1;
                }
                Op::GlobalLocal(g, s) => {
                    // The global resolves before the pc advances: an unbound
                    // error surfaces at the fused slot's pc, exactly like the
                    // unfused LoadGlobal.
                    let ic_pc = (*pc - 1) as usize;
                    match load_global(gvm, program, chunk, g, ic_pc, opt.inline_caches, gcache)? {
                        Some(v) => stack.push(v),
                        None => return Err(unbound_global(gvm, program, ds, ids, ext, g)),
                    }
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_LOAD_LOCAL);
                    }
                    let v = locals[s as usize].clone();
                    stack.push(v);
                    *pc += 1;
                }
                Op::ConstCall(c, n) => {
                    let v = program.consts[c as usize].clone();
                    stack.push(v);
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_CALL);
                    }
                    // Advance past the retained Call before the call logic
                    // runs, so suspensions and errors observe the unfused pc.
                    *pc += 1;
                    if opt.fast_paths && n == 2 {
                        if let Some(v) = try_fast2(stack) {
                            stack.push(v);
                            continue;
                        }
                    }
                    break Pending::Call { n, tail: false, after: AfterCall::Push };
                }
                Op::LoadLocalCall(s, n) => {
                    let v = locals[s as usize].clone();
                    stack.push(v);
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_CALL);
                    }
                    *pc += 1;
                    if opt.fast_paths && n == 2 {
                        if let Some(v) = try_fast2(stack) {
                            stack.push(v);
                            continue;
                        }
                    }
                    break Pending::Call { n, tail: false, after: AfterCall::Push };
                }
                Op::CallBranchFalse(n, off) => {
                    // The pc stays at the retained JumpIfFalse: closure pushes
                    // return into it, and suspensions resume into it. Only the
                    // immediate-value path consumes it — including the inline
                    // fast2 hit, which performs the retained branch exactly
                    // like `finish_call_value`.
                    if opt.fast_paths && n == 2 {
                        if let Some(v) = try_fast2(stack) {
                            if let Some(p) = prof.as_mut() {
                                p.count_idx(IDX_JUMP_IF_FALSE);
                            }
                            *pc += 1;
                            let v = force(v)?;
                            if !v.is_truthy() {
                                *pc = (*pc as i64 + off as i64) as u32;
                            }
                            continue;
                        }
                    }
                    break Pending::Call { n, tail: false, after: AfterCall::BranchFalse(off) };
                }
                Op::DupStore(slot) => {
                    // Dup; StoreLocal — net effect: the top of stack stays
                    // put and the local gets a copy of it.
                    let v = stack
                        .last()
                        .cloned()
                        .ok_or_else(|| VmError::msg("dup on empty stack"))?;
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_STORE_LOCAL);
                    }
                    locals[slot as usize] = v;
                    *pc += 1;
                }
                Op::PopJump(off) => {
                    stack
                        .pop()
                        .ok_or_else(|| VmError::msg("operand stack underflow"))?;
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_JUMP);
                    }
                    // The retained Jump's offset is relative to its own
                    // slot: advance past it first, then apply.
                    *pc += 1;
                    *pc = (*pc as i64 + off as i64) as u32;
                }
                Op::GlobalLocal2Call(g, a, b) => {
                    // The whole `(op local local)` call: on the two-int
                    // native fast path only the *result* touches the
                    // operand stack — no callee clone, no argument
                    // pushes. Anything else reconstructs the unfused
                    // stack shape and takes the generic call path.
                    let ic_pc = (*pc - 1) as usize;
                    let callee =
                        match load_global(gvm, program, chunk, g, ic_pc, opt.inline_caches, gcache)? {
                            Some(v) => v,
                            None => return Err(unbound_global(gvm, program, ds, ids, ext, g)),
                        };
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_LOAD_LOCAL);
                        p.count_idx(IDX_LOAD_LOCAL);
                        p.count_idx(IDX_CALL);
                    }
                    *pc += 3;
                    if opt.fast_paths {
                        if let (Value::Int(x), Value::Int(y)) =
                            (&locals[a as usize], &locals[b as usize])
                        {
                            if let Some(v) =
                                fast2_of(&callee).and_then(|op2| fast2_apply(op2, *x, *y))
                            {
                                stack.push(v);
                                continue;
                            }
                        }
                    }
                    stack.push(callee);
                    stack.push(locals[a as usize].clone());
                    stack.push(locals[b as usize].clone());
                    break Pending::Call { n: 2, tail: false, after: AfterCall::Push };
                }
                Op::GlobalLocalConstCall(g, s, c) => {
                    let ic_pc = (*pc - 1) as usize;
                    let callee =
                        match load_global(gvm, program, chunk, g, ic_pc, opt.inline_caches, gcache)? {
                            Some(v) => v,
                            None => return Err(unbound_global(gvm, program, ds, ids, ext, g)),
                        };
                    if let Some(p) = prof.as_mut() {
                        p.count_idx(IDX_LOAD_LOCAL);
                        p.count_idx(IDX_CONST);
                        p.count_idx(IDX_CALL);
                    }
                    *pc += 3;
                    if opt.fast_paths {
                        if let (Value::Int(x), Value::Int(y)) =
                            (&locals[s as usize], &program.consts[c as usize])
                        {
                            if let Some(v) =
                                fast2_of(&callee).and_then(|op2| fast2_apply(op2, *x, *y))
                            {
                                stack.push(v);
                                continue;
                            }
                        }
                    }
                    stack.push(callee);
                    stack.push(locals[s as usize].clone());
                    stack.push(program.consts[c as usize].clone());
                    break Pending::Call { n: 2, tail: false, after: AfterCall::Push };
                }
            }
        };
        match pending {
            Pending::Call { n, tail, after } => {
                match do_call(
                    gvm, frames, ds, ids, ext, nested, prof, low, pool, opt, n, tail, after,
                )? {
                    Flow::Continue => {}
                    other => return Ok(other),
                }
            }
            Pending::Return => {
                if let Some(p) = prof.as_mut() {
                    p.on_return();
                }
                let mut f = frames.pop().expect("return from nothing");
                let v = f
                    .stack
                    .pop()
                    .ok_or_else(|| VmError::msg("return with empty stack"))?;
                pool.recycle(f);
                // The only in-loop point where the stack shrinks.
                *low = (*low).min(frames.len());
                match frames.last_mut() {
                    None => return Ok(Flow::Done(v)),
                    Some(caller) => caller.stack.push(v),
                }
            }
            Pending::PushCC => push_cc(frames, ds, *ids, ext, *low)?,
        }
    }
}

/// `push-cc`: determine futures first, then snapshot. The snapshot's pc
/// is already past PushCC; resuming it delivers a value exactly where
/// the live path sees the continuation object. Out of line: the
/// dispatch loop's code generation is sensitive to what its arms hold.
#[cold]
#[inline(never)]
fn push_cc(
    frames: &mut [Frame],
    ds: &DynState,
    ids: u64,
    ext: &FiberExt,
    low: usize,
) -> VmResult<()> {
    determine_frames(frames, low)?;
    let state = FiberState {
        frames: frames.to_vec(),
        dyn_state: ds.clone(),
        next_restart_id: ids,
        ext: ext.clone(),
        ..FiberState::default()
    };
    top(frames)
        .stack
        .push(Value::Opaque(Arc::new(ContinuationVal { state })));
    Ok(())
}

/// The full `Call`/`TailCall` implementation, shared by the plain arms
/// and the fused call variants. On entry the operand stack holds
/// `[..., callee, arg1..argN]` and the pc is already past the
/// instruction(s) the call belongs to.
#[allow(clippy::too_many_arguments)]
fn do_call(
    gvm: &Arc<Gvm>,
    frames: &mut Vec<Frame>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    nested: bool,
    prof: &mut Option<ProfScope<'_>>,
    low: &mut usize,
    pool: &mut FramePool,
    opt: &OptConfig,
    n: u16,
    tail: bool,
    after: AfterCall,
) -> VmResult<Flow> {
    if opt.fast_paths && try_simple_call(frames, prof, pool, n, tail) {
        return Ok(Flow::Continue);
    }
    do_call_generic(
        gvm, frames, ds, ids, ext, nested, prof, low, pool, opt, n, tail, after,
    )
}

/// Simple closure call: required-only parameters, exact arity. Arguments
/// move straight off the caller's stack into a pooled frame — no argument
/// vector, no `force` (a `Value::Func` is never a future), no
/// `bind_params`. Returns `false` when the callee doesn't fit, leaving
/// the operand stack untouched for the generic path. Kept small (and
/// apart from the generic machinery) so it inlines into the dispatch
/// loop's call handling.
#[inline]
fn try_simple_call(
    frames: &mut Vec<Frame>,
    prof: &mut Option<ProfScope<'_>>,
    pool: &mut FramePool,
    n: u16,
    tail: bool,
) -> bool {
    let f = top(frames);
    let simple = {
        let len = f.stack.len();
        len.checked_sub(n as usize + 1).and_then(|base| {
            let cl = f.stack[base].as_callable::<Closure>()?;
            let chunk = cl.program.chunk(cl.chunk);
            let p = &chunk.params;
            (p.optional.is_empty()
                && p.rest.is_none()
                && p.keys.is_empty()
                && p.required.len() == n as usize)
                .then_some((cl.chunk, chunk.local_count, base))
        })
    };
    let Some((chunk_idx, local_count, base)) = simple else {
        return false;
    };
    // A recycled frame usually already carries the callee's program and
    // captures (hot recursion re-enters the closure it just left), so its
    // Arcs are reused by pointer identity — the hot path touches no
    // refcount at all. Only a pool miss or a different callee clones.
    let (mut frame, from_pool) = match pool.free.pop() {
        Some(fr) => (fr, true),
        None => {
            let cl = f.stack[base]
                .as_callable::<Closure>()
                .expect("probed as closure above");
            let fresh = Frame {
                program: cl.program.clone(),
                chunk: chunk_idx,
                pc: 0,
                locals: Vec::with_capacity(local_count as usize),
                stack: Vec::with_capacity(8),
                captures: cl.captures.clone(),
            };
            (fresh, false)
        }
    };
    if n == 1 {
        // The dominant arity; a straight pop/push skips the
        // drain iterator machinery.
        let arg = f.stack.pop().expect("arity checked above");
        frame.locals.push(arg);
    } else {
        frame.locals.extend(f.stack.drain(base + 1..));
    }
    frame.locals.resize(local_count as usize, Value::Nil);
    let callee = f.stack.pop().expect("arity checked above");
    if from_pool {
        let cl = callee
            .as_callable::<Closure>()
            .expect("probed as closure above");
        if !Arc::ptr_eq(&frame.program, &cl.program) {
            frame.program = cl.program.clone();
        }
        frame.chunk = chunk_idx;
        frame.pc = 0;
        if !Arc::ptr_eq(&frame.captures, &cl.captures) {
            frame.captures = cl.captures.clone();
        }
    }
    drop(callee);
    if let Some(p) = prof.as_mut() {
        if tail {
            p.on_tail_call(&frame);
        } else {
            p.on_push(&frame);
        }
    }
    if tail {
        let old = std::mem::replace(top(frames), frame);
        pool.recycle(old);
    } else {
        frames.push(frame);
    }
    true
}

/// The generic (slow-path) half of [`do_call`]: argument vector, `force`,
/// full `bind_params`, natives, continuations and callable fallbacks.
/// Out of line so its machinery doesn't bloat the dispatch loop.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn do_call_generic(
    gvm: &Arc<Gvm>,
    frames: &mut Vec<Frame>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    nested: bool,
    prof: &mut Option<ProfScope<'_>>,
    low: &mut usize,
    pool: &mut FramePool,
    opt: &OptConfig,
    n: u16,
    tail: bool,
    after: AfterCall,
) -> VmResult<Flow> {
    // Two-int native calls that escape the fused arms — `(+ r1 r2)` on
    // two call results, a compare against a computed bound — land here;
    // resolve them without materializing the args vector. try_fast2
    // bails on overflow or a non-fast2 callee, falling through to the
    // full machinery. For a TailCall the value lands on the current
    // frame's stack and the following Return pops the frame, exactly
    // like the generic native path below.
    if opt.fast_paths && n == 2 {
        if let Some(v) = try_fast2(&mut top(frames).stack) {
            return finish_call_value(frames, prof, after, v);
        }
    }
    // Generic path.
    let mut args = {
        let f = top(frames);
        let at = f
            .stack
            .len()
            .checked_sub(n as usize)
            .ok_or_else(|| VmError::Bytecode("call: operand stack underflow".into()))?;
        f.stack.split_off(at)
    };
    let callee = pop(frames)?;
    // The Invoke outcome loops here so funcall/apply chains stay
    // iterative.
    let mut callee = force(callee)?;
    loop {
        if callee.as_callable::<Closure>().is_some() {
            let frame = frame_for_closure(gvm, ds, ids, ext, &callee, args)?;
            if let Some(p) = prof.as_mut() {
                if tail {
                    p.on_tail_call(&frame);
                } else {
                    p.on_push(&frame);
                }
            }
            if tail {
                let old = std::mem::replace(top(frames), frame);
                pool.recycle(old);
            } else {
                frames.push(frame);
            }
            return Ok(Flow::Continue);
        }
        if let Some(nf) = callee.as_callable::<NativeFn>() {
            if !nf.raw {
                force_all(&mut args)?;
            }
            let mut ctx = NativeCtx {
                gvm,
                ds,
                ids,
                ext,
                nested,
            };
            match (nf.func)(&mut ctx, args)? {
                NativeOutcome::Value(v) => {
                    return finish_call_value(frames, prof, after, v);
                }
                NativeOutcome::Invoke { func, args: a } => {
                    callee = force(func)?;
                    args = a;
                    continue;
                }
                NativeOutcome::Yield { payload } => {
                    if nested {
                        return Err(VmError::Unwind(Unwind::YieldFromNested));
                    }
                    // For CallBranchFalse the pc is at the retained
                    // JumpIfFalse; the resume value lands on the stack
                    // and the original branch runs — identical to the
                    // unfused suspension.
                    return Ok(Flow::Suspend(payload));
                }
                NativeOutcome::ResumeContinuation { state, value } => {
                    *frames = state.frames;
                    *ds = state.dyn_state;
                    *ids = state.next_restart_id;
                    *ext = state.ext;
                    // Wholesale frame replacement: nothing of the
                    // incoming stack survives, so no clean prefix. Any
                    // pending `after` belonged to the abandoned frame.
                    *low = 0;
                    if let Some(p) = prof.as_mut() {
                        p.on_replace(frames);
                    }
                    top(frames).stack.push(value);
                    return Ok(Flow::Continue);
                }
            }
        }
        return Err(raise(
            gvm,
            ds,
            ids,
            ext,
            Condition::type_error("function", &callee),
        ));
    }
}

/// Deliver a call's immediate result per `after`. For `BranchFalse`
/// this *is* the retained `JumpIfFalse`: it is counted, the pc advances
/// past it, and the branch is taken on a false value — the same count
/// stream, pc and forcing behavior as executing the slot itself.
fn finish_call_value(
    frames: &mut [Frame],
    prof: &mut Option<ProfScope<'_>>,
    after: AfterCall,
    v: Value,
) -> VmResult<Flow> {
    match after {
        AfterCall::Push => top(frames).stack.push(v),
        AfterCall::BranchFalse(off) => {
            if let Some(p) = prof.as_mut() {
                p.count_idx(IDX_JUMP_IF_FALSE);
            }
            top(frames).pc += 1;
            let v = force(v)?;
            if !v.is_truthy() {
                jump(frames, off);
            }
        }
    }
    Ok(Flow::Continue)
}

/// Attempt the two-int native fast path on a `[..., callee, a, b]` stack
/// top: a native with a [`Fast2`] discriminant applied to two `Int`s
/// computes in place — no argument vector, no future forcing (an Int is
/// never a future). On a hit the three operands are popped and the
/// result returned; any other shape (including overflow) returns `None`
/// with the stack untouched, and the generic native owns the semantics.
#[inline]
fn try_fast2(stack: &mut Vec<Value>) -> Option<Value> {
    let len = stack.len();
    if len < 3 {
        return None;
    }
    let (Value::Int(a), Value::Int(b)) = (&stack[len - 2], &stack[len - 1]) else {
        return None;
    };
    let (a, b) = (*a, *b);
    let op2 = fast2_of(&stack[len - 3])?;
    let v = fast2_apply(op2, a, b)?;
    stack.truncate(len - 3);
    Some(v)
}

/// The [`Fast2`] discriminant of a native callee, if it has one.
#[inline]
fn fast2_of(callee: &Value) -> Option<Fast2> {
    let Value::Func(func) = callee else {
        return None;
    };
    func.as_any().downcast_ref::<NativeFn>().and_then(|nf| nf.fast2)
}

/// The two-int fast paths, mirroring the generic natives exactly:
/// checked integer arithmetic (`None` on overflow → generic float
/// promotion), comparisons through `f64` like `cmp_chain`.
fn fast2_apply(op: Fast2, a: i64, b: i64) -> Option<Value> {
    let bool_val = |x: bool| if x { Value::Bool(true) } else { Value::Nil };
    Some(match op {
        Fast2::Add => Value::Int(a.checked_add(b)?),
        Fast2::Sub => Value::Int(a.checked_sub(b)?),
        Fast2::Mul => Value::Int(a.checked_mul(b)?),
        Fast2::Lt => bool_val((a as f64) < (b as f64)),
        Fast2::Gt => bool_val((a as f64) > (b as f64)),
        Fast2::Le => bool_val((a as f64) <= (b as f64)),
        Fast2::Ge => bool_val((a as f64) >= (b as f64)),
        Fast2::NumEq => bool_val((a as f64) == (b as f64)),
        Fast2::NumNe => bool_val((a as f64) != (b as f64)),
    })
}

/// Resolve the global named by constant `c`, consulting (and refilling)
/// the chunk's per-pc inline cache and the activation-local value cache.
/// `None` means unbound — the caller raises; unbound names are never
/// cached. Only the cache-hit check stays in the caller's code path; the
/// resolve-and-stamp path is kept out of line so it doesn't bloat the
/// dispatch loop.
fn load_global(
    gvm: &Gvm,
    program: &Program,
    chunk: &Chunk,
    c: u32,
    ic_pc: usize,
    use_ic: bool,
    gcache: &mut GlobalCache,
) -> VmResult<Option<Value>> {
    if use_ic {
        if let Some(cell) = chunk.ic.get(ic_pc) {
            let packed = cell.load(Ordering::Acquire);
            let cached_gen = (packed >> 32) as u32;
            if cached_gen != 0 && cached_gen == gvm.global_generation() {
                return Ok(Some(gcache.get(gvm, packed as u32)));
            }
            return load_global_miss(gvm, program, c, cell, gcache);
        }
    }
    let sym = const_symbol(program, c)?;
    Ok(gvm.get_global(sym))
}

/// The inline-cache miss path: resolve, then stamp with the generation
/// read *before* the lookup — a racing new definition leaves a stale
/// stamp, which just re-resolves next time.
#[inline(never)]
fn load_global_miss(
    gvm: &Gvm,
    program: &Program,
    c: u32,
    cell: &std::sync::atomic::AtomicU64,
    gcache: &mut GlobalCache,
) -> VmResult<Option<Value>> {
    let gen = gvm.global_generation();
    let sym = const_symbol(program, c)?;
    let Some(slot) = gvm.lookup_global_slot(sym) else {
        return Ok(None);
    };
    cell.store(((gen as u64) << 32) | slot as u64, Ordering::Release);
    Ok(Some(gcache.get(gvm, slot)))
}

/// Build the unbound-variable error for constant `c`, routing through the
/// condition system first.
fn unbound_global(
    gvm: &Arc<Gvm>,
    program: &Program,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    c: u32,
) -> VmError {
    let sym = match const_symbol(program, c) {
        Ok(s) => s,
        Err(e) => return e,
    };
    raise(
        gvm,
        ds,
        ids,
        ext,
        Condition::with_types(
            vec!["unbound-variable".into(), "error".into()],
            format!("unbound variable: {}", sym.name()),
            Value::Symbol(sym),
        ),
    )
}

// ---- helpers -----------------------------------------------------------

fn top(frames: &mut [Frame]) -> &mut Frame {
    frames.last_mut().expect("frame stack empty")
}

fn pop(frames: &mut [Frame]) -> VmResult<Value> {
    top(frames)
        .stack
        .pop()
        .ok_or_else(|| VmError::msg("operand stack underflow"))
}

fn popn_stack(stack: &mut Vec<Value>, n: usize) -> VmResult<Vec<Value>> {
    if stack.len() < n {
        return Err(VmError::msg("operand stack underflow"));
    }
    let at = stack.len() - n;
    Ok(stack.split_off(at))
}

fn jump(frames: &mut [Frame], off: i32) {
    let f = top(frames);
    f.pc = (f.pc as i64 + off as i64) as u32;
}

fn const_symbol(program: &Program, c: u32) -> VmResult<gozer_lang::Symbol> {
    program.consts[c as usize]
        .as_symbol()
        .ok_or_else(|| VmError::msg("expected symbol constant"))
}

/// Wait for every future reachable from the frames the run may have
/// touched. Frames below `low - 1` still match the fiber's last snapshot,
/// so the capture behind that snapshot already determined theirs.
fn determine_frames(frames: &[Frame], low: usize) -> VmResult<()> {
    for f in &frames[low.saturating_sub(1)..] {
        for v in f.locals.iter().chain(f.stack.iter()).chain(f.captures.iter()) {
            determine_deep(v)?;
        }
    }
    Ok(())
}

/// Build the activation frame for calling `callee` (a closure) on `args`.
pub(crate) fn frame_for_closure(
    gvm: &Arc<Gvm>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    callee: &Value,
    args: Vec<Value>,
) -> VmResult<Frame> {
    let cl = callee
        .as_callable::<Closure>()
        .ok_or_else(|| VmError::type_error("closure", callee))?;
    let chunk = cl.program.chunk(cl.chunk);
    let locals = match bind_params(&chunk.params, args, &chunk.name) {
        Ok(l) => l,
        Err(cond) => return Err(raise(gvm, ds, ids, ext, cond)),
    };
    let mut all_locals = locals;
    all_locals.resize(chunk.local_count as usize, Value::Nil);
    Ok(Frame {
        program: cl.program.clone(),
        chunk: cl.chunk,
        pc: 0,
        locals: all_locals,
        stack: Vec::with_capacity(8),
        captures: cl.captures.clone(),
    })
}

/// Bind `args` against `spec`, producing the parameter slot values.
fn bind_params(spec: &ParamSpec, mut args: Vec<Value>, fn_name: &str) -> Result<Vec<Value>, Condition> {
    let nreq = spec.required.len();
    if args.len() < nreq {
        return Err(Condition::with_types(
            vec!["program-error".into(), "error".into()],
            format!(
                "{fn_name}: expected at least {nreq} argument(s), got {}",
                args.len()
            ),
            Value::Nil,
        ));
    }
    let mut slots: Vec<Value> = Vec::with_capacity(spec.slot_count());
    let rest_args = args.split_off(nreq.min(args.len()));
    slots.extend(args);
    let mut remaining = rest_args.into_iter();
    for (_, default) in &spec.optional {
        match remaining.next() {
            Some(v) => slots.push(v),
            None => slots.push(default.clone()),
        }
    }
    let leftover: Vec<Value> = remaining.collect();
    if spec.rest.is_some() {
        slots.push(Value::list(leftover.clone()));
    }
    if !spec.keys.is_empty() {
        // Parse keyword pairs from the leftover arguments.
        if !leftover.len().is_multiple_of(2) {
            return Err(Condition::with_types(
                vec!["program-error".into(), "error".into()],
                format!("{fn_name}: odd number of keyword arguments"),
                Value::Nil,
            ));
        }
        let mut key_vals: Vec<Value> = spec.keys.iter().map(|(_, d)| d.clone()).collect();
        let mut i = 0;
        while i < leftover.len() {
            let Some(kw) = leftover[i].as_keyword() else {
                return Err(Condition::with_types(
                    vec!["program-error".into(), "error".into()],
                    format!("{fn_name}: expected a keyword, got {:?}", leftover[i]),
                    Value::Nil,
                ));
            };
            match spec.keys.iter().position(|(k, _)| *k == kw) {
                Some(ki) => key_vals[ki] = leftover[i + 1].clone(),
                None => {
                    if spec.rest.is_none() {
                        return Err(Condition::with_types(
                            vec!["program-error".into(), "error".into()],
                            format!("{fn_name}: unknown keyword :{}", kw.name()),
                            Value::Nil,
                        ));
                    }
                }
            }
            i += 2;
        }
        slots.extend(key_vals);
    } else if spec.rest.is_none() && !leftover.is_empty() {
        return Err(Condition::with_types(
            vec!["program-error".into(), "error".into()],
            format!(
                "{fn_name}: too many arguments ({} extra)",
                leftover.len()
            ),
            Value::Nil,
        ));
    }
    Ok(slots)
}

/// Call a Gozer function from Rust, in a nested (non-suspendable)
/// activation sharing the fiber's dynamic state and extension map.
pub(crate) fn call_nested(
    gvm: &Arc<Gvm>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    func: Value,
    args: Vec<Value>,
) -> VmResult<Value> {
    let mut callee = force(func)?;
    let mut args = args;
    loop {
        if callee.as_callable::<Closure>().is_some() {
            let frame = frame_for_closure(gvm, ds, ids, ext, &callee, args)?;
            let mut frames = vec![frame];
            let mut low = 0usize;
            return match interp(gvm, &mut frames, ds, ids, ext, true, None, &mut low)? {
                InterpOutcome::Done(v) => Ok(v),
                InterpOutcome::Suspended(_) => Err(VmError::Unwind(Unwind::YieldFromNested)),
            };
        }
        if let Some(nf) = callee.as_callable::<NativeFn>() {
            if !nf.raw {
                force_all(&mut args)?;
            }
            let mut ctx = NativeCtx {
                gvm,
                ds,
                ids,
                ext,
                nested: true,
            };
            match (nf.func)(&mut ctx, args)? {
                NativeOutcome::Value(v) => return Ok(v),
                NativeOutcome::Invoke { func, args: a } => {
                    callee = force(func)?;
                    args = a;
                }
                NativeOutcome::Yield { .. } => {
                    return Err(VmError::Unwind(Unwind::YieldFromNested));
                }
                NativeOutcome::ResumeContinuation { .. } => {
                    return Err(VmError::msg(
                        "cannot resume a continuation from a nested context",
                    ));
                }
            }
            continue;
        }
        return Err(VmError::type_error("function", &callee));
    }
}

/// Signal `cond` to the active handlers, innermost first. Handlers run in
/// nested activations **without unwinding** (§3.7); a handler that
/// declines simply returns and the next handler runs. Returns normally
/// when every handler declined.
pub(crate) fn do_signal(
    gvm: &Arc<Gvm>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    cond: &Condition,
) -> VmResult<()> {
    for idx in (0..ds.handlers.len()).rev() {
        let func = ds.handlers[idx].func.clone();
        // The handler sees only handlers established outside itself.
        let mut view = ds.nested_view(idx);
        call_nested(gvm, &mut view, ids, ext, func, vec![cond.value().clone()])?;
    }
    Ok(())
}

/// Signal `cond` as an *error*: if no handler transfers control, the
/// fiber fails with the condition.
pub(crate) fn raise(
    gvm: &Arc<Gvm>,
    ds: &mut DynState,
    ids: &mut u64,
    ext: &mut FiberExt,
    cond: Condition,
) -> VmError {
    match do_signal(gvm, ds, ids, ext, &cond) {
        Ok(()) => VmError::Signal(cond),
        Err(e) => e,
    }
}
