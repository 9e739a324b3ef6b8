//! The Gozer Virtual Machine: the embedder-facing engine object.
//!
//! A [`Gvm`] owns the global environment (globals double as the function
//! namespace — Gozer is a Lisp-1), the macro table, the read table, the
//! program registry used to re-link migrated continuations, and the future
//! thread pool. All state is behind locks: multiple fibers of multiple
//! tasks run against one `Gvm` per node, exactly as multiple workflow
//! service threads share one JVM in production.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use gozer_lang::reader::SharedStream;
use gozer_lang::{LangError, ReadEval, Reader, Symbol, Value};
use parking_lot::{Mutex, RwLock};

use crate::bytecode::{fnv1a64, ProgramRef};
use crate::compiler::{Compiler, MacroHost};
use crate::conditions::Condition;
use crate::error::{Unwind, VmError, VmResult};
use crate::fiber::{DynState, FiberExt, FiberState, RunOutcome, Suspension};
use crate::interp::{call_nested, do_signal, frame_for_closure, interp, InterpOutcome};
use crate::pool::ThreadPool;
use crate::runtime::Closure;

/// Context handed to native functions: the VM plus the calling fiber's
/// dynamic state. Natives use it to call back into Gozer code, signal
/// conditions, and read/write the fiber extension map that Vinz uses for
/// task/fiber identity.
pub struct NativeCtx<'a> {
    /// The owning VM.
    pub gvm: &'a Arc<Gvm>,
    /// Handler/restart stacks of the calling fiber.
    pub ds: &'a mut DynState,
    /// Restart id counter of the calling fiber.
    pub ids: &'a mut u64,
    /// Fiber extension map (task id, background flag, ...).
    pub ext: &'a mut FiberExt,
    /// True when the activation cannot suspend (handler, macro, future
    /// thread). Vinz checks this to fall back to synchronous service
    /// calls (§3.2).
    pub nested: bool,
}

impl NativeCtx<'_> {
    /// Call a Gozer function synchronously (nested activation — the call
    /// cannot suspend the fiber).
    pub fn call(&mut self, func: &Value, args: Vec<Value>) -> VmResult<Value> {
        call_nested(self.gvm, self.ds, self.ids, self.ext, func.clone(), args)
    }

    /// Signal a condition to the active handlers without unwinding;
    /// returns normally when every handler declined.
    pub fn signal(&mut self, cond: &Condition) -> VmResult<()> {
        do_signal(self.gvm, self.ds, self.ids, self.ext, cond)
    }

    /// Signal a condition as an error: if no handler transfers control
    /// the fiber fails.
    pub fn raise(&mut self, cond: Condition) -> VmError {
        crate::interp::raise(self.gvm, self.ds, self.ids, self.ext, cond)
    }

    /// True when running on a fiber thread that may suspend — the
    /// `is-fiber-thread` predicate of Listing 2.
    pub fn can_yield(&self) -> bool {
        !self.nested
            && !self
                .ext
                .get("background")
                .map(Value::is_truthy)
                .unwrap_or(false)
    }
}

/// Outcome of starting or resuming a fiber, with failure folded in (Vinz
/// treats failure as a normal task outcome, not a Rust error).
pub use crate::fiber::RunOutcome as FiberRunOutcome;

/// What a [`FiberObsEvent`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FiberObsKind {
    /// A suspended continuation is about to re-enter the interpreter.
    Resumed,
    /// The fiber captured a continuation with this many live heap frames.
    Suspended {
        /// Heap frame count at capture time.
        frames: usize,
    },
    /// The fiber ran to completion (including clean `break`).
    Completed,
    /// The fiber terminated with an unhandled condition or unwind.
    Failed,
}

/// One fiber lifecycle notification, with the fiber's extension map (the
/// embedder keeps its identity — e.g. Vinz's `task-id`/`fiber-id` — in
/// there).
pub struct FiberObsEvent<'a> {
    /// What happened.
    pub kind: FiberObsKind,
    /// The fiber's extension map at the time of the event.
    pub ext: &'a FiberExt,
}

/// Observer callback installed with [`Gvm::set_fiber_observer`].
pub type FiberObserver = Arc<dyn Fn(&FiberObsEvent<'_>) + Send + Sync>;

/// The global environment as a **slot table**: name→slot resolution is
/// separated from slot→value access so the interpreter's per-callsite
/// inline caches can skip the hash lookup entirely.
///
/// Invariants the inline caches depend on:
///
/// * slots are append-only — a symbol's slot index never changes once
///   assigned, and slots are never reused;
/// * `gen` starts at 1 (cache word 0 always means "empty") and is bumped
///   **only when a new symbol is added**. Redefining an existing global
///   writes the slot in place, so hot caches stay valid across
///   redefinition and still observe the new value;
/// * lock order is `map` then `slots`, everywhere.
struct GlobalTable {
    map: RwLock<HashMap<Symbol, u32>>,
    slots: RwLock<Vec<Value>>,
    gen: AtomicU32,
    /// Bumped on *every* write (new definition or in-place update).
    /// Interpreter activations key their local value caches on this, so
    /// a cache stays valid exactly until any global changes — unlike
    /// `gen`, which only tracks the name → slot mapping.
    epoch: AtomicU64,
}

impl GlobalTable {
    fn new() -> GlobalTable {
        GlobalTable {
            map: RwLock::new(HashMap::with_capacity(256)),
            slots: RwLock::new(Vec::with_capacity(256)),
            gen: AtomicU32::new(1),
            epoch: AtomicU64::new(1),
        }
    }

    fn get(&self, name: Symbol) -> Option<Value> {
        let idx = *self.map.read().get(&name)?;
        Some(self.slots.read()[idx as usize].clone())
    }

    /// Returns the symbol's slot, assigning a fresh one (and bumping the
    /// generation) if it had none.
    fn slot_for(&self, name: Symbol, v: Value) -> u32 {
        if let Some(&idx) = self.map.read().get(&name) {
            self.slots.write()[idx as usize] = v;
            self.epoch.fetch_add(1, Ordering::Release);
            return idx;
        }
        let mut map = self.map.write();
        // Re-check under the write lock (lost race with another definer).
        if let Some(&idx) = map.get(&name) {
            self.slots.write()[idx as usize] = v;
            self.epoch.fetch_add(1, Ordering::Release);
            return idx;
        }
        let mut slots = self.slots.write();
        let idx = slots.len() as u32;
        slots.push(v);
        map.insert(name, idx);
        self.gen.fetch_add(1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
        idx
    }

    /// Define only when unbound; true when the definition took effect.
    fn define_if_unbound(&self, name: Symbol, v: Value) -> bool {
        let mut map = self.map.write();
        if map.contains_key(&name) {
            return false;
        }
        let mut slots = self.slots.write();
        let idx = slots.len() as u32;
        slots.push(v);
        map.insert(name, idx);
        self.gen.fetch_add(1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
        true
    }
}

/// The engine.
pub struct Gvm {
    globals: GlobalTable,
    macros: RwLock<HashMap<Symbol, Value>>,
    /// The active read table; `set-macro-character` mutates it.
    pub reader: Mutex<Reader>,
    programs: RwLock<HashMap<u64, ProgramRef>>,
    pool: Arc<ThreadPool>,
    gensym_counter: AtomicU64,
    /// Captured output of `log`/`print` for tests and the workflow trace.
    pub log: Mutex<Vec<String>>,
    /// Mirror log output to stdout.
    pub log_to_stdout: AtomicBool,
    /// Deterministic PRNG state for the `random` builtin.
    rng: Mutex<u64>,
    /// When false, `future` runs eagerly on the calling thread (used by
    /// benches to isolate distribution effects from local parallelism).
    pub futures_enabled: AtomicBool,
    /// Optional fiber suspend/resume observer (the VM leg of the
    /// observability layer).
    fiber_observer: RwLock<Option<FiberObserver>>,
    /// The execution profiler (always present, disabled by default).
    profiler: Arc<crate::profile::VmProfiler>,
    /// Interpreter optimization switches (read from `GVM_OPT` at
    /// construction).
    opt: RwLock<crate::opt::OptConfig>,
}

impl Gvm {
    /// Create a VM with a default-sized future pool and the standard
    /// native library installed.
    pub fn new() -> Arc<Gvm> {
        Gvm::with_pool(ThreadPool::default_size())
    }

    /// Create a VM with `n` future-pool workers.
    pub fn with_pool_size(n: usize) -> Arc<Gvm> {
        Gvm::with_pool(ThreadPool::new(n))
    }

    /// Create a VM over an existing pool (BlueBox shares one pool per
    /// node across service instances, §4.1).
    pub fn with_pool(pool: Arc<ThreadPool>) -> Arc<Gvm> {
        let gvm = Arc::new(Gvm {
            globals: GlobalTable::new(),
            macros: RwLock::new(HashMap::new()),
            reader: Mutex::new(Reader::new()),
            programs: RwLock::new(HashMap::new()),
            pool,
            gensym_counter: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            log_to_stdout: AtomicBool::new(false),
            rng: Mutex::new(0x9E3779B97F4A7C15),
            futures_enabled: AtomicBool::new(true),
            fiber_observer: RwLock::new(None),
            profiler: Arc::new(crate::profile::VmProfiler::default()),
            opt: RwLock::new(crate::opt::OptConfig::from_env()),
        });
        crate::natives::install(&gvm);
        gvm.load_str(crate::natives::PRELUDE, "prelude")
            .expect("prelude must load");
        gvm
    }

    /// The future pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// The execution profiler. Enable with
    /// `gvm.profiler().set_enabled(true)`; disabled it costs one atomic
    /// load per interpreter activation plus an `Option` test per step.
    pub fn profiler(&self) -> &Arc<crate::profile::VmProfiler> {
        &self.profiler
    }

    // ---- globals / macros / programs --------------------------------

    /// Read a global binding.
    pub fn get_global(&self, name: Symbol) -> Option<Value> {
        self.globals.get(name)
    }

    /// Names of all global bindings containing `fragment` (the `apropos`
    /// builtin), sorted.
    pub fn global_names_matching(&self, fragment: &str) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = self
            .globals
            .map
            .read()
            .keys()
            .filter(|s| s.name().contains(fragment))
            .copied()
            .collect();
        names.sort_by_key(|s| s.name());
        names
    }

    /// Create or overwrite a global binding.
    pub fn set_global(&self, name: Symbol, v: Value) {
        self.globals.slot_for(name, v);
    }

    /// Define only when unbound (the `defvar` contract). Returns whether
    /// the definition took effect.
    pub fn define_if_unbound(&self, name: Symbol, v: Value) -> bool {
        self.globals.define_if_unbound(name, v)
    }

    /// Current global-table generation (bumps only when a *new* symbol
    /// is defined; in-place redefinition keeps inline caches hot).
    pub(crate) fn global_generation(&self) -> u32 {
        self.globals.gen.load(Ordering::Acquire)
    }

    /// Resolve a symbol to its slot index, if bound.
    pub(crate) fn lookup_global_slot(&self, name: Symbol) -> Option<u32> {
        self.globals.map.read().get(&name).copied()
    }

    /// Read a slot directly (inline-cache hit path — no hash lookup).
    pub(crate) fn global_slot_value(&self, slot: u32) -> Value {
        self.globals.slots.read()[slot as usize].clone()
    }

    /// Current global *write* epoch: changes on every global write.
    /// Activation-local value caches are valid while this is unchanged.
    pub(crate) fn global_epoch(&self) -> u64 {
        self.globals.epoch.load(Ordering::Acquire)
    }

    /// The VM's optimization configuration.
    pub fn opt(&self) -> crate::opt::OptConfig {
        *self.opt.read()
    }

    /// Replace the optimization configuration (tests; takes effect at
    /// the next interpreter activation).
    pub fn set_opt(&self, opt: crate::opt::OptConfig) {
        *self.opt.write() = opt;
    }

    /// Register a macro function under `name`.
    pub fn define_macro(&self, name: Symbol, func: Value) {
        self.macros.write().insert(name, func);
    }

    /// Register a program so migrated continuations can re-link to it.
    pub fn register_program(&self, p: ProgramRef) {
        self.programs.write().insert(p.id, p);
    }

    /// Look up a registered program by content id.
    pub fn get_program(&self, id: u64) -> Option<ProgramRef> {
        self.programs.read().get(&id).cloned()
    }

    /// Fresh symbol for macro hygiene.
    pub fn gensym_sym(&self) -> Symbol {
        let n = self.gensym_counter.fetch_add(1, Ordering::Relaxed);
        Symbol::intern(&format!("#:g{n}"))
    }

    /// Append to the VM log.
    pub fn log_line(&self, line: String) {
        if self.log_to_stdout.load(Ordering::Relaxed) {
            println!("{line}");
        }
        self.log.lock().push(line);
    }

    /// Drain the captured log.
    pub fn take_log(&self) -> Vec<String> {
        std::mem::take(&mut *self.log.lock())
    }

    /// Deterministic pseudo-random `u64` (xorshift64*).
    pub fn next_random(&self) -> u64 {
        let mut s = self.rng.lock();
        let mut x = *s;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *s = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    // ---- load / eval -------------------------------------------------

    /// Read, compile and execute every top-level form in `src`.
    ///
    /// Forms are processed one at a time so that `defmacro` and
    /// `set-macro-character` take effect for the rest of the file, exactly
    /// as when the original system loads a workflow's source (§3.3).
    /// Returns the value of the last form.
    ///
    /// Program ids are derived from the source name, form index and form
    /// text, so loading identical source on another node reproduces
    /// identical programs — the invariant fiber migration relies on.
    pub fn load_str(self: &Arc<Gvm>, src: &str, unit_name: &str) -> VmResult<Value> {
        let stream = SharedStream::new(src);
        let mut last = Value::Nil;
        let mut index = 0u32;
        loop {
            let reader = self.reader.lock().clone();
            let mut eval = GvmReadEval { gvm: self };
            let form = reader.read(&stream, &mut eval)?;
            let Some(form) = form else { break };
            let name = format!("{unit_name}#{index}");
            let id = fnv1a64(format!("{name}:{form:?}").as_bytes());
            let host = GvmHost(self);
            let program = Compiler::compile_toplevel(&host, &form, &name, id)?;
            crate::verify::verify_program(&program)?;
            self.register_program(program.clone());
            last = self.run_program(&program)?;
            index += 1;
        }
        Ok(last)
    }

    /// Evaluate a single already-read form (used by the `eval` builtin
    /// and by deflink's generated definitions).
    pub fn eval_form(self: &Arc<Gvm>, form: &Value, unit_name: &str) -> VmResult<Value> {
        let id = fnv1a64(format!("{unit_name}:{form:?}").as_bytes());
        let host = GvmHost(self);
        let program = Compiler::compile_toplevel(&host, form, unit_name, id)?;
        crate::verify::verify_program(&program)?;
        self.register_program(program.clone());
        self.run_program(&program)
    }

    /// Run a compiled top-level program to completion on the calling
    /// thread. Suspension at top level is an error: only fibers may
    /// yield.
    fn run_program(self: &Arc<Gvm>, program: &ProgramRef) -> VmResult<Value> {
        let closure = Value::Func(Arc::new(Closure {
            program: program.clone(),
            chunk: 0,
            captures: Arc::new(Vec::new()),
        }));
        match self.call_fiber(&closure, vec![])? {
            RunOutcome::Done(v) => Ok(v),
            RunOutcome::Suspended(_) => Err(VmError::msg(
                "top-level form suspended; yield is only valid inside a fiber",
            )),
        }
    }

    // ---- fibers -------------------------------------------------------

    /// Build the initial continuation for calling `func` (a closure) on
    /// `args` — the persisted "initial state" the Start operation writes
    /// (§3.1).
    pub fn fiber_for(self: &Arc<Gvm>, func: &Value, args: Vec<Value>) -> VmResult<FiberState> {
        let mut state = FiberState::default();
        let frame = frame_for_closure(
            self,
            &mut state.dyn_state,
            &mut state.next_restart_id,
            &mut state.ext,
            func,
            args,
        )?;
        state.frames.push(frame);
        Ok(state)
    }

    /// Run (or continue) a fiber until completion or its next `yield`.
    pub fn run_fiber(self: &Arc<Gvm>, state: FiberState) -> VmResult<RunOutcome> {
        self.drive(state, None)
    }

    /// Resume a suspended fiber, delivering `value` as the result of the
    /// `yield` that suspended it.
    pub fn resume_fiber(self: &Arc<Gvm>, state: FiberState, value: Value) -> VmResult<RunOutcome> {
        self.drive(state, Some(value))
    }

    /// Start a fresh fiber for `func` and run it.
    pub fn call_fiber(self: &Arc<Gvm>, func: &Value, args: Vec<Value>) -> VmResult<RunOutcome> {
        let state = self.fiber_for(func, args)?;
        self.run_fiber(state)
    }

    /// Call a Gozer function to completion on the current thread with no
    /// suspension allowed (macros, tests, REPL helpers).
    pub fn call_sync(self: &Arc<Gvm>, func: &Value, args: Vec<Value>) -> VmResult<Value> {
        let mut ds = DynState::default();
        let mut ids = 0u64;
        let mut ext = FiberExt::default();
        call_nested(self, &mut ds, &mut ids, &mut ext, func.clone(), args)
    }

    /// Install (or clear) the fiber observer, called on every resume,
    /// suspension, completion, and failure routed through
    /// [`Gvm::run_fiber`]/[`Gvm::resume_fiber`].
    pub fn set_fiber_observer(&self, observer: Option<FiberObserver>) {
        *self.fiber_observer.write() = observer;
    }

    fn drive(self: &Arc<Gvm>, state: FiberState, resume: Option<Value>) -> VmResult<RunOutcome> {
        let observer = self.fiber_observer.read().clone();
        let FiberState {
            mut frames,
            mut dyn_state,
            mut next_restart_id,
            mut ext,
            clean_prefix,
            mut seed,
        } = state;
        // Dirty-tracking watermark: every frame below `low - 1` still
        // matches the fiber's last persisted snapshot. It starts from the
        // incoming clean prefix and the interpreter lowers it to the
        // minimum frame-stack depth it reaches (only the top frame ever
        // mutates, so the frame *at* the minimum depth was touched and
        // everything under it was not). This tells the serializer how
        // much of the suspended state it can skip, and the capture how
        // many frames hold only futures an earlier capture determined.
        let mut low = frames.len().min(clean_prefix + 1);
        if resume.is_some() {
            if let Some(obs) = &observer {
                obs(&FiberObsEvent {
                    kind: FiberObsKind::Resumed,
                    ext: &ext,
                });
            }
        }
        let result = interp(
            self,
            &mut frames,
            &mut dyn_state,
            &mut next_restart_id,
            &mut ext,
            false,
            resume,
            &mut low,
        );
        if let Some(obs) = &observer {
            let kind = match &result {
                Ok(InterpOutcome::Done(_)) => FiberObsKind::Completed,
                Ok(InterpOutcome::Suspended(_)) => FiberObsKind::Suspended {
                    frames: frames.len(),
                },
                Err(VmError::Unwind(Unwind::BreakFiber)) => FiberObsKind::Completed,
                Err(_) => FiberObsKind::Failed,
            };
            obs(&FiberObsEvent { kind, ext: &ext });
        }
        match result {
            Ok(InterpOutcome::Done(v)) => Ok(RunOutcome::Done(v)),
            Ok(InterpOutcome::Suspended(payload)) => {
                let clean_prefix = low.saturating_sub(1);
                seed.lower(clean_prefix);
                Ok(RunOutcome::Suspended(Suspension {
                    payload,
                    state: FiberState {
                        frames,
                        dyn_state,
                        next_restart_id,
                        ext,
                        clean_prefix,
                        seed,
                    },
                }))
            }
            // Vinz `break`: the fiber terminates cleanly with nil (§3.7).
            Err(VmError::Unwind(Unwind::BreakFiber)) => Ok(RunOutcome::Done(Value::Nil)),
            // Attach a backtrace to unhandled conditions: the heap frames
            // are still intact (nothing unwound), so the full chain of
            // function names and code positions is available.
            Err(VmError::Signal(cond)) => {
                Err(VmError::Signal(attach_backtrace(cond, &frames)))
            }
            Err(e) => Err(e),
        }
    }

    /// Convenience: evaluate source and expect a value (tests, REPL).
    pub fn eval_str(self: &Arc<Gvm>, src: &str) -> VmResult<Value> {
        self.load_str(src, "eval")
    }

    /// Look up a defined function by name.
    pub fn function(&self, name: &str) -> Option<Value> {
        self.get_global(Symbol::intern(name))
    }
}

/// Render the frame stack into the condition's `:backtrace` field
/// (outermost first), preserving any backtrace a nested failure already
/// attached.
fn attach_backtrace(cond: Condition, frames: &[crate::fiber::Frame]) -> Condition {
    if cond.field("backtrace").is_some() || frames.is_empty() {
        return cond;
    }
    let mut text = String::new();
    for (i, f) in frames.iter().enumerate() {
        let chunk = f.program.chunk(f.chunk);
        text.push_str(&format!(
            "  {i}: {} (program {}, chunk {}, pc {})\n",
            chunk.name, f.program.name, f.chunk, f.pc
        ));
    }
    let Value::Map(m) = cond.value() else {
        return cond;
    };
    let mut m = (**m).clone();
    m.insert(Value::keyword("backtrace"), Value::from(text));
    Condition(Value::Map(Arc::new(m)))
}

/// [`MacroHost`] view of a VM: macro lookup from the macro table, macro
/// application as a nested (non-suspendable) call.
pub struct GvmHost<'a>(pub &'a Arc<Gvm>);

impl MacroHost for GvmHost<'_> {
    fn lookup_macro(&self, name: Symbol) -> Option<Value> {
        self.0.macros.read().get(&name).cloned()
    }

    fn expand_macro(&self, func: &Value, args: &[Value]) -> VmResult<Value> {
        self.0.call_sync(func, args.to_vec())
    }

    fn gensym(&self) -> Symbol {
        self.0.gensym_sym()
    }
}

/// Reader callback that runs user reader-macro functions on the VM.
pub struct GvmReadEval<'a> {
    /// The owning VM.
    pub gvm: &'a Arc<Gvm>,
}

impl ReadEval for GvmReadEval<'_> {
    fn call_function(&mut self, func: &Value, args: &[Value]) -> Result<Value, LangError> {
        self.gvm
            .call_sync(func, args.to_vec())
            .map_err(|e| LangError::new(format!("reader macro failed: {e}")))
    }
}
