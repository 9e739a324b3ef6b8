//! Runtime object types: closures, native functions, futures, and
//! first-class continuations.

use std::any::Any;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use gozer_lang::{Callable, Opaque, Value};
use parking_lot::{Condvar, Mutex};

use crate::bytecode::ProgramRef;
use crate::conditions::Condition;
use crate::error::{VmError, VmResult};
use crate::fiber::FiberState;
use crate::gvm::NativeCtx;

/// A compiled Gozer function: a chunk plus captured values.
///
/// Captures are **copies** taken when the closure is created; Gozer
/// closures capture by value (mutating a closed-over binding is a compile
/// error), which keeps fiber state acyclic and trivially serializable —
/// the property the whole migration scheme rests on.
pub struct Closure {
    /// Owning program.
    pub program: ProgramRef,
    /// Chunk index within the program.
    pub chunk: u32,
    /// Captured values, in the chunk's capture order.
    pub captures: Arc<Vec<Value>>,
}

impl fmt::Debug for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Closure({}/{})",
            self.program.chunk(self.chunk).name,
            self.chunk
        )
    }
}

impl Callable for Closure {
    fn callable_name(&self) -> String {
        self.program.chunk(self.chunk).name.clone()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Result of a native function: either a value, or a request for the
/// interpreter to do something a native cannot do from Rust (call Gozer
/// code in a yield-capable way, suspend the fiber, or replace the fiber's
/// continuation).
pub enum NativeOutcome {
    /// Plain result.
    Value(Value),
    /// Tail-invoke `func` on `args`; its result becomes the native call's
    /// result. This is how `funcall`/`apply` stay yield-transparent.
    Invoke {
        /// Function to invoke.
        func: Value,
        /// Arguments to pass.
        args: Vec<Value>,
    },
    /// Suspend the fiber, handing `payload` to the embedder. The value
    /// passed to `resume` becomes the native call's result.
    Yield {
        /// The suspension payload (Vinz's suspension reason).
        payload: Value,
    },
    /// Replace the fiber's continuation with `state` and deliver `value`
    /// to it (resuming a first-class continuation from `push-cc`).
    ResumeContinuation {
        /// The captured state to re-enter.
        state: Box<FiberState>,
        /// Value delivered at the capture point.
        value: Value,
    },
}

impl NativeOutcome {
    /// Shorthand for `Ok(NativeOutcome::Value(v))`.
    pub fn ok(v: Value) -> VmResult<NativeOutcome> {
        Ok(NativeOutcome::Value(v))
    }
}

type NativeImpl = dyn Fn(&mut NativeCtx<'_>, Vec<Value>) -> VmResult<NativeOutcome> + Send + Sync;

/// Two-integer fast-path discriminant for the hottest arithmetic and
/// comparison natives. The interpreter's `Call` arm inlines these when
/// both arguments are `Value::Int`, skipping argument vectors, future
/// forcing (an `Int` is never a future) and the dynamic dispatch — with
/// exactly the generic native's semantics. Anything else (other arities,
/// floats, overflow) falls through to the registered implementation.
///
/// The discriminant lives on the [`NativeFn`] *value*, not on the global
/// name, so rebinding e.g. `+` to a user function disables the fast path
/// naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fast2 {
    /// `(+ a b)`
    Add,
    /// `(- a b)`
    Sub,
    /// `(* a b)`
    Mul,
    /// `(< a b)`
    Lt,
    /// `(> a b)`
    Gt,
    /// `(<= a b)`
    Le,
    /// `(>= a b)`
    Ge,
    /// `(= a b)`
    NumEq,
    /// `(/= a b)`
    NumNe,
}

/// A native (Rust-implemented) function value.
pub struct NativeFn {
    /// Global name the function was registered under; used by the printer
    /// and by the serializer to re-link natives on another node.
    pub name: String,
    /// When false (the default), future arguments are determined before
    /// the native runs — the §4.1 rule that passing a future to a native
    /// library forces it. Raw natives (`touch`, `future-done?`) receive
    /// the future object itself.
    pub raw: bool,
    /// Two-int fast path the interpreter may take instead of `func`; set
    /// only by the arithmetic installer.
    pub fast2: Option<Fast2>,
    /// Implementation.
    pub func: Arc<NativeImpl>,
}

impl NativeFn {
    /// Wrap a Rust closure as a native function value (auto-forcing).
    pub fn value(
        name: &str,
        f: impl Fn(&mut NativeCtx<'_>, Vec<Value>) -> VmResult<NativeOutcome> + Send + Sync + 'static,
    ) -> Value {
        Value::Func(Arc::new(NativeFn {
            name: name.to_string(),
            raw: false,
            fast2: None,
            func: Arc::new(f),
        }))
    }

    /// Like [`value`](Self::value) with a [`Fast2`] fast path the
    /// interpreter may inline for two-`Int` calls.
    pub fn value_fast2(
        name: &str,
        fast2: Fast2,
        f: impl Fn(&mut NativeCtx<'_>, Vec<Value>) -> VmResult<NativeOutcome> + Send + Sync + 'static,
    ) -> Value {
        Value::Func(Arc::new(NativeFn {
            name: name.to_string(),
            raw: false,
            fast2: Some(fast2),
            func: Arc::new(f),
        }))
    }

    /// Wrap a Rust closure as a *raw* native: future arguments pass
    /// through undetermined.
    pub fn raw_value(
        name: &str,
        f: impl Fn(&mut NativeCtx<'_>, Vec<Value>) -> VmResult<NativeOutcome> + Send + Sync + 'static,
    ) -> Value {
        Value::Func(Arc::new(NativeFn {
            name: name.to_string(),
            raw: true,
            fast2: None,
            func: Arc::new(f),
        }))
    }
}

impl fmt::Debug for NativeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NativeFn({})", self.name)
    }
}

impl Callable for NativeFn {
    fn callable_name(&self) -> String {
        self.name.clone()
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// State of a future's computation.
enum FutState {
    Pending,
    Done(Value),
    Failed(Condition),
}

/// A future (paper §2): a promise to deliver the value of a computation
/// running on another thread. *Undetermined* until the computation
/// finishes, then *determined* forever.
pub struct FutureVal {
    state: Mutex<FutState>,
    cond: Condvar,
}

impl FutureVal {
    /// A fresh, undetermined future.
    pub fn new() -> Arc<FutureVal> {
        Arc::new(FutureVal {
            state: Mutex::new(FutState::Pending),
            cond: Condvar::new(),
        })
    }

    /// An already-determined future (used when the pool is disabled and
    /// the computation ran eagerly).
    pub fn determined(v: Value) -> Arc<FutureVal> {
        Arc::new(FutureVal {
            state: Mutex::new(FutState::Done(v)),
            cond: Condvar::new(),
        })
    }

    /// Determine the future with a value. Idempotent-by-construction: the
    /// VM only fulfills a future from its single producing job.
    pub fn fulfill(&self, v: Value) {
        let mut st = self.state.lock();
        *st = FutState::Done(v);
        self.cond.notify_all();
    }

    /// Determine the future with a failure; touching it re-signals.
    pub fn fail(&self, c: Condition) {
        let mut st = self.state.lock();
        *st = FutState::Failed(c);
        self.cond.notify_all();
    }

    /// Is the future determined?
    pub fn is_determined(&self) -> bool {
        !matches!(*self.state.lock(), FutState::Pending)
    }

    /// Block until determined; propagate failure as a signal (the paper's
    /// `touch`).
    pub fn wait(&self) -> VmResult<Value> {
        let mut st = self.state.lock();
        loop {
            match &*st {
                FutState::Done(v) => return Ok(v.clone()),
                FutState::Failed(c) => return Err(VmError::Signal(c.clone())),
                FutState::Pending => self.cond.wait(&mut st),
            }
        }
    }

    /// Like [`wait`](Self::wait) with a timeout; `None` on timeout.
    pub fn wait_timeout(&self, dur: Duration) -> Option<VmResult<Value>> {
        let deadline = std::time::Instant::now() + dur;
        let mut st = self.state.lock();
        loop {
            match &*st {
                FutState::Done(v) => return Some(Ok(v.clone())),
                FutState::Failed(c) => return Some(Err(VmError::Signal(c.clone()))),
                FutState::Pending => {
                    if self.cond.wait_until(&mut st, deadline).timed_out() {
                        return None;
                    }
                }
            }
        }
    }
}

impl fmt::Debug for FutureVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = match &*self.state.lock() {
            FutState::Pending => "undetermined",
            FutState::Done(_) => "determined",
            FutState::Failed(_) => "failed",
        };
        write!(f, "Future({st})")
    }
}

impl Opaque for FutureVal {
    fn opaque_type(&self) -> &'static str {
        "future"
    }
    fn opaque_print(&self) -> String {
        format!("{self:?}")
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Force `v` if it is a future: block until determined and return the
/// underlying value. Non-futures pass through. This implements the §4.1
/// rule that passing a future to any native operation determines it.
pub fn force(v: Value) -> VmResult<Value> {
    match &v {
        Value::Opaque(o) => match o.as_any().downcast_ref::<FutureVal>() {
            Some(fut) => fut.wait(),
            None => Ok(v),
        },
        _ => Ok(v),
    }
}

/// Force every future in `args` in place.
pub fn force_all(args: &mut [Value]) -> VmResult<()> {
    for a in args.iter_mut() {
        if a.as_opaque::<FutureVal>().is_some() {
            *a = force(std::mem::replace(a, Value::Nil))?;
        }
    }
    Ok(())
}

/// Recursively wait for every future reachable from `v` (aggregates are
/// walked). Used at continuation capture: per §4.1, a continuation does
/// not become available until all futures it references have completed.
pub fn determine_deep(v: &Value) -> VmResult<()> {
    match v {
        Value::Opaque(o) => {
            if let Some(fut) = o.as_any().downcast_ref::<FutureVal>() {
                // Failures surface at capture time, as a failed migration
                // would in production.
                fut.wait()?;
            }
            Ok(())
        }
        Value::List(items) | Value::Vector(items) => items.iter().try_for_each(determine_deep),
        Value::Map(m) => m.iter().try_for_each(|(k, val)| {
            determine_deep(k)?;
            determine_deep(val)
        }),
        Value::Func(f) => {
            if let Some(c) = f.as_any().downcast_ref::<Closure>() {
                c.captures.iter().try_for_each(determine_deep)
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

/// A first-class continuation captured by `push-cc`: the full fiber state,
/// re-enterable any number of times.
pub struct ContinuationVal {
    /// The captured fiber state.
    pub state: FiberState,
}

impl fmt::Debug for ContinuationVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Continuation({} frames)", self.state.frames.len())
    }
}

impl Opaque for ContinuationVal {
    fn opaque_type(&self) -> &'static str {
        "continuation"
    }
    fn opaque_print(&self) -> String {
        format!("{self:?}")
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_fulfill_and_wait() {
        let fut = FutureVal::new();
        assert!(!fut.is_determined());
        let f2 = fut.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            f2.fulfill(Value::Int(7));
        });
        assert_eq!(fut.wait().unwrap(), Value::Int(7));
        assert!(fut.is_determined());
        h.join().unwrap();
    }

    #[test]
    fn future_failure_propagates() {
        let fut = FutureVal::new();
        fut.fail(Condition::error("bad"));
        match fut.wait() {
            Err(VmError::Signal(c)) => assert_eq!(c.message(), "bad"),
            other => panic!("expected signal, got {other:?}"),
        }
    }

    #[test]
    fn wait_timeout_times_out() {
        let fut = FutureVal::new();
        assert!(fut.wait_timeout(Duration::from_millis(5)).is_none());
        fut.fulfill(Value::Nil);
        assert!(fut.wait_timeout(Duration::from_millis(5)).is_some());
    }

    #[test]
    fn force_passthrough_for_non_futures() {
        assert_eq!(force(Value::Int(3)).unwrap(), Value::Int(3));
    }

    #[test]
    fn determine_deep_walks_aggregates() {
        let fut = FutureVal::determined(Value::Int(1));
        let v = Value::list(vec![
            Value::vector(vec![Value::Opaque(fut)]),
            Value::str("x"),
        ]);
        determine_deep(&v).unwrap();
    }
}
