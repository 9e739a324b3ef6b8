//! The stack bounds a fiber runs inside.
//!
//! A workflow is a tenant of the process that runs it: runaway recursion
//! must fail the fiber with a condition, never abort the host. A fiber
//! grows two stacks, and a constant bounds each (they are not settings):
//!
//! * [`MAX_FRAMES`] bounds one activation's frame stack, which is heap
//!   data. A call that would push a frame past it raises
//!   `stack-exhausted` instead (`(defun f (n) (+ 1 (f (+ n 1))))`).
//! * [`MAX_ACTIVATIONS`] bounds how many interpreter activations one
//!   thread nests on its Rust stack: a native that calls back into Gozer
//!   (`mapcar`, `sort`, `reduce`), a condition handler and a macro
//!   expander each run in an activation of their own. Entering one past
//!   the bound raises `stack-exhausted` too
//!   (`(defun h (n) (+ 1 (car (mapcar (lambda (x) (h x)) (list n)))))`).
//!
//! Both conditions can be handled. The handlers of an exhausted Rust
//! stack run in a small reserve of activations above the bound; a
//! handler that exhausts the reserve as well gets the condition back
//! unhandled.

use std::cell::Cell;

/// Frames one activation may hold. A frame with its locals and operand
/// stack is a few hundred bytes, so a fiber at the bound holds a few MB.
pub const MAX_FRAMES: usize = 10_000;

/// Interpreter activations one thread may nest. Each costs about 19 KB
/// of Rust stack in a debug build and 3.3 KB in a release build (measured
/// on `mapcar` re-entry, x86-64). Instance, pool and test threads run on
/// Rust's default 2 MiB stack, so 64 activations plus the handler reserve
/// leave a debug build about half a MiB for the frames below them.
pub const MAX_ACTIVATIONS: u32 = 64;

/// Activations above [`MAX_ACTIVATIONS`] that the handlers of an
/// exhausted Rust stack may use.
const HANDLER_RESERVE: u32 = 4;

thread_local! {
    /// Interpreter activations live on this thread.
    static ACTIVATIONS: Cell<u32> = const { Cell::new(0) };
    /// The bound those activations are held to: `MAX_ACTIVATIONS`, or
    /// above it while the handlers of an exhausted stack run.
    static LIMIT: Cell<u32> = const { Cell::new(MAX_ACTIVATIONS) };
}

/// One live interpreter activation on this thread; dropping it (on any
/// exit path) leaves the activation.
pub(crate) struct Activation(());

impl Activation {
    /// Enter an activation, or `None` when this thread already holds as
    /// many as its bound allows.
    pub(crate) fn enter() -> Option<Activation> {
        let n = ACTIVATIONS.get();
        if n >= LIMIT.get() {
            return None;
        }
        ACTIVATIONS.set(n + 1);
        Some(Activation(()))
    }
}

impl Drop for Activation {
    fn drop(&mut self) {
        ACTIVATIONS.set(ACTIVATIONS.get() - 1);
    }
}

/// Run `signal` (which runs condition handlers) with the activation
/// bound raised into the handler reserve. `None`, without running it,
/// when the reserve is in use already: a handler of an exhausted stack
/// exhausted it again.
pub(crate) fn in_handler_reserve<T>(signal: impl FnOnce() -> T) -> Option<T> {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            LIMIT.set(MAX_ACTIVATIONS);
        }
    }
    if LIMIT.get() != MAX_ACTIVATIONS {
        return None;
    }
    LIMIT.set(MAX_ACTIVATIONS + HANDLER_RESERVE);
    let _restore = Restore;
    Some(signal())
}
