//! Stack bounds (`gozer_vm::limits`): runaway recursion fails the fiber
//! with a `stack-exhausted` condition that a handler can catch, and the
//! process lives. Both shapes are run on a thread with Rust's default
//! 2 MiB stack, the stack every instance and pool thread gets: the
//! heap frame stack (`f`, non-tail self-recursion) and the Rust stack
//! (`h`, recursion through `mapcar`, one nested activation per level).

use std::sync::Arc;

use gozer_lang::Value;
use gozer_vm::limits::{MAX_ACTIVATIONS, MAX_FRAMES};
use gozer_vm::{Gvm, RunOutcome, VmError};

const SRC: &str = "
(defun f (n) (+ 1 (f (+ n 1))))
(defun h (n) (+ 1 (car (mapcar (lambda (x) (h x)) (list (+ n 1))))))
(defun depth (n) (if (= n 0) 0 (+ 1 (depth (- n 1)))))
(defun nest (n) (if (= n 0) 0 (+ 1 (car (mapcar (lambda (x) (nest x)) (list (- n 1)))))))
(defun catching (thunk)
  (restart-case
    (handler-bind (lambda (c)
                    (if (condition-matches? c \"stack-exhausted\")
                        (invoke-restart 'out :caught)))
      (funcall thunk))
    (out (v) v)))
";

/// Run `body` on a fresh thread with Rust's default 2 MiB stack.
fn on_default_stack<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(body)
        .unwrap()
        .join()
        .expect("the thread must not die")
}

fn vm() -> Arc<Gvm> {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(SRC, "limits").unwrap();
    gvm
}

/// Start `(name arg)` as a fiber, the way a workflow host runs it.
fn run_fiber(gvm: &Arc<Gvm>, name: &str, arg: i64) -> Result<Value, VmError> {
    let f = gvm.function(name).unwrap();
    match gvm.call_fiber(&f, vec![Value::Int(arg)])? {
        RunOutcome::Done(v) => Ok(v),
        RunOutcome::Suspended(_) => panic!("{name} does not yield"),
    }
}

fn assert_exhausted(r: Result<Value, VmError>) {
    match r {
        Err(VmError::Signal(c)) => {
            assert!(c.matches("stack-exhausted"), "{c}");
            assert!(c.matches("error"), "{c}");
        }
        other => panic!("expected an unhandled stack-exhausted, got {other:?}"),
    }
}

#[test]
fn unbounded_frame_recursion_fails_the_fiber() {
    on_default_stack(|| {
        let gvm = vm();
        assert_exhausted(run_fiber(&gvm, "f", 0));
        // Nested (`call_sync`) activations hold the same bound.
        let f = gvm.function("f").unwrap();
        assert_exhausted(gvm.call_sync(&f, vec![Value::Int(0)]));
        // The VM is intact: the bound is per call, not spent.
        assert_exhausted(run_fiber(&gvm, "f", 0));
    });
}

#[test]
fn unbounded_nested_recursion_fails_the_fiber() {
    on_default_stack(|| {
        let gvm = vm();
        assert_exhausted(run_fiber(&gvm, "h", 0));
        assert_exhausted(run_fiber(&gvm, "h", 0));
        // Every activation was left again: a deep but bounded nest runs.
        let depth = MAX_ACTIVATIONS as i64 - 2;
        assert_eq!(run_fiber(&gvm, "nest", depth).unwrap(), Value::Int(depth));
    });
}

#[test]
fn a_handler_catches_both_exhaustions() {
    on_default_stack(|| {
        let gvm = vm();
        for shape in ["f", "h"] {
            let v = gvm
                .eval_str(&format!("(catching (lambda () ({shape} 0)))"))
                .unwrap();
            assert_eq!(v, Value::keyword("caught"), "{shape}");
        }
        // Caught in a fiber too, and the VM goes on working after it.
        gvm.load_str(
            "(defun guarded (n) (catching (lambda () (h n))))",
            "guarded",
        )
        .unwrap();
        assert_eq!(
            run_fiber(&gvm, "guarded", 0).unwrap(),
            Value::keyword("caught")
        );
        assert_eq!(run_fiber(&gvm, "depth", 100).unwrap(), Value::Int(100));
    });
}

#[test]
fn a_handler_that_exhausts_the_reserve_gets_the_condition_unhandled() {
    on_default_stack(|| {
        let gvm = vm();
        // The handler recurses without bound itself: it runs in the
        // reserve above the bound, exhausts that, and the condition goes
        // up unhandled instead of recursing into the handler again.
        gvm.load_str(
            "(defun relapse (n) (handler-bind (lambda (c) (h 0)) (h n)))",
            "relapse",
        )
        .unwrap();
        assert_exhausted(run_fiber(&gvm, "relapse", 0));
        assert_eq!(run_fiber(&gvm, "nest", 10).unwrap(), Value::Int(10));
    });
}

#[test]
fn recursion_just_under_the_frame_bound_completes() {
    on_default_stack(|| {
        let gvm = vm();
        let n = MAX_FRAMES as i64 - 8;
        assert_eq!(run_fiber(&gvm, "depth", n).unwrap(), Value::Int(n));
        assert_exhausted(run_fiber(&gvm, "depth", MAX_FRAMES as i64));
    });
}
