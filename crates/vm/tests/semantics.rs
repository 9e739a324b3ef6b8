//! End-to-end language semantics tests for the GVM: evaluation, closures,
//! macros, futures, conditions/restarts, and continuations.

use gozer_lang::Value;
use gozer_vm::{Gvm, RunOutcome, VmError};

fn eval(src: &str) -> Value {
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str(src).unwrap_or_else(|e| panic!("eval failed: {e}\nsource: {src}"))
}

fn eval_err(src: &str) -> VmError {
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str(src).expect_err("expected error")
}

#[test]
fn arithmetic_and_comparison() {
    assert_eq!(eval("(+ 1 2 3)"), Value::Int(6));
    assert_eq!(eval("(- 10 1 2)"), Value::Int(7));
    assert_eq!(eval("(- 5)"), Value::Int(-5));
    assert_eq!(eval("(* 2 3 4)"), Value::Int(24));
    assert_eq!(eval("(/ 6 3)"), Value::Int(2));
    assert_eq!(eval("(/ 7 2)"), Value::Float(3.5));
    assert_eq!(eval("(mod -7 3)"), Value::Int(2));
    assert_eq!(eval("(rem -7 3)"), Value::Int(-1));
    assert_eq!(eval("(< 1 2 3)"), Value::Bool(true));
    assert_eq!(eval("(< 1 3 2)"), Value::Nil);
    assert_eq!(eval("(= 1 1.0)"), Value::Bool(true));
    assert_eq!(eval("(max 3 1 4 1 5)"), Value::Int(5));
    assert_eq!(eval("(expt 2 10)"), Value::Int(1024));
}

#[test]
fn overflow_promotes_to_float() {
    let v = eval("(* 9223372036854775807 2)");
    assert!(matches!(v, Value::Float(_)));
}

#[test]
fn let_scoping_and_shadowing() {
    assert_eq!(eval("(let ((x 1) (y 2)) (+ x y))"), Value::Int(3));
    assert_eq!(eval("(let ((x 1)) (let ((x 2)) x))"), Value::Int(2));
    assert_eq!(eval("(let ((x 1)) (let ((x (+ x 1))) x))"), Value::Int(2));
    // parallel let: inits see outer bindings
    assert_eq!(
        eval("(let ((x 1)) (let ((x 10) (y x)) y))"),
        Value::Int(1)
    );
    // let*: sequential
    assert_eq!(eval("(let* ((x 1) (y (+ x 1))) y)"), Value::Int(2));
}

#[test]
fn defun_and_recursion() {
    assert_eq!(
        eval("(progn (defun fact (n) (if (<= n 1) 1 (* n (fact (- n 1))))) (fact 10))"),
        Value::Int(3628800)
    );
}

#[test]
fn tail_recursion_is_constant_space() {
    // 100k iterations would blow a frame-per-call stack.
    assert_eq!(
        eval("(progn (defun count-down (n acc) (if (= n 0) acc (count-down (- n 1) (+ acc 1)))) (count-down 100000 0))"),
        Value::Int(100000)
    );
}

#[test]
fn closures_capture_by_value() {
    assert_eq!(
        eval("(progn (defun adder (n) (lambda (x) (+ x n))) (funcall (adder 5) 10))"),
        Value::Int(15)
    );
    // nested capture through two lambdas
    assert_eq!(
        eval("(let ((a 1)) (funcall (funcall (lambda () (lambda () a)))))"),
        Value::Int(1)
    );
}

#[test]
fn keyword_and_optional_params() {
    assert_eq!(
        eval("(progn (defun f (a &optional (b 10)) (+ a b)) (list (f 1) (f 1 2)))"),
        eval("(list 11 3)")
    );
    assert_eq!(
        eval("(progn (defun g (&key x (y 5)) (list x y)) (g :x 1))"),
        eval("(list 1 5)")
    );
    assert_eq!(
        eval("(progn (defun h (a &rest r) (list a r)) (h 1 2 3))"),
        eval("(list 1 (list 2 3))")
    );
}

#[test]
fn apply_and_funcall() {
    assert_eq!(eval("(apply #'+ 1 2 (list 3 4))"), Value::Int(10));
    assert_eq!(eval("(funcall #'* 3 4)"), Value::Int(12));
}

#[test]
fn core_macros() {
    assert_eq!(eval("(when t 1 2 3)"), Value::Int(3));
    assert_eq!(eval("(when nil 1)"), Value::Nil);
    assert_eq!(eval("(unless nil 7)"), Value::Int(7));
    assert_eq!(eval("(cond (nil 1) ((= 1 1) 2) (t 3))"), Value::Int(2));
    assert_eq!(eval("(cond (nil 1) (otherwise 9))"), Value::Int(9));
    assert_eq!(
        eval("(case (+ 1 1) (1 :one) (2 :two) (otherwise :many))"),
        Value::keyword("two")
    );
    assert_eq!(
        eval("(let ((acc 0)) (dotimes (i 5) (setq acc (+ acc i))) acc)"),
        Value::Int(10)
    );
    assert_eq!(
        eval("(let ((acc nil)) (dolist (x (list 1 2 3)) (push x acc)) acc)"),
        eval("(list 3 2 1)")
    );
    assert_eq!(eval("(let ((x 1)) (incf x 4) x)"), Value::Int(5));
    assert_eq!(eval("(prog1 1 2 3)"), Value::Int(1));
}

#[test]
fn loop_macro_subset() {
    // Listing 1's loc-sum-squares shape.
    assert_eq!(
        eval("(apply #'+ (loop for n in (list 1 2 3 4) collect (* n n)))"),
        Value::Int(30)
    );
    assert_eq!(eval("(loop for i from 1 to 5 sum i)"), Value::Int(15));
    assert_eq!(eval("(loop for i from 0 below 10 by 2 count (evenp i))"), Value::Int(5));
    assert_eq!(
        eval("(let ((n 0)) (loop repeat 4 do (incf n)) n)"),
        Value::Int(4)
    );
    assert_eq!(
        eval("(loop for i from 1 to 100 while (< i 4) collect i)"),
        eval("(list 1 2 3)")
    );
}

#[test]
fn quasiquote() {
    assert_eq!(eval("`(1 2 ,(+ 1 2))"), eval("(list 1 2 3)"));
    assert_eq!(eval("(let ((xs (list 2 3))) `(1 ,@xs 4))"), eval("(list 1 2 3 4)"));
    assert_eq!(eval("`(a b)"), eval("(list 'a 'b)"));
}

#[test]
fn user_macros() {
    assert_eq!(
        // Load semantics: a macro must be a separate top-level form before
        // its first use (the compiler expands at compile time).
        eval(
            "(defmacro my-or2 (a b)
               (let ((v (gensym)))
                 `(let ((,v ,a)) (if ,v ,v ,b))))
             (list (my-or2 nil 2) (my-or2 1 (error \"not evaluated\")))"
        ),
        eval("(list 2 1)")
    );
}

#[test]
fn strings_and_format() {
    assert_eq!(
        eval("(format nil \"~a + ~a = ~d~%\" 1 2 3)"),
        Value::str("1 + 2 = 3\n")
    );
    assert_eq!(eval("(concat \"a\" 1 :k)"), Value::str("a1:k"));
    assert_eq!(eval("(string-split \"a,b,c\" \",\")"), eval("(list \"a\" \"b\" \"c\")"));
    assert_eq!(eval("(string-join (list 1 2) \"-\")"), Value::str("1-2"));
}

#[test]
fn method_calls() {
    assert_eq!(eval("(. \"hello^\" (endsWith \"^\"))"), Value::Bool(true));
    assert_eq!(eval("(. \"hello\" (toUpperCase))"), Value::str("HELLO"));
    assert_eq!(eval("(. (list 1 2 3) (size))"), Value::Int(3));
    assert_eq!(
        eval(
            "(let ((msg (create-object \"message\")))
               (. msg (set \"a\" 41))
               (+ 1 (. msg (get \"a\"))))"
        ),
        Value::Int(42)
    );
}

#[test]
fn higher_order_natives() {
    assert_eq!(
        eval("(mapcar (lambda (x) (* x 10)) (list 1 2 3))"),
        eval("(list 10 20 30)")
    );
    assert_eq!(
        eval("(reduce #'+ (list 1 2 3 4) 100)"),
        Value::Int(110)
    );
    assert_eq!(
        eval("(sort (list 3 1 2) #'<)"),
        eval("(list 1 2 3)")
    );
    assert_eq!(
        eval("(remove-if #'evenp (list 1 2 3 4 5))"),
        eval("(list 1 3 5)")
    );
    assert_eq!(
        eval("(mapcar #'+ (list 1 2) (list 10 20))"),
        eval("(list 11 22)")
    );
}

#[test]
fn prelude_functions() {
    assert_eq!(eval("(cadr (list 1 2 3))"), Value::Int(2));
    assert_eq!(
        eval("(funcall (curry #'+ 1 2) 3)"),
        Value::Int(6)
    );
    assert_eq!(
        eval("(funcall (complement #'evenp) 3)"),
        Value::Bool(true)
    );
    assert_eq!(eval("(funcall (constantly 9) 1 2 3)"), Value::Int(9));
    assert_eq!(
        eval("(mapcan (lambda (x) (list x x)) (list 1 2))"),
        eval("(list 1 1 2 2)")
    );
}

// ---- futures (§2) -------------------------------------------------------

#[test]
fn futures_compute_in_parallel_and_force_transparently() {
    // par-sum-squares from Listing 1: futures are forced when passed to
    // the + native.
    assert_eq!(
        eval("(apply #'+ (loop for n in (range 1 11) collect (future (* n n))))"),
        Value::Int(385)
    );
}

#[test]
fn touch_and_future_done() {
    assert_eq!(eval("(touch (future 42))"), Value::Int(42));
    assert_eq!(eval("(touch 42)"), Value::Int(42));
    assert_eq!(eval("(future-done? 42)"), Value::Bool(true));
}

#[test]
fn pcall_forces_arguments() {
    assert_eq!(
        eval("(pcall #'+ (future 1) (future 2))"),
        Value::Int(3)
    );
}

#[test]
fn future_errors_surface_at_touch() {
    let err = eval_err("(touch (future (error \"boom\")))");
    assert!(err.to_string().contains("boom"), "{err}");
}

// ---- conditions and restarts (§3.7) -------------------------------------

#[test]
fn unhandled_error_fails_fiber() {
    let err = eval_err("(error \"kaput ~a\" 7)");
    assert!(err.to_string().contains("kaput 7"));
}

#[test]
fn handler_bind_with_restart_case() {
    // handler transfers to the `use-instead` restart.
    assert_eq!(
        eval(
            "(restart-case
               (handler-bind (lambda (c) (invoke-restart 'use-instead 99))
                 (+ 1 (error \"nope\")))
               (use-instead (v) v))"
        ),
        Value::Int(99)
    );
}

#[test]
fn declined_conditions_continue_to_outer_handler() {
    assert_eq!(
        eval(
            "(restart-case
               (handler-bind (lambda (c) nil) ; declines
                 (handler-bind (lambda (c) (if (condition-matches? c \"error\")
                                                (invoke-restart 'out 1)
                                                nil))
                   (error \"x\")))
               (out (v) v))"
        ),
        Value::Int(1)
    );
}

#[test]
fn signal_without_handlers_returns_nil() {
    assert_eq!(eval("(progn (signal \"meh\") 5)"), Value::Int(5));
}

#[test]
fn retry_restart_reruns_operation() {
    // A function that fails the first 2 times; the handler retries.
    assert_eq!(
        eval(
            "(progn
               (defvar *attempts* 0)
               (defun flaky ()
                 (setq *attempts* (+ *attempts* 1))
                 (if (< *attempts* 3) (error \"transient\") *attempts*))
               (defun call-with-retry ()
                 (restart-case
                   (handler-bind (lambda (c) (invoke-restart 'retry))
                     (flaky))
                   (retry () (call-with-retry))))
               (call-with-retry))"
        ),
        Value::Int(3)
    );
}

#[test]
fn ignore_errors_macro() {
    assert_eq!(eval("(ignore-errors (error \"x\") 1)"), Value::Nil);
    assert_eq!(eval("(ignore-errors 7)"), Value::Int(7));
}

#[test]
fn handlers_see_condition_payload() {
    assert_eq!(
        eval(
            "(restart-case
               (handler-bind (lambda (c) (invoke-restart 'out (condition-message c)))
                 (error \"the-message\"))
               (out (m) m))"
        ),
        Value::str("the-message")
    );
}

#[test]
fn condition_designator_matching() {
    assert_eq!(
        eval(
            "(let ((c (make-condition :types (list \"java.net.SocketException\") :message \"conn\")))
               (list (condition-matches? c \"java.net.SocketException\")
                     (condition-matches? c \"condition\")
                     (condition-matches? c \"other\")))"
        ),
        eval("(list t t nil)")
    );
}

// ---- continuations (§4.1) ------------------------------------------------

#[test]
fn yield_suspends_and_resume_delivers_value() {
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str("(defun wf () (+ 100 (yield :waiting)))").unwrap();
    let f = gvm.function("wf").unwrap();
    let outcome = gvm.call_fiber(&f, vec![]).unwrap();
    let RunOutcome::Suspended(susp) = outcome else {
        panic!("expected suspension");
    };
    assert_eq!(susp.payload, Value::keyword("waiting"));
    let outcome = gvm.resume_fiber(susp.state, Value::Int(11)).unwrap();
    let RunOutcome::Done(v) = outcome else {
        panic!("expected completion");
    };
    assert_eq!(v, Value::Int(111));
}

#[test]
fn multiple_yields_in_a_loop() {
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str(
        "(defun wf (n)
           (let ((acc 0))
             (dotimes (i n)
               (setq acc (+ acc (yield i))))
             acc))",
    )
    .unwrap();
    let f = gvm.function("wf").unwrap();
    let mut outcome = gvm.call_fiber(&f, vec![Value::Int(3)]).unwrap();
    let mut yielded = Vec::new();
    let result = loop {
        match outcome {
            RunOutcome::Suspended(s) => {
                yielded.push(s.payload.clone());
                outcome = gvm.resume_fiber(s.state, Value::Int(10)).unwrap();
            }
            RunOutcome::Done(v) => break v,
        }
    };
    assert_eq!(yielded, vec![Value::Int(0), Value::Int(1), Value::Int(2)]);
    assert_eq!(result, Value::Int(30));
}

#[test]
fn continuation_state_is_cloneable_and_replayable() {
    // The same suspension can be resumed twice with different values —
    // the continuation is plain data.
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str("(defun wf () (* 2 (yield nil)))").unwrap();
    let f = gvm.function("wf").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![]).unwrap() else {
        panic!("expected suspension");
    };
    let state2 = susp.state.clone();
    let RunOutcome::Done(a) = gvm.resume_fiber(susp.state, Value::Int(3)).unwrap() else {
        panic!()
    };
    let RunOutcome::Done(b) = gvm.resume_fiber(state2, Value::Int(5)).unwrap() else {
        panic!()
    };
    assert_eq!(a, Value::Int(6));
    assert_eq!(b, Value::Int(10));
}

#[test]
fn yield_forces_pending_futures_before_capture() {
    // A pending future referenced by a local must be determined by the
    // time the suspension is returned (§4.1).
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str(
        "(defun wf ()
           (let ((f (future (progn (sleep-millis 20) 7))))
             (yield :snap)
             (touch f)))",
    )
    .unwrap();
    let f = gvm.function("wf").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![]).unwrap() else {
        panic!("expected suspension");
    };
    // All futures inside the captured state are determined.
    let RunOutcome::Done(v) = gvm.resume_fiber(susp.state, Value::Nil).unwrap() else {
        panic!()
    };
    assert_eq!(v, Value::Int(7));
}

#[test]
fn yield_from_future_thread_is_an_error() {
    let err = eval_err("(touch (future (yield 1)))");
    assert!(
        err.to_string().contains("unexpected unwind") || err.to_string().contains("Yield"),
        "{err}"
    );
}

#[test]
fn reader_macro_installed_at_runtime() {
    // Listing 5: install ^var^ syntax, then use it in later forms. Here
    // the handler rewrites to a quoted marker we can observe.
    assert_eq!(
        // The macro character takes effect for forms read after the
        // installing form, so it must be a separate top-level form.
        eval(
            "(set-macro-character #\\^
               (lambda (the-stream c)
                 (let ((var-name (read the-stream t nil t)))
                   `(list :task-var ',var-name)))
               t)
             (first ^exit-flag^)"
        ),
        Value::keyword("task-var")
    );
}

#[test]
fn eval_and_read_from_string() {
    assert_eq!(eval("(eval (read-from-string \"(+ 1 2)\"))"), Value::Int(3));
    assert_eq!(
        eval("(eval (list '+ 1 2))"),
        Value::Int(3)
    );
}

#[test]
fn docstrings_survive_compilation() {
    assert_eq!(
        eval("(progn (defun f (x) \"doc here\" x) (doc #'f))"),
        Value::str("doc here")
    );
}

#[test]
fn log_collects_output() {
    let gvm = Gvm::with_pool_size(2);
    gvm.eval_str("(log \"hello\" 42)").unwrap();
    assert_eq!(gvm.take_log(), vec!["hello 42".to_string()]);
}

#[test]
fn assert_macro() {
    assert_eq!(eval("(progn (assert (= 1 1)) :ok)"), Value::keyword("ok"));
    let err = eval_err("(assert (= 1 2))");
    assert!(err.to_string().contains("assertion failed"));
}

#[test]
fn unhandled_conditions_carry_backtraces() {
    let gvm = Gvm::with_pool_size(1);
    // The `+ 0` wrappers defeat tail-call elimination so every frame is
    // live at signal time.
    gvm.eval_str(
        "(defun inner () (error \"deep failure\"))
         (defun middle () (+ 0 (inner)))
         (defun outer () (+ 0 (middle)))",
    )
    .unwrap();
    let f = gvm.function("outer").unwrap();
    let err = gvm.call_fiber(&f, vec![]).unwrap_err();
    let VmError::Signal(cond) = err else {
        panic!("expected signal");
    };
    let bt = cond
        .field("backtrace")
        .and_then(|v| v.as_str().map(str::to_owned))
        .expect("backtrace attached");
    assert!(bt.contains("outer"), "{bt}");
    assert!(bt.contains("middle"), "{bt}");
    assert!(bt.contains("inner"), "{bt}");
}
