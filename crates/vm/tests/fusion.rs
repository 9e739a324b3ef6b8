//! Differential tests for superinstruction fusion, the interpreter's
//! one switch: a program must produce the same value fused and unfused,
//! and the profiler must report **bit-identical opcode and pair counts**
//! (constituent crediting) — that is the determinism contract serialized
//! continuations ride on. Both sides run the always-on inline caches,
//! frame pool and fast paths, so these tests also pin their semantics
//! (`inline_cache_sees_redefinition`,
//! `global_writes_visible_within_one_activation`); what those fast
//! paths save is gated in `alloc_budget.rs`.

use gozer_lang::Value;
use gozer_vm::{set_fuse_override, Gvm, RunOutcome};
use proptest::prelude::*;
use std::sync::Arc;

/// Build a VM whose programs compile with fusion forced on or off
/// (compilation happens on the calling thread, so the thread-local
/// override is race-free here).
fn gvm_with_fuse(fuse: bool, src: &str) -> Arc<Gvm> {
    set_fuse_override(Some(fuse));
    let gvm = Gvm::with_pool_size(1);
    gvm.profiler().set_enabled(true);
    let r = gvm.load_str(src, "fusion-test");
    set_fuse_override(None);
    r.unwrap_or_else(|e| panic!("load failed: {e}\nsource: {src}"));
    gvm
}

/// Run `call` on both a fused and an unfused VM loaded with `src`;
/// assert identical results and identical profiler opcode *and* pair
/// counts.
fn differential(src: &str, function: &str, args: Vec<Value>) -> Value {
    let fused = gvm_with_fuse(true, src);
    let unfused = gvm_with_fuse(false, src);
    let f1 = fused.function(function).unwrap();
    let f2 = unfused.function(function).unwrap();
    let v1 = fused.call_sync(&f1, args.clone()).unwrap();
    let v2 = unfused.call_sync(&f2, args).unwrap();
    assert_eq!(v1, v2, "fused and unfused disagree on {function}");
    let s1 = fused.profiler().snapshot();
    let s2 = unfused.profiler().snapshot();
    assert_eq!(
        s1.opcodes, s2.opcodes,
        "constituent opcode counts must be bit-identical fused vs unfused ({function})"
    );
    assert_eq!(
        s1.pairs, s2.pairs,
        "adjacent-pair counts must be bit-identical fused vs unfused ({function})"
    );
    v1
}

#[test]
fn fib_identical_across_modes() {
    let v = differential(
        "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        "fib",
        vec![Value::Int(14)],
    );
    assert_eq!(v, Value::Int(377));
}

#[test]
fn loop_sum_identical_across_modes() {
    let v = differential(
        "(defun sum-to (n) (loop for i from 1 to n sum i))",
        "sum-to",
        vec![Value::Int(500)],
    );
    assert_eq!(v, Value::Int(125250));
}

#[test]
fn collect_map_identical_across_modes() {
    let v = differential(
        "(defun squares (n)
           (apply #'+ (loop for i from 1 to n collect (* i i))))",
        "squares",
        vec![Value::Int(50)],
    );
    assert_eq!(v, Value::Int(42925));
}

#[test]
fn globals_and_closures_identical_across_modes() {
    let v = differential(
        "(defvar *acc* 0)
         (defun step-fn (x) (setq *acc* (+ *acc* x)) *acc*)
         (defun run (n)
           (setq *acc* 0)
           (let ((add (lambda (a b) (+ a b))))
             (loop for i from 1 to n sum (add (step-fn i) i))))",
        "run",
        vec![Value::Int(40)],
    );
    // sum over i of (acc_i + i) where acc_i = i(i+1)/2.
    let expected: i64 = (1..=40).map(|i| i * (i + 1) / 2 + i).sum();
    assert_eq!(v, Value::Int(expected));
}

#[test]
fn yield_resume_identical_across_modes() {
    // The continuation-capture path: both modes must suspend at the
    // same logical point, resume identically, and count identically.
    let src = "(defun gen (n)
                 (let ((acc 0))
                   (loop for i from 1 to n do
                     (setq acc (+ acc (yield i))))
                   acc))";
    let run = |fuse: bool| {
        let gvm = gvm_with_fuse(fuse, src);
        let f = gvm.function("gen").unwrap();
        let mut outcome = gvm.call_fiber(&f, vec![Value::Int(5)]).unwrap();
        let mut payloads = Vec::new();
        loop {
            match outcome {
                RunOutcome::Suspended(s) => {
                    payloads.push(s.payload.clone());
                    // Resume with double the yielded value.
                    let Value::Int(i) = s.payload else {
                        panic!("int payload")
                    };
                    outcome = gvm.resume_fiber(s.state, Value::Int(i * 2)).unwrap();
                }
                RunOutcome::Done(v) => return (payloads, v, gvm.profiler().snapshot()),
            }
        }
    };
    let (p1, v1, s1) = run(true);
    let (p2, v2, s2) = run(false);
    assert_eq!(p1, p2);
    assert_eq!(v1, v2);
    assert_eq!(v1, Value::Int(30)); // 2*(1+2+3+4+5)
    assert_eq!(s1.opcodes, s2.opcodes);
    assert_eq!(s1.pairs, s2.pairs);
}

// ---- regression pins for the satellite refactors ----------------------

#[test]
fn store_global_and_def_global_share_runtime_semantics() {
    // The duplicated StoreGlobal/DefGlobal arms were collapsed into one:
    // both write the named global unconditionally at runtime (defvar's
    // define-if-unbound policy is a compile-time concern). Pin that.
    let gvm = Gvm::with_pool_size(1);
    gvm.eval_str("(defvar *g* 1)").unwrap();
    assert_eq!(gvm.eval_str("*g*").unwrap(), Value::Int(1));
    gvm.eval_str("(setq *g* 2)").unwrap();
    assert_eq!(gvm.eval_str("*g*").unwrap(), Value::Int(2));
    // defun redefinition goes through the same write path.
    gvm.eval_str("(defun f () 1)").unwrap();
    assert_eq!(gvm.eval_str("(f)").unwrap(), Value::Int(1));
    gvm.eval_str("(defun f () 2)").unwrap();
    assert_eq!(gvm.eval_str("(f)").unwrap(), Value::Int(2));
}

#[test]
fn inline_cache_sees_redefinition() {
    // Warm a callsite's inline cache hard, redefine the global it
    // caches, and require the very next call to see the new binding —
    // the generation-stamp protocol's visibility guarantee.
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(
        "(defvar *op* nil)
         (setq *op* (lambda (a b) (+ a b)))
         (defun apply-op (n)
           (let ((acc 0))
             (loop for i from 1 to n do (setq acc (*op* acc i)))
             acc))",
        "ic-test",
    )
    .unwrap();
    let f = gvm.function("apply-op").unwrap();
    assert_eq!(
        gvm.call_sync(&f, vec![Value::Int(100)]).unwrap(),
        Value::Int(5050)
    );
    gvm.eval_str("(setq *op* (lambda (a b) (- a b)))").unwrap();
    let folded: i64 = (1..=100i64).fold(0, |acc, i| acc - i);
    assert_eq!(
        gvm.call_sync(&f, vec![Value::Int(100)]).unwrap(),
        Value::Int(folded)
    );
}

#[test]
fn cached_fast2_follows_the_global_epoch() {
    // The fused global calls read their callee's `Fast2` from the
    // activation's global cache. Rebinding the global in the same
    // activation — to another native, to a closure, to a non-function —
    // must be seen by the very next call, fused exactly as unfused.
    let src = "(defvar *op* nil)
         (defun run-op (acc n)
           (loop for i from 1 to n do
             (setq acc (*op* acc i))
             (setq acc (*op* acc 1)))
           acc)
         (defun phases (n)
           (let ((acc 0) (trace nil))
             (setq *op* +)
             (setq acc (run-op acc n))
             (push acc trace)
             (loop for i from 1 to n do (setq acc (*op* acc i)) (setq acc (*op* acc 1)))
             (push acc trace)
             (setq *op* -)
             (loop for i from 1 to n do (setq acc (*op* acc i)) (setq acc (*op* acc 1)))
             (push acc trace)
             (setq *op* (lambda (a b) (+ a (* 2 b))))
             (loop for i from 1 to n do (setq acc (*op* acc i)) (setq acc (*op* acc 1)))
             (push acc trace)
             (setq *op* 42)
             (push (restart-case
                     (handler-bind (lambda (c) (invoke-restart 'out (condition-types c)))
                       (loop for i from 1 to n do (setq acc (*op* acc i)))
                       acc)
                     (out (types) types))
                   trace)
             (setq *op* -)
             (push (restart-case
                     (handler-bind (lambda (c) (invoke-restart 'out (condition-types c)))
                       (loop for i from 1 to n do (setq acc (*op* acc 1))))
                     (out (types) types))
                   trace)
             (push acc trace)
             (reverse trace)))";
    let fused = gvm_with_fuse(true, src);
    let f = fused.function("phases").unwrap();
    let cl = f.as_callable::<gozer_vm::Closure>().unwrap();
    let asm = gozer_vm::disassemble(&cl.program, cl.chunk);
    assert!(asm.contains("GlobalLocal2Call"), "{asm}");
    assert!(asm.contains("GlobalLocalConstCall"), "{asm}");

    let n = 20i64;
    let v = differential(src, "phases", vec![Value::Int(n)]);
    let mut acc = 0i64;
    let mut expected = Vec::new();
    for step in [
        |a: i64, b: i64| a + b,
        |a, b| a + b,
        |a, b| a - b,
        |a, b| a + 2 * b,
    ] {
        for i in 1..=n {
            acc = step(step(acc, i), 1);
        }
        expected.push(Value::Int(acc));
    }
    let type_error = Value::list(
        ["type-error", "error", "condition"]
            .into_iter()
            .map(Value::from)
            .collect(),
    );
    expected.push(type_error);
    expected.push(Value::Nil);
    expected.push(Value::Int(acc - n));
    assert_eq!(v, Value::list(expected));
}

#[test]
fn global_writes_visible_within_one_activation() {
    // A setq in the middle of a hot loop must be visible to the
    // inline-cached read in the same activation (epoch bump ordering).
    let gvm = Gvm::with_pool_size(1);
    let v = gvm
        .eval_str(
            "(progn
               (defvar *c* 0)
               (defun bump (n)
                 (loop for i from 1 to n do (setq *c* (+ *c* 1)))
                 *c*)
               (bump 64))",
        )
        .unwrap();
    assert_eq!(v, Value::Int(64));
}

#[test]
fn take_local_collect_survives_yield_in_body() {
    // `loop collect` compiles the accumulator through TakeLocal (move,
    // leave nil) so %append1 can mutate in place. A yield mid-body
    // captures between the move and the store-back; resume must not
    // lose or duplicate accumulated elements.
    let src = "(defun gen (n)
                 (loop for i from 1 to n collect (progn (yield i) (* i i))))";
    for fuse in [true, false] {
        let gvm = gvm_with_fuse(fuse, src);
        let f = gvm.function("gen").unwrap();
        let mut outcome = gvm.call_fiber(&f, vec![Value::Int(6)]).unwrap();
        loop {
            match outcome {
                RunOutcome::Suspended(s) => {
                    outcome = gvm.resume_fiber(s.state, Value::Nil).unwrap();
                }
                RunOutcome::Done(v) => {
                    let expected = Value::list((1..=6i64).map(|i| Value::Int(i * i)).collect());
                    assert_eq!(v, expected, "fuse={fuse}");
                    break;
                }
            }
        }
    }
}

// ---- property sweep ----------------------------------------------------

/// A tiny expression AST covering the fused-op shapes: two-local calls,
/// local-and-const calls, comparisons feeding branches, let bindings.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Var,
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Let(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn to_gozer(&self, depth: usize) -> String {
        match self {
            Expr::Lit(i) => i.to_string(),
            Expr::Var => {
                if depth == 0 {
                    "p".into()
                } else {
                    format!("v{}", depth - 1)
                }
            }
            Expr::Add(a, b) => format!("(+ {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Sub(a, b) => format!("(- {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Mul(a, b) => format!("(* {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::If(c, t, e) => format!(
                "(if (< 0 {}) {} {})",
                c.to_gozer(depth),
                t.to_gozer(depth),
                e.to_gozer(depth)
            ),
            Expr::Let(a, b) => format!(
                "(let ((v{} {})) {})",
                depth,
                a.to_gozer(depth),
                b.to_gozer(depth + 1)
            ),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![(-20i64..20).prop_map(Expr::Lit), Just(Expr::Var)];
    leaf.prop_recursive(4, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::If(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Let(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_identical_fused_vs_unfused(e in expr_strategy(), p in -10i64..10) {
        // Wrap the expression in a function and a small driver loop so
        // the fused call shapes (quads included) actually trigger.
        let src = format!(
            "(defun f (p) {})
             (defun drive (p) (loop for i from 0 to 3 sum (f (+ p i))))",
            e.to_gozer(0)
        );
        differential(&src, "drive", vec![Value::Int(p)]);
    }
}
