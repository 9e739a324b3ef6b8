//! Property tests for the compiler + interpreter: randomly generated
//! expressions must evaluate to the same value as a Rust-side model, and
//! compilation must be deterministic (the invariant fiber migration
//! relies on).

use gozer_lang::Value;
use gozer_vm::{Compiler, Gvm, GvmHost};
use proptest::prelude::*;

/// A tiny expression AST mirrored in Gozer and in Rust.
#[derive(Debug, Clone)]
enum Expr {
    Lit(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    Let(Box<Expr>, Box<Expr>), // (let ((x a)) b(x)) — b references x as +x
    Var,                       // innermost bound variable (0 when unbound)
}

impl Expr {
    fn to_gozer(&self, depth: usize) -> String {
        match self {
            Expr::Lit(i) => i.to_string(),
            Expr::Add(a, b) => format!("(+ {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Sub(a, b) => format!("(- {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Mul(a, b) => format!("(* {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Min(a, b) => format!("(min {} {})", a.to_gozer(depth), b.to_gozer(depth)),
            Expr::Max(a, b) => format!("(max {} {})", a.to_gozer(depth), b.to_gozer(depth)),
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
            Expr::Var => {
                if depth == 0 {
                    "0".to_string()
                } else {
                    format!("v{}", depth - 1)
                }
            }
        }
    }

    fn eval(&self, env: &[i64]) -> i64 {
        match self {
            Expr::Lit(i) => *i,
            Expr::Add(a, b) => a.eval(env).wrapping_add(b.eval(env)),
            Expr::Sub(a, b) => a.eval(env).wrapping_sub(b.eval(env)),
            Expr::Mul(a, b) => a.eval(env).wrapping_mul(b.eval(env)),
            Expr::Min(a, b) => a.eval(env).min(b.eval(env)),
            Expr::Max(a, b) => a.eval(env).max(b.eval(env)),
            Expr::If(c, t, e) => {
                if c.eval(env) > 0 {
                    t.eval(env)
                } else {
                    e.eval(env)
                }
            }
            Expr::Let(a, b) => {
                let v = a.eval(env);
                let mut env2 = env.to_vec();
                env2.push(v);
                b.eval(&env2)
            }
            Expr::Var => env.last().copied().unwrap_or(0),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    // Small literals so products stay within i64 at depth ≤ 5 and the
    // Gozer side never hits the float-promotion path.
    let leaf = prop_oneof![(-50i64..50).prop_map(Expr::Lit), Just(Expr::Var)];
    leaf.prop_recursive(5, 64, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Min(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Max(Box::new(a), Box::new(b))),
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_expressions_match_reference(e in expr_strategy()) {
        let expected = e.eval(&[]);
        // Values that would overflow i64 along the way can diverge via
        // float promotion; the wrapping model catches true overflow, so
        // only compare when the magnitudes stay sane.
        let magnitude_ok = expected.abs() < (1i64 << 40);
        prop_assume!(magnitude_ok);
        let gvm = Gvm::with_pool_size(1);
        let v = gvm.eval_str(&e.to_gozer(0)).unwrap();
        if let Value::Int(got) = v {
            prop_assert_eq!(got, expected);
        }
        // Float means an intermediate overflowed; the model wrapped, so
        // skip (rare with 50-bounded literals at depth 5).
    }

    #[test]
    fn compilation_is_deterministic(e in expr_strategy()) {
        // Identical source must compile to identical programs on
        // independent VMs — migrated continuations depend on it.
        let src = e.to_gozer(0);
        let form = gozer_lang::Reader::read_one_str(&src).unwrap();
        let gvm1 = Gvm::with_pool_size(1);
        let gvm2 = Gvm::with_pool_size(1);
        let p1 = Compiler::compile_toplevel(&GvmHost(&gvm1), &form, "t", 1).unwrap();
        let p2 = Compiler::compile_toplevel(&GvmHost(&gvm2), &form, "t", 1).unwrap();
        prop_assert_eq!(p1.chunks.len(), p2.chunks.len());
        for (c1, c2) in p1.chunks.iter().zip(p2.chunks.iter()) {
            prop_assert_eq!(&c1.code, &c2.code);
            prop_assert_eq!(c1.local_count, c2.local_count);
        }
        prop_assert_eq!(p1.consts.len(), p2.consts.len());
    }

    #[test]
    fn suspended_expression_resumes_equal(e in expr_strategy()) {
        // Wrap the expression so a yield interrupts it mid-evaluation,
        // serialize the continuation, deserialize on a fresh VM with the
        // same program, and check the final value matches direct eval.
        let expected = e.eval(&[]);
        prop_assume!(expected.abs() < (1i64 << 40));
        let src = format!("(defun wf () (+ (yield :snap) {}))", e.to_gozer(0));
        let gvm1 = Gvm::with_pool_size(1);
        gvm1.load_str(&src, "wf").unwrap();
        let f = gvm1.function("wf").unwrap();
        let outcome = gvm1.call_fiber(&f, vec![]).unwrap();
        let gozer_vm::RunOutcome::Suspended(s) = outcome else {
            return Err(TestCaseError::fail("expected suspension"));
        };
        let bytes = gozer_serial_roundtrip(&s.state, &src);
        let gvm2 = Gvm::with_pool_size(1);
        gvm2.load_str(&src, "wf").unwrap();
        let state = gozer_serial::deserialize_state(&bytes, &gvm2).unwrap();
        let gozer_vm::RunOutcome::Done(v) = gvm2.resume_fiber(state, Value::Int(0)).unwrap()
        else {
            return Err(TestCaseError::fail("expected completion"));
        };
        if let Value::Int(got) = v {
            prop_assert_eq!(got, expected);
        }
    }
}

fn gozer_serial_roundtrip(state: &gozer_vm::FiberState, _src: &str) -> Vec<u8> {
    gozer_serial::serialize_state(state, gozer_compress::Codec::Deflate).unwrap()
}
