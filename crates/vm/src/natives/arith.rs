//! Numeric natives: the int/float tower with float contagion and
//! overflow promotion (an `i64` overflow promotes the result to `f64`
//! rather than erroring, like most scripting runtimes).

use std::sync::Arc;

use gozer_lang::Value;

use crate::error::{VmError, VmResult};
use crate::gvm::Gvm;
use crate::runtime::{Fast2, NativeOutcome};

use super::{arity, num_arg, reg, reg_fast2};

/// Either branch of the numeric tower.
#[derive(Clone, Copy)]
enum Num {
    Int(i64),
    Float(f64),
}

impl Num {
    fn of(v: &Value) -> VmResult<Num> {
        match v {
            Value::Int(i) => Ok(Num::Int(*i)),
            Value::Float(f) => Ok(Num::Float(*f)),
            other => Err(VmError::type_error("number", other)),
        }
    }

    fn value(self) -> Value {
        match self {
            Num::Int(i) => Value::Int(i),
            Num::Float(f) => Value::Float(f),
        }
    }

    fn f64(self) -> f64 {
        match self {
            Num::Int(i) => i as f64,
            Num::Float(f) => f,
        }
    }
}

fn fold(
    name: &str,
    args: &[Value],
    int_op: fn(i64, i64) -> Option<i64>,
    float_op: fn(f64, f64) -> f64,
) -> VmResult<Value> {
    let mut acc = Num::of(&args[0])?;
    for a in &args[1..] {
        let b = Num::of(a)?;
        acc = match (acc, b) {
            (Num::Int(x), Num::Int(y)) => match int_op(x, y) {
                Some(r) => Num::Int(r),
                // Overflow: promote to float.
                None => Num::Float(float_op(x as f64, y as f64)),
            },
            (x, y) => Num::Float(float_op(x.f64(), y.f64())),
        };
    }
    let _ = name;
    Ok(acc.value())
}

fn cmp_chain(args: &[Value], ok: fn(f64, f64) -> bool) -> VmResult<Value> {
    for w in args.windows(2) {
        let a = Num::of(&w[0])?.f64();
        let b = Num::of(&w[1])?.f64();
        if !ok(a, b) {
            return Ok(Value::Nil);
        }
    }
    Ok(Value::Bool(true))
}

pub(super) fn install(gvm: &Arc<Gvm>) {
    reg_fast2(gvm, "+", Fast2::Add, |_, args| {
        if args.is_empty() {
            return NativeOutcome::ok(Value::Int(0));
        }
        fold("+", &args, i64::checked_add, |a, b| a + b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, "-", Fast2::Sub, |_, args| {
        arity("-", &args, 1, None)?;
        if args.len() == 1 {
            return match Num::of(&args[0])? {
                Num::Int(i) => NativeOutcome::ok(Value::Int(-i)),
                Num::Float(f) => NativeOutcome::ok(Value::Float(-f)),
            };
        }
        fold("-", &args, i64::checked_sub, |a, b| a - b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, "*", Fast2::Mul, |_, args| {
        if args.is_empty() {
            return NativeOutcome::ok(Value::Int(1));
        }
        fold("*", &args, i64::checked_mul, |a, b| a * b).map(NativeOutcome::Value)
    });
    reg(gvm, "/", |_, args| {
        arity("/", &args, 1, None)?;
        let mut acc = Num::of(&args[0])?;
        let rest: &[Value] = if args.len() == 1 {
            // (/ x) is the reciprocal.
            acc = Num::Int(1);
            &args[0..1]
        } else {
            &args[1..]
        };
        for a in rest {
            let b = Num::of(a)?;
            if b.f64() == 0.0 {
                return Err(VmError::msg("division by zero"));
            }
            acc = match (acc, b) {
                (Num::Int(x), Num::Int(y)) if x % y == 0 => Num::Int(x / y),
                (x, y) => Num::Float(x.f64() / y.f64()),
            };
        }
        NativeOutcome::ok(acc.value())
    });
    reg(gvm, "mod", |_, args| {
        arity("mod", &args, 2, Some(2))?;
        match (Num::of(&args[0])?, Num::of(&args[1])?) {
            (Num::Int(a), Num::Int(b)) => {
                if b == 0 {
                    return Err(VmError::msg("mod by zero"));
                }
                NativeOutcome::ok(Value::Int(a.rem_euclid(b)))
            }
            (a, b) => NativeOutcome::ok(Value::Float(a.f64().rem_euclid(b.f64()))),
        }
    });
    reg(gvm, "rem", |_, args| {
        arity("rem", &args, 2, Some(2))?;
        match (Num::of(&args[0])?, Num::of(&args[1])?) {
            (Num::Int(a), Num::Int(b)) => {
                if b == 0 {
                    return Err(VmError::msg("rem by zero"));
                }
                NativeOutcome::ok(Value::Int(a % b))
            }
            (a, b) => NativeOutcome::ok(Value::Float(a.f64() % b.f64())),
        }
    });
    reg(gvm, "abs", |_, args| {
        arity("abs", &args, 1, Some(1))?;
        match Num::of(&args[0])? {
            Num::Int(i) => NativeOutcome::ok(Value::Int(i.abs())),
            Num::Float(f) => NativeOutcome::ok(Value::Float(f.abs())),
        }
    });
    reg(gvm, "min", |_, args| {
        arity("min", &args, 1, None)?;
        let mut best = Num::of(&args[0])?;
        for a in &args[1..] {
            let b = Num::of(a)?;
            if b.f64() < best.f64() {
                best = b;
            }
        }
        NativeOutcome::ok(best.value())
    });
    reg(gvm, "max", |_, args| {
        arity("max", &args, 1, None)?;
        let mut best = Num::of(&args[0])?;
        for a in &args[1..] {
            let b = Num::of(a)?;
            if b.f64() > best.f64() {
                best = b;
            }
        }
        NativeOutcome::ok(best.value())
    });
    reg(gvm, "1+", |_, args| {
        arity("1+", &args, 1, Some(1))?;
        fold(
            "1+",
            &[args[0].clone(), Value::Int(1)],
            i64::checked_add,
            |a, b| a + b,
        )
        .map(NativeOutcome::Value)
    });
    reg(gvm, "1-", |_, args| {
        arity("1-", &args, 1, Some(1))?;
        fold(
            "1-",
            &[args[0].clone(), Value::Int(1)],
            i64::checked_sub,
            |a, b| a - b,
        )
        .map(NativeOutcome::Value)
    });
    reg(gvm, "floor", |_, args| {
        arity("floor", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Int(num_arg("floor", &args, 0)?.floor() as i64))
    });
    reg(gvm, "ceiling", |_, args| {
        arity("ceiling", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Int(num_arg("ceiling", &args, 0)?.ceil() as i64))
    });
    reg(gvm, "round", |_, args| {
        arity("round", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Int(num_arg("round", &args, 0)?.round() as i64))
    });
    reg(gvm, "truncate", |_, args| {
        arity("truncate", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Int(num_arg("truncate", &args, 0)?.trunc() as i64))
    });
    reg(gvm, "sqrt", |_, args| {
        arity("sqrt", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Float(num_arg("sqrt", &args, 0)?.sqrt()))
    });
    reg(gvm, "expt", |_, args| {
        arity("expt", &args, 2, Some(2))?;
        match (Num::of(&args[0])?, Num::of(&args[1])?) {
            (Num::Int(a), Num::Int(b)) if (0..=62).contains(&b) => match a.checked_pow(b as u32) {
                Some(r) => NativeOutcome::ok(Value::Int(r)),
                None => NativeOutcome::ok(Value::Float((a as f64).powi(b as i32))),
            },
            (a, b) => NativeOutcome::ok(Value::Float(a.f64().powf(b.f64()))),
        }
    });
    reg(gvm, "exp", |_, args| {
        arity("exp", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Float(num_arg("exp", &args, 0)?.exp()))
    });
    reg(gvm, "ln", |_, args| {
        arity("ln", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Float(num_arg("ln", &args, 0)?.ln()))
    });
    reg_fast2(gvm, "=", Fast2::NumEq, |_, args| {
        arity("=", &args, 2, None)?;
        cmp_chain(&args, |a, b| a == b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, "/=", Fast2::NumNe, |_, args| {
        arity("/=", &args, 2, Some(2))?;
        cmp_chain(&args, |a, b| a != b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, "<", Fast2::Lt, |_, args| {
        arity("<", &args, 2, None)?;
        cmp_chain(&args, |a, b| a < b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, ">", Fast2::Gt, |_, args| {
        arity(">", &args, 2, None)?;
        cmp_chain(&args, |a, b| a > b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, "<=", Fast2::Le, |_, args| {
        arity("<=", &args, 2, None)?;
        cmp_chain(&args, |a, b| a <= b).map(NativeOutcome::Value)
    });
    reg_fast2(gvm, ">=", Fast2::Ge, |_, args| {
        arity(">=", &args, 2, None)?;
        cmp_chain(&args, |a, b| a >= b).map(NativeOutcome::Value)
    });
    reg(gvm, "random", |ctx, args| {
        arity("random", &args, 1, Some(1))?;
        match &args[0] {
            Value::Int(n) if *n > 0 => {
                NativeOutcome::ok(Value::Int((ctx.gvm.next_random() % *n as u64) as i64))
            }
            Value::Float(f) if *f > 0.0 => {
                let unit = (ctx.gvm.next_random() >> 11) as f64 / (1u64 << 53) as f64;
                NativeOutcome::ok(Value::Float(unit * f))
            }
            other => Err(VmError::type_error("positive number", other)),
        }
    });
}
