//! Control-flow, condition-system, and metaprogramming natives.

use std::sync::Arc;

use gozer_lang::Value;

use crate::conditions::Condition;
use crate::error::{Unwind, VmError, VmResult};
use crate::gvm::{Gvm, GvmHost};
use crate::natives::strings::format_directives;
use crate::runtime::{Closure, NativeOutcome};

use super::{arity, kwargs, reg, sym_arg};

pub(super) fn install(gvm: &Arc<Gvm>) {
    reg(gvm, "identity", |_, args| {
        arity("identity", &args, 1, Some(1))?;
        NativeOutcome::ok(args[0].clone())
    });
    reg(gvm, "funcall", |_, mut args| {
        arity("funcall", &args, 1, None)?;
        let func = args.remove(0);
        Ok(NativeOutcome::Invoke { func, args })
    });
    reg(gvm, "apply", |_, mut args| {
        arity("apply", &args, 2, None)?;
        let func = args.remove(0);
        let last = args.pop().expect("apply has a last argument");
        let spread = last
            .as_seq()
            .ok_or_else(|| VmError::type_error("sequence (apply last argument)", &last))?;
        args.extend_from_slice(spread);
        Ok(NativeOutcome::Invoke { func, args })
    });
    reg(gvm, "gensym", |ctx, args| {
        arity("gensym", &args, 0, Some(0))?;
        NativeOutcome::ok(Value::Symbol(ctx.gvm.gensym_sym()))
    });
    reg(gvm, "eval", |ctx, args| {
        arity("eval", &args, 1, Some(1))?;
        ctx.gvm
            .eval_form(&args[0], "eval")
            .map(NativeOutcome::Value)
    });
    reg(gvm, "%def-macro", |ctx, args| {
        arity("%def-macro", &args, 2, Some(2))?;
        let name = sym_arg("%def-macro", &args, 0)?;
        ctx.gvm.define_macro(name, args[1].clone());
        NativeOutcome::ok(Value::Symbol(name))
    });
    reg(gvm, "%defvar", |ctx, args| {
        arity("%defvar", &args, 2, Some(2))?;
        let name = sym_arg("%defvar", &args, 0)?;
        ctx.gvm.define_if_unbound(name, args[1].clone());
        NativeOutcome::ok(Value::Symbol(name))
    });
    reg(gvm, "%defparameter", |ctx, args| {
        arity("%defparameter", &args, 2, Some(2))?;
        let name = sym_arg("%defparameter", &args, 0)?;
        ctx.gvm.set_global(name, args[1].clone());
        NativeOutcome::ok(Value::Symbol(name))
    });
    reg(gvm, "macroexpand-1", |ctx, args| {
        arity("macroexpand-1", &args, 1, Some(1))?;
        let Some(items) = args[0].as_list() else {
            return NativeOutcome::ok(args[0].clone());
        };
        let Some(head) = items.first().and_then(Value::as_symbol) else {
            return NativeOutcome::ok(args[0].clone());
        };
        use crate::compiler::MacroHost;
        let host = GvmHost(ctx.gvm);
        // Compiler core macros expand first (they take precedence during
        // compilation too), then user macros.
        if let Some(result) = crate::compiler::expand_core(&host, head.name(), &items[1..]) {
            return result.map(NativeOutcome::Value);
        }
        match host.lookup_macro(head) {
            Some(mac) => host
                .expand_macro(&mac, &items[1..])
                .map(NativeOutcome::Value),
            None => NativeOutcome::ok(args[0].clone()),
        }
    });
    reg(gvm, "doc", |_, args| {
        arity("doc", &args, 1, Some(1))?;
        match args[0].as_callable::<Closure>() {
            Some(c) => NativeOutcome::ok(
                c.program
                    .chunk(c.chunk)
                    .doc
                    .as_deref()
                    .map(Value::str)
                    .unwrap_or(Value::Nil),
            ),
            None => NativeOutcome::ok(Value::Nil),
        }
    });
    reg(gvm, "apropos", |ctx, args| {
        arity("apropos", &args, 0, Some(1))?;
        let fragment = args.first().and_then(Value::as_str).unwrap_or("");
        NativeOutcome::ok(Value::list(
            ctx.gvm
                .global_names_matching(fragment)
                .into_iter()
                .map(Value::Symbol)
                .collect(),
        ))
    });
    reg(gvm, "describe", |ctx, args| {
        arity("describe", &args, 1, Some(1))?;
        let v = match &args[0] {
            Value::Symbol(s) => ctx
                .gvm
                .get_global(*s)
                .ok_or_else(|| VmError::msg(format!("{} is unbound", s.name())))?,
            other => other.clone(),
        };
        let mut text = format!("type: {}\n", v.type_name());
        if let Some(c) = v.as_callable::<Closure>() {
            let chunk = c.program.chunk(c.chunk);
            if let Some(doc) = &chunk.doc {
                text.push_str(&format!("doc: {doc}\n"));
            }
            text.push_str(&format!(
                "params: {} required, {} optional{}{}\n",
                chunk.params.required.len(),
                chunk.params.optional.len(),
                if chunk.params.rest.is_some() {
                    ", &rest"
                } else {
                    ""
                },
                if chunk.params.keys.is_empty() {
                    String::new()
                } else {
                    format!(", {} keys", chunk.params.keys.len())
                },
            ));
        } else {
            text.push_str(&format!("value: {v:?}\n"));
        }
        ctx.gvm.log_line(text.trim_end().to_string());
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "disassemble", |_, args| {
        arity("disassemble", &args, 1, Some(1))?;
        match args[0].as_callable::<Closure>() {
            Some(c) => NativeOutcome::ok(Value::from(crate::bytecode::disassemble(
                &c.program, c.chunk,
            ))),
            None => Err(VmError::type_error("closure", &args[0])),
        }
    });

    // ---- conditions (§3.7) -------------------------------------------

    reg(gvm, "error", |ctx, args| {
        arity("error", &args, 1, None)?;
        let cond = condition_from_error_args(&args)?;
        Err(ctx.raise(cond))
    });
    reg(gvm, "signal", |ctx, args| {
        arity("signal", &args, 1, None)?;
        let cond = condition_from_error_args(&args)?;
        ctx.signal(&cond)?;
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "warn", |ctx, args| {
        arity("warn", &args, 1, None)?;
        let cond = condition_from_error_args(&args)?;
        ctx.gvm.log_line(format!("WARNING: {cond}"));
        ctx.signal(&cond)?;
        NativeOutcome::ok(Value::Nil)
    });
    reg(gvm, "make-condition", |_, args| {
        // (make-condition :types '("a" "b") :message "m" :data d)
        let kw = kwargs("make-condition", &args)?;
        let mut types = Vec::new();
        let mut message = String::new();
        let mut data = Value::Nil;
        for (k, v) in kw {
            match k.name() {
                "types" => {
                    for t in v.as_seq().unwrap_or(&[]) {
                        if let Some(s) = t.as_str() {
                            types.push(s.to_string());
                        }
                    }
                }
                "message" => message = v.as_str().unwrap_or_default().to_string(),
                "data" => data = v,
                other => {
                    return Err(VmError::msg(format!(
                        "make-condition: unknown key :{other}"
                    )))
                }
            }
        }
        if types.is_empty() {
            types.push("error".to_string());
        }
        NativeOutcome::ok(Condition::with_types(types, message, data).0)
    });
    reg(gvm, "condition-message", |_, args| {
        arity("condition-message", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(
            Condition::from_value(args[0].clone()).message(),
        ))
    });
    reg(gvm, "condition-types", |_, args| {
        arity("condition-types", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::list(
            Condition::from_value(args[0].clone())
                .types()
                .into_iter()
                .map(Value::from)
                .collect(),
        ))
    });
    reg(gvm, "condition-data", |_, args| {
        arity("condition-data", &args, 1, Some(1))?;
        NativeOutcome::ok(
            Condition::from_value(args[0].clone())
                .field("data")
                .unwrap_or(Value::Nil),
        )
    });
    reg(gvm, "condition-matches?", |_, args| {
        arity("condition-matches?", &args, 2, Some(2))?;
        let c = Condition::from_value(args[0].clone());
        let d = args[1]
            .as_str()
            .ok_or_else(|| VmError::type_error("string designator", &args[1]))?;
        NativeOutcome::ok(Value::Bool(c.matches(d)))
    });
    reg(gvm, "invoke-restart", |ctx, mut args| {
        arity("invoke-restart", &args, 1, None)?;
        let name = match &args[0] {
            Value::Symbol(s) => *s,
            other => return Err(VmError::type_error("restart name symbol", other)),
        };
        let rest = args.split_off(1);
        match ctx.ds.restarts.iter().rev().find(|r| r.name == name) {
            Some(entry) => Err(VmError::Unwind(Unwind::Restart {
                id: entry.id,
                args: rest,
            })),
            None => Err(ctx.raise(Condition::with_types(
                vec!["control-error".into(), "error".into()],
                format!("no active restart named {}", name.name()),
                Value::Symbol(name),
            ))),
        }
    });
    reg(gvm, "find-restart", |ctx, args| {
        arity("find-restart", &args, 1, Some(1))?;
        let name = sym_arg("find-restart", &args, 0)?;
        NativeOutcome::ok(Value::Bool(ctx.ds.restarts.iter().any(|r| r.name == name)))
    });
    reg(gvm, "compute-restarts", |ctx, args| {
        arity("compute-restarts", &args, 0, Some(0))?;
        NativeOutcome::ok(Value::list(
            ctx.ds
                .restarts
                .iter()
                .rev()
                .map(|r| Value::Symbol(r.name))
                .collect(),
        ))
    });
    // Resume a first-class continuation captured by push-cc: replaces
    // the fiber's entire state with the captured one and delivers the
    // value at the capture point (§3.1 — "a continuation represents the
    // completion of the same flow of control").
    reg(gvm, "%resume-cc", |ctx, args| {
        arity("%resume-cc", &args, 1, Some(2))?;
        let Some(k) = args[0].as_opaque::<crate::runtime::ContinuationVal>() else {
            return Err(VmError::type_error("continuation", &args[0]));
        };
        if ctx.nested {
            return Err(VmError::msg(
                "cannot resume a continuation from a nested context",
            ));
        }
        Ok(NativeOutcome::ResumeContinuation {
            state: Box::new(k.state.clone()),
            value: args.get(1).cloned().unwrap_or(Value::Nil),
        })
    });

    // Vinz action primitives (§3.7): terminate just this fiber, or the
    // whole task.
    reg(gvm, "%break-fiber", |_, args| {
        arity("%break-fiber", &args, 0, Some(0))?;
        Err(VmError::Unwind(Unwind::BreakFiber))
    });
    reg(gvm, "%terminate-task", |_, args| {
        arity("%terminate-task", &args, 0, Some(1))?;
        let cond = match args.first() {
            Some(v) => Condition::from_value(v.clone()),
            None => Condition::error("task terminated"),
        };
        Err(VmError::Unwind(Unwind::TerminateTask(cond)))
    });
}

/// Build a condition from `error`-style arguments: a format string plus
/// arguments, or a pre-built condition value.
fn condition_from_error_args(args: &[Value]) -> VmResult<Condition> {
    match &args[0] {
        Value::Str(fmt) => {
            let msg = format_directives(fmt, &args[1..])?;
            Ok(Condition::error(msg))
        }
        other => Ok(Condition::from_value(other.clone())),
    }
}
