//! String natives, including the `format` subset used throughout the
//! paper's listings.

use std::sync::Arc;

use gozer_lang::printer::{display_to_string, print_to_string};
use gozer_lang::{Symbol, Value};

use crate::error::{VmError, VmResult};
use crate::gvm::Gvm;
use crate::runtime::NativeOutcome;

use super::{arity, int_arg, reg, str_arg};

/// Render `fmt` with CL-style directives against `args`.
///
/// Supported: `~a` (display), `~s` (readable), `~d` (integer), `~f`
/// (float), `~%` (newline), `~~` (tilde). This covers every `format` use
/// in the paper and the workflow library.
pub fn format_directives(fmt: &str, args: &[Value]) -> VmResult<String> {
    let mut out = String::with_capacity(fmt.len() + 16);
    let mut chars = fmt.chars().peekable();
    let mut next = 0usize;
    let take = |next: &mut usize| -> VmResult<Value> {
        let v = args
            .get(*next)
            .cloned()
            .ok_or_else(|| VmError::msg("format: not enough arguments"))?;
        *next += 1;
        Ok(v)
    };
    while let Some(c) = chars.next() {
        if c != '~' {
            out.push(c);
            continue;
        }
        match chars.next() {
            None => return Err(VmError::msg("format: dangling ~")),
            Some('a') | Some('A') => out.push_str(&display_to_string(&take(&mut next)?)),
            Some('s') | Some('S') => out.push_str(&print_to_string(&take(&mut next)?)),
            Some('d') | Some('D') => {
                let v = take(&mut next)?;
                match v.as_int() {
                    Some(i) => out.push_str(&i.to_string()),
                    None => out.push_str(&display_to_string(&v)),
                }
            }
            Some('f') | Some('F') => {
                let v = take(&mut next)?;
                match v.as_f64() {
                    Some(f) => out.push_str(&format!("{f}")),
                    None => return Err(VmError::type_error("number", &v)),
                }
            }
            Some('%') => out.push('\n'),
            Some('~') => out.push('~'),
            Some(other) => {
                return Err(VmError::msg(format!(
                    "format: unsupported directive ~{other}"
                )))
            }
        }
    }
    Ok(out)
}

pub(super) fn install(gvm: &Arc<Gvm>) {
    reg(gvm, "concat", |_, args| {
        let mut out = String::new();
        for a in &args {
            out.push_str(&display_to_string(a));
        }
        NativeOutcome::ok(Value::from(out))
    });
    reg(gvm, "string", |_, args| {
        arity("string", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(display_to_string(&args[0])))
    });
    reg(gvm, "prin1-to-string", |_, args| {
        arity("prin1-to-string", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(print_to_string(&args[0])))
    });
    reg(gvm, "string-upcase", |_, args| {
        arity("string-upcase", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(
            str_arg("string-upcase", &args, 0)?.to_uppercase(),
        ))
    });
    reg(gvm, "string-downcase", |_, args| {
        arity("string-downcase", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(
            str_arg("string-downcase", &args, 0)?.to_lowercase(),
        ))
    });
    reg(gvm, "string-trim", |_, args| {
        arity("string-trim", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::from(str_arg("string-trim", &args, 0)?.trim()))
    });
    reg(gvm, "string-split", |_, args| {
        arity("string-split", &args, 2, Some(2))?;
        let s = str_arg("string-split", &args, 0)?;
        let sep = str_arg("string-split", &args, 1)?;
        if sep.is_empty() {
            return Err(VmError::msg("string-split: empty separator"));
        }
        NativeOutcome::ok(Value::list(
            s.split(sep).map(Value::from).collect::<Vec<_>>(),
        ))
    });
    reg(gvm, "string-join", |_, args| {
        arity("string-join", &args, 2, Some(2))?;
        let items = args[0]
            .as_seq()
            .ok_or_else(|| VmError::type_error("sequence", &args[0]))?;
        let sep = str_arg("string-join", &args, 1)?;
        let joined = items
            .iter()
            .map(display_to_string)
            .collect::<Vec<_>>()
            .join(sep);
        NativeOutcome::ok(Value::from(joined))
    });
    reg(gvm, "string-replace", |_, args| {
        arity("string-replace", &args, 3, Some(3))?;
        let s = str_arg("string-replace", &args, 0)?;
        let from = str_arg("string-replace", &args, 1)?;
        let to = str_arg("string-replace", &args, 2)?;
        NativeOutcome::ok(Value::from(s.replace(from, to)))
    });
    reg(gvm, "string-contains?", |_, args| {
        arity("string-contains?", &args, 2, Some(2))?;
        NativeOutcome::ok(Value::Bool(
            str_arg("string-contains?", &args, 0)?.contains(str_arg("string-contains?", &args, 1)?),
        ))
    });
    reg(gvm, "string-starts-with?", |_, args| {
        arity("string-starts-with?", &args, 2, Some(2))?;
        NativeOutcome::ok(Value::Bool(
            str_arg("string-starts-with?", &args, 0)?.starts_with(str_arg(
                "string-starts-with?",
                &args,
                1,
            )?),
        ))
    });
    reg(gvm, "string-ends-with?", |_, args| {
        arity("string-ends-with?", &args, 2, Some(2))?;
        NativeOutcome::ok(Value::Bool(
            str_arg("string-ends-with?", &args, 0)?.ends_with(str_arg(
                "string-ends-with?",
                &args,
                1,
            )?),
        ))
    });
    reg(gvm, "string=", |_, args| {
        arity("string=", &args, 2, Some(2))?;
        NativeOutcome::ok(Value::Bool(
            str_arg("string=", &args, 0)? == str_arg("string=", &args, 1)?,
        ))
    });
    reg(gvm, "string<", |_, args| {
        arity("string<", &args, 2, Some(2))?;
        NativeOutcome::ok(Value::Bool(
            str_arg("string<", &args, 0)? < str_arg("string<", &args, 1)?,
        ))
    });
    reg(gvm, "parse-integer", |_, args| {
        arity("parse-integer", &args, 1, Some(1))?;
        let s = str_arg("parse-integer", &args, 0)?.trim();
        s.parse::<i64>()
            .map(Value::Int)
            .map(NativeOutcome::Value)
            .map_err(|_| VmError::msg(format!("parse-integer: cannot parse {s:?}")))
    });
    reg(gvm, "parse-float", |_, args| {
        arity("parse-float", &args, 1, Some(1))?;
        let s = str_arg("parse-float", &args, 0)?.trim();
        s.parse::<f64>()
            .map(Value::Float)
            .map(NativeOutcome::Value)
            .map_err(|_| VmError::msg(format!("parse-float: cannot parse {s:?}")))
    });
    reg(gvm, "symbol-name", |_, args| {
        arity("symbol-name", &args, 1, Some(1))?;
        let s = match &args[0] {
            Value::Symbol(s) | Value::Keyword(s) => s.name(),
            other => return Err(VmError::type_error("symbol", other)),
        };
        NativeOutcome::ok(Value::str(s))
    });
    reg(gvm, "string->symbol", |_, args| {
        arity("string->symbol", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Symbol(Symbol::intern(str_arg(
            "string->symbol",
            &args,
            0,
        )?)))
    });
    reg(gvm, "string->keyword", |_, args| {
        arity("string->keyword", &args, 1, Some(1))?;
        NativeOutcome::ok(Value::Keyword(Symbol::intern(str_arg(
            "string->keyword",
            &args,
            0,
        )?)))
    });
    reg(gvm, "char->string", |_, args| {
        arity("char->string", &args, 1, Some(1))?;
        match &args[0] {
            Value::Char(c) => NativeOutcome::ok(Value::from(c.to_string())),
            other => Err(VmError::type_error("character", other)),
        }
    });
    reg(gvm, "string-ref", |_, args| {
        arity("string-ref", &args, 2, Some(2))?;
        let s = str_arg("string-ref", &args, 0)?;
        let i = int_arg("string-ref", &args, 1)?;
        usize::try_from(i)
            .ok()
            .and_then(|i| s.chars().nth(i))
            .map(Value::Char)
            .map(NativeOutcome::Value)
            .ok_or_else(|| VmError::msg(format!("string-ref: index {i} out of bounds")))
    });
}
