//! Reader natives: `read`, `read-from-string`, and
//! `set-macro-character` — the hook Vinz uses to install the `^task-var^`
//! syntax (Listing 5).

use std::sync::Arc;

use gozer_lang::reader::SharedStream;
use gozer_lang::{Cursor, Value};

use crate::error::VmError;
use crate::gvm::{Gvm, GvmReadEval};
use crate::runtime::NativeOutcome;

use super::{arity, reg};

pub(super) fn install(gvm: &Arc<Gvm>) {
    // (read stream &optional eof-error-p eof-value recursive-p)
    reg(gvm, "read", |ctx, args| {
        arity("read", &args, 1, Some(4))?;
        let stream = args[0]
            .as_opaque::<SharedStream>()
            .cloned()
            .ok_or_else(|| VmError::type_error("stream", &args[0]))?;
        let eof_error = args.get(1).map(Value::is_truthy).unwrap_or(true);
        let eof_value = args.get(2).cloned().unwrap_or(Value::Nil);
        let reader = ctx.gvm.reader.lock().clone();
        let mut eval = GvmReadEval { gvm: ctx.gvm };
        match stream.with_cursor(|cur| reader.read(cur, &mut eval))? {
            Some(form) => NativeOutcome::ok(form),
            None if eof_error => Err(VmError::msg("read: end of input")),
            None => NativeOutcome::ok(eof_value),
        }
    });
    reg(gvm, "read-from-string", |ctx, args| {
        arity("read-from-string", &args, 1, Some(1))?;
        let src = args[0]
            .as_str()
            .ok_or_else(|| VmError::type_error("string", &args[0]))?;
        let reader = ctx.gvm.reader.lock().clone();
        let mut eval = GvmReadEval { gvm: ctx.gvm };
        match reader.read(&mut Cursor::new(src), &mut eval)? {
            Some(form) => NativeOutcome::ok(form),
            None => Err(VmError::msg("read-from-string: no form in input")),
        }
    });
    reg(gvm, "make-string-stream", |_, args| {
        arity("make-string-stream", &args, 1, Some(1))?;
        let src = args[0]
            .as_str()
            .ok_or_else(|| VmError::type_error("string", &args[0]))?;
        NativeOutcome::ok(Value::Opaque(Arc::new(SharedStream::new(src))))
    });
    // (set-macro-character char function &optional non-terminating-p)
    reg(gvm, "set-macro-character", |ctx, args| {
        arity("set-macro-character", &args, 2, Some(3))?;
        let Value::Char(c) = args[0] else {
            return Err(VmError::type_error("character", &args[0]));
        };
        if !matches!(args[1], Value::Func(_)) {
            return Err(VmError::type_error("function", &args[1]));
        }
        let non_terminating = args.get(2).map(Value::is_truthy).unwrap_or(false);
        ctx.gvm
            .reader
            .lock()
            .table
            .set_macro_character(c, args[1].clone(), !non_terminating);
        NativeOutcome::ok(Value::Bool(true))
    });
    reg(gvm, "peek-char", |_, args| {
        arity("peek-char", &args, 1, Some(1))?;
        let stream = args[0]
            .as_opaque::<SharedStream>()
            .ok_or_else(|| VmError::type_error("stream", &args[0]))?;
        NativeOutcome::ok(stream.peek().map(Value::Char).unwrap_or(Value::Nil))
    });
    reg(gvm, "read-char", |_, args| {
        arity("read-char", &args, 1, Some(1))?;
        let stream = args[0]
            .as_opaque::<SharedStream>()
            .ok_or_else(|| VmError::type_error("stream", &args[0]))?;
        NativeOutcome::ok(stream.next().map(Value::Char).unwrap_or(Value::Nil))
    });
}
