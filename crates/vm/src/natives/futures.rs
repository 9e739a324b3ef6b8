//! Future natives (§2): `%make-future` (the target of the `future`
//! macro), `touch`, `pcall`, and `future-done?`.

use std::sync::Arc;

use gozer_lang::Value;

use crate::error::VmResult;
use crate::fiber::DynState;
use crate::gvm::Gvm;
use crate::interp::call_nested;
use crate::runtime::{force, FutureVal, NativeOutcome};

use super::{arity, reg, reg_raw};

pub(super) fn install(gvm: &Arc<Gvm>) {
    // Raw: the thunk must not be forced (it is a closure, not a future,
    // but auto-forcing would also force future values *captured* as
    // direct arguments in pathological cases).
    reg_raw(gvm, "%make-future", |ctx, args| {
        arity("%make-future", &args, 1, Some(1))?;
        let thunk = args[0].clone();
        let fut = FutureVal::new();
        let job_fut = fut.clone();
        let job_gvm = ctx.gvm.clone();
        // The future body runs with a copy of the fiber's extension map
        // plus the background marker: Vinz detects this to refuse fiber
        // suspension from future threads (§3.2, §4.1).
        let mut job_ext = ctx.ext.clone();
        job_ext.set("background", Value::Bool(true));
        ctx.gvm.pool().submit(move || {
            let mut ds = DynState::default();
            let mut ids = 0u64;
            let mut ext = job_ext;
            let result: VmResult<Value> =
                call_nested(&job_gvm, &mut ds, &mut ids, &mut ext, thunk, vec![]);
            match result {
                Ok(v) => job_fut.fulfill(v),
                Err(e) => job_fut.fail(e.to_condition()),
            }
        });
        NativeOutcome::ok(Value::Opaque(fut))
    });
    // touch blocks the calling thread until the value is determined
    // (identity on non-futures).
    reg_raw(gvm, "touch", |_, args| {
        arity("touch", &args, 1, Some(1))?;
        force(args[0].clone()).map(NativeOutcome::Value)
    });
    // pcall applies a function only after all its arguments are
    // determined. Auto-forcing does the determination; Invoke applies.
    reg(gvm, "pcall", |_, mut args| {
        arity("pcall", &args, 1, None)?;
        let func = args.remove(0);
        Ok(NativeOutcome::Invoke { func, args })
    });
    reg_raw(gvm, "future-done?", |_, args| {
        arity("future-done?", &args, 1, Some(1))?;
        let done = match args[0].as_opaque::<FutureVal>() {
            Some(f) => f.is_determined(),
            // Any non-future value is always determined (§2).
            None => true,
        };
        NativeOutcome::ok(Value::Bool(done))
    });
}
