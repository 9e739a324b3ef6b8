//! The Gozer bytecode compiler.
//!
//! Compiles reader output ([`Value`] forms) into [`Program`]s. Compilation
//! to bytecode (rather than tree-walking) was introduced in the original
//! system as an optimization for Vinz persistence (§4.1): a frame's code
//! position is a dense `(chunk, pc)` pair instead of a tree path.
//!
//! Macro expansion happens during compilation: user macros (`defmacro`)
//! are Gozer functions looked up and applied through the [`MacroHost`]
//! callback, while a fixed set of core macros (`when`, `cond`, `loop`,
//! ...) are expanded natively for speed and bootstrap simplicity.
//!
//! Determinism matters: Vinz re-compiles the same workflow source on every
//! node and relies on identical programs (chunk indices, constant pools)
//! so that migrated continuations resolve. The compiler is a pure function
//! of the form sequence plus the macro environment.

use std::sync::Arc;

use gozer_lang::{Symbol, Value};

use crate::bytecode::{CaptureSource, Chunk, Op, ParamSpec, Program};
use crate::error::{VmError, VmResult};

/// Macro-environment callback: lets the compiler expand user macros by
/// running Gozer code in the owning VM.
pub trait MacroHost {
    /// Look up the macro function bound to `name`, if any.
    fn lookup_macro(&self, name: Symbol) -> Option<Value>;
    /// Apply a macro function to the argument forms, yielding the
    /// expansion. Must not suspend.
    fn expand_macro(&self, func: &Value, args: &[Value]) -> VmResult<Value>;
    /// Produce a fresh uninterned-ish symbol name (monotonic counter).
    fn gensym(&self) -> Symbol;
}

/// A [`MacroHost`] with no user macros, for tests and pure data compiles.
pub struct NullMacroHost;

impl MacroHost for NullMacroHost {
    fn lookup_macro(&self, _name: Symbol) -> Option<Value> {
        None
    }
    fn expand_macro(&self, _func: &Value, _args: &[Value]) -> VmResult<Value> {
        Err(VmError::Compile("no macro host".into()))
    }
    fn gensym(&self) -> Symbol {
        Symbol::intern("#:g-null")
    }
}

/// Per-function compilation context.
struct FnCtx {
    #[allow(dead_code)] // kept for diagnostics
    name: String,
    doc: Option<String>,
    params: ParamSpec,
    /// Slot names; `None` for compiler temporaries.
    locals: Vec<Option<Symbol>>,
    /// Visible bindings, innermost last (name, slot).
    visible: Vec<(Symbol, u16)>,
    /// Captures from the enclosing function: (name, where to copy from).
    captures: Vec<(Symbol, CaptureSource)>,
    code: Vec<Op>,
    /// Nonzero while inside `handler-bind`/`restart-case` bodies: tail
    /// calls are suppressed so the dynamic stacks stay balanced.
    protected: u32,
}

impl FnCtx {
    fn new(name: &str) -> FnCtx {
        FnCtx {
            name: name.to_string(),
            doc: None,
            params: ParamSpec::default(),
            locals: Vec::new(),
            visible: Vec::new(),
            captures: Vec::new(),
            code: Vec::new(),
            protected: 0,
        }
    }

    fn add_local(&mut self, name: Option<Symbol>) -> u16 {
        let slot = self.locals.len() as u16;
        self.locals.push(name);
        if let Some(n) = name {
            self.visible.push((n, slot));
        }
        slot
    }

    fn find_visible(&self, name: Symbol) -> Option<u16> {
        self.visible
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    fn find_or_add_capture(&mut self, name: Symbol, source: CaptureSource) -> u16 {
        if let Some(i) = self.captures.iter().position(|(n, _)| *n == name) {
            return i as u16;
        }
        self.captures.push((name, source));
        (self.captures.len() - 1) as u16
    }
}

/// Where a variable reference resolves.
enum VarRef {
    Local(u16),
    Capture(u16),
    Global,
}

/// The compiler: builds one [`Program`] per top-level form.
pub struct Compiler<'h> {
    host: &'h dyn MacroHost,
    consts: Vec<Value>,
    chunks: Vec<Chunk>,
    fns: Vec<FnCtx>,
}

impl<'h> Compiler<'h> {
    /// Compile a single top-level `form` into a program whose chunk 0 is a
    /// zero-argument entry point evaluating the form.
    pub fn compile_toplevel(
        host: &'h dyn MacroHost,
        form: &Value,
        program_name: &str,
        program_id: u64,
    ) -> VmResult<Arc<Program>> {
        let mut c = Compiler {
            host,
            consts: Vec::new(),
            chunks: Vec::new(),
            fns: Vec::new(),
        };
        // Reserve chunk 0 for the entry point; nested lambdas claim
        // subsequent indices during body compilation.
        c.chunks.push(Chunk {
            name: "toplevel".into(),
            doc: None,
            params: ParamSpec::default(),
            local_count: 0,
            captures: Vec::new(),
            code: Vec::new(),
            ic: Vec::new(),
        });
        c.fns.push(FnCtx::new("toplevel"));
        c.compile_expr(form, true)?;
        c.emit(Op::Return);
        let ctx = c.fns.pop().expect("toplevel ctx");
        if !ctx.captures.is_empty() {
            return Err(VmError::Compile(
                "toplevel form cannot capture variables".into(),
            ));
        }
        c.chunks[0].local_count = ctx.locals.len() as u16;
        c.chunks[0].code = ctx.code;
        let fuse = crate::opt::fusion_enabled();
        for ch in &mut c.chunks {
            if fuse {
                crate::fuse::fuse_code(&mut ch.code);
            }
            ch.ic = std::iter::repeat_with(Default::default)
                .take(ch.code.len())
                .collect();
        }
        Ok(Arc::new(Program {
            id: program_id,
            name: program_name.to_string(),
            consts: c.consts,
            chunks: c.chunks,
        }))
    }

    // ---- emission helpers ------------------------------------------

    fn ctx(&mut self) -> &mut FnCtx {
        self.fns.last_mut().expect("fn ctx")
    }

    fn emit(&mut self, op: Op) {
        self.ctx().code.push(op);
    }

    fn here(&mut self) -> usize {
        self.ctx().code.len()
    }

    /// Emit a placeholder jump, returning its index for later patching.
    fn emit_jump(&mut self, op: Op) -> usize {
        let idx = self.here();
        self.emit(op);
        idx
    }

    /// Patch the jump at `idx` to target the current position.
    fn patch_jump(&mut self, idx: usize) {
        let target = self.here();
        let off = (target as i64 - (idx as i64 + 1)) as i32;
        let code = &mut self.ctx().code;
        code[idx] = match code[idx] {
            Op::Jump(_) => Op::Jump(off),
            Op::JumpIfFalse(_) => Op::JumpIfFalse(off),
            Op::JumpIfTrue(_) => Op::JumpIfTrue(off),
            Op::PushRestart { name, .. } => Op::PushRestart { name, offset: off },
            other => panic!("patching non-jump {other:?}"),
        };
    }

    fn const_idx(&mut self, v: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| c == &v) {
            return i as u32;
        }
        self.consts.push(v);
        (self.consts.len() - 1) as u32
    }

    fn emit_const(&mut self, v: Value) {
        match v {
            Value::Nil => self.emit(Op::Nil),
            Value::Bool(true) => self.emit(Op::True),
            other => {
                let idx = self.const_idx(other);
                self.emit(Op::Const(idx));
            }
        }
    }

    fn sym_const(&mut self, s: Symbol) -> u32 {
        self.const_idx(Value::Symbol(s))
    }

    // ---- variable resolution ---------------------------------------

    fn resolve(&mut self, name: Symbol) -> VarRef {
        let top = self.fns.len() - 1;
        if let Some(slot) = self.fns[top].find_visible(name) {
            return VarRef::Local(slot);
        }
        // Already captured in the current fn?
        if let Some(i) = self.fns[top].captures.iter().position(|(n, _)| *n == name) {
            return VarRef::Capture(i as u16);
        }
        // Search enclosing functions, innermost first.
        for i in (0..top).rev() {
            let source0 = if let Some(slot) = self.fns[i].find_visible(name) {
                CaptureSource::Local(slot)
            } else if let Some(ci) = self.fns[i].captures.iter().position(|(n, _)| *n == name) {
                CaptureSource::Capture(ci as u16)
            } else {
                continue;
            };
            // Thread the capture through every intermediate function.
            let mut src = source0;
            for j in i + 1..=top {
                let idx = self.fns[j].find_or_add_capture(name, src);
                src = CaptureSource::Capture(idx);
            }
            let top_idx = self.fns[top]
                .captures
                .iter()
                .position(|(n, _)| *n == name)
                .expect("capture just threaded");
            return VarRef::Capture(top_idx as u16);
        }
        VarRef::Global
    }

    // ---- expression compilation ------------------------------------

    fn compile_expr(&mut self, form: &Value, tail: bool) -> VmResult<()> {
        match form {
            Value::Nil
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Float(_)
            | Value::Char(_)
            | Value::Str(_)
            | Value::Keyword(_) => {
                self.emit_const(form.clone());
                Ok(())
            }
            Value::Symbol(s) => {
                match self.resolve(*s) {
                    VarRef::Local(slot) => self.emit(Op::LoadLocal(slot)),
                    VarRef::Capture(i) => self.emit(Op::LoadCapture(i)),
                    VarRef::Global => {
                        let c = self.sym_const(*s);
                        self.emit(Op::LoadGlobal(c));
                    }
                }
                Ok(())
            }
            Value::Vector(items) => {
                for item in items.iter() {
                    self.compile_expr(item, false)?;
                }
                self.emit(Op::MakeVector(items.len() as u16));
                Ok(())
            }
            Value::Map(m) => {
                for (k, v) in m.iter() {
                    self.compile_expr(k, false)?;
                    self.compile_expr(v, false)?;
                }
                self.emit(Op::MakeMap(m.len() as u16));
                Ok(())
            }
            Value::List(items) => {
                // Constant folding: pure integer arithmetic with literal
                // operands evaluates at compile time (bytecode compilation
                // exists as an optimization, §4.1 — this is the cheapest
                // one).
                if let Some(folded) = self.try_fold(items) {
                    self.emit_const(folded);
                    return Ok(());
                }
                self.compile_list(items, tail)
            }
            Value::Func(_) | Value::Opaque(_) => {
                // Runtime values appearing in code (injected by macros):
                // treat as constants.
                self.emit_const(form.clone());
                Ok(())
            }
        }
    }

    /// Is `name` unshadowed (a plain global reference) in the current
    /// lexical environment? Read-only — unlike [`Compiler::resolve`] it
    /// never threads captures.
    fn is_global_ref(&self, name: Symbol) -> bool {
        !self.fns.iter().any(|ctx| {
            ctx.find_visible(name).is_some() || ctx.captures.iter().any(|(n, _)| *n == name)
        })
    }

    /// Fold `(op lit...)` for pure integer arithmetic when `op` is the
    /// unshadowed builtin and every operand is (or folds to) an integer
    /// literal. `None` leaves the form for runtime (including on
    /// overflow, where the runtime promotes to float).
    fn try_fold(&self, items: &[Value]) -> Option<Value> {
        let head = items[0].as_symbol()?;
        let op = head.name();
        if !matches!(op, "+" | "-" | "*" | "min" | "max") {
            return None;
        }
        if !self.is_global_ref(head) {
            return None;
        }
        let mut args = Vec::with_capacity(items.len() - 1);
        for a in &items[1..] {
            match a {
                Value::Int(i) => args.push(*i),
                Value::List(inner) => args.push(self.try_fold(inner)?.as_int()?),
                _ => return None,
            }
        }
        let folded = match (op, args.as_slice()) {
            ("+", xs) => xs.iter().try_fold(0i64, |acc, &x| acc.checked_add(x))?,
            ("*", xs) => xs.iter().try_fold(1i64, |acc, &x| acc.checked_mul(x))?,
            ("-", [x]) => x.checked_neg()?,
            ("-", [x, rest @ ..]) if !rest.is_empty() => {
                rest.iter().try_fold(*x, |acc, &y| acc.checked_sub(y))?
            }
            ("min", [x, rest @ ..]) => *rest.iter().chain([x]).min()?,
            ("max", [x, rest @ ..]) => *rest.iter().chain([x]).max()?,
            _ => return None,
        };
        Some(Value::Int(folded))
    }

    fn compile_list(&mut self, items: &[Value], tail: bool) -> VmResult<()> {
        let head = &items[0];
        let args = &items[1..];
        if let Some(sym) = head.as_symbol() {
            match sym.name() {
                "quote" => {
                    expect_args("quote", args, 1)?;
                    self.emit_const(args[0].clone());
                    return Ok(());
                }
                "quasiquote" => {
                    expect_args("quasiquote", args, 1)?;
                    let expanded = quasi_expand(&args[0], 1)?;
                    return self.compile_expr(&expanded, tail);
                }
                "unquote" | "unquote-splicing" => {
                    return Err(VmError::Compile("unquote outside quasiquote".into()));
                }
                "if" => return self.compile_if(args, tail),
                "progn" => return self.compile_progn(args, tail),
                "let" => return self.compile_let(args, tail, false),
                "let*" => return self.compile_let(args, tail, true),
                "lambda" => return self.compile_lambda_form(args),
                "defun" => return self.compile_defun(args),
                "defmacro" => return self.compile_defmacro(args),
                "setq" | "setf" => return self.compile_setf(args),
                "defvar" => return self.compile_defvar(args, false),
                "defparameter" => return self.compile_defvar(args, true),
                "and" => return self.compile_and_or(args, true),
                "or" => return self.compile_and_or(args, false),
                "while" => return self.compile_while(args),
                "yield" => {
                    if args.len() > 1 {
                        return Err(VmError::Compile("yield takes at most one form".into()));
                    }
                    match args.first() {
                        Some(v) => self.compile_expr(v, false)?,
                        None => self.emit(Op::Nil),
                    }
                    self.emit(Op::Yield);
                    return Ok(());
                }
                "push-cc" => {
                    expect_args("push-cc", args, 0)?;
                    self.emit(Op::PushCC);
                    return Ok(());
                }
                "%take" => {
                    // Compiler-internal move: like loading the variable,
                    // but a *local* binding is left holding nil so the
                    // pushed value is the only live reference. The loop
                    // expansion uses it on accumulator bindings that are
                    // reassigned immediately after the consuming call;
                    // anything that doesn't resolve to a local degrades
                    // to a plain load.
                    expect_args("%take", args, 1)?;
                    let var = args[0]
                        .as_symbol()
                        .ok_or_else(|| VmError::Compile("%take requires a symbol".into()))?;
                    return match self.resolve(var) {
                        VarRef::Local(slot) => {
                            self.emit(Op::TakeLocal(slot));
                            Ok(())
                        }
                        _ => self.compile_expr(&args[0], false),
                    };
                }
                "function" => {
                    expect_args("function", args, 1)?;
                    // Lisp-1: #'f is just f. (function (lambda ...)) also
                    // works.
                    return self.compile_expr(&args[0], false);
                }
                "handler-bind" => return self.compile_handler_bind(args, tail),
                "restart-case" => return self.compile_restart_case(args),
                "declare" => {
                    self.emit(Op::Nil);
                    return Ok(());
                }
                "." => return self.compile_method_call(args),
                // Core macros expanded natively.
                "when" | "unless" | "cond" | "case" | "dolist" | "dotimes" | "incf" | "decf"
                | "push" | "append!" | "%" | "loop" | "prog1" | "ignore-errors" | "future" => {
                    let expanded = self.expand_core_macro(sym.name(), args)?;
                    return self.compile_expr(&expanded, tail);
                }
                _ => {
                    // User macro?
                    if let Some(mac) = self.host.lookup_macro(sym) {
                        let expanded = self.host.expand_macro(&mac, args)?;
                        return self.compile_expr(&expanded, tail);
                    }
                }
            }
        }
        // Plain call.
        self.compile_expr(head, false)?;
        for a in args {
            self.compile_expr(a, false)?;
        }
        let n = args.len() as u16;
        if tail && self.ctx().protected == 0 && self.fns.len() > 1 {
            self.emit(Op::TailCall(n));
        } else {
            self.emit(Op::Call(n));
        }
        Ok(())
    }

    fn compile_if(&mut self, args: &[Value], tail: bool) -> VmResult<()> {
        if args.len() < 2 || args.len() > 3 {
            return Err(VmError::Compile("if requires 2 or 3 forms".into()));
        }
        self.compile_expr(&args[0], false)?;
        let jf = self.emit_jump(Op::JumpIfFalse(0));
        self.compile_expr(&args[1], tail)?;
        let jend = self.emit_jump(Op::Jump(0));
        self.patch_jump(jf);
        match args.get(2) {
            Some(e) => self.compile_expr(e, tail)?,
            None => self.emit(Op::Nil),
        }
        self.patch_jump(jend);
        Ok(())
    }

    fn compile_progn(&mut self, args: &[Value], tail: bool) -> VmResult<()> {
        if args.is_empty() {
            self.emit(Op::Nil);
            return Ok(());
        }
        for (i, f) in args.iter().enumerate() {
            let last = i == args.len() - 1;
            self.compile_expr(f, tail && last)?;
            if !last {
                self.emit(Op::Pop);
            }
        }
        Ok(())
    }

    fn compile_let(&mut self, args: &[Value], tail: bool, sequential: bool) -> VmResult<()> {
        let Some(bindings) = args.first().and_then(|b| b.as_list()) else {
            return Err(VmError::Compile("let requires a binding list".into()));
        };
        let body = &args[1..];
        let visible_mark = self.ctx().visible.len();
        let mut pending: Vec<(Symbol, u16)> = Vec::new();
        for b in bindings {
            let (name, init) = match b {
                Value::Symbol(s) => (*s, Value::Nil),
                Value::List(pair) if pair.len() == 2 && pair[0].as_symbol().is_some() => {
                    (pair[0].as_symbol().unwrap(), pair[1].clone())
                }
                other => {
                    return Err(VmError::Compile(format!("bad let binding: {other:?}")));
                }
            };
            self.compile_expr(&init, false)?;
            if sequential {
                let slot = self.ctx().add_local(Some(name));
                self.emit(Op::StoreLocal(slot));
            } else {
                // Parallel let: allocate a hidden slot now, make it
                // visible only after all inits are compiled.
                let slot = self.ctx().add_local(None);
                self.emit(Op::StoreLocal(slot));
                pending.push((name, slot));
            }
        }
        for (name, slot) in pending {
            let ctx = self.ctx();
            ctx.locals[slot as usize] = Some(name);
            ctx.visible.push((name, slot));
        }
        self.compile_progn(body, tail)?;
        self.ctx().visible.truncate(visible_mark);
        Ok(())
    }

    fn compile_lambda_form(&mut self, args: &[Value]) -> VmResult<()> {
        if args.is_empty() {
            return Err(VmError::Compile("lambda requires a parameter list".into()));
        }
        let chunk = self.compile_function("lambda", &args[0], &args[1..])?;
        self.emit(Op::MakeClosure(chunk));
        Ok(())
    }

    fn compile_defun(&mut self, args: &[Value]) -> VmResult<()> {
        if args.len() < 2 {
            return Err(VmError::Compile("defun requires name and params".into()));
        }
        let Some(name) = args[0].as_symbol() else {
            return Err(VmError::Compile("defun name must be a symbol".into()));
        };
        let chunk = self.compile_function(name.name(), &args[1], &args[2..])?;
        self.emit(Op::MakeClosure(chunk));
        let c = self.sym_const(name);
        self.emit(Op::DefGlobal(c));
        self.emit_const(Value::Symbol(name));
        Ok(())
    }

    fn compile_defmacro(&mut self, args: &[Value]) -> VmResult<()> {
        if args.len() < 2 {
            return Err(VmError::Compile("defmacro requires name and params".into()));
        }
        let Some(name) = args[0].as_symbol() else {
            return Err(VmError::Compile("defmacro name must be a symbol".into()));
        };
        // (%def-macro 'name (lambda params body...))
        let setter = self.sym_const(Symbol::intern("%def-macro"));
        self.emit(Op::LoadGlobal(setter));
        self.emit_const(Value::Symbol(name));
        let chunk =
            self.compile_function(&format!("macro {}", name.name()), &args[1], &args[2..])?;
        self.emit(Op::MakeClosure(chunk));
        self.emit(Op::Call(2));
        Ok(())
    }

    fn compile_setf(&mut self, args: &[Value]) -> VmResult<()> {
        if args.len() != 2 {
            return Err(VmError::Compile("setf requires a place and a value".into()));
        }
        let place = &args[0];
        let value = &args[1];
        if let Some(sym) = place.as_symbol() {
            self.compile_expr(value, false)?;
            self.emit(Op::Dup); // setf returns the value
            match self.resolve(sym) {
                VarRef::Local(slot) => self.emit(Op::StoreLocal(slot)),
                VarRef::Capture(_) => {
                    return Err(VmError::Compile(format!(
                        "cannot mutate closed-over variable {}: Gozer closures capture by value",
                        sym.name()
                    )));
                }
                VarRef::Global => {
                    let c = self.sym_const(sym);
                    self.emit(Op::StoreGlobal(c));
                }
            }
            return Ok(());
        }
        // (setf (%get-task-var 'x) v) => (%set-task-var 'x v)   (§3.6)
        if let Some(items) = place.as_list() {
            if items.len() == 2 && items[0] == Value::symbol("%get-task-var") {
                let call = Value::list(vec![
                    Value::symbol("%set-task-var"),
                    items[1].clone(),
                    value.clone(),
                ]);
                return self.compile_expr(&call, false);
            }
        }
        Err(VmError::Compile(format!(
            "unsupported setf place: {place:?}"
        )))
    }

    fn compile_defvar(&mut self, args: &[Value], always_set: bool) -> VmResult<()> {
        if args.is_empty() {
            return Err(VmError::Compile("defvar requires a name".into()));
        }
        let Some(name) = args[0].as_symbol() else {
            return Err(VmError::Compile("defvar name must be a symbol".into()));
        };
        let helper = self.sym_const(Symbol::intern(if always_set {
            "%defparameter"
        } else {
            "%defvar"
        }));
        self.emit(Op::LoadGlobal(helper));
        self.emit_const(Value::Symbol(name));
        match args.get(1) {
            Some(init) => self.compile_expr(init, false)?,
            None => self.emit(Op::Nil),
        }
        self.emit(Op::Call(2));
        Ok(())
    }

    fn compile_and_or(&mut self, args: &[Value], is_and: bool) -> VmResult<()> {
        if args.is_empty() {
            if is_and {
                self.emit(Op::True);
            } else {
                self.emit(Op::Nil);
            }
            return Ok(());
        }
        let mut exits = Vec::new();
        for (i, f) in args.iter().enumerate() {
            self.compile_expr(f, false)?;
            if i < args.len() - 1 {
                self.emit(Op::Dup);
                let j = if is_and {
                    self.emit_jump(Op::JumpIfFalse(0))
                } else {
                    self.emit_jump(Op::JumpIfTrue(0))
                };
                self.emit(Op::Pop);
                // Re-point: JumpIf pops the dup'd copy; the original stays
                // as the result when we short-circuit.
                exits.push(j);
            }
        }
        for j in exits {
            self.patch_jump(j);
        }
        Ok(())
    }

    fn compile_while(&mut self, args: &[Value]) -> VmResult<()> {
        if args.is_empty() {
            return Err(VmError::Compile("while requires a condition".into()));
        }
        let start = self.here();
        self.compile_expr(&args[0], false)?;
        let jexit = self.emit_jump(Op::JumpIfFalse(0));
        for f in &args[1..] {
            self.compile_expr(f, false)?;
            self.emit(Op::Pop);
        }
        let back = (start as i64 - (self.here() as i64 + 1)) as i32;
        self.emit(Op::Jump(back));
        self.patch_jump(jexit);
        self.emit(Op::Nil);
        Ok(())
    }

    fn compile_handler_bind(&mut self, args: &[Value], tail: bool) -> VmResult<()> {
        if args.is_empty() {
            return Err(VmError::Compile(
                "handler-bind requires a handler function".into(),
            ));
        }
        self.compile_expr(&args[0], false)?;
        self.emit(Op::PushHandler);
        self.ctx().protected += 1;
        // Never in tail position: PopHandlers must run after the body.
        let _ = tail;
        self.compile_progn(&args[1..], false)?;
        self.ctx().protected -= 1;
        self.emit(Op::PopHandlers(1));
        Ok(())
    }

    fn compile_restart_case(&mut self, args: &[Value]) -> VmResult<()> {
        if args.is_empty() {
            return Err(VmError::Compile("restart-case requires a body form".into()));
        }
        let body = &args[0];
        let clauses = &args[1..];
        // Establish restarts (innermost-last order is irrelevant: lookup
        // is by name among simultaneously-established entries).
        let mut restart_jumps = Vec::new();
        for cl in clauses {
            let items = cl
                .as_list()
                .ok_or_else(|| VmError::Compile("bad restart clause".into()))?;
            let Some(name) = items.first().and_then(Value::as_symbol) else {
                return Err(VmError::Compile("restart clause needs a name".into()));
            };
            let name_const = self.sym_const(name);
            let j = self.emit_jump(Op::PushRestart {
                name: name_const,
                offset: 0,
            });
            restart_jumps.push(j);
        }
        self.ctx().protected += 1;
        self.compile_expr(body, false)?;
        self.ctx().protected -= 1;
        self.emit(Op::PopRestarts(clauses.len() as u16));
        let jend = self.emit_jump(Op::Jump(0));
        let mut clause_ends = vec![jend];
        for (cl, jump_idx) in clauses.iter().zip(restart_jumps) {
            self.patch_jump(jump_idx);
            let items = cl.as_list().expect("checked above");
            let params = items
                .get(1)
                .and_then(Value::as_list)
                .ok_or_else(|| VmError::Compile("restart clause needs a param list".into()))?;
            // The transfer pushes the argument list.
            let visible_mark = self.ctx().visible.len();
            let args_slot = self.ctx().add_local(None);
            self.emit(Op::StoreLocal(args_slot));
            for (i, p) in params.iter().enumerate() {
                let Some(pname) = p.as_symbol() else {
                    return Err(VmError::Compile("restart params must be symbols".into()));
                };
                // (nth i args)
                let nth = self.sym_const(Symbol::intern("nth"));
                self.emit(Op::LoadGlobal(nth));
                self.emit_const(Value::Int(i as i64));
                self.emit(Op::LoadLocal(args_slot));
                self.emit(Op::Call(2));
                let slot = self.ctx().add_local(Some(pname));
                self.emit(Op::StoreLocal(slot));
            }
            self.compile_progn(&items[2..], false)?;
            self.ctx().visible.truncate(visible_mark);
            clause_ends.push(self.emit_jump(Op::Jump(0)));
        }
        for j in clause_ends {
            self.patch_jump(j);
        }
        Ok(())
    }

    /// `(. obj (method args...))` or `(. obj method)`: the Java-interop
    /// style method call of Listings 2 and 5, dispatched by `%method`.
    fn compile_method_call(&mut self, args: &[Value]) -> VmResult<()> {
        if args.len() != 2 {
            return Err(VmError::Compile(
                "method call requires receiver and method form".into(),
            ));
        }
        let helper = self.sym_const(Symbol::intern("%method"));
        self.emit(Op::LoadGlobal(helper));
        self.compile_expr(&args[0], false)?;
        let (mname, margs): (Symbol, &[Value]) = match &args[1] {
            Value::Symbol(s) => (*s, &[]),
            Value::List(items) if !items.is_empty() => {
                let Some(s) = items[0].as_symbol() else {
                    return Err(VmError::Compile("method name must be a symbol".into()));
                };
                (s, &items[1..])
            }
            other => {
                return Err(VmError::Compile(format!("bad method form: {other:?}")));
            }
        };
        self.emit_const(Value::str(mname.name()));
        for a in margs {
            self.compile_expr(a, false)?;
        }
        self.emit(Op::Call(2 + margs.len() as u16));
        Ok(())
    }

    // ---- function compilation --------------------------------------

    fn compile_function(
        &mut self,
        name: &str,
        params_form: &Value,
        body: &[Value],
    ) -> VmResult<u32> {
        let params = parse_lambda_list(params_form)?;
        let chunk_idx = self.chunks.len() as u32;
        // Reserve the slot so nested lambdas get later indices.
        self.chunks.push(Chunk {
            name: name.to_string(),
            doc: None,
            params: ParamSpec::default(),
            local_count: 0,
            captures: Vec::new(),
            code: Vec::new(),
            ic: Vec::new(),
        });
        let mut ctx = FnCtx::new(name);
        // Docstring.
        let body = if body.len() > 1 {
            if let Value::Str(doc) = &body[0] {
                ctx.doc = Some(doc.to_string());
                &body[1..]
            } else {
                body
            }
        } else {
            body
        };
        // Parameters occupy the first slots, in spec order.
        for r in &params.required {
            ctx.add_local(Some(*r));
        }
        for (o, _) in &params.optional {
            ctx.add_local(Some(*o));
        }
        if let Some(r) = params.rest {
            ctx.add_local(Some(r));
        }
        for (k, _) in &params.keys {
            ctx.add_local(Some(*k));
        }
        ctx.params = params;
        self.fns.push(ctx);
        self.compile_progn(body, true)?;
        self.emit(Op::Return);
        let ctx = self.fns.pop().expect("fn ctx");
        let chunk = &mut self.chunks[chunk_idx as usize];
        chunk.doc = ctx.doc;
        chunk.params = ctx.params;
        chunk.local_count = ctx.locals.len() as u16;
        chunk.captures = ctx.captures.iter().map(|(_, s)| *s).collect();
        chunk.code = ctx.code;
        Ok(chunk_idx)
    }

    // ---- core macros -----------------------------------------------

    fn expand_core_macro(&mut self, name: &str, args: &[Value]) -> VmResult<Value> {
        let sym = Value::symbol;
        match name {
            "when" => {
                if args.is_empty() {
                    return Err(VmError::Compile("when requires a test".into()));
                }
                let mut body = vec![sym("progn")];
                body.extend_from_slice(&args[1..]);
                Ok(Value::list(vec![
                    sym("if"),
                    args[0].clone(),
                    Value::list(body),
                ]))
            }
            "unless" => {
                if args.is_empty() {
                    return Err(VmError::Compile("unless requires a test".into()));
                }
                let mut body = vec![sym("progn")];
                body.extend_from_slice(&args[1..]);
                Ok(Value::list(vec![
                    sym("if"),
                    args[0].clone(),
                    Value::Nil,
                    Value::list(body),
                ]))
            }
            "cond" => {
                let Some(clause) = args.first() else {
                    return Ok(Value::Nil);
                };
                let items = clause
                    .as_list()
                    .ok_or_else(|| VmError::Compile("bad cond clause".into()))?;
                if items.is_empty() {
                    return Err(VmError::Compile("empty cond clause".into()));
                }
                let rest = {
                    let mut r = vec![sym("cond")];
                    r.extend_from_slice(&args[1..]);
                    Value::list(r)
                };
                let test = items[0].clone();
                // (t forms...) and (otherwise forms...) are the default
                // clause.
                let is_default = matches!(&test, Value::Bool(true))
                    || test.as_symbol().is_some_and(|s| s.name() == "otherwise");
                if items.len() == 1 {
                    return Ok(Value::list(vec![sym("or"), test, rest]));
                }
                let mut body = vec![sym("progn")];
                body.extend_from_slice(&items[1..]);
                if is_default {
                    return Ok(Value::list(body));
                }
                Ok(Value::list(vec![sym("if"), test, Value::list(body), rest]))
            }
            "case" => {
                // (case expr (key forms...) ... (otherwise forms...))
                if args.is_empty() {
                    return Err(VmError::Compile("case requires an expression".into()));
                }
                let v = Value::Symbol(self.host.gensym());
                let mut cond_clauses = vec![sym("cond")];
                for cl in &args[1..] {
                    let items = cl
                        .as_list()
                        .ok_or_else(|| VmError::Compile("bad case clause".into()))?;
                    if items.is_empty() {
                        return Err(VmError::Compile("empty case clause".into()));
                    }
                    let key = &items[0];
                    let is_default = key.as_symbol().is_some_and(|s| s.name() == "otherwise")
                        || matches!(key, Value::Bool(true));
                    let test = if is_default {
                        Value::Bool(true)
                    } else if let Some(keys) = key.as_list() {
                        let mut or = vec![sym("or")];
                        for k in keys {
                            or.push(Value::list(vec![
                                sym("equal"),
                                v.clone(),
                                Value::list(vec![sym("quote"), k.clone()]),
                            ]));
                        }
                        Value::list(or)
                    } else {
                        Value::list(vec![
                            sym("equal"),
                            v.clone(),
                            Value::list(vec![sym("quote"), key.clone()]),
                        ])
                    };
                    let mut clause = vec![test];
                    clause.extend_from_slice(&items[1..]);
                    cond_clauses.push(Value::list(clause));
                }
                Ok(Value::list(vec![
                    sym("let"),
                    Value::list(vec![Value::list(vec![v, args[0].clone()])]),
                    Value::list(cond_clauses),
                ]))
            }
            "dolist" => {
                // (dolist (var list [result]) body...)
                let spec = args
                    .first()
                    .and_then(Value::as_list)
                    .ok_or_else(|| VmError::Compile("dolist requires (var list)".into()))?;
                if spec.len() < 2 {
                    return Err(VmError::Compile("dolist requires (var list)".into()));
                }
                let var = spec[0].clone();
                let seq = Value::Symbol(self.host.gensym());
                let mut body = vec![
                    sym("let"),
                    Value::list(vec![Value::list(vec![
                        var,
                        Value::list(vec![sym("first"), seq.clone()]),
                    ])]),
                ];
                body.extend_from_slice(&args[1..]);
                let loop_form = Value::list(vec![
                    sym("while"),
                    seq.clone(),
                    Value::list(body),
                    Value::list(vec![
                        sym("setq"),
                        seq.clone(),
                        Value::list(vec![sym("rest"), seq.clone()]),
                    ]),
                ]);
                let result = spec.get(2).cloned().unwrap_or(Value::Nil);
                Ok(Value::list(vec![
                    sym("let"),
                    Value::list(vec![Value::list(vec![
                        seq,
                        Value::list(vec![sym("seq->list"), spec[1].clone()]),
                    ])]),
                    loop_form,
                    result,
                ]))
            }
            "dotimes" => {
                // (dotimes (var n [result]) body...)
                let spec = args
                    .first()
                    .and_then(Value::as_list)
                    .ok_or_else(|| VmError::Compile("dotimes requires (var n)".into()))?;
                if spec.len() < 2 {
                    return Err(VmError::Compile("dotimes requires (var n)".into()));
                }
                let var = spec[0].clone();
                let limit = Value::Symbol(self.host.gensym());
                let mut while_form = vec![
                    sym("while"),
                    Value::list(vec![sym("<"), var.clone(), limit.clone()]),
                ];
                while_form.extend_from_slice(&args[1..]);
                while_form.push(Value::list(vec![
                    sym("setq"),
                    var.clone(),
                    Value::list(vec![sym("+"), var.clone(), Value::Int(1)]),
                ]));
                let result = spec.get(2).cloned().unwrap_or(Value::Nil);
                Ok(Value::list(vec![
                    sym("let"),
                    Value::list(vec![
                        Value::list(vec![var, Value::Int(0)]),
                        Value::list(vec![limit, spec[1].clone()]),
                    ]),
                    Value::list(while_form),
                    result,
                ]))
            }
            "incf" | "decf" => {
                if args.is_empty() {
                    return Err(VmError::Compile("incf requires a place".into()));
                }
                let delta = args.get(1).cloned().unwrap_or(Value::Int(1));
                let op = if name == "incf" { "+" } else { "-" };
                Ok(Value::list(vec![
                    sym("setf"),
                    args[0].clone(),
                    Value::list(vec![sym(op), args[0].clone(), delta]),
                ]))
            }
            "push" => {
                // (push v place) => (setf place (cons v place))
                expect_args("push", args, 2)?;
                Ok(Value::list(vec![
                    sym("setf"),
                    args[1].clone(),
                    Value::list(vec![sym("cons"), args[0].clone(), args[1].clone()]),
                ]))
            }
            "append!" => {
                // (append! place v) => (setf place (%append1 place v)),
                // the destructive-looking list append of Listing 3.
                expect_args("append!", args, 2)?;
                Ok(Value::list(vec![
                    sym("setf"),
                    args[0].clone(),
                    Value::list(vec![sym("%append1"), args[0].clone(), args[1].clone()]),
                ]))
            }
            "%" => {
                // (% op args...) => (op args...): BlueBox platform call
                // sugar, as in Listing 2's (% is-fiber-thread).
                if args.is_empty() {
                    return Err(VmError::Compile("% requires an operation".into()));
                }
                let mut call = vec![args[0].clone()];
                call.extend_from_slice(&args[1..]);
                Ok(Value::list(call))
            }
            "prog1" => {
                if args.is_empty() {
                    return Err(VmError::Compile("prog1 requires a form".into()));
                }
                let v = Value::Symbol(self.host.gensym());
                let mut body = vec![
                    sym("let"),
                    Value::list(vec![Value::list(vec![v.clone(), args[0].clone()])]),
                ];
                body.extend_from_slice(&args[1..]);
                body.push(v);
                Ok(Value::list(body))
            }
            "ignore-errors" => {
                // (ignore-errors body...) => restart-case + handler that
                // ignores any error, returning nil.
                let mut body = vec![sym("progn")];
                body.extend_from_slice(args);
                Ok(Value::list(vec![
                    sym("restart-case"),
                    Value::list(vec![
                        sym("handler-bind"),
                        Value::list(vec![
                            sym("lambda"),
                            Value::list(vec![sym("c")]),
                            Value::list(vec![
                                sym("invoke-restart"),
                                Value::list(vec![sym("quote"), sym("%ignore-errors")]),
                            ]),
                        ]),
                        Value::list(body),
                    ]),
                    Value::list(vec![sym("%ignore-errors"), Value::Nil]),
                ]))
            }
            "future" => {
                // (future expr...) => (%make-future (lambda () expr...))
                // — the local-parallelism primitive of §2.
                let mut lambda = vec![sym("lambda"), Value::Nil];
                lambda.extend_from_slice(args);
                Ok(Value::list(vec![sym("%make-future"), Value::list(lambda)]))
            }
            "loop" => expand_loop(self.host, args),
            other => Err(VmError::Compile(format!("unknown core macro {other}"))),
        }
    }
}

/// The names handled by the compiler's built-in expanders.
pub const CORE_MACROS: &[&str] = &[
    "when",
    "unless",
    "cond",
    "case",
    "dolist",
    "dotimes",
    "incf",
    "decf",
    "push",
    "append!",
    "%",
    "loop",
    "prog1",
    "ignore-errors",
    "future",
];

/// Expand a core macro outside a compilation (the `macroexpand-1`
/// builtin). `None` when `name` is not a core macro.
pub fn expand_core(host: &dyn MacroHost, name: &str, args: &[Value]) -> Option<VmResult<Value>> {
    if !CORE_MACROS.contains(&name) {
        return None;
    }
    let mut c = Compiler {
        host,
        consts: Vec::new(),
        chunks: Vec::new(),
        fns: Vec::new(),
    };
    Some(c.expand_core_macro(name, args))
}

fn expect_args(name: &str, args: &[Value], n: usize) -> VmResult<()> {
    if args.len() != n {
        return Err(VmError::Compile(format!(
            "{name} requires exactly {n} argument form(s), got {}",
            args.len()
        )));
    }
    Ok(())
}

/// Parse a lambda list: `(a b &optional (c 1) &rest r &key k1 (k2 0))`.
fn parse_lambda_list(form: &Value) -> VmResult<ParamSpec> {
    let items = form
        .as_list()
        .ok_or_else(|| VmError::Compile(format!("bad lambda list: {form:?}")))?;
    let mut spec = ParamSpec::default();
    #[derive(PartialEq)]
    enum Mode {
        Required,
        Optional,
        Rest,
        Key,
    }
    let mut mode = Mode::Required;
    for item in items {
        if let Some(s) = item.as_symbol() {
            match s.name() {
                "&optional" => {
                    mode = Mode::Optional;
                    continue;
                }
                "&rest" => {
                    mode = Mode::Rest;
                    continue;
                }
                "&key" => {
                    mode = Mode::Key;
                    continue;
                }
                _ => {}
            }
        }
        let (name, default) = match item {
            Value::Symbol(s) => (*s, Value::Nil),
            Value::List(pair) if pair.len() == 2 => {
                let Some(s) = pair[0].as_symbol() else {
                    return Err(VmError::Compile(format!("bad parameter: {item:?}")));
                };
                match &pair[1] {
                    Value::List(_) | Value::Vector(_) | Value::Map(_) | Value::Symbol(_) => {
                        return Err(VmError::Compile(format!(
                            "parameter defaults must be constants: {item:?}"
                        )));
                    }
                    v => (s, v.clone()),
                }
            }
            other => {
                return Err(VmError::Compile(format!("bad parameter: {other:?}")));
            }
        };
        match mode {
            Mode::Required => {
                if default != Value::Nil {
                    return Err(VmError::Compile(
                        "required parameters cannot have defaults".into(),
                    ));
                }
                spec.required.push(name);
            }
            Mode::Optional => spec.optional.push((name, default)),
            Mode::Rest => {
                if spec.rest.is_some() {
                    return Err(VmError::Compile("multiple &rest parameters".into()));
                }
                spec.rest = Some(name);
            }
            Mode::Key => spec.keys.push((name, default)),
        }
    }
    Ok(spec)
}

/// Expand quasiquote into `list`/`append`/`quote` calls. `depth` is the
/// quasiquote nesting level.
fn quasi_expand(form: &Value, depth: u32) -> VmResult<Value> {
    let sym = Value::symbol;
    match form {
        Value::List(items) if !items.is_empty() => {
            // Handle (unquote x) / (unquote-splicing x) / nested quasiquote
            if let Some(head) = items[0].as_symbol() {
                match head.name() {
                    "unquote" => {
                        expect_args("unquote", &items[1..], 1)?;
                        if depth == 1 {
                            return Ok(items[1].clone());
                        }
                        let inner = quasi_expand(&items[1], depth - 1)?;
                        return Ok(Value::list(vec![
                            sym("list"),
                            Value::list(vec![sym("quote"), sym("unquote")]),
                            inner,
                        ]));
                    }
                    "unquote-splicing" => {
                        return Err(VmError::Compile(
                            "unquote-splicing not inside a list".into(),
                        ));
                    }
                    "quasiquote" => {
                        expect_args("quasiquote", &items[1..], 1)?;
                        let inner = quasi_expand(&items[1], depth + 1)?;
                        return Ok(Value::list(vec![
                            sym("list"),
                            Value::list(vec![sym("quote"), sym("quasiquote")]),
                            inner,
                        ]));
                    }
                    _ => {}
                }
            }
            // General list: (append seg1 seg2 ...) where plain elements
            // become (list e...) segments and splices pass through.
            let mut segments: Vec<Value> = Vec::new();
            let mut current: Vec<Value> = vec![sym("list")];
            for item in items.iter() {
                let is_splice = item
                    .as_list()
                    .and_then(|l| l.first())
                    .and_then(Value::as_symbol)
                    .is_some_and(|s| s.name() == "unquote-splicing");
                if is_splice && depth == 1 {
                    let l = item.as_list().unwrap();
                    expect_args("unquote-splicing", &l[1..], 1)?;
                    if current.len() > 1 {
                        segments.push(Value::list(std::mem::replace(
                            &mut current,
                            vec![sym("list")],
                        )));
                    }
                    segments.push(l[1].clone());
                } else {
                    current.push(quasi_expand(item, depth)?);
                }
            }
            if current.len() > 1 {
                segments.push(Value::list(current));
            }
            match segments.len() {
                0 => Ok(Value::Nil),
                1 => Ok(segments.pop().unwrap()),
                _ => {
                    let mut call = vec![sym("append")];
                    call.extend(segments);
                    Ok(Value::list(call))
                }
            }
        }
        Value::Vector(items) => {
            // Rebuild as (list->vector `(...))
            let as_list = Value::List(items.clone());
            let expanded = quasi_expand(&as_list, depth)?;
            Ok(Value::list(vec![sym("list->vector"), expanded]))
        }
        // Atoms and maps are constants under quasiquote.
        _ => Ok(Value::list(vec![sym("quote"), form.clone()])),
    }
}

/// Expand the supported `loop` subset:
///
/// ```text
/// (loop [for VAR in EXPR |
///        for VAR from A (to|below) B [by S] |
///        repeat N]
///       [while C] [until C]
///       (collect E | sum E | count E | do FORMS...)*)
/// ```
fn expand_loop(host: &dyn MacroHost, args: &[Value]) -> VmResult<Value> {
    let sym = Value::symbol;
    let mut inits: Vec<Value> = Vec::new(); // (var init) pairs
                                            // Conditions deciding whether another iteration *exists* (sequence
                                            // non-empty, index in range).
    let mut for_conds: Vec<Value> = Vec::new();
    // Per-iteration variable updates run before user conditions
    // ((setq var (first seq)) for in-style clauses).
    let mut presets: Vec<Value> = Vec::new();
    // User while/until conditions; they may reference the for variables.
    let mut while_conds: Vec<Value> = Vec::new();
    let mut body: Vec<Value> = Vec::new();
    let mut steps: Vec<Value> = Vec::new();
    let mut result: Value = Value::Nil;
    let acc = Value::Symbol(host.gensym());
    let mut has_acc = false;

    let kw = |v: &Value, name: &str| v.as_symbol().is_some_and(|s| s.name() == name);

    let mut i = 0;
    while i < args.len() {
        let clause = &args[i];
        if kw(clause, "for") {
            let var = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| VmError::Compile("loop: for requires a variable".into()))?;
            let mode = args
                .get(i + 2)
                .ok_or_else(|| VmError::Compile("loop: for requires in/from".into()))?;
            if kw(mode, "in") {
                let seq_expr = args
                    .get(i + 3)
                    .cloned()
                    .ok_or_else(|| VmError::Compile("loop: for..in requires a sequence".into()))?;
                // Index-based iteration: `(rest seq)` on a Vec-backed list
                // copies the tail, turning the whole loop quadratic. An
                // index over the (immutable, gensym-bound) snapshot costs
                // O(1) per element via `nth`.
                let seq = Value::Symbol(host.gensym());
                let len = Value::Symbol(host.gensym());
                let idx = Value::Symbol(host.gensym());
                inits.push(Value::list(vec![
                    seq.clone(),
                    Value::list(vec![sym("seq->list"), seq_expr]),
                ]));
                inits.push(Value::list(vec![
                    len.clone(),
                    Value::list(vec![sym("length"), seq.clone()]),
                ]));
                inits.push(Value::list(vec![idx.clone(), Value::Int(0)]));
                inits.push(Value::list(vec![var.clone(), Value::Nil]));
                for_conds.push(Value::list(vec![sym("<"), idx.clone(), len]));
                presets.push(Value::list(vec![
                    sym("setq"),
                    var,
                    Value::list(vec![sym("nth"), idx.clone(), seq]),
                ]));
                steps.push(Value::list(vec![
                    sym("setq"),
                    idx.clone(),
                    Value::list(vec![sym("+"), idx, Value::Int(1)]),
                ]));
                i += 4;
            } else if kw(mode, "from") {
                let a = args
                    .get(i + 3)
                    .cloned()
                    .ok_or_else(|| VmError::Compile("loop: from requires a start".into()))?;
                let dir = args
                    .get(i + 4)
                    .ok_or_else(|| VmError::Compile("loop: from requires to/below".into()))?;
                let b = args
                    .get(i + 5)
                    .cloned()
                    .ok_or_else(|| VmError::Compile("loop: to requires a bound".into()))?;
                let cmp = if kw(dir, "below") {
                    "<"
                } else if kw(dir, "to") {
                    "<="
                } else {
                    return Err(VmError::Compile("loop: expected to/below".into()));
                };
                let mut step = Value::Int(1);
                i += 6;
                if args.get(i).is_some_and(|v| kw(v, "by")) {
                    step = args
                        .get(i + 1)
                        .cloned()
                        .ok_or_else(|| VmError::Compile("loop: by requires a step".into()))?;
                    i += 2;
                }
                let bound = Value::Symbol(host.gensym());
                // The bound is computed before the loop variable binds, so
                // a bound expression mentioning the same name still sees
                // the enclosing binding under the sequential `let*`.
                inits.push(Value::list(vec![bound.clone(), b]));
                inits.push(Value::list(vec![var.clone(), a]));
                for_conds.push(Value::list(vec![sym(cmp), var.clone(), bound]));
                steps.push(Value::list(vec![
                    sym("setq"),
                    var.clone(),
                    Value::list(vec![sym("+"), var, step]),
                ]));
            } else {
                return Err(VmError::Compile("loop: expected in/from after var".into()));
            }
        } else if kw(clause, "repeat") {
            let n = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| VmError::Compile("loop: repeat requires a count".into()))?;
            let iv = Value::Symbol(host.gensym());
            inits.push(Value::list(vec![iv.clone(), n]));
            for_conds.push(Value::list(vec![sym(">"), iv.clone(), Value::Int(0)]));
            steps.push(Value::list(vec![
                sym("setq"),
                iv.clone(),
                Value::list(vec![sym("-"), iv, Value::Int(1)]),
            ]));
            i += 2;
        } else if kw(clause, "while") || kw(clause, "until") {
            let c = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| VmError::Compile("loop: while requires a condition".into()))?;
            if kw(clause, "while") {
                while_conds.push(c);
            } else {
                while_conds.push(Value::list(vec![sym("not"), c]));
            }
            i += 2;
        } else if kw(clause, "collect") || kw(clause, "sum") || kw(clause, "count") {
            let e = args
                .get(i + 1)
                .cloned()
                .ok_or_else(|| VmError::Compile("loop: accumulator requires a form".into()))?;
            if !has_acc {
                has_acc = true;
                let init = if kw(clause, "collect") {
                    Value::Nil
                } else {
                    Value::Int(0)
                };
                inits.push(Value::list(vec![acc.clone(), init]));
            }
            if kw(clause, "collect") {
                // `%take` moves the accumulator out of its slot so
                // `%append1` holds the only reference and can push in
                // place — without it every iteration copies the list
                // (the slot's second reference defeats `Arc::get_mut`)
                // and `collect` is O(n²).
                body.push(Value::list(vec![
                    sym("setq"),
                    acc.clone(),
                    Value::list(vec![
                        sym("%append1"),
                        Value::list(vec![sym("%take"), acc.clone()]),
                        e,
                    ]),
                ]));
            } else if kw(clause, "sum") {
                body.push(Value::list(vec![
                    sym("setq"),
                    acc.clone(),
                    Value::list(vec![sym("+"), acc.clone(), e]),
                ]));
            } else {
                body.push(Value::list(vec![
                    sym("when"),
                    e,
                    Value::list(vec![
                        sym("setq"),
                        acc.clone(),
                        Value::list(vec![sym("+"), acc.clone(), Value::Int(1)]),
                    ]),
                ]));
            }
            result = acc.clone();
            i += 2;
        } else if kw(clause, "do") {
            i += 1;
            let keywords = [
                "for", "while", "until", "collect", "sum", "count", "do", "repeat",
            ];
            while i < args.len() {
                let is_kw = args[i]
                    .as_symbol()
                    .is_some_and(|s| keywords.contains(&s.name()));
                if is_kw {
                    break;
                }
                body.push(args[i].clone());
                i += 1;
            }
        } else {
            return Err(VmError::Compile(format!(
                "loop: unsupported clause {clause:?}"
            )));
        }
    }

    let and_all = |mut conds: Vec<Value>| -> Value {
        match conds.len() {
            0 => Value::Bool(true),
            1 => conds.pop().unwrap(),
            _ => {
                let mut and = vec![sym("and")];
                and.extend(conds);
                Value::list(and)
            }
        }
    };

    // Loop skeleton (`let*`: the for..in inits derive the length from the
    // sequence snapshot, and later `for` clauses see earlier variables,
    // as in CL):
    //   (let* (inits.. [done])
    //     (while (and [not done] for-conds..)
    //       presets..
    //       (if while-conds (progn body.. steps..) (setq done t)))
    //     result)
    let mut body_and_steps = body;
    body_and_steps.extend(steps);
    let mut while_body: Vec<Value> = presets;
    if while_conds.is_empty() {
        while_body.extend(body_and_steps);
        let mut while_form = vec![sym("while"), and_all(for_conds)];
        while_form.extend(while_body);
        let out = vec![
            sym("let*"),
            Value::list(inits),
            Value::list(while_form),
            result,
        ];
        return Ok(Value::list(out));
    }
    let done = Value::Symbol(host.gensym());
    inits.push(Value::list(vec![done.clone(), Value::Nil]));
    let mut progn = vec![sym("progn")];
    progn.extend(body_and_steps);
    while_body.push(Value::list(vec![
        sym("if"),
        and_all(while_conds),
        Value::list(progn),
        Value::list(vec![sym("setq"), done.clone(), Value::Bool(true)]),
    ]));
    let mut all_conds = vec![Value::list(vec![sym("not"), done])];
    all_conds.extend(for_conds);
    let mut while_form = vec![sym("while"), and_all(all_conds)];
    while_form.extend(while_body);
    let out = vec![
        sym("let*"),
        Value::list(inits),
        Value::list(while_form),
        result,
    ];
    Ok(Value::list(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gozer_lang::Reader;
    use std::sync::atomic::{AtomicU32, Ordering};

    struct GensymHost(AtomicU32);
    impl MacroHost for GensymHost {
        fn lookup_macro(&self, _n: Symbol) -> Option<Value> {
            None
        }
        fn expand_macro(&self, _f: &Value, _a: &[Value]) -> VmResult<Value> {
            unreachable!()
        }
        fn gensym(&self) -> Symbol {
            Symbol::intern(&format!("#:g{}", self.0.fetch_add(1, Ordering::Relaxed)))
        }
    }

    fn compile(src: &str) -> VmResult<Arc<Program>> {
        let form = Reader::read_one_str(src).unwrap();
        let host = GensymHost(AtomicU32::new(0));
        Compiler::compile_toplevel(&host, &form, "test", 1)
    }

    #[test]
    fn compiles_constants_and_calls() {
        // `list` is not foldable, so this compiles to a real call.
        let p = compile("(list 1 2)").unwrap();
        assert_eq!(p.chunks.len(), 1);
        let code = &p.chunks[0].code;
        assert!(matches!(code[0], Op::LoadGlobal(_)));
        assert!(matches!(code.last(), Some(Op::Return)));
    }

    #[test]
    fn constant_arithmetic_folds() {
        let p = compile("(+ 1 (* 2 3))").unwrap();
        assert!(matches!(p.chunks[0].code[0], Op::Const(_)));
        assert_eq!(p.consts[0], Value::Int(7));
    }

    #[test]
    fn compiles_lambda_with_captures() {
        let p = compile("(let ((x 1)) (lambda (y) (+ x y)))").unwrap();
        assert_eq!(p.chunks.len(), 2);
        assert_eq!(p.chunks[1].captures, vec![CaptureSource::Local(0)]);
    }

    #[test]
    fn nested_capture_threads_through() {
        let p = compile("(let ((x 1)) (lambda () (lambda () x)))").unwrap();
        // innermost chunk captures from the middle chunk's captures
        assert_eq!(p.chunks.len(), 3);
        let inner = p.chunks.iter().find(|c| !c.captures.is_empty()).unwrap();
        assert_eq!(inner.captures.len(), 1);
    }

    #[test]
    fn rejects_mutating_captured_variable() {
        let err = compile("(let ((x 1)) (lambda () (setq x 2)))").unwrap_err();
        assert!(err.to_string().contains("capture by value"));
    }

    #[test]
    fn lambda_list_parsing() {
        let form = Reader::read_one_str("(a b &optional (c 3) &rest r &key k1 (k2 0))").unwrap();
        let spec = parse_lambda_list(&form).unwrap();
        assert_eq!(spec.required.len(), 2);
        assert_eq!(spec.optional, vec![(Symbol::intern("c"), Value::Int(3))]);
        assert_eq!(spec.rest, Some(Symbol::intern("r")));
        assert_eq!(spec.keys.len(), 2);
        assert_eq!(spec.slot_count(), 6);
    }

    #[test]
    fn rejects_non_constant_defaults() {
        let form = Reader::read_one_str("(&optional (c (compute)))").unwrap();
        assert!(parse_lambda_list(&form).is_err());
    }

    #[test]
    fn quasiquote_expansion_shapes() {
        let form = Reader::read_one_str("`(a ,b ,@c d)").unwrap();
        let args = &form.as_list().unwrap()[1..];
        let expanded = quasi_expand(&args[0], 1).unwrap();
        let s = expanded.to_string();
        assert!(s.starts_with("(append"), "got {s}");
        assert!(s.contains("(quote a)"));
        assert!(s.contains("c"));
    }

    #[test]
    fn loop_collect_expansion_compiles() {
        let p = compile("(loop for x in xs collect (* x x))");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn loop_range_with_step() {
        assert!(compile("(loop for i from 0 below 10 by 2 sum i)").is_ok());
    }

    #[test]
    fn restart_case_compiles() {
        let p = compile("(restart-case (f) (retry () (g)) (ignore (x) x))").unwrap();
        let code = &p.chunks[0].code;
        let pushes = code
            .iter()
            .filter(|op| matches!(op, Op::PushRestart { .. }))
            .count();
        assert_eq!(pushes, 2);
        assert!(code.iter().any(|op| matches!(op, Op::PopRestarts(2))));
    }

    #[test]
    fn yield_compiles() {
        let p = compile("(progn (yield) (yield 42))").unwrap();
        let yields = p.chunks[0]
            .code
            .iter()
            .filter(|op| matches!(op, Op::Yield))
            .count();
        assert_eq!(yields, 2);
    }

    #[test]
    fn method_call_compiles() {
        let p = compile("(. msg (set \"a\" 1))").unwrap();
        assert!(p.consts.iter().any(|c| c == &Value::str("set")));
    }

    #[test]
    fn tail_call_emitted_in_function_tail() {
        let p = compile("(defun f (n) (f (- n 1)))").unwrap();
        let f = p.chunks.iter().find(|c| c.name == "f").unwrap();
        assert!(f.code.iter().any(|op| matches!(op, Op::TailCall(1))));
    }

    #[test]
    fn no_tail_call_inside_restart_case() {
        let p = compile("(defun f (n) (restart-case (f (- n 1)) (retry () nil)))").unwrap();
        let f = p.chunks.iter().find(|c| c.name == "f").unwrap();
        assert!(!f.code.iter().any(|op| matches!(op, Op::TailCall(_))));
    }

    #[test]
    fn docstring_recorded() {
        let p = compile("(defun f (x) \"squares x\" (* x x))").unwrap();
        let f = p.chunks.iter().find(|c| c.name == "f").unwrap();
        assert_eq!(f.doc.as_deref(), Some("squares x"));
    }
}
