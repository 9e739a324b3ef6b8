//! Bytecode representation for the GVM.
//!
//! A [`Program`] is a compilation unit (one `load` of Gozer source, or one
//! top-level form at the REPL). It owns a constant pool and a set of
//! [`Chunk`]s, one per function body. Frames reference code by
//! `(program, chunk, pc)` triple, which is what makes continuations plain
//! data: serializing a frame records the program's content hash and the
//! chunk index, never a host pointer (paper §4.1 — the GVM implements its
//! own stack-oriented architecture precisely so the stack can be
//! externalized, in the manner of Stackless Python).

use std::fmt;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use gozer_lang::{Symbol, Value};

/// A single GVM instruction. Instructions carry immediate operands inline;
/// the enum *is* the bytecode (a word-coded instruction stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push constant pool entry.
    Const(u32),
    /// Push `nil`.
    Nil,
    /// Push `t`.
    True,
    /// Pop and discard.
    Pop,
    /// Duplicate top of stack.
    Dup,

    /// Push local slot.
    LoadLocal(u16),
    /// Pop into local slot.
    StoreLocal(u16),
    /// *Move* a local slot onto the stack, leaving `nil` behind. Emitted
    /// by the compiler (via the internal `%take` form) where a binding's
    /// value is provably dead until reassigned — e.g. the `loop collect`
    /// accumulator handed to `%append1` — so the callee sees a uniquely
    /// referenced value and copy-on-write natives can mutate in place.
    TakeLocal(u16),
    /// Push closure capture.
    LoadCapture(u16),
    /// Push global named by constant-pool symbol.
    LoadGlobal(u32),
    /// Pop into global named by constant-pool symbol.
    StoreGlobal(u32),
    /// Pop and define global named by constant-pool symbol.
    DefGlobal(u32),

    /// Relative jump (target = pc + offset, offset counted after decode).
    Jump(i32),
    /// Pop; jump when false (`nil`). Forces a future on top of stack.
    JumpIfFalse(i32),
    /// Pop; jump when true. Forces a future on top of stack.
    JumpIfTrue(i32),

    /// Call: stack is [..., func, arg1..argN]; pops N+1, pushes result.
    Call(u16),
    /// Tail call: like `Call` but replaces the current frame.
    TailCall(u16),
    /// Return top of stack from the current frame.
    Return,

    /// Instantiate a closure over the chunk's capture list.
    MakeClosure(u32),

    /// Collect N stack values into a list.
    MakeList(u16),
    /// Collect N stack values into a vector.
    MakeVector(u16),
    /// Collect 2N stack values (k v pairs) into a map.
    MakeMap(u16),

    /// Suspend the fiber: pops a payload value; the continuation resumes
    /// just after this instruction with the resume value pushed.
    Yield,
    /// Push a first-class continuation object capturing the fiber state
    /// just after this instruction.
    PushCC,

    /// Pop a handler function and push it on the fiber's handler stack.
    PushHandler,
    /// Pop `n` handlers from the handler stack.
    PopHandlers(u16),
    /// Establish a restart: name from the constant pool, clause body at
    /// relative offset.
    PushRestart {
        /// Constant-pool index of the restart's name symbol.
        name: u32,
        /// Relative jump offset to the restart clause body.
        offset: i32,
    },
    /// Remove the `n` most recent restarts.
    PopRestarts(u16),

    // ---- superinstructions ---------------------------------------------
    //
    // Each fused op replaces the *first* slot of a hot adjacent pair; the
    // second slot keeps its original instruction ("keep-second-slot"
    // fusion). Executing the fused op runs both constituents and skips
    // the pc past both, so every pc a continuation can observe — jump
    // targets into the second slot, suspension points, frame pcs — is
    // identical to the unfused program. That is what lets fused and
    // unfused nodes exchange serialized continuations freely, and why
    // `gozer-serial` needs no changes: it records only (program, chunk,
    // pc). The profiler credits each *constituent* opcode, keeping counts
    // bit-identical across modes.
    /// Fused `LoadLocal(a); LoadLocal(b)`.
    LoadLocal2(u16, u16),
    /// Fused `LoadLocal(slot); Const(c)`.
    LoadLocalConst(u16, u32),
    /// Fused `LoadGlobal(g); LoadLocal(slot)`.
    GlobalLocal(u32, u16),
    /// Fused `Const(c); Call(n)` (constant last argument).
    ConstCall(u32, u16),
    /// Fused `LoadLocal(slot); Call(n)` (local last argument).
    LoadLocalCall(u16, u16),
    /// Fused `Call(n); JumpIfFalse(off)` (call feeding a branch). When
    /// the callee is a closure this degrades to plain `Call` semantics —
    /// the retained `JumpIfFalse` in the second slot runs on return.
    CallBranchFalse(u16, i32),
    /// Fused `Dup; StoreLocal(slot)` (the `setq`-leaves-its-value shape).
    DupStore(u16),
    /// Fused `Pop; Jump(off)` (discard a statement value and loop back).
    PopJump(i32),
    /// Fused `LoadGlobal(g); LoadLocal(a); LoadLocal(b); Call(2)` — the
    /// complete two-local call shape (`(+ acc i)`, `(<= i bound)`).
    /// When the global resolves to a two-int native the result is
    /// computed without materializing the callee or arguments on the
    /// operand stack; slots i+1..i+3 keep their original instructions
    /// as landing pads, exactly like the pairwise fusions.
    GlobalLocal2Call(u32, u16, u16),
    /// Fused `LoadGlobal(g); LoadLocal(s); Const(c); Call(2)` — the
    /// local-and-constant call shape (`(- n 1)`, `(< n 2)`).
    GlobalLocalConstCall(u32, u16, u32),
}

impl Op {
    /// The constituent sequence of a fused op (`None` for plain ops).
    /// Offsets in later constituents are relative to their own retained
    /// slot, exactly as in the unfused program. Constituents after the
    /// first must still occupy the following slots (possibly themselves
    /// re-fused, with the same first constituent) so jumps and resumed
    /// continuations can land on them.
    pub fn fused_constituents(&self) -> Option<Vec<Op>> {
        match *self {
            Op::LoadLocal2(a, b) => Some(vec![Op::LoadLocal(a), Op::LoadLocal(b)]),
            Op::LoadLocalConst(s, c) => Some(vec![Op::LoadLocal(s), Op::Const(c)]),
            Op::GlobalLocal(g, s) => Some(vec![Op::LoadGlobal(g), Op::LoadLocal(s)]),
            Op::ConstCall(c, n) => Some(vec![Op::Const(c), Op::Call(n)]),
            Op::LoadLocalCall(s, n) => Some(vec![Op::LoadLocal(s), Op::Call(n)]),
            Op::CallBranchFalse(n, off) => Some(vec![Op::Call(n), Op::JumpIfFalse(off)]),
            Op::DupStore(s) => Some(vec![Op::Dup, Op::StoreLocal(s)]),
            Op::PopJump(off) => Some(vec![Op::Pop, Op::Jump(off)]),
            Op::GlobalLocal2Call(g, a, b) => Some(vec![
                Op::LoadGlobal(g),
                Op::LoadLocal(a),
                Op::LoadLocal(b),
                Op::Call(2),
            ]),
            Op::GlobalLocalConstCall(g, s, c) => Some(vec![
                Op::LoadGlobal(g),
                Op::LoadLocal(s),
                Op::Const(c),
                Op::Call(2),
            ]),
            _ => None,
        }
    }
}

/// How a closure capture is sourced from the *enclosing* frame at
/// `MakeClosure` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSource {
    /// Copy an enclosing local slot.
    Local(u16),
    /// Copy one of the enclosing closure's own captures.
    Capture(u16),
}

/// Formal parameter specification for a chunk.
///
/// Defaults for `&optional` and `&key` parameters are restricted to
/// *constants* (a deliberate simplification; every listing in the paper
/// uses constant or `nil` defaults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParamSpec {
    /// Required positional parameters, bound to slots `0..required.len()`.
    pub required: Vec<Symbol>,
    /// `&optional` parameters with constant defaults.
    pub optional: Vec<(Symbol, Value)>,
    /// `&rest` parameter capturing remaining arguments as a list.
    pub rest: Option<Symbol>,
    /// `&key` parameters: `(keyword-name, default)`. The variable binds in
    /// declaration order after required/optional/rest.
    pub keys: Vec<(Symbol, Value)>,
}

impl ParamSpec {
    /// Total number of parameter slots this spec binds.
    pub fn slot_count(&self) -> usize {
        self.required.len()
            + self.optional.len()
            + usize::from(self.rest.is_some())
            + self.keys.len()
    }

    /// Smallest number of positional arguments accepted.
    pub fn min_args(&self) -> usize {
        self.required.len()
    }
}

/// One compiled function body.
#[derive(Debug)]
pub struct Chunk {
    /// Name for diagnostics (`"lambda"` when anonymous).
    pub name: String,
    /// Docstring, preserved for the `doc` builtin (deflink relies on this
    /// to surface service operation documentation, §3.3).
    pub doc: Option<String>,
    /// Parameter specification.
    pub params: ParamSpec,
    /// Number of local slots (parameters + let-bound variables).
    pub local_count: u16,
    /// Captures to copy from the enclosing frame when a closure over this
    /// chunk is created.
    pub captures: Vec<CaptureSource>,
    /// The instruction stream.
    pub code: Vec<Op>,
    /// Per-pc inline caches for `LoadGlobal`/`GlobalLocal` sites, packed
    /// `(generation << 32) | slot`. Generation 0 means "empty". Sized to
    /// `code.len()` by the compiler; hand-built programs may leave it
    /// empty, in which case those sites take the slow lookup every time.
    /// Purely a cache: never serialized, never compared, reset by clone.
    pub ic: Vec<AtomicU64>,
}

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        Chunk {
            name: self.name.clone(),
            doc: self.doc.clone(),
            params: self.params.clone(),
            local_count: self.local_count,
            captures: self.captures.clone(),
            code: self.code.clone(),
            // Caches are per-Chunk state; a clone starts cold.
            ic: self.code.iter().map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// A compilation unit: constant pool plus chunks.
#[derive(Debug, Clone)]
pub struct Program {
    /// Content-derived identifier used by the serializer to re-link
    /// closures and continuations on another node.
    pub id: u64,
    /// Human-readable name (e.g. the workflow name).
    pub name: String,
    /// Constant pool.
    pub consts: Vec<Value>,
    /// Function bodies; chunk 0 is the top-level entry.
    pub chunks: Vec<Chunk>,
}

impl Program {
    /// Fetch a chunk, panicking on a malformed index (compiler invariant).
    pub fn chunk(&self, idx: u32) -> &Chunk {
        &self.chunks[idx as usize]
    }
}

/// FNV-1a 64-bit hash, used to derive stable [`Program::id`]s from source
/// text (stable across processes, unlike `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_feed(0xcbf29ce484222325, bytes)
}

fn fnv1a64_feed(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100000001b3))
}

/// [`fnv1a64`] of the text `args` formats, fed to the hash as it is
/// written rather than collected into a `String` first.
pub(crate) fn fnv1a64_fmt(args: fmt::Arguments<'_>) -> u64 {
    struct Fnv(u64);
    impl fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv1a64_feed(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut h = Fnv(fnv1a64(b""));
    // `Fnv` never fails, and no `Display`/`Debug` of a value does.
    let _ = fmt::write(&mut h, args);
    h.0
}

/// Render a chunk's code for debugging and the `disassemble` builtin.
pub fn disassemble(program: &Program, chunk_idx: u32) -> String {
    use fmt::Write;
    let chunk = program.chunk(chunk_idx);
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";; chunk {chunk_idx} {} (locals={}, captures={})",
        chunk.name,
        chunk.local_count,
        chunk.captures.len()
    );
    for (i, op) in chunk.code.iter().enumerate() {
        let note = match op {
            Op::Const(c) | Op::LoadGlobal(c) | Op::StoreGlobal(c) | Op::DefGlobal(c) => {
                format!(" ; {:?}", program.consts[*c as usize])
            }
            Op::Jump(off) | Op::JumpIfFalse(off) | Op::JumpIfTrue(off) => {
                format!(" ; -> {}", i as i64 + 1 + *off as i64)
            }
            Op::PushRestart { name, offset } => {
                format!(
                    " ; {:?} -> {}",
                    program.consts[*name as usize],
                    i as i64 + 1 + *offset as i64
                )
            }
            Op::GlobalLocal(g, _)
            | Op::GlobalLocal2Call(g, ..)
            | Op::GlobalLocalConstCall(g, ..) => {
                format!(" ; {:?}", program.consts[*g as usize])
            }
            Op::LoadLocalConst(_, c) | Op::ConstCall(c, _) => {
                format!(" ; {:?}", program.consts[*c as usize])
            }
            // Branch offset is relative to the *second* slot (i + 1).
            Op::CallBranchFalse(_, off) | Op::PopJump(off) => {
                format!(" ; -> {}", i as i64 + 2 + *off as i64)
            }
            _ => String::new(),
        };
        let _ = writeln!(out, "{i:5}  {op:?}{note}");
    }
    out
}

/// A shared, immutable program.
pub type ProgramRef = Arc<Program>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), fnv1a64(b"a"));
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }

    #[test]
    fn fnv_of_formatted_text_is_fnv_of_the_string() {
        let form = gozer_lang::Reader::read_one_str("(f \"s\" #\\c [1 2.5] {:k nil})").unwrap();
        assert_eq!(
            fnv1a64_fmt(format_args!("unit#3:{form:?}")),
            fnv1a64(format!("unit#3:{form:?}").as_bytes())
        );
    }

    #[test]
    fn param_spec_slot_count() {
        let spec = ParamSpec {
            required: vec![Symbol::intern("a")],
            optional: vec![(Symbol::intern("b"), Value::Int(1))],
            rest: Some(Symbol::intern("r")),
            keys: vec![(Symbol::intern("k"), Value::Nil)],
        };
        assert_eq!(spec.slot_count(), 4);
        assert_eq!(spec.min_args(), 1);
    }

    #[test]
    fn disassemble_formats() {
        let p = Program {
            id: 1,
            name: "test".into(),
            consts: vec![Value::Int(42)],
            chunks: vec![Chunk {
                name: "top".into(),
                doc: None,
                params: ParamSpec::default(),
                local_count: 0,
                captures: vec![],
                code: vec![Op::Const(0), Op::Return],
                ic: Vec::new(),
            }],
        };
        let text = disassemble(&p, 0);
        assert!(text.contains("Const(0) ; 42"));
        assert!(text.contains("Return"));
    }
}
