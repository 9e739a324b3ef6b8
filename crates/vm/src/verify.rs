//! Load-time bytecode verification.
//!
//! The interpreter's hot loop deliberately trusts its operands — local
//! slots, constant-pool indices and jump targets are used unchecked
//! (release builds) because validating them per-instruction would cost
//! more than the dispatch itself. That trust has to be established
//! *once*, here, when a program enters the VM: [`verify_program`] walks
//! every chunk and rejects anything the interpreter could trip over,
//! turning what used to be a release-mode panic (or silent wild index)
//! into a typed [`VmError::Bytecode`].
//!
//! Checks, per chunk:
//!
//! * every constant-pool reference is in range, and references that the
//!   interpreter requires to be symbols (`LoadGlobal`, `StoreGlobal`,
//!   `DefGlobal`, `PushRestart` names) are symbols;
//! * local-slot operands are `< local_count`, and the parameter spec
//!   fits in the declared local count;
//! * capture loads are within the chunk's capture list;
//! * jump and restart offsets land inside the code array;
//! * `MakeClosure` targets an existing chunk whose capture sources are
//!   satisfiable from the *current* chunk;
//! * fused superinstructions carry their second constituent in the next
//!   slot (the keep-second-slot invariant continuation resume relies
//!   on), and both constituents pass the checks above;
//! * the chunk is non-empty and ends in an instruction that cannot fall
//!   off the end (`Return`, `TailCall`, or `Jump`).
//!
//! Programs produced by [`crate::Compiler`] always pass; the verifier
//! exists for bytecode that arrives from outside the compiler — the
//! fuzzer's synthesized programs, hand-built chunks in tests, and any
//! future on-disk program format.

use gozer_lang::Value;

use crate::bytecode::{CaptureSource, Op, Program};
use crate::error::{VmError, VmResult};

fn err(program: &Program, chunk: u32, pc: usize, msg: String) -> VmError {
    let name = &program.chunk(chunk).name;
    VmError::Bytecode(format!(
        "program '{}' chunk {chunk} ({name}) pc {pc}: {msg}",
        program.name
    ))
}

/// Verify every chunk of `program`. See the module docs for the checks.
pub fn verify_program(program: &Program) -> VmResult<()> {
    for idx in 0..program.chunks.len() as u32 {
        verify_chunk(program, idx)?;
    }
    Ok(())
}

fn verify_chunk(program: &Program, chunk_idx: u32) -> VmResult<()> {
    let chunk = program.chunk(chunk_idx);
    let code = &chunk.code;
    if code.is_empty() {
        return Err(err(program, chunk_idx, 0, "empty code".into()));
    }
    if chunk.params.slot_count() > chunk.local_count as usize {
        return Err(err(
            program,
            chunk_idx,
            0,
            format!(
                "{} parameter slots exceed local_count {}",
                chunk.params.slot_count(),
                chunk.local_count
            ),
        ));
    }
    match code[code.len() - 1] {
        Op::Return | Op::TailCall(_) | Op::Jump(_) => {}
        other => {
            return Err(err(
                program,
                chunk_idx,
                code.len() - 1,
                format!("chunk must end in Return/TailCall/Jump, found {other:?}"),
            ))
        }
    }
    for (i, op) in code.iter().enumerate() {
        if let Some(parts) = op.fused_constituents() {
            // Keep-tail-slots invariant: every constituent after the
            // first must still sit in its own slot, because jumps and
            // resumed continuations can land there. A retained slot may
            // itself have been re-fused, in which case its *first*
            // constituent must be the op this fusion retained (the slot
            // is then checked in its own right when the loop reaches it).
            for (k, part) in parts.iter().enumerate().skip(1) {
                match code.get(i + k) {
                    Some(next)
                        if next == part
                            || next
                                .fused_constituents()
                                .is_some_and(|inner| inner[0] == *part) => {}
                    Some(next) => {
                        return Err(err(
                            program,
                            chunk_idx,
                            i,
                            format!(
                                "fused {op:?} expects {part:?} at slot {}, found {next:?}",
                                i + k
                            ),
                        ))
                    }
                    None => {
                        return Err(err(
                            program,
                            chunk_idx,
                            i,
                            format!("fused {op:?} runs past the end of the chunk"),
                        ))
                    }
                }
            }
            for (k, part) in parts.iter().enumerate() {
                verify_op(program, chunk_idx, part, i + k)?;
            }
        } else {
            verify_op(program, chunk_idx, op, i)?;
        }
    }
    Ok(())
}

fn check_const(program: &Program, chunk: u32, pc: usize, c: u32) -> VmResult<()> {
    if (c as usize) < program.consts.len() {
        Ok(())
    } else {
        Err(err(
            program,
            chunk,
            pc,
            format!(
                "constant index {c} out of range ({} consts)",
                program.consts.len()
            ),
        ))
    }
}

fn check_symbol_const(program: &Program, chunk: u32, pc: usize, c: u32) -> VmResult<()> {
    check_const(program, chunk, pc, c)?;
    match &program.consts[c as usize] {
        Value::Symbol(_) => Ok(()),
        other => Err(err(
            program,
            chunk,
            pc,
            format!("constant {c} must be a symbol, found {other:?}"),
        )),
    }
}

fn check_jump(program: &Program, chunk: u32, pc: usize, off: i32) -> VmResult<()> {
    let len = program.chunk(chunk).code.len() as i64;
    let target = pc as i64 + 1 + off as i64;
    if (0..len).contains(&target) {
        Ok(())
    } else {
        Err(err(
            program,
            chunk,
            pc,
            format!("jump target {target} outside code (len {len})"),
        ))
    }
}

fn check_local(program: &Program, chunk: u32, pc: usize, slot: u16) -> VmResult<()> {
    let count = program.chunk(chunk).local_count;
    if slot < count {
        Ok(())
    } else {
        Err(err(
            program,
            chunk,
            pc,
            format!("local slot {slot} out of range ({count} locals)"),
        ))
    }
}

fn verify_op(program: &Program, chunk_idx: u32, op: &Op, i: usize) -> VmResult<()> {
    let chunk = program.chunk(chunk_idx);
    match *op {
        Op::Const(c) => check_const(program, chunk_idx, i, c),
        Op::LoadGlobal(c) | Op::StoreGlobal(c) | Op::DefGlobal(c) => {
            check_symbol_const(program, chunk_idx, i, c)
        }
        Op::LoadLocal(s) | Op::StoreLocal(s) | Op::TakeLocal(s) => {
            check_local(program, chunk_idx, i, s)
        }
        Op::LoadCapture(idx) => {
            if (idx as usize) < chunk.captures.len() {
                Ok(())
            } else {
                Err(err(
                    program,
                    chunk_idx,
                    i,
                    format!(
                        "capture index {idx} out of range ({} captures)",
                        chunk.captures.len()
                    ),
                ))
            }
        }
        Op::Jump(off) | Op::JumpIfFalse(off) | Op::JumpIfTrue(off) => {
            check_jump(program, chunk_idx, i, off)
        }
        Op::PushRestart { name, offset } => {
            check_symbol_const(program, chunk_idx, i, name)?;
            check_jump(program, chunk_idx, i, offset)
        }
        Op::MakeClosure(target) => {
            let Some(t) = program.chunks.get(target as usize) else {
                return Err(err(
                    program,
                    chunk_idx,
                    i,
                    format!(
                        "closure chunk {target} out of range ({} chunks)",
                        program.chunks.len()
                    ),
                ));
            };
            // The capture list is read against the *instantiating* frame.
            for (ci, src) in t.captures.iter().enumerate() {
                let ok = match *src {
                    CaptureSource::Local(s) => s < chunk.local_count,
                    CaptureSource::Capture(c) => (c as usize) < chunk.captures.len(),
                };
                if !ok {
                    return Err(err(
                        program,
                        chunk_idx,
                        i,
                        format!("closure chunk {target} capture {ci} ({src:?}) unsatisfiable here"),
                    ));
                }
            }
            Ok(())
        }
        // Stack-effect ops carry no statically checkable operand (arity
        // and collection sizes are bounded by the runtime stack).
        Op::Nil
        | Op::True
        | Op::Pop
        | Op::Dup
        | Op::Call(_)
        | Op::TailCall(_)
        | Op::Return
        | Op::MakeList(_)
        | Op::MakeVector(_)
        | Op::MakeMap(_)
        | Op::Yield
        | Op::PushCC
        | Op::PushHandler
        | Op::PopHandlers(_)
        | Op::PopRestarts(_) => Ok(()),
        // Fused ops are decomposed by the caller before reaching here.
        Op::LoadLocal2(..)
        | Op::LoadLocalConst(..)
        | Op::GlobalLocal(..)
        | Op::ConstCall(..)
        | Op::LoadLocalCall(..)
        | Op::CallBranchFalse(..)
        | Op::DupStore(..)
        | Op::PopJump(..)
        | Op::GlobalLocal2Call(..)
        | Op::GlobalLocalConstCall(..) => {
            unreachable!("fused ops are verified via fused_constituents")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Chunk, ParamSpec};
    use gozer_lang::{Symbol, Value};

    fn program(code: Vec<Op>) -> Program {
        program_with(
            code,
            vec![Value::Int(1), Value::Symbol(Symbol::intern("x"))],
            2,
        )
    }

    fn program_with(code: Vec<Op>, consts: Vec<Value>, locals: u16) -> Program {
        Program {
            id: 7,
            name: "verify-test".into(),
            consts,
            chunks: vec![Chunk {
                name: "top".into(),
                doc: None,
                params: ParamSpec::default(),
                local_count: locals,
                captures: vec![],
                code,
                ic: Vec::new(),
            }],
        }
    }

    #[test]
    fn accepts_well_formed_code() {
        let p = program(vec![
            Op::Const(0),
            Op::LoadLocal(1),
            Op::LoadGlobal(1),
            Op::JumpIfFalse(-3),
            Op::Return,
        ]);
        verify_program(&p).unwrap();
    }

    #[test]
    fn rejects_const_out_of_range() {
        let e = verify_program(&program(vec![Op::Const(9), Op::Return])).unwrap_err();
        assert!(matches!(e, VmError::Bytecode(_)), "{e}");
        assert!(e.to_string().contains("constant index 9"));
    }

    #[test]
    fn rejects_non_symbol_global_name() {
        let e = verify_program(&program(vec![Op::LoadGlobal(0), Op::Return])).unwrap_err();
        assert!(e.to_string().contains("must be a symbol"));
    }

    #[test]
    fn rejects_bad_local_jump_capture() {
        assert!(verify_program(&program(vec![Op::LoadLocal(2), Op::Return])).is_err());
        assert!(verify_program(&program(vec![Op::Jump(5), Op::Return])).is_err());
        assert!(verify_program(&program(vec![Op::LoadCapture(0), Op::Return])).is_err());
    }

    #[test]
    fn rejects_missing_terminator_and_empty_chunk() {
        assert!(verify_program(&program(vec![Op::Const(0)])).is_err());
        assert!(verify_program(&program(vec![])).is_err());
    }

    #[test]
    fn rejects_fused_op_without_its_second_slot() {
        // Fused LoadLocal2 must be followed by LoadLocal(1).
        let e =
            verify_program(&program(vec![Op::LoadLocal2(0, 1), Op::Pop, Op::Return])).unwrap_err();
        assert!(e.to_string().contains("expects"), "{e}");
        // And with the proper landing pad it verifies.
        verify_program(&program(vec![
            Op::LoadLocal2(0, 1),
            Op::LoadLocal(1),
            Op::Return,
        ]))
        .unwrap();
    }

    #[test]
    fn rejects_fused_op_with_bad_constituent() {
        // The constituent checks apply through the fusion.
        let p = program(vec![Op::ConstCall(9, 1), Op::Call(1), Op::Return]);
        assert!(verify_program(&p).is_err());
    }

    #[test]
    fn compiler_output_always_verifies() {
        let gvm = crate::Gvm::new();
        gvm.eval_str("(defun f (a b) (if (< a b) (f b a) (+ a b)))")
            .unwrap();
        // load_str already verified; this exercises a direct call too.
        let f = gvm.function("f").unwrap();
        let cl = f.as_callable::<crate::runtime::Closure>().unwrap();
        verify_program(&cl.program).unwrap();
    }
}
