//! Superinstruction fusion: the compiler's keep-second-slot peephole.
//!
//! The pass rewrites the *first* slot of each fused pair to a fused
//! [`Op`] and leaves the second slot's original instruction in place.
//! Nothing moves and no offset is rewritten, so:
//!
//! * jump targets that land on the second slot still execute the
//!   original instruction;
//! * every pc the unfused program can reach exists unchanged in the
//!   fused program, so continuations captured on a fused node resume
//!   byte-identically on an unfused node (and vice versa);
//! * the profiler counts constituents, keeping opcode and pair counts
//!   bit-identical between modes.
//!
//! Fusion is greedy left-to-right and non-overlapping: after fusing
//! `(i, i+1)` the scan resumes at `i + 2`, because slot `i + 1` must
//! keep its original instruction as the landing pad.
//!
//! The pair table is profiler-derived: `gozer-repl profile --top-pairs`
//! on the workloads of `cargo run --release -p gozer-bench -- gvm`
//! reports `load-local/load-local`,
//! `load-local/const`, `load-global/load-local`, `const/call`,
//! `load-local/call` and `call/jump-if-false` as the hottest adjacent
//! pairs by an order of magnitude; `dup/store-local` (every
//! value-position `setq`) and `pop/jump` (every loop back-edge) round
//! out the table.

use crate::bytecode::Op;

/// Fuse one pair if it is in the table.
fn fuse_pair(a: Op, b: Op) -> Option<Op> {
    match (a, b) {
        (Op::LoadLocal(x), Op::LoadLocal(y)) => Some(Op::LoadLocal2(x, y)),
        (Op::LoadLocal(s), Op::Const(c)) => Some(Op::LoadLocalConst(s, c)),
        (Op::LoadGlobal(g), Op::LoadLocal(s)) => Some(Op::GlobalLocal(g, s)),
        (Op::Const(c), Op::Call(n)) => Some(Op::ConstCall(c, n)),
        (Op::LoadLocal(s), Op::Call(n)) => Some(Op::LoadLocalCall(s, n)),
        (Op::Call(n), Op::JumpIfFalse(off)) => Some(Op::CallBranchFalse(n, off)),
        (Op::Dup, Op::StoreLocal(s)) => Some(Op::DupStore(s)),
        (Op::Pop, Op::Jump(off)) => Some(Op::PopJump(off)),
        _ => None,
    }
}

/// Fuse one quadruple if it is in the table: the complete two-argument
/// call shapes, which execute without materializing callee or arguments
/// when the global resolves to a two-int native.
fn fuse_quad(a: Op, b: Op, c: Op, d: Op) -> Option<Op> {
    match (a, b, c, d) {
        (Op::LoadGlobal(g), Op::LoadLocal(x), Op::LoadLocal(y), Op::Call(2)) => {
            Some(Op::GlobalLocal2Call(g, x, y))
        }
        (Op::LoadGlobal(g), Op::LoadLocal(x), Op::Const(cc), Op::Call(2)) => {
            Some(Op::GlobalLocalConstCall(g, x, cc))
        }
        _ => None,
    }
}

/// Apply the peephole to one chunk's code, in place. Quads fuse first
/// (longest match wins), then the pair pass runs over the result — it
/// also fuses *inside* a quad's retained slots, which is sound because
/// every fused op keeps its own tail slots: any pc the unfused program
/// can reach still executes the same constituent stream.
pub(crate) fn fuse_code(code: &mut [Op]) {
    let mut i = 0;
    while i + 3 < code.len() {
        match fuse_quad(code[i], code[i + 1], code[i + 2], code[i + 3]) {
            Some(fused) => {
                code[i] = fused;
                i += 4;
            }
            None => i += 1,
        }
    }
    let mut i = 0;
    while i + 1 < code.len() {
        match fuse_pair(code[i], code[i + 1]) {
            Some(fused) => {
                code[i] = fused;
                i += 2;
            }
            None => i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuses_hot_pairs_and_keeps_second_slot() {
        let mut code = vec![
            Op::LoadLocal(0),
            Op::LoadLocal(1),
            Op::Const(2),
            Op::Call(2),
            Op::Return,
        ];
        fuse_code(&mut code);
        assert_eq!(
            code,
            vec![
                Op::LoadLocal2(0, 1),
                Op::LoadLocal(1), // second slot preserved
                Op::ConstCall(2, 2),
                Op::Call(2), // second slot preserved
                Op::Return,
            ]
        );
    }

    #[test]
    fn fusion_is_non_overlapping() {
        // Three LoadLocals: (0,1) fuse, 2 is left alone (no partner).
        let mut code = vec![Op::LoadLocal(0), Op::LoadLocal(1), Op::LoadLocal(2), Op::Return];
        fuse_code(&mut code);
        assert_eq!(
            code,
            vec![Op::LoadLocal2(0, 1), Op::LoadLocal(1), Op::LoadLocal(2), Op::Return]
        );
    }

    #[test]
    fn call_branch_false_keeps_branch_offset() {
        let mut code = vec![Op::Call(2), Op::JumpIfFalse(3), Op::Return];
        fuse_code(&mut code);
        assert_eq!(code[0], Op::CallBranchFalse(2, 3));
        assert_eq!(code[1], Op::JumpIfFalse(3));
    }

    #[test]
    fn every_fused_op_reports_its_parts() {
        let mut code = vec![
            Op::LoadLocal(7),
            Op::Const(9),
            Op::LoadGlobal(1),
            Op::LoadLocal(3),
            Op::Return,
        ];
        fuse_code(&mut code);
        for (i, op) in code.iter().enumerate() {
            if let Some(parts) = op.fused_constituents() {
                for (k, part) in parts.iter().enumerate().skip(1) {
                    let slot = code[i + k];
                    let kept = slot == *part
                        || slot.fused_constituents().is_some_and(|inner| inner[0] == *part);
                    assert!(kept, "slot {} must retain {part:?}, found {slot:?}", i + k);
                }
            }
        }
    }

    #[test]
    fn fuses_two_arg_call_shapes_into_quads() {
        // (+ acc i) and (- n 1): the full call shape collapses, and the
        // retained slots may themselves re-fuse (LoadLocal2, ConstCall).
        let mut code = vec![
            Op::LoadGlobal(0),
            Op::LoadLocal(1),
            Op::LoadLocal(2),
            Op::Call(2),
            Op::LoadGlobal(1),
            Op::LoadLocal(0),
            Op::Const(3),
            Op::Call(2),
            Op::Return,
        ];
        fuse_code(&mut code);
        assert_eq!(code[0], Op::GlobalLocal2Call(0, 1, 2));
        assert_eq!(code[1], Op::LoadLocal2(1, 2)); // retained slots re-fused
        assert_eq!(code[2], Op::LoadLocal(2));
        assert_eq!(code[3], Op::Call(2));
        assert_eq!(code[4], Op::GlobalLocalConstCall(1, 0, 3));
        assert_eq!(code[5], Op::LoadLocalConst(0, 3));
        assert_eq!(code[6], Op::Const(3));
        assert_eq!(code[7], Op::Call(2));
    }
}
