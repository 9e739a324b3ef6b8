//! Fuzz target: the load-time bytecode verifier. The interpreter's hot
//! loop trusts operands unchecked, so `verify_program` is the single
//! line of defense against wild indices — it must *reject* (typed
//! `VmError::Bytecode`), never panic, for any `Program` shape. Three
//! generators stress it:
//!
//! 1. fully synthetic programs (random ops, random operands, random
//!    constant pools) — mostly invalid, exercising every reject path;
//! 2. compiled programs with op-level mutations (operand tweaks, op
//!    swaps, truncation) — "almost valid" code that lands near the
//!    fused-op keep-tail-slots checks;
//! 3. untouched compiler output — which must always verify, fused
//!    superinstructions included.
//!
//! Accepted programs are *not* executed: the verifier guarantees
//! in-bounds operands, not termination, and a `Jump(-1)` loop is valid
//! bytecode.

use gozer_fuzz::drive;
use gozer_vm::bytecode::{CaptureSource, Chunk, Op, ParamSpec, Program};
use gozer_vm::{verify_program, Closure, Gvm};
use proptest::TestRng;

const SEEDS: &[&str] = &[
    "(defun f (n) (if (< n 2) n (+ (f (- n 1)) (f (- n 2)))))",
    "(defun g (xs) (let ((acc 0)) (for-each (x xs) (setq acc (+ acc x))) acc))",
    "(defun h () (let ((a 1) (b 2)) (lambda (c) (+ a b c))))",
    "(defun k () (loop for i from 1 to 9 collect (* i i)))",
];

fn random_op(rng: &mut TestRng) -> Op {
    // Operands deliberately straddle the valid range (small pools, small
    // local counts) so both accept and reject paths stay hot.
    let c = rng.below(6) as u32;
    let s = rng.below(6) as u16;
    let n = rng.below(4) as u16;
    let off = rng.below(16) as i32 - 8;
    match rng.below(36) {
        0 => Op::Const(c),
        1 => Op::Nil,
        2 => Op::True,
        3 => Op::Pop,
        4 => Op::Dup,
        5 => Op::LoadLocal(s),
        6 => Op::StoreLocal(s),
        7 => Op::TakeLocal(s),
        8 => Op::LoadCapture(s),
        9 => Op::LoadGlobal(c),
        10 => Op::StoreGlobal(c),
        11 => Op::DefGlobal(c),
        12 => Op::Jump(off),
        13 => Op::JumpIfFalse(off),
        14 => Op::JumpIfTrue(off),
        15 => Op::Call(n),
        16 => Op::TailCall(n),
        17 => Op::Return,
        18 => Op::MakeClosure(c),
        19 => Op::MakeList(n),
        20 => Op::MakeVector(n),
        21 => Op::MakeMap(n),
        22 => Op::Yield,
        23 => Op::PushCC,
        24 => Op::PushHandler,
        25 => Op::PopHandlers(n),
        26 => Op::PushRestart {
            name: c,
            offset: off,
        },
        27 => Op::PopRestarts(n),
        // The fused table, quads included — these drive the
        // keep-tail-slots checks, the part of the verifier with real
        // lookahead logic.
        28 => Op::LoadLocal2(s, rng.below(6) as u16),
        29 => Op::LoadLocalConst(s, c),
        30 => Op::GlobalLocal(c, s),
        31 => Op::ConstCall(c, n),
        32 => Op::LoadLocalCall(s, n),
        33 => Op::CallBranchFalse(n, off),
        34 => Op::DupStore(s),
        _ => {
            if rng.below(3) == 0 {
                Op::PopJump(off)
            } else if rng.below(2) == 0 {
                Op::GlobalLocal2Call(c, s, rng.below(6) as u16)
            } else {
                Op::GlobalLocalConstCall(c, s, rng.below(6) as u32)
            }
        }
    }
}

fn random_program(rng: &mut TestRng) -> Program {
    use gozer_lang::{Symbol, Value};
    let n_consts = rng.below(5) as usize;
    let consts: Vec<Value> = (0..n_consts)
        .map(|i| {
            if rng.below(2) == 0 {
                Value::Symbol(Symbol::intern(&format!("g{i}")))
            } else {
                Value::Int(i as i64)
            }
        })
        .collect();
    let n_chunks = 1 + rng.below(3) as usize;
    let chunks = (0..n_chunks)
        .map(|ci| {
            let len = rng.below(12) as usize; // 0 is a reject case too
            let mut code: Vec<Op> = (0..len).map(|_| random_op(rng)).collect();
            if rng.below(4) != 0 && !code.is_empty() {
                // Usually terminate properly so deeper checks are reached.
                let last = code.len() - 1;
                code[last] = Op::Return;
            }
            let n_caps = rng.below(3) as usize;
            Chunk {
                name: format!("c{ci}"),
                doc: None,
                params: ParamSpec::default(),
                local_count: rng.below(5) as u16,
                captures: (0..n_caps)
                    .map(|_| {
                        if rng.below(2) == 0 {
                            CaptureSource::Local(rng.below(6) as u16)
                        } else {
                            CaptureSource::Capture(rng.below(4) as u16)
                        }
                    })
                    .collect(),
                code,
                ic: Vec::new(),
            }
        })
        .collect();
    Program {
        id: 0xF022,
        name: "fuzz-bytecode".into(),
        consts,
        chunks,
    }
}

/// Compile a seed, then knock its bytecode about: operand tweaks, op
/// replacement, truncation. The ic cache is rebuilt to match (Program
/// construction invariant, not a verifier concern).
fn mutated_compiled(rng: &mut TestRng) -> Program {
    use std::sync::atomic::AtomicU64;
    let gvm = Gvm::with_pool_size(1);
    let src = SEEDS[rng.below(SEEDS.len() as u64) as usize];
    gvm.load_str(src, "fuzz-bytecode").expect("seed compiles");
    let name = src.split_whitespace().nth(1).unwrap();
    let f = gvm.function(name).expect("seed defines its function");
    let cl = f.as_callable::<Closure>().expect("seed value is a closure");
    let mut program = (*cl.program).clone();
    for _ in 0..1 + rng.below(4) {
        let ci = rng.below(program.chunks.len() as u64) as usize;
        let chunk = &mut program.chunks[ci];
        if chunk.code.is_empty() {
            continue;
        }
        let i = rng.below(chunk.code.len() as u64) as usize;
        match rng.below(3) {
            0 => chunk.code[i] = random_op(rng),
            1 => chunk.code.truncate(i + 1),
            _ => {
                let j = rng.below(chunk.code.len() as u64) as usize;
                chunk.code.swap(i, j);
            }
        }
        chunk.ic = chunk.code.iter().map(|_| AtomicU64::new(0)).collect();
    }
    program
}

fn main() {
    drive("bytecode", |rng| match rng.below(8) {
        // Synthetic garbage: any outcome but a panic is fine.
        0..=4 => {
            let _ = verify_program(&random_program(rng));
        }
        // Near-valid mutants: the fused lookahead checks live here.
        5 | 6 => {
            let _ = verify_program(&mutated_compiled(rng));
        }
        // Untouched compiler output must always pass.
        _ => {
            let gvm = Gvm::with_pool_size(1);
            let src = SEEDS[rng.below(SEEDS.len() as u64) as usize];
            gvm.load_str(src, "fuzz-bytecode").expect("seed compiles");
            let name = src.split_whitespace().nth(1).unwrap();
            let f = gvm.function(name).expect("seed defines its function");
            let cl = f.as_callable::<Closure>().expect("closure");
            verify_program(&cl.program).expect("compiler output verifies");
        }
    });
}
