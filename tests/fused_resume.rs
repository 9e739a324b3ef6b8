//! 16-seed sweep: delta-snapshot resume from a continuation captured
//! **inside a fused region** must reproduce the never-serialized run
//! exactly, fused and unfused alike.
//!
//! Superinstruction fusion keeps every constituent in its original slot
//! ("keep-second-slot"), so a resume pc recorded mid-fused-region —
//! i.e. pointing at a retained constituent slot of a fused op — is a
//! valid entry point in both the fused and the unfused compilation of
//! the same source. This sweep drives that end to end through the PR 5
//! delta-snapshot machinery: full base snapshot, a resumed segment that
//! dirties the top frames, a delta against the base, reconstitution,
//! and a run to completion.

use gozer::{Gvm, RunOutcome, Value};
use gozer_compress::Codec;
use gozer_serial::{
    deserialize_state, deserialize_state_delta, serialize_state, serialize_state_delta,
};
use gozer_vm::set_fuse_override;
use std::sync::Arc;

/// Body variants keep the yield at different spots relative to the
/// fused loop machinery (DupStore/PopJump/quads), so the captured pcs
/// land on a variety of retained slots across the sweep.
const BODIES: &[&str] = &[
    // yield feeding arithmetic: resume lands between fused arith ops.
    "(defun gen (n)
       (let ((acc 0))
         (loop for i from 1 to n do
           (setq acc (+ acc (* i (yield i)))))
         acc))",
    // yield inside collect: TakeLocal/%append1 plus fusion.
    "(defun gen (n)
       (apply #'+ (loop for i from 1 to n collect (+ (yield i) (* i i)))))",
    // yield behind a call so extra frames are live at capture.
    "(defun sq (x) (* x x))
     (defun gen (n)
       (let ((acc 0))
         (loop for i from 1 to n do
           (setq acc (+ acc (sq (yield i)))))
         acc))",
    // branch-heavy body: CallBranchFalse regions around the capture.
    "(defun gen (n)
       (let ((acc 0))
         (loop for i from 1 to n do
           (if (< (yield i) 3) (setq acc (+ acc 1)) (setq acc (+ acc i))))
         acc))",
    // yield inside a closure called *directly* as an if condition: the
    // Call fuses with the JumpIfFalse into CallBranchFalse, so at
    // capture the caller frame's pc (call-index + 1) is the retained
    // JumpIfFalse slot — strictly inside a fused span.
    "(defun echo (x) (yield x))
     (defun gen (n)
       (let ((acc 0))
         (loop for i from 1 to n do
           (if (echo i) (setq acc (+ acc i)) (setq acc (+ acc 1))))
         acc))",
];

fn gvm_with_fuse(fuse: bool, src: &str) -> Arc<Gvm> {
    set_fuse_override(Some(fuse));
    let gvm = Gvm::with_pool_size(1);
    let r = gvm.load_str(src, "fused-resume");
    set_fuse_override(None);
    r.unwrap();
    gvm
}

/// Drive `gen` to completion, feeding `reply(i)` to every yield of `i`.
/// No serialization: the reference run.
fn run_plain(gvm: &Arc<Gvm>, n: i64, reply: impl Fn(i64) -> i64) -> Value {
    let f = gvm.function("gen").unwrap();
    let mut outcome = gvm.call_fiber(&f, vec![Value::Int(n)]).unwrap();
    loop {
        match outcome {
            RunOutcome::Suspended(s) => {
                let Value::Int(i) = s.payload else {
                    panic!("int payload")
                };
                outcome = gvm.resume_fiber(s.state, Value::Int(reply(i))).unwrap();
            }
            RunOutcome::Done(v) => return v,
        }
    }
}

/// Same drive, but at suspension `snap_at` the state goes through a full
/// snapshot (the delta base), runs one more segment, then a **delta**
/// snapshot against that base, reconstitution, and resumes from the
/// reconstituted state. Returns the final value plus whether the
/// post-delta resume pc pointed at a retained constituent slot of a
/// fused op (a capture genuinely inside a fused region).
fn run_with_delta_roundtrip(
    gvm: &Arc<Gvm>,
    n: i64,
    snap_at: usize,
    reply: impl Fn(i64) -> i64,
) -> (Value, bool) {
    let f = gvm.function("gen").unwrap();
    let mut outcome = gvm.call_fiber(&f, vec![Value::Int(n)]).unwrap();
    let mut suspensions = 0usize;
    let mut in_fused_region = false;
    loop {
        match outcome {
            RunOutcome::Suspended(s) => {
                suspensions += 1;
                let Value::Int(i) = s.payload else {
                    panic!("int payload")
                };
                let resume_v = Value::Int(reply(i));
                if suspensions == snap_at {
                    // Full snapshot: the delta base. Reload it so its
                    // clean_prefix is frames.len() (a freshly loaded
                    // state IS its snapshot) — the precondition the
                    // delta writer's watermark is measured against.
                    let base_bytes = serialize_state(&s.state, Codec::None).unwrap();
                    let base = deserialize_state(&base_bytes, gvm).unwrap();
                    let resumed = match gvm.resume_fiber(base.clone(), resume_v).unwrap() {
                        RunOutcome::Suspended(s2) => s2,
                        RunOutcome::Done(v) => return (v, in_fused_region),
                    };
                    // Delta against the base, then reconstitute.
                    let state2 = resumed.state;
                    let delta =
                        serialize_state_delta(&state2, state2.clean_prefix, Codec::None, 256)
                            .unwrap();
                    let restored = match delta {
                        Some(bytes) => deserialize_state_delta(&bytes, gvm, &base).unwrap(),
                        // No clean prefix survived (shallow stack):
                        // full-snapshot fallback, same as production.
                        None => {
                            let full = serialize_state(&state2, Codec::None).unwrap();
                            deserialize_state(&full, gvm).unwrap()
                        }
                    };
                    in_fused_region = restored.frames.iter().any(pc_in_retained_slot);
                    let Value::Int(j) = resumed.payload else {
                        panic!("int payload")
                    };
                    outcome = gvm.resume_fiber(restored, Value::Int(reply(j))).unwrap();
                } else {
                    outcome = gvm.resume_fiber(s.state, resume_v).unwrap();
                }
            }
            RunOutcome::Done(v) => return (v, in_fused_region),
        }
    }
}

/// Is `frame.pc` a retained constituent slot — i.e. does some fused op
/// at an earlier pc span across it? The top frame's pc sits just after
/// a Yield (never a constituent), but caller frames routinely park on
/// retained slots — e.g. the JumpIfFalse half of a CallBranchFalse
/// whose closure callee suspended.
fn pc_in_retained_slot(frame: &gozer_vm::Frame) -> bool {
    let code = &frame.program.chunk(frame.chunk).code;
    let pc = frame.pc as usize;
    code.iter().enumerate().take(pc).any(|(i, op)| {
        op.fused_constituents()
            .is_some_and(|parts| i < pc && pc < i + parts.len())
    })
}

#[test]
fn delta_resume_from_fused_region_16_seeds() {
    let mut fused_region_hits = 0usize;
    for seed in 0u64..16 {
        // Seed-derived shape: body variant, loop bound, snapshot point,
        // and the resume-value function.
        let body = BODIES[(seed % BODIES.len() as u64) as usize];
        let n = 4 + (seed % 5) as i64; // 4..=8 yields
        let snap_at = 1 + (seed % 3) as usize; // snapshot at 1st..3rd yield
        let k = 1 + (seed % 4) as i64;
        let reply = move |i: i64| i * k + 1;

        for fuse in [true, false] {
            let gvm = gvm_with_fuse(fuse, body);
            let expected = run_plain(&gvm, n, reply);

            let gvm2 = gvm_with_fuse(fuse, body);
            let (got, hit) = run_with_delta_roundtrip(&gvm2, n, snap_at, reply);
            assert_eq!(
                got, expected,
                "seed {seed} fuse={fuse}: delta-roundtrip run diverged"
            );
            if fuse && hit {
                fused_region_hits += 1;
            }
        }
    }
    // The sweep must actually exercise the claim in its name: at least
    // one fused-mode capture has to land inside a fused region.
    assert!(
        fused_region_hits > 0,
        "no seed captured a continuation inside a fused region — widen the body set"
    );
}

#[test]
fn fused_and_unfused_states_interchange() {
    // Keep-second-slot means a continuation serialized by a fused node
    // resumes on an unfused node (and vice versa): the recorded pc is a
    // valid instruction boundary in both compilations.
    let body = BODIES[0];
    for (from, to) in [(true, false), (false, true)] {
        let a = gvm_with_fuse(from, body);
        let b = gvm_with_fuse(to, body);
        let expected = run_plain(&a, 6, |i| i + 1);
        let f = a.function("gen").unwrap();
        let mut outcome = a.call_fiber(&f, vec![Value::Int(6)]).unwrap();
        let mut moved = false;
        let final_v = loop {
            match outcome {
                RunOutcome::Suspended(s) => {
                    let Value::Int(i) = s.payload else {
                        panic!("int payload")
                    };
                    if !moved && i == 3 {
                        // Migrate mid-run to the other-mode VM.
                        let bytes = serialize_state(&s.state, Codec::None).unwrap();
                        let state = deserialize_state(&bytes, &b).unwrap();
                        moved = true;
                        outcome = b.resume_fiber(state, Value::Int(i + 1)).unwrap();
                    } else {
                        let gvm = if moved { &b } else { &a };
                        outcome = gvm.resume_fiber(s.state, Value::Int(i + 1)).unwrap();
                    }
                }
                RunOutcome::Done(v) => break v,
            }
        };
        assert!(moved, "migration point never reached");
        assert_eq!(
            final_v, expected,
            "cross-mode migration {from}->{to} diverged"
        );
    }
}
