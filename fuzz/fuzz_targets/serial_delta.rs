//! Fuzz target: delta-snapshot deserialization. Mutated, truncated, and
//! header-forged delta records applied to the correct base (and to a
//! wrong one) must fail with a typed error — in particular the frame
//! counts in the header are attacker-controlled and must not drive
//! allocation or indexing. Every case applies two records in sequence to
//! bases that live across cases, so malformed input also meets the warm
//! path: seeding tables a previous apply left on the base.

use std::sync::Arc;

use gozer_compress::Codec;
use gozer_fuzz::{drive, mutate, random_bytes};
use gozer_lang::Value;
use gozer_serial::{
    deserialize_state, deserialize_state_delta, serialize_state, serialize_state_delta,
};
use gozer_vm::{FiberState, Gvm, RunOutcome};

const WF: &str = r#"
(defun leaf (a)
  (let ((x (yield :one)) (y (yield :two)) (z (yield :three))) (list a x y z)))
(defun wrap (a) (list :w (leaf (concat "leaf-" a))))
(defun outer (a) (list :outer (wrap a)))
"#;

/// A base, the two delta records of its chain, the state between them,
/// and a base neither record was written against.
struct Fixture {
    base: FiberState,
    delta1: Vec<u8>,
    mid: FiberState,
    delta2: Vec<u8>,
    wrong_base: FiberState,
}

fn fixture(gvm: &Arc<Gvm>) -> Fixture {
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap()
    else {
        panic!("expected suspension at :one");
    };
    let full1 = serialize_state(&susp1.state, Codec::None).unwrap();
    let state1 = deserialize_state(&full1, gvm).unwrap();
    let RunOutcome::Suspended(susp2) = gvm.resume_fiber(state1, Value::Int(10)).unwrap() else {
        panic!("expected suspension at :two");
    };
    let delta1 = serialize_state_delta(&susp2.state, susp2.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .expect("delta applies");
    let base = deserialize_state(&full1, gvm).unwrap();
    let mid = deserialize_state_delta(&delta1, gvm, &deserialize_state(&full1, gvm).unwrap())
        .expect("first delta applies to its base");
    let mut saved = susp2.state;
    saved.clean_prefix = saved.frames.len();
    let RunOutcome::Suspended(susp3) = gvm.resume_fiber(saved, Value::Int(20)).unwrap() else {
        panic!("expected a third suspension");
    };
    let delta2 = serialize_state_delta(&susp3.state, susp3.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .expect("second delta applies");
    let RunOutcome::Suspended(other) = gvm
        .call_fiber(&f, vec![Value::from("a-different-job")])
        .unwrap()
    else {
        panic!("expected suspension");
    };
    Fixture {
        base,
        delta1,
        mid,
        delta2,
        wrong_base: other.state,
    }
}

fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn main() {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(WF, "fuzz-wf").unwrap();
    let Fixture {
        base,
        delta1: delta,
        mid,
        delta2,
        wrong_base,
    } = fixture(&gvm);
    drive("serial_delta", |rng| {
        let bytes = match rng.below(3) {
            // Garbage behind the delta's envelope + marker prefix.
            0 => {
                let mut b = random_bytes(rng, 256);
                let mut forged = delta[..5].to_vec(); // GZ, ver, codec, 0xD5
                forged.append(&mut b);
                forged
            }
            // Forged header uvarints (prefix/total), valid tail.
            1 => {
                let mut forged = delta[..5].to_vec();
                write_uvarint(&mut forged, rng.next_u64() >> (rng.below(56) as u32));
                write_uvarint(&mut forged, rng.next_u64() >> (rng.below(56) as u32));
                forged.extend_from_slice(&delta[5..]);
                forged
            }
            // Byte mutations / truncations of the whole record.
            _ => mutate(rng, &delta, 4),
        };
        let first = deserialize_state_delta(&bytes, &gvm, &base);
        // The chain's second record, damaged half the time, on top of
        // whatever the first apply produced (its tables travel with the
        // result) or on the true intermediate state.
        let second = if rng.below(2) == 0 {
            mutate(rng, &delta2, 4)
        } else {
            delta2.clone()
        };
        let _ = deserialize_state_delta(&second, &gvm, first.as_ref().unwrap_or(&mid));
        // The unmodified record against a mismatched base must also be
        // rejected (checksum), and a mutated one must never mis-apply.
        let _ = deserialize_state_delta(&bytes, &gvm, &wrong_base);
    });
}
