//! Adversarial deserialization tests: arbitrary bytes, truncations, and
//! targeted mutations of valid records must return typed `Err`s — never
//! panic, never hang. Each regression test names the panic site it
//! pins; the broad sweeps are the offline stand-ins for the fuzz
//! targets in `fuzz/` (same generators, fewer iterations).

use std::sync::Arc;

use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{
    deserialize_state, deserialize_state_delta, deserialize_value, serialize_state,
    serialize_state_delta, serialize_value,
};
use gozer_vm::{FiberState, Gvm, RunOutcome};
use proptest::TestRng;

/// Same shape as the delta suite: three frames at every yield, two of
/// them clean between suspensions, so delta records actually apply.
const DEEP_WF: &str = r#"
(defun leaf (a)
  (let ((x (yield :one))
        (y (yield :two)))
    (list a x y)))
(defun wrap (a) (list :w (leaf (concat "leaf-" a))))
(defun outer (a) (list :outer (wrap a)))
"#;

fn deep_gvm() -> Arc<Gvm> {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(DEEP_WF, "deep-wf").unwrap();
    gvm
}

/// A (base full snapshot, delta record, base state) triple produced by
/// running the workflow one suspension past its first save.
fn delta_fixture(gvm: &Arc<Gvm>) -> (Vec<u8>, Vec<u8>, FiberState) {
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap() else {
        panic!("expected suspension at :one");
    };
    let full1 = serialize_state(&susp1.state, Codec::None).unwrap();
    let state1 = deserialize_state(&full1, gvm).unwrap();
    let RunOutcome::Suspended(susp2) = gvm.resume_fiber(state1, Value::Int(10)).unwrap() else {
        panic!("expected suspension at :two");
    };
    let delta = serialize_state_delta(&susp2.state, susp2.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .expect("clean prefix present, delta applies");
    let base = deserialize_state(&full1, gvm).unwrap();
    (full1, delta, base)
}

fn read_uvarint(data: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = data[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
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

/// Regression for the `Vec::with_capacity(total)` site in
/// `deserialize_state_delta`: a record whose frame-total uvarint claims
/// billions of frames must fail with a typed error once the byte stream
/// runs dry — not abort on a capacity overflow while pre-allocating.
#[test]
fn delta_claiming_huge_frame_total_errors() {
    let gvm = deep_gvm();
    let (_, delta, base) = delta_fixture(&gvm);
    // Envelope: GZ, version, codec (4 bytes) — then the delta payload:
    // marker, prefix uvarint, total uvarint, CRC, meta, frames. The CRC
    // covers only the seeded base prefix, so splicing a new total
    // leaves it valid — exactly what a targeted bit-flip can produce.
    assert_eq!(delta[4], 0xD5, "delta marker expected after envelope");
    let mut pos = 5;
    let _prefix = read_uvarint(&delta, &mut pos);
    let total_start = pos;
    let _total = read_uvarint(&delta, &mut pos);
    let mut forged = delta[..total_start].to_vec();
    write_uvarint(&mut forged, u64::MAX);
    forged.extend_from_slice(&delta[pos..]);
    let err = deserialize_state_delta(&forged, &gvm, &base);
    assert!(err.is_err(), "forged frame total must be a typed error");
}

/// Every strict prefix of a valid full snapshot errors.
#[test]
fn truncated_snapshots_error() {
    let gvm = deep_gvm();
    let (full, _, _) = delta_fixture(&gvm);
    for len in 0..full.len() {
        assert!(
            deserialize_state(&full[..len], &gvm).is_err(),
            "truncation at {len}/{} must error",
            full.len()
        );
    }
    assert!(deserialize_state(&full, &gvm).is_ok());
}

/// Every strict prefix of a valid delta record errors (against the
/// correct base, so only the truncation itself is at fault).
#[test]
fn truncated_deltas_error() {
    let gvm = deep_gvm();
    let (_, delta, base) = delta_fixture(&gvm);
    for len in 0..delta.len() {
        assert!(
            deserialize_state_delta(&delta[..len], &gvm, &base).is_err(),
            "truncation at {len}/{} must error",
            delta.len()
        );
    }
    assert!(deserialize_state_delta(&delta, &gvm, &base).is_ok());
}

/// A delta applied against the wrong base is rejected by the prefix
/// checksum, not silently mis-assembled.
#[test]
fn delta_against_wrong_base_errors() {
    let gvm = deep_gvm();
    let (_, delta, _) = delta_fixture(&gvm);
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(other) = gvm
        .call_fiber(&f, vec![Value::from("different-arg")])
        .unwrap()
    else {
        panic!("expected suspension");
    };
    assert!(deserialize_state_delta(&delta, &gvm, &other.state).is_err());
}

/// Arbitrary bytes through every deserialization entry point: typed
/// errors (or, for value mutations, a decoded value), never a panic.
/// The fuzz target `serial_state` runs this generator at much higher
/// iteration counts.
#[test]
fn arbitrary_bytes_never_panic() {
    let gvm = deep_gvm();
    let (_, _, base) = delta_fixture(&gvm);
    let mut rng = TestRng::new(0xC0FFEE);
    for _ in 0..2000 {
        let len = rng.below(512) as usize;
        let mut bytes = vec![0u8; len];
        for b in &mut bytes {
            *b = rng.next_u64() as u8;
        }
        // Half the cases get a valid envelope header so the payload
        // decoders are actually exercised, not just the magic check.
        if rng.below(2) == 0 && bytes.len() >= 4 {
            bytes[0] = b'G';
            bytes[1] = b'Z';
            bytes[2] = 2; // the one envelope version
            bytes[3] = 0; // Codec::None
        }
        let _ = deserialize_value(&bytes, &gvm);
        let _ = deserialize_state(&bytes, &gvm);
        let _ = deserialize_state_delta(&bytes, &gvm, &base);
    }
}

/// Single-byte mutations of a valid snapshot: any byte, any value. The
/// result may legitimately decode (a flipped payload byte can be
/// another valid value) — the property is no panic and no hang.
#[test]
fn mutated_snapshots_never_panic() {
    let gvm = deep_gvm();
    let (full, delta, base) = delta_fixture(&gvm);
    let mut rng = TestRng::new(0xBEEF);
    for _ in 0..2000 {
        let mut m = full.clone();
        let i = rng.below(m.len() as u64) as usize;
        m[i] = rng.next_u64() as u8;
        let _ = deserialize_state(&m, &gvm);

        let mut d = delta.clone();
        let i = rng.below(d.len() as u64) as usize;
        d[i] = rng.next_u64() as u8;
        let _ = deserialize_state_delta(&d, &gvm, &base);
    }
}

/// Mutated single-value records (the message-body path) never panic.
#[test]
fn mutated_values_never_panic() {
    let gvm = deep_gvm();
    let v = Value::list(vec![
        Value::Int(42),
        Value::str("hello"),
        Value::keyword("k"),
        Value::list(vec![Value::Nil, Value::Bool(true)]),
    ]);
    let bytes = serialize_value(&v, Codec::None).unwrap();
    let mut rng = TestRng::new(0xDEAD);
    for _ in 0..2000 {
        let mut m = bytes.clone();
        let i = rng.below(m.len() as u64) as usize;
        m[i] = rng.next_u64() as u8;
        let _ = deserialize_value(&m, &gvm);
    }
    for len in 0..bytes.len() {
        assert!(deserialize_value(&bytes[..len], &gvm).is_err());
    }
}
