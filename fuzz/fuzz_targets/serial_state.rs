//! Fuzz target: `gozer-serial` value and full-snapshot deserialization.
//! Arbitrary bytes and mutated valid records must produce `Err` or a
//! decoded value — never panic, never hang (the reader consumes at least
//! one byte per loop iteration by construction; a wedge here would trip
//! the smoke-runner timeout).

use std::sync::Arc;

use gozer_compress::Codec;
use gozer_fuzz::{drive, mutate, random_bytes};
use gozer_lang::Value;
use gozer_serial::{deserialize_state, deserialize_value, serialize_state, serialize_value};
use gozer_vm::{Gvm, RunOutcome};

const WF: &str = r#"
(defun leaf (a)
  (let ((x (yield :one)) (y (yield :two))) (list a x y)))
(defun wrap (a) (list :w (leaf (concat "leaf-" a))))
(defun outer (a) (list :outer (wrap a)))
"#;

fn fixtures(gvm: &Arc<Gvm>) -> (Vec<u8>, Vec<u8>) {
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap()
    else {
        panic!("expected suspension");
    };
    let snapshot = serialize_state(&susp.state, Codec::None).unwrap();
    let value = serialize_value(
        &Value::list(vec![
            Value::Int(42),
            Value::str("hello"),
            Value::keyword("k"),
            Value::list(vec![Value::Nil, Value::Bool(true)]),
        ]),
        Codec::None,
    )
    .unwrap();
    (snapshot, value)
}

fn main() {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(WF, "fuzz-wf").unwrap();
    let (snapshot, value) = fixtures(&gvm);
    drive("serial_state", |rng| {
        let bytes = match rng.below(4) {
            // Pure garbage.
            0 => random_bytes(rng, 512),
            // Garbage behind a valid envelope (the fixture's: current
            // version, Codec::None) so the payload decoders are exercised.
            1 => {
                let mut b = random_bytes(rng, 512);
                if b.len() >= 4 {
                    b[..4].copy_from_slice(&snapshot[..4]);
                }
                b
            }
            // Mutated/truncated valid snapshot.
            2 => mutate(rng, &snapshot, 4),
            // Mutated/truncated valid value record.
            _ => mutate(rng, &value, 4),
        };
        let _ = deserialize_value(&bytes, &gvm);
        let _ = deserialize_state(&bytes, &gvm);
    });
}
