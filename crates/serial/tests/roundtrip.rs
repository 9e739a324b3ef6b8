//! Round-trip tests: values, sharing, and — the paper's core mechanism —
//! suspending a fiber on one VM, serializing it, and resuming it on a
//! *different* VM that loaded the same workflow source (§4.2).

use std::sync::Arc;

use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{deserialize_state, deserialize_value, serialize_state, serialize_value};
use gozer_vm::{Gvm, ObjectVal, RunOutcome};

fn roundtrip_value(v: &Value, gvm: &Arc<Gvm>) -> Value {
    let bytes = serialize_value(v, Codec::Deflate).unwrap();
    deserialize_value(&bytes, gvm).unwrap()
}

#[test]
fn atoms_roundtrip() {
    let gvm = Gvm::with_pool_size(1);
    for src in [
        "nil", "t", "0", "41", "127", "128", "-1", "9223372036854775807", "3.25", "-0.5",
        "#\\x", "\"hello\\nworld\"", ":kw", "'sym",
    ] {
        let v = gvm.eval_str(src).unwrap();
        assert_eq!(roundtrip_value(&v, &gvm), v, "for {src}");
    }
}

#[test]
fn aggregates_roundtrip() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm
        .eval_str("(list 1 [2 3] {:a 4 \"b\" (list 5)} \"str\" :k)")
        .unwrap();
    assert_eq!(roundtrip_value(&v, &gvm), v);
}

#[test]
fn sharing_is_preserved_and_compact() {
    let gvm = Gvm::with_pool_size(1);
    // One big shared string referenced 50 times.
    let v = gvm
        .eval_str(
            "(let ((s (string-join (range 1000) \",\")))
               (loop repeat 50 collect s))",
        )
        .unwrap();
    let bytes = serialize_value(&v, Codec::None).unwrap();
    let items = v.as_list().unwrap();
    let one = items[0].as_str().unwrap().len();
    assert!(
        bytes.len() < one * 3,
        "sharing should deduplicate: {} bytes for 50 x {} chars",
        bytes.len(),
        one
    );
    assert_eq!(roundtrip_value(&v, &gvm), v);
}

#[test]
fn object_identity_and_cycles_survive() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm
        .eval_str(
            "(let ((o (create-object \"message\")))
               (. o (set \"self\" o))
               (. o (set \"n\" 7))
               (list o o))",
        )
        .unwrap();
    let back = roundtrip_value(&v, &gvm);
    let items = back.as_list().unwrap();
    let a = items[0].as_opaque::<ObjectVal>().unwrap();
    let b = items[1].as_opaque::<ObjectVal>().unwrap();
    assert!(std::ptr::eq(a, b), "shared object identity lost");
    assert_eq!(a.get_field("n"), Some(Value::Int(7)));
    let self_ref = a.get_field("self").unwrap();
    let inner = self_ref.as_opaque::<ObjectVal>().unwrap();
    assert!(std::ptr::eq(a, inner), "cycle broken");
}

#[test]
fn closures_roundtrip_via_program_registry() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm
        .eval_str("(defun add-n (n) (lambda (x) (+ x n))) (add-n 5)")
        .unwrap();
    let back = roundtrip_value(&v, &gvm);
    let r = gvm.call_sync(&back, vec![Value::Int(10)]).unwrap();
    assert_eq!(r, Value::Int(15));
}

#[test]
fn natives_roundtrip_by_name() {
    let gvm = Gvm::with_pool_size(1);
    let plus = gvm.function("+").unwrap();
    let back = roundtrip_value(&plus, &gvm);
    assert_eq!(
        gvm.call_sync(&back, vec![Value::Int(2), Value::Int(3)]).unwrap(),
        Value::Int(5)
    );
}

#[test]
fn missing_program_is_a_clear_error() {
    let gvm1 = Gvm::with_pool_size(1);
    let v = gvm1.eval_str("(lambda (x) x)").unwrap();
    let bytes = serialize_value(&v, Codec::Deflate).unwrap();
    let gvm2 = Gvm::with_pool_size(1); // did NOT load the source
    let err = deserialize_value(&bytes, &gvm2).unwrap_err();
    assert!(err.to_string().contains("not loaded"), "{err}");
}

const WORKFLOW_SRC: &str = "
(defun migrating-wf (base)
  (let ((a (+ base 1))
        (b (yield :first))
        (c (yield :second)))
    (list a b c ^ignored^)))
";

const SIMPLE_WF: &str = "
(defun simple-wf (base)
  (let ((a (+ base 1))
        (b (yield :first))
        (c (yield :second)))
    (list a b c)))
";

#[test]
fn fiber_migrates_between_vms() {
    let _ = WORKFLOW_SRC; // the task-var variant belongs to the vinz tests
    // Node 1: start the workflow, run to the first yield.
    let gvm1 = Gvm::with_pool_size(1);
    gvm1.load_str(SIMPLE_WF, "wf").unwrap();
    let f = gvm1.function("simple-wf").unwrap();
    let RunOutcome::Suspended(susp) = gvm1.call_fiber(&f, vec![Value::Int(10)]).unwrap() else {
        panic!("expected suspension at first yield");
    };
    assert_eq!(susp.payload, Value::keyword("first"));
    let bytes = serialize_state(&susp.state, Codec::Deflate).unwrap();

    // Node 2: a different VM that loaded the same source.
    let gvm2 = Gvm::with_pool_size(1);
    gvm2.load_str(SIMPLE_WF, "wf").unwrap();
    let state = deserialize_state(&bytes, &gvm2).unwrap();
    let RunOutcome::Suspended(susp2) = gvm2.resume_fiber(state, Value::Int(100)).unwrap() else {
        panic!("expected suspension at second yield");
    };
    assert_eq!(susp2.payload, Value::keyword("second"));

    // Node 3: migrate again mid-flight.
    let bytes2 = serialize_state(&susp2.state, Codec::Gzip).unwrap();
    let gvm3 = Gvm::with_pool_size(1);
    gvm3.load_str(SIMPLE_WF, "wf").unwrap();
    let state = deserialize_state(&bytes2, &gvm3).unwrap();
    let RunOutcome::Done(v) = gvm3.resume_fiber(state, Value::Int(200)).unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(v, gvm3.eval_str("(list 11 100 200)").unwrap());
}

#[test]
fn fiber_with_handlers_and_ext_migrates() {
    let src = "
(defun wf ()
  (restart-case
    (handler-bind (lambda (c) (invoke-restart 'use-default))
      (progn
        (yield :pausing)
        (error \"post-resume failure\")))
    (use-default () :recovered)))
";
    let gvm1 = Gvm::with_pool_size(1);
    gvm1.load_str(src, "wf2").unwrap();
    let f = gvm1.function("wf").unwrap();
    let mut state = gvm1.fiber_for(&f, vec![]).unwrap();
    state.ext.set("task-id", Value::Int(99));
    let RunOutcome::Suspended(susp) = gvm1.run_fiber(state).unwrap() else {
        panic!("expected suspension");
    };
    let bytes = serialize_state(&susp.state, Codec::Deflate).unwrap();

    let gvm2 = Gvm::with_pool_size(1);
    gvm2.load_str(src, "wf2").unwrap();
    let state = deserialize_state(&bytes, &gvm2).unwrap();
    assert_eq!(state.ext.get("task-id"), Some(&Value::Int(99)));
    // The restart-case/handler survive migration: the post-resume error
    // is handled by the migrated handler.
    let RunOutcome::Done(v) = gvm2.resume_fiber(state, Value::Nil).unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(v, Value::keyword("recovered"));
}

#[test]
fn compression_codecs_equivalent_for_state() {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(SIMPLE_WF, "wf").unwrap();
    let f = gvm.function("simple-wf").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![Value::Int(1)]).unwrap() else {
        panic!()
    };
    let raw = serialize_state(&susp.state, Codec::None).unwrap();
    let defl = serialize_state(&susp.state, Codec::Deflate).unwrap();
    let gz = serialize_state(&susp.state, Codec::Gzip).unwrap();
    for bytes in [&raw, &defl, &gz] {
        let state = deserialize_state(bytes, &gvm).unwrap();
        assert_eq!(state.frames.len(), susp.state.frames.len());
    }
    assert!(gz.len() > defl.len(), "gzip carries framing overhead");
}

/// Build a random serializable value tree from the chaos harness's
/// seeded PRNG — the same generator family the distributed chaos suite
/// uses, so `CHAOS_SEED=<n>` replays a failing tree exactly.
fn random_tree(rng: &mut bluebox::ChaosRng, depth: u32) -> Value {
    // Leaves only at the bottom; aggregates become available above it.
    let choice = if depth == 0 { rng.below(8) } else { rng.below(11) };
    match choice {
        0 => Value::Nil,
        1 => Value::Bool(true),
        2 => Value::Int(rng.next_u64() as i64),
        // Dyadic rationals stay exact through any float round-trip.
        3 => Value::Float(rng.range_i64(-1 << 40, 1 << 40) as f64 / 1024.0),
        4 => Value::symbol(&format!("s{}", rng.below(10_000))),
        5 => Value::keyword(&format!("k{}", rng.below(10_000))),
        6 => {
            let len = rng.below(20) as usize;
            let s: String = (0..len)
                .map(|_| (b' ' + rng.below(95) as u8) as char)
                .collect();
            Value::from(s.as_str())
        }
        7 => Value::Char((b'a' + rng.below(26) as u8) as char),
        8 | 9 => {
            let items: Vec<Value> = (0..rng.below(5))
                .map(|_| random_tree(rng, depth - 1))
                .collect();
            if choice == 8 {
                Value::list(items)
            } else {
                Value::vector(items)
            }
        }
        _ => {
            let pairs: Vec<(Value, Value)> = (0..rng.below(4))
                .map(|_| (random_tree(rng, 0), random_tree(rng, depth - 1)))
                .collect();
            Value::Map(Arc::new(gozer_lang::AssocMap::from_pairs(pairs)))
        }
    }
}

#[test]
fn seeded_random_trees_roundtrip_none_and_deflate() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xB1EB_0B00);
    let gvm = Gvm::with_pool_size(1);
    let mut rng = bluebox::ChaosRng::new(seed);
    for case in 0..256 {
        // Each case gets its own split stream, so one tree's shape never
        // depends on how much randomness earlier trees consumed.
        let mut case_rng = rng.split();
        let v = random_tree(&mut case_rng, 3);
        for codec in [Codec::None, Codec::Deflate] {
            let bytes = serialize_value(&v, codec).unwrap_or_else(|e| {
                panic!(
                    "case {case} failed to serialize under {codec:?}: {e}\n  \
                     replay: CHAOS_SEED={seed} cargo test -p gozer-serial \
                     --test roundtrip seeded_random_trees\n  value: {v:?}"
                )
            });
            let back = deserialize_value(&bytes, &gvm).unwrap_or_else(|e| {
                panic!(
                    "case {case} failed to deserialize under {codec:?}: {e}\n  \
                     replay: CHAOS_SEED={seed} cargo test -p gozer-serial \
                     --test roundtrip seeded_random_trees\n  value: {v:?}"
                )
            });
            assert_eq!(
                back, v,
                "case {case} round-trip mismatch under {codec:?}\n  \
                 replay: CHAOS_SEED={seed} cargo test -p gozer-serial \
                 --test roundtrip seeded_random_trees"
            );
        }
    }
}

#[test]
fn corrupted_payload_is_rejected() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm.eval_str("(list 1 2 3)").unwrap();
    let mut bytes = serialize_value(&v, Codec::Gzip).unwrap();
    let n = bytes.len();
    bytes[n - 3] ^= 0x55;
    assert!(deserialize_value(&bytes, &gvm).is_err());
}

#[test]
fn corrupt_deep_nesting_is_an_error_not_a_crash() {
    // Hand-craft a payload of 100k nested single-element lists: tag 9
    // (List), count 1, repeated, behind the envelope (magic, version,
    // codec none) of something this crate wrote.
    let mut payload = Vec::new();
    for _ in 0..100_000 {
        payload.push(9u8); // Tag::List
        payload.push(1u8); // count = 1 (varint)
    }
    payload.push(0u8); // innermost Nil
    let mut bytes = serialize_value(&Value::Nil, Codec::None).unwrap()[..4].to_vec();
    bytes.extend_from_slice(&payload);
    let gvm = Gvm::with_pool_size(1);
    let err = deserialize_value(&bytes, &gvm).unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}
