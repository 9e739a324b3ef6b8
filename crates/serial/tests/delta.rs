//! Delta snapshot tests: a fiber saved as base + delta must reconstitute
//! bit-identically to the writer's state, fall back to full snapshots
//! when a delta would be unsound, and reject mismatched bases. Plus the
//! format-v2 dictionary property: dictionary-coded round trips equal
//! plain (v1-style) round trips for arbitrary values.

use std::sync::Arc;

use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::{
    deserialize_state, deserialize_state_delta, serialize_state, serialize_state_base,
    serialize_state_delta, serialize_state_delta_costed, serialize_value, SeedUse, ValueReader,
    ValueWriter,
};
use gozer_vm::{Gvm, RunOutcome};

/// Three frames deep at every yield: outer → wrap → leaf, with the two
/// outer frames untouched between suspensions — the delta sweet spot.
const DEEP_WF: &str = r#"
(defun leaf (a)
  (let ((x (yield :one))
        (y (yield :two))
        (z (yield :three)))
    (list a x y z)))
(defun wrap (a) (list :w (leaf (concat "leaf-" a))))
(defun outer (a) (list :outer (wrap a)))
"#;

fn deep_gvm() -> Arc<Gvm> {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(DEEP_WF, "deep-wf").unwrap();
    gvm
}

fn suspend(gvm: &Arc<Gvm>, state: gozer_vm::FiberState, v: Value) -> gozer_vm::Suspension {
    match gvm.resume_fiber(state, v).unwrap() {
        RunOutcome::Suspended(s) => s,
        RunOutcome::Done(v) => panic!("expected suspension, finished with {v:?}"),
    }
}

#[test]
fn delta_reconstitutes_bit_identical_and_resumes() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap() else {
        panic!("expected suspension at :one");
    };
    // Save 1: a fresh fiber has no clean prefix — full snapshot.
    assert_eq!(susp1.state.clean_prefix, 0);
    let full1 = serialize_state(&susp1.state, Codec::None).unwrap();

    // Writer node: load (all frames clean), run to the next yield.
    let state1 = deserialize_state(&full1, &gvm).unwrap();
    assert_eq!(state1.clean_prefix, state1.frames.len());
    let susp2 = suspend(&gvm, state1, Value::Int(10));
    // Only the leaf frame ran: outer and wrap stayed clean.
    assert_eq!(susp2.state.frames.len(), 3);
    assert_eq!(susp2.state.clean_prefix, 2);

    // Save 2: delta against the last snapshot.
    let delta1 = serialize_state_delta(&susp2.state, susp2.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .expect("clean prefix present, delta applies");
    let full2 = serialize_state(&susp2.state, Codec::None).unwrap();
    assert!(
        delta1.len() < full2.len(),
        "delta ({}) should be smaller than full ({})",
        delta1.len(),
        full2.len()
    );

    // Reader node: reconstitute base + delta, compare bit-for-bit.
    let base = deserialize_state(&full1, &gvm).unwrap();
    let rec2 = deserialize_state_delta(&delta1, &gvm, &base).unwrap();
    assert_eq!(rec2.clean_prefix, rec2.frames.len());
    assert_eq!(
        serialize_state(&rec2, Codec::None).unwrap(),
        full2,
        "delta-reconstituted state must re-serialize bit-identically"
    );

    // Chain a second delta (writer continues from its live state after a
    // successful save, so its clean prefix resets to the full stack).
    let mut live = susp2.state;
    live.clean_prefix = live.frames.len();
    let susp3 = suspend(&gvm, live, Value::Int(20));
    assert_eq!(susp3.state.clean_prefix, 2);
    let delta2 = serialize_state_delta(&susp3.state, susp3.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .expect("second delta applies");
    let rec3 = deserialize_state_delta(&delta2, &gvm, &rec2).unwrap();
    assert_eq!(
        serialize_state(&rec3, Codec::None).unwrap(),
        serialize_state(&susp3.state, Codec::None).unwrap(),
        "chained delta must stay bit-identical"
    );

    // Both sides finish with the same value.
    let RunOutcome::Done(via_delta) = gvm.resume_fiber(rec3, Value::Int(30)).unwrap() else {
        panic!("expected completion");
    };
    let RunOutcome::Done(via_writer) = gvm.resume_fiber(susp3.state, Value::Int(30)).unwrap()
    else {
        panic!("expected completion");
    };
    assert_eq!(via_delta, via_writer);
    assert_eq!(
        via_delta,
        gvm.eval_str("(list :outer (list :w (list \"leaf-job\" 10 20 30)))")
            .unwrap()
    );
}

#[test]
fn delta_compresses_too() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![Value::from("z")]).unwrap() else {
        panic!();
    };
    let full1 = serialize_state(&susp1.state, Codec::Deflate).unwrap();
    let state1 = deserialize_state(&full1, &gvm).unwrap();
    let susp2 = suspend(&gvm, state1, Value::Int(1));
    let delta = serialize_state_delta(&susp2.state, susp2.state.clean_prefix, Codec::Deflate, 256)
        .unwrap()
        .unwrap();
    let base = deserialize_state(&full1, &gvm).unwrap();
    let rec = deserialize_state_delta(&delta, &gvm, &base).unwrap();
    assert_eq!(
        serialize_state(&rec, Codec::None).unwrap(),
        serialize_state(&susp2.state, Codec::None).unwrap()
    );
}

#[test]
fn mutable_object_in_clean_frames_forces_full_snapshot() {
    let src = r#"
(defun holder ()
  (let ((o (create-object "message")))
    (. o (set "n" 1))
    (list :h (inner o))))
(defun inner (o)
  (yield :a)
  (yield :b)
  o)
"#;
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(src, "obj-wf").unwrap();
    let f = gvm.function("holder").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![]).unwrap() else {
        panic!();
    };
    let full1 = serialize_state(&susp1.state, Codec::None).unwrap();
    let state1 = deserialize_state(&full1, &gvm).unwrap();
    let susp2 = suspend(&gvm, state1, Value::Nil);
    assert!(susp2.state.clean_prefix > 0, "outer frame should be clean");
    // The clean frame holds a mutable object whose fields can drift
    // without any frame mutation — the delta writer must refuse.
    let delta =
        serialize_state_delta(&susp2.state, susp2.state.clean_prefix, Codec::None, 256).unwrap();
    assert!(delta.is_none(), "mutable object must force a full snapshot");
}

#[test]
fn delta_against_wrong_base_is_rejected() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp_a) = gvm.call_fiber(&f, vec![Value::from("aaa")]).unwrap()
    else {
        panic!();
    };
    let RunOutcome::Suspended(susp_b) = gvm.call_fiber(&f, vec![Value::from("bbb")]).unwrap()
    else {
        panic!();
    };
    let full_a = serialize_state(&susp_a.state, Codec::None).unwrap();
    let full_b = serialize_state(&susp_b.state, Codec::None).unwrap();
    let state_a = deserialize_state(&full_a, &gvm).unwrap();
    let susp_a2 = suspend(&gvm, state_a, Value::Int(1));
    let delta = serialize_state_delta(&susp_a2.state, susp_a2.state.clean_prefix, Codec::None, 256)
        .unwrap()
        .unwrap();
    let wrong_base = deserialize_state(&full_b, &gvm).unwrap();
    let err = deserialize_state_delta(&delta, &gvm, &wrong_base).unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
}

#[test]
fn delta_skipped_without_clean_prefix() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![Value::from("x")]).unwrap() else {
        panic!();
    };
    assert_eq!(
        serialize_state_delta(&susp.state, 0, Codec::None, 256).unwrap(),
        None
    );
}

// ---- seed cache: a warm writer/reader is indistinguishable from a cold one ----

/// A stack the driver steers through the value it resumes each `yield`
/// with: 0 returns from the current level, 1 and 2 call one level deeper
/// (handing down the task-wide value or this frame's own list, so `Arc`s,
/// strings and symbols are shared across whatever becomes the clean/dirty
/// boundary), 3 parks a mutable object in this frame, anything else
/// rebuilds this frame's list. Each branch brings symbols and an
/// equal-content string no frame below need have seen.
const STEERED_WF: &str = r#"
(defun level (depth shared)
  (let ((keep (list depth shared "tag" 'level :k))
        (go t))
    (while go
      (let ((cmd (yield (list :at depth))))
        (cond ((= cmd 0) (setq go nil))
              ((= cmd 1) (setq keep (list 'went-down (level (+ depth 1) shared) keep)))
              ((= cmd 2) (setq keep (list :handed-down (level (+ depth 1) keep) shared)))
              ((= cmd 3) (setq keep (list (create-object "message") keep)))
              (t (setq keep (list cmd "tag" 'rebuilt :rebuilt (concat "tag-" "fresh") keep))))))
    keep))
(defun root (shared) (list :root (level 1 shared) (yield :last)))
"#;

fn steered_start(gvm: &Arc<Gvm>, tag: &str) -> gozer_vm::Suspension {
    let shared = Value::vector(vec![
        Value::from(tag),
        Value::from("tag"),
        Value::symbol("level"),
        Value::keyword("k"),
        Value::list((0..40).map(Value::Int).collect()),
    ]);
    let f = gvm.function("root").unwrap();
    match gvm.call_fiber(&f, vec![shared]).unwrap() {
        RunOutcome::Suspended(s) => s,
        RunOutcome::Done(v) => panic!("expected suspension, finished with {v:?}"),
    }
}

/// Every prefix of `warm`, in a seeded order so the cache is both cut
/// back and extended: the record (or the refusal) must equal a writer
/// that starts with no cache. A clone is such a writer.
fn assert_warm_equals_cold(warm: &gozer_vm::FiberState, rng: &mut bluebox::ChaosRng, ctx: &str) {
    let n = warm.frames.len();
    let mut order: Vec<usize> = (1..=n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // Twice: the second pass finds the tables the first pass left.
    for p in order.iter().chain(order.iter()) {
        let got = serialize_state_delta(warm, *p, Codec::None, 64).unwrap();
        let want = serialize_state_delta(&warm.clone(), *p, Codec::None, 64).unwrap();
        assert_eq!(got, want, "{ctx}: prefix {p} of {n} frames");
    }
}

#[test]
fn warm_cache_is_bit_identical_to_cold_for_random_suspension_sequences() {
    let seed = std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD17A_5EED);
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(STEERED_WF, "steered-wf").unwrap();
    let mut rng = bluebox::ChaosRng::new(seed);
    // A reader-side base no record of this test was written against.
    let stranger = deserialize_state(
        &serialize_state(&steered_start(&gvm, "someone-else").state, Codec::None).unwrap(),
        &gvm,
    )
    .unwrap();

    for case in 0..24 {
        let mut rng = rng.split();
        let ctx = format!(
            "case {case}; replay: CHAOS_SEED={seed} cargo test -p gozer-serial --test delta warm_cache"
        );
        let mut susp = steered_start(&gvm, &format!("job-{case}"));
        // The reader's copy of the chain, replayed with its cache threaded
        // through every step.
        let mut replayed =
            deserialize_state(&serialize_state(&susp.state, Codec::None).unwrap(), &gvm).unwrap();
        let mut saw_object = false;
        for step in 0..40 {
            let ctx = format!("{ctx}, step {step}");
            let state = &susp.state;
            let full = serialize_state(state, Codec::None).unwrap();

            // One save in four is a compaction: a full snapshot, written
            // over a cache the previous step's probes left describing
            // frames this step may have changed.
            let delta = match rng.below(4) {
                0 => None,
                _ => serialize_state_delta(state, state.clean_prefix, Codec::None, 64).unwrap(),
            };
            // Decoded by a reader whose cache came down the chain and by
            // one that has none.
            match &delta {
                Some(delta) => {
                    let cold = deserialize_state_delta(delta, &gvm, &replayed.clone()).unwrap();
                    let threaded = deserialize_state_delta(delta, &gvm, &replayed).unwrap();
                    assert_eq!(
                        serialize_state(&threaded, Codec::None).unwrap(),
                        full,
                        "{ctx}"
                    );
                    assert_eq!(serialize_state(&cold, Codec::None).unwrap(), full, "{ctx}");
                    // Cold first, then with the tables that attempt left.
                    for _ in 0..2 {
                        let err = deserialize_state_delta(delta, &gvm, &stranger).unwrap_err();
                        assert!(err.to_string().contains("mismatch"), "{ctx}: {err}");
                    }
                    replayed = threaded;
                    assert_warm_equals_cold(state, &mut rng, &ctx);
                }
                None => {
                    // The full save of a chain's base: the same bytes, and
                    // tables no prefix can tell from a cold walk's.
                    let base = serialize_state_base(state, Codec::None, 64).unwrap();
                    assert_eq!(base, full, "{ctx}");
                    assert_warm_equals_cold(state, &mut rng, &ctx);
                    replayed = deserialize_state(&full, &gvm).unwrap();
                }
            }
            assert_warm_equals_cold(&replayed, &mut rng, &ctx);

            // Saved: everything is clean until the fiber runs again.
            let mut state = susp.state;
            state.clean_prefix = state.frames.len();
            let depth = state.frames.len();
            let cmd = match rng.below(10) {
                0..=2 if depth > 2 => 0,
                0..=4 if depth < 7 => 1 + rng.below(2) as i64,
                5 if !saw_object => 3,
                _ => 10 + step,
            };
            saw_object |= cmd == 3;
            susp = match gvm.resume_fiber(state, Value::Int(cmd)).unwrap() {
                RunOutcome::Suspended(s) => s,
                RunOutcome::Done(_) => break,
            };
        }
    }
}

#[test]
fn a_base_save_leaves_the_next_delta_nothing_to_walk() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp1) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap() else {
        panic!("expected suspension at :one");
    };
    // First suspension: nothing to be a delta of.
    let mut state = susp1.state;
    let base = serialize_state_base(&state, Codec::None, 64).unwrap();
    assert_eq!(base, serialize_state(&state, Codec::None).unwrap());
    state.clean_prefix = state.frames.len();
    let state = suspend(&gvm, state, Value::Int(10)).state;
    assert_eq!(state.clean_prefix, 2);

    let cold = serialize_state_delta_costed(&state.clone(), 2, Codec::None, 64).unwrap();
    let warm = serialize_state_delta_costed(&state, 2, Codec::None, 64).unwrap();
    let frames = |reused, walked| SeedUse { reused, walked };
    assert_eq!(cold.1, frames(0, 2));
    assert_eq!(warm.1, frames(2, 0));
    assert_eq!(warm.0, cold.0);
    // And a reader holding only the base's bytes applies it.
    let loaded = deserialize_state(&base, &gvm).unwrap();
    let applied = deserialize_state_delta(&warm.0.unwrap(), &gvm, &loaded).unwrap();
    assert_eq!(
        serialize_state(&applied, Codec::None).unwrap(),
        serialize_state(&state, Codec::None).unwrap()
    );
}

#[test]
fn mutable_object_is_refused_by_warm_and_cold_alike() {
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(STEERED_WF, "steered-wf").unwrap();
    let mut susp = steered_start(&gvm, "obj");
    // root → level 1 → level 2, then an object lands in level 2's frame
    // and level 3 is called above it.
    for cmd in [1, 3, 1] {
        let mut state = susp.state;
        state.clean_prefix = state.frames.len();
        // Warm the cache below the frame that is about to hold the object.
        serialize_state_delta(&state, state.frames.len() - 1, Codec::None, 64).unwrap();
        susp = suspend(&gvm, state, Value::Int(cmd));
    }
    let state = susp.state;
    assert_eq!(state.frames.len(), 4);
    for _ in 0..2 {
        for p in 1..=4 {
            let warm = serialize_state_delta(&state, p, Codec::None, 64).unwrap();
            let cold = serialize_state_delta(&state.clone(), p, Codec::None, 64).unwrap();
            assert_eq!(warm, cold, "prefix {p}");
            // frames[2] is level 2: any prefix that includes it is unsound.
            assert_eq!(warm.is_some(), p <= 2, "prefix {p}");
        }
    }
}

#[test]
fn reentered_continuation_never_sees_the_abandoned_stacks_cache() {
    // `inner` captures below `outer`, whose `note` changes after the
    // capture; re-entering puts the *old* `outer` frame back under a cache
    // that was seeded from the new one.
    let src = r#"
(defvar *k* nil)
(defun inner (tag)
  (let ((v (push-cc)))
    (when (equal (type-of v) 'continuation)
      (setq *k* v)
      (setq v :first))
    (list tag v (yield (list :inner v)))))
(defun outer (tag)
  (let ((note (concat "note-" tag))
        (got nil))
    (setq got (inner tag))
    (setq note (concat note "-changed"))
    (let ((n (yield (list :outer got))))
      (if (< n 3)
          (%resume-cc *k* n)
          (list note got n)))))
"#;
    let gvm = Gvm::with_pool_size(1);
    gvm.load_str(src, "cc-wf").unwrap();
    let mut rng = bluebox::ChaosRng::new(7);
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(mut susp) = gvm.call_fiber(&f, vec![Value::from("x")]).unwrap()
    else {
        panic!("expected suspension in inner");
    };
    // :inner :first, :outer, then two re-entries of the same continuation.
    for (step, resume) in [10, 1, 11, 2, 12].into_iter().enumerate() {
        assert_warm_equals_cold(&susp.state, &mut rng, &format!("step {step}"));
        let mut state = susp.state;
        state.clean_prefix = state.frames.len();
        susp = suspend(&gvm, state, Value::Int(resume));
    }
    assert_warm_equals_cold(&susp.state, &mut rng, "last");
    let RunOutcome::Done(v) = gvm.resume_fiber(susp.state, Value::Int(3)).unwrap() else {
        panic!("expected completion");
    };
    assert_eq!(
        v,
        gvm.eval_str("(list \"note-x-changed\" (list \"x\" 2 12) 3)")
            .unwrap()
    );
}

#[test]
fn redelivered_resume_from_one_cached_version_starts_cold() {
    let gvm = deep_gvm();
    let f = gvm.function("outer").unwrap();
    let RunOutcome::Suspended(susp) = gvm.call_fiber(&f, vec![Value::from("job")]).unwrap() else {
        panic!("expected suspension at :one");
    };
    let mut cached = suspend(&gvm, susp.state, Value::Int(1)).state;
    cached.clean_prefix = cached.frames.len();
    serialize_state_delta(&cached, 2, Codec::None, 64)
        .unwrap()
        .unwrap();
    // What the node cache does on a hit: the state that runs is the
    // cached one, tables and all; a second delivery of the same version
    // finds no entry and runs a cold copy.
    let second = cached.clone();
    let first = cached;
    let mut rng = bluebox::ChaosRng::new(11);
    // The two deliveries diverge; each must encode as if alone.
    let a = suspend(&gvm, first, Value::from("first delivery")).state;
    let b = suspend(&gvm, second, Value::from("redelivery")).state;
    assert_warm_equals_cold(&a, &mut rng, "first delivery");
    assert_warm_equals_cold(&b, &mut rng, "redelivery");
    assert_ne!(
        serialize_state_delta(&a, 2, Codec::None, 64).unwrap(),
        serialize_state_delta(&b, 2, Codec::None, 64).unwrap()
    );
}

#[test]
fn dictionary_shrinks_repeated_symbols() {
    let gvm = Gvm::with_pool_size(1);
    let v = gvm
        .eval_str("(loop repeat 64 collect (list 'reconcile-positions :instrument-id))")
        .unwrap();
    let with_dict = serialize_value(&v, Codec::None).unwrap();
    let mut plain = ValueWriter::without_dictionary();
    plain.write_value(&v).unwrap();
    let plain = plain.finish();
    assert!(
        with_dict.len() * 2 < plain.len(),
        "dictionary coding should at least halve repeated symbols: {} vs {}",
        with_dict.len(),
        plain.len()
    );
}

// ---- property test: dictionary coding is observationally invisible ----

mod dict_props {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Nil),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            (-1i64 << 48..1i64 << 48).prop_map(Value::Int),
            // Dyadic rationals survive float round trips exactly.
            (-1i64 << 40..1i64 << 40).prop_map(|n| Value::Float(n as f64 / 1024.0)),
            "[a-z][a-z0-9-]{0,6}".prop_map(|s| Value::symbol(&s)),
            "[a-z][a-z0-9-]{0,6}".prop_map(|s| Value::keyword(&s)),
            "[ -~]{0,12}".prop_map(|s| Value::from(s.as_str())),
            proptest::char::range('a', 'z').prop_map(Value::Char),
        ];
        leaf.prop_recursive(3, 32, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::list),
                proptest::collection::vec(inner.clone(), 0..5).prop_map(Value::vector),
                proptest::collection::vec(("[a-z]{1,5}", inner), 0..4).prop_map(|pairs| {
                    let pairs: Vec<(Value, Value)> = pairs
                        .into_iter()
                        .map(|(k, v)| (Value::keyword(&k), v))
                        .collect();
                    Value::Map(Arc::new(gozer_lang::AssocMap::from_pairs(pairs)))
                }),
            ]
        })
    }

    proptest! {
        /// For arbitrary values, a dictionary-coded round trip and a
        /// plain (dictionary-off, v1-shaped) round trip agree with each
        /// other and with the original value.
        #[test]
        fn dictionary_roundtrip_equals_plain(v in value_strategy()) {
            let gvm = Gvm::with_pool_size(1);
            let coded = serialize_value(&v, Codec::None).unwrap();
            let via_dict = gozer_serial::deserialize_value(&coded, &gvm).unwrap();
            prop_assert_eq!(&via_dict, &v);

            let mut plain = ValueWriter::without_dictionary();
            plain.write_value(&v).unwrap();
            let plain = plain.finish();
            let mut r = ValueReader::new(&plain, &gvm);
            let via_plain = r.read_value().unwrap();
            prop_assert_eq!(&via_plain, &v);
            prop_assert_eq!(&via_dict, &via_plain);
        }
    }
}
