//! Full-vs-delta snapshot equivalence under deterministic chaos.
//!
//! Delta persistence is a pure encoding change: a fiber reconstituted
//! from base + delta chain must be bit-identical to one saved whole, so
//! two runs of the same `(workload, seed)` — one with delta snapshots
//! off, one with them on — must produce the same final value and
//! execute the exact same opcodes. The turbulence sweep's fiber saves
//! often enough that its chain is compacted on every seed. The
//! survivability preset additionally kills nodes and crashes
//! instances, so the delta-side runs resume from delta chains after
//! node kills, with chaos armed the whole time.

use std::collections::BTreeMap;

use gozer_lang::Value;
use vinz::testing::{
    chaos_seeds, repro_command, run_workflow_under_chaos_store, ChaosConfig, ChaosRun,
};
use vinz::VinzConfig;

/// Three frames deep at every suspension (`main` → `mid` → `leaf`, all
/// non-tail), with [`JOINS`] *sequential* fork+joins in the leaf: every
/// resume re-runs only the leaf frame, which is exactly the shape delta
/// snapshots exist for. Each `join-process` suspends on a unique child
/// id and `JoinProcess` resumes are deduplicated by target, so every
/// fiber segment runs exactly once no matter how messages are dropped,
/// duplicated, or reordered — per-seed opcode totals are
/// schedule-independent.
const DEEP_SEQ_WF: &str = "
(defun triple (n) (* n 3))
(defun leaf (n)
  (let ((acc 0))
    (dotimes (i 12 acc)
      (setq acc (+ acc (join-process (fork-and-exec #'triple :argument n)))))))
(defun mid (n) (+ 1 (leaf n)))
(defun main (n) (+ (mid n) 1))
";

/// The `dotimes` count of `DEEP_SEQ_WF`, its `join-process` calls per
/// task: `main` suspends this often, more than the 8 deltas a chain
/// holds before it is compacted, while its children never suspend.
const JOINS: u64 = 12;

/// Parallel-forking variant: the parent suspends once per child
/// wake-up, so its repeated saves exercise the delta path (the sleeps
/// only add scheduling jitter — children never suspend). Parent
/// wake-loop lengths are schedule-dependent (so opcode totals are not
/// comparable), but named-function call counts are.
const DEEP_FORK_WF: &str = "
(defun inner (i) (progn (sleep-millis 2) (* i i)))
(defun square (i) (+ 0 (inner i)))
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (square i))))
";

fn full_config() -> VinzConfig {
    VinzConfig {
        delta_snapshots: false,
        ..VinzConfig::default()
    }
}

fn delta_config() -> VinzConfig {
    VinzConfig {
        delta_snapshots: true,
        ..VinzConfig::default()
    }
}

fn calls_by_name(run: &ChaosRun) -> BTreeMap<String, u64> {
    run.profile
        .functions
        .iter()
        .map(|(name, f)| (name.clone(), f.calls))
        .collect()
}

fn fail_sweep(test: &str, failures: Vec<String>) {
    if failures.is_empty() {
        return;
    }
    let repros: Vec<String> = failures
        .iter()
        .filter_map(|f| f.split(':').next())
        .filter_map(|s| s.strip_prefix("seed "))
        .filter_map(|s| s.trim().parse::<u64>().ok())
        .map(|seed| {
            format!(
                "    {}",
                repro_command("-p vinz --test delta_equivalence", test, seed)
            )
        })
        .collect();
    panic!(
        "{} seed(s) failed:\n  {}\n  replay with:\n{}",
        failures.len(),
        failures.join("\n  "),
        repros.join("\n")
    );
}

/// 16 seeds, turbulence preset (drops, delays, duplicates, reordering —
/// no crashes, so opcode totals are exactly comparable): the delta
/// deployment must match the full-snapshot deployment opcode for
/// opcode, must actually take the delta path, and must compact a chain
/// on every seed.
#[test]
fn delta_resume_is_opcode_identical_sixteen_seeds() {
    let mut failures = Vec::new();
    let mut total_delta_saves = 0u64;
    let mut total_persists = 0u64;
    for &seed in &chaos_seeds(16) {
        let run = |vinz: VinzConfig, label: &str| -> Result<ChaosRun, String> {
            let r = run_workflow_under_chaos_store(
                DEEP_SEQ_WF,
                "main",
                vec![Value::Int(5)],
                ChaosConfig::turbulence(seed),
                vinz,
                None,
                None,
            )
            .map_err(|e| format!("seed {seed}: {label}: {e}"))?;
            if r.value != Value::Int(JOINS as i64 * 15 + 2) {
                return Err(format!("seed {seed}: {label}: wrong result {:?}", r.value));
            }
            Ok(r)
        };
        let (full, delta) = match (run(full_config(), "full"), run(delta_config(), "delta")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        if full.delta_saves != 0 {
            failures.push(format!(
                "seed {seed}: delta_snapshots=false still wrote {} deltas",
                full.delta_saves
            ));
        }
        total_delta_saves += delta.delta_saves;
        total_persists += delta.persists;
        // Every fiber's birth is a full save, and so is `main`'s first
        // suspension; a full save beyond those is a compaction (or a
        // save on a node the fiber migrated to).
        let firsts = (JOINS + 1) + 1;
        let full_saves = delta.persists - delta.delta_saves;
        if full_saves <= firsts {
            failures.push(format!(
                "seed {seed}: no chain was compacted ({full_saves} full saves, \
                 {} deltas)",
                delta.delta_saves
            ));
        }
        if full.profile.opcodes != delta.profile.opcodes {
            failures.push(format!(
                "seed {seed}: opcode counts diverge between snapshot formats:\n    \
                 full:  {:?}\n    delta: {:?}",
                full.profile.opcodes, delta.profile.opcodes
            ));
        }
        let (calls_full, calls_delta) = (calls_by_name(&full), calls_by_name(&delta));
        if calls_full != calls_delta {
            failures.push(format!(
                "seed {seed}: function call counts diverge:\n    full:  {calls_full:?}\n    \
                 delta: {calls_delta:?}"
            ));
        }
    }
    // Twelve suspensions per task with two clean outer frames: the
    // sweep as a whole must exercise the delta path heavily, or the
    // equivalence above proved nothing.
    assert!(
        total_delta_saves > 0,
        "delta deployments never took the delta path ({total_persists} persists)"
    );
    eprintln!(
        "delta_resume_is_opcode_identical_sixteen_seeds: {total_delta_saves}/{total_persists} \
         saves were deltas"
    );
    fail_sweep("delta_resume_is_opcode_identical_sixteen_seeds", failures);
}

/// Survivability preset (instance crashes and node kills included): the
/// delta deployment must still complete every seed with the exact
/// fault-free value, resuming from base + delta chains on surviving
/// nodes, and per-function call counts must match the full-snapshot
/// deployment.
#[test]
fn delta_resume_survives_crashes_sixteen_seeds() {
    let mut failures = Vec::new();
    let mut total_delta_saves = 0u64;
    let expected = Value::Int((0..6).map(|i| i * i).sum());
    for &seed in &chaos_seeds(16) {
        let run = |vinz: VinzConfig, label: &str| -> Result<ChaosRun, String> {
            let r = run_workflow_under_chaos_store(
                DEEP_FORK_WF,
                "main",
                vec![Value::Int(6)],
                ChaosConfig::survivability(seed),
                vinz,
                None,
                None,
            )
            .map_err(|e| format!("seed {seed}: {label}: {e}"))?;
            if r.value != expected {
                return Err(format!(
                    "seed {seed}: {label}: wrong result {:?} (expected {expected:?})",
                    r.value
                ));
            }
            Ok(r)
        };
        let (full, delta) = match (run(full_config(), "full"), run(delta_config(), "delta")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        total_delta_saves += delta.delta_saves;
        // Chaos can duplicate the client's Start (one extra identical
        // task), so compare counts scaled per main entry within each
        // run, then require agreement on the per-task shape.
        for r in [("full", &full), ("delta", &delta)] {
            let calls = calls_by_name(r.1);
            let tasks = calls.get("main").copied().unwrap_or(0);
            if tasks == 0 {
                failures.push(format!("seed {seed}: {}: no main frame profiled", r.0));
                continue;
            }
            for name in ["square", "inner"] {
                if calls.get(name) != Some(&(6 * tasks)) {
                    failures.push(format!(
                        "seed {seed}: {}: expected {} calls of {name}, got {:?}",
                        r.0,
                        6 * tasks,
                        calls.get(name)
                    ));
                }
            }
        }
    }
    assert!(
        total_delta_saves > 0,
        "survivability sweep never exercised the delta path"
    );
    eprintln!(
        "delta_resume_survives_crashes_sixteen_seeds: {total_delta_saves} delta saves across \
         the sweep"
    );
    fail_sweep("delta_resume_survives_crashes_sixteen_seeds", failures);
}
