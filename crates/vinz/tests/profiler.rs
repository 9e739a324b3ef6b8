//! Profiler determinism under chaos, plus the flight-recorder contract.
//!
//! The profiler's counts must reflect the *workflow*, not the fault
//! schedule: chaos strikes only at message boundaries and every
//! redelivery is deduplicated by the phase guards before the VM is
//! entered, so two runs of the same seed must execute the exact same
//! opcodes and enter the exact same function frames. Timing (nanos)
//! naturally varies; counts must not.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_obs::flight::dump_is_complete;
use vinz::testing::{
    chaos_seeds, install_flight_panic_hook, repro_command, run_workflow_under_chaos,
    run_workflow_under_chaos_store, ChaosConfig, ChaosRun,
};
use vinz::{VinzConfig, WorkflowService};

/// Fork-free workflow: one suspension (sleep) and plenty of frame
/// entries. With no for-each, per-seed opcode totals are
/// schedule-independent — each fiber segment runs exactly once no
/// matter how messages are dropped, delayed, duplicated, or reordered.
const SEQ_WF: &str = "
(defun step-a (n) (if (< n 1) 0 (+ 1 (step-a (- n 1)))))
(defun step-b (n) (progn (sleep-millis 5) (* (step-a n) 2)))
(defun main (n) (+ (step-b n) (step-a n)))
";

/// Forking workflow with a *named* child function. The parent's resume
/// loop is schedule-dependent (how many children have finished per
/// wake varies), so opcode totals are not comparable — but each named
/// function body still runs exactly once per logical call, so per-defun
/// call counts are.
const FORK_WF: &str = "
(defun square (i) (* i i))
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (square i))))
";

fn calls_by_name(run: &ChaosRun) -> BTreeMap<String, u64> {
    run.profile
        .functions
        .iter()
        .map(|(name, f)| (name.clone(), f.calls))
        .collect()
}

fn assert_serialize_cost_sampled(run: &ChaosRun) -> Result<(), String> {
    let s = &run.profile.serial;
    if s.serialize_count == 0 {
        return Err(format!(
            "seed {}: no continuation serialize-cost sample recorded",
            run.seed
        ));
    }
    match s.min_serialize_nanos {
        Some(n) if n > 0 => Ok(()),
        other => Err(format!(
            "seed {}: min serialize cost must be nonzero, got {other:?}",
            run.seed
        )),
    }
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
        .map(|seed| format!("    {}", repro_command("-p vinz --test profiler", test, seed)))
        .collect();
    panic!(
        "{} seed(s) failed:\n  {}\n  replay with:\n{}",
        failures.len(),
        failures.join("\n  "),
        repros.join("\n")
    );
}

/// Satellite: 16-seed sweep, two runs per seed, identical opcode counts
/// and function call counts — and every run records a nonzero
/// serialize-cost sample for its persisted continuations.
#[test]
fn profile_counts_are_schedule_independent_per_seed() {
    let mut failures = Vec::new();
    for &seed in &chaos_seeds(16) {
        let run = |attempt: u32| -> Result<ChaosRun, String> {
            let r = run_workflow_under_chaos(
                SEQ_WF,
                "main",
                vec![Value::Int(8)],
                ChaosConfig::turbulence(seed),
            )
            .map_err(|e| format!("seed {seed}: attempt {attempt}: {e}"))?;
            if r.value != Value::Int(24) {
                return Err(format!(
                    "seed {seed}: attempt {attempt}: wrong result {:?}",
                    r.value
                ));
            }
            Ok(r)
        };
        let (a, b) = match (run(1), run(2)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        if a.profile.opcodes != b.profile.opcodes {
            failures.push(format!(
                "seed {seed}: opcode counts differ across runs:\n    run1: {:?}\n    run2: {:?}",
                a.profile.opcodes, b.profile.opcodes
            ));
        }
        let (calls_a, calls_b) = (calls_by_name(&a), calls_by_name(&b));
        if calls_a != calls_b {
            failures.push(format!(
                "seed {seed}: function call counts differ across runs:\n    \
                 run1: {calls_a:?}\n    run2: {calls_b:?}"
            ));
        }
        // The workflow's shape pins the counts exactly — per task.
        // Turbulence can duplicate the client's Start itself, which
        // legitimately launches a second identical task (the same one
        // in both runs; the fault schedule keys on message content), so
        // scale by the number of main entries: step-a(8) runs from both
        // main and step-b → 2 × 9 recursive frames per task.
        let tasks = calls_a.get("main").copied().unwrap_or(0);
        if tasks == 0 {
            failures.push(format!("seed {seed}: no main frame profiled"));
        }
        for (name, per_task) in [("step-a", 18u64), ("step-b", 1)] {
            if calls_a.get(name) != Some(&(per_task * tasks)) {
                failures.push(format!(
                    "seed {seed}: expected {per_task}×{tasks} calls of {name}, got {:?}",
                    calls_a.get(name)
                ));
            }
        }
        for r in [&a, &b] {
            if let Err(e) = assert_serialize_cost_sampled(r) {
                failures.push(e);
            }
        }
    }
    fail_sweep("profile_counts_are_schedule_independent_per_seed", failures);
}

/// Forking workflows can't promise opcode-total equality (the parent's
/// wake-loop length is schedule-dependent), but named-function call
/// counts still must match across runs of one seed — and survive the
/// crash-heavy preset, where recovery replays from persisted
/// continuations without re-entering completed frames.
#[test]
fn fork_join_call_counts_stable_across_runs() {
    let mut failures = Vec::new();
    for &seed in &chaos_seeds(8) {
        let run = || {
            run_workflow_under_chaos(
                FORK_WF,
                "main",
                vec![Value::Int(6)],
                ChaosConfig::survivability(seed),
            )
        };
        let (a, b) = match (run(), run()) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        let (calls_a, calls_b) = (calls_by_name(&a), calls_by_name(&b));
        for name in ["square", "main"] {
            if calls_a.get(name) != calls_b.get(name) {
                failures.push(format!(
                    "seed {seed}: {name} call count differs: {:?} vs {:?}",
                    calls_a.get(name),
                    calls_b.get(name)
                ));
            }
        }
        // One square frame per forked child, regardless of faults.
        if calls_a.get("square") != Some(&6) {
            failures.push(format!(
                "seed {seed}: expected 6 calls of square, got {:?}",
                calls_a.get("square")
            ));
        }
        for r in [&a, &b] {
            if let Err(e) = assert_serialize_cost_sampled(r) {
                failures.push(e);
            }
        }
    }
    fail_sweep("fork_join_call_counts_stable_across_runs", failures);
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gozer-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Acceptance criterion: a deliberately failing seed leaves a complete
/// flight dump behind — one from the task-failure path inside
/// `drive_fiber`, one from the harness's contract-violation path, each
/// with events, timelines, metrics, and the profile.
#[test]
fn failing_seed_leaves_complete_flight_dumps() {
    let base = scratch_dir("fail");
    let err = run_workflow_under_chaos_store(
        "(defun main () (error \"deliberate failure\"))",
        "main",
        vec![],
        ChaosConfig::off(1),
        VinzConfig::default(),
        None,
        Some(base.clone()),
    )
    .expect_err("the workflow must fail");
    assert!(
        err.contains("flight dump: "),
        "violation message should point at the dump: {err}"
    );
    let dumps: Vec<PathBuf> = std::fs::read_dir(&base)
        .expect("flight base directory exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert!(
        dumps.len() >= 2,
        "expected task-failure and violation dumps, found {dumps:?}"
    );
    for dump in &dumps {
        assert!(
            dump_is_complete(dump, true),
            "incomplete flight dump at {}",
            dump.display()
        );
    }
    let labels: Vec<String> = dumps
        .iter()
        .filter_map(|d| d.file_name().map(|n| n.to_string_lossy().into_owned()))
        .collect();
    assert!(labels.iter().any(|l| l.contains("failed")), "{labels:?}");
    assert!(labels.iter().any(|l| l.contains("chaos-seed-1")), "{labels:?}");
    let _ = std::fs::remove_dir_all(&base);
}

/// The panic hook dumps the black box for every armed deployment, then
/// defers to the previous hook (so the panic still reports normally).
#[test]
fn panic_hook_records_flight_dump() {
    let base = scratch_dir("panic");
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source("(defun main () 1)")
        .config(VinzConfig { profiling: true, ..VinzConfig::default() })
        .instances(0, 1)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    obs.set_tracing(true);
    let v = wf.call("main", vec![], Duration::from_secs(30)).unwrap();
    assert_eq!(v, Value::Int(1));

    obs.flight().arm(&base);
    install_flight_panic_hook(&obs);
    let _ = std::panic::catch_unwind(|| panic!("deliberate panic for the flight recorder"));
    obs.flight().disarm();

    let dump = obs
        .flight()
        .last_dump()
        .expect("panic hook recorded a dump");
    assert!(dump_is_complete(&dump, true), "{}", dump.display());
    let profile = obs.profile();
    let read = |file: &str| std::fs::read_to_string(dump.join(file)).unwrap();
    assert_eq!(read("profile.txt"), profile.render(20));
    assert_eq!(read("profile.folded"), profile.folded_stacks());
    let reason = std::fs::read_to_string(dump.join("reason.txt")).unwrap();
    assert!(
        reason.contains("deliberate panic for the flight recorder"),
        "reason.txt should carry the panic message: {reason}"
    );
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}

/// Every continuation the save path serializes is one it persists, so
/// the profile's serialize figures and the save counters are the same
/// facts: on a run that stacks deltas on full snapshots they agree
/// exactly. The cheapest-save figure is absent until the first save.
#[test]
fn serialize_costs_equal_persist_counters() {
    // Three sequential joins under two live frames: one full save,
    // then deltas.
    const DEEP_SEQ_WF: &str = "
(defun triple (n) (* n 3))
(defun leaf (n)
  (+ (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))))
(defun main (n) (+ (+ 1 (leaf n)) 1))
";
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(DEEP_SEQ_WF)
        .config(VinzConfig {
            delta_snapshots: true,
            ..VinzConfig::default()
        })
        .instances(0, 2)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    assert_eq!(obs.profile().serial.min_serialize_nanos, None, "nothing saved yet");
    for _ in 0..4 {
        let v = wf.call("main", vec![Value::Int(5)], Duration::from_secs(30)).unwrap();
        assert_eq!(v, Value::Int(47));
    }
    cluster.shutdown();
    let serial = obs.profile().serial;
    let c = obs.counters();
    let load = |h: &std::sync::atomic::AtomicU64| h.load(Ordering::Relaxed);
    assert!(load(&c.delta_saves) > 0, "the run must take the delta path");
    assert_eq!(serial.serialize_count, load(&c.persist_count), "{serial:?}");
    assert_eq!(
        serial.serialize_bytes,
        load(&c.full_bytes) + load(&c.delta_bytes),
        "{serial:?}"
    );
    // The cheapest save is a real, nonzero sample among those summed.
    assert!(
        serial
            .min_serialize_nanos
            .is_some_and(|min| min > 0 && min <= serial.serialize_nanos),
        "{serial:?}"
    );
}
