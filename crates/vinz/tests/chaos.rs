//! Randomized survivability under deterministic chaos (§3.2).
//!
//! Every test here is a pure function of `(workload, seed)`: the fault
//! schedule is derived by hashing the seed with stable message content,
//! never from wall-clock time or OS scheduling. A failing seed prints a
//! one-line repro command; run it to replay the exact same schedule.
//!
//! Knobs: `CHAOS_SEED=<n>` replays one seed, `CHAOS_SEEDS=<count>`
//! resizes the sweep (default 16, the CI width).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_obs::EventKind;
use gozer_xml::ServiceDescription;
use vinz::testing::{
    chaos_seeds, register_value_service, repro_command, run_workflow_under_chaos, ChaosConfig,
    ChaosPlan,
};
use vinz::{TaskStatus, WorkflowService};

/// Listing 1's distributed shape: `for-each` fans each iteration out as
/// its own fiber, so chaos hits the spawn, awake, and join paths.
const FOR_EACH_WF: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

fn sum_squares(n: i64) -> Value {
    Value::Int((0..n).map(|i| i * i).sum())
}

/// The `parallel` variant: fixed fan-out of concurrent fibers whose
/// results must come back in order despite reordering faults.
const PARALLEL_WF: &str = "
(defun main ()
  (apply #'+ (parallel (* 1 1) (* 2 2) (* 3 3) (* 4 4) (* 5 5))))
";

/// Run `(source, function, args)` against `expected` across the sweep,
/// collecting per-seed failures into one panic that lists a repro
/// command for each failing seed.
fn sweep(
    test_name: &str,
    source: &str,
    function: &str,
    args: Vec<Value>,
    expected: &Value,
    config_for: impl Fn(u64) -> ChaosConfig,
) {
    let seeds = chaos_seeds(16);
    let mut failures = Vec::new();
    let mut recovered = 0usize;
    for &seed in &seeds {
        match run_workflow_under_chaos(source, function, args.clone(), config_for(seed)) {
            Ok(run) => {
                if run.recovered {
                    recovered += 1;
                }
                if run.value != *expected {
                    failures.push(format!(
                        "seed {seed}: wrong value {:?} (expected {:?}, faults {:?})",
                        run.value, expected, run.stats
                    ));
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        let repros: Vec<String> = failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .filter_map(|s| s.strip_prefix("seed "))
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|seed| {
                format!(
                    "    {}",
                    repro_command("-p vinz --test chaos", test_name, seed)
                )
            })
            .collect();
        panic!(
            "{}/{} seeds failed:\n  {}\n  replay with:\n{}",
            failures.len(),
            seeds.len(),
            failures.join("\n  "),
            repros.join("\n")
        );
    }
    // Not an assertion — crash scheduling decides whether any run needed
    // the recovery path — but worth surfacing in `--nocapture` output.
    eprintln!(
        "{test_name}: {} seeds passed ({} via crash recovery)",
        seeds.len(),
        recovered
    );
}

/// The headline sweep: 16 seeds of the full survivability preset (drops,
/// delays, duplicates, reordering, instance and node crashes) against
/// the Listing-1 workflow. Every seed must produce the exact fault-free
/// answer, either straight through or by resuming persisted
/// continuations on fresh instances.
#[test]
fn survives_sixteen_seeds_for_each() {
    sweep(
        "survives_sixteen_seeds_for_each",
        FOR_EACH_WF,
        "main",
        vec![Value::Int(12)],
        &sum_squares(12),
        ChaosConfig::survivability,
    );
}

/// Same preset, `parallel` construct: concurrent sibling fibers joined
/// positionally.
#[test]
fn survives_sixteen_seeds_parallel() {
    sweep(
        "survives_sixteen_seeds_parallel",
        PARALLEL_WF,
        "main",
        vec![],
        &Value::Int(55),
        ChaosConfig::survivability,
    );
}

/// At-least-once must not become more-than-once in effect: under the
/// duplication/reorder-heavy preset (no crashes), redelivered and
/// duplicated messages re-run handlers that are idempotent by fiber
/// version, so the sum comes out exact — never double-counted.
#[test]
fn turbulence_never_double_applies() {
    sweep(
        "turbulence_never_double_applies",
        FOR_EACH_WF,
        "main",
        vec![Value::Int(10)],
        &sum_squares(10),
        ChaosConfig::turbulence,
    );
}

/// The acceptance criterion made executable: two plans built from the
/// same seed make bit-identical decisions at every fault point for a
/// large corpus of message keys, and a third plan with a different seed
/// disagrees somewhere. No `Instant::now()`, no scheduling dependence.
#[test]
fn same_seed_same_fault_schedule() {
    let a = ChaosPlan::new(ChaosConfig::survivability(0xB1EB));
    let b = ChaosPlan::new(ChaosConfig::survivability(0xB1EB));
    let c = ChaosPlan::new(ChaosConfig::survivability(0xB1EC));
    let mut c_differs = false;
    for key in 0..2000u64 {
        for redeliveries in 0..3 {
            assert_eq!(
                a.decide_delivery(key, redeliveries),
                b.decide_delivery(key, redeliveries),
                "delivery decision diverged at key {key}"
            );
        }
        assert_eq!(a.decide_crash_after(key), b.decide_crash_after(key));
        assert_eq!(a.decide_duplicate(key), b.decide_duplicate(key));
        assert_eq!(a.decide_reorder(key), b.decide_reorder(key));
        assert_eq!(a.decide_node_scope(key), b.decide_node_scope(key));
        assert_eq!(a.decide_reply_loss(key), b.decide_reply_loss(key));
        c_differs |= a.decide_delivery(key, 0) != c.decide_delivery(key, 0)
            || a.decide_duplicate(key) != c.decide_duplicate(key)
            || a.decide_crash_after(key) != c.decide_crash_after(key);
    }
    assert!(c_differs, "a different seed must yield a different schedule");
}

/// End-to-end determinism: the same seed run twice injects the same
/// *decided* schedule. Thread interleaving varies which messages exist
/// run to run, so raw fault counts may differ — what must agree is the
/// outcome (the exact fault-free value) and that both runs were really
/// under fire.
#[test]
fn same_seed_reproduces_end_to_end() {
    let seed = chaos_seeds(1)[0];
    let args = vec![Value::Int(8)];
    let first =
        run_workflow_under_chaos(FOR_EACH_WF, "main", args.clone(), ChaosConfig::turbulence(seed))
            .unwrap_or_else(|e| {
                panic!(
                    "{e}\n  replay with: {}",
                    repro_command("-p vinz --test chaos", "same_seed_reproduces_end_to_end", seed)
                )
            });
    let second =
        run_workflow_under_chaos(FOR_EACH_WF, "main", args, ChaosConfig::turbulence(seed))
            .unwrap_or_else(|e| {
                panic!(
                    "{e}\n  replay with: {}",
                    repro_command("-p vinz --test chaos", "same_seed_reproduces_end_to_end", seed)
                )
            });
    assert_eq!(first.value, sum_squares(8));
    assert_eq!(first.value, second.value);
    assert!(
        first.stats.total() > 0 && second.stats.total() > 0,
        "turbulence preset should actually inject faults \
         (first {:?}, second {:?})",
        first.stats,
        second.stats
    );
}

/// A disarmed plan is a no-op: the off preset injects nothing and the
/// workflow completes without ever taking the recovery path.
#[test]
fn off_preset_injects_nothing() {
    let run = run_workflow_under_chaos(
        FOR_EACH_WF,
        "main",
        vec![Value::Int(6)],
        ChaosConfig::off(7),
    )
    .expect("fault-free run completes");
    assert_eq!(run.value, sum_squares(6));
    assert_eq!(run.stats.total(), 0, "off preset injected {:?}", run.stats);
    assert!(!run.recovered);
}

/// One `start()`, one task — however often the broker delivers the
/// `Start`. The plan doubles sends and kills instances after they
/// handled the message (so it comes back with its effects standing),
/// and touches nothing but `Start`; each task's one effect on the
/// outside world is a call to a service that counts its requests.
fn starts_exactly_once(seed: u64) -> Result<(u64, u64), String> {
    const TASKS: i64 = 6;
    let cluster = Cluster::new();
    let served = Arc::new(AtomicU64::new(0));
    let desc = ServiceDescription::new("Tally", "urn:tally").operation(
        "Square",
        "Squares the field n, and counts.",
        &[("n", "int")],
    );
    let counter = served.clone();
    register_value_service(&cluster, "Tally", Some(desc), move |_op, req| {
        counter.fetch_add(1, Ordering::Relaxed);
        let n = req.as_map().and_then(|m| m.get(&Value::str("n")).cloned());
        let n = n.and_then(|v| v.as_int()).unwrap_or(0);
        Ok(Value::Int(n * n))
    });
    cluster.spawn_instances("Tally", 5, 1);
    let plan = ChaosPlan::new(ChaosConfig {
        duplicate_permille: 500,
        crash_after_permille: 300,
        max_crashes: 3,
        target_operation: Some("Start".into()),
        ..ChaosConfig::off(seed)
    });
    cluster.set_chaos(plan.clone());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink TL :wsdl \"urn:tally\" :port \"Tally\")
             (defun main (n) (TL-Square-Method :n n))",
        )
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;
    let obs = wf.obs();
    obs.set_tracing(true);
    let tasks: Vec<(String, i64)> = (1..=TASKS)
        .map(|n| (wf.start("main", vec![Value::Int(n)], None).unwrap(), n))
        .collect();
    for (task, n) in &tasks {
        match wf.wait(task, Duration::from_secs(45)).map(|r| r.status) {
            Some(TaskStatus::Completed(v)) if v == Value::Int(n * n) => {}
            other => return Err(format!("seed {seed}: main({n}) ended {other:?}")),
        }
    }
    // Late copies of a Start are still to be delivered (and dropped).
    if !cluster.drain("workflow", Duration::from_secs(45)) {
        return Err(format!("seed {seed}: the deployment never went quiet"));
    }
    let started = obs.counters().tasks_started.load(Ordering::Relaxed);
    let events = obs.events();
    let announced = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskStarted))
        .count() as u64;
    let counts = (started, announced, served.load(Ordering::Relaxed));
    let stats = plan.snapshot();
    cluster.shutdown();
    if counts != (TASKS as u64, TASKS as u64, TASKS as u64) {
        return Err(format!(
            "seed {seed}: {TASKS} starts made (tasks_started, TaskStarted events, service \
             calls) = {counts:?} (faults {stats:?})"
        ));
    }
    Ok((stats.duplicated, stats.crashes_after))
}

#[test]
fn start_is_idempotent() {
    let seeds = chaos_seeds(16);
    let (mut failures, mut duplicated, mut crashed) = (Vec::new(), 0, 0);
    for &seed in &seeds {
        match starts_exactly_once(seed) {
            Ok((d, c)) => {
                duplicated += d;
                crashed += c;
            }
            Err(e) => failures.push(format!(
                "{e}\n    {}",
                repro_command("-p vinz --test chaos", "start_is_idempotent", seed)
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{}/{} seeds failed:\n  {}",
        failures.len(),
        seeds.len(),
        failures.join("\n  ")
    );
    if seeds.len() > 1 {
        assert!(
            duplicated > 0 && crashed > 0,
            "the sweep must deliver some Start twice both ways \
             (duplicated {duplicated}, crashed after {crashed})"
        );
    }
}
