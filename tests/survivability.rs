//! E11 — §3.1/§3.2 survivability: instance and node failures during
//! distributed workflows cause only redelivery-sized delays, never lost
//! work, because every fiber's state lives in the shared store.

use std::time::Duration;

use gozer::testing::{chaos_seeds, repro_command, run_workflow_under_chaos};
use gozer::{ChaosConfig, ChaosPlan, FaultPoint, GozerSystem, TaskStatus, Value, VinzConfig};

const TIMEOUT: Duration = Duration::from_secs(120);

const WORKFLOW: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

fn expected(n: i64) -> Value {
    Value::Int((0..n).map(|i| i * i).sum())
}

#[test]
fn survives_sequential_node_crashes() {
    let sys = GozerSystem::builder()
        .nodes(4)
        .instances_per_node(2)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let task = sys.workflow.start("main", vec![Value::Int(24)], None).unwrap();
    // Take out three of the four nodes while the task runs.
    for node in 0..3 {
        std::thread::sleep(Duration::from_millis(15));
        sys.cluster.kill_node(node, FaultPoint::BeforeProcess);
    }
    let rec = sys.wait(&task, TIMEOUT).expect("survives");
    assert_eq!(rec.status, TaskStatus::Completed(expected(24)));
    sys.shutdown();
}

#[test]
fn survives_crash_after_processing_before_ack() {
    // The nastier failure mode: work completed but unacknowledged, so the
    // message is redelivered and the handler must be idempotent. The
    // fiber version counter + per-fiber lock make re-running from the
    // persisted state safe.
    let sys = GozerSystem::builder()
        .nodes(3)
        .instances_per_node(2)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let task = sys.workflow.start("main", vec![Value::Int(16)], None).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    sys.cluster.kill_node(0, FaultPoint::AfterProcess);
    let rec = sys.wait(&task, TIMEOUT).expect("survives");
    assert_eq!(rec.status, TaskStatus::Completed(expected(16)));
    sys.shutdown();
}

#[test]
fn many_tasks_survive_rolling_failures() {
    let sys = GozerSystem::builder()
        .nodes(4)
        .instances_per_node(2)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let tasks: Vec<String> = (0..6)
        .map(|_| sys.workflow.start("main", vec![Value::Int(8)], None).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    sys.cluster.kill_node(1, FaultPoint::BeforeProcess);
    std::thread::sleep(Duration::from_millis(10));
    sys.cluster.kill_node(2, FaultPoint::AfterProcess);
    for task in &tasks {
        let rec = sys.wait(task, TIMEOUT).expect("each survives");
        assert_eq!(rec.status, TaskStatus::Completed(expected(8)));
    }
    // Redelivery only happens when a doomed instance was mid-message at
    // crash time, which is timing-dependent here; the deterministic
    // redelivery assertions live in the bluebox crate's tests. What must
    // hold unconditionally is completion, asserted above.
    sys.shutdown();
}

#[test]
fn seeded_chaos_sweep_from_facade() {
    // The hand-scripted kills above cover specific failure modes; this
    // sweep covers *randomized* ones, deterministically: each seed fixes
    // a full fault schedule (drops, delays, duplicates, reordering,
    // instance and node crashes), and every seed must still produce the
    // exact fault-free answer. `CHAOS_SEED=<n>` replays one schedule.
    let mut failures = Vec::new();
    for seed in chaos_seeds(8) {
        match run_workflow_under_chaos(
            WORKFLOW,
            "main",
            vec![Value::Int(12)],
            ChaosConfig::survivability(seed),
        ) {
            Ok(run) => assert_eq!(run.value, expected(12), "seed {seed}"),
            Err(e) => failures.push(format!(
                "{e}\n    replay: {}",
                repro_command("--test survivability", "seeded_chaos_sweep_from_facade", seed)
            )),
        }
    }
    assert!(failures.is_empty(), "failed seeds:\n  {}", failures.join("\n  "));
}

#[test]
fn chaos_plan_attaches_to_a_built_system() {
    // Chaos is a cluster property, so it composes with the full builder
    // surface (stores, locks, policies) — not just the test harness.
    let sys = GozerSystem::builder()
        .nodes(2)
        .instances_per_node(2)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let plan = ChaosPlan::new(ChaosConfig::turbulence(chaos_seeds(1)[0]));
    sys.cluster.set_chaos(plan.clone());
    let v = sys.call("main", vec![Value::Int(10)], TIMEOUT).unwrap();
    assert_eq!(v, expected(10));
    // Detach and verify the plan stops influencing delivery.
    sys.cluster.clear_chaos();
    let before = plan.snapshot().total();
    let v = sys.call("main", vec![Value::Int(6)], TIMEOUT).unwrap();
    assert_eq!(v, expected(6));
    assert_eq!(plan.snapshot().total(), before, "detached plan kept firing");
    sys.shutdown();
}

#[test]
fn awake_lock_contention_requeues_rather_than_blocking() {
    // §5: concurrent AwakeFibers for the same parent serialize on the
    // fiber lock; those that cannot get it within the wait limit re-queue
    // themselves instead of holding their instance hostage.
    let config = VinzConfig {
        awake_wait_limit: Duration::from_millis(1),
        spawn_limit: 64,
        ..VinzConfig::default()
    };
    let sys = GozerSystem::builder()
        .nodes(2)
        .instances_per_node(4)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let v = sys.call("main", vec![Value::Int(32)], TIMEOUT).unwrap();
    assert_eq!(v, expected(32));
    // Correctness despite (likely) retries; the retry count is workload
    // dependent so only the result is asserted. The §5 bench measures
    // the retry rate.
    sys.shutdown();
}
