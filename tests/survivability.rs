//! E11 — §3.1/§3.2 survivability: instance and node failures during
//! distributed workflows cause only redelivery-sized delays, never lost
//! work, because every fiber's state lives in the shared store.

use std::time::Duration;

use gozer::testing::{chaos_seeds, repro_command, run_workflow_under_chaos};
use gozer::{
    ChaosConfig, ChaosPlan, Cluster, FaultPoint, TaskStatus, Value, VinzConfig, WorkflowService,
};

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
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .instances(3, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![Value::Int(24)], None).unwrap();
    // Take out three of the four nodes while the task runs.
    for node in 0..3 {
        std::thread::sleep(Duration::from_millis(15));
        cluster.kill_node(node, FaultPoint::BeforeProcess);
    }
    let rec = wf.wait(&task, TIMEOUT).expect("survives");
    assert_eq!(rec.status, TaskStatus::Completed(expected(24)));
    cluster.shutdown();
}

#[test]
fn survives_crash_after_processing_before_ack() {
    // The nastier failure mode: work completed but unacknowledged, so the
    // message is redelivered and the handler must be idempotent. The
    // fiber version counter + per-fiber lock make re-running from the
    // persisted state safe.
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![Value::Int(16)], None).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    cluster.kill_node(0, FaultPoint::AfterProcess);
    let rec = wf.wait(&task, TIMEOUT).expect("survives");
    assert_eq!(rec.status, TaskStatus::Completed(expected(16)));
    cluster.shutdown();
}

#[test]
fn many_tasks_survive_rolling_failures() {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .instances(3, 2)
        .deploy()
        .unwrap();
    let tasks: Vec<String> = (0..6)
        .map(|_| wf.start("main", vec![Value::Int(8)], None).unwrap())
        .collect();
    std::thread::sleep(Duration::from_millis(10));
    cluster.kill_node(1, FaultPoint::BeforeProcess);
    std::thread::sleep(Duration::from_millis(10));
    cluster.kill_node(2, FaultPoint::AfterProcess);
    for task in &tasks {
        let rec = wf.wait(task, TIMEOUT).expect("each survives");
        assert_eq!(rec.status, TaskStatus::Completed(expected(8)));
    }
    // Redelivery only happens when a doomed instance was mid-message at
    // crash time, which is timing-dependent here; the deterministic
    // redelivery assertions live in the bluebox crate's tests. What must
    // hold unconditionally is completion, asserted above.
    cluster.shutdown();
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
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let plan = ChaosPlan::new(ChaosConfig::turbulence(chaos_seeds(1)[0]));
    cluster.set_chaos(plan.clone());
    let v = wf.call("main", vec![Value::Int(10)], TIMEOUT).unwrap();
    assert_eq!(v, expected(10));
    // Detach and verify the plan stops influencing delivery.
    cluster.clear_chaos();
    let before = plan.snapshot().total();
    let v = wf.call("main", vec![Value::Int(6)], TIMEOUT).unwrap();
    assert_eq!(v, expected(6));
    assert_eq!(plan.snapshot().total(), before, "detached plan kept firing");
    cluster.shutdown();
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
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .config(config)
        .instances(0, 4)
        .instances(1, 4)
        .deploy()
        .unwrap();
    let v = wf.call("main", vec![Value::Int(32)], TIMEOUT).unwrap();
    assert_eq!(v, expected(32));
    // Correctness despite (likely) retries; the retry count is workload
    // dependent so only the result is asserted. The §5 bench measures
    // the retry rate.
    cluster.shutdown();
}
