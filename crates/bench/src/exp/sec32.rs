//! E10 — §3.2 non-blocking service requests.
//!
//! "In a traditional synchronous service invocation, the sender is
//! blocked ... consuming resources (physical memory and a BlueBox
//! request 'slot') without making any progress. ... Overall, this
//! [non-blocking requests] allows many more tasks to be in progress at
//! any one time."
//!
//! Two identical workloads — K tasks each making one slow service call —
//! run against deployments that differ only in call style:
//!
//! * **blocking**: `call-wsdl-operation` holds the workflow instance's
//!   slot for the full service latency; with 2 slots, makespan ≈
//!   K·L/2.
//! * **non-blocking**: the deflink default yields, freeing the slot;
//!   the 8 service instances become the bottleneck: makespan ≈ K·L/8.

use std::time::{Duration, Instant};

use gozer::testing::register_square_service;
use gozer::{Cluster, TaskStatus, Value, WorkflowService};
use gozer_bench::Table;

const NONBLOCKING: &str = "
(deflink SQ :wsdl \"urn:sq\" :port \"Sq\")
(defun main (n)
  ;; deflink default on a fiber thread: async + yield (§3.2).
  (SQ-Square-Method :n n))
";

const BLOCKING: &str = "
(defun main (n)
  ;; Force the traditional synchronous invocation: the programmer's
  ;; static opt-out described in §3.2.
  (let ((msg (create-message \"Square\")))
    (. msg (set \"n\" n))
    (get (call-wsdl-operation :service \"Sq\" :operation \"Square\"
                              :soap-action \"urn:sq:Square\" :message msg)
         :body)))
";

const TASKS: usize = 24;
const SERVICE_LATENCY: Duration = Duration::from_millis(25);

fn style_run(source: &str) -> (Duration, u64, u64) {
    let cluster = Cluster::new();
    // Plenty of service capacity; the workflow slots are the scarce
    // resource (2 instances on 1 node).
    register_square_service(&cluster, "Sq", 8, 1, SERVICE_LATENCY);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(source)
        .instances(0, 2)
        .deploy()
        .unwrap();
    let t0 = Instant::now();
    let tasks: Vec<String> = (0..TASKS)
        .map(|i| {
            wf.start("main", vec![Value::Int(i as i64)], None).unwrap()
        })
        .collect();
    for (i, task) in tasks.iter().enumerate() {
        let rec = wf.wait(task, Duration::from_secs(300)).expect("finishes");
        match rec.status {
            TaskStatus::Completed(v) => assert_eq!(v, Value::Int((i * i) as i64)),
            other => panic!("task failed: {other:?}"),
        }
    }
    let wall = t0.elapsed();
    let snap = cluster.metrics.snapshot();
    cluster.shutdown();
    (wall, snap.sync_block_nanos / 1_000_000, snap.max_in_flight)
}

/// The workload is the same at smoke size: it takes well under a second.
pub fn run(_smoke: bool) {
    let mut t = Table::new(
        "sec3.2 — blocking vs non-blocking service calls \
         (24 tasks, 25 ms service latency, 2 workflow slots, 8 service instances)",
        &["style", "makespan", "slot time blocked (ms)", "max in-flight"],
    );
    let (block_wall, block_ms, block_inflight) = style_run(BLOCKING);
    let (nb_wall, nb_ms, nb_inflight) = style_run(NONBLOCKING);
    t.row(&[
        "blocking (sync)".into(),
        format!("{block_wall:.2?}"),
        block_ms.to_string(),
        block_inflight.to_string(),
    ]);
    t.row(&[
        "non-blocking (yield)".into(),
        format!("{nb_wall:.2?}"),
        nb_ms.to_string(),
        nb_inflight.to_string(),
    ]);
    t.print();
    let speedup = block_wall.as_secs_f64() / nb_wall.as_secs_f64();
    println!(
        "shape check: non-blocking is {speedup:.1}x faster in makespan and wastes \
         {block_ms} ms of slot time less (blocking held instances for the full \
         service latency)."
    );
    assert!(
        nb_wall < block_wall,
        "non-blocking must beat blocking when slots are scarce"
    );
}
