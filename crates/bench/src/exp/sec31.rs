//! E11 — §3.1/§3.2 survivability under failure.
//!
//! "Together with the entire state of the task being regularly stored to
//! stable storage and the message queue providing buffering and
//! re-delivery ..., this makes for a highly robust system, one in which
//! the failure of any instance will result in only minimal delays as
//! other instances automatically compensate."
//!
//! Identical workloads run on a healthy cluster and on one where half
//! the nodes crash mid-run; the report compares completion rate, wall
//! time, and redelivery counts. Asserted shape: 100% completion in both.

use std::time::{Duration, Instant};

use gozer::{CrashPoint, GozerSystem, TaskStatus, Value, VinzConfig};
use gozer_bench::Table;

const WORKFLOW: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n))
               (progn (sleep-millis 3) (* i i)))))
";

const TASKS: usize = 16;
const FANOUT: i64 = 10;
const NODES: u32 = 4;

fn survivability_run(kill_nodes: &[u32]) -> (usize, Duration, u64) {
    let config = VinzConfig {
        spawn_limit: 4,
        ..VinzConfig::default()
    };
    let sys = GozerSystem::builder()
        .nodes(NODES)
        .instances_per_node(2)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let expected = Value::Int((0..FANOUT).map(|i| i * i).sum());
    let t0 = Instant::now();
    let tasks: Vec<String> = (0..TASKS)
        .map(|_| {
            sys.workflow
                .start("main", vec![Value::Int(FANOUT)], None)
                .unwrap()
        })
        .collect();
    // Crash early, while RunFiber messages are in flight, so the doomed
    // instances take (and lose) deliveries.
    for &node in kill_nodes {
        std::thread::sleep(Duration::from_millis(5));
        let point = if node % 2 == 0 {
            CrashPoint::BeforeProcess
        } else {
            CrashPoint::AfterProcess
        };
        sys.cluster.kill_node(node, point);
    }
    let mut completed = 0;
    for task in &tasks {
        let rec = sys.wait(task, Duration::from_secs(300)).expect("finishes");
        if rec.status == TaskStatus::Completed(expected.clone()) {
            completed += 1;
        }
    }
    let wall = t0.elapsed();
    let redelivered = sys.cluster.metrics.snapshot().redelivered;
    sys.shutdown();
    (completed, wall, redelivered)
}

/// The workload is the same at smoke size: it takes well under a second.
pub fn run(_smoke: bool) {
    let mut t = Table::new(
        &format!(
            "sec3.1/3.2 — survivability: {TASKS} tasks of fan-out {FANOUT} on {NODES} nodes"
        ),
        &["scenario", "completed", "wall", "redeliveries"],
    );
    let (ok_healthy, wall_healthy, re_healthy) = survivability_run(&[]);
    let (ok_crash, wall_crash, re_crash) = survivability_run(&[0, 1]);
    t.row(&[
        "healthy".into(),
        format!("{ok_healthy}/{TASKS}"),
        format!("{wall_healthy:.2?}"),
        re_healthy.to_string(),
    ]);
    t.row(&[
        format!("2 of {NODES} nodes crash mid-run"),
        format!("{ok_crash}/{TASKS}"),
        format!("{wall_crash:.2?}"),
        re_crash.to_string(),
    ]);
    t.print();
    assert_eq!(ok_healthy, TASKS);
    assert_eq!(ok_crash, TASKS, "all tasks must survive the crashes");
    println!(
        "shape check: full completion despite losing half the cluster; slowdown {:.1}x.",
        wall_crash.as_secs_f64() / wall_healthy.as_secs_f64()
    );
}
