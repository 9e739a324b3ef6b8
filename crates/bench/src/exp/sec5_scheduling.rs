//! E8 — §5 scheduling: "task scheduling is first-come-first-serve, which
//! has been shown to be suboptimal in the presence of deadlines."
//!
//! A burst of deadline-carrying tasks — short-deadline interactive work
//! arriving *behind* long batch work — is run under FCFS and under
//! earliest-deadline-first queue ordering on otherwise identical
//! clusters. Asserted shape: EDF misses fewer deadlines.

use std::time::{Duration, Instant};

use gozer::{Cluster, Policy, Value, VinzConfig, WorkflowService};
use gozer_bench::Table;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORKFLOW: &str = "
(defun main (ms)
  (sleep-millis ms)
  :done)
";

struct Spec {
    busy_ms: f64,
    deadline: Duration,
}

/// Batch work first, interactive work arriving right behind it.
fn burst(seed: u64) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut specs = Vec::new();
    // 12 batch tasks: 80 ms busy, lax deadlines.
    for _ in 0..12 {
        specs.push(Spec {
            busy_ms: rng.gen_range(60.0..100.0),
            deadline: Duration::from_millis(2000),
        });
    }
    // 24 interactive tasks: 5 ms busy, tight deadlines.
    for _ in 0..24 {
        specs.push(Spec {
            busy_ms: rng.gen_range(2.0..8.0),
            deadline: Duration::from_millis(150),
        });
    }
    specs
}

fn policy_run(policy: Policy) -> (usize, usize, Duration) {
    let config = VinzConfig {
        spawn_limit: 4,
        ..VinzConfig::default()
    };
    let cluster = Cluster::with_policy(policy);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .config(config)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let specs = burst(99);
    let t0 = Instant::now();
    // Submit the burst in order: a `start` only sends its Start, so every
    // Start is queued, batch first, before the RunFibers they cause, and
    // the interactive work arrives behind the batch on every run. (Racing
    // one client thread per task made the order, and FCFS's misses, a
    // matter of which thread the host ran first.)
    let tasks: Vec<String> = specs
        .iter()
        .map(|s| {
            wf.start("main", vec![Value::Float(s.busy_ms)], Some(s.deadline))
                .unwrap()
        })
        .collect();
    let mut missed = 0;
    for task in &tasks {
        let rec = wf.wait(task, Duration::from_secs(300)).expect("finishes");
        if rec.missed_deadline() {
            missed += 1;
        }
    }
    let wall = t0.elapsed();
    cluster.shutdown();
    (missed, specs.len(), wall)
}

/// The workload is the same at smoke size: it takes well under a second.
pub fn run(_smoke: bool) {
    let mut t = Table::new(
        "sec5 — deadline misses under queue scheduling policies",
        &["policy", "missed", "total", "miss rate", "makespan"],
    );
    let mut missed_by_policy = Vec::new();
    for (name, policy) in [("FCFS (production)", Policy::Fcfs), ("EDF", Policy::Edf)] {
        let (missed, total, wall) = policy_run(policy);
        t.row(&[
            name.into(),
            missed.to_string(),
            total.to_string(),
            format!("{:.0}%", 100.0 * missed as f64 / total as f64),
            format!("{wall:.2?}"),
        ]);
        missed_by_policy.push(missed);
    }
    t.print();
    let (fcfs, edf) = (missed_by_policy[0], missed_by_policy[1]);
    println!("shape check: EDF missed {edf} vs FCFS {fcfs}, as §5 predicts.");
    assert!(
        edf < fcfs,
        "deadline-aware scheduling must miss fewer deadlines than FCFS (EDF {edf}, FCFS {fcfs})"
    );
}
