//! E8 — §5 scheduling: "task scheduling is first-come-first-serve, which
//! has been shown to be suboptimal in the presence of deadlines."
//!
//! A burst of deadline-carrying tasks — short-deadline interactive work
//! arriving *behind* long batch work — is run under FCFS and under
//! earliest-deadline-first queue ordering on otherwise identical
//! clusters. Asserted shape: EDF misses fewer deadlines.

use std::time::{Duration, Instant};

use gozer::{GozerSystem, Policy, Value, VinzConfig};
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
    let sys = GozerSystem::builder()
        .nodes(2)
        .instances_per_node(2)
        .policy(policy)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let specs = burst(99);
    let t0 = Instant::now();
    // Submit the whole burst concurrently: all Start messages hit the
    // queue before any RunFiber work begins, as with independent clients.
    let tasks: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = specs
            .iter()
            .map(|s| {
                let wf = sys.workflow.clone();
                let (busy, deadline) = (s.busy_ms, s.deadline);
                scope.spawn(move || {
                    wf.start("main", vec![Value::Float(busy)], Some(deadline))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut missed = 0;
    for task in &tasks {
        let rec = sys.wait(task, Duration::from_secs(300)).expect("finishes");
        if rec.missed_deadline() {
            missed += 1;
        }
    }
    let wall = t0.elapsed();
    sys.shutdown();
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
