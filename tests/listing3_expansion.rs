//! E9 — Listing 3: the spawn-limit expansion of `for-each`. With five
//! values and a spawn limit of three, the parent must issue exactly five
//! yields (one per child) and never have more than three children
//! outstanding.

use std::time::Duration;

use gozer::{Event, EventKind, GozerSystem, TaskStatus, Value, VinzConfig};

const TIMEOUT: Duration = Duration::from_secs(60);

fn run_with_limit(limit: usize, items: i64) -> (Vec<Event>, TaskStatus) {
    let mut config = VinzConfig::default();
    config.spawn_limit = limit;
    let sys = GozerSystem::builder()
        .nodes(2)
        .instances_per_node(2)
        .config(config)
        .workflow(
            "(defun main (numbers)
               (for-each (number in numbers)
                 (* number number)))",
        )
        .build()
        .unwrap();
    let obs = sys.workflow.obs();
    obs.set_tracing(true);
    let numbers: Vec<Value> = (1..=items).map(Value::Int).collect();
    let task = sys.workflow.start("main", vec![Value::list(numbers)], None).unwrap();
    let rec = sys.wait(&task, TIMEOUT).unwrap();
    let events = obs.events();
    sys.shutdown();
    (events, rec.status)
}

#[test]
fn listing3_five_values_limit_three() {
    let (events, status) = run_with_limit(3, 5);
    assert_eq!(
        status,
        TaskStatus::Completed(Value::list(
            (1..=5).map(|n| Value::Int(n * n)).collect()
        ))
    );
    // The root fiber is f0; count its forks and children-yields.
    let root = Some("task-1/f0");
    let forks: Vec<&Event> = events
        .iter()
        .filter(|e| e.fiber.as_deref() == root && matches!(e.kind, EventKind::FiberForked { .. }))
        .collect();
    let yields = events
        .iter()
        .filter(|e| {
            e.fiber.as_deref() == root
                && matches!(&e.kind, EventKind::FiberYield { reason } if reason == "children")
        })
        .count();
    assert_eq!(forks.len(), 5, "one fork per value");
    // "The total number of yield forms will be equal to the number of
    // child fibers created" (Listing 3 discussion).
    assert_eq!(yields, 5, "one yield per child");
}

#[test]
fn outstanding_children_never_exceed_limit() {
    let limit = 3;
    let (events, _) = run_with_limit(limit, 8);
    let root = Some("task-1/f0");
    // Replay the root fiber's event sequence: fork = +1 outstanding,
    // resume-from-awake = -1.
    let mut outstanding: i64 = 0;
    let mut max_outstanding: i64 = 0;
    for e in &events {
        if e.fiber.as_deref() != root {
            continue;
        }
        match &e.kind {
            EventKind::FiberForked { .. } => {
                outstanding += 1;
                max_outstanding = max_outstanding.max(outstanding);
            }
            EventKind::FiberResumed { via } if via == "awake" => outstanding -= 1,
            _ => {}
        }
    }
    assert!(
        max_outstanding <= limit as i64,
        "outstanding children peaked at {max_outstanding}, limit {limit}"
    );
    assert_eq!(outstanding, 0, "every child eventually awoke the parent");
}

#[test]
fn high_limit_forks_everything_upfront() {
    let (events, _) = run_with_limit(64, 6);
    let root = Some("task-1/f0");
    // With the limit above the child count, all forks happen before any
    // awake-resume.
    let mut seen_resume = false;
    let mut forks_after_resume = 0;
    for e in &events {
        if e.fiber.as_deref() != root {
            continue;
        }
        match &e.kind {
            EventKind::FiberResumed { via } if via == "awake" => seen_resume = true,
            EventKind::FiberForked { .. } if seen_resume => forks_after_resume += 1,
            _ => {}
        }
    }
    assert_eq!(forks_after_resume, 0, "no throttling expected");
}

#[test]
fn dynamic_spawn_limit_adjustment() {
    // "The spawn limit may be dynamically adjusted by the workflow."
    let sys = GozerSystem::builder()
        .nodes(1)
        .instances_per_node(2)
        .workflow(
            "(defun main ()
               (set-spawn-limit 1)
               (for-each (i in (list 1 2 3 4)) i))",
        )
        .build()
        .unwrap();
    let obs = sys.workflow.obs();
    obs.set_tracing(true);
    let v = sys.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        v,
        Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)])
    );
    // With limit 1, forks and awakes strictly alternate after the first.
    let root = Some("task-1/f0");
    let mut outstanding = 0i64;
    let mut max_outstanding = 0i64;
    for e in obs.events() {
        if e.fiber.as_deref() != root {
            continue;
        }
        match &e.kind {
            EventKind::FiberForked { .. } => {
                outstanding += 1;
                max_outstanding = max_outstanding.max(outstanding);
            }
            EventKind::FiberResumed { via } if via == "awake" => outstanding -= 1,
            _ => {}
        }
    }
    assert_eq!(max_outstanding, 1);
    sys.shutdown();
}
