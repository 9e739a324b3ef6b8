//! Observability under fire: span-tree reconstruction across the chaos
//! sweep. Every injected fault is stamped with the ids of the message it
//! hit, so it must land inside a live task's timeline — a fault the
//! timeline cannot place (a "correlated orphan") is a correlation bug.

use std::time::Duration;

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_obs::{EventKind, TimelineSet};
use vinz::testing::{chaos_seeds, repro_command, ChaosConfig, ChaosPlan};
use vinz::{TaskStatus, WorkflowService};

const FOR_EACH_WF: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

/// Run one seeded chaos run with full event recording and return the
/// reconstructed timelines plus the root task id. Mirrors the
/// survivability harness: chaos stays armed for the whole run and the
/// recovery layer (lease reaper + supervisor) absorbs every failure.
fn chaos_run_timelines(seed: u64) -> Result<(TimelineSet, String), String> {
    let cluster = Cluster::new();
    let plan = ChaosPlan::new(ChaosConfig::survivability(seed));
    cluster.set_chaos(plan.clone());
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;
    let obs = workflow.obs();
    obs.set_tracing(true);
    let task = workflow
        .start("main", vec![Value::Int(10)], None)
        .map_err(|e| format!("seed {seed}: start failed: {e}"))?;

    let record = workflow.wait(&task, Duration::from_secs(45));
    let timelines = obs.timelines();
    cluster.shutdown();

    match record.map(|r| r.status) {
        Some(TaskStatus::Completed(v)) if v == Value::Int((0..10).map(|i| i * i).sum()) => {
            Ok((timelines, task))
        }
        other => Err(format!("seed {seed}: unexpected outcome {other:?}")),
    }
}

/// The tentpole acceptance test: across the 16-seed sweep, every fault
/// event that names a task attaches to that task's reconstructed
/// timeline, and no correlated event is left orphaned.
#[test]
fn chaos_sweep_faults_attach_to_task_timelines() {
    let mut failures = Vec::new();
    let mut total_attached = 0usize;
    for &seed in &chaos_seeds(16) {
        let (timelines, task) = match chaos_run_timelines(seed) {
            Ok(r) => r,
            Err(e) => {
                failures.push(e);
                continue;
            }
        };
        let Some(timeline) = timelines.task(&task) else {
            failures.push(format!("seed {seed}: no timeline for root task {task}"));
            continue;
        };
        // Every task-correlated fault in the stream must be findable
        // through the timeline's fault view.
        let placed = timeline.faults().len();
        let stamped = timelines
            .tasks
            .iter()
            .map(|t| t.faults().len())
            .sum::<usize>();
        let orphaned: Vec<String> = timelines
            .correlated_orphans()
            .iter()
            .map(|e| format!("{:?} task={:?} fiber={:?}", e.kind, e.task, e.fiber))
            .collect();
        if !orphaned.is_empty() {
            failures.push(format!(
                "seed {seed}: {} correlated orphan event(s): {}",
                orphaned.len(),
                orphaned.join("; ")
            ));
        }
        // Sanity: fault counting is consistent (placed faults are a
        // subset of all stamped faults across tasks).
        assert!(placed <= stamped);
        total_attached += stamped;
    }
    // Positive half of the contract: the survivability preset really
    // injects faults on id-stamped messages, so across the sweep some
    // must have landed inside task timelines — otherwise the orphan
    // check above is vacuous.
    if failures.is_empty() {
        assert!(
            total_attached > 0,
            "no fault event attached to any timeline across the sweep"
        );
        eprintln!(
            "chaos_sweep_faults_attach_to_task_timelines: \
             {total_attached} fault events attached across the sweep"
        );
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
                    repro_command(
                        "-p vinz --test obs",
                        "chaos_sweep_faults_attach_to_task_timelines",
                        seed
                    )
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
}

/// Fault-free span-tree shape: the root fiber f0 forks one child per
/// item, every child span links back to its parent, and the task-level
/// events bracket the whole tree.
#[test]
fn span_tree_reconstructs_fiber_parentage() {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    obs.set_tracing(true);
    let v = wf
        .call("main", vec![Value::Int(5)], Duration::from_secs(60))
        .unwrap();
    assert_eq!(v, Value::Int(30));

    let timelines = obs.timelines();
    assert_eq!(timelines.tasks.len(), 1);
    let t = &timelines.tasks[0];
    let root_id = format!("{}/f0", t.task);
    let root = t.span(&root_id).expect("root fiber span");
    assert_eq!(root.parent, None);
    assert_eq!(root.children.len(), 5, "one fork per item");
    for child in &root.children {
        let span = t.span(child).expect("child span exists");
        assert_eq!(span.parent.as_deref(), Some(root_id.as_str()));
        assert!(
            span.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FiberDone)),
            "child {child} completed"
        );
    }
    // TaskDone is recorded by whichever fiber finished the task — here
    // the root — so look through the whole timeline.
    assert!(
        t.events
            .iter()
            .chain(t.spans.iter().flat_map(|s| s.events.iter()))
            .any(|e| matches!(e.kind, EventKind::TaskDone { .. })),
        "TaskDone recorded in the timeline"
    );
    assert!(t.faults().is_empty(), "no faults in a fault-free run");
    assert!(timelines.correlated_orphans().is_empty());

    // The rendered report leads with the task header and nests children.
    let rendered = t.render();
    assert!(rendered.starts_with(&format!("task {}\n", t.task)));
    assert!(rendered.contains(&format!("fiber {root_id}")));
    cluster.shutdown();
}

/// After one workflow run, the exporter serves every required metric
/// family, and the run moved each broker and workflow counter: a layer
/// whose events stop reaching the registry fails here even while the
/// functional suites pass.
#[test]
fn exporter_serves_required_families_after_a_run() {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    let before = obs.snapshot();
    let v = wf
        .call("main", vec![Value::Int(4)], Duration::from_secs(60))
        .unwrap();
    assert_eq!(v, Value::Int(14));

    let text = obs.export_text();
    for family in [
        "bluebox_messages_sent_total",
        "bluebox_messages_delivered_total",
        "bluebox_queue_wait_seconds",
        "bluebox_handler_busy_seconds",
        "vinz_tasks_started_total",
        "vinz_fibers_run_total",
        "vinz_fiber_persists_total",
        "gozer_events_dropped_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family}")),
            "exporter missing family {family}"
        );
    }

    // The snapshot diff isolates this run and yields computable means.
    let delta = obs.snapshot().diff(&before);
    for counter in [
        "bluebox_messages_sent_total",
        "bluebox_messages_delivered_total",
        "vinz_tasks_started_total{service=\"workflow\"}",
        "vinz_fibers_run_total{service=\"workflow\"}",
        "vinz_fiber_persists_total{service=\"workflow\"}",
    ] {
        assert!(
            delta.counter(counter).is_some_and(|n| n > 0),
            "{counter} did not move: {:?}",
            delta.counter(counter)
        );
    }
    let wait = delta
        .histogram("bluebox_queue_wait_seconds")
        .expect("wait histogram");
    assert!(wait.count > 0, "queue-wait observations recorded");
    assert!(wait.mean().is_some(), "mean queue wait computable");
    let busy = delta
        .histogram("bluebox_handler_busy_seconds")
        .expect("busy histogram");
    assert!(busy.count > 0 && busy.mean().is_some());
    cluster.shutdown();
}
