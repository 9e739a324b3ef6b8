//! Observability under fire: span-tree reconstruction across the chaos
//! sweep. Every injected fault is stamped with the ids of the message it
//! hit, so it must land inside a live task's timeline — a fault the
//! timeline cannot place (a "correlated orphan") is a correlation bug.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, Fault, RemoteDelivery, TcpWorker, WorkerConfig, WorkerCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_obs::{EventKind, TimelineSet};
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::Gvm;
use gozer_xml::ServiceDescription;
use vinz::testing::{
    chaos_seeds, register_remote_service_desc, repro_command, ChaosConfig, ChaosPlan,
};
use vinz::{LogStore, TaskStatus, VinzConfig, WorkflowService};

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
    let memstore_shapes = family_shapes(&text);
    cluster.shutdown();

    // The same layers plus the log store and the TCP transport: every
    // family either deployment serves keeps its name, TYPE, HELP and
    // label keys, and the in-memory deployment serves exactly the
    // families that belong to neither of those two.
    let full = family_shapes(&remote_log_deployment_scrape());
    assert_eq!(
        full.iter().map(String::as_str).collect::<Vec<_>>(),
        FAMILY_SHAPES,
        "exported family shapes drifted"
    );
    let layered =
        |shape: &&str| shape.starts_with("gozer_store_") || shape.starts_with("bluebox_tcp_");
    assert_eq!(
        memstore_shapes
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        FAMILY_SHAPES
            .iter()
            .copied()
            .filter(|s| !layered(s))
            .collect::<Vec<_>>(),
    );
}

/// One line per family a scrape serves: `name type [label keys] help`.
/// The exporter's own `le` and `quantile` labels are left out.
fn family_shapes(text: &str) -> BTreeSet<String> {
    let mut families: BTreeMap<&str, (&str, &str, BTreeSet<&str>)> = BTreeMap::new();
    let mut current = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap();
            current = name;
            families.entry(name).or_default().1 = help;
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap();
            families.entry(name).or_default().0 = kind;
        } else if let Some((_, labels)) = line.split_once('{') {
            let labels = &labels[..labels.rfind('}').unwrap()];
            let keys = &mut families.get_mut(current).unwrap().2;
            for pair in labels.split(',') {
                let key = pair.split_once('=').unwrap().0;
                if key != "le" && key != "quantile" {
                    keys.insert(key);
                }
            }
        }
    }
    families
        .into_iter()
        .map(|(name, (kind, help, keys))| {
            let keys: Vec<&str> = keys.into_iter().collect();
            format!("{name} {kind} [{}] {help}", keys.join(","))
        })
        .collect()
}

/// Run one task on a LogStore deployment whose `Compute` service is a
/// [`TcpWorker`] over loopback, and return the cluster's scrape.
fn remote_log_deployment_scrape() -> String {
    let cluster = Cluster::new();
    let desc = ServiceDescription::new("Compute", "urn:compute").operation(
        "Square",
        "Squares the field n.",
        &[("n", "int")],
    );
    register_remote_service_desc(&cluster, "Compute", desc);
    let dir = std::env::temp_dir().join(format!("gozer-obs-shapes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(LogStore::builder(&dir).build().unwrap());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink C :wsdl \"urn:compute\" :port \"Compute\")
             (defun main (n)
               (+ (C-Square-Method :n n) (apply #'+ (for-each (i in (range n)) (* i i)))))",
        )
        .store(store)
        .instances(0, 2)
        .tcp_listen("127.0.0.1:0")
        .deploy()
        .unwrap();
    let gvm = Gvm::with_pool_size(1);
    let square = move |_: &WorkerCtx, d: &RemoteDelivery| -> Result<Vec<u8>, Fault> {
        let request =
            deserialize_value(&d.body, &gvm).map_err(|e| Fault::new("{t}Bad", e.to_string()))?;
        let n = request
            .as_map()
            .and_then(|m| m.get(&Value::str("n")).cloned())
            .and_then(|v| v.as_int())
            .ok_or_else(|| Fault::new("{t}BadArg", "need n"))?;
        serialize_value(&Value::Int(n * n), Codec::None)
            .map_err(|e| Fault::new("{t}Bad", e.to_string()))
    };
    let addr = wf.tcp_addr().unwrap().to_string();
    let worker = TcpWorker::spawn(WorkerConfig::new(addr, "Compute", 1), Arc::new(square));
    let broker = wf.tcp_broker().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.live_connections() < 1 {
        assert!(Instant::now() < deadline, "worker never connected");
        std::thread::sleep(Duration::from_millis(1));
    }
    let v = wf
        .call("main", vec![Value::Int(4)], Duration::from_secs(60))
        .unwrap();
    assert_eq!(v, Value::Int(16 + 14));
    let text = wf.obs().export_text();
    worker.stop();
    cluster.shutdown();
    drop(wf);
    let _ = std::fs::remove_dir_all(&dir);
    text
}

/// Every family the scrape of [`remote_log_deployment_scrape`] serves.
const FAMILY_SHAPES: &[&str] = &[
    "bluebox_handler_busy_seconds histogram [] Time spent inside handlers.",
    "bluebox_handler_completions_total counter [] Handler invocations that completed.",
    "bluebox_handler_faults_total counter [] Handler invocations that returned a fault.",
    "bluebox_lease_reclaims_total counter [] In-flight messages reclaimed from dead or stale instances.",
    "bluebox_messages_delivered_total counter [] Messages handed to an instance.",
    "bluebox_messages_in_flight gauge [] Messages currently being processed.",
    "bluebox_messages_in_flight_peak gauge [] High-water mark of in-flight messages.",
    "bluebox_messages_redelivered_total counter [] Messages re-queued after a failed delivery.",
    "bluebox_messages_sent_total counter [] Messages accepted by the broker.",
    "bluebox_queue_wait_seconds histogram [] Message queue wait, enqueue to delivery.",
    "bluebox_sync_block_seconds histogram [] Caller block time of synchronous nested calls.",
    "bluebox_tcp_bytes_sent_total counter [] Bytes written to worker sockets.",
    "bluebox_tcp_decode_errors_total counter [] Frames that failed to decode (each one is connection-fatal).",
    "bluebox_tcp_duplicate_settles_total counter [] Remote settles discarded because the lease was already reclaimed or superseded.",
    "bluebox_tcp_frames_received_total counter [] Frames decoded off worker sockets.",
    "bluebox_tcp_frames_sent_total counter [] Frames written to worker sockets.",
    "bluebox_tcp_heartbeats_total counter [] Heartbeat frames received from workers.",
    "bluebox_tcp_remote_deliveries_total counter [] Deliveries forwarded to remote workers.",
    "bluebox_tcp_remote_settles_total counter [] Remote settles applied to a live lease.",
    "bluebox_tcp_worker_connects_total counter [] Worker connections accepted.",
    "bluebox_tcp_worker_disconnects_total counter [] Worker connections lost or closed.",
    "gozer_affinity_hits_total counter [] Affinity-stamped messages delivered to their affine node.",
    "gozer_affinity_misses_total counter [] Affinity-stamped messages delivered elsewhere (steal or dead node).",
    "gozer_dead_letters_total counter [] Messages quarantined after exhausting their redelivery budget.",
    "gozer_events_dropped_total counter [] Events evicted from the bus ring by overflow.",
    "gozer_messages_held gauge [] Messages currently parked awaiting durability.",
    "gozer_messages_held_total counter [] Outbound messages parked behind a not-yet-durable store watermark.",
    "gozer_queue_depth gauge [] Waiting messages across all service queues.",
    "gozer_snapshot_delta_bytes_total counter [service] Bytes of persisted delta snapshot records.",
    "gozer_snapshot_delta_saves_total counter [service] Fiber saves persisted as delta snapshots.",
    "gozer_snapshot_full_bytes_total counter [service] Bytes of persisted full snapshot records.",
    "gozer_snapshot_seed_frames_total counter [service,source] Clean frames behind delta saves and loads, by where their seeding tables came from.",
    "gozer_store_commit_latency histogram [] Enqueue-to-durable latency of saves through the group-commit path.",
    "gozer_store_compactions_total counter [] Log compactions completed by the log store.",
    "gozer_store_fsyncs_total counter [] fsync calls issued by the log store's commit path.",
    "gozer_store_group_commit_batch_total counter [] Group commits completed by the log store.",
    "gozer_store_log_bytes_total counter [] Bytes appended to log segments.",
    "gozer_suspended_fibers gauge [service] Fibers currently suspended with a persisted continuation.",
    "gozer_task_latency_seconds histogram [service] Start→complete task latency.",
    "gozer_task_phase_seconds histogram [phase,service] Per-phase share of task wall-clock (latency attribution).",
    "vinz_awake_retries_total counter [service] AwakeFiber lock-wait give-ups.",
    "vinz_calls_retried_total counter [service] Async service calls re-dispatched by the retry policy.",
    "vinz_fiber_persist_bytes_total counter [service] Bytes of persisted (compressed) fiber state.",
    "vinz_fiber_persists_total counter [service] Fiber states persisted.",
    "vinz_fiber_store_loads_total counter [service] Fiber loads served by the store (cache misses).",
    "vinz_fibers_run_total counter [service] RunFiber executions.",
    "vinz_orphans_resumed_total counter [service] Orphaned continuations resumed by the supervisor.",
    "vinz_resumes_total counter [service] Fiber resumptions (AwakeFiber + ResumeFromCall + JoinProcess).",
    "vinz_supervisor_respawns_total counter [service] Dead deployments re-provisioned by the supervisor.",
    "vinz_tasks_dead_lettered_total counter [service] Tasks terminally failed by dead-lettered messages.",
    "vinz_tasks_started_total counter [service] Tasks started.",
    "vinz_taskvar_cache_hits_total counter [service] Task-variable reads served by the node cache.",
    "vinz_taskvar_cache_misses_total counter [service] Task-variable reads served by the store.",
];

/// A task is counted before anyone waiting on it wakes: the latency
/// histogram, read right after each `wait` returns, has seen every task
/// waited for so far.
#[test]
fn a_waited_task_is_already_in_the_latency_histogram() {
    let cluster = Cluster::new();
    // Uncompressed saves: the test is about the tracker, and 2 000
    // deflates dominate its time in a debug build.
    let config = VinzConfig {
        codec: Codec::None,
        ..VinzConfig::default()
    };
    let workflow = WorkflowService::builder(&cluster, "wf")
        .source("(defun main (n) (* n n))")
        .config(config)
        .instances(0, 2)
        .deploy()
        .expect("deploy");
    let obs = workflow.obs();
    let key = "gozer_task_latency_seconds{service=\"wf\"}";
    let mut late = Vec::new();
    for waited in 1..=2000u64 {
        let task = workflow
            .start("main", vec![Value::Int(3)], None)
            .expect("start");
        let rec = workflow
            .wait(&task, Duration::from_secs(30))
            .expect("task finishes");
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(9)));
        let count = obs.snapshot().histogram(key).map_or(0, |h| h.count);
        if count < waited {
            late.push((waited, count));
        }
    }
    assert!(
        late.is_empty(),
        "(waited, counted) after a wait returned: {late:?}"
    );
    cluster.shutdown();
}
