//! Phase-attribution acceptance suite: every completed task's
//! wall-clock must decompose into named phases that sum back to its
//! measured latency — exactly at the tracker (the ledger chains
//! instants), and within nanosecond accounting at the histogram family
//! — with `durability_hold` appearing only where a message leaves the
//! deployment under a deferred-durability store. Plus the live introspection endpoint: `/metrics` over HTTP
//! must be byte-identical to the in-process exporter.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_obs::Phase;
use vinz::testing::{chaos_seeds, repro_command, ChaosConfig, ChaosPlan};
use vinz::{LogStore, StateStore, TaskStatus, WorkflowService};

const FOR_EACH_WF: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-phases-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// Poll the tracker until every record is final and the set stops
/// changing (chaos-duplicated Starts can register stragglers).
fn drain_stragglers(workflow: &WorkflowService) {
    let obs = workflow.obs();
    let drain = Instant::now();
    let mut stable = 0u32;
    let mut last = usize::MAX;
    while drain.elapsed() < Duration::from_secs(10) && stable < 3 {
        let records = obs.tracker().all();
        if records.len() == last && records.iter().all(|r| r.status.is_final()) {
            stable += 1;
        } else {
            stable = 0;
        }
        last = records.len();
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One seeded run; returns an error string on any ledger violation.
fn chaos_run_ledgers(seed: u64) -> Result<(), String> {
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
    let before = obs.snapshot();
    let task = workflow
        .start("main", vec![Value::Int(10)], None)
        .map_err(|e| format!("seed {seed}: start failed: {e}"))?;
    let record = workflow.wait(&task, Duration::from_secs(45));
    drain_stragglers(&workflow);

    let mut err = None;
    match record.map(|r| r.status) {
        Some(TaskStatus::Completed(v)) if v == Value::Int((0..10).map(|i| i * i).sum()) => {}
        other => err = Some(format!("seed {seed}: unexpected outcome {other:?}")),
    }
    let mut finals = 0usize;
    for rec in obs.tracker().all() {
        if !rec.status.is_final() {
            continue;
        }
        finals += 1;
        // The headline invariant: the ledger telescopes to exactly the
        // task's measured latency — zero tolerance, the same instants
        // chain through every roll.
        if rec.phases.total() != rec.duration() {
            err.get_or_insert(format!(
                "seed {seed}: task {} phases sum {:?} != latency {:?} ({})",
                rec.id,
                rec.phases.total(),
                rec.duration(),
                rec.phases.render(),
            ));
        }
        if rec.current_phase.is_some() {
            err.get_or_insert(format!("seed {seed}: task {} ledger left open", rec.id));
        }
        // Admission lives outside the tracker window, always.
        if !rec.phases.get(Phase::Admission).is_zero() {
            err.get_or_insert(format!(
                "seed {seed}: task {} banked admission time inside its ledger",
                rec.id
            ));
        }
    }
    if finals == 0 {
        err.get_or_insert(format!("seed {seed}: no final task records"));
    }
    // Histogram-level accounting: summed phase observations equal
    // summed latency observations. Both sides are exact nanosecond
    // totals of the same closed ledgers, so the slack is zero; keep a
    // one-nanosecond-per-task allowance for future rounding changes.
    let delta = obs.snapshot().diff(&before);
    let latency = delta
        .histogram("gozer_task_latency_seconds{service=\"workflow\"}")
        .map(|h| (h.count, h.sum_nanos))
        .unwrap_or((0, 0));
    let mut phase_nanos = 0u64;
    for phase in Phase::ALL {
        if phase == Phase::Admission {
            continue;
        }
        if let Some(h) = delta.histogram(&format!(
            "gozer_task_phase_seconds{{phase=\"{}\",service=\"workflow\"}}",
            phase.as_str()
        )) {
            phase_nanos += h.sum_nanos;
        }
    }
    if latency.1.abs_diff(phase_nanos) > latency.0 {
        err.get_or_insert(format!(
            "seed {seed}: phase histograms sum to {phase_nanos}ns but latency observed {}ns \
             across {} task(s)",
            latency.1, latency.0
        ));
    }
    cluster.shutdown();
    match err {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

/// The tentpole acceptance test: across the 16-seed chaos sweep, every
/// finished task's phase durations sum to exactly its latency, the
/// ledger is closed, and the phase histogram family accounts for the
/// latency histogram nanosecond for nanosecond.
#[test]
fn chaos_sweep_phase_ledgers_sum_to_latency() {
    let mut failures = Vec::new();
    for &seed in &chaos_seeds(16) {
        if let Err(e) = chaos_run_ledgers(seed) {
            failures.push(e);
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
                    repro_command(
                        "-p vinz --test phases",
                        "chaos_sweep_phase_ledgers_sum_to_latency",
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

/// Three async `deflink` calls in one task, and a task that only forks,
/// joins and runs a `for-each`.
const BOUNDARY_WF: &str = "
(deflink S :wsdl \"urn:square\" :port \"Square\")
(defun calls (n)
  (+ (S-Square-Method :n n) (S-Square-Method :n n) (S-Square-Method :n n)))
(defun triple (n) (* n 3))
(defun internal (n)
  (+ (join-process (fork-and-exec #'triple :argument n))
     (apply #'+ (for-each (i in (range n)) (* i i)))))
";

/// What one task cost at the durability gate: its ledger's
/// `durability_hold`, and how many messages the broker parked for it.
struct GateCost {
    hold: Duration,
    parked: u64,
}

/// Run `internal(8)` and then `calls(5)` on one deployment over `store`
/// (or the default MemStore); returns each task's gate cost.
fn gate_costs(store: Option<Arc<dyn StateStore>>) -> (GateCost, GateCost) {
    let cluster = Cluster::new();
    vinz::testing::register_square_service(&cluster, "Square", 1, 1, Duration::ZERO);
    let mut builder = WorkflowService::builder(&cluster, "workflow")
        .source(BOUNDARY_WF)
        .instances(0, 2)
        .instances(1, 2);
    if let Some(store) = store {
        builder = builder.store(store);
    }
    let workflow = builder.deploy().unwrap();
    let obs = workflow.obs();
    let parked_total = || obs.snapshot().counter("gozer_messages_held_total").unwrap_or(0);
    let run = |function: &str, arg: i64, want: i64| {
        let before = parked_total();
        let task = workflow.start(function, vec![Value::Int(arg)], None).unwrap();
        let rec = workflow.wait(&task, Duration::from_secs(45)).expect("task finishes");
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(want)), "{function}");
        assert_eq!(cluster.held_count(), 0, "{function}: a message is still parked");
        GateCost {
            hold: obs.tracker().get(&task).unwrap().phases.get(Phase::DurabilityHold),
            parked: parked_total() - before,
        }
    };
    let internal = run("internal", 8, 24 + (0..8).map(|i| i * i).sum::<i64>());
    // Children now start while their parent is still in its first run,
    // so wake-ups that find it "initial" back off and requeue; none of
    // them may sit on the parent's lock long enough to time another out.
    let retries = obs.counters().awake_retries.load(std::sync::atomic::Ordering::Relaxed);
    assert!(retries <= 8, "for-each of 8 needed {retries} AwakeFiber lock retries");
    let calls = run("calls", 5, 75);
    cluster.shutdown();
    (internal, calls)
}

/// The durability gate sits at the deployment boundary. On a
/// group-commit LogStore each async service call — the one message that
/// can outlive the process — parks once behind the write of its one
/// `call-req/` record and banks `durability_hold`; a task that only forks, joins and
/// awakes inside the deployment parks nothing and banks exactly zero.
/// The synchronous MemStore never holds anything.
#[test]
fn durability_hold_only_at_the_deployment_boundary() {
    let (internal, calls) = gate_costs(None);
    for (what, cost) in [("internal", &internal), ("calls", &calls)] {
        assert_eq!(cost.hold, Duration::ZERO, "MemStore, {what}");
        assert_eq!(cost.parked, 0, "MemStore, {what}");
    }

    let dir = temp_dir("hold");
    // A window far longer than a task: nothing commits until a parked
    // request's probe asks for it, so every call parks exactly once.
    let store = LogStore::builder(&dir)
        .group_commit_window(Duration::from_millis(50))
        .build()
        .unwrap();
    let (internal, calls) = gate_costs(Some(Arc::new(store)));
    assert_eq!(internal.hold, Duration::ZERO, "fork/join/for-each waited on a save");
    assert_eq!(internal.parked, 0, "a fiber-bound message was parked");
    assert_eq!(calls.parked, 3, "one park per async call");
    assert!(calls.hold > Duration::ZERO, "a parked request must bank durability_hold");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The wait for a `deflink` call's reply is `service_wait`, not
/// `suspended`: the generated stub yields with `{:reason :service-call}`
/// so the ledger knows what the fiber is waiting on.
#[test]
fn deflink_call_accrues_service_wait() {
    let cluster = Cluster::new();
    vinz::testing::register_value_service(
        &cluster,
        "Slow",
        Some(
            gozer_xml::ServiceDescription::new("Slow", "urn:slow-service").operation(
                "Echo",
                "Returns n after a pause.",
                &[("n", "int")],
            ),
        ),
        |_op, req| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(req
                .as_map()
                .and_then(|m| m.get(&Value::str("n")).cloned())
                .unwrap_or(Value::Nil))
        },
    );
    cluster.spawn_instances("Slow", 0, 1);
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink S :wsdl \"urn:slow-service\" :port \"Slow\")
             (defun main (n) (S-Echo-Method :n n))",
        )
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = workflow.start("main", vec![Value::Int(7)], None).unwrap();
    let rec = workflow
        .wait(&task, Duration::from_secs(45))
        .expect("task finishes");
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int(7)));
    let rec = workflow.obs().tracker().get(&task).unwrap();
    cluster.shutdown();
    assert!(
        rec.phases.get(Phase::ServiceWait) >= Duration::from_millis(10),
        "a 20 ms service call must show as service_wait: {}",
        rec.phases.render()
    );
    assert_eq!(
        rec.phases.get(Phase::Suspended),
        Duration::ZERO,
        "{}",
        rec.phases.render()
    );
    assert_eq!(rec.phases.total(), rec.duration());
}

fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: gozer\r\n\r\n").as_bytes())
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("http response head");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// The introspection endpoint serves the same exporter the in-process
/// handle renders: for a quiesced deployment, `/metrics` over HTTP is
/// byte-identical to `obs().export_text()`. Also exercises `/healthz`,
/// `/tasks`, and `/timeline/<id>` against a real run.
#[test]
fn introspect_http_matches_in_process_exporter() {
    let cluster = Cluster::new();
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FOR_EACH_WF)
        .instances(0, 2)
        .instances(1, 2)
        .introspect("127.0.0.1:0")
        .deploy()
        .unwrap();
    let addr = workflow.introspect_addr().expect("introspect server bound");
    let obs = workflow.obs();
    obs.set_tracing(true);
    let task = workflow.start("main", vec![Value::Int(6)], None).unwrap();
    let rec = workflow.wait(&task, Duration::from_secs(45)).expect("task finishes");
    assert!(rec.status.is_final());
    drain_stragglers(&workflow);

    // Byte identity: scrape and render between queue-quiet moments.
    // Closure-backed samples (queue gauges, drop counters) can tick
    // between the two reads, so retry until a stable pair appears.
    let mut matched = false;
    let mut scraped = String::new();
    for _ in 0..20 {
        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, "HTTP/1.1 200 OK");
        scraped = body;
        if scraped == obs.export_text() {
            matched = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(matched, "/metrics never matched export_text() byte for byte");
    // The run reached both task histograms: a phase ledger that
    // reconciles against latency also holds when both are empty.
    assert!(scraped.contains("# TYPE gozer_task_phase_seconds histogram\n"));
    for sample in [
        "gozer_task_phase_seconds_count{phase=\"vm_exec\",service=\"workflow\"}",
        "gozer_task_latency_seconds_count{service=\"workflow\"}",
    ] {
        let count = scraped
            .lines()
            .find_map(|l| l.strip_prefix(sample)?.strip_prefix(' '))
            .and_then(|v| v.parse::<u64>().ok());
        assert!(count.is_some_and(|n| n > 0), "{sample} = {count:?}");
    }

    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 200 OK", "healthy deployment: {health}");
    assert!(health.starts_with("ok\n"));
    assert!(health.contains("reaper: alive"));
    assert!(health.contains("instances: 4/4"));

    let (status, tasks) = http_get(addr, "/tasks");
    assert_eq!(status, "HTTP/1.1 200 OK");
    let row = tasks
        .lines()
        .find(|l| l.starts_with(&format!("{task} ")))
        .unwrap_or_else(|| panic!("no /tasks row for {task} in:\n{tasks}"));
    assert!(row.contains(" completed "), "row: {row}");
    assert!(
        row.contains(" - fibers="),
        "final task shows no open phase: {row}"
    );

    let (status, timeline) = http_get(addr, &format!("/timeline/{task}"));
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(timeline.starts_with(&format!("task {task}")));
    assert!(timeline.contains("critical path:"), "timeline:\n{timeline}");
    assert!(timeline.contains("critical totals:"));

    let (status, _) = http_get(addr, "/timeline/task-none");
    assert_eq!(status, "HTTP/1.1 404 Not Found");

    // Shutdown kills the cluster but the server lives with the
    // deployment handle: /healthz now reports degraded.
    cluster.shutdown();
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, "HTTP/1.1 503 Service Unavailable", "{health}");
    assert!(health.starts_with("degraded\n"));
}
