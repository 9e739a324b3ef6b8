//! Multi-process survivability: workers are real OS processes serving a
//! vinz deployment over the TCP transport, and the harness kills them
//! with genuine `kill -9` — no atexit, no flush, no goodbye frame. The
//! broker-side lease reaper, supervisor respawn, and `hold_until`
//! durability parking must carry every accepted task to the correct
//! terminal value exactly once, with no harness-side cleanup beyond
//! respawning worker *processes* (the process-manager role).
//!
//! Mirrors `crates/vinz/tests/recovery.rs`, with process death in place
//! of simulated instance crashes. Replay a failing seed with
//! `CLUSTER_SEED=<n> cargo test -p gozer-worker --test cluster_kill`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, RecoveryConfig, TcpBroker};
use gozer_lang::Value;
use gozer_worker::{KillPlan, ProcessSupervisor, WorkerSpec};
use gozer_xml::ServiceDescription;
use vinz::testing::{cluster_seeds, register_remote_service_desc};
use vinz::{LogStore, TaskStatus, WorkflowService};

const WORKER_BIN: &str = env!("CARGO_BIN_EXE_gozer-worker");
const TIMEOUT: Duration = Duration::from_secs(45);

/// Each task makes one remote call that spins ~40ms in the worker, so
/// seeded kills (20–200ms in) land while deliveries are in flight.
const WF: &str = "
(deflink CP :wsdl \"urn:compute\" :port \"Compute\")
(defun main (n spin) (CP-Work-Method :n n :spin_ms spin))
";

fn compute_desc() -> ServiceDescription {
    ServiceDescription::new("Compute", "urn:compute")
        .operation("Square", "Squares the field n.", &[("n", "int")])
        .operation(
            "Work",
            "Busy-works for spin_ms milliseconds, then squares n.",
            &[("n", "int"), ("spin_ms", "int")],
        )
}

/// Sub-second kill detection: `kill -9` closes the socket, which marks
/// the proxy instances dead immediately; the TTL here only bounds the
/// torn/wedged cases.
fn fast_recovery() -> RecoveryConfig {
    RecoveryConfig {
        lease_ttl: Duration::from_millis(600),
        scan_interval: Duration::from_millis(5),
        redelivery_budget: 32,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(25),
    }
}

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    f()
}

fn wait_for_workers(broker: &Arc<TcpBroker>, n: usize) -> bool {
    wait_until(Duration::from_secs(10), || broker.live_connections() >= n)
}

struct SeedOutcome {
    killed: usize,
    reclaims: u64,
}

/// One sweep iteration: deploy a workflow service with a TCP listener,
/// attach two 2-slot worker processes, start `tasks` workflow tasks,
/// run the seeded kill plan (kill -9 + respawn ×2), and require every
/// task to finish `Completed(n²)` — served exactly once.
fn run_seed(seed: u64, tasks: i64, store: bool) -> Result<SeedOutcome, String> {
    let fail = |msg: String| format!("seed {seed}: {msg}");
    let cluster = Cluster::new();
    cluster.set_recovery(fast_recovery());
    register_remote_service_desc(&cluster, "Compute", compute_desc());

    let mut builder = WorkflowService::builder(&cluster, "workflow")
        .source(WF)
        .instances(0, 2)
        .instances(1, 2)
        .tcp_listen("127.0.0.1:0");
    let store_dir = if store {
        let dir = std::env::temp_dir().join(format!(
            "gozer-cluster-kill-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let log = LogStore::builder(&dir)
            .build()
            .map_err(|e| fail(format!("logstore: {e}")))?;
        builder = builder.store(Arc::new(log));
        Some(dir)
    } else {
        None
    };
    let wf = builder.deploy().map_err(|e| fail(format!("deploy: {e}")))?;
    let broker = wf.tcp_broker().expect("tcp_listen implies a broker");
    let addr = wf.tcp_addr().expect("broker has a bound address");

    let sup = ProcessSupervisor::new(WORKER_BIN, addr.to_string(), true);
    for i in 0u32..2 {
        sup.spawn(WorkerSpec {
            name: format!("w{i}"),
            node: 100 + i,
            services: vec![("Compute".to_string(), 2)],
            seed: seed.wrapping_add(i as u64),
        })
        .map_err(|e| fail(format!("spawn worker {i}: {e}")))?;
    }
    if !wait_for_workers(&broker, 2) {
        return Err(fail("workers never connected".to_string()));
    }

    let mut started = Vec::new();
    for n in 0..tasks {
        let task = wf
            .start("main", vec![Value::Int(n), Value::Int(40)], None)
            .map_err(|e| fail(format!("start task {n}: {e}")))?;
        started.push((task, n * n));
    }

    let plan = KillPlan::from_seed(seed, 2, 2);
    let killed = plan.execute(&sup);

    let mut errors = Vec::new();
    for (task, expected) in &started {
        match wf.wait(task, TIMEOUT).map(|r| r.status) {
            Some(TaskStatus::Completed(v)) if v == Value::Int(*expected) => {}
            other => errors.push(fail(format!(
                "task {task}: {other:?}, want Completed({expected})"
            ))),
        }
    }

    // Exactly-once across process death: every remote call was settled
    // exactly once on the broker (stale settles from killed workers'
    // earlier deliveries are counted separately and never applied), and
    // nothing was quarantined — the work all genuinely finished.
    let tm = broker.transport_metrics().snapshot();
    if errors.is_empty() && tm.remote_settles != tasks as u64 {
        errors.push(fail(format!(
            "{} settles applied for {} remote calls (deliveries {}, stale dups {})",
            tm.remote_settles, tasks, tm.remote_deliveries, tm.duplicate_settles
        )));
    }
    let recovery = cluster.recovery_stats();
    if recovery.dead_letters > 0 {
        errors.push(fail(format!(
            "{} messages dead-lettered; kills must surface as redelivery, not quarantine",
            recovery.dead_letters
        )));
    }

    sup.shutdown();
    cluster.shutdown();
    if let Some(dir) = store_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if errors.is_empty() {
        Ok(SeedOutcome {
            killed,
            reclaims: recovery.reclaims,
        })
    } else {
        Err(errors.join("\n  "))
    }
}

fn report(test: &str, seeds: &[u64], failures: Vec<String>, reclaimed_seeds: usize, kills: usize) {
    if !failures.is_empty() {
        let repros: Vec<String> = failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .filter_map(|s| s.strip_prefix("seed "))
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|seed| format!("    CLUSTER_SEED={seed} cargo test -p gozer-worker --test cluster_kill {test}"))
            .collect();
        panic!(
            "{}/{} seeds failed:\n  {}\n  replay with:\n{}",
            failures.len(),
            seeds.len(),
            failures.join("\n  "),
            repros.join("\n")
        );
    }
    eprintln!(
        "{test}: {} seeds passed, {kills} processes killed, {reclaimed_seeds} seeds recovered leases",
        seeds.len()
    );
}

/// The acceptance sweep: 16 seeds of two-worker deployments, each with
/// two seeded `kill -9` + respawn events, every task completing with
/// the exact value, exactly once, no dead letters.
#[test]
fn kill9_sweep_completes_every_task_exactly_once() {
    let seeds = cluster_seeds(16);
    let mut failures = Vec::new();
    let mut reclaimed_seeds = 0usize;
    let mut kills = 0usize;
    for &seed in &seeds {
        match run_seed(seed, 6, false) {
            Ok(out) => {
                kills += out.killed;
                if out.reclaims > 0 {
                    reclaimed_seeds += 1;
                }
            }
            Err(e) => failures.push(e),
        }
    }
    // The sweep must actually exercise process death: every seed kills
    // two live processes, and across 16 seeds at least one kill must
    // have landed mid-lease (in practice most do).
    if failures.is_empty() {
        assert_eq!(kills, seeds.len() * 2, "every scheduled kill -9 hit a live process");
        assert!(
            reclaimed_seeds > 0,
            "no seed saw a lease reclaim — kills never landed mid-delivery"
        );
    }
    report(
        "kill9_sweep_completes_every_task_exactly_once",
        &seeds,
        failures,
        reclaimed_seeds,
        kills,
    );
}

/// The same process-kill plan with the LogStore underneath: outbound
/// calls carry `hold_until` tickets, so deliveries park in the broker
/// until the group commit's watermark passes them — and a `kill -9`
/// mid-flight must not break either the parking or the replay.
#[test]
fn kill9_with_logstore_hold_until_parking() {
    let seeds = cluster_seeds(4);
    let mut failures = Vec::new();
    let mut reclaimed_seeds = 0usize;
    let mut kills = 0usize;
    for &seed in &seeds {
        match run_seed(seed.wrapping_add(0x51_0e), 4, true) {
            Ok(out) => {
                kills += out.killed;
                if out.reclaims > 0 {
                    reclaimed_seeds += 1;
                }
            }
            Err(e) => failures.push(e),
        }
    }
    report(
        "kill9_with_logstore_hold_until_parking",
        &seeds,
        failures,
        reclaimed_seeds,
        kills,
    );
}

/// Control run: no kills. Two worker processes connect, serve, and the
/// broker's view of the fleet (names, live connections) is accurate.
#[test]
fn worker_processes_serve_a_clean_run() {
    let cluster = Cluster::new();
    cluster.set_recovery(fast_recovery());
    register_remote_service_desc(&cluster, "Compute", compute_desc());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WF)
        .instances(0, 2)
        .tcp_listen("127.0.0.1:0")
        .deploy()
        .expect("deploy");
    let broker = wf.tcp_broker().unwrap();
    let addr = wf.tcp_addr().unwrap();

    let sup = ProcessSupervisor::new(WORKER_BIN, addr.to_string(), false);
    for i in 0u32..2 {
        sup.spawn(WorkerSpec {
            name: format!("w{i}"),
            node: 100 + i,
            services: vec![("Compute".to_string(), 2)],
            seed: i as u64,
        })
        .expect("spawn worker");
    }
    assert!(wait_for_workers(&broker, 2), "workers connected");
    let mut names = broker.connected_workers();
    names.sort();
    assert_eq!(names, vec!["w0".to_string(), "w1".to_string()]);

    let mut tasks = Vec::new();
    for n in 0..4i64 {
        tasks.push((
            wf.start("main", vec![Value::Int(n), Value::Int(5)], None).unwrap(),
            n * n,
        ));
    }
    for (task, expected) in &tasks {
        let status = wf.wait(task, TIMEOUT).map(|r| r.status);
        assert!(
            matches!(&status, Some(TaskStatus::Completed(v)) if *v == Value::Int(*expected)),
            "task {task}: {status:?}, want Completed({expected})"
        );
    }
    let tm = broker.transport_metrics().snapshot();
    assert_eq!(tm.remote_settles, 4);
    assert_eq!(tm.duplicate_settles, 0);
    assert_eq!(tm.decode_errors, 0);

    sup.shutdown();
    cluster.shutdown();
}
