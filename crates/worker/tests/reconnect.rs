//! Reconnect-backoff coverage for the TCP transport: a worker that
//! loses its connection mid-load must rejoin (exponential backoff +
//! jitter) and the combined system must deliver every task's effect
//! exactly once — no message both redelivered and settled twice, no
//! wedge on a torn frame.
//!
//! These workers run in-thread ([`bluebox::TcpWorker`]) rather than as
//! child processes so the test can read worker-side stats directly;
//! the process-death flavor lives in `cluster_kill.rs`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bluebox::{Cluster, TcpWorker, WorkerConfig};
use gozer_lang::Value;
use gozer_vm::Gvm;
use gozer_worker::compute_reply;
use gozer_xml::ServiceDescription;
use vinz::testing::register_remote_service_desc;
use vinz::{TaskStatus, WorkflowService};

const TIMEOUT: Duration = Duration::from_secs(45);

const WF: &str = "
(deflink CP :wsdl \"urn:compute\" :port \"Compute\")
(defun main (n spin) (CP-Work-Method :n n :spin_ms spin))
";

fn compute_desc() -> ServiceDescription {
    ServiceDescription::new("Compute", "urn:compute").operation(
        "Work",
        "Busy-works for spin_ms milliseconds, then squares n.",
        &[("n", "int"), ("spin_ms", "int")],
    )
}

/// Deploy the workflow with a TCP listener, run `tasks` tasks against
/// one in-thread worker whose handler injects `chaos` once mid-load,
/// and assert exactly-once completion plus a real reconnect.
fn run_with_chaos(
    tasks: i64,
    chaos: impl Fn(&bluebox::WorkerCtx) + Send + Sync + 'static,
) -> (bluebox::TransportMetricsSnapshot, u64, u64, u64) {
    let cluster = Cluster::new();
    register_remote_service_desc(&cluster, "Compute", compute_desc());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WF)
        .instances(0, 2)
        .tcp_listen("127.0.0.1:0")
        .deploy()
        .expect("deploy");
    let broker = wf.tcp_broker().unwrap();
    let addr = wf.tcp_addr().unwrap();

    let gvm = Gvm::with_pool_size(1);
    let fired = AtomicBool::new(false);
    let handled = AtomicU64::new(0);
    let fire_at = tasks as u64 / 2;
    let handler = Arc::new(move |ctx: &bluebox::WorkerCtx, d: &bluebox::RemoteDelivery| {
        // Halfway through the load, sever the connection once. The
        // settle for this delivery is lost with the socket, so the
        // broker must redeliver it — to the same worker, post-rejoin.
        if handled.fetch_add(1, Ordering::Relaxed) == fire_at
            && !fired.swap(true, Ordering::Relaxed)
        {
            chaos(ctx);
        }
        compute_reply(d, &gvm)
    });
    let mut config = WorkerConfig::new(addr.to_string(), "Compute", 2);
    config.name = "rejoiner".into();
    config.seed = 7;
    let worker = TcpWorker::spawn(config, handler);
    assert!(
        {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                if broker.live_connections() >= 1 {
                    break true;
                }
                if std::time::Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        },
        "worker connected"
    );

    let mut started = Vec::new();
    for n in 0..tasks {
        started.push((
            wf.start("main", vec![Value::Int(n), Value::Int(15)], None).unwrap(),
            n * n,
        ));
    }
    for (task, expected) in &started {
        let status = wf.wait(task, TIMEOUT).map(|r| r.status);
        assert!(
            matches!(&status, Some(TaskStatus::Completed(v)) if *v == Value::Int(*expected)),
            "task {task}: {status:?}, want Completed({expected})"
        );
    }

    let stats = worker.stats();
    let reconnects = stats.reconnects.load(Ordering::Relaxed);
    let settles = stats.settles.load(Ordering::Relaxed);
    let reclaims = cluster.recovery_stats().reclaims;
    let tm = broker.transport_metrics().snapshot();
    worker.stop();
    cluster.shutdown();
    (tm, reconnects, settles, reclaims)
}

/// Clean severance: the worker drops its own connection under load,
/// backs off, rejoins, and the interrupted delivery is redelivered —
/// settled exactly once overall.
#[test]
fn worker_rejoins_after_disconnect_without_duplicate_effects() {
    let tasks = 10i64;
    let (tm, reconnects, _settles, reclaims) =
        run_with_chaos(tasks, |ctx| ctx.drop_connection());
    assert!(reconnects >= 1, "the worker must have rejoined (got {reconnects})");
    assert!(
        reclaims >= 1,
        "the dropped delivery's lease must have been reclaimed (got {reclaims})"
    );
    // At-least-once on the wire, exactly-once in effect: more deliveries
    // than tasks (the redelivery), but exactly one applied settle per
    // task and zero settles applied twice.
    assert!(
        tm.remote_deliveries > tasks as u64,
        "expected a redelivery beyond the {tasks} tasks, saw {}",
        tm.remote_deliveries
    );
    assert_eq!(tm.remote_settles, tasks as u64, "one applied settle per task");
    assert_eq!(tm.duplicate_settles, 0, "no settle applied twice");
    assert!(tm.worker_disconnects >= 1);
}

/// Torn frame: the worker writes half a frame and dies mid-write — the
/// exact byte pattern of a `kill -9` during a send. The broker must
/// treat it as connection death (lease expiry + redelivery after the
/// rejoin), never a wedge, never a partial effect.
#[test]
fn torn_frame_surfaces_as_lease_expiry_not_a_wedge() {
    let tasks = 8i64;
    let (tm, reconnects, _settles, reclaims) =
        run_with_chaos(tasks, |ctx| ctx.write_torn_frame());
    assert!(reconnects >= 1, "the worker must have rejoined (got {reconnects})");
    assert!(reclaims >= 1, "torn write must surface as lease reclaim (got {reclaims})");
    assert_eq!(tm.remote_settles, tasks as u64, "one applied settle per task");
    assert_eq!(tm.duplicate_settles, 0, "no settle applied twice");
    assert!(tm.worker_disconnects >= 1);
}
