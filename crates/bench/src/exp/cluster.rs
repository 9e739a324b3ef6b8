//! Cluster transport (`BENCH_cluster.json`): the same remote-call
//! workflow workload run over the in-process transport (instances as
//! threads popping the queue directly) and over the TCP transport (a
//! worker speaking the length-prefixed CRC-framed wire protocol on
//! loopback). Reports throughput for both and the wire cost per task, at
//! two service costs: zero-work calls (pure transport overhead, the
//! worst case) and 5 ms calls (the §5 "short task" floor, where the
//! socket hop amortizes away). Every task must complete exactly once on
//! both transports.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, TcpWorker, WorkerConfig};
use gozer_bench::{Json, Table};
use gozer_lang::Value;
use gozer_vm::Gvm;
use gozer_worker::compute_reply;
use gozer_xml::ServiceDescription;
use vinz::testing::{register_remote_service_desc, register_value_service};
use vinz::{TaskStatus, WorkflowService};

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

struct RunStats {
    wall_secs: f64,
    tasks_per_sec: f64,
    frames_sent: u64,
    bytes_sent: u64,
}

/// The same compute the TCP worker serves, as a local value service:
/// spin `spin_ms`, return `n * n`.
fn spin_square(req: &Value) -> Result<Value, bluebox::Fault> {
    let field = |name: &str| {
        req.as_map()
            .and_then(|m| m.get(&Value::str(name)).cloned())
            .and_then(|v| v.as_int())
    };
    let n = field("n").ok_or_else(|| bluebox::Fault::new("{bench}BadArg", "need n"))?;
    let spin = field("spin_ms").unwrap_or(0).clamp(0, 10_000) as u64;
    let deadline = Instant::now() + Duration::from_millis(spin);
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
    Ok(Value::Int(n * n))
}

fn run_workload(tasks: i64, spin_ms: i64, tcp: bool) -> RunStats {
    let cluster = Cluster::new();
    if tcp {
        register_remote_service_desc(&cluster, "Compute", compute_desc());
    } else {
        register_value_service(&cluster, "Compute", Some(compute_desc()), |_op, req| {
            spin_square(&req)
        });
        // Same slot count as the TCP worker registers below.
        cluster.spawn_instances("Compute", 2, 4);
    }
    let mut builder = WorkflowService::builder(&cluster, "workflow")
        .source(WF)
        .instances(0, 2)
        .instances(1, 2);
    if tcp {
        builder = builder.tcp_listen("127.0.0.1:0");
    }
    let wf = builder.deploy().expect("deploy");

    let worker = if tcp {
        let gvm = Gvm::with_pool_size(1);
        let handler = Arc::new(move |_ctx: &bluebox::WorkerCtx, d: &bluebox::RemoteDelivery| {
            compute_reply(d, &gvm)
        });
        let addr = wf.tcp_addr().expect("bound address");
        let mut config = WorkerConfig::new(addr.to_string(), "Compute", 4);
        config.name = "bench-worker".into();
        let worker = TcpWorker::spawn(config, handler);
        let broker = wf.tcp_broker().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while broker.live_connections() < 1 {
            assert!(Instant::now() < deadline, "bench worker never connected");
            std::thread::sleep(Duration::from_millis(5));
        }
        Some(worker)
    } else {
        None
    };

    let t0 = Instant::now();
    let started: Vec<(String, i64)> = (0..tasks)
        .map(|n| {
            let task = wf
                .start("main", vec![Value::Int(n), Value::Int(spin_ms)], None)
                .expect("start");
            (task, n * n)
        })
        .collect();
    for (task, expected) in &started {
        let status = wf.wait(task, Duration::from_secs(120)).map(|r| r.status);
        assert!(
            matches!(&status, Some(TaskStatus::Completed(v)) if *v == Value::Int(*expected)),
            "task {task}: {status:?}, want Completed({expected})"
        );
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let (frames_sent, bytes_sent) = match wf.tcp_broker() {
        Some(broker) => {
            let tm = broker.transport_metrics().snapshot();
            assert_eq!(tm.remote_settles, tasks as u64, "exactly one applied settle per task");
            assert_eq!(tm.duplicate_settles, 0, "no duplicate settles in a clean run");
            (tm.frames_sent, tm.bytes_sent)
        }
        None => (0, 0),
    };
    if let Some(worker) = worker {
        worker.stop();
    }
    cluster.shutdown();
    RunStats {
        wall_secs,
        tasks_per_sec: tasks as f64 / wall_secs,
        frames_sent,
        bytes_sent,
    }
}

pub fn run(smoke: bool) -> Json {
    let tasks: i64 = if smoke { 60 } else { 400 };

    let mut table = Table::new(
        "cluster transport — in-process vs TCP, same workload",
        &["spin", "transport", "wall", "tasks/s", "wire bytes/task", "overhead"],
    );
    let mut rows = Vec::new();
    for spin_ms in [0i64, 5] {
        let local = run_workload(tasks, spin_ms, false);
        let tcp = run_workload(tasks, spin_ms, true);
        let overhead = tcp.wall_secs / local.wall_secs;
        let bytes_per_task = tcp.bytes_sent as f64 / tasks as f64;
        for (label, stats) in [("in_process", &local), ("tcp", &tcp)] {
            table.row(&[
                format!("{spin_ms} ms"),
                label.to_string(),
                format!("{:.3} s", stats.wall_secs),
                format!("{:.0}", stats.tasks_per_sec),
                if stats.bytes_sent > 0 {
                    format!("{bytes_per_task:.0}")
                } else {
                    "-".into()
                },
                if label == "tcp" {
                    format!("{overhead:.2}x")
                } else {
                    "1.00x".into()
                },
            ]);
        }
        rows.push(
            Json::obj()
                .field("spin_ms", spin_ms)
                .field("in_process_wall_secs", local.wall_secs)
                .field("in_process_tasks_per_sec", local.tasks_per_sec)
                .field("tcp_wall_secs", tcp.wall_secs)
                .field("tcp_tasks_per_sec", tcp.tasks_per_sec)
                .field("tcp_frames_sent", tcp.frames_sent)
                .field("tcp_bytes_sent", tcp.bytes_sent)
                .field("tcp_bytes_per_task", bytes_per_task)
                .field("tcp_overhead", overhead),
        );
    }
    table.print();
    println!(
        "shape check: every task completed exactly once on both transports; wire cost and \
         overhead reported above (the socket hop should amortize as per-call work grows)."
    );

    Json::obj()
        .field("section", "multi-process transport")
        .field("tasks", tasks)
        .field("runs", rows)
}
