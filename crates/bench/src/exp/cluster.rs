//! Cluster transport (`BENCH_cluster.json`): a remote-call workflow
//! served by a TCP worker speaking the length-prefixed CRC-framed wire
//! protocol on loopback. Every task must complete with one applied
//! settle and no duplicate; the report is the broker's wire cost:
//! frames, bytes and bytes per task. None of it depends on the host.
//! The TCP rate is the `svc-tcp` taskbench workload's.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, TcpWorker, WorkerConfig};
use gozer_bench::{Json, Table};
use gozer_lang::Value;
use gozer_vm::Gvm;
use gozer_worker::compute_reply;
use gozer_xml::ServiceDescription;
use vinz::testing::register_remote_service_desc;
use vinz::{TaskStatus, WorkflowService};

const WF: &str = "
(deflink CP :wsdl \"urn:compute\" :port \"Compute\")
(defun main (n) (CP-Square-Method :n n))
";

fn compute_desc() -> ServiceDescription {
    ServiceDescription::new("Compute", "urn:compute").operation(
        "Square",
        "Squares n.",
        &[("n", "int")],
    )
}

pub fn run(smoke: bool) -> Json {
    let tasks: i64 = if smoke { 60 } else { 400 };

    let cluster = Cluster::new();
    register_remote_service_desc(&cluster, "Compute", compute_desc());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WF)
        .instances(0, 2)
        .instances(1, 2)
        .tcp_listen("127.0.0.1:0")
        .deploy()
        .expect("deploy");

    let gvm = Gvm::with_pool_size(1);
    let handler = Arc::new(
        move |_ctx: &bluebox::WorkerCtx, d: &bluebox::RemoteDelivery| compute_reply(d, &gvm),
    );
    let addr = wf.tcp_addr().expect("bound address");
    let mut config = WorkerConfig::new(addr.to_string(), "Compute", 4);
    config.name = "bench-worker".into();
    let worker = TcpWorker::spawn(config, handler);
    let broker = wf.tcp_broker().expect("a TCP deployment has a broker");
    let deadline = Instant::now() + Duration::from_secs(10);
    while broker.live_connections() < 1 {
        assert!(Instant::now() < deadline, "bench worker never connected");
        std::thread::sleep(Duration::from_millis(5));
    }

    let started: Vec<(String, i64)> = (0..tasks)
        .map(|n| {
            (
                wf.start("main", vec![Value::Int(n)], None).expect("start"),
                n * n,
            )
        })
        .collect();
    for (task, expected) in &started {
        let status = wf.wait(task, Duration::from_secs(120)).map(|r| r.status);
        assert!(
            matches!(&status, Some(TaskStatus::Completed(v)) if *v == Value::Int(*expected)),
            "task {task}: {status:?}, want Completed({expected})"
        );
    }

    let tm = broker.transport_metrics().snapshot();
    assert_eq!(
        tm.remote_settles, tasks as u64,
        "exactly one applied settle per task"
    );
    assert_eq!(
        tm.duplicate_settles, 0,
        "no duplicate settles in a clean run"
    );
    worker.stop();
    cluster.shutdown();

    let bytes_per_task = tm.bytes_sent as f64 / tasks as f64;
    let mut table = Table::new(
        "cluster transport: broker wire cost over TCP",
        &["tasks", "frames sent", "bytes sent", "bytes/task"],
    );
    table.row(&[
        tasks.to_string(),
        tm.frames_sent.to_string(),
        tm.bytes_sent.to_string(),
        format!("{bytes_per_task:.1}"),
    ]);
    table.print();
    println!("shape check: every task completed with exactly one applied settle.");

    Json::obj()
        .field("section", "multi-process transport")
        .field("tasks", tasks)
        .field("frames_sent", tm.frames_sent)
        .field("bytes_sent", tm.bytes_sent)
        .field("bytes_per_task", bytes_per_task)
}
