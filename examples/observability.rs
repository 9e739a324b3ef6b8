//! The unified observability layer: one workflow run, five views.
//!
//! 1. The **per-task timeline** — every fiber as a span (children
//!    indented under the fiber that forked them), each event annotated
//!    with the node/instance it executed on and its message id, plus
//!    the task's **critical path**: the chain of phases (queue wait,
//!    VM execution, serialization, service wait, durability holds) that
//!    actually bounded its wall-clock.
//! 2. The **phase breakdown** — each finished task's latency decomposed
//!    into named phases that sum back to exactly its measured duration.
//! 3. The **metrics exporter** — broker and Vinz counters/histograms in
//!    Prometheus text format, as a scrape endpoint would serve them.
//! 4. A **snapshot diff** — mean queue-wait and handler-busy latencies
//!    computed over exactly the interval between two snapshots.
//! 5. The **live introspection endpoint** — the same views over plain
//!    HTTP. Run with a scraping window and curl it:
//!
//!    ```bash
//!    GOZER_INTROSPECT_WAIT_SECS=30 cargo run --example observability
//!    # then, against the printed address:
//!    curl http://<printed-addr>/metrics
//!    curl http://<printed-addr>/healthz
//!    curl http://<printed-addr>/tasks
//!    curl http://<printed-addr>/timeline/task-1
//!    ```
//!
//! ```bash
//! cargo run --example observability
//! ```

use std::time::Duration;

use gozer::{Cluster, Phase, Value, WorkflowService};

const WORKFLOW: &str = r#"
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
"#;

fn main() {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .introspect("127.0.0.1:0")
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .expect("deploy");

    // One handle to everything: the event bus, the task tracker, the
    // metrics registry, the timeline renderer.
    let obs = wf.obs();
    obs.set_tracing(true);
    let before = obs.snapshot();

    let v = wf.call("main", vec![Value::Int(6)], Duration::from_secs(60)).expect("workflow");
    assert_eq!(v, Value::Int((0..6).map(|i| i * i).sum()));

    println!("== per-task timeline (with critical path) =====================\n");
    print!("{}", obs.render());

    println!("\n== phase breakdown (sums exactly to task latency) =============\n");
    for rec in obs.tracker().all() {
        println!(
            "{}: latency {:.3?}  [{}]",
            rec.id,
            rec.duration(),
            rec.phases.render()
        );
        if let Some((phase, spent)) = rec.phases.dominant() {
            println!("  dominant phase: {phase} ({spent:.3?})");
        }
        assert_eq!(rec.phases.total(), rec.duration());
        assert!(rec.phases.get(Phase::Admission).is_zero());
    }

    println!("\n== metrics (Prometheus text format) ===========================\n");
    print!("{}", obs.export_text());

    let delta = obs.snapshot().diff(&before);
    println!("\n== latencies over this run (snapshot diff) ====================\n");
    for (label, key) in [
        ("queue wait", "bluebox_queue_wait_seconds"),
        ("handler busy", "bluebox_handler_busy_seconds"),
    ] {
        match delta.histogram(key).and_then(|h| h.mean()) {
            Some(mean) => println!("mean {label:<13}: {mean:.2?}"),
            None => println!("mean {label:<13}: n/a"),
        }
    }

    let addr = wf.introspect_addr().expect("introspect bound");
    println!("\n== live introspection ==========================================\n");
    println!("serving http://{addr}/metrics  /healthz  /tasks  /timeline/<task-id>");
    // Interactive exploration: GOZER_INTROSPECT_WAIT_SECS=30 keeps the
    // server up for curl; the default exits immediately (the
    // `introspect_http_matches_in_process_exporter` test in
    // `crates/vinz/tests/phases.rs` scrapes every route).
    let wait = std::env::var("GOZER_INTROSPECT_WAIT_SECS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    if wait > 0 {
        println!("(scraping window: {wait}s — e.g. `curl http://{addr}/healthz`)");
        std::thread::sleep(Duration::from_secs(wait));
    }
    cluster.shutdown();
}
