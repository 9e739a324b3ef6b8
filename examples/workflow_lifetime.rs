//! Figure 1 — "Sample Workflow Lifetime": run a small workflow that makes
//! a non-blocking service call and forks two children, then print the
//! recorded lifetime: Start → RunFiber → ServiceCall → Yield → Persist →
//! ResumeFromCall → Fork → AwakeFiber resumes → TaskDone, annotated with
//! the node and instance each step executed on.
//!
//! ```bash
//! cargo run --example workflow_lifetime
//! ```

use std::time::Duration;

use gozer::testing::register_value_service;
use gozer::{Cluster, ServiceDescription, Value, WorkflowService};

const WORKFLOW: &str = r#"
(deflink PRICER :wsdl "urn:pricer" :port "PricerService")

(defun main (n)
  ;; One non-blocking service call (yield -> ResumeFromCall)...
  (let ((base (PRICER-Price-Method :n n)))
    ;; ...then two child fibers (fork -> yield -> AwakeFiber x2).
    (apply #'+ (for-each (i in (list 1 2))
                 (* base i)))))
"#;

fn main() {
    let cluster = Cluster::new();
    register_value_service(
        &cluster,
        "PricerService",
        Some(
            ServiceDescription::new("PricerService", "urn:pricer").operation(
                "Price",
                "Price the instrument.",
                &[("n", "int")],
            ),
        ),
        |_op, req| {
            let n = req
                .as_map()
                .and_then(|m| m.get(&Value::str("n")).cloned())
                .and_then(|v| v.as_int())
                .unwrap_or(0);
            Ok(Value::Int(n * 10))
        },
    );
    cluster.spawn_instances("PricerService", 0, 1);

    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .expect("deploy");
    let obs = wf.obs();
    obs.set_tracing(true);

    let v = wf.call("main", vec![Value::Int(7)], Duration::from_secs(60)).expect("workflow");
    // base = 70; children: 70*1 + 70*2 = 210.
    assert_eq!(v, Value::Int(210));

    println!("Figure 1 — sample workflow lifetime (result {v:?}):\n");
    // The per-task span tree: fibers as nested spans, each annotated
    // with the node/instance it ran on and any injected faults.
    print!("{}", obs.render());

    // Summarize the mechanics the figure illustrates.
    let events = obs.events();
    let persists = events
        .iter()
        .filter(|e| matches!(e.kind, gozer::EventKind::FiberPersisted { .. }))
        .count();
    let nodes: std::collections::HashSet<u32> = events.iter().filter_map(|e| e.node).collect();
    println!(
        "\nThe task persisted its continuation {persists} times and executed on {} node(s); \
         no thread ever blocked while waiting (§3.2).",
        nodes.len()
    );
    cluster.shutdown();
}
