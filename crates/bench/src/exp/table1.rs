//! E2 — Table 1: latency of each Vinz service operation.
//!
//! `Start` measures the accept path (name the task, register it, send
//! the one-way `Start`); the others measure the full operation including
//! the fiber work they trigger: a trivial task exercises
//! `Run`/`Call`/`RunFiber`; a fork/join task exercises `JoinProcess`; a
//! `for-each` task exercises `AwakeFiber`; a deflink service call
//! exercises `ResumeFromCall`. Each operation's result is asserted on
//! every call.

use std::time::Duration;

use gozer::{Cluster, Value, WorkflowService};
use gozer_bench::Table;

use super::time_it;

const WORKFLOW: &str = "
(deflink SQ :wsdl \"urn:sq\" :port \"Sq\")

(defun trivial () 42)

(defun forker ()
  (join-process (fork-and-exec (lambda () 7))))

(defun fanout ()
  (for-each (i in (list 1 2)) i))

(defun remote-call ()
  (SQ-Square-Method :n 9))
";

const TIMEOUT: Duration = Duration::from_secs(120);

pub fn run(smoke: bool) {
    let samples = if smoke { 5 } else { 20 };
    let cluster = Cluster::new();
    gozer::testing::register_square_service(&cluster, "Sq", 2, 1, Duration::ZERO);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 3)
        .instances(1, 3)
        .deploy()
        .unwrap();
    let call = |f: &str, expected: Value| {
        assert_eq!(wf.call(f, vec![], TIMEOUT).unwrap(), expected);
    };

    let rows = [
        // Async accept only (the task completes in the background; tasks
        // pile up harmlessly in the tracker).
        ("Start", time_it(samples, || {
            wf.start("trivial", vec![], None).unwrap();
        })),
        ("Run+RunFiber (trivial task)", time_it(samples, || {
            assert!(wf.run("trivial", vec![], TIMEOUT).unwrap().status.is_final());
        })),
        ("Call (trivial task)", time_it(samples, || call("trivial", Value::Int(42)))),
        ("JoinProcess (fork+join)", time_it(samples, || call("forker", Value::Int(7)))),
        ("AwakeFiber (for-each of 2)", time_it(samples, || {
            call("fanout", Value::list(vec![Value::Int(1), Value::Int(2)]))
        })),
        ("ResumeFromCall (service call)", time_it(samples, || call("remote-call", Value::Int(81)))),
        // Start a fan-out task, terminate it, wait for the final status.
        ("Terminate", time_it(samples, || {
            let task = wf.start("fanout", vec![], None).unwrap();
            wf.terminate(&task);
            wf.wait(&task, TIMEOUT).unwrap();
        })),
    ];
    let mut table = Table::new(
        "Table 1 — Vinz operations (2 nodes x 3 instances)",
        &["operation", "median"],
    );
    for (op, median) in rows {
        table.row(&[op.to_string(), format!("{median:.2?}")]);
    }
    table.print();
    cluster.shutdown();
}
