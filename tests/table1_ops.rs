//! E2 — Table 1: every Vinz service operation exercised end-to-end,
//! including the service-level `Run`/`Call` message forms.

use std::sync::Arc;
use std::time::Duration;

use gozer::{
    deserialize_value, serialize_value, Cluster, Codec, EventKind, Gvm, Message, TaskStatus, Value,
    WorkflowService,
};

const WORKFLOW: &str = r#"
(defun quick () :quick-done)

(defun with-children (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))

(defun forever ()
  (dotimes (i 10000000)
    (for-each (x in (list i)) x))
  :never)

(defun forker ()
  (let ((pid (fork-and-exec (lambda () (* 6 7)))))
    (join-process pid)))
"#;

/// The workflow service's name, for raw service-level messages.
const SERVICE: &str = "workflow";

fn system() -> (Arc<Cluster>, WorkflowService) {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, SERVICE)
        .source(WORKFLOW)
        .instances(0, 3)
        .instances(1, 3)
        .deploy()
        .unwrap();
    (cluster, wf)
}

const TIMEOUT: Duration = Duration::from_secs(60);

fn start_msg(service: &str, function: &str, op: &str) -> Message {
    let args = serialize_value(&Value::Nil, Codec::Deflate).unwrap();
    Message::new(service, op, args).header("function", function)
}

#[test]
fn start_returns_task_id_immediately() {
    let (cluster, wf) = system();
    let task = wf.start("with-children", vec![Value::Int(4)], None).unwrap();
    assert!(task.starts_with("task-"));
    // It is genuinely asynchronous: the task is observable before/while
    // running and completes on its own.
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int(14)));
    cluster.shutdown();
}

#[test]
fn run_operation_waits_for_completion() {
    let (cluster, wf) = system();
    // The raw service-level Run (needs a second instance free, which the
    // 3-per-node deployment provides).
    let reply = cluster
        .call(
            start_msg(SERVICE, "quick", "Run"),
            Duration::from_secs(30),
        )
        .unwrap();
    let task = String::from_utf8_lossy(&reply).into_owned();
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    assert_eq!(rec.status, TaskStatus::Completed(Value::keyword("quick-done")));
    cluster.shutdown();
}

#[test]
fn call_operation_returns_last_result() {
    let (cluster, _wf) = system();
    let reply = cluster
        .call(
            start_msg(SERVICE, "quick", "Call"),
            Duration::from_secs(30),
        )
        .unwrap();
    let gvm = Gvm::with_pool_size(1);
    let v = deserialize_value(&reply, &gvm).unwrap();
    assert_eq!(v, Value::keyword("quick-done"));
    cluster.shutdown();
}

#[test]
fn terminate_operation_stops_any_workflow() {
    let (cluster, wf) = system();
    let task = wf.start("forever", vec![], None).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Raw management message, as a monitoring tool would send it.
    cluster.send(
        Message::new(SERVICE, "Terminate", Vec::new()).header("task-id", &task),
    );
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    assert!(matches!(rec.status, TaskStatus::Terminated(_)));
    cluster.shutdown();
}

#[test]
fn runfiber_and_awakefiber_drive_children() {
    let (cluster, wf) = system();
    let obs = wf.obs();
    obs.set_tracing(true);
    let v = wf.call("with-children", vec![Value::Int(6)], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int((0..6).map(|i| i * i).sum()));
    let events = obs.events();
    let runs = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FiberRun))
        .count();
    // 1 main + 6 children, each via a RunFiber delivery.
    assert!(runs >= 7, "expected >=7 RunFiber deliveries, saw {runs}");
    let awakes = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::FiberResumed { via } if via == "awake"))
        .count();
    assert_eq!(awakes, 6, "one AwakeFiber resume per child");
    cluster.shutdown();
}

#[test]
fn joinprocess_resumes_waiters() {
    let (cluster, wf) = system();
    let obs = wf.obs();
    obs.set_tracing(true);
    let v = wf.call("forker", vec![], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(42));
    let joins = obs
        .events()
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::FiberResumed { via } if via == "join"))
        .count();
    assert_eq!(joins, 1);
    cluster.shutdown();
}

#[test]
fn resumefromcall_resumes_service_callers() {
    let cluster = Cluster::new();
    gozer::testing::register_square_service(&cluster, "Sq", 1, 1, Duration::from_millis(1));
    let wf = WorkflowService::builder(&cluster, SERVICE)
        .source(
            "(deflink SQ :wsdl \"urn:sq\" :port \"Sq\")
             (defun main () (SQ-Square-Method :n 12))",
        )
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    obs.set_tracing(true);
    // The Sq service has no WSDL registered under that name... use direct
    // call natives instead to focus on ResumeFromCall mechanics.
    let v = wf.call("main", vec![], TIMEOUT);
    // If the deflink path failed because register_square_service exposes
    // no WSDL, that's a deploy error, not a ResumeFromCall issue; assert
    // on the successful path below instead.
    match v {
        Ok(v) => {
            assert_eq!(v, Value::Int(144));
            let resumed = obs.events().iter().any(
                |e| matches!(&e.kind, EventKind::FiberResumed { via } if via == "service-call"),
            );
            assert!(resumed);
        }
        Err(e) => panic!("workflow failed: {e}"),
    }
    cluster.shutdown();
}
