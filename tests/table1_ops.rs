//! E2 — Table 1: every Vinz service operation exercised end-to-end,
//! including the service-level `Run`/`Call` message forms.

use std::time::Duration;

use gozer::{
    deserialize_value, serialize_value, Cluster, Codec, EventKind, GozerSystem, Gvm, Message,
    TaskStatus, Value,
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

fn system() -> GozerSystem {
    GozerSystem::builder()
        .nodes(2)
        .instances_per_node(3)
        .workflow(WORKFLOW)
        .build()
        .unwrap()
}

const TIMEOUT: Duration = Duration::from_secs(60);

fn start_msg(service: &str, function: &str, op: &str) -> Message {
    let args = serialize_value(&Value::Nil, Codec::Deflate).unwrap();
    Message::new(service, op, args).header("function", function)
}

#[test]
fn start_returns_task_id_immediately() {
    let sys = system();
    let task = sys.start("with-children", vec![Value::Int(4)]).unwrap();
    assert!(task.starts_with("task-"));
    // It is genuinely asynchronous: the task is observable before/while
    // running and completes on its own.
    let rec = sys.wait(&task, TIMEOUT).unwrap();
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int(14)));
    sys.shutdown();
}

#[test]
fn run_operation_waits_for_completion() {
    let sys = system();
    // The raw service-level Run (needs a second instance free, which the
    // 3-per-node deployment provides).
    let reply = sys
        .cluster
        .call(
            start_msg(&service_name(&sys), "quick", "Run"),
            Duration::from_secs(30),
        )
        .unwrap();
    let task = String::from_utf8_lossy(&reply).into_owned();
    let rec = sys.wait(&task, TIMEOUT).unwrap();
    assert_eq!(rec.status, TaskStatus::Completed(Value::keyword("quick-done")));
    sys.shutdown();
}

#[test]
fn call_operation_returns_last_result() {
    let sys = system();
    let reply = sys
        .cluster
        .call(
            start_msg(&service_name(&sys), "quick", "Call"),
            Duration::from_secs(30),
        )
        .unwrap();
    let gvm = Gvm::with_pool_size(1);
    let v = deserialize_value(&reply, &gvm).unwrap();
    assert_eq!(v, Value::keyword("quick-done"));
    sys.shutdown();
}

#[test]
fn terminate_operation_stops_any_workflow() {
    let sys = system();
    let task = sys.start("forever", vec![]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // Raw management message, as a monitoring tool would send it.
    sys.cluster.send(
        Message::new(&service_name(&sys), "Terminate", Vec::new()).header("task-id", &task),
    );
    let rec = sys.wait(&task, TIMEOUT).unwrap();
    assert!(matches!(rec.status, TaskStatus::Terminated(_)));
    sys.shutdown();
}

#[test]
fn runfiber_and_awakefiber_drive_children() {
    let sys = system();
    let obs = sys.workflow.obs();
    obs.set_tracing(true);
    let v = sys.call("with-children", vec![Value::Int(6)], TIMEOUT).unwrap();
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
    sys.shutdown();
}

#[test]
fn joinprocess_resumes_waiters() {
    let sys = system();
    let obs = sys.workflow.obs();
    obs.set_tracing(true);
    let v = sys.call("forker", vec![], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(42));
    let joins = obs
        .events()
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::FiberResumed { via } if via == "join"))
        .count();
    assert_eq!(joins, 1);
    sys.shutdown();
}

#[test]
fn resumefromcall_resumes_service_callers() {
    let cluster = Cluster::new();
    gozer::testing::register_square_service(&cluster, "Sq", 1, 1, Duration::from_millis(1));
    let sys = GozerSystem::builder()
        .cluster(cluster)
        .nodes(2)
        .instances_per_node(2)
        .workflow(
            "(deflink SQ :wsdl \"urn:sq\" :port \"Sq\")
             (defun main () (SQ-Square-Method :n 12))",
        )
        .build()
        .unwrap();
    let obs = sys.workflow.obs();
    obs.set_tracing(true);
    // The Sq service has no WSDL registered under that name... use direct
    // call natives instead to focus on ResumeFromCall mechanics.
    let v = sys.call("main", vec![], TIMEOUT);
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
    sys.shutdown();
}

fn service_name(_sys: &GozerSystem) -> String {
    "workflow".to_string()
}
