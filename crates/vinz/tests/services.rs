//! deflink stub generation, non-blocking service requests, and the
//! defhandler/with-handler condition actions — §3.2, §3.3, §3.7.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bluebox::{Cluster, Fault};
use gozer_lang::Value;
use gozer_obs::EventKind;
use gozer_xml::ServiceDescription;
use vinz::testing::register_value_service;
use vinz::{TaskStatus, WorkflowService};

const TIMEOUT: Duration = Duration::from_secs(60);

fn security_manager_desc() -> ServiceDescription {
    ServiceDescription::new("SecurityManager", "urn:security-manager-service")
        .operation(
            "ListSessions",
            "Returns a list of sessions visible to the caller.",
            &[("FilterParams", "string"), ("WithinRealm", "string")],
        )
        .operation("Square", "Squares the field n.", &[("n", "int")])
        .unsupported_operation("NativeOnly", "JNI-backed; cannot be bridged.")
}

fn cluster_with_sm() -> Arc<Cluster> {
    let cluster = Cluster::new();
    register_value_service(
        &cluster,
        "SecurityManager",
        Some(security_manager_desc()),
        |op, req| match op {
            "ListSessions" => {
                let realm = req
                    .as_map()
                    .and_then(|m| m.get(&Value::str("WithinRealm")).cloned())
                    .unwrap_or(Value::Nil);
                Ok(Value::list(vec![
                    Value::str("session-1"),
                    Value::str("session-2"),
                    realm,
                ]))
            }
            "Square" => {
                let n = req
                    .as_map()
                    .and_then(|m| m.get(&Value::str("n")).cloned())
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| Fault::new("{urn:sm}BadArg", "need n"))?;
                Ok(Value::Int(n * n))
            }
            other => Err(Fault::new("{urn:sm}NoSuchOp", other)),
        },
    );
    cluster.spawn_instances("SecurityManager", 0, 2);
    cluster
}

fn deploy(cluster: &Arc<Cluster>, source: &str) -> WorkflowService {
    WorkflowService::builder(cluster, "wf")
        .source(source)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap()
}

#[test]
fn deflink_generates_working_stubs() {
    // The Listing 2 shape: deflink at load, generated -Method function
    // with keyword args, non-blocking call, response parse.
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main ()
           (SM-ListSessions-Method :FilterParams \"all\" :WithinRealm \"prod\"))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::list(vec![
            Value::str("session-1"),
            Value::str("session-2"),
            Value::str("prod"),
        ])
    );
    cluster.shutdown();
}

#[test]
fn deflink_preserves_documentation() {
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main () (doc #'SM-ListSessions-Method))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::str("Returns a list of sessions visible to the caller.")
    );
    cluster.shutdown();
}

#[test]
fn nonblocking_call_yields_and_resumes() {
    // The call must go through a yield + ResumeFromCall round trip, not
    // block the instance.
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main (n) (SM-Square-Method :n n))",
    );
    let obs = wf.obs();
    obs.set_tracing(true);
    let result = wf.call("main", vec![Value::Int(9)], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int(81));
    let events = obs.events();
    assert!(
        events.iter().any(|e| matches!(
            &e.kind,
            EventKind::ServiceCallDispatched { target } if target.contains("Square")
        )),
        "async dispatch recorded"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::FiberResumed { via } if via == "service-call")),
        "ResumeFromCall recorded"
    );
    cluster.shutdown();
}

#[test]
fn unsupported_operation_fails_at_compile_time() {
    let cluster = cluster_with_sm();
    // Merely loading a workflow that *references* the unsupported op
    // fails at compile (load) time — deploy reports the error.
    let err = WorkflowService::builder(&cluster, "wf-bad")
        .source(
            "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
             (defun main () (SM-NativeOnly))",
        )
        .deploy();
    let err = match err {
        Err(e) => e,
        Ok(_) => panic!("deploy should fail at compile time"),
    };
    assert!(err.to_string().contains("cannot be invoked"), "{err}");
    // But a workflow that never calls it loads fine.
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main () :loaded)",
    );
    assert_eq!(wf.call("main", vec![], TIMEOUT).unwrap(), Value::keyword("loaded"));
    cluster.shutdown();
}

#[test]
fn service_fault_becomes_condition_with_qname_designator() {
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main ()
           ;; Square with a missing arg faults; catch by QName.
           (restart-case
             (handler-bind (lambda (c)
                             (if (condition-matches? c \"{urn:sm}BadArg\")
                                 (invoke-restart 'fallback :caught)
                                 nil))
               (SM-Square-Method))
             (fallback (v) v)))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(result, Value::keyword("caught"));
    cluster.shutdown();
}

#[test]
fn defhandler_ignore_action() {
    // Listing 6's ignore-handler: failures in an "optional" operation are
    // swallowed through the deflink-bound ignore restart.
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defhandler ignore-handler
           :java (\"condition\")
           :action ignore)
         (defun main ()
           (list (with-handler ignore-handler (SM-Square-Method)) ; faults -> nil
                 :continued))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::list(vec![Value::Nil, Value::keyword("continued")])
    );
    cluster.shutdown();
}

#[test]
fn defhandler_retry_action_with_count() {
    // A service that fails twice then succeeds; retry-handler retries.
    let cluster = Cluster::new();
    let attempts = Arc::new(AtomicU64::new(0));
    let attempts2 = attempts.clone();
    register_value_service(
        &cluster,
        "Flaky",
        Some(
            ServiceDescription::new("Flaky", "urn:flaky").operation("Get", "Flaky get.", &[]),
        ),
        move |_op, _req| {
            let n = attempts2.fetch_add(1, Ordering::SeqCst);
            if n < 2 {
                Err(Fault::new("{urn:flaky}Transient", "try again"))
            } else {
                Ok(Value::Int(42))
            }
        },
    );
    cluster.spawn_instances("Flaky", 0, 1);
    let wf = deploy(
        &cluster,
        "(deflink FL :wsdl \"urn:flaky\" :port \"Flaky\")
         (defhandler retry-handler
           :code (\"{urn:flaky}Transient\")
           :action retry
           :count 5)
         (defun main ()
           (with-handler retry-handler (FL-Get-Method)))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int(42));
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    cluster.shutdown();
}

#[test]
fn defhandler_retry_count_exhausts() {
    // Always-failing service: after :count retries the handler declines
    // and the task fails.
    let cluster = Cluster::new();
    register_value_service(
        &cluster,
        "Broken",
        Some(ServiceDescription::new("Broken", "urn:broken").operation("Get", "", &[])),
        |_op, _req| -> Result<Value, Fault> {
            Err(Fault::new("{urn:broken}Always", "nope"))
        },
    );
    cluster.spawn_instances("Broken", 0, 1);
    let wf = deploy(
        &cluster,
        "(deflink BR :wsdl \"urn:broken\" :port \"Broken\")
         (defhandler retry-handler
           :code (\"{urn:broken}Always\")
           :action retry
           :count 2)
         (defun main ()
           (with-handler retry-handler (BR-Get-Method)))",
    );
    let task = wf.start("main", vec![], None).unwrap();
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    match rec.status {
        TaskStatus::Failed(c) => assert!(c.matches("{urn:broken}Always"), "{c}"),
        other => panic!("expected failure, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn defhandler_terminate_action() {
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defhandler fatal-handler
           :code (\"{urn:sm}BadArg\")
           :action terminate)
         (defun main ()
           (with-handler fatal-handler (SM-Square-Method)))",
    );
    let task = wf.start("main", vec![], None).unwrap();
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    assert!(matches!(rec.status, TaskStatus::Terminated(_)));
    cluster.shutdown();
}

#[test]
fn sync_call_from_future_thread() {
    // §3.2: service requests from a future's background thread
    // automatically become synchronous (no migration possible).
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(deflink SM :wsdl \"urn:security-manager-service\" :port \"SecurityManager\")
         (defun main ()
           (touch (future (SM-Square-Method :n 6))))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int(36));
    cluster.shutdown();
}

#[test]
fn for_each_from_future_thread_forks_a_fiber() {
    // §3.5: for-each on a background thread forks a fiber and joins it
    // synchronously.
    let cluster = cluster_with_sm();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (touch (future (apply #'+ (for-each (i in (range 4)) (* i i))))))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int(14));
    cluster.shutdown();
}
