//! The production recovery layer, end to end: lease reclaim feeding the
//! deployment supervisor, supervised continuation resume after total
//! node loss, engine-level retry of faulted async calls, call-timeout
//! synthesis, and the dead-letter quarantine surfacing as a terminal
//! `Failed` task state.
//!
//! Chaos stays armed for every run in this file — there is no harness
//! respawn loop anywhere. Survival is the recovery layer's job. A test
//! that waits out a backoff or a timeout runs its cluster on a manual
//! clock and advances it.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bluebox::recovery::{BACKOFF_MAX, REDELIVERY_BUDGET, SCAN_INTERVAL};
use bluebox::{ChaosConfig, ChaosPlan, Clock, Cluster, Fault, FaultPoint};
use gozer_lang::Value;
use gozer_obs::EventKind;
use gozer_xml::ServiceDescription;
use vinz::supervisor::{CALL_TIMEOUT, MAX_ATTEMPTS, STALL_AFTER};
use vinz::testing::{chaos_seeds, register_value_service, repro_command, run_workflow_under_chaos};
use vinz::{MemStore, StateStore, TaskStatus, VinzConfig, WorkflowService};

const TIMEOUT: Duration = Duration::from_secs(60);

/// Advance `clock` by `step` once per reaper scan until `done` holds:
/// how a test moves a cluster on a manual clock through its backoffs
/// and timeouts. Panics after 30 s of real time.
fn advance_until(clock: &Clock, step: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "not done after 30 s of real time");
        clock.advance(step);
        std::thread::sleep(SCAN_INTERVAL);
    }
}

const FOR_EACH_WF: &str = "
(defun main (n)
  (apply #'+ (for-each (i in (range n)) (* i i))))
";

/// The acceptance sweep, with the armed-ness of the plan made an
/// explicit assertion: every seed of the survivability preset (instance
/// crashes *and* node kills) completes with the exact fault-free value
/// while the chaos plan is still armed at the end of the run — i.e. no
/// harness ever stepped in to disarm faults or respawn instances.
#[test]
fn armed_sweep_completes_without_harness_intervention() {
    let seeds = chaos_seeds(16);
    let mut failures = Vec::new();
    let mut recovered = 0usize;
    let expected = Value::Int((0..10).map(|i| i * i).sum());
    for &seed in &seeds {
        match run_workflow_under_chaos(
            FOR_EACH_WF,
            "main",
            vec![Value::Int(10)],
            ChaosConfig::survivability(seed),
        ) {
            Ok(run) => {
                if !run.armed {
                    failures.push(format!("seed {seed}: plan was disarmed mid-run"));
                }
                if run.value != expected {
                    failures.push(format!(
                        "seed {seed}: wrong value {:?} (faults {:?})",
                        run.value, run.stats
                    ));
                }
                if run.recovered {
                    recovered += 1;
                }
            }
            Err(e) => failures.push(e),
        }
    }
    if !failures.is_empty() {
        let repros: Vec<String> = failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .filter_map(|s| s.strip_prefix("seed "))
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|seed| {
                format!(
                    "    {}",
                    repro_command(
                        "-p vinz --test recovery",
                        "armed_sweep_completes_without_harness_intervention",
                        seed
                    )
                )
            })
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
        "armed_sweep_completes_without_harness_intervention: \
         {} seeds passed ({recovered} via crash recovery)",
        seeds.len()
    );
}

/// Kill every node hosting the workflow while a fiber is suspended on a
/// slow service call. The doomed instances crash on the next message
/// they touch, the broker reaper reclaims their leases, and — with zero
/// live instances left — the supervisor provisions replacements on a
/// fresh node, where the reclaimed `ResumeFromCall` completes the task.
/// No test code respawns anything.
#[test]
fn supervisor_respawns_after_total_node_loss() {
    let cluster = Cluster::new();
    let desc = ServiceDescription::new("SlowSquare", "urn:slow-square")
        .operation("Square", "Squares the field n, slowly.", &[("n", "int")]);
    register_value_service(&cluster, "SlowSquare", Some(desc), |_op, req| {
        std::thread::sleep(Duration::from_millis(300));
        let n = req
            .as_map()
            .and_then(|m| m.get(&Value::str("n")).cloned())
            .and_then(|v| v.as_int())
            .ok_or_else(|| Fault::new("{urn:slow}BadArg", "need n"))?;
        Ok(Value::Int(n * n))
    });
    // The service lives on node 5, far from the blast radius below.
    cluster.spawn_instances("SlowSquare", 5, 2);

    // Every workflow instance on one node, so one node kill is total loss.
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink SS :wsdl \"urn:slow-square\" :port \"SlowSquare\")
             (defun main (n) (SS-Square-Method :n n))",
        )
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![Value::Int(9)], None).unwrap();

    // Let the fiber dispatch the call and persist its suspension, then
    // doom the whole node while the 300 ms reply is still in flight.
    std::thread::sleep(Duration::from_millis(100));
    cluster.kill_node(0, FaultPoint::BeforeProcess);

    let rec = wf.wait(&task, TIMEOUT).expect("task must finish");
    match rec.status {
        TaskStatus::Completed(v) => assert_eq!(v, Value::Int(81)),
        other => panic!("expected completion, got {other:?}"),
    }
    let obs = wf.obs();
    let counters = obs.counters();
    assert!(
        counters.supervisor_respawns.load(Ordering::Relaxed) >= 1,
        "the supervisor, not the test, must have restaffed the deployment"
    );
    cluster.shutdown();
}

/// A poisoned `RunFiber` — every delivery crashes its instance — spends
/// the redelivery budget, lands in the dead-letter store, and surfaces
/// as a terminal `Failed` record on the task it belonged to, with the
/// quarantine visible in both the vinz counters and the paper-facing
/// metrics export.
#[test]
fn poisoned_run_fiber_dead_letters_and_fails_the_task() {
    poisoned_operation_fails_the_task("RunFiber");
}

/// The same for the message that creates the task: `start` has named
/// it and gone, so the name is what the quarantine resolves.
#[test]
fn poisoned_start_dead_letters_and_fails_the_task() {
    poisoned_operation_fails_the_task("Start");
}

/// And for a service reply: the quarantined `ResumeFromCall` names its
/// task and fiber in its headers, the only place the observer looks.
#[test]
fn poisoned_resume_from_call_dead_letters_and_fails_the_task() {
    poisoned_operation_fails_the_task("ResumeFromCall");
}

fn poisoned_operation_fails_the_task(operation: &str) {
    let clock = Clock::manual();
    let cluster = Cluster::with_clock(clock.clone());
    register_value_service(
        &cluster,
        "Answer",
        Some(ServiceDescription::new("Answer", "urn:answer").operation("Get", "Answers.", &[])),
        |_op, _req| Ok(Value::Int(42)),
    );
    cluster.spawn_instances("Answer", 5, 1);
    cluster.set_chaos(ChaosPlan::new(ChaosConfig::poison(7, operation)));
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink AN :wsdl \"urn:answer\" :port \"Answer\")
             (defun main () (AN-Get-Method))",
        )
        .instances(0, 2)
        .deploy()
        .unwrap();
    // The supervisor keeps restaffing the deployment as poison kills it,
    // so the budget is spent by real redeliveries, not starvation; the
    // clock moves through each redelivery's backoff.
    let task = wf.start("main", vec![], None).unwrap();
    advance_until(&clock, BACKOFF_MAX, || wf.status(&task).is_some_and(|s| s.is_final()));
    let rec = wf.wait(&task, Duration::ZERO).expect(
        "dead-lettering must resolve the task instead of hanging it",
    );
    match rec.status {
        TaskStatus::Failed(c) => assert!(c.matches("dead-letter"), "{c}"),
        other => panic!("expected Failed after quarantine, got {other:?}"),
    }
    assert!(cluster.dead_letter_total() > 0, "quarantine counter moved");
    let dead = cluster.dead_letters("workflow");
    assert!(
        dead.iter().any(|d| d.msg.operation == operation && d.msg.redeliveries == REDELIVERY_BUDGET),
        "the poisoned operation is what got quarantined, its budget spent: {dead:?}"
    );
    let obs = wf.obs();
    assert_eq!(
        obs.counters().tasks_dead_lettered.load(Ordering::Relaxed),
        1,
        "the task failed once, however many of its messages were quarantined"
    );
    let text = cluster.obs().registry.render_text();
    assert!(
        text.contains("gozer_dead_letters_total"),
        "metrics export must carry the dead-letter family:\n{text}"
    );
    cluster.shutdown();
}

/// A `Start` wrote its task and died before its `RunFiber` reached
/// anyone: all the store holds is the task definition and the main
/// fiber as it was born. The client starts the task again under the
/// same name; the second `Start` finds the first one's work and adds
/// nothing, and the orphan scan, going by the birth record alone, sends
/// the `RunFiber` that was lost.
#[test]
fn orphan_scan_runs_a_fiber_known_only_by_its_birth_record() {
    let (task, left) = orphan_scan_finishes("RunFiber", "(defun main (n) (* n n))", 12, 144);
    assert_eq!(left, [format!("fiber/{task}/f0"), format!("task-def/{task}")]);
}

/// A `for-each` parent suspended on its children, and every child's
/// wake-up was lost: the orphan scan reads the parent's `children` crumb
/// and re-sends an `AwakeFiber` for each finished child (and a
/// `RunFiber` for any child that never ran).
#[test]
fn orphan_scan_wakes_a_parent_whose_awakes_were_lost() {
    let source = "(defun main (n) (apply #'+ (for-each (i in (range n)) (* i i))))";
    let (task, left) = orphan_scan_finishes("AwakeFiber", source, 4, 14);
    assert!(left.contains(&format!("susp/{task}/f0")), "{left:?}");
}

/// A `join-process` waiter suspended on a forked fiber, and the
/// `JoinProcess` that would have woken it was lost: the orphan scan
/// reads the waiter's `join` crumb, finds the target finished, and
/// re-sends the wake-up.
#[test]
fn orphan_scan_wakes_a_join_whose_wake_up_was_lost() {
    let source = "(defun sq (n) (* n n))
                  (defun main (n) (join-process (fork-and-exec #'sq :argument n)))";
    let (task, left) = orphan_scan_finishes("JoinProcess", source, 7, 49);
    assert!(left.contains(&format!("susp/{task}/f0")), "{left:?}");
}

/// Two lives of one deployment on one store. In the first, every
/// delivery of `poisoned` kills its instance and nothing restaffs the
/// deployment, so the message that would move the task on is lost. In
/// the second, the client starts the task again under the same name (a
/// duplicate `Start`, which adds nothing) and the orphan scan must
/// finish it with `expected`. Returns the task and the keys the first
/// life left.
fn orphan_scan_finishes(poisoned: &str, source: &str, n: i64, expected: i64) -> (String, Vec<String>) {
    let store: Arc<dyn StateStore> = Arc::new(MemStore::new());
    let doomed = Cluster::new();
    doomed.set_chaos(ChaosPlan::new(ChaosConfig::poison(7, poisoned)));
    let mut unsupervised = VinzConfig::default();
    unsupervised.supervision.enabled = false;
    let wf = WorkflowService::builder(&doomed, "workflow")
        .source(source)
        .store(store.clone())
        .config(unsupervised)
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![Value::Int(n)], None).unwrap();
    let deadline = Instant::now() + TIMEOUT;
    while doomed.live_instances("workflow") > 0 {
        assert!(Instant::now() < deadline, "poison never took the instances");
        std::thread::sleep(Duration::from_millis(1));
    }
    doomed.shutdown();
    drop(wf);
    let left = store.list("").unwrap();

    // Nothing moves the task on until the deployment has stood still
    // for STALL_AFTER on the clock.
    let clock = Clock::manual();
    let cluster = Cluster::with_clock(clock.clone());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(source)
        .store(store.clone())
        .instances(0, 2)
        .deploy()
        .unwrap();
    assert_eq!(wf.start("main", vec![Value::Int(n)], None).unwrap(), task);
    advance_until(&clock, STALL_AFTER / 4, || wf.status(&task).is_some_and(|s| s.is_final()));
    let rec = wf
        .wait(&task, Duration::ZERO)
        .unwrap_or_else(|| panic!("the orphan scan finishes the task ({poisoned} lost)"));
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int(expected)));
    let obs = wf.obs();
    let counters = obs.counters();
    assert!(counters.orphans_resumed.load(Ordering::Relaxed) >= 1);
    // The task began once, in its first life.
    assert_eq!(counters.tasks_started.load(Ordering::Relaxed), 0);
    cluster.shutdown();
    (task, left)
}

/// Engine-level retry is invisible to the workflow: a service that
/// faults twice then succeeds needs no handler in the workflow source —
/// the `ResumeFromCall` path re-dispatches the persisted call request
/// and only the final success ever reaches the fiber.
#[test]
fn engine_retries_faulted_async_calls_transparently() {
    let cluster = Cluster::new();
    let attempts = Arc::new(AtomicU64::new(0));
    let a2 = attempts.clone();
    register_value_service(
        &cluster,
        "Shaky",
        Some(ServiceDescription::new("Shaky", "urn:shaky").operation("Get", "Flaky get.", &[])),
        move |_op, _req| {
            if a2.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(Fault::new("{urn:shaky}Transient", "not yet"))
            } else {
                Ok(Value::Int(7))
            }
        },
    );
    cluster.spawn_instances("Shaky", 0, 1);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink SH :wsdl \"urn:shaky\" :port \"Shaky\")
             (defun main () (SH-Get-Method))",
        )
        .instances(0, 2)
        .deploy()
        .unwrap();
    let v = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(7));
    assert_eq!(attempts.load(Ordering::SeqCst), 3);
    let obs = wf.obs();
    assert_eq!(
        obs.counters().calls_retried.load(Ordering::Relaxed),
        2,
        "both faulted attempts were absorbed by the engine retry policy"
    );
    cluster.shutdown();
}

/// A call to a registered-but-unstaffed service never gets a reply; the
/// supervisor's call-request scan re-sends it every call timeout until
/// the attempts run out, then synthesizes a `{vinz}CallTimeout` fault,
/// and the workflow's `with-retries` give-up fallback supplies the
/// value.
#[test]
fn call_timeout_synthesizes_fault_and_gives_up() {
    let clock = Clock::manual();
    let cluster = Cluster::with_clock(clock.clone());
    register_value_service(
        &cluster,
        "Ghost",
        Some(ServiceDescription::new("Ghost", "urn:ghost").operation("Get", "Never answers.", &[])),
        |_op, _req| Ok(Value::Nil),
    );
    // No instances: the request sits in the queue forever.
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(
            "(deflink GH :wsdl \"urn:ghost\" :port \"Ghost\")
             (defun main ()
               (with-retries (:count 0 :fallback :gave-up) (GH-Get-Method)))",
        )
        .instances(0, 2)
        .deploy()
        .unwrap();
    let obs = wf.obs();
    obs.set_tracing(true);
    let task = wf.start("main", vec![], None).unwrap();
    advance_until(&clock, CALL_TIMEOUT / 40, || wf.status(&task).is_some_and(|s| s.is_final()));
    let rec = wf.wait(&task, Duration::ZERO).expect("task finishes");
    assert_eq!(rec.status, TaskStatus::Completed(Value::keyword("gave-up")));
    // Every attempt went out, and none was answered.
    assert_eq!(cluster.queue_depth("Ghost"), MAX_ATTEMPTS as usize);
    assert_eq!(obs.counters().calls_retried.load(Ordering::Relaxed), u64::from(MAX_ATTEMPTS - 1));
    // The synthesized reply, like a real one, correlates to the caller.
    let fiber = format!("{task}/f0");
    let replies: Vec<_> = obs
        .events()
        .into_iter()
        .filter(|e| matches!(&e.kind, EventKind::MessageSent { operation, .. } if operation == "ResumeFromCall"))
        .collect();
    assert!(!replies.is_empty(), "the timeout reply was sent");
    for e in &replies {
        assert_eq!(e.task.as_deref(), Some(task.as_str()), "{e:?}");
        assert_eq!(e.fiber.as_deref(), Some(fiber.as_str()), "{e:?}");
    }
    cluster.shutdown();
}

/// A `join-process` that cannot suspend (it runs in a future) polls for
/// its target's result until the cluster's clock is `JOIN_DEADLINE`
/// (600 s) past its start, then fails; the task fails with it.
#[test]
fn a_background_join_gives_up_once_the_clock_passes_its_deadline() {
    let clock = Clock::manual();
    let cluster = Cluster::with_clock(clock.clone());
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source("(defun main () (touch (future (join-process \"nowhere/f0\"))))")
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![], None).unwrap();
    advance_until(&clock, Duration::from_secs(60), || {
        wf.status(&task).is_some_and(|s| s.is_final())
    });
    match wf.status(&task) {
        Some(TaskStatus::Failed(c)) => {
            assert!(c.to_string().contains("join-process: nowhere/f0 never finished"), "{c}")
        }
        other => panic!("expected the join to fail the task, got {other:?}"),
    }
    cluster.shutdown();
}

/// The satellite convergence sweep: a flaky platform service fails the
/// first five attempts for every input, so each call must climb through
/// the engine retry policy (three attempts per dispatch) *and* one
/// workflow-level `defhandler` retry — all while the survivability
/// preset crashes instances and kills a node. Every seed must converge
/// to the exact sum, and the service-side effect ledger (idempotent by
/// input key, as production services must be under at-least-once
/// delivery) must show every input applied, with none missing.
#[test]
fn flaky_service_sweep_converges_without_duplicate_effects() {
    const FLAKY_WF: &str = "
(deflink FL :wsdl \"urn:flaky\" :port \"Flaky\")
(defhandler transient-handler
  :code (\"{urn:flaky}Transient\")
  :action retry
  :count 8)
(defun main (items)
  (apply #'+ (for-each (n in items)
               (with-handler transient-handler (FL-Do-Method :n n)))))
";
    let inputs: Vec<i64> = (0..6).collect();
    let expected = Value::Int(inputs.iter().map(|n| n * n).sum());
    let seeds = chaos_seeds(16);
    let mut failures = Vec::new();
    for &seed in &seeds {
        let cluster = Cluster::new();
        cluster.set_chaos(ChaosPlan::new(ChaosConfig::survivability(seed)));
        let attempts: Arc<Mutex<HashMap<i64, u64>>> = Arc::new(Mutex::new(HashMap::new()));
        let effects: Arc<Mutex<HashSet<i64>>> = Arc::new(Mutex::new(HashSet::new()));
        let (a2, e2) = (attempts.clone(), effects.clone());
        register_value_service(
            &cluster,
            "Flaky",
            Some(
                ServiceDescription::new("Flaky", "urn:flaky")
                    .operation("Do", "Fails five times per input, then squares.", &[("n", "int")]),
            ),
            move |_op, req| {
                let n = req
                    .as_map()
                    .and_then(|m| m.get(&Value::str("n")).cloned())
                    .and_then(|v| v.as_int())
                    .ok_or_else(|| Fault::new("{urn:flaky}BadArg", "need n"))?;
                let attempt = {
                    let mut map = a2.lock().unwrap();
                    let slot = map.entry(n).or_insert(0);
                    *slot += 1;
                    *slot
                };
                if attempt <= 5 {
                    return Err(Fault::new("{urn:flaky}Transient", "try again"));
                }
                e2.lock().unwrap().insert(n);
                Ok(Value::Int(n * n))
            },
        );
        // Staff the flaky fleet wide enough that the chaos budget (five
        // instance crashes plus one node kill) can never extinguish it:
        // the supervisor restaffs only its own workflow deployment.
        for node in 2..6 {
            cluster.spawn_instances("Flaky", node, 2);
        }
        let wf = match WorkflowService::builder(&cluster, "workflow")
            .source(FLAKY_WF)
            .instances(0, 2)
            .instances(1, 2)
            .deploy()
        {
            Ok(wf) => wf,
            Err(e) => {
                failures.push(format!("seed {seed}: deploy failed: {e}"));
                cluster.shutdown();
                continue;
            }
        };
        let args = vec![Value::list(inputs.iter().map(|&n| Value::Int(n)).collect())];
        match wf.call("main", args, TIMEOUT) {
            Ok(v) if v == expected => {
                let applied = effects.lock().unwrap().clone();
                let wanted: HashSet<i64> = inputs.iter().copied().collect();
                if applied != wanted {
                    failures.push(format!(
                        "seed {seed}: effect ledger {applied:?} != inputs {wanted:?}"
                    ));
                }
            }
            Ok(v) => failures.push(format!("seed {seed}: wrong value {v:?}")),
            Err(e) => failures.push(format!("seed {seed}: call failed: {e}")),
        }
        cluster.shutdown();
    }
    if !failures.is_empty() {
        let repros: Vec<String> = failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .filter_map(|s| s.strip_prefix("seed "))
            .filter_map(|s| s.trim().parse::<u64>().ok())
            .map(|seed| {
                format!(
                    "    {}",
                    repro_command(
                        "-p vinz --test recovery",
                        "flaky_service_sweep_converges_without_duplicate_effects",
                        seed
                    )
                )
            })
            .collect();
        panic!(
            "{}/{} seeds failed:\n  {}\n  replay with:\n{}",
            failures.len(),
            seeds.len(),
            failures.join("\n  "),
            repros.join("\n")
        );
    }
}
