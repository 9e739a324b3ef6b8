//! End-to-end distributed workflow tests: the full paper pipeline of
//! Start → RunFiber → fork → yield → persist → AwakeFiber → resume,
//! across multiple simulated nodes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, Fault, Message};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_obs::{Event, EventKind};
use gozer_serial::serialize_value;
use gozer_xml::ServiceDescription;
use vinz::testing::{register_square_service, register_value_service};
use vinz::{TaskStatus, VinzConfig, WorkflowService};

fn deploy(cluster: &Arc<Cluster>, source: &str) -> WorkflowService {
    deploy_cfg(cluster, source, VinzConfig::default())
}

fn deploy_cfg(cluster: &Arc<Cluster>, source: &str, config: VinzConfig) -> WorkflowService {
    // Two nodes, two instances each: enough for cross-node migration.
    WorkflowService::builder(cluster, "wf")
        .source(source)
        .config(config)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap()
}

const TIMEOUT: Duration = Duration::from_secs(60);

#[test]
fn dist_sum_squares_matches_listing_1() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun dist-sum-squares (numbers)
           (apply #'+
                  (for-each (number in numbers)
                    (* number number))))",
    );
    let numbers: Vec<Value> = (1..=10).map(Value::Int).collect();
    let result = wf
        .call("dist-sum-squares", vec![Value::list(numbers)], TIMEOUT)
        .unwrap();
    assert_eq!(result, Value::Int(385));
    // 1 root fiber + 10 children.
    let rec = wf.obs().tracker().all().pop().unwrap();
    assert_eq!(rec.fibers_created, 11);
    cluster.shutdown();
}

#[test]
fn spawn_limit_bounds_outstanding_children() {
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.spawn_limit = 3;
    let wf = deploy_cfg(
        &cluster,
        "(defun main (n)
           (for-each (i in (range n)) (* i 10)))",
        config,
    );
    let result = wf.call("main", vec![Value::Int(5)], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::list((0..5).map(|i| Value::Int(i * 10)).collect())
    );
    cluster.shutdown();
}

#[test]
fn nested_for_each() {
    // "This type of distribution may be nested to an arbitrary depth"
    // (§3.1).
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (for-each (i in (range 3))
             (apply #'+ (for-each (j in (range 3)) (* i j)))))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    // i=0: 0, i=1: 0+1+2=3, i=2: 0+2+4=6
    assert_eq!(
        result,
        Value::list(vec![Value::Int(0), Value::Int(3), Value::Int(6)])
    );
    cluster.shutdown();
}

#[test]
fn parallel_macro_runs_forms_in_fibers() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (parallel (+ 1 1) (* 2 2) (- 9 1)))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::list(vec![Value::Int(2), Value::Int(4), Value::Int(8)])
    );
    cluster.shutdown();
}

#[test]
fn fork_and_exec_with_join_process() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun worker (x) (* x 100))
         (defun main ()
           (let ((pid (fork-and-exec #'worker :argument 7)))
             (join-process pid)))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int(700));
    cluster.shutdown();
}

#[test]
fn task_variables_share_state_across_fibers() {
    // Listing 4: a global exit flag visible to every fiber of the task.
    // With -1 first and a spawn limit of 1 the children run serially, so
    // every child after the -1 sees the flag and returns nil. The -1
    // child itself returns t (the value of the setf), as in the paper's
    // listing.
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.spawn_limit = 1;
    let wf = deploy_cfg(
        &cluster,
        "(deftaskvar exit-flag \"When this becomes true, stop.\")
         (defun dist-sum-squares (numbers)
           (for-each (number in numbers)
             (unless ^exit-flag^
               (if (= -1 number)
                   (setf ^exit-flag^ t)
                   (* number number)))))",
        config,
    );
    let mut numbers = vec![Value::Int(-1)];
    numbers.extend((1..=4).map(Value::Int));
    let result = wf
        .call("dist-sum-squares", vec![Value::list(numbers)], TIMEOUT)
        .unwrap();
    assert_eq!(
        result,
        Value::list(vec![
            Value::Bool(true),
            Value::Nil,
            Value::Nil,
            Value::Nil,
            Value::Nil
        ])
    );
    cluster.shutdown();
}

#[test]
fn terminate_stops_a_running_task() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        // A workflow that would spin forever across yields.
        "(defun main ()
           (let ((acc 0))
             (dotimes (i 1000000)
               (setq acc (+ acc (first (for-each (x in (list i)) x)))))
             acc))",
    );
    let task = wf.start("main", vec![], None).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    wf.terminate(&task);
    let rec = wf.wait(&task, TIMEOUT).expect("terminates promptly");
    assert!(matches!(rec.status, TaskStatus::Terminated(_)));
    cluster.shutdown();
}

#[test]
fn unhandled_error_fails_the_task() {
    let cluster = Cluster::new();
    let wf = deploy(&cluster, "(defun main () (error \"workflow exploded\"))");
    let task = wf.start("main", vec![], None).unwrap();
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    match rec.status {
        TaskStatus::Failed(c) => assert!(c.message().contains("workflow exploded")),
        other => panic!("expected failure, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn break_action_terminates_only_the_fiber() {
    // break: the fiber returns nil to its parent; other fibers are
    // unaffected (§3.7).
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (for-each (i in (list 1 2 3))
             (if (= i 2) (break-fiber) (* i 10))))",
    );
    let result = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(
        result,
        Value::list(vec![Value::Int(10), Value::Nil, Value::Int(30)])
    );
    cluster.shutdown();
}

#[test]
fn terminate_action_kills_the_whole_task() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (for-each (i in (list 1 2 3))
             (if (= i 2) (terminate-task \"fatal input\") (* i 10))))",
    );
    let task = wf.start("main", vec![], None).unwrap();
    let rec = wf.wait(&task, TIMEOUT).unwrap();
    assert!(matches!(rec.status, TaskStatus::Terminated(_)));
    cluster.shutdown();
}

#[test]
fn multiple_tasks_run_concurrently() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main (base)
           (apply #'+ (for-each (i in (range 4)) (+ base i))))",
    );
    let tasks: Vec<String> = (0..5)
        .map(|k| wf.start("main", vec![Value::Int(k * 100)], None).unwrap())
        .collect();
    for (k, task) in tasks.iter().enumerate() {
        let rec = wf.wait(task, TIMEOUT).unwrap();
        let expected = (0..4).map(|i| k as i64 * 100 + i).sum::<i64>();
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(expected)));
    }
    cluster.shutdown();
}

#[test]
fn fibers_run_on_multiple_nodes() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (for-each (i in (range 16)) (progn (sleep-millis 3) (* i i))))",
    );
    let obs = wf.obs();
    obs.set_tracing(true);
    wf.call("main", vec![], TIMEOUT).unwrap();
    let nodes: std::collections::HashSet<u32> = obs
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FiberRun))
        .filter_map(|e| e.node)
        .collect();
    assert!(
        nodes.len() >= 2,
        "fibers should be load-balanced across nodes, saw {nodes:?}"
    );
    cluster.shutdown();
}

#[test]
fn workflow_survives_instance_failure() {
    // §3.2: "the failure of any instance will result in only minimal
    // delays as other instances automatically compensate."
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (apply #'+ (for-each (i in (range 12)) (* i i))))",
    );
    let task = wf.start("main", vec![], None).unwrap();
    // Crash node 0 (both instances) almost immediately.
    std::thread::sleep(Duration::from_millis(20));
    cluster.kill_node(0, bluebox::CrashPoint::BeforeProcess);
    let rec = wf.wait(&task, TIMEOUT).expect("task survives the crash");
    assert_eq!(
        rec.status,
        TaskStatus::Completed(Value::Int((0..12).map(|i| i * i).sum()))
    );
    cluster.shutdown();
}

#[test]
fn local_futures_inside_distributed_fibers() {
    // chunked for-each: distributed chunks, local futures within each
    // chunk (§3.5).
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main (n)
           (apply #'+ (for-each (i in (range n) :chunk-size 4) (* i i))))",
    );
    let result = wf.call("main", vec![Value::Int(10)], TIMEOUT).unwrap();
    assert_eq!(result, Value::Int((0..10).map(|i| i * i).sum()));
    cluster.shutdown();
}

#[test]
fn run_and_status_api() {
    let cluster = Cluster::new();
    let wf = deploy(&cluster, "(defun main () :done)");
    let rec = wf.run("main", vec![], TIMEOUT).unwrap();
    assert_eq!(rec.status, TaskStatus::Completed(Value::keyword("done")));
    assert!(wf.status(&rec.id).unwrap().is_final());
    cluster.shutdown();
}

#[test]
fn figure1_event_sequence_is_ordered() {
    // The Figure 1 lifetime: events must appear in causal order for a
    // single-fiber workflow with one suspension.
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main ()
           (let ((pid (fork-and-exec (lambda () 5))))
             (+ 1 (join-process pid))))",
    );
    let obs = wf.obs();
    obs.set_tracing(true);
    let v = wf.call("main", vec![], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(6));
    let events = obs.events();
    let root = Some("task-1/f0");
    let pos = |pred: &dyn Fn(&EventKind) -> bool| {
        events
            .iter()
            .position(|e| e.fiber.as_deref() == root && pred(&e.kind))
    };
    let start = pos(&|k| matches!(k, EventKind::TaskStarted)).expect("Start");
    let run = pos(&|k| matches!(k, EventKind::FiberRun)).expect("RunFiber");
    let fork = pos(&|k| matches!(k, EventKind::FiberForked { .. })).expect("Fork");
    let yielded = pos(&|k| matches!(k, EventKind::FiberYield { .. })).expect("Yield");
    let resumed = pos(&|k| matches!(k, EventKind::FiberResumed { .. })).expect("Resume");
    let done = pos(&|k| matches!(k, EventKind::FiberDone)).expect("FiberDone");
    let task_done = pos(&|k| matches!(k, EventKind::TaskDone { .. })).expect("TaskDone");
    assert!(start < run, "Start before RunFiber");
    assert!(run < fork, "RunFiber before Fork");
    assert!(fork < yielded, "Fork before the join Yield");
    assert!(yielded < resumed, "Yield before Resume");
    assert!(resumed < done, "Resume before FiberDone");
    assert!(done <= task_done, "FiberDone before TaskDone");
    cluster.shutdown();
}

#[test]
fn persistence_metrics_account_for_suspensions() {
    let cluster = Cluster::new();
    let wf = deploy(
        &cluster,
        "(defun main () (for-each (i in (range 4)) i))",
    );
    wf.call("main", vec![], TIMEOUT).unwrap();
    use std::sync::atomic::Ordering;
    let obs = wf.obs();
    let m = obs.counters();
    // Persists: 1 initial (root) + 4 children initial + 4 parent
    // suspensions (one per child yield) = 9.
    assert_eq!(m.persist_count.load(Ordering::Relaxed), 9);
    assert!(m.persist_bytes.load(Ordering::Relaxed) > 0);
    // Resumes: 4 awakes.
    assert_eq!(m.resumes.load(Ordering::Relaxed), 4);
    // RunFiber executions: 1 root + 4 children.
    assert_eq!(m.fibers_run.load(Ordering::Relaxed), 5);
    cluster.shutdown();
}

/// `MemStore` that counts deletes (on `LogStore` each one appends a
/// tombstone to the commit log) and logs the keys of every write call,
/// a batch being one call.
#[derive(Default)]
struct CountingStore {
    inner: vinz::MemStore,
    deletes: std::sync::atomic::AtomicU64,
    puts: std::sync::Mutex<Vec<Vec<String>>>,
    /// The keys of each `put_batch` call alone.
    batches: std::sync::Mutex<Vec<Vec<String>>>,
    /// Key + value bytes of each write under `children/`.
    registry_puts: std::sync::Mutex<Vec<usize>>,
    registry_gets: std::sync::atomic::AtomicU64,
}

impl CountingStore {
    /// The write calls made since the last look.
    fn take_puts(&self) -> Vec<Vec<String>> {
        std::mem::take(&mut *self.puts.lock().unwrap())
    }
}

impl vinz::StateStore for CountingStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), vinz::StoreError> {
        self.puts.lock().unwrap().push(vec![key.to_string()]);
        if key.starts_with("children/") {
            self.registry_puts.lock().unwrap().push(key.len() + data.len());
        }
        self.inner.put(key, data)
    }
    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<vinz::Watermark, vinz::StoreError> {
        let keys: Vec<String> = entries.iter().map(|(k, _)| k.to_string()).collect();
        self.batches.lock().unwrap().push(keys.clone());
        self.puts.lock().unwrap().push(keys);
        self.inner.put_batch(entries)
    }
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, vinz::StoreError> {
        if key.starts_with("children/") {
            self.registry_gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        self.inner.get(key)
    }
    fn delete(&self, key: &str) -> Result<(), vinz::StoreError> {
        self.deletes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.delete(key)
    }
    fn list(&self, prefix: &str) -> Result<Vec<String>, vinz::StoreError> {
        self.inner.list(prefix)
    }
    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }
}

/// What a task writes, call by call: a fiber is persisted when it is
/// born and when it suspends, and a result when it finishes — nothing
/// records *that* any of it happened.
#[test]
fn store_census_of_a_task() {
    let cluster = Cluster::new();
    let store = Arc::new(CountingStore::default());
    // The benchmark's `quick` and one round of its `forkjoin-log`.
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(
            "(defun quick (n) (* n n))
             (defun child (n) (* n 7))
             (defun step (n) (join-process (fork-and-exec #'child :argument n)))
             (defun one (n) (step n))
             (defun two (n) (+ (step n) (step n)))",
        )
        .store(store.clone())
        .instances(0, 2)
        .deploy()
        .unwrap();
    let census = |function: &str, want: i64| {
        let v = wf.call(function, vec![Value::Int(3)], TIMEOUT).unwrap();
        assert_eq!(v, Value::Int(want), "{function}");
        assert!(cluster.drain("wf", TIMEOUT));
        store.take_puts()
    };
    // A task that never suspends: its definition, its fiber as born, its
    // result.
    assert_eq!(
        census("quick", 9),
        [
            ["task-def/task-1"],
            ["fiber/task-1/f0"],
            ["result/task-1/f0"]
        ]
    );
    let (one, two) = (census("one", 21), census("two", 42));
    // A fork/join round: the child as born and its entry in the parent's
    // registry, the parent's suspension (snapshot, meta and crumb in one
    // batch) and its entry in the child's waiter list, the child's
    // result.
    assert!(two.len() - one.len() <= 5, "{one:?}\n{two:?}");
    assert!(one.len() <= 3 + 5, "{one:?}");
    let keys: Vec<&String> = one.iter().chain(&two).flatten().collect();
    // Nothing but these is ever written (no key records a phase).
    const FAMILIES: [&str; 7] = [
        "task-def/", "fiber/", "fiber-v/", "susp/", "result/", "children/", "waiters/",
    ];
    let stray = keys.iter().find(|k| !FAMILIES.iter().any(|f| k.starts_with(f)));
    assert_eq!(stray, None, "{keys:?}");
    // The meta record is written by suspensions only, with what it names.
    for call in one.iter().chain(&two) {
        if call.iter().any(|k| k.starts_with("fiber-v/")) {
            assert_eq!(call.len(), 3, "{call:?}");
            assert!(call.iter().any(|k| k.starts_with("susp/")), "{call:?}");
        }
    }
    cluster.shutdown();
}

/// An async call is one record: written alone in the batch whose ticket
/// holds the request, rewritten in place when a faulted reply is retried,
/// and deleted when the reply resumes the fiber.
#[test]
fn store_census_of_an_async_call() {
    let cluster = Cluster::new();
    let store = Arc::new(CountingStore::default());
    let served = Arc::new(AtomicU64::new(0));
    let s2 = served.clone();
    register_value_service(
        &cluster,
        "Shaky",
        Some(ServiceDescription::new("Shaky", "urn:shaky").operation("Get", "Faults once.", &[])),
        move |_op, _req| match s2.fetch_add(1, Ordering::SeqCst) {
            0 => Err(Fault::new("{urn:shaky}Transient", "not yet")),
            _ => Ok(Value::Int(7)),
        },
    );
    cluster.spawn_instances("Shaky", 0, 1);
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(
            "(deflink SH :wsdl \"urn:shaky\" :port \"Shaky\")
             (defun main () (SH-Get-Method))",
        )
        .store(store.clone())
        .instances(0, 2)
        .deploy()
        .unwrap();
    assert_eq!(wf.call("main", vec![], TIMEOUT).unwrap(), Value::Int(7));
    assert!(cluster.drain("wf", TIMEOUT));
    assert_eq!(served.load(Ordering::SeqCst), 2);
    let puts = store.take_puts();
    let writes: Vec<&Vec<String>> = puts
        .iter()
        .filter(|call| call.iter().any(|k| k.starts_with("call-req/")))
        .collect();
    // The dispatch, then the retry's rewrite of the same key.
    assert_eq!(writes.len(), 2, "{puts:?}");
    assert_eq!(writes[0].len(), 1, "{puts:?}");
    assert_eq!(writes[0], writes[1], "{puts:?}");
    let batches = store.batches.lock().unwrap().clone();
    assert_eq!(
        batches.iter().filter(|b| b.iter().any(|k| k.starts_with("call-req/"))).count(),
        1,
        "{batches:?}"
    );
    // No second key for the call: its correlation names only the record.
    let correlation = writes[0][0].trim_start_matches("call-req/");
    assert!(
        puts.iter()
            .flatten()
            .all(|k| k == &writes[0][0] || k.rsplit('/').next() != Some(correlation)),
        "{puts:?}"
    );
    // One node, no join: the record is the only thing deleted.
    assert_eq!(store.deletes.load(Ordering::Relaxed), 1);
    assert!(vinz::StateStore::list(&*store, "call-req/").unwrap().is_empty());
    assert_eq!(wf.obs().counters().calls_retried.load(Ordering::Relaxed), 1);
    cluster.shutdown();
}

/// Forking the n-th child costs what forking the first did: its own
/// registry key, no look at its siblings'. (One comma list per parent,
/// read and rewritten on every fork, made an n-way `for-each` append
/// 1 + 2 + … + n ids.)
#[test]
fn child_registry_is_linear_in_children() {
    use std::sync::atomic::Ordering;
    let cluster = Cluster::new();
    let store = Arc::new(CountingStore::default());
    let wf = WorkflowService::builder(&cluster, "wf")
        .source("(defun fan (n) (apply #'+ (for-each (i in (range n)) (* i i))))")
        .store(store.clone())
        .instances(0, 2)
        .deploy()
        .unwrap();
    let registry_of = |n: i64| {
        let want = (0..n).map(|i| i * i).sum::<i64>();
        assert_eq!(wf.call("fan", vec![Value::Int(n)], TIMEOUT).unwrap(), Value::Int(want));
        assert!(cluster.drain("wf", TIMEOUT));
        std::mem::take(&mut *store.registry_puts.lock().unwrap())
    };
    let (few, many) = (registry_of(8), registry_of(64));
    assert_eq!((few.len(), many.len()), (8, 64));
    // `children/task-N/f0/task-N/fM`, empty value: the longest entry
    // among 64 is a digit or two longer than among 8, not 8 times.
    assert!(many.iter().max().unwrap() <= &(few.iter().max().unwrap() + 2), "{few:?}\n{many:?}");
    assert_eq!(store.registry_gets.load(Ordering::Relaxed), 0);
    cluster.shutdown();
}

#[test]
fn only_a_joined_fiber_costs_a_delete() {
    use std::sync::atomic::Ordering;
    let cluster = Cluster::new();
    let store = Arc::new(CountingStore::default());
    // One node: no migration, so no compaction garbage to delete either.
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(
            "(defun quick (n) (* n n))
             (defun fan (n) (apply #'+ (for-each (i in (range n)) (* i i))))
             (defun worker (x) (* x 100))
             (defun joined ()
               (join-process (fork-and-exec #'worker :argument 7)))",
        )
        .store(store.clone())
        .instances(0, 2)
        .deploy()
        .unwrap();
    assert_eq!(
        wf.call("quick", vec![Value::Int(5)], TIMEOUT).unwrap(),
        Value::Int(25)
    );
    assert_eq!(
        wf.call("fan", vec![Value::Int(4)], TIMEOUT).unwrap(),
        Value::Int(14)
    );
    // Every fiber that finished looked for waiters; none had any.
    assert_eq!(store.deletes.load(Ordering::Relaxed), 0);
    assert_eq!(wf.call("joined", vec![], TIMEOUT).unwrap(), Value::Int(700));
    // The worker's waiter list, cleared once.
    assert_eq!(store.deletes.load(Ordering::Relaxed), 1);
    cluster.shutdown();
}

#[test]
fn seed_cache_use_is_counted_and_exported() {
    // `fan` suspends once per child under an untouched `main` frame. Its
    // first save (a full one) leaves the seeding tables behind, so while
    // the node cache holds the fiber no delta walks a clean frame; with
    // room for one fiber every child's birth evicts the parent, and each
    // reload rebuilds the tables from the frames it read.
    for (cache_capacity, walks) in [(vinz::VinzConfig::default().cache_capacity, false), (1, true)] {
        let cluster = Cluster::new();
        let wf = WorkflowService::builder(&cluster, "wf")
            .source(
                "(defun fan (n) (apply #'+ (for-each (i in (range n)) (* i i))))
                 (defun main (n) (list (fan n) (fan n)))",
            )
            .config(vinz::VinzConfig {
                cache_capacity,
                ..Default::default()
            })
            .instances(0, 2)
            .deploy()
            .unwrap();
        wf.call("main", vec![Value::Int(4)], TIMEOUT).unwrap();
        let obs = wf.obs();
        let costs = obs.profile().serial;
        assert_eq!(costs.seed_frames_walked > 0, walks, "{costs:?}");
        assert!(costs.seed_frames_reused > 0, "{costs:?}");
        let text = obs.export_text();
        for (source, n) in [
            ("reused", costs.seed_frames_reused),
            ("walked", costs.seed_frames_walked),
        ] {
            let line = format!(
                "gozer_snapshot_seed_frames_total{{source=\"{source}\",service=\"wf\"}} {n}"
            );
            assert!(text.contains(&line), "missing `{line}` in:\n{text}");
        }
        cluster.shutdown();
    }
}

// ---- idempotent entry (Table 1 under at-least-once delivery) ---------------

/// `GateA` and `GateB` are registered with an interface and a queue but
/// no instances, so a call to one parks its fiber until the test staffs
/// the service: every workflow below is still mid-flight, with a fiber
/// suspended on `GateB`, when its duplicate message arrives.
const GATES: &str = "(deflink GA :wsdl \"urn:gatea\" :port \"GateA\")
                     (deflink GB :wsdl \"urn:gateb\" :port \"GateB\")";

/// One row of the idempotent-entry table.
struct Redelivery {
    /// The Table 1 operation delivered twice.
    op: &'static str,
    /// A `main` that calls `GateA` (n = 3), then waits on `GateB`
    /// (n = 4), and returns the sum of the two squares.
    source: &'static str,
    /// Rebuild the message that was already delivered once `GateA` has
    /// replied, from the task id, the events so far and the correlation
    /// of the task's first service call.
    duplicate: fn(&str, &[Event], &str) -> Message,
}

const TWO_CALLS: &str = "(defun main () (+ (GA-Square-Method :n 3) (GB-Square-Method :n 4)))";

/// The fiber that emitted the first event `kind` matches.
fn fiber_of(events: &[Event], kind: fn(&EventKind) -> bool) -> String {
    let e = events.iter().find(|e| kind(&e.kind)).expect("event recorded");
    e.fiber.clone().expect("lifecycle events carry their fiber")
}

const REDELIVERIES: [Redelivery; 5] = [
    Redelivery {
        op: "RunFiber",
        source: TWO_CALLS,
        // main ran and suspended long ago.
        duplicate: |task, _, _| {
            Message::new("wf", "RunFiber", Vec::new()).header("fiber-id", format!("{task}/f0"))
        },
    },
    Redelivery {
        op: "RunFiber of a fiber that never suspended",
        source: "(defun main ()
                   (fork-and-exec (lambda () :done))
                   (+ (GA-Square-Method :n 3) (GB-Square-Method :n 4)))",
        // The forked fiber ran to its end in one go: its result is all
        // that says it must not run again.
        duplicate: |_, events, _| {
            let child = fiber_of(events, |k| matches!(k, EventKind::FiberDone));
            Message::new("wf", "RunFiber", Vec::new()).header("fiber-id", child)
        },
    },
    Redelivery {
        op: "AwakeFiber",
        source: "(defun main ()
                   (apply #'+ (for-each (n in (list 3 4))
                                (if (= n 3) (GA-Square-Method :n n) (GB-Square-Method :n n)))))",
        // The first child finished and woke main, which now waits for
        // the second.
        duplicate: |task, events, _| {
            let child = fiber_of(events, |k| matches!(k, EventKind::AwakeSent { .. }));
            Message::new("wf", "AwakeFiber", Vec::new())
                .header("fiber-id", format!("{task}/f0"))
                .header("from-child", child)
                .with_priority(-1)
        },
    },
    Redelivery {
        op: "JoinProcess",
        source: "(defun main ()
                   (let ((a (fork-and-exec (lambda () (GA-Square-Method :n 3))))
                         (b (fork-and-exec (lambda () (GB-Square-Method :n 4)))))
                     (+ (join-process a) (join-process b))))",
        // `a` finished and main joined it; main now joins `b`.
        duplicate: |task, events, _| {
            let a = fiber_of(events, |k| matches!(k, EventKind::FiberDone));
            Message::new("wf", "JoinProcess", Vec::new())
                .header("fiber-id", format!("{task}/f0"))
                .header("target", a)
        },
    },
    Redelivery {
        op: "ResumeFromCall",
        source: TWO_CALLS,
        // GateA's reply resumed main, which now waits on GateB.
        duplicate: |task, _, correlation| {
            let nine = serialize_value(&Value::Int(9), Codec::Deflate).unwrap();
            Message::new("wf", "ResumeFromCall", nine)
                .header("correlation", correlation)
                .header("task-id", task)
                .header("fiber-id", format!("{task}/f0"))
        },
    },
];

/// Run one row to completion and report what a second entry would
/// change: the task's value, the `resumes` counter, and how many
/// `FiberRun` and `FiberResumed` events the task produced.
fn run_gated(case: &Redelivery, deliver_twice: bool) -> (Value, u64, usize, usize) {
    let cluster = Cluster::new();
    register_square_service(&cluster, "GateA", 0, 0, Duration::ZERO);
    register_square_service(&cluster, "GateB", 0, 0, Duration::ZERO);
    let mut config = VinzConfig::default();
    // The supervisor re-sends wake-ups of its own; these counts are of
    // the messages the engine and this test sent.
    config.supervision.enabled = false;
    let wf = deploy_cfg(&cluster, &format!("{GATES}{}", case.source), config);
    let obs = wf.obs();
    obs.set_tracing(true);
    let task = wf.start("main", vec![], None).unwrap();
    assert!(cluster.drain("wf", TIMEOUT), "{}: parked on the gates", case.op);
    let correlation = wf.store().list("call-req/").unwrap()[0]
        .trim_start_matches("call-req/")
        .to_string();
    cluster.spawn_instances("GateA", 0, 1);
    assert!(
        cluster.drain("GateA", TIMEOUT) && cluster.drain("wf", TIMEOUT),
        "{}: parked on GateB",
        case.op
    );
    if deliver_twice {
        cluster.send((case.duplicate)(&task, &obs.events(), &correlation));
        assert!(cluster.drain("wf", TIMEOUT), "{}: duplicate handled", case.op);
    }
    cluster.spawn_instances("GateB", 0, 1);
    let rec = wf.wait(&task, TIMEOUT).expect("task finishes");
    let TaskStatus::Completed(value) = rec.status else {
        panic!("{}: {:?}", case.op, rec.status);
    };
    let events = obs.events();
    let count = |kind: fn(&EventKind) -> bool| events.iter().filter(|e| kind(&e.kind)).count();
    let seen = (
        value,
        obs.counters().resumes.load(Ordering::Relaxed),
        count(|k| matches!(k, EventKind::FiberRun)),
        count(|k| matches!(k, EventKind::FiberResumed { .. })),
    );
    cluster.shutdown();
    seen
}

#[test]
fn each_fiber_entry_is_idempotent() {
    for case in &REDELIVERIES {
        let once = run_gated(case, false);
        assert_eq!(once.0, Value::Int(25), "{}", case.op);
        assert_eq!(once.1 as usize, once.3, "{}: one event per resume", case.op);
        assert_eq!(run_gated(case, true), once, "{} delivered twice", case.op);
    }
}

#[test]
fn wakeup_that_beats_its_suspension_is_retried_not_lost() {
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.supervision.enabled = false;
    // Nothing ever finishes `task-1/ghost`: the only JoinProcess main
    // will ever get is the one sent below, before main exists.
    let wf = deploy_cfg(
        &cluster,
        "(defun main () (list :joined (join-process \"task-1/ghost\")))",
        config,
    );
    let obs = wf.obs();
    obs.set_tracing(true);
    cluster.send(
        Message::new("wf", "JoinProcess", Vec::new())
            .header("fiber-id", "task-1/f0")
            .header("target", "task-1/ghost"),
    );
    // A fiber with neither result nor meta record reads as "initial":
    // the wake-up goes back on the queue, again and again.
    let sends = || {
        let sent = |k: &EventKind| matches!(k, EventKind::MessageSent { operation, .. } if operation == "JoinProcess");
        obs.events().iter().filter(|e| sent(&e.kind)).count()
    };
    let deadline = Instant::now() + TIMEOUT;
    while sends() < 3 {
        assert!(Instant::now() < deadline, "wake-up was not requeued");
        std::thread::sleep(Duration::from_millis(1));
    }
    let rec = wf.run("main", vec![], TIMEOUT).unwrap();
    assert_eq!(rec.id, "task-1");
    assert_eq!(
        rec.status,
        TaskStatus::Completed(Value::list(vec![Value::keyword("joined"), Value::Nil]))
    );
    assert_eq!(obs.counters().resumes.load(Ordering::Relaxed), 1);
    cluster.shutdown();
}

// ---- Start names its task ---------------------------------------------------

/// `start` returns as soon as the `Start` is sent, so a `Start` that
/// cannot begin its task has nobody to fault to: the task it names ends
/// `Failed` instead — whoever chose the name, the service's own
/// `start` or a caller that went to the broker itself.
#[test]
fn named_start_that_cannot_begin_fails_its_task() {
    let cluster = Cluster::new();
    let wf = deploy(&cluster, "(defun main () :ok)");
    let no_args = serialize_value(&Value::list(vec![]), Codec::Deflate).unwrap();
    cluster.send(
        Message::new("wf", "Start", no_args)
            .header("function", "no-such-function")
            .header("task-id", "task-7"),
    );
    assert!(cluster.drain("wf", TIMEOUT));
    match wf.wait("task-7", TIMEOUT).map(|r| r.status) {
        Some(TaskStatus::Failed(c)) => {
            assert!(c.matches("start-failed"), "{c}");
            assert!(c.to_string().contains("no-such-function"), "{c}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The service checks before it names anything,
    assert!(wf.start("no-such-function", vec![], None).is_err());
    // and its own names come after the one it was handed.
    let rec = wf.run("main", vec![], TIMEOUT).unwrap();
    assert_eq!(rec.id, "task-8");
    assert_eq!(rec.status, TaskStatus::Completed(Value::keyword("ok")));
    cluster.shutdown();
}
