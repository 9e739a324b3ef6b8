//! E5 — §4.2 fiber-cache effectiveness (`BENCH_cache.json`).
//!
//! The paper: "a cache of recently seen fibers is maintained in memory on
//! each instance. Because Vinz executes no control over where a fiber
//! will be asked to run ..., the cache is only somewhat effective.
//! Empirical measurements show cache hit rates of about 18% and 66% for
//! mutable and immutable data, respectively."
//!
//! A population of fan-out workflows runs across a cluster and the
//! per-node cache hit rates are reported — mutable = fiber continuations
//! (version-checked), immutable = task definitions and child results —
//! in two broker regimes:
//!
//! * affinity **off** (steal slack 0): the paper's regime, where the
//!   queue freely load-balances and the mutable rate degenerates to
//!   roughly 1/nodes;
//! * affinity **on** (default slack): resumes carry a placement hint for
//!   the node that last persisted the fiber, lifting the mutable rate
//!   well above the paper's 18% without abandoning load balancing.

use std::sync::atomic::Ordering;
use std::time::Duration;

use gozer::{Cluster, GozerSystem, Value, VinzConfig};
use gozer_bench::{Json, Table};

const WORKFLOW: &str = "
(defun main (n)
  ;; Several sequential distribution rounds so the parent fiber is
  ;; reloaded many times on queue-chosen instances.
  (let ((a (for-each (i in (range n)) (* i 2)))
        (b (for-each (i in (range n)) (* i 3))))
    (+ (apply #'+ a) (apply #'+ b))))
";

struct CacheRun {
    mutable: f64,
    immutable: f64,
    affinity_hits: u64,
    affinity_misses: u64,
}

fn cache_run(nodes: u32, affinity: bool, tasks: usize) -> CacheRun {
    let config = VinzConfig {
        spawn_limit: 4,
        // A bounded cache, as in production: eviction matters once many
        // tasks are in flight at once.
        cache_capacity: 64,
        ..VinzConfig::default()
    };
    let cluster = Cluster::new();
    if !affinity {
        // Slack 0 disables the placement preference: every consumer
        // takes the queue head, as in the paper's measurement.
        cluster.set_affinity_slack(0);
    }
    let sys = GozerSystem::builder()
        .cluster(cluster)
        .nodes(nodes)
        .instances_per_node(2)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    // Launch the whole population concurrently so the queue load-balances
    // steps of many fibers across all nodes (the regime the paper
    // measured, where "Vinz executes no control over where a fiber will
    // be asked to run").
    let tasks: Vec<String> = (0..tasks)
        .map(|_| sys.workflow.start("main", vec![Value::Int(6)], None).unwrap())
        .collect();
    for task in &tasks {
        sys.wait(task, Duration::from_secs(300)).expect("completes");
    }
    let (mut mh, mut mm, mut ih, mut im) = (0u64, 0u64, 0u64, 0u64);
    for rt in sys.workflow.node_runtimes() {
        mh += rt.cache.mutable_stats.hits.load(Ordering::Relaxed);
        mm += rt.cache.mutable_stats.misses.load(Ordering::Relaxed);
        ih += rt.cache.immutable_stats.hits.load(Ordering::Relaxed);
        im += rt.cache.immutable_stats.misses.load(Ordering::Relaxed);
    }
    let (affinity_hits, affinity_misses) = sys.cluster.affinity_stats();
    sys.shutdown();
    CacheRun {
        mutable: mh as f64 / (mh + mm).max(1) as f64,
        immutable: ih as f64 / (ih + im).max(1) as f64,
        affinity_hits,
        affinity_misses,
    }
}

pub fn run(smoke: bool) -> Json {
    let node_counts: &[u32] = if smoke { &[2] } else { &[2, 4, 8] };
    let tasks = if smoke { 8 } else { 24 };
    let mut table = Table::new(
        "sec4.2 — fiber cache hit rates (paper: 18% mutable / 66% immutable)",
        &[
            "nodes",
            "mutable (affinity off)",
            "mutable (affinity on)",
            "immutable",
            "affinity hit rate",
        ],
    );
    let mut rows = Vec::new();
    for &nodes in node_counts {
        let off = cache_run(nodes, false, tasks);
        let on = cache_run(nodes, true, tasks);
        let aff_rate =
            on.affinity_hits as f64 / (on.affinity_hits + on.affinity_misses).max(1) as f64;
        table.row(&[
            nodes.to_string(),
            format!("{:.1}%", off.mutable * 100.0),
            format!("{:.1}%", on.mutable * 100.0),
            format!("{:.1}%", off.immutable * 100.0),
            format!("{:.1}%", aff_rate * 100.0),
        ]);
        // With only a handful of tasks the hit rates are too noisy to
        // compare, so the comparative assertions only run at full size.
        if !smoke {
            assert!(
                off.immutable > off.mutable,
                "immutable data should cache better than mutable fiber state"
            );
            assert!(
                on.mutable > off.mutable,
                "affinity routing should lift the mutable hit rate (nodes={nodes}: \
                 {:.3} -> {:.3})",
                off.mutable,
                on.mutable
            );
            assert!(
                on.mutable > 0.18,
                "affinity-on mutable hit rate should beat the paper's 18% \
                 (nodes={nodes}: {:.3})",
                on.mutable
            );
        }
        rows.push(
            Json::obj()
                .field("nodes", nodes)
                .field("mutable_affinity_off", off.mutable)
                .field("mutable_affinity_on", on.mutable)
                .field("immutable_affinity_off", off.immutable)
                .field("immutable_affinity_on", on.immutable)
                .field("affinity_hits", on.affinity_hits)
                .field("affinity_misses", on.affinity_misses)
                .field("affinity_hit_rate", aff_rate),
        );
    }
    table.print();
    if !smoke {
        println!(
            "shape check: immutable beats mutable at every size, and affinity routing lifts \
             the mutable rate above the paper's 18%."
        );
    }

    Json::obj()
        .field("section", "4.2 fiber cache")
        .field("tasks_per_run", tasks)
        .field("paper_mutable_rate", 0.18)
        .field("paper_immutable_rate", 0.66)
        .field("runs", rows)
}
