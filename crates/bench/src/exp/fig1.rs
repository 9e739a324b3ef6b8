//! Figure 1 — "Sample Workflow Lifetime": run a workflow that makes one
//! non-blocking service call and forks two children, then print the
//! full recorded lifetime and its hot functions — followed by the §4.1
//! serialization-cost experiment (`BENCH_serialization.json`): the same
//! deep continuation persisted with full snapshots vs. base+delta
//! chains, which must cut steady-state bytes per save at least 2x.

use std::sync::atomic::Ordering;
use std::time::Duration;

use gozer::testing::register_square_service;
use gozer::{Cluster, EventKind, GozerSystem, Value, VinzConfig};
use gozer_bench::{Json, Table};

const WORKFLOW: &str = "
(deflink SQ :wsdl \"urn:sq\" :port \"Sq\")

(defun main (n)
  (let ((base (SQ-Square-Method :n n)))
    (apply #'+ (for-each (i in (list 1 2))
                 (* base i)))))
";

/// The serialization workload: a fiber three frames deep at every
/// suspension, whose outer frames pin a sizeable payload. Each of the
/// six sequential fork+joins suspends the parent with only the leaf
/// frame changed — full snapshots re-serialize the payload every time,
/// delta snapshots skip it.
const DEEP_WORKFLOW: &str = "
(defun child (n) (* n 7))
(defun step (n)
  (join-process (fork-and-exec #'child :argument n)))
(defun leaf (n)
  (+ (step n) (step n) (step n) (step n) (step n) (step n)))
(defun mid (n) (+ 1 (leaf n)))
(defun main (n)
  (let ((payload (range 2000)))
    (+ (mid n) (apply #'+ payload))))
";

/// `main(3)`: six children of 21 each, +1, + sum(0..2000).
const DEEP_EXPECTED: i64 = 6 * 21 + 1 + 1999 * 2000 / 2;

struct SerRun {
    persists: u64,
    persist_bytes: u64,
    delta_saves: u64,
    delta_bytes: u64,
    full_bytes: u64,
    serialize_nanos: u64,
    serialize_count: u64,
    seed_frames_reused: u64,
    seed_frames_walked: u64,
    affinity_hits: u64,
    affinity_misses: u64,
}

fn serialization_run(delta_snapshots: bool, tasks: usize) -> SerRun {
    let config = VinzConfig {
        delta_snapshots,
        ..VinzConfig::default()
    };
    let sys = GozerSystem::builder()
        .cluster(Cluster::new())
        .nodes(2)
        .instances_per_node(2)
        .config(config)
        .workflow(DEEP_WORKFLOW)
        .profiling(true)
        .build()
        .expect("deploy");
    for _ in 0..tasks {
        let v = sys
            .call("main", vec![Value::Int(3)], Duration::from_secs(60))
            .expect("workflow");
        assert_eq!(v, Value::Int(DEEP_EXPECTED));
    }
    let obs = sys.workflow.obs();
    let counters = obs.counters();
    let serial = obs.profile().serial;
    let (affinity_hits, affinity_misses) = sys.cluster.affinity_stats();
    let run = SerRun {
        persists: counters.persist_count.load(Ordering::Relaxed),
        persist_bytes: counters.persist_bytes.load(Ordering::Relaxed),
        delta_saves: counters.delta_saves.load(Ordering::Relaxed),
        delta_bytes: counters.delta_bytes.load(Ordering::Relaxed),
        full_bytes: counters.full_bytes.load(Ordering::Relaxed),
        serialize_nanos: serial.serialize_nanos,
        serialize_count: serial.serialize_count,
        seed_frames_reused: serial.seed_frames_reused,
        seed_frames_walked: serial.seed_frames_walked,
        affinity_hits,
        affinity_misses,
    };
    sys.shutdown();
    run
}

fn per(n: u64, d: u64) -> f64 {
    n as f64 / d.max(1) as f64
}

fn run_json(r: &SerRun) -> Json {
    Json::obj()
        .field("saves", r.persists)
        .field("persist_bytes", r.persist_bytes)
        .field("delta_saves", r.delta_saves)
        .field("delta_bytes", r.delta_bytes)
        .field("full_bytes", r.full_bytes)
        .field("bytes_per_save", per(r.delta_bytes + r.full_bytes, r.persists))
        .field("serialize_ns_per_save", per(r.serialize_nanos, r.serialize_count))
        .field("seed_frames_reused", r.seed_frames_reused)
        .field("seed_frames_walked", r.seed_frames_walked)
        .field("affinity_hits", r.affinity_hits)
        .field("affinity_misses", r.affinity_misses)
}

pub fn run(smoke: bool) -> Json {
    let cluster = Cluster::new();
    register_square_service(&cluster, "Sq", 1, 1, Duration::from_millis(2));
    let sys = GozerSystem::builder()
        .cluster(cluster)
        .nodes(2)
        .instances_per_node(2)
        .workflow(WORKFLOW)
        .profiling(true)
        .build()
        .expect("deploy");
    let obs = sys.workflow.obs();
    obs.set_tracing(true);

    let v = sys
        .call("main", vec![Value::Int(3)], Duration::from_secs(60))
        .expect("workflow");
    assert_eq!(v, Value::Int(27)); // 9*1 + 9*2

    println!("Figure 1 — sample workflow lifetime (result {v:?}):\n");
    print!("{}", obs.render());

    let events = obs.events();
    let count = |f: &dyn Fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    println!("\nsummary:");
    println!("  RunFiber deliveries : {}", count(&|k| matches!(k, EventKind::FiberRun)));
    println!("  suspensions         : {}", count(&|k| matches!(k, EventKind::FiberYield { .. })));
    println!("  persists            : {}", count(&|k| matches!(k, EventKind::FiberPersisted { .. })));
    println!("  forks               : {}", count(&|k| matches!(k, EventKind::FiberForked { .. })));
    println!(
        "  resumes             : {}",
        count(&|k| matches!(k, EventKind::FiberResumed { .. }))
    );
    println!("\nhot functions:");
    print!("{}", obs.profile().top_functions(10));
    sys.shutdown();

    // ---- §4.1 serialization cost: full vs. delta snapshots ---------------
    let tasks = if smoke { 2 } else { 8 };
    let full = serialization_run(false, tasks);
    let delta = serialization_run(true, tasks);
    assert_eq!(full.delta_saves, 0, "delta_snapshots=false must never write deltas");

    // Steady state: the cost of the saves that *can* be deltas. The full
    // deployment pays full price on every save; the delta deployment
    // pays it only on the first save and at compaction points.
    let full_per_save = per(full.full_bytes, full.persists);
    let delta_per_delta_save = per(delta.delta_bytes, delta.delta_saves);
    let reduction_steady = full_per_save / delta_per_delta_save.max(1e-9);
    let reduction_overall =
        full_per_save / per(delta.delta_bytes + delta.full_bytes, delta.persists).max(1e-9);

    let mut table = Table::new(
        "§4.1 — continuation persistence, full vs. delta snapshots",
        &["mode", "saves", "deltas", "bytes/save", "serialize ns/save"],
    );
    for (mode, r) in [("full", &full), ("delta", &delta)] {
        table.row(&[
            mode.into(),
            r.persists.to_string(),
            r.delta_saves.to_string(),
            format!("{:.0}", per(r.delta_bytes + r.full_bytes, r.persists)),
            format!("{:.0}", per(r.serialize_nanos, r.serialize_count)),
        ]);
    }
    table.print();
    println!(
        "steady-state bytes/save: full {full_per_save:.0} vs delta {delta_per_delta_save:.0} \
         ({reduction_steady:.1}x reduction; {reduction_overall:.1}x including compactions)"
    );
    // A ratio of byte counts, not a timing: it holds at smoke size too.
    assert!(
        reduction_steady >= 2.0,
        "delta snapshots must cut steady-state serialized bytes per save at least 2x \
         (got {reduction_steady:.2}x)"
    );

    Json::obj()
        .field("section", "4.1 serialization")
        .field("tasks", tasks)
        .field("full", run_json(&full))
        .field("delta", run_json(&delta))
        .field(
            "steady_state",
            Json::obj()
                .field("full_bytes_per_save", full_per_save)
                .field("delta_bytes_per_save", delta_per_delta_save)
                .field("reduction", reduction_steady)
                .field("reduction_overall", reduction_overall)
                .field("delta_ratio", per(delta.delta_saves, delta.persists)),
        )
}
