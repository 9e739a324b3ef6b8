//! E6 — §5 production statistics (`BENCH_store.json`).
//!
//! First regenerates the paper's aggregate numbers from the calibrated
//! generator (10,000 tasks, ~45,000 fibers, 20 ms – 12 h range, ~1 min
//! mean, ~190 h serial), then executes a time-scaled subset of the day on
//! the simulated cluster and reports the achieved concurrency, and
//! finally replays the day's persistence traffic against the durable
//! store, LogStore, under two commit policies — a flush after every
//! save vs group commit — to measure the saves/sec headroom group
//! commit buys. Two counts are asserted, the same on any machine: group
//! commit amortizes fsyncs, and a group reaches the kernel as one write.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use gozer::{
    Cluster, LogStats, LogStore, StateStore, TaskStatus, Value, VinzConfig, WorkflowService,
};
use gozer_bench::{production_day, Json, Table};

/// Replay simulated fiber saves into a fresh LogStore under `dir`, each
/// shaped like `save_fiber`'s write: the continuation bytes plus the
/// 24-byte meta record naming them, as one atomic batch. With
/// `flush_each` every save waits until it is durable (writers waiting
/// at the same moment share a commit); otherwise the one flush at the
/// end is the durability point. Returns saves/sec and the store's
/// counts.
fn replay_saves(
    dir: &Path,
    threads: usize,
    saves: usize,
    payload: &[u8],
    flush_each: bool,
) -> (f64, LogStats) {
    let store = LogStore::builder(dir).build().unwrap();
    let store = &store;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let meta = [0u8; 24];
                for i in 0..saves {
                    let data_key = format!("fiber/bench-{t}-{i}");
                    let meta_key = format!("fiber-v/bench-{t}-{i}");
                    store
                        .put_batch(&[(&data_key, payload), (&meta_key, &meta)])
                        .expect("bench save");
                    if flush_each {
                        store.flush().expect("bench flush");
                    }
                }
            });
        }
    });
    // The durability point: nothing counts until it is on disk.
    store.flush().expect("bench flush");
    let wall = t0.elapsed().as_secs_f64();
    ((threads * saves) as f64 / wall, store.stats())
}

const WORKFLOW: &str = "
(defun main (total-ms fibers)
  ;; A task that burns its busy time across its fibers, like a pricing
  ;; batch fanned out over positions.
  (let ((per-fiber (/ total-ms (max 1 fibers))))
    (if (<= fibers 1)
        (progn (sleep-millis per-fiber) :single)
        (for-each (i in (range fibers))
          (progn (sleep-millis per-fiber) i)))))
";

pub fn run(smoke: bool) -> Json {
    // ---- the paper's aggregates, regenerated --------------------------
    let (_, stats) = production_day(10_000, 1.0, false, 2010);
    let mut t = Table::new(
        "sec5 — synthetic production day vs paper",
        &["metric", "paper", "generated"],
    );
    t.row(&[
        "top-level tasks".into(),
        "10,000".into(),
        stats.tasks.to_string(),
    ]);
    t.row(&["fibers".into(), "~45,000".into(), stats.fibers.to_string()]);
    t.row(&[
        "shortest task".into(),
        "20 ms".into(),
        format!("{:.0} ms", stats.min_secs * 1000.0),
    ]);
    t.row(&[
        "longest task".into(),
        "12 h".into(),
        format!("{:.1} h", stats.max_secs / 3600.0),
    ]);
    t.row(&[
        "mean duration".into(),
        "~1 min".into(),
        format!("{:.1} s", stats.mean_secs),
    ]);
    t.row(&[
        "serial total".into(),
        "~190 h".into(),
        format!("{:.0} h", stats.serial_hours),
    ]);
    t.print();

    // ---- execute a scaled slice on the cluster -------------------------
    // 200 tasks at 1/5000 time scale: the 68 s mean becomes ~14 ms.
    let slice_tasks = if smoke { 40 } else { 200 };
    let scale = 1.0 / 5000.0;
    let (specs, slice_stats) = production_day(slice_tasks, scale, false, 7);
    let config = VinzConfig {
        spawn_limit: 8,
        ..VinzConfig::default()
    };
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .config(config)
        .instances(0, 4)
        .instances(1, 4)
        .instances(2, 4)
        .instances(3, 4)
        .deploy()
        .unwrap();

    // Baseline metrics snapshot: the slice's latency report below comes
    // from diffing against this, so it covers exactly the scaled run.
    let obs = wf.obs();
    let before = obs.snapshot();

    let t0 = Instant::now();
    let tasks: Vec<String> = specs
        .iter()
        .map(|spec| {
            wf.start(
                "main",
                vec![
                    Value::Float(spec.duration.as_secs_f64() * 1000.0),
                    Value::Int(spec.fibers as i64),
                ],
                None,
            )
            .unwrap()
        })
        .collect();
    let mut completed = 0;
    for task in &tasks {
        let rec = wf
            .wait(task, Duration::from_secs(600))
            .expect("task finishes");
        if matches!(rec.status, TaskStatus::Completed(_)) {
            completed += 1;
        }
    }
    let wall = t0.elapsed();
    let serial: Duration = specs.iter().map(|s| s.duration).sum();

    let delta = obs.snapshot().diff(&before);
    let mean_of = |key: &str| {
        delta
            .histogram(key)
            .and_then(|h| h.mean())
            .map(|d| format!("{d:.2?}"))
            .unwrap_or_else(|| "n/a".into())
    };

    let fibers_created: u64 = obs.tracker().all().iter().map(|r| r.fibers_created).sum();
    let m = obs.counters();
    let persists = m.persist_count.load(Ordering::Relaxed);
    let mut t = Table::new(
        "sec5 — scaled slice executed on the cluster",
        &["metric", "value"],
    );
    t.row(&["tasks run".into(), format!("{completed}/{}", specs.len())]);
    t.row(&["fibers (spec)".into(), slice_stats.fibers.to_string()]);
    t.row(&["fibers (created)".into(), fibers_created.to_string()]);
    t.row(&["serial busy time".into(), format!("{serial:.2?}")]);
    t.row(&["cluster wall time".into(), format!("{wall:.2?}")]);
    t.row(&[
        "effective concurrency".into(),
        format!("{:.1}x", serial.as_secs_f64() / wall.as_secs_f64()),
    ]);
    t.row(&["continuations persisted".into(), persists.to_string()]);
    t.row(&[
        "persisted bytes".into(),
        m.persist_bytes.load(Ordering::Relaxed).to_string(),
    ]);
    t.row(&[
        "mean queue wait".into(),
        mean_of("bluebox_queue_wait_seconds"),
    ]);
    t.row(&[
        "mean handler busy".into(),
        mean_of("bluebox_handler_busy_seconds"),
    ]);
    t.print();
    let s = obs.profile().serial;
    println!(
        "continuation costs: {} serialized ({} bytes, {:.2} ms), {} deserialized ({:.2} ms)",
        s.serialize_count,
        s.serialize_bytes,
        s.serialize_nanos as f64 / 1e6,
        s.deserialize_count,
        s.deserialize_nanos as f64 / 1e6,
    );
    assert_eq!(completed, specs.len(), "every task must complete");
    cluster.shutdown();

    // ---- durable-store replay: flush per save vs group commit -----------
    // The §5 day persists ~45k continuations; replay that traffic shape
    // (concurrent instances, ~1 KiB compressed continuation + meta per
    // save) under both commit policies and measure saves/sec at the
    // durability point.
    let threads = 4;
    let saves = if smoke { 50 } else { 250 };
    let payload = vec![0xA5u8; 1024];
    let base = std::env::temp_dir().join(format!(
        "gozer-sec5-store-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));

    let (flushed_rate, flushed_stats) =
        replay_saves(&base.join("flushed"), threads, saves, &payload, true);
    let (log_rate, log_stats) = replay_saves(&base.join("log"), threads, saves, &payload, false);
    let speedup = log_rate / flushed_rate;

    let mut t = Table::new(
        "sec5 — durable saves/sec: flush per save vs group commit",
        &["backend", "saves/sec", "fsyncs", "notes"],
    );
    t.row(&[
        "LogStore (flush per save)".into(),
        format!("{flushed_rate:.0}"),
        flushed_stats.fsyncs.to_string(),
        format!("{} writes", flushed_stats.writes),
    ]);
    t.row(&[
        "LogStore (group commit)".into(),
        format!("{log_rate:.0}"),
        log_stats.fsyncs.to_string(),
        format!(
            "{} commits batched {} saves in {} writes",
            log_stats.group_commits, log_stats.committed_entries, log_stats.writes
        ),
    ]);
    t.row(&[
        "speedup".into(),
        format!("{speedup:.1}x"),
        String::new(),
        String::new(),
    ]);
    t.print();
    let _ = std::fs::remove_dir_all(&base);

    assert!(
        log_stats.fsyncs < flushed_stats.fsyncs,
        "group commit did not amortize fsyncs ({} vs {})",
        log_stats.fsyncs,
        flushed_stats.fsyncs
    );
    // Each write is followed by the fsync of its group or of the segment
    // a rotation closed (this replay never compacts), so writes never
    // outnumber fsyncs.
    assert!(
        log_stats.writes <= log_stats.fsyncs,
        "a group commit is not one write ({} writes, {} fsyncs)",
        log_stats.writes,
        log_stats.fsyncs
    );
    println!("shape check: group commit amortizes fsyncs and a group is one write.");

    Json::obj()
        .field(
            "slice",
            Json::obj()
                .field("tasks", specs.len())
                .field("completed", completed as u64)
                .field("fibers_spec", slice_stats.fibers)
                .field("fibers_created", fibers_created)
                .field("serial_ms", serial.as_secs_f64() * 1000.0)
                .field("wall_ms", wall.as_secs_f64() * 1000.0)
                .field("concurrency", serial.as_secs_f64() / wall.as_secs_f64())
                .field("persists", persists),
        )
        .field(
            "store",
            Json::obj()
                .field("threads", threads)
                .field("saves_per_thread", saves)
                .field("payload_bytes", payload.len())
                .field("flushed_saves_per_sec", flushed_rate)
                .field("log_saves_per_sec", log_rate)
                .field("speedup", speedup)
                .field("flushed_fsyncs", flushed_stats.fsyncs)
                .field("log_fsyncs", log_stats.fsyncs)
                .field("log_writes", log_stats.writes)
                .field("log_group_commits", log_stats.group_commits)
                .field("log_committed_entries", log_stats.committed_entries)
                .field("log_bytes", log_stats.log_bytes),
        )
}
