//! E6 — §5 production statistics (`BENCH_store.json`).
//!
//! First regenerates the paper's aggregate numbers from the calibrated
//! generator (10,000 tasks, ~45,000 fibers, 20 ms – 12 h range, ~1 min
//! mean, ~190 h serial), then executes a time-scaled subset of the day on
//! the simulated cluster and reports the achieved concurrency, and
//! finally replays the day's persistence traffic against the durable
//! store backends — FileStore (one fsync'd rename per save) vs LogStore
//! (group-commit log) — to measure the saves/sec headroom group commit
//! buys. Two counts are asserted, the same on any machine: group commit
//! amortizes fsyncs, and a group reaches the kernel as one write.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gozer::{
    FileStore, FsyncPolicy, GozerSystem, LogStore, StateStore, TaskStatus, Value, VinzConfig,
};
use gozer_bench::{production_day, Json, Table};

/// One simulated fiber save, shaped like `save_fiber`'s write: the
/// continuation bytes plus the 24-byte meta record naming them, as one
/// atomic batch.
fn replay_saves(store: &dyn StateStore, threads: usize, saves: usize, payload: &[u8]) -> f64 {
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
                }
            });
        }
    });
    // The durability point: nothing counts until it is on disk.
    store.flush().expect("bench flush");
    let wall = t0.elapsed().as_secs_f64();
    (threads * saves) as f64 / wall
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
    t.row(&["top-level tasks".into(), "10,000".into(), stats.tasks.to_string()]);
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
    let sys = GozerSystem::builder()
        .nodes(4)
        .instances_per_node(4)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();

    // Baseline metrics snapshot: the slice's latency report below comes
    // from diffing against this, so it covers exactly the scaled run.
    let obs = sys.workflow.obs();
    let before = obs.snapshot();

    let t0 = Instant::now();
    let tasks: Vec<String> = specs
        .iter()
        .map(|spec| {
            sys.workflow
                .start(
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
        let rec = sys
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

    let fibers_created: u64 = obs
        .tracker()
        .all()
        .iter()
        .map(|r| r.fibers_created)
        .sum();
    let m = obs.counters();
    let persists = m.persist_count.load(Ordering::Relaxed);
    let mut t = Table::new("sec5 — scaled slice executed on the cluster", &["metric", "value"]);
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
    sys.shutdown();

    // ---- durable-store replay: FileStore vs LogStore -------------------
    // The §5 day persists ~45k continuations; replay that traffic shape
    // (concurrent instances, ~1 KiB compressed continuation + meta per
    // save) against both durable backends and measure saves/sec at the
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

    let file_dir = base.join("file");
    let file_store = FileStore::builder(&file_dir)
        .fsync(FsyncPolicy::Always)
        .build()
        .unwrap();
    let file_rate = replay_saves(&file_store, threads, saves, &payload);
    let file_fsyncs = (threads * saves) as u64;

    let log_dir = base.join("log");
    let log_store = Arc::new(LogStore::builder(&log_dir).build().unwrap());
    let log_rate = replay_saves(log_store.as_ref(), threads, saves, &payload);
    let log_stats = log_store.stats();
    drop(log_store);
    let speedup = log_rate / file_rate;

    let mut t = Table::new(
        "sec5 — durable saves/sec: fsync-per-save vs group commit",
        &["backend", "saves/sec", "fsyncs", "notes"],
    );
    t.row(&[
        "FileStore (fsync always)".into(),
        format!("{file_rate:.0}"),
        file_fsyncs.to_string(),
        "one fsync'd rename per save".into(),
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
        log_stats.fsyncs < file_fsyncs,
        "group commit did not amortize fsyncs ({} vs {file_fsyncs})",
        log_stats.fsyncs
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
                .field("file_saves_per_sec", file_rate)
                .field("log_saves_per_sec", log_rate)
                .field("speedup", speedup)
                .field("file_fsyncs", file_fsyncs)
                .field("log_fsyncs", log_stats.fsyncs)
                .field("log_writes", log_stats.writes)
                .field("log_group_commits", log_stats.group_commits)
                .field("log_committed_entries", log_stats.committed_entries)
                .field("log_bytes", log_stats.log_bytes),
        )
}
