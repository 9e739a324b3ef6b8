//! Ablation — `for-each` chunk size (§3.5 / §5 future work).
//!
//! "Optionally, for-each may group the values into 'chunks' which may
//! then be handled in a locally-parallel fashion, for a combination of
//! distributed and local concurrency." §5 lists dynamic chunk-size
//! optimization as future work; this ablation shows why: tiny chunks pay
//! per-fiber persistence/messaging overhead, huge chunks forfeit
//! distribution. The sweet spot sits in between.

use std::time::Duration;

use gozer::{GozerSystem, TaskStatus, Value, VinzConfig};
use gozer_bench::Series;

use super::time_it;

const WORKFLOW: &str = "
(defun unchunked (items)
  (for-each (x in items) (progn (sleep-millis 1) (* x x))))

(defun chunked-2 (items)
  (for-each (x in items :chunk-size 2) (progn (sleep-millis 1) (* x x))))

(defun chunked-8 (items)
  (for-each (x in items :chunk-size 8) (progn (sleep-millis 1) (* x x))))

(defun chunked-32 (items)
  (for-each (x in items :chunk-size 32) (progn (sleep-millis 1) (* x x))))
";

pub fn run(smoke: bool) {
    let samples = if smoke { 3 } else { 10 };
    let config = VinzConfig {
        spawn_limit: 8,
        future_pool_size: 4,
        ..VinzConfig::default()
    };
    let sys = GozerSystem::builder()
        .nodes(2)
        .instances_per_node(2)
        .config(config)
        .workflow(WORKFLOW)
        .build()
        .unwrap();
    let items = Value::list((0..32).map(Value::Int).collect());
    let expected = Value::list((0..32).map(|i| Value::Int(i * i)).collect());

    let mut series = Series::new(
        "ablation — for-each chunk size (32 items, 1 ms body)",
        "variant",
        &["median ms", "fibers"],
    );
    for f in ["unchunked", "chunked-2", "chunked-8", "chunked-32"] {
        let mut fibers = 0;
        let median = time_it(samples, || {
            let task = sys.workflow.start(f, vec![items.clone()], None).unwrap();
            let rec = sys.wait(&task, Duration::from_secs(300)).unwrap();
            assert_eq!(rec.status, TaskStatus::Completed(expected.clone()));
            fibers = rec.fibers_created;
        });
        series.point(f, &[median.as_secs_f64() * 1000.0, fibers as f64]);
    }
    series.print();
    sys.shutdown();
}
