//! A long-running ETL scenario: extract batches from a flaky upstream
//! feed (with `defhandler`-driven retries), transform them in `parallel`
//! stages, and survive the crash of an entire node mid-run — the
//! checkpoint/redeliver machinery of §3.1–3.2 keeps the task alive.
//!
//! ```bash
//! cargo run --example etl_pipeline
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gozer::testing::register_value_service;
use gozer::{Cluster, Fault, FaultPoint, ServiceDescription, Value, WorkflowService};

const WORKFLOW: &str = r#"
(deflink FEED :wsdl "urn:feed" :port "FeedService")

(defhandler feed-retry
  :code ("{urn:feed}Transient")
  :action retry
  :count 10)

(defun extract (batch-id)
  "Pull one batch from the upstream feed, retrying transient faults."
  (with-handler feed-retry
    (FEED-GetBatch-Method :BatchId batch-id)))

(defun transform (records)
  "Normalize a batch: uppercase symbols, apply FX, drop invalid rows."
  (remove nil
          (mapcar (lambda (r)
                    (let ((sym (get r :symbol))
                          (amount (get r :amount)))
                      (when (and sym (numberp amount) (> amount 0))
                        {:symbol (string-upcase sym)
                         :amount-usd (* amount 100)})))
                  records)))

(defun load-summary (batches)
  "Reduce transformed batches into a summary map."
  (let ((rows (apply #'append batches)))
    {:rows (length rows)
     :total (apply #'+ (mapcar (lambda (r) (get r :amount-usd)) rows))}))

(defun etl (n-batches)
  (let ((transformed
          (for-each (b in (range n-batches))
            (transform (extract b)))))
    ;; The three summary statistics are independent: compute in parallel
    ;; fibers (§3.5's parallel macro).
    (let ((results (parallel (load-summary transformed)
                             (length transformed)
                             :etl-complete)))
      {:summary (first results)
       :batches (second results)
       :tag (third results)})))
"#;

fn feed_service(cluster: &Arc<Cluster>) {
    let calls = Arc::new(AtomicU64::new(0));
    let desc = ServiceDescription::new("FeedService", "urn:feed").operation(
        "GetBatch",
        "Fetch one batch of raw records.",
        &[("BatchId", "int")],
    );
    register_value_service(cluster, "FeedService", Some(desc), move |_op, req| {
        // Every 5th call fails transiently, exercising the retry handler.
        let n = calls.fetch_add(1, Ordering::SeqCst);
        if n % 5 == 4 {
            return Err(Fault::new("{urn:feed}Transient", "upstream hiccup"));
        }
        let batch = req
            .as_map()
            .and_then(|m| m.get(&Value::str("BatchId")).cloned())
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        let mut records = Vec::new();
        for i in 0..6i64 {
            let mut m = gozer_lang::AssocMap::new();
            m.insert(Value::keyword("symbol"), Value::str(format!("sym{batch}-{i}")));
            // One invalid row per batch (negative amount) to be dropped.
            let amount = if i == 3 { -1 } else { batch * 10 + i };
            m.insert(Value::keyword("amount"), Value::Int(amount));
            records.push(Value::Map(Arc::new(m)));
        }
        Ok(Value::list(records))
    });
    cluster.spawn_instances("FeedService", 1, 2);
}

fn main() {
    let cluster = Cluster::new();
    feed_service(&cluster);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .deploy()
        .expect("deploy");

    let task = wf.start("etl", vec![Value::Int(8)], None).expect("start");
    println!("started {task}; crashing node 0 while it runs...");
    std::thread::sleep(Duration::from_millis(30));
    // Take out a whole node mid-run: persisted checkpoints + message
    // redelivery let the survivors finish the task.
    cluster.kill_node(0, FaultPoint::BeforeProcess);

    let rec = wf.wait(&task, Duration::from_secs(120)).expect("task finishes despite the crash");
    println!("status: {:?}", rec.status);
    println!(
        "fibers created: {}, duration: {:?}",
        rec.fibers_created,
        rec.duration()
    );
    let snap = cluster.metrics.snapshot();
    println!(
        "cluster: {} messages sent, {} redelivered after the crash",
        snap.sent, snap.redelivered
    );
    match rec.status {
        gozer::TaskStatus::Completed(v) => {
            println!("result: {v:?}");
            // 8 batches x 6 rows, minus one negative row per batch and
            // the zero-amount row in batch 0: 48 - 8 - 1 = 39.
            let summary = v
                .as_map()
                .and_then(|m| m.get(&gozer::Value::keyword("summary")).cloned())
                .unwrap();
            let rows = summary
                .as_map()
                .and_then(|m| m.get(&gozer::Value::keyword("rows")).cloned())
                .unwrap();
            assert_eq!(rows, Value::Int(39));
        }
        other => panic!("unexpected status {other:?}"),
    }
    cluster.shutdown();
}
