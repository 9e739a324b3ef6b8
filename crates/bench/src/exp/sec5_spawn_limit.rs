//! E7 — §5 spawn-limit behaviour.
//!
//! Two pathologies the paper analyzes:
//!
//! * **High limit** (or none): all children finish around the same time
//!   and their AwakeFiber messages convoy on the parent's fiber lock —
//!   "for some period of time all n instances will be unavailable to
//!   process other activity". Symptom: AwakeFiber lock-wait give-ups
//!   (`awake_retries`).
//! * **Low limit**: "the overhead of sending an AwakeFiber message for
//!   permission to spawn the next child seems high" — the run serializes
//!   and wall-clock stretches.
//!
//! The sweep times the same fan-out at each limit and reports, per
//! call, the awake retries and continuations persisted alongside.

use std::sync::atomic::Ordering;
use std::time::Duration;

use gozer::{Cluster, Value, VinzConfig, WorkflowService};
use gozer_bench::Series;

use super::time_it;

const WORKFLOW: &str = "
(defun main (n)
  (for-each (i in (range n))
    (progn (sleep-millis 2) (* i i))))
";

const CHILDREN: i64 = 24;

pub fn run(smoke: bool) {
    let samples = if smoke { 3 } else { 10 };
    let mut series = Series::new(
        &format!("sec5 — spawn-limit sweep ({CHILDREN} children, 4 instances)"),
        "limit",
        &["median ms", "awake retries/call", "persists/call"],
    );
    for limit in [1usize, 2, 4, 8, 64] {
        let config = VinzConfig {
            spawn_limit: limit,
            awake_wait_limit: Duration::from_millis(2),
            ..VinzConfig::default()
        };
        let cluster = Cluster::new();
        let wf = WorkflowService::builder(&cluster, "workflow")
            .source(WORKFLOW)
            .config(config)
            .instances(0, 2)
            .instances(1, 2)
            .deploy()
            .unwrap();
        let median = time_it(samples, || {
            let v = wf
                .call("main", vec![Value::Int(CHILDREN)], Duration::from_secs(300))
                .unwrap();
            assert_eq!(v.as_list().unwrap().len(), CHILDREN as usize);
        });
        let obs = wf.obs();
        let m = obs.counters();
        // time_it's warm-up call counts too.
        let calls = (samples + 1) as f64;
        series.point(
            limit,
            &[
                median.as_secs_f64() * 1000.0,
                m.awake_retries.load(Ordering::Relaxed) as f64 / calls,
                m.persist_count.load(Ordering::Relaxed) as f64 / calls,
            ],
        );
        cluster.shutdown();
    }
    series.print();
}
