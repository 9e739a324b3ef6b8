//! E1 — Listing 1: the three sum-of-squares variants.
//!
//! The paper's opening example: sequential `loc-sum-squares`,
//! future-based `par-sum-squares` (local parallelism, §2) and
//! `for-each`-based `dist-sum-squares` (distributed fibers, §3.5). The
//! listing's point is identical *code shape*, which is asserted: all
//! three return the same sum. The per-call cost of `dist` is timed here;
//! `loc` and `par` are interpreter workloads and are timed by `gvm`
//! (`loc_sum_squares_256`, `par_sum_squares_256`).

use std::time::Duration;

use gozer::{Cluster, Gvm, Value, WorkflowService};
use gozer_bench::Table;

use super::time_it;

const LOCAL_SRC: &str = "
(defun loc-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (* number number))))
(defun par-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (future (* number number)))))
";

const DIST_SRC: &str = "
(defun dist-sum-squares (numbers)
  (apply #'+
         (for-each (number in numbers)
           (* number number))))
";

pub fn run(smoke: bool) {
    let samples = if smoke { 3 } else { 10 };
    let gvm = Gvm::new();
    gvm.load_str(LOCAL_SRC, "listing1").unwrap();
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(DIST_SRC)
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .unwrap();

    let mut table = Table::new(
        "Listing 1 — dist-sum-squares per call (2 nodes x 2 instances)",
        &["n", "sum", "median"],
    );
    for n in [16i64, 64] {
        let numbers = Value::list((1..=n).map(Value::Int).collect());
        let expected = Value::Int((1..=n).map(|x| x * x).sum());
        for local in ["loc-sum-squares", "par-sum-squares"] {
            let f = gvm.function(local).unwrap();
            assert_eq!(gvm.call_sync(&f, vec![numbers.clone()]).unwrap(), expected, "{local}");
        }
        let median = time_it(samples, || {
            let v = wf
                .call("dist-sum-squares", vec![numbers.clone()], Duration::from_secs(120))
                .unwrap();
            assert_eq!(v, expected);
        });
        table.row(&[n.to_string(), format!("{expected:?}"), format!("{median:.2?}")]);
    }
    table.print();
    println!("shape check: loc, par and dist return the same sum at every n.");
    cluster.shutdown();
}
