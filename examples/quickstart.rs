//! Quickstart: the three sum-of-squares variants of the paper's
//! Listing 1 — sequential, locally parallel (futures), and distributed
//! (`for-each` over cluster fibers) — all computing the same answer.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use std::time::{Duration, Instant};

use gozer::{Cluster, Gvm, Value, WorkflowService};

const LISTING_1: &str = r#"
(defun loc-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (* number number))))

(defun par-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (future (* number number)))))

(defun dist-sum-squares (numbers)
  (apply #'+
         (for-each (number in numbers)
           (* number number))))
"#;

fn main() {
    let numbers: Vec<Value> = (1..=20).map(Value::Int).collect();
    let expected: i64 = (1..=20).map(|n| n * n).sum();

    // -- local & future variants run on a plain GVM ----------------------
    let gvm = Gvm::new();
    // dist-sum-squares needs the Vinz prelude, so load only the local two
    // here; the full listing goes to the cluster below.
    let local_src: String = LISTING_1
        .split("(defun dist-sum-squares")
        .next()
        .unwrap()
        .to_string();
    gvm.load_str(&local_src, "listing1-local").unwrap();

    for f in ["loc-sum-squares", "par-sum-squares"] {
        let func = gvm.function(f).unwrap();
        let t0 = Instant::now();
        let v = gvm
            .call_sync(&func, vec![Value::list(numbers.clone())])
            .unwrap();
        println!("{f:>18}: {v:?}  ({:?})", t0.elapsed());
        assert_eq!(v, Value::Int(expected));
    }

    // -- the distributed variant runs on a simulated cluster -------------
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(LISTING_1)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .deploy()
        .expect("deploy");
    let t0 = Instant::now();
    let v = wf
        .call(
            "dist-sum-squares",
            vec![Value::list(numbers)],
            Duration::from_secs(60),
        )
        .expect("distributed run");
    println!("{:>18}: {v:?}  ({:?})", "dist-sum-squares", t0.elapsed());
    assert_eq!(v, Value::Int(expected));

    let rec = wf.obs().tracker().all().pop().unwrap();
    println!(
        "\ntask {} used {} fibers across the cluster; every square ran in its own fiber.",
        rec.id, rec.fibers_created
    );
    cluster.shutdown();
}
