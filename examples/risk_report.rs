//! A realistic scenario from the paper's domain (RiskMetrics processed
//! financial data): a nightly portfolio risk report.
//!
//! The workflow fetches portfolio holdings from a `PortfolioService`
//! through `deflink`-generated non-blocking stubs, fans out valuation of
//! each position across the cluster with a chunked `for-each` (distributed
//! fibers + local futures), aggregates exposures, and uses a task variable
//! as a circuit breaker that aborts pricing when a data problem is
//! discovered mid-run.
//!
//! ```bash
//! cargo run --example risk_report
//! ```

use std::sync::Arc;
use std::time::Duration;

use gozer::testing::register_value_service;
use gozer::{Cluster, Fault, ServiceDescription, Value, WorkflowService};

const WORKFLOW: &str = r#"
(deflink PS :wsdl "urn:portfolio-service" :port "PortfolioService")

(deftaskvar abort-pricing "Set when a data problem makes results unusable.")

(defhandler pricing-retry
  :code ("{urn:portfolio}Transient")
  :action retry
  :count 3)

(defun value-position (position)
  "Value one position unless the task has been aborted."
  (unless ^abort-pricing^
    (let ((qty (get position :quantity))
          (price (get position :price)))
      (if (< price 0)
          ;; Bad market data: flip the breaker so remaining fibers skip
          ;; work, then report nothing for this position.
          (progn (setf ^abort-pricing^ t) nil)
          {:instrument (get position :instrument)
           :exposure (* qty price)}))))

(defun risk-report (portfolio-id)
  "Value every position of PORTFOLIO-ID and produce exposure totals."
  (let ((positions (with-handler pricing-retry
                     (PS-GetPositions-Method :PortfolioId portfolio-id))))
    (let ((valued (for-each (p in positions :chunk-size 4)
                    (value-position p))))
      (if ^abort-pricing^
          {:status :aborted :portfolio portfolio-id}
          {:status :ok
           :portfolio portfolio-id
           :positions (length valued)
           :total-exposure
           (apply #'+ (mapcar (lambda (v) (get v :exposure))
                              (remove nil valued)))}))))
"#;

fn portfolio_service(cluster: &Arc<Cluster>, poison: bool) {
    let desc = ServiceDescription::new("PortfolioService", "urn:portfolio-service").operation(
        "GetPositions",
        "Returns the positions held by a portfolio.",
        &[("PortfolioId", "string")],
    );
    register_value_service(cluster, "PortfolioService", Some(desc), move |_op, req| {
        let id = req
            .as_map()
            .and_then(|m| m.get(&Value::str("PortfolioId")).cloned())
            .and_then(|v| v.as_str().map(str::to_owned))
            .ok_or_else(|| Fault::new("{urn:portfolio}BadRequest", "missing PortfolioId"))?;
        let mut positions = Vec::new();
        for i in 0..12i64 {
            let mut m = gozer_lang::AssocMap::new();
            m.insert(
                Value::keyword("instrument"),
                Value::str(format!("{id}-instr-{i}")),
            );
            m.insert(Value::keyword("quantity"), Value::Int(100 + i * 10));
            // In the poisoned run, one position carries a negative price.
            let price = if poison && i == 7 { -1 } else { 5 + (i % 3) };
            m.insert(Value::keyword("price"), Value::Int(price));
            positions.push(Value::Map(Arc::new(m)));
        }
        Ok(Value::list(positions))
    });
    cluster.spawn_instances("PortfolioService", 0, 2);
}

fn run(portfolio: &str, poison: bool) {
    let cluster = Cluster::new();
    portfolio_service(&cluster, poison);
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(WORKFLOW)
        .instances(0, 2)
        .instances(1, 2)
        .instances(2, 2)
        .deploy()
        .expect("deploy");
    let report = wf
        .call(
            "risk-report",
            vec![Value::str(portfolio)],
            Duration::from_secs(60),
        )
        .expect("risk report");
    println!("report for {portfolio}: {report:?}");
    let status = report
        .as_map()
        .and_then(|m| m.get(&Value::keyword("status")).cloned())
        .unwrap();
    if poison {
        assert_eq!(status, Value::keyword("aborted"));
    } else {
        assert_eq!(status, Value::keyword("ok"));
    }
    cluster.shutdown();
}

fn main() {
    println!("-- clean market data ------------------------------------");
    run("growth-fund", false);
    println!("\n-- poisoned market data (circuit breaker trips) ----------");
    run("legacy-fund", true);
}
