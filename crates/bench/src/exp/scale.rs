//! Scale (`BENCH_scale.json`): sustain ~1M concurrent suspended fibers
//! and ~100k task starts/min against the in-process cluster.
//!
//! Three phases:
//!   1. **Fill** — fire-and-forget `Start`s of a `hold` workflow until
//!      the target population of fibers is suspended with a persisted
//!      continuation (`gozer_suspended_fibers` is the ground truth).
//!   2. **Churn** — with the full population parked, worker threads run
//!      quick start→complete tasks; throughput comes from wall clock,
//!      p50/p95/p99 start→complete latency from the
//!      `gozer_task_latency_seconds` histogram (snapshot diff over the
//!      churn window only).
//!   3. **Drain sample** — `AwakeFiber` a sample of the parked fibers
//!      and check each resumes to completion: the million suspended
//!      continuations are live state, not dead weight.
//!
//! What no taskbench workload measures is the parked population: the
//! churn is `quick-closed`'s task run beside a million parked fibers.
//! Where the churn latency goes is taskbench's `phase.*_share`; that
//! the phases sum to the latency is `vinz/tests/phases.rs`; admission
//! shedding is `vinz/tests/admission.rs`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, Message};
use gozer_bench::{Json, Table};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::serialize_value;
use vinz::{SupervisorConfig, TaskStatus, VinzConfig, WorkflowService};

const WF: &str = "(defun hold () (yield {:reason :parked}) :released)
(defun quick (n) (* n n))";

const WAIT: Duration = Duration::from_secs(120);

/// Threads running the churn's start→complete loops.
const CHURN_WORKERS: u64 = 4;

struct Params {
    fill: u64,
    churn: u64,
    drain_sample: u64,
}

fn params(smoke: bool) -> Params {
    if smoke {
        Params { fill: 2_000, churn: 400, drain_sample: 200 }
    } else {
        Params { fill: 1_000_000, churn: 20_000, drain_sample: 1_000 }
    }
}

fn scale_config() -> VinzConfig {
    VinzConfig {
        // No compression: the bench measures engine mechanics, not codec
        // throughput, and Codec::None keeps the persist path cheapest.
        codec: Codec::None,
        // A small cache: with a million parked fibers the cache cannot
        // hold the population anyway, so keep its memory bounded and
        // let the store be the system of record (which is the claim
        // under test).
        cache_capacity: 1024,
        // Supervision off: the orphan scan would treat a million
        // deliberately parked fibers as stalled work and resume them.
        supervision: SupervisorConfig { enabled: false },
        ..VinzConfig::default()
    }
}

fn suspended(wf: &WorkflowService) -> u64 {
    wf.obs().counters().suspended_fibers.load(Ordering::Relaxed)
}

/// Fire-and-forget `Start` for `hold`: the same message `start()` sends,
/// minus the reply round-trip, so the fill phase is bounded by engine
/// throughput rather than the client's sync-call latency.
fn send_hold_start(cluster: &Arc<Cluster>) {
    let body = serialize_value(&Value::list(vec![]), Codec::None).expect("serialize args");
    cluster.send(Message::new("scale", "Start", body).header("function", "hold"));
}

/// Phase 1: park `fill` fibers, keeping at most `window` starts in
/// flight so the queue stays bounded. Returns the fill wall time.
fn fill_phase(cluster: &Arc<Cluster>, wf: &WorkflowService, fill: u64) -> Duration {
    let window = 50_000u64;
    let deadline = Instant::now() + Duration::from_secs(3_600);
    let t0 = Instant::now();
    let mut sent = 0u64;
    let mut last_report = Instant::now();
    while suspended(wf) < fill {
        while sent < fill && sent < suspended(wf) + window {
            send_hold_start(cluster);
            sent += 1;
        }
        assert!(Instant::now() < deadline, "fill phase wedged at {} suspended", suspended(wf));
        if last_report.elapsed() > Duration::from_secs(10) {
            println!(
                "  fill: {} / {fill} suspended ({:.0}/s)",
                suspended(wf),
                suspended(wf) as f64 / t0.elapsed().as_secs_f64()
            );
            last_report = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    t0.elapsed()
}

/// Phase 2: start→complete churn on top of the parked population.
/// Worker threads run synchronous `start` + `wait` loops; completion is
/// verified per task (n²), throughput from wall clock.
fn churn_phase(wf: &Arc<WorkflowService>, churn: u64) -> Duration {
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for w in 0..CHURN_WORKERS {
        let wf = wf.clone();
        let per_worker = churn / CHURN_WORKERS;
        handles.push(std::thread::spawn(move || {
            for k in 0..per_worker {
                let n = (w * per_worker + k) as i64 % 1_000 + 2;
                let task = wf.start("quick", vec![Value::Int(n)], None).expect("churn start");
                let rec = wf.wait(&task, WAIT).expect("churn task finished");
                assert_eq!(
                    rec.status,
                    TaskStatus::Completed(Value::Int(n * n)),
                    "churn task computed its result"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("churn worker");
    }
    t0.elapsed()
}

/// Phase 3: awake a sample of the parked fibers and verify each resumes
/// to a final state. Task ids are deterministic (`task-N`, counter from
/// 1) and the fill phase ran first, so ids `1..=sample` are held fibers.
fn drain_phase(cluster: &Arc<Cluster>, wf: &WorkflowService, sample: u64) -> (u64, Duration) {
    let t0 = Instant::now();
    for n in 1..=sample {
        cluster.send(
            Message::new("scale", "AwakeFiber", Vec::new())
                .header("fiber-id", format!("task-{n}/f0")),
        );
    }
    let mut completed = 0u64;
    for n in 1..=sample {
        let rec = wf
            .wait(&format!("task-{n}"), WAIT)
            .unwrap_or_else(|| panic!("drained task task-{n} never finished"));
        if matches!(rec.status, TaskStatus::Completed(_)) {
            completed += 1;
        }
    }
    (completed, t0.elapsed())
}

fn ms(d: Option<Duration>) -> f64 {
    d.map(|d| d.as_secs_f64() * 1e3).unwrap_or(f64::NAN)
}

pub fn run(smoke: bool) -> Json {
    let p = params(smoke);
    println!(
        "scale: fill {} / churn {} / drain sample {}",
        p.fill, p.churn, p.drain_sample
    );

    let cluster = Cluster::new();
    let wf = Arc::new(
        WorkflowService::builder(&cluster, "scale")
            .source(WF)
            .config(scale_config())
            .instances(0, 2)
            .deploy()
            .expect("deploy scale service"),
    );

    // Phase 1: fill.
    let fill_elapsed = fill_phase(&cluster, &wf, p.fill);
    let suspended_peak = suspended(&wf);
    let fill_per_sec = p.fill as f64 / fill_elapsed.as_secs_f64();
    println!(
        "  fill done: {suspended_peak} suspended in {:.1}s ({fill_per_sec:.0}/s)",
        fill_elapsed.as_secs_f64()
    );

    // Phase 2: churn, measured over its own snapshot window so the
    // latency histogram covers exactly the churn tasks (parked fibers
    // only record latency when they finish, which is later).
    let obs = wf.obs();
    let before = obs.snapshot();
    let churn_elapsed = churn_phase(&wf, p.churn);
    let delta = obs.snapshot().diff(&before);
    let hist = delta
        .histogram("gozer_task_latency_seconds{service=\"scale\"}")
        .expect("latency histogram recorded during churn");
    let starts_per_min = p.churn as f64 / churn_elapsed.as_secs_f64() * 60.0;
    let suspended_during_churn = suspended(&wf);
    println!(
        "  churn done: {} tasks in {:.1}s ({starts_per_min:.0} starts/min), {} still parked",
        p.churn,
        churn_elapsed.as_secs_f64(),
        suspended_during_churn
    );

    // Phase 3: drain a sample.
    let (drained, drain_elapsed) = drain_phase(&cluster, &wf, p.drain_sample);
    assert_eq!(drained, p.drain_sample, "every sampled fiber resumed to completion");
    println!(
        "  drain done: {drained}/{} sampled fibers resumed in {:.1}s",
        p.drain_sample,
        drain_elapsed.as_secs_f64()
    );
    cluster.shutdown();

    if !smoke {
        assert!(
            suspended_during_churn >= 1_000_000,
            "full mode must sustain >= 1M suspended fibers through churn, saw {suspended_during_churn}"
        );
    }

    let mut table = Table::new(
        "Scale: 1M parked fibers + start/complete churn",
        &["metric", "value"],
    );
    table.row(&["suspended fibers (peak)".into(), suspended_peak.to_string()]);
    table.row(&["fill rate (fibers/s)".into(), format!("{fill_per_sec:.0}")]);
    table.row(&["churn starts/min".into(), format!("{starts_per_min:.0}")]);
    table.row(&["churn p50 (ms)".into(), format!("{:.3}", ms(hist.p50()))]);
    table.row(&["churn p95 (ms)".into(), format!("{:.3}", ms(hist.p95()))]);
    table.row(&["churn p99 (ms)".into(), format!("{:.3}", ms(hist.p99()))]);
    table.row(&["drained sample".into(), format!("{drained}/{}", p.drain_sample)]);
    table.print();

    Json::obj()
        .field(
            "fill",
            Json::obj()
                .field("tasks", p.fill)
                .field("seconds", fill_elapsed.as_secs_f64())
                .field("fibers_per_sec", fill_per_sec),
        )
        .field("suspended_fibers_peak", suspended_peak)
        .field("suspended_fibers_during_churn", suspended_during_churn)
        .field(
            "churn",
            Json::obj()
                .field("tasks", p.churn)
                .field("seconds", churn_elapsed.as_secs_f64())
                .field("starts_per_min", starts_per_min)
                .field(
                    "latency_ms",
                    Json::obj()
                        .field("p50", ms(hist.p50()))
                        .field("p95", ms(hist.p95()))
                        .field("p99", ms(hist.p99()))
                        .field("mean", ms(hist.mean())),
                ),
        )
        .field(
            "drain",
            Json::obj()
                .field("sampled", p.drain_sample)
                .field("completed", drained)
                .field("seconds", drain_elapsed.as_secs_f64()),
        )
}
