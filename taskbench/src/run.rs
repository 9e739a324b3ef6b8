//! Running workloads: set-up (timed, repeated), the measured window,
//! the traced pass with its counters and ladder, the watchdog around
//! all of it, and the three front ends (`--workload`, `--all`,
//! `--smoke`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bluebox::Cluster;
use gozer_obs::Phase;
use vinz::WorkflowObs;

use crate::json::Json;
use crate::ladder::{Rig, LAYERS};
use crate::load::{closed_loop, max_rate_ok, open_step, Step};
use crate::report::{
    manifest_check, shape_check, workload_json, Measured, WorkloadReport, END_TO_END, PER_LAYER,
};
use crate::stats::{
    highest_supported, percentile, sorted, windowed_percentiles, windowed_rates, Sample,
};
use crate::trace::{self_time_by_name, write_trace_file, StoreCounts, StoreOp, Tracer};
use crate::workloads::{Deployment, Inputs, Kind, SERVICE};

/// `quick-open`'s offered rates, tasks per second: 25, 50, 75, 90, 100
/// and 110 % of 32 000/s, the open-loop capacity found once by a sweep
/// (see README.md, "Frozen rates") and frozen as absolute numbers so
/// that a later change is measured against the same offered load.
pub const QUICK_OPEN_RATES: [f64; 6] = [8_000.0, 16_000.0, 24_000.0, 28_800.0, 32_000.0, 35_200.0];
/// The steps whose latency `quick-open` reports end to end.
const P50_STEP: usize = 1;
const P95_STEP: usize = 2;

/// `awake-cold` parks this many fibers per second of window. Parking
/// is slower than awaking, so a full second's worth would spend the
/// run's time budget on set-up: the system awakes these faster than
/// they last, and a segment's window ends when they run out.
const PARK_PER_SECOND: f64 = 12_000.0;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measured window, seconds.
    pub seconds: f64,
    /// Warm-up on each fresh deployment, seconds.
    pub warmup_s: f64,
    /// Parts the closed-loop window is cut into, each on a fresh
    /// deployment.
    pub closed_segments: usize,
    /// Times `quick-open` climbs its ladder within the window, each
    /// step on a fresh deployment.
    pub open_passes: usize,
    /// Cold set-ups per run at least; `setup_s` is their good quartile.
    pub setups: usize,
    pub ladder_calls: usize,
    pub replays: usize,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

impl Opts {
    /// The driver's run: everything shortened equally to fit its cap.
    pub fn driver(seed: u64, seconds: f64) -> Opts {
        Opts {
            seed,
            seconds,
            warmup_s: (seconds * 0.01).clamp(0.05, 0.3),
            closed_segments: 20,
            open_passes: 2,
            setups: 30,
            ladder_calls: 200,
            replays: 20,
            out_dir: PathBuf::from(".bench_out"),
        }
    }

    /// The report run of `--all`.
    pub fn full(seed: u64, seconds: f64) -> Opts {
        Opts {
            ladder_calls: 1000,
            replays: 100,
            ..Opts::driver(seed, seconds)
        }
    }

    fn segments(&self, kind: Kind) -> usize {
        if kind == Kind::QuickOpen {
            self.open_passes * QUICK_OPEN_RATES.len()
        } else {
            self.closed_segments
        }
    }

    /// Fibers `awake-cold` parks per deployment.
    fn park(&self) -> usize {
        (self.seconds / self.closed_segments as f64 * PARK_PER_SECOND) as usize + 64
    }

    /// `awake-cold`'s set-up parks the fibers, which takes most of a
    /// second: its segments' own set-ups are the sample.
    fn min_setups(&self, kind: Kind) -> usize {
        if kind == Kind::AwakeCold {
            0
        } else {
            self.setups
        }
    }
}

// ---- watchdog -----------------------------------------------------------

/// What the watchdog needs to describe a stalled deployment.
type Watch = Arc<Mutex<Option<(WorkflowObs, Arc<Cluster>)>>>;

fn watch_set(watch: &Watch, dep: &Deployment) {
    *watch.lock().expect("watch lock") = Some((dep.wf.obs(), dep.cluster.clone()));
}

/// Run `f` on its own thread; if it has not answered by `deadline`,
/// print the flight-recorder dump and the queue depths and give up on
/// it — a hang must be a red run, not a stalled one.
fn guarded<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    f: impl FnOnce(Watch) -> T + Send + 'static,
) -> Result<T, String> {
    let watch: Watch = Arc::new(Mutex::new(None));
    let (tx, rx) = mpsc::channel();
    let w = watch.clone();
    let worker = std::thread::Builder::new()
        .name(format!("bench-{what}"))
        .spawn(move || {
            let _ = tx.send(f(w));
        })
        .map_err(|e| format!("spawn: {e}"))?;
    match rx.recv_timeout(deadline) {
        Ok(v) => {
            worker
                .join()
                .map_err(|_| format!("{what}: worker panicked"))?;
            Ok(v)
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(format!("{what}: worker panicked")),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            eprintln!("WATCHDOG: {what} exceeded {:.0} s", deadline.as_secs_f64());
            if let Some((obs, cluster)) = watch.lock().expect("watch lock").as_ref() {
                let dump = obs.flight_dump(&format!("watchdog: {what} stalled"));
                eprintln!(
                    "queue depth {}  in flight {}  held {}  dead letters {}  running tasks {}",
                    cluster.total_queue_depth(),
                    cluster.in_flight(SERVICE),
                    cluster.held_count(),
                    cluster.dead_letter_total(),
                    obs.tracker().running_count(),
                );
                eprintln!(
                    "--- flight dump: {} ({} events) ---",
                    dump.reason,
                    dump.events.len()
                );
                for e in dump.events.iter().rev().take(40).rev() {
                    eprintln!("{e:?}");
                }
                eprintln!("--- metrics ---\n{}", dump.metrics);
            }
            // The worker thread is stuck and cannot be joined.
            Err(format!("{what}: watchdog deadline passed"))
        }
    }
}

// ---- segments ---------------------------------------------------------------

/// Deploy cold and run the first task: "from nothing to the first
/// correct completion". Returns the deployment and the seconds it took.
fn setup_once(
    kind: Kind,
    opts: &Opts,
    traced: bool,
    rep: u64,
) -> Result<(Deployment, f64), String> {
    let t0 = Instant::now();
    let dep = Deployment::deploy(kind, Inputs::new(opts.seed), traced, opts.park())?;
    if let Err(e) = dep.op(99, rep) {
        dep.shutdown();
        return Err(format!("first task: {e}"));
    }
    Ok((dep, t0.elapsed().as_secs_f64()))
}

/// Counters read from public snapshots at both ends of a traced
/// segment's window.
struct Counters {
    registry: gozer_obs::Snapshot,
    broker: bluebox::MetricsSnapshot,
    persists: u64,
    delta_saves: u64,
    full_bytes: u64,
    delta_bytes: u64,
    loads: u64,
    de_bytes: u64,
    store: StoreCounts,
    cache_hits: u64,
    cache_misses: u64,
    remote_deliveries: u64,
}

impl Counters {
    fn read(dep: &Deployment) -> Counters {
        let obs = dep.wf.obs();
        let c = obs.counters();
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        let (mut cache_hits, mut cache_misses) = (0, 0);
        for rt in dep.wf.node_runtimes() {
            cache_hits += get(&rt.cache.mutable_stats.hits);
            cache_misses += get(&rt.cache.mutable_stats.misses);
        }
        Counters {
            registry: obs.snapshot(),
            broker: dep.cluster.metrics.snapshot(),
            persists: get(&c.persist_count),
            delta_saves: get(&c.delta_saves),
            full_bytes: get(&c.full_bytes),
            delta_bytes: get(&c.delta_bytes),
            loads: get(&c.load_count),
            de_bytes: obs.profile().serial.deserialize_bytes,
            store: dep
                .traced_store
                .as_ref()
                .map(|s| s.counts())
                .unwrap_or_default(),
            cache_hits,
            cache_misses,
            remote_deliveries: dep
                .wf
                .tcp_broker()
                .map_or(0, |b| b.transport_metrics().snapshot().remote_deliveries),
        }
    }
}

/// What the traced windows of a run counted, summed over its segments.
#[derive(Default)]
struct Counted {
    tasks: f64,
    latency_nanos: f64,
    phase_nanos: [f64; gozer_obs::PHASE_COUNT],
    calls: f64,
    delivered: f64,
    remote: f64,
    held: f64,
    persists: f64,
    delta_saves: f64,
    full_bytes: f64,
    delta_bytes: f64,
    loads: f64,
    de_bytes: f64,
    store: StoreCounts,
    cache_hits: f64,
    cache_lookups: f64,
}

impl Counted {
    fn add(&mut self, before: &Counters, after: &Counters) {
        let reg = after.registry.diff(&before.registry);
        if let Some(h) = reg.histogram(&format!(
            "gozer_task_latency_seconds{{service=\"{SERVICE}\"}}"
        )) {
            self.tasks += h.count as f64;
            self.latency_nanos += h.sum_nanos as f64;
        }
        for p in Phase::ALL {
            let key = format!(
                "gozer_task_phase_seconds{{phase=\"{}\",service=\"{SERVICE}\"}}",
                p.as_str()
            );
            self.phase_nanos[p.index()] += reg.histogram(&key).map_or(0.0, |h| h.sum_nanos as f64);
        }
        self.held += reg.counter("gozer_messages_held_total").unwrap_or(0) as f64;
        self.calls += (after.broker.sync_block_count - before.broker.sync_block_count) as f64;
        self.delivered += (after.broker.delivered - before.broker.delivered) as f64;
        self.remote += (after.remote_deliveries - before.remote_deliveries) as f64;
        self.persists += (after.persists - before.persists) as f64;
        self.delta_saves += (after.delta_saves - before.delta_saves) as f64;
        self.full_bytes += (after.full_bytes - before.full_bytes) as f64;
        self.delta_bytes += (after.delta_bytes - before.delta_bytes) as f64;
        self.loads += (after.loads - before.loads) as f64;
        self.de_bytes += (after.de_bytes - before.de_bytes) as f64;
        let store = after.store.diff(&before.store);
        for i in 0..store.calls.len() {
            self.store.calls[i] += store.calls[i];
            self.store.nanos[i] += store.nanos[i];
        }
        self.cache_hits += (after.cache_hits - before.cache_hits) as f64;
        self.cache_lookups += (after.cache_hits - before.cache_hits + after.cache_misses
            - before.cache_misses) as f64;
    }
}

/// A run's measured window, pooled over its segments.
#[derive(Default)]
struct Pooled {
    samples: Vec<Sample>,
    steps: Vec<Step>,
    segments: usize,
    window_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    setups: Vec<f64>,
    counted: Counted,
    /// The last segment's deployment, kept when the caller wants to
    /// capture the ladder's inputs from it.
    last: Option<Deployment>,
}

impl Pooled {
    fn note(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        let room = 8usize.saturating_sub(self.errors.len());
        self.errors.extend(errors.iter().take(room).cloned());
    }
}

/// Run the measured window as `segments` equal parts, each on a fresh
/// deployment (whose cold set-up is timed) after its own warm-up.
///
/// Why fresh deployments: nothing in the system ever forgets a finished
/// task — tracker, store and routing map only grow — so on one
/// long-lived deployment the rate depends on how many tasks ran before,
/// and the hash tables' resizes stall whole tenths of a second at
/// points that move with the rate. A fresh deployment per segment meets
/// the same growth at the same place every time.
fn run_segments(
    kind: Kind,
    opts: &Opts,
    segments: usize,
    traced: Option<&Tracer>,
    keep_last: bool,
    watch: &Watch,
) -> Result<Pooled, String> {
    let mut pool = Pooled {
        segments,
        ..Pooled::default()
    };
    let part = Duration::from_secs_f64(opts.seconds / segments as f64);
    let warm = Duration::from_secs_f64(opts.warmup_s);
    let mut open_seq = 0u64;
    for seg in 0..segments {
        let (dep, setup_s) = setup_once(kind, opts, traced.is_some(), seg as u64)?;
        watch_set(watch, &dep);
        pool.setups.push(setup_s);
        if traced.is_some() {
            dep.wf.obs().set_tracing(true);
        }
        let before;
        if kind == Kind::QuickOpen {
            let rate = QUICK_OPEN_RATES[open_steps(segments)[seg]];
            let w = open_step(&dep, rate, warm, open_seq);
            open_seq += w.sent;
            pool.note(w.sent, w.failed, &w.errors);
            before = traced.map(|_| Counters::read(&dep));
            let s = open_step(&dep, rate, part, open_seq);
            open_seq += s.sent;
            pool.note(s.sent, s.failed, &s.errors);
            pool.window_s += part.as_secs_f64();
            pool.steps.push(s);
        } else {
            let k0 = seg as u64 * 10_000_000;
            let w = closed_loop(&dep, warm, k0, None);
            pool.note(w.attempted, w.failed, &w.errors);
            dep.release_parked();
            before = traced.map(|_| Counters::read(&dep));
            let l = closed_loop(&dep, part, k0 + 5_000_000, traced);
            pool.note(l.attempted, l.failed, &l.errors);
            let offset = pool.window_s;
            pool.samples.extend(l.samples.iter().map(|s| Sample {
                end_s: s.end_s + offset,
                ms: s.ms,
            }));
            pool.window_s += l.window_s;
        }
        if let Some(before) = before {
            pool.counted.add(&before, &Counters::read(&dep));
            dep.wf.obs().set_tracing(false);
        }
        // Dead letters and duplicate settles are failures no client saw.
        let hidden = dep.hidden_failures();
        if hidden > 0 {
            pool.note(
                0,
                hidden,
                &[format!("{hidden} dead letters or duplicate settles")],
            );
        }
        *watch.lock().expect("watch lock") = None;
        if keep_last && seg + 1 == segments {
            pool.last = Some(dep);
        } else {
            dep.shutdown();
        }
    }
    Ok(pool)
}

/// Which ladder steps a run of `segments` steps takes: all six, or —
/// the traced run's halves — the one whose p50 is reported and then the
/// top of the ladder, where tracing overhead can show as lost rate.
fn open_steps(segments: usize) -> Vec<usize> {
    let n = QUICK_OPEN_RATES.len();
    if segments >= n {
        return (0..segments).map(|i| i % n).collect();
    }
    let mut steps = vec![P50_STEP];
    steps.extend(n + 1 - segments..n);
    steps
}

// ---- one workload -----------------------------------------------------------

fn step_json(s: &Step) -> Json {
    Json::obj()
        .field("rate_per_s", s.rate_per_s)
        .field("sent", s.sent)
        .field("failed", s.failed)
        .field("achieved_per_s", s.achieved_per_s)
        .field("open_p50_ms", s.p50_ms)
        .field("open_p95_ms", s.p95_ms)
        .field("open_p99_ms", s.p99_ms)
        .field("typical_p50_ms", s.typical_p50_ms())
        .field("typical_p95_ms", s.typical_p95_ms())
        .field("gen_late_p99_ms", s.gen_late_p99_ms)
        .field("backlog_end", s.backlog_end)
        .field("void", s.void)
        .field("sustained", s.sustained)
}

/// Throughput and latency of a pooled window, with their info.
struct Window {
    tasks_per_s: Measured,
    p50_ms: Measured,
    p95_ms: Measured,
    info: Json,
}

fn closed_window(pool: &Pooled) -> Window {
    let n = pool.samples.len();
    // One sub-window per segment, each a fresh deployment.
    let k = pool.segments.max(1);
    let all = sorted(&pool.samples.iter().map(|s| s.ms).collect::<Vec<_>>());
    let done = pool.samples.iter().filter(|s| s.ms.is_finite()).count();
    let tail = highest_supported(n).map_or("none", |(_, name)| name);
    let info = Json::obj()
        .field("window_s", pool.window_s)
        .field("tasks_per_s_mean", done as f64 / pool.window_s)
        .field("task_p99_ms", percentile(&all, 0.99))
        .field("task_max_ms", percentile(&all, 1.0))
        .field("highest_supported_percentile", tail);
    Window {
        tasks_per_s: Measured::typical(
            &END_TO_END[0],
            windowed_rates(&pool.samples, pool.window_s, k),
            n,
        ),
        p50_ms: Measured::typical(
            &END_TO_END[1],
            windowed_percentiles(&pool.samples, pool.window_s, 0.5, k),
            n,
        ),
        p95_ms: Measured::typical(
            &END_TO_END[2],
            windowed_percentiles(&pool.samples, pool.window_s, 0.95, k),
            n,
        ),
        info,
    }
}

/// Fold the passes over the ladder into one step per rate: sub-windows
/// pooled, every other figure the better of its passes, so that a
/// disturbance of the machine has to last from one pass into the next
/// to show.
fn best_of_passes(steps: &[Step]) -> Vec<Step> {
    let mut best: Vec<Step> = Vec::new();
    for s in steps {
        match best.iter_mut().find(|b| b.rate_per_s == s.rate_per_s) {
            None => best.push(s.clone()),
            Some(b) => {
                b.sent += s.sent;
                b.failed += s.failed;
                b.achieved_per_s = b.achieved_per_s.max(s.achieved_per_s);
                b.p50_ms = b.p50_ms.min(s.p50_ms);
                b.p95_ms = b.p95_ms.min(s.p95_ms);
                b.p99_ms = b.p99_ms.min(s.p99_ms);
                b.window_p50_ms.extend(&s.window_p50_ms);
                b.window_p95_ms.extend(&s.window_p95_ms);
                b.gen_late_p99_ms = b.gen_late_p99_ms.min(s.gen_late_p99_ms);
                b.backlog_end = b.backlog_end.min(s.backlog_end);
                b.void &= s.void;
                b.sustained |= s.sustained;
            }
        }
    }
    best.sort_by(|a, b| a.rate_per_s.total_cmp(&b.rate_per_s));
    best
}

fn open_window(steps: &[Step]) -> Window {
    let steps = &best_of_passes(steps)[..];
    // A traced half runs fewer steps than the ladder: report from the
    // step at that rate, or the nearest below.
    let at = |i: usize| {
        steps
            .iter()
            .rev()
            .find(|s| s.rate_per_s <= QUICK_OPEN_RATES[i])
            .unwrap_or(&steps[0])
    };
    let top = at(QUICK_OPEN_RATES.len() - 1);
    let one = |v: f64, n: u64| Measured {
        value: v,
        samples: n as usize,
        values: vec![v],
    };
    let info = Json::obj()
        .field("open_p50_ms.r50", at(P50_STEP).p50_ms)
        .field("open_p95_ms.r75", at(P95_STEP).p95_ms)
        .field("max_rate_ok_per_s", max_rate_ok(steps))
        .field(
            "gen_late_p99_ms",
            steps.iter().map(|s| s.gen_late_p99_ms).fold(0.0, f64::max),
        )
        .field("void_steps", steps.iter().filter(|s| s.void).count())
        .field("steps", steps.iter().map(step_json).collect::<Vec<_>>());
    Window {
        // What a user of an open system sees: the rate it completes at
        // when offered the top of the ladder, and latency from the due
        // time at half and at three quarters of capacity. The latencies
        // are good quartiles over the step's sub-windows, like the
        // closed loops'; the whole-step percentiles, which the system's rehash
        // stalls move by a factor of ten from run to run, are in `info`.
        tasks_per_s: one(top.achieved_per_s, top.sent),
        p50_ms: Measured::typical(
            &END_TO_END[1],
            at(P50_STEP).window_p50_ms.clone(),
            at(P50_STEP).sent as usize,
        ),
        p95_ms: Measured::typical(
            &END_TO_END[2],
            at(P95_STEP).window_p95_ms.clone(),
            at(P95_STEP).sent as usize,
        ),
        info,
    }
}

fn window_of(pool: &Pooled) -> Window {
    if pool.steps.is_empty() {
        closed_window(pool)
    } else {
        open_window(&pool.steps)
    }
}

fn failed_report(kind: Kind, error: String) -> WorkloadReport {
    WorkloadReport {
        kind,
        attempted: 1,
        failed: 1,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        info: Json::obj(),
        errors: vec![error],
    }
}

/// The untraced run: the only source of end-to-end numbers.
fn untraced(kind: Kind, opts: &Opts, watch: &Watch) -> WorkloadReport {
    let mut pool = match run_segments(kind, opts, opts.segments(kind), None, false, watch) {
        Ok(p) => p,
        Err(e) => return failed_report(kind, e),
    };
    // Set-up is cheap except where it parks fibers: top the sample up.
    while pool.setups.len() < opts.min_setups(kind) {
        match setup_once(kind, opts, false, pool.setups.len() as u64) {
            Ok((dep, s)) => {
                pool.setups.push(s);
                dep.shutdown();
            }
            Err(e) => return failed_report(kind, e),
        }
    }
    let w = window_of(&pool);
    let n = pool.setups.len();
    WorkloadReport {
        kind,
        attempted: pool.attempted,
        failed: pool.failed,
        end_to_end: vec![
            w.tasks_per_s,
            w.p50_ms,
            w.p95_ms,
            Measured::typical(&END_TO_END[3], pool.setups, n),
        ],
        per_layer: Vec::new(),
        info: w.info,
        errors: pool.errors,
    }
}

/// The traced run: an untraced and a traced half of the window back to
/// back (their ratio is the tracing overhead), counters over the traced
/// half, then the ladder on inputs captured from its last deployment.
fn traced(kind: Kind, opts: &Opts, watch: &Watch) -> WorkloadReport {
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts.clone()
    };
    let segments = match kind {
        Kind::QuickOpen => QUICK_OPEN_RATES.len() / 2,
        _ => (opts.closed_segments / 2).max(1),
    };
    let plain = match run_segments(kind, &half, segments, None, false, watch) {
        Ok(p) => p,
        Err(e) => return failed_report(kind, e),
    };
    let tracer = Tracer::new();
    let mut pool = match run_segments(kind, &half, segments, Some(&tracer), true, watch) {
        Ok(p) => p,
        Err(e) => return failed_report(kind, e),
    };
    let dep = pool
        .last
        .take()
        .expect("run_segments keeps the last deployment");
    watch_set(watch, &dep);
    let (plain_w, w) = (window_of(&plain), window_of(&pool));
    let c = &pool.counted;
    let tasks = c.tasks.max(1.0);

    let rig = match Rig::capture(&dep, opts.ladder_calls) {
        Ok(r) => r,
        Err(e) => {
            dep.shutdown();
            return failed_report(kind, format!("ladder: {e}"));
        }
    };
    let measured: BTreeMap<&str, f64> = rig.measure().into_iter().collect();
    let per = |total: f64, unit: f64| {
        if unit > 0.0 {
            total / unit / tasks
        } else {
            0.0
        }
    };
    // Calls of each layer per task. The serializer's are weighted by
    // bytes, because a task's saves differ in size (a forked child's
    // snapshot is a fraction of its parent's) and the ladder times the
    // root's. The VM's are one each: the probe is one task's whole
    // pure interpretation, split at its suspension.
    let mut per_task: BTreeMap<&str, f64> = BTreeMap::new();
    per_task.insert("cluster.call_us", c.calls / tasks);
    per_task.insert(
        "queue.handoff_us.w2",
        (c.delivered - c.calls - c.remote).max(0.0) / tasks,
    );
    per_task.insert(
        "queue.handoff_us.w1",
        if kind == Kind::QuickOpen { 0.0 } else { 1.0 },
    );
    per_task.insert("vm.exec_us", 1.0);
    per_task.insert(
        "vm.resume_us",
        if measured["vm.resume_us"] > 0.0 {
            1.0
        } else {
            0.0
        },
    );
    per_task.insert(
        "serial.ser_full_us",
        per(c.full_bytes, measured["serial.full_bytes"]),
    );
    per_task.insert(
        "serial.ser_delta_us",
        per(c.delta_bytes, measured["serial.delta_bytes"]),
    );
    per_task.insert(
        "serial.de_us",
        per(c.de_bytes, measured["serial.full_bytes"]),
    );
    per_task.insert(
        "store.put_us",
        (c.store.calls(StoreOp::Put) + c.store.calls(StoreOp::PutBatch)) as f64 / tasks,
    );
    per_task.insert("store.get_us", c.store.calls(StoreOp::Get) as f64 / tasks);
    per_task.insert("store.commit_us", c.held / tasks);
    per_task.insert("tcp.rtt_us", c.remote / tasks);
    per_task.insert("wire.codec_us", 0.0); // inside tcp.rtt_us already
    let ladder_sum: f64 = LAYERS.iter().map(|l| per_task[l] * measured[l]).sum();
    let residual = plain_w.p50_ms.value * 1e3 - ladder_sum;
    let overhead = 1.0 - w.tasks_per_s.value / plain_w.tasks_per_s.value;

    rig.replay(&tracer, &per_task, opts.replays);
    drop(rig);
    dep.shutdown();
    let spans = tracer.spans();
    let trace_path = opts.out_dir.join(format!("trace-{}.json", kind.name()));
    let mut errors = plain.errors;
    errors.extend(pool.errors);
    if let Err(e) = write_trace_file(&trace_path, kind.name(), &spans) {
        errors.push(format!("{}: {e}", trace_path.display()));
    }

    let per_layer: Vec<f64> = PER_LAYER
        .iter()
        .map(|def| match def.name {
            "cache.hit_ratio" => {
                if c.cache_lookups > 0.0 {
                    c.cache_hits / c.cache_lookups
                } else {
                    0.0
                }
            }
            "service.residual_us" => residual,
            "obs.trace_overhead" => overhead,
            name => match name
                .strip_prefix("phase.")
                .and_then(|n| n.strip_suffix("_share"))
            {
                Some(phase) => Phase::from_str(phase)
                    .map_or(0.0, |p| c.phase_nanos[p.index()] / c.latency_nanos.max(1.0)),
                None => measured[name],
            },
        })
        .collect();

    let mut counts = Json::obj();
    for l in LAYERS {
        counts.set(l, per_task[l]);
    }
    let mut self_time = Json::obj();
    for (name, ns) in self_time_by_name(&spans) {
        self_time.set(&name, ns as f64 / 1e3);
    }
    let store_busy = |op: StoreOp| c.store.nanos(op) as f64 / 1e3 / tasks;
    let info = Json::obj()
        .field("untraced_tasks_per_s", plain_w.tasks_per_s.value)
        .field("traced_tasks_per_s", w.tasks_per_s.value)
        .field("untraced_task_p50_ms", plain_w.p50_ms.value)
        .field("tasks_in_traced_window", c.tasks)
        .field("ladder_sum_us", ladder_sum)
        .field("calls_per_task", counts)
        .field("saves_per_task", c.persists / tasks)
        .field("delta_saves_per_task", c.delta_saves / tasks)
        .field("store_loads_per_task", c.loads / tasks)
        .field(
            "store_busy_us_per_task",
            Json::obj()
                .field(
                    "put",
                    store_busy(StoreOp::Put) + store_busy(StoreOp::PutBatch),
                )
                .field("get", store_busy(StoreOp::Get))
                .field("delete", store_busy(StoreOp::Delete)),
        )
        .field("span_self_time_us", self_time)
        .field("spans", spans.len())
        .field("trace_file", trace_path.display().to_string());

    WorkloadReport {
        kind,
        attempted: plain.attempted + pool.attempted,
        failed: plain.failed + pool.failed,
        end_to_end: Vec::new(),
        per_layer,
        info,
        errors,
    }
}

/// One workload under the watchdog: three times what it should take.
fn run_guarded(kind: Kind, opts: &Opts, trace: bool) -> WorkloadReport {
    let expected = opts.warmup_s + opts.seconds + 20.0;
    let o = opts.clone();
    let result = guarded(
        kind.name(),
        Duration::from_secs_f64(3.0 * expected),
        move |watch| {
            if trace {
                traced(kind, &o, &watch)
            } else {
                untraced(kind, &o, &watch)
            }
        },
    );
    result.unwrap_or_else(|e| failed_report(kind, e))
}

// ---- front ends -------------------------------------------------------------

/// `--workload`: one run, the result object on the last line.
pub fn driver(kind: Kind, opts: &Opts, trace: bool) -> Result<ExitCode, String> {
    let report = run_guarded(kind, opts, trace);
    report.print();
    if !report.info.fields().is_empty() {
        println!("info {}", report.info.compact());
    }
    let want = if trace {
        report.per_layer.len() == PER_LAYER.len()
    } else {
        report.end_to_end.len() == END_TO_END.len()
    };
    if !want {
        // No measurement to report: a red run, without a result line.
        cleanup();
        return Err(format!("{}: {}", kind.name(), report.errors.join("; ")));
    }
    println!("{}", report.driver_line());
    cleanup();
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Remove the scratch root if this run left it empty.
fn cleanup() {
    let _ = std::fs::remove_dir(".bench_tmp");
}

fn machine() -> Json {
    // Counted before pinning; `available_parallelism` now reads 1.
    let nproc = match crate::pin::allowed_cpus() {
        0 => std::thread::available_parallelism().map_or(0, |n| n.get()),
        n => n,
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::obj()
        .field("nproc", nproc)
        .field("kernel", kernel.trim())
        .field(
            "pinned_cpu",
            crate::pin::system_cpu().map_or(Json::Null, Json::from),
        )
}

fn build_doc(opts: &Opts, trace: bool, repeat: usize, reverse: bool) -> (Json, bool) {
    let mut order: Vec<Kind> = Kind::ALL.to_vec();
    if reverse {
        order.reverse();
    }
    let mut runs: BTreeMap<&str, (Vec<WorkloadReport>, Option<WorkloadReport>)> = BTreeMap::new();
    let mut green = true;
    for _ in 0..repeat {
        for &kind in &order {
            let r = run_guarded(kind, opts, false);
            r.print();
            green &= r.correct() && r.end_to_end.len() == END_TO_END.len();
            runs.entry(kind.name()).or_default().0.push(r);
        }
    }
    if trace && green {
        for &kind in &order {
            let r = run_guarded(kind, opts, true);
            r.print();
            green &= r.correct() && r.per_layer.len() == PER_LAYER.len();
            runs.entry(kind.name()).or_default().1 = Some(r);
        }
    }
    let mut workloads = Json::obj();
    if green {
        for kind in Kind::ALL {
            let (untraced, traced) = &runs[kind.name()];
            workloads.set(kind.name(), workload_json(untraced, traced.as_ref()));
        }
    }
    let mut bounds = Json::obj();
    for def in &END_TO_END {
        bounds.set(def.name, def.bound);
    }
    let doc = Json::obj()
        .field("bench", "taskbench")
        .field("seed", opts.seed)
        .field("seconds", opts.seconds)
        .field("repeat", repeat)
        .field("order", if reverse { "rev" } else { "fwd" })
        .field("machine", machine())
        .field(
            "quick_open_rates_per_s",
            QUICK_OPEN_RATES
                .iter()
                .map(|&r| Json::from(r))
                .collect::<Vec<_>>(),
        )
        .field("bounds", bounds)
        .field("workloads", workloads)
        .field("claim", Json::Null);
    (doc, green)
}

/// `--all`: every workload, the report file, non-zero exit on any
/// failed operation.
pub fn all(
    opts: &Opts,
    out: &Path,
    trace: bool,
    repeat: usize,
    reverse: bool,
) -> Result<ExitCode, String> {
    let (doc, green) = build_doc(opts, trace, repeat, reverse);
    cleanup();
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    if !green {
        return Ok(ExitCode::from(1));
    }
    shape_check(&doc)?;
    Ok(ExitCode::SUCCESS)
}

/// `--smoke`: all six workloads in under ten seconds, then the shape
/// check on the report and, if it is in the working directory, on
/// `BENCHMARK.json`.
pub fn smoke() -> Result<ExitCode, String> {
    let t0 = Instant::now();
    let opts = Opts {
        warmup_s: 0.05,
        closed_segments: 1,
        open_passes: 1,
        setups: 1,
        ..Opts::driver(1, 0.9)
    };
    let (doc, green) = build_doc(&opts, false, 1, false);
    cleanup();
    if !green {
        return Err("smoke: a workload failed".into());
    }
    let doc = Json::parse(&doc.pretty()).map_err(|e| format!("report does not read back: {e}"))?;
    shape_check(&doc)?;
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let manifest = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        manifest_check(&manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        println!("BENCHMARK.json agrees with the harness");
    }
    println!(
        "smoke ok: six workloads, report shape checked, {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_turns_a_hang_into_an_error() {
        let hung = guarded("hang", Duration::from_millis(30), |_| {
            std::thread::sleep(Duration::from_secs(2));
            1
        });
        assert!(hung.unwrap_err().contains("watchdog"));
        assert_eq!(guarded("quick", Duration::from_secs(5), |_| 7), Ok(7));
        let panicked = guarded("panic", Duration::from_secs(5), |_| -> u8 {
            panic!("boom")
        });
        assert!(panicked.unwrap_err().contains("panicked"));
    }

    #[test]
    fn a_traced_half_takes_the_reported_step_and_the_top_of_the_ladder() {
        assert_eq!(open_steps(6), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(open_steps(12), vec![0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5]);
        assert_eq!(open_steps(3), vec![P50_STEP, 4, 5]);
        assert_eq!(open_steps(1), vec![P50_STEP]);
    }
}
