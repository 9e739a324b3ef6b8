//! Load generation. A closed loop: each of [`CLIENTS`] threads starts
//! its next task only when the previous one completed, so a slow system
//! receives less load. An open loop: one generator thread sends
//! fire-and-forget `Start`s on a fixed schedule regardless, each task is
//! timed from when it was *due*, and the generator's own lateness is
//! reported beside the latencies it would otherwise hide in.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bluebox::Message;
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_serial::serialize_value;
use vinz::TaskStatus;

use crate::stats::{good_quartile, percentile, sorted, windowed_percentiles, Sample};
use crate::trace::Tracer;
use crate::workloads::{mix, Deployment, CLIENTS, EXHAUSTED, OP_TIMEOUT, SERVICE};

/// How many error texts a result keeps for the report.
const KEPT_ERRORS: usize = 5;
/// Every how many tasks a traced closed loop records a root span.
const ROOT_SPAN_EVERY: u64 = 16;

#[derive(Default)]
pub struct LoadResult {
    /// Tasks that ended inside the measured window (`+inf` if failed).
    pub samples: Vec<Sample>,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl LoadResult {
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(error);
        }
    }
}

/// Run `CLIENTS` closed-loop clients for `window`; a task is timed if
/// it ends inside the window. Client `c`'s tasks take the inputs
/// numbered `k0`, `k0 + 1`, ...
pub fn closed_loop(
    dep: &Deployment,
    window: Duration,
    k0: u64,
    tracer: Option<&Tracer>,
) -> LoadResult {
    let begin = Instant::now();
    let end = begin + window;
    let per_client: Vec<(LoadResult, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                scope.spawn(move || {
                    let mut r = LoadResult::default();
                    let mut k = k0;
                    let mut last = begin;
                    while Instant::now() < end {
                        let outcome = dep.op(client, k);
                        k += 1;
                        if matches!(&outcome, Err(e) if e.as_str() == EXHAUSTED) {
                            break;
                        }
                        r.attempted += 1;
                        let done = match outcome {
                            Ok(o) => {
                                if let Some(t) =
                                    tracer.filter(|_| k.is_multiple_of(ROOT_SPAN_EVERY))
                                {
                                    let root = t.record(None, &o.task, "task", o.t0, o.done);
                                    t.record(Some(root), &o.task, "client.start", o.t0, o.started);
                                    t.record(Some(root), &o.task, "client.wait", o.started, o.done);
                                }
                                let ms = o.done.duration_since(o.t0).as_secs_f64() * 1e3;
                                (o.done, ms)
                            }
                            Err(e) => {
                                r.fail(e);
                                (Instant::now(), f64::INFINITY)
                            }
                        };
                        if done.0 >= begin && done.0 < end {
                            last = done.0;
                            let end_s = done.0.duration_since(begin).as_secs_f64();
                            r.samples.push(Sample { end_s, ms: done.1 });
                        }
                    }
                    (r, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let exhausted = dep.parked_exhausted();
    let mut total = LoadResult::default();
    let mut last = begin;
    for (r, l) in per_client {
        total.samples.extend(r.samples);
        total.attempted += r.attempted;
        total.failed += r.failed;
        total.errors.extend(r.errors);
        last = last.max(l);
    }
    total.errors.truncate(KEPT_ERRORS);
    // `awake-cold` may run out of parked fibers before the window ends:
    // then the window is the time it took to drain them.
    total.window_s = if exhausted {
        last.duration_since(begin).as_secs_f64().max(1e-3)
    } else {
        window.as_secs_f64()
    };
    total
}

// ---- open loop ----------------------------------------------------------

/// Sub-windows of a ladder step for its typical latencies: many,
/// because an open loop turns each stall of the system into a burst of
/// late tasks, and a quartile over few windows lands inside the bursts
/// as often as not.
const OPEN_SUB_WINDOWS: usize = 50;
/// The p95 limit a ladder step must meet to count as sustained.
pub const LATENCY_LIMIT_MS: f64 = 5.0;
/// A step whose generator ran later than this at p99 is void: its
/// latencies would measure the generator, not the system.
pub const MAX_GEN_LATE_MS: f64 = 1.0;

/// Nanoseconds into a step at which send `i` is due at `rate_per_s`.
pub fn due_ns(i: u64, rate_per_s: f64) -> u64 {
    (i as f64 * 1e9 / rate_per_s) as u64
}

/// Sends of a step of `duration` at `rate_per_s`.
pub fn sends_in(duration: Duration, rate_per_s: f64) -> u64 {
    (duration.as_secs_f64() * rate_per_s).floor().max(1.0) as u64
}

/// Open-loop latency in ms: from the *due* time, not the send time, so
/// the wait a stall imposes on later requests is counted. `None`
/// (never finished) is `+inf`.
pub fn latency_from_due_ms(due_ns: u64, finished_ns: Option<u64>) -> f64 {
    match finished_ns {
        Some(f) => f.saturating_sub(due_ns) as f64 / 1e6,
        None => f64::INFINITY,
    }
}

/// How late the generator sent, in ms (0 when on time).
pub fn lateness_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Sent but not finished at `at_ns` — the backlog.
pub fn backlog_at(sent_ns: &[u64], finished_ns: &[Option<u64>], at_ns: u64) -> u64 {
    let sent = sent_ns.iter().filter(|&&s| s <= at_ns).count();
    let finished = finished_ns
        .iter()
        .filter(|f| f.is_some_and(|f| f <= at_ns))
        .count();
    sent.saturating_sub(finished) as u64
}

#[derive(Debug, Clone)]
pub struct Step {
    pub rate_per_s: f64,
    pub sent: u64,
    pub failed: u64,
    pub achieved_per_s: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// The percentile in each of the step's sub-windows; their good
    /// quartile is what the step's latency is between the system's
    /// stalls.
    pub window_p50_ms: Vec<f64>,
    pub window_p95_ms: Vec<f64>,
    pub gen_late_p99_ms: f64,
    pub backlog_end: u64,
    /// Generator too late: the step's latencies are not the system's.
    pub void: bool,
    /// p95 within [`LATENCY_LIMIT_MS`], backlog not growing, no failure.
    pub sustained: bool,
    pub errors: Vec<String>,
}

impl Step {
    pub fn typical_p50_ms(&self) -> f64 {
        good_quartile(&self.window_p50_ms, false)
    }

    pub fn typical_p95_ms(&self) -> f64 {
        good_quartile(&self.window_p95_ms, false)
    }
}

/// Seeded base of the open loop's arguments: send `i` of a run carries
/// `base + i`, unique, so the value a task completes with names the
/// send it answers.
pub fn open_arg_base(seed: u64) -> i64 {
    2 + (mix(seed ^ 0x09e7) % 1_000_000) as i64
}

fn sleep_until(due: Instant) {
    // No spinning: a busy generator would take one of the two cores
    // from the system under test. The scheduler's wake-up delay shows
    // up as lateness, which is reported.
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One ladder step: send `quick` tasks at `rate_per_s` for `duration`,
/// wait for the deployment to drain, then read every task's
/// `finished_at` from the tracker. `first_seq` numbers this step's
/// first send within the run.
pub fn open_step(dep: &Deployment, rate_per_s: f64, duration: Duration, first_seq: u64) -> Step {
    let obs = dep.wf.obs();
    let count = sends_in(duration, rate_per_s);
    let base = open_arg_base(dep.inputs.seed);
    let first_task = obs.counters().tasks_started.load(Ordering::Relaxed) + 1;
    let bodies: Vec<Vec<u8>> = (0..count)
        .map(|i| {
            let args = Value::list(vec![Value::Int(base + (first_seq + i) as i64)]);
            serialize_value(&args, Codec::None).expect("an int list always serializes")
        })
        .collect();

    let spare = crate::pin::on_spare_cpu();
    let t0 = Instant::now();
    let mut sent_ns = Vec::with_capacity(count as usize);
    for (i, body) in bodies.into_iter().enumerate() {
        sleep_until(t0 + Duration::from_nanos(due_ns(i as u64, rate_per_s)));
        dep.cluster
            .send(Message::new(SERVICE, "Start", body).header("function", "quick"));
        sent_ns.push(t0.elapsed().as_nanos() as u64);
    }
    drop(spare);
    let step_end_ns = due_ns(count, rate_per_s).max(*sent_ns.last().unwrap_or(&0));

    // Drain: every send has become a task and every task is final.
    let deadline = Instant::now() + OP_TIMEOUT;
    let last_task = first_task + count - 1;
    while (obs.counters().tasks_started.load(Ordering::Relaxed) < last_task
        || obs.tracker().running_count() > 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_micros(200));
    }

    // Collect. Task ids follow Start *processing* order, so the value
    // (n², n unique) says which send a task answers.
    let mut finished_ns: Vec<Option<u64>> = vec![None; count as usize];
    let mut step = Step {
        rate_per_s,
        sent: count,
        failed: 0,
        achieved_per_s: 0.0,
        p50_ms: 0.0,
        p95_ms: 0.0,
        p99_ms: 0.0,
        window_p50_ms: Vec::new(),
        window_p95_ms: Vec::new(),
        gen_late_p99_ms: 0.0,
        backlog_end: 0,
        void: false,
        sustained: false,
        errors: Vec::new(),
    };
    for id in first_task..=last_task {
        let rec = obs.tracker().get(&format!("task-{id}"));
        let slot = match rec.as_ref().map(|r| &r.status) {
            Some(TaskStatus::Completed(Value::Int(v))) => {
                let n = (*v as f64).sqrt().round() as i64;
                let i = n - base - first_seq as i64;
                (n * n == *v && (0..count as i64).contains(&i)).then_some(i as usize)
            }
            _ => None,
        };
        match (slot, rec.and_then(|r| r.finished_at)) {
            (Some(i), Some(at)) if finished_ns[i].is_none() => {
                finished_ns[i] = Some(at.saturating_duration_since(t0).as_nanos() as u64);
            }
            _ => {
                if step.errors.len() < KEPT_ERRORS {
                    step.errors
                        .push(format!("task-{id}: no correct completion"));
                }
            }
        }
    }
    step.failed = finished_ns.iter().filter(|f| f.is_none()).count() as u64;

    let lat: Vec<f64> = (0..count as usize)
        .map(|i| latency_from_due_ms(due_ns(i as u64, rate_per_s), finished_ns[i]))
        .collect();
    let by_due: Vec<Sample> = lat
        .iter()
        .enumerate()
        .map(|(i, &ms)| Sample {
            end_s: due_ns(i as u64, rate_per_s) as f64 / 1e9,
            ms,
        })
        .collect();
    let step_s = step_end_ns as f64 / 1e9;
    step.window_p50_ms = windowed_percentiles(&by_due, step_s, 0.5, OPEN_SUB_WINDOWS);
    step.window_p95_ms = windowed_percentiles(&by_due, step_s, 0.95, OPEN_SUB_WINDOWS);
    let lat = sorted(&lat);
    let late = sorted(
        &(0..count as usize)
            .map(|i| lateness_ms(due_ns(i as u64, rate_per_s), sent_ns[i]))
            .collect::<Vec<_>>(),
    );
    step.p50_ms = percentile(&lat, 0.5);
    step.p95_ms = percentile(&lat, 0.95);
    step.p99_ms = percentile(&lat, 0.99);
    step.gen_late_p99_ms = percentile(&late, 0.99);
    step.backlog_end = backlog_at(&sent_ns, &finished_ns, step_end_ns);
    let done_in_step = finished_ns
        .iter()
        .filter(|f| f.is_some_and(|f| f <= step_end_ns))
        .count();
    step.achieved_per_s = done_in_step as f64 / (step_end_ns as f64 / 1e9);
    step.void = step.gen_late_p99_ms > MAX_GEN_LATE_MS;
    // A system keeping up at rate r with latency W has r·W tasks in
    // flight; twice the limit's worth at step end means it fell behind.
    let backlog_ok =
        step.backlog_end as f64 <= (2.0 * rate_per_s * LATENCY_LIMIT_MS / 1e3).max(8.0);
    step.sustained =
        !step.void && step.failed == 0 && step.p95_ms <= LATENCY_LIMIT_MS && backlog_ok;
    step
}

/// The highest sustained rate of a ladder, 0 if none.
pub fn max_rate_ok(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.sustained)
        .map(|s| s.rate_per_s)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_the_rate() {
        assert_eq!(due_ns(0, 1000.0), 0);
        assert_eq!(due_ns(1, 1000.0), 1_000_000);
        assert_eq!(due_ns(2500, 1000.0), 2_500_000_000);
        assert_eq!(sends_in(Duration::from_millis(1500), 1000.0), 1500);
        assert_eq!(sends_in(Duration::from_millis(1), 10.0), 1);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 2 ms, sent 3 ms late at 5 ms, finished at 6 ms: the
        // task took 1 ms after its send but its user waited 4 ms.
        let (due, sent, finished) = (2_000_000, 5_000_000, Some(6_000_000));
        assert_eq!(latency_from_due_ms(due, finished), 4.0);
        assert_eq!(lateness_ms(due, sent), 3.0);
        // On time or early is not late; never finished misses any limit.
        assert_eq!(lateness_ms(due, due - 1), 0.0);
        assert!(latency_from_due_ms(due, None).is_infinite());
    }

    #[test]
    fn backlog_is_sent_minus_finished() {
        let sent = [0, 10, 20, 30];
        let finished = [Some(5), Some(35), None, Some(31)];
        assert_eq!(backlog_at(&sent, &finished, 4), 1);
        assert_eq!(backlog_at(&sent, &finished, 30), 3);
        assert_eq!(backlog_at(&sent, &finished, 40), 1);
    }

    #[test]
    fn max_rate_is_the_highest_sustained_step() {
        let step = |rate_per_s, sustained| Step {
            rate_per_s,
            sent: 1,
            failed: 0,
            achieved_per_s: rate_per_s,
            p50_ms: 0.1,
            p95_ms: 0.2,
            p99_ms: 0.3,
            window_p50_ms: vec![0.1],
            window_p95_ms: vec![0.2],
            gen_late_p99_ms: 0.0,
            backlog_end: 0,
            void: false,
            sustained,
            errors: Vec::new(),
        };
        let ladder = [
            step(100.0, true),
            step(200.0, true),
            step(300.0, false),
            step(400.0, true),
        ];
        assert_eq!(max_rate_ok(&ladder), 400.0);
        assert_eq!(max_rate_ok(&ladder[..3]), 200.0);
        assert_eq!(max_rate_ok(&[step(100.0, false)]), 0.0);
    }
}
