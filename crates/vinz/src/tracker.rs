//! The global task tracking service (paper §4.2 mentions BlueBox provides
//! one): task status, results, fiber accounting, and blocking waits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gozer_lang::Value;
use gozer_obs::{Histogram, Phase, PhaseBreakdown, PHASE_COUNT};
use gozer_vm::Condition;
use parking_lot::{Condvar, Mutex};
use rustc_hash::FxHashMap;

/// Lifecycle of a task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskStatus {
    /// At least one fiber is live or queued.
    Running,
    /// The main fiber returned a value.
    Completed(Value),
    /// The task was terminated (`Terminate` operation or the `terminate`
    /// handler action), with the triggering condition.
    Terminated(Condition),
    /// The main fiber failed with an unhandled condition.
    Failed(Condition),
}

impl TaskStatus {
    /// Is this a final state?
    pub fn is_final(&self) -> bool {
        !matches!(self, TaskStatus::Running)
    }
}

/// Bookkeeping per task.
#[derive(Debug, Clone)]
pub struct TaskRecord {
    /// Task id.
    pub id: String,
    /// Current status.
    pub status: TaskStatus,
    /// Fibers ever created for this task (the paper's §5 statistics count
    /// these).
    pub fibers_created: u64,
    /// Fibers that have finished (completed, broke, or died with the
    /// task).
    pub fibers_finished: u64,
    /// Wall-clock start.
    pub started_at: Instant,
    /// Wall-clock completion (final states only).
    pub finished_at: Option<Instant>,
    /// Optional deadline (for the §5 scheduling experiment).
    pub deadline: Option<Instant>,
    /// The task's latency decomposition: time accumulated per phase.
    /// Closed (and exactly summing to [`TaskRecord::duration`]) once
    /// the task is final.
    pub phases: PhaseBreakdown,
    /// The phase currently accumulating wall-clock; `None` once final.
    pub current_phase: Option<Phase>,
    /// When `current_phase` began.
    pub phase_since: Instant,
}

impl TaskRecord {
    /// Task duration so far / total.
    pub fn duration(&self) -> Duration {
        self.finished_at
            .unwrap_or_else(Instant::now)
            .duration_since(self.started_at)
    }

    /// Did the task finish after its deadline?
    pub fn missed_deadline(&self) -> bool {
        match (self.deadline, self.finished_at) {
            (Some(d), Some(f)) => f > d,
            (Some(d), None) => Instant::now() > d,
            _ => false,
        }
    }

    /// Roll the phase ledger: bank the open phase's elapsed time at
    /// `now`, then open `next` (or close the ledger with `None`). The
    /// timestamps chain — each segment ends exactly where the next
    /// begins — so when [`TaskTracker::finish`] closes the ledger with
    /// the same `now` it stamps `finished_at` with, the phase durations
    /// telescope to *exactly* `finished_at - started_at`. No-op once
    /// the ledger is closed.
    fn roll_phase(&mut self, next: Option<Phase>, now: Instant) {
        let Some(cur) = self.current_phase else { return };
        self.phases.phases[cur.index()] += now.saturating_duration_since(self.phase_since);
        self.current_phase = next;
        self.phase_since = now;
    }
}

/// The tracker.
#[derive(Default)]
pub struct TaskTracker {
    state: Mutex<FxHashMap<String, TaskRecord>>,
    cond: Condvar,
    /// Tasks started but not yet final — kept as an atomic beside the
    /// map so the admission gate can read it without taking the lock.
    running: AtomicU64,
    /// Start→complete latency (`gozer_task_latency_seconds`), observed
    /// once per task by the [`finish`](Self::finish) that ends it.
    pub(crate) latency: Arc<Histogram>,
    /// One histogram per [`Phase`] (`gozer_task_phase_seconds`), indexed
    /// by `Phase::index()`: each finished task's nonzero phase totals,
    /// observed with its latency. The closed enum *is* the cardinality
    /// guard: the label space is exactly `PHASE_COUNT` phases × deployed
    /// services. (Admission, which happens before a task exists, is
    /// observed by the admission gate.)
    pub(crate) phase_hists: [Arc<Histogram>; PHASE_COUNT],
}

impl TaskTracker {
    /// Fresh tracker.
    pub fn new() -> TaskTracker {
        TaskTracker::default()
    }

    /// Register a new running task; a task already known keeps its
    /// record (whoever names a task registers it, and `Start` may be
    /// delivered more than once). The phase ledger opens in
    /// `queue_wait` at the same instant `started_at` is stamped, so the
    /// decomposition covers the full tracker window from nanosecond
    /// zero.
    pub fn task_started(&self, id: &str, deadline: Option<Instant>) {
        self.register(&mut self.state.lock(), id, deadline);
    }

    /// [`task_started`](Self::task_started) and the birth of the task's
    /// main fiber, under one lock: what `Start` records.
    pub fn task_born(&self, id: &str, deadline: Option<Instant>) {
        self.register(&mut self.state.lock(), id, deadline).fibers_created += 1;
    }

    fn register<'a>(
        &self,
        st: &'a mut FxHashMap<String, TaskRecord>,
        id: &str,
        deadline: Option<Instant>,
    ) -> &'a mut TaskRecord {
        if !st.contains_key(id) {
            self.running.fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();
            st.insert(
                id.to_string(),
                TaskRecord {
                    id: id.to_string(),
                    status: TaskStatus::Running,
                    fibers_created: 0,
                    fibers_finished: 0,
                    started_at: now,
                    finished_at: None,
                    deadline,
                    phases: PhaseBreakdown::default(),
                    current_phase: Some(Phase::QueueWait),
                    phase_since: now,
                },
            );
        }
        st.get_mut(id).expect("the task was registered above")
    }

    /// Flip a task's ledger into `phase`: bank the open phase's time
    /// and start accumulating under the new label. Called by the
    /// engine on its own transitions (serialize, VM entry, suspension)
    /// and by the broker via the cluster's phase observer (durability
    /// parks, lease expiries, requeues). No-op for unknown or final
    /// tasks.
    pub fn note_phase(&self, task_id: &str, phase: Phase) {
        let mut st = self.state.lock();
        if let Some(rec) = st.get_mut(task_id) {
            rec.roll_phase(Some(phase), Instant::now());
        }
    }

    /// Record fiber creation.
    pub fn fiber_created(&self, task_id: &str) {
        if let Some(rec) = self.state.lock().get_mut(task_id) {
            rec.fibers_created += 1;
        }
    }

    /// Record fiber completion.
    pub fn fiber_finished(&self, task_id: &str) {
        if let Some(rec) = self.state.lock().get_mut(task_id) {
            rec.fibers_finished += 1;
        }
    }

    /// Move a task to a final state (first writer wins; later attempts —
    /// e.g. a fiber noticing termination — are ignored). The call that
    /// performs the transition observes the task's latency and its
    /// nonzero phase totals before it releases the lock, so a waiter
    /// that sees the task final also sees it counted. Returns whether
    /// this call made the transition: `false` on duplicates and unknown
    /// tasks.
    pub fn finish(&self, task_id: &str, status: TaskStatus) -> bool {
        debug_assert!(status.is_final());
        let mut st = self.state.lock();
        let Some(rec) = st.get_mut(task_id).filter(|r| !r.status.is_final()) else {
            return false;
        };
        let now = Instant::now();
        // Close the ledger with the same instant the duration uses: the
        // phase durations telescope to exactly the latency observation.
        rec.roll_phase(None, now);
        rec.status = status;
        rec.finished_at = Some(now);
        let latency = now.duration_since(rec.started_at);
        self.latency.observe_duration(latency);
        for (hist, spent) in self.phase_hists.iter().zip(rec.phases.phases) {
            if !spent.is_zero() {
                hist.observe_duration(spent);
            }
        }
        self.running.fetch_sub(1, Ordering::Relaxed);
        drop(st);
        self.cond.notify_all();
        true
    }

    /// Tasks started but not yet final (the admission gate's in-flight
    /// count).
    pub fn running_count(&self) -> u64 {
        self.running.load(Ordering::Relaxed)
    }

    /// Current record.
    pub fn get(&self, task_id: &str) -> Option<TaskRecord> {
        self.state.lock().get(task_id).cloned()
    }

    /// The task's deadline, if it has one.
    pub fn deadline(&self, task_id: &str) -> Option<Instant> {
        self.state.lock().get(task_id).and_then(|r| r.deadline)
    }

    /// Current status.
    pub fn status(&self, task_id: &str) -> Option<TaskStatus> {
        self.state.lock().get(task_id).map(|r| r.status.clone())
    }

    /// Whether the task is known and has reached a final state.
    pub fn is_final(&self, task_id: &str) -> bool {
        self.state
            .lock()
            .get(task_id)
            .is_some_and(|r| r.status.is_final())
    }

    /// Block until the task reaches a final state. `None` on timeout or
    /// unknown task.
    pub fn wait(&self, task_id: &str, timeout: Duration) -> Option<TaskRecord> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        loop {
            match st.get(task_id) {
                Some(rec) if rec.status.is_final() => return Some(rec.clone()),
                Some(_) => {}
                None => return None,
            }
            if self.cond.wait_until(&mut st, deadline).timed_out() {
                return None;
            }
        }
    }

    /// All records (for reporting).
    pub fn all(&self) -> Vec<TaskRecord> {
        self.state.lock().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lifecycle() {
        let t = TaskTracker::new();
        t.task_started("t1", None);
        t.fiber_created("t1");
        t.fiber_created("t1");
        t.fiber_finished("t1");
        assert_eq!(t.status("t1"), Some(TaskStatus::Running));
        assert!(!t.is_final("t1") && !t.is_final("unknown"));
        t.finish("t1", TaskStatus::Completed(Value::Int(7)));
        assert!(t.is_final("t1"));
        let rec = t.get("t1").unwrap();
        assert_eq!(rec.status, TaskStatus::Completed(Value::Int(7)));
        assert_eq!(rec.fibers_created, 2);
        assert!(rec.finished_at.is_some());
    }

    #[test]
    fn first_final_status_wins() {
        let t = TaskTracker::new();
        t.task_started("t1", None);
        t.finish("t1", TaskStatus::Completed(Value::Int(1)));
        t.finish("t1", TaskStatus::Failed(Condition::error("late")));
        assert_eq!(t.status("t1"), Some(TaskStatus::Completed(Value::Int(1))));
    }

    #[test]
    fn wait_blocks_until_done() {
        let t = Arc::new(TaskTracker::new());
        t.task_started("t1", None);
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.wait("t1", Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        t.finish("t1", TaskStatus::Completed(Value::Nil));
        let rec = h.join().unwrap().unwrap();
        assert!(rec.status.is_final());
    }

    #[test]
    fn wait_times_out() {
        let t = TaskTracker::new();
        t.task_started("t1", None);
        assert!(t.wait("t1", Duration::from_millis(20)).is_none());
        assert!(t.wait("unknown", Duration::from_millis(1)).is_none());
    }

    #[test]
    fn running_count_tracks_inflight() {
        let t = TaskTracker::new();
        assert_eq!(t.running_count(), 0);
        t.task_started("a", None);
        t.task_started("b", None);
        // Registering a known task again changes nothing.
        t.task_started("b", None);
        assert_eq!(t.running_count(), 2);
        assert!(t.finish("a", TaskStatus::Completed(Value::Nil)));
        assert_eq!(t.running_count(), 1);
        // A duplicate finish yields no sample and no double decrement.
        assert!(!t.finish("a", TaskStatus::Failed(Condition::error("late"))));
        assert_eq!(t.running_count(), 1);
        assert!(!t.finish("unknown", TaskStatus::Completed(Value::Nil)));
        assert_eq!(t.running_count(), 1);
    }

    /// The headline invariant: the phase durations of a finished task
    /// sum to *exactly* its measured latency — not "within tolerance",
    /// exactly, because every ledger roll chains the same instants.
    #[test]
    fn phase_ledger_sums_exactly_to_duration() {
        let t = TaskTracker::new();
        t.task_started("t1", None);
        t.note_phase("t1", Phase::Deserialize);
        t.note_phase("t1", Phase::VmExec);
        std::thread::sleep(Duration::from_millis(2));
        t.note_phase("t1", Phase::ServiceWait);
        t.note_phase("t1", Phase::VmExec);
        assert!(t.finish("t1", TaskStatus::Completed(Value::Nil)));
        let rec = t.get("t1").unwrap();
        let d = rec.duration();
        assert_eq!(rec.phases.total(), d);
        // The finish observed that same latency and every banked phase.
        let latency = t.latency.snapshot();
        assert_eq!((latency.count, latency.sum_nanos), (1, d.as_nanos() as u64));
        let vm = t.phase_hists[Phase::VmExec.index()].snapshot();
        assert_eq!(vm.sum_nanos, rec.phases.get(Phase::VmExec).as_nanos() as u64);
        assert_eq!(rec.current_phase, None);
        assert!(rec.phases.get(Phase::VmExec) >= Duration::from_millis(2));
        // Every banked phase was visited; admission never is (it lives
        // outside the tracker window).
        assert_eq!(rec.phases.get(Phase::Admission), Duration::ZERO);
        // The ledger is closed: later flips change nothing.
        t.note_phase("t1", Phase::QueueWait);
        assert_eq!(t.get("t1").unwrap().phases.total(), d);
    }

    #[test]
    fn phase_ledger_opens_in_queue_wait() {
        let t = TaskTracker::new();
        t.task_started("t1", None);
        let rec = t.get("t1").unwrap();
        assert_eq!(rec.current_phase, Some(Phase::QueueWait));
        assert_eq!(rec.phase_since, rec.started_at);
        // A task that never left the queue attributes everything there.
        std::thread::sleep(Duration::from_millis(1));
        assert!(t.finish("t1", TaskStatus::Failed(Condition::error("x"))));
        let rec = t.get("t1").unwrap();
        assert_eq!(rec.phases.get(Phase::QueueWait), rec.duration());
    }

    #[test]
    fn note_phase_on_unknown_task_is_noop() {
        let t = TaskTracker::new();
        t.note_phase("ghost", Phase::VmExec);
        assert!(t.get("ghost").is_none());
    }

    #[test]
    fn deadline_tracking() {
        let t = TaskTracker::new();
        t.task_started("late", Some(Instant::now() - Duration::from_secs(1)));
        t.finish("late", TaskStatus::Completed(Value::Nil));
        assert!(t.get("late").unwrap().missed_deadline());

        t.task_started("ok", Some(Instant::now() + Duration::from_secs(60)));
        t.finish("ok", TaskStatus::Completed(Value::Nil));
        assert!(!t.get("ok").unwrap().missed_deadline());
    }
}
