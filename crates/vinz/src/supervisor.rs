//! The deployment supervisor: turns node failure into a non-event.
//!
//! One background thread per deployment watches three things:
//!
//! 1. **Staffing** — a running task whose service has zero live
//!    instances gets `RESPAWN_INSTANCES` (2) fresh instances on a new
//!    node id. State lives in the store, not in instances, so the
//!    respawned node picks up exactly where the dead one left off.
//! 2. **Orphaned continuations** — when the deployment is quiescent
//!    (empty queue, nothing leased) but a task is still running, some
//!    resume message was lost for good (dead-lettered, or its sender
//!    died before sending). The supervisor enumerates the task's fibers
//!    by their base snapshots and re-sends the message that moves each
//!    one forward: `RunFiber` for never-started fibers, `AwakeFiber` for
//!    parents whose children finished, `JoinProcess` for joins whose
//!    target completed. All of these are idempotent on the service side
//!    (phase checks and consumed-sets), so re-sending is always safe.
//! 3. **In-flight service calls** — each tick runs the timeout scan of
//!    [`crate::calls`] over the `call-req/` records: a call with no reply
//!    after [`RetryPolicy::call_timeout`] is re-sent (same correlation)
//!    until [`RetryPolicy::max_attempts`], then surfaced to the fiber as
//!    a `{vinz}CallTimeout` fault, where `retry`/`give-up` restarts take
//!    over. The supervisor only keeps when it first saw each record.
//!
//! Separately, a dead-letter observer registered with the broker finds
//! a quarantined message's task from its `task-id` / `fiber-id` headers
//! (every workflow message carries one) and fails it through
//! [`Inner::fail_task`] — the paper's survivability story needs a
//! *defined* end state for poison messages, not an eternal hang.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use gozer_obs::{Event, EventKind};
use gozer_vm::Condition;
use rustc_hash::FxHashMap;

use crate::host::{FiberPhase, Wait};
use crate::service::{Inner, VinzError};

/// Base delay before a call's retry send, scaled linearly by attempt.
const BACKOFF: Duration = Duration::from_millis(10);

/// Upper bound on the deterministic per-call jitter added to the
/// backoff (derived from the correlation id, not a clock).
const JITTER: Duration = Duration::from_millis(10);

/// Instances spawned when a running task's service has none left.
const RESPAWN_INSTANCES: usize = 2;

/// Engine-level retry policy for asynchronous service calls.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total send attempts per call (the original send counts as one).
    pub max_attempts: u32,
    /// How long a call may stay unanswered before the supervisor
    /// re-sends it (or, out of attempts, synthesizes a
    /// `{vinz}CallTimeout` fault).
    pub call_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            call_timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Delay before the `attempt`-th re-send (1-based), with the
    /// correlation-derived jitter mixed in.
    pub fn delay_for(&self, attempt: u32, correlation: u64) -> Duration {
        let jitter = Duration::from_millis((correlation ^ attempt as u64) % JITTER.as_millis() as u64);
        BACKOFF.saturating_mul(attempt.max(1)) + jitter
    }
}

/// Tunables for the deployment supervisor thread.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Run the supervisor at all (tests of raw engine behaviour turn it
    /// off).
    pub enabled: bool,
    /// Scan cadence.
    pub interval: Duration,
    /// How long the deployment must be quiescent (empty queue, nothing
    /// leased, tasks still running) before the orphan scan re-sends
    /// resume messages.
    pub stall_after: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            interval: Duration::from_millis(25),
            stall_after: Duration::from_secs(1),
        }
    }
}

// ---- the supervisor thread --------------------------------------------

/// Start the supervisor thread for a deployment. Holds only a weak
/// reference: dropping the service (or shutting the cluster down) ends
/// the thread.
pub(crate) fn start(inner: &Arc<Inner>) {
    if !inner.config.supervision.enabled {
        return;
    }
    let weak = Arc::downgrade(inner);
    std::thread::Builder::new()
        .name(format!("vinz-supervisor-{}", inner.name))
        .spawn(move || supervise(weak))
        .expect("spawn supervisor thread");
}

struct ScanState {
    /// Next node id used for respawned instances (clear of the ids
    /// tests use for their own topologies).
    next_node: u32,
    /// When the deployment was last seen quiescent-but-unfinished.
    stalled_since: Option<Instant>,
    /// Resume messages re-sent recently (cooldown keyed by a
    /// per-message string), so a slow resume isn't spammed every tick.
    resent: FxHashMap<String, Instant>,
    /// First time each in-flight call-req key was observed.
    call_seen: FxHashMap<String, Instant>,
}

fn supervise(weak: Weak<Inner>) {
    let mut st = ScanState {
        next_node: 100,
        stalled_since: None,
        resent: FxHashMap::default(),
        call_seen: FxHashMap::default(),
    };
    loop {
        let interval = {
            let Some(inner) = weak.upgrade() else { return };
            if inner.cluster.is_shutdown() {
                return;
            }
            tick(&inner, &mut st);
            inner.config.supervision.interval
        };
        std::thread::sleep(interval);
    }
}

fn tick(inner: &Arc<Inner>, st: &mut ScanState) {
    let cfg = &inner.config.supervision;
    let running: Vec<String> = inner
        .tracker
        .all()
        .into_iter()
        .filter(|r| !r.status.is_final())
        .map(|r| r.id)
        .collect();
    crate::calls::scan(inner, &mut st.call_seen);
    if running.is_empty() {
        st.stalled_since = None;
        return;
    }

    // 1. Staffing: a running task with no instances left can make no
    // progress at all — respawn on a fresh node.
    if inner.cluster.live_instances(&inner.name) == 0 {
        let node = st.next_node;
        st.next_node += 1;
        inner
            .cluster
            .spawn_instances(&inner.name, node, RESPAWN_INSTANCES);
        inner
            .metrics
            .supervisor_respawns
            .fetch_add(1, Ordering::Relaxed);
        inner.obs.bus.emit(|| {
            Event::new(EventKind::InstancesRespawned {
                service: inner.name.clone(),
                count: RESPAWN_INSTANCES,
            })
        });
    }

    // 2. Orphan scan, only once the deployment has been quiescent for
    // stall_after: messages still queued or leased will move things
    // forward on their own (the broker's reaper guarantees leased
    // messages come back).
    let quiescent = inner.cluster.queue_depth(&inner.name) == 0
        && inner.cluster.in_flight(&inner.name) == 0;
    if !quiescent {
        st.stalled_since = None;
        return;
    }
    let since = *st.stalled_since.get_or_insert_with(Instant::now);
    if since.elapsed() < cfg.stall_after {
        return;
    }
    for task in &running {
        // Store trouble: move on; the next tick retries.
        let _ = resume_orphans(inner, st, task);
    }
}

/// Re-send whatever moves each unfinished fiber of `task` forward.
fn resume_orphans(inner: &Arc<Inner>, st: &mut ScanState, task: &str) -> Result<(), VinzError> {
    let cooldown = inner.config.supervision.stall_after;
    for fiber_id in &inner.fibers_of(task)? {
        match inner.fiber_phase(fiber_id)?.0 {
            FiberPhase::Initial => {
                // The RunFiber that would start this fiber is gone.
                if mark_resent(st, &format!("run:{fiber_id}"), cooldown) {
                    // Counted before the send: the fiber may finish first.
                    note_orphan(inner, fiber_id, "run-fiber");
                    inner.send_run_fiber(fiber_id, inner.tracker.deadline(task));
                }
            }
            FiberPhase::Suspended => match inner.wait_of(fiber_id)? {
                Some(Wait::Join(target))
                    if inner.fiber_done(&target)?
                        && mark_resent(st, &format!("join:{fiber_id}:{target}"), cooldown) =>
                {
                    note_orphan(inner, fiber_id, "join");
                    inner.send_join(fiber_id, &target);
                }
                Some(Wait::Children) => {
                    // Re-deliver the termination wake-up of every
                    // finished child; AwakeFiber's consumed-set drops the
                    // ones the parent already saw.
                    for child in inner.children_of(fiber_id)? {
                        if inner.fiber_done(&child)?
                            && mark_resent(st, &format!("awake:{fiber_id}:{child}"), cooldown)
                        {
                            note_orphan(inner, fiber_id, "awake");
                            inner.send_awake(fiber_id, &child);
                        }
                    }
                }
                // Service-call suspensions are owned by the timeout scan
                // of `calls` (timeout-driven, not stall-driven).
                _ => {}
            },
            FiberPhase::Done => {}
        }
    }
    Ok(())
}

fn mark_resent(st: &mut ScanState, key: &str, cooldown: Duration) -> bool {
    let now = Instant::now();
    match st.resent.get(key) {
        Some(at) if now.duration_since(*at) < cooldown => false,
        _ => {
            st.resent.insert(key.to_string(), now);
            true
        }
    }
}

fn note_orphan(inner: &Arc<Inner>, fiber_id: &str, via: &str) {
    inner.metrics.orphans_resumed.fetch_add(1, Ordering::Relaxed);
    inner
        .obs
        .bus
        .emit(|| Event::new(EventKind::OrphanResumed { via: via.to_string() }).fiber(fiber_id));
}

// ---- dead-letter handling ---------------------------------------------

/// Register the broker dead-letter observer that maps a quarantined
/// message back to its task and fails it terminally.
pub(crate) fn install_dead_letter_observer(inner: &Arc<Inner>) {
    let weak = Arc::downgrade(inner);
    inner.cluster.on_dead_letter(move |dl| {
        let Some(inner) = weak.upgrade() else { return };
        let Some(fiber) = dl.msg.get_header("fiber-id").or(dl.msg.get_header("task-id")) else { return };
        if dl.service != inner.name || inner.tracker.is_final(Inner::task_of(fiber)) {
            return;
        }
        let cond = Condition::with_types(
            vec!["dead-letter".into(), "error".into()],
            format!("{} message {} dead-lettered: {}", dl.msg.operation, dl.msg.id, dl.reason),
            gozer_lang::Value::Nil,
        );
        inner.metrics.tasks_dead_lettered.fetch_add(1, Ordering::Relaxed);
        inner.fail_task(u32::MAX, u64::MAX, fiber, "dead-letter", cond);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_scales_and_is_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.delay_for(1, 42), p.delay_for(1, 42));
        // BACKOFF × attempt + (correlation ^ attempt) mod JITTER.
        assert_eq!(p.delay_for(1, 42), BACKOFF + Duration::from_millis(43 % 10));
        assert_eq!(p.delay_for(3, 42), BACKOFF * 3 + Duration::from_millis(41 % 10));
        assert!(p.delay_for(1, 42) < BACKOFF + JITTER);
    }
}
