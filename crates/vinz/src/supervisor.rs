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
//!    the `calls` module over the `call-req/` records: a call with no reply
//!    after [`CALL_TIMEOUT`] is re-sent (same correlation) until
//!    [`MAX_ATTEMPTS`], then surfaced to the fiber as a
//!    `{vinz}CallTimeout` fault, where `retry`/`give-up` restarts take
//!    over. The supervisor only keeps when it first saw each record.
//!
//! Every one of these decisions takes `now` from the cluster's
//! [`bluebox::Clock`]; the thread only reads the clock and calls
//! `tick`, once per `INTERVAL` (25 ms) of real time.
//!
//! Dead letters are not the supervisor's: the broker tells the
//! deployment it serves of each one ([`bluebox::Deployment::dead_lettered`],
//! implemented in the `service` module), and that fails the message's
//! task — the paper's survivability story needs a *defined* end state
//! for poison messages, not an eternal hang.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use gozer_obs::{Event, EventKind};
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

/// Total send attempts per async service call (the original send
/// counts as one).
pub const MAX_ATTEMPTS: u32 = 3;

/// How long a call may stay unanswered before the supervisor re-sends
/// it (or, out of attempts, synthesizes a `{vinz}CallTimeout` fault).
pub const CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// The supervisor's scan cadence, in real time.
const INTERVAL: Duration = Duration::from_millis(25);

/// How long the deployment must be quiescent (empty queue, nothing
/// leased, tasks still running) before the orphan scan re-sends resume
/// messages; also the cooldown before one is re-sent again.
pub const STALL_AFTER: Duration = Duration::from_secs(1);

/// Delay before a call's `attempt`-th re-send (1-based), with the
/// correlation-derived jitter mixed in.
pub(crate) fn delay_for(attempt: u32, correlation: u64) -> Duration {
    let jitter = Duration::from_millis((correlation ^ attempt as u64) % JITTER.as_millis() as u64);
    BACKOFF.saturating_mul(attempt.max(1)) + jitter
}

/// Whether a deployment runs its supervisor thread.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Run the supervisor at all (tests of raw engine behaviour and the
    /// benchmarks turn it off).
    pub enabled: bool,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig { enabled: true }
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
        {
            let Some(inner) = weak.upgrade() else { return };
            if inner.cluster.is_shutdown() {
                return;
            }
            let now = inner.cluster.clock().now();
            tick(&inner, &mut st, now);
        }
        std::thread::sleep(INTERVAL);
    }
}

/// One supervisor scan at `now` (on the cluster's clock).
fn tick(inner: &Arc<Inner>, st: &mut ScanState, now: Instant) {
    let running: Vec<String> = inner
        .tracker
        .all()
        .into_iter()
        .filter(|r| !r.status.is_final())
        .map(|r| r.id)
        .collect();
    crate::calls::scan(inner, &mut st.call_seen, now);
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
    // STALL_AFTER: messages still queued or leased will move things
    // forward on their own (the broker's reaper guarantees leased
    // messages come back).
    let quiescent = inner.cluster.queue_depth(&inner.name) == 0
        && inner.cluster.in_flight(&inner.name) == 0;
    if !quiescent {
        st.stalled_since = None;
        return;
    }
    let since = *st.stalled_since.get_or_insert(now);
    if now.saturating_duration_since(since) < STALL_AFTER {
        return;
    }
    for task in &running {
        // Store trouble: move on; the next tick retries.
        let _ = resume_orphans(inner, st, task, now);
    }
}

/// Re-send whatever moves each unfinished fiber of `task` forward.
fn resume_orphans(inner: &Inner, st: &mut ScanState, task: &str, now: Instant) -> Result<(), VinzError> {
    for fiber_id in &inner.fibers_of(task)? {
        match inner.fiber_phase(fiber_id)?.0 {
            FiberPhase::Initial => {
                // The RunFiber that would start this fiber is gone.
                if mark_resent(st, &format!("run:{fiber_id}"), now) {
                    // Counted before the send: the fiber may finish first.
                    note_orphan(inner, fiber_id, "run-fiber");
                    inner.send_run_fiber(fiber_id, inner.tracker.deadline(task));
                }
            }
            FiberPhase::Suspended => match inner.wait_of(fiber_id)? {
                Some(Wait::Join(target))
                    if inner.fiber_done(&target)?
                        && mark_resent(st, &format!("join:{fiber_id}:{target}"), now) =>
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
                            && mark_resent(st, &format!("awake:{fiber_id}:{child}"), now)
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

/// Whether `key`'s resume may be re-sent at `now`: not within
/// [`STALL_AFTER`] of its last re-send. Marks it re-sent if so.
fn mark_resent(st: &mut ScanState, key: &str, now: Instant) -> bool {
    match st.resent.get(key) {
        Some(at) if now.saturating_duration_since(*at) < STALL_AFTER => false,
        _ => {
            st.resent.insert(key.to_string(), now);
            true
        }
    }
}

fn note_orphan(inner: &Inner, fiber_id: &str, via: &str) {
    inner.metrics.orphans_resumed.fetch_add(1, Ordering::Relaxed);
    inner
        .obs
        .bus
        .emit(|| Event::new(EventKind::OrphanResumed { via: via.to_string() }).fiber(fiber_id));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_delay_scales_and_is_deterministic() {
        assert_eq!(delay_for(1, 42), delay_for(1, 42));
        // BACKOFF × attempt + (correlation ^ attempt) mod JITTER.
        assert_eq!(delay_for(1, 42), BACKOFF + Duration::from_millis(43 % 10));
        assert_eq!(delay_for(3, 42), BACKOFF * 3 + Duration::from_millis(41 % 10));
        assert!(delay_for(1, 42) < BACKOFF + JITTER);
    }
}
