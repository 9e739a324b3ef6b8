//! The deployment supervisor: turns node failure into a non-event.
//!
//! One background thread per deployment watches three things:
//!
//! 1. **Staffing** — a running task whose service has zero live
//!    instances gets fresh instances on a new node id
//!    ([`SupervisorConfig::respawn_instances`]). State lives in the
//!    store, not in instances, so the respawned node picks up exactly
//!    where the dead one left off.
//! 2. **Orphaned continuations** — when the deployment is quiescent
//!    (empty queue, nothing leased) but a task is still running, some
//!    resume message was lost for good (dead-lettered, or its sender
//!    died before sending). The supervisor enumerates the task's fibers
//!    by their base snapshots and re-sends the message that moves each
//!    one forward: `RunFiber` for never-started fibers, `AwakeFiber` for
//!    parents whose children finished, `JoinProcess` for joins whose
//!    target completed. All of these are idempotent on the service side
//!    (phase checks and consumed-sets), so re-sending is always safe.
//! 3. **In-flight service calls** — every async call is recorded under
//!    `call-req/<correlation>`; a call with no reply after
//!    [`RetryPolicy::call_timeout`] is re-sent (same correlation) until
//!    [`RetryPolicy::max_attempts`], then surfaced to the fiber as a
//!    `{vinz}CallTimeout` fault, where `retry`/`give-up` restarts take
//!    over.
//!
//! Separately, a dead-letter observer registered with the broker maps a
//! quarantined message back to its task and finishes it with a terminal
//! `Failed` status (plus a flight dump when the recorder is armed) —
//! the paper's survivability story needs a *defined* end state for
//! poison messages, not an eternal hang.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bluebox::{Message, ReplyTo};
use gozer_obs::{Event, EventKind};
use gozer_vm::Condition;

use crate::service::Inner;
use crate::tracker::TaskStatus;

/// Engine-level retry policy for asynchronous service calls.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total send attempts per call (the original send counts as one).
    pub max_attempts: u32,
    /// Base delay before a retry send (scaled linearly by attempt).
    pub backoff: Duration,
    /// Upper bound on the deterministic per-call jitter added to the
    /// backoff (derived from the correlation id, not a clock).
    pub jitter: Duration,
    /// How long a call may stay unanswered before the supervisor
    /// re-sends it (or, out of attempts, synthesizes a
    /// `{vinz}CallTimeout` fault).
    pub call_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(10),
            jitter: Duration::from_millis(10),
            call_timeout: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Delay before the `attempt`-th re-send (1-based), with the
    /// correlation-derived jitter mixed in.
    pub fn delay_for(&self, attempt: u32, correlation: u64) -> Duration {
        let jitter_ms = self.jitter.as_millis().max(1) as u64;
        let jitter = Duration::from_millis((correlation ^ attempt as u64) % jitter_ms);
        self.backoff.saturating_mul(attempt.max(1)) + jitter
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
    /// Instances spawned when a running task's service has none left.
    pub respawn_instances: usize,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            enabled: true,
            interval: Duration::from_millis(25),
            stall_after: Duration::from_secs(1),
            respawn_instances: 2,
        }
    }
}

// ---- call-req records -------------------------------------------------

/// The durable record of one in-flight async call, everything needed to
/// re-send it: stored under `call-req/<correlation>` by
/// `call-wsdl-operation-async`, consumed by `ResumeFromCall`.
pub(crate) struct CallReq {
    pub service: String,
    pub operation: String,
    pub soap_action: String,
    pub task: String,
    pub fiber: String,
    pub attempts: u32,
    pub body: Vec<u8>,
}

const FIELD_SEP: char = '\x1f';

impl CallReq {
    pub fn encode(&self) -> Vec<u8> {
        let head = format!(
            "{}{FIELD_SEP}{}{FIELD_SEP}{}{FIELD_SEP}{}{FIELD_SEP}{}{FIELD_SEP}{}\n",
            self.service, self.operation, self.soap_action, self.task, self.fiber, self.attempts
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    pub fn decode(bytes: &[u8]) -> Option<CallReq> {
        let nl = bytes.iter().position(|&b| b == b'\n')?;
        let head = std::str::from_utf8(&bytes[..nl]).ok()?;
        let mut parts = head.split(FIELD_SEP);
        Some(CallReq {
            service: parts.next()?.to_string(),
            operation: parts.next()?.to_string(),
            soap_action: parts.next()?.to_string(),
            task: parts.next()?.to_string(),
            fiber: parts.next()?.to_string(),
            attempts: parts.next()?.parse().ok()?,
            body: bytes[nl + 1..].to_vec(),
        })
    }

    /// The request message this record re-creates, reply routed back to
    /// `reply_service`'s ResumeFromCall under the same correlation.
    pub fn to_message(&self, reply_service: &str, correlation: u64) -> Message {
        let mut msg = Message::new(&self.service, &self.operation, self.body.clone())
            .header("soap-action", self.soap_action.as_str())
            .header("task-id", self.task.as_str())
            .header("fiber-id", self.fiber.as_str());
        msg.reply_to = ReplyTo::Service {
            service: reply_service.to_string(),
            operation: "ResumeFromCall".to_string(),
            correlation,
        };
        msg
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
    resent: HashMap<String, Instant>,
    /// First time each in-flight call-req key was observed.
    call_seen: HashMap<String, Instant>,
}

fn supervise(weak: Weak<Inner>) {
    let mut st = ScanState {
        next_node: 100,
        stalled_since: None,
        resent: HashMap::new(),
        call_seen: HashMap::new(),
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
    scan_call_reqs(inner, st);
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
            .spawn_instances(&inner.name, node, cfg.respawn_instances.max(1));
        inner
            .metrics
            .supervisor_respawns
            .fetch_add(1, Ordering::Relaxed);
        inner.obs.bus.emit(|| {
            Event::new(EventKind::InstancesRespawned {
                service: inner.name.clone(),
                count: cfg.respawn_instances.max(1),
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
        if let Err(e) = resume_orphans(inner, st, task) {
            // Store trouble: report through the trace and move on; the
            // next tick retries.
            let _ = e;
        }
    }
}

/// Re-send whatever moves each unfinished fiber of `task` forward.
fn resume_orphans(inner: &Arc<Inner>, st: &mut ScanState, task: &str) -> Result<(), crate::service::VinzError> {
    let cooldown = inner.config.supervision.stall_after;
    // Every fiber has a base snapshot from birth on: `fiber/{id}`, or
    // `fiber/{id}@{generation}` once its chain has been compacted.
    let base_keys = inner
        .store
        .list(&format!("fiber/{task}/"))
        .map_err(|e| crate::service::VinzError(e.to_string()))?;
    let fibers = base_keys
        .iter()
        .filter_map(|key| key.strip_prefix("fiber/"))
        .map(|base| base.split('@').next().unwrap_or(base));
    for fiber_id in fibers {
        match inner.fiber_phase(fiber_id)?.0 {
            "initial" => {
                // The RunFiber that would start this fiber is gone.
                if mark_resent(st, &format!("run:{fiber_id}"), cooldown) {
                    inner.send_run_fiber(fiber_id, inner.tracker.deadline(task));
                    note_orphan(inner, fiber_id, "run-fiber");
                }
            }
            "suspended" => {
                let crumb = inner
                    .store
                    .get(&format!("susp/{fiber_id}"))
                    .map_err(|e| crate::service::VinzError(e.to_string()))?
                    .map(|b| String::from_utf8_lossy(&b).into_owned())
                    .unwrap_or_default();
                let mut lines = crumb.lines();
                let reason = lines.next().unwrap_or("").to_string();
                let target = lines.next().unwrap_or("").to_string();
                match reason.as_str() {
                    "join" if !target.is_empty() => {
                        let done = inner
                            .store
                            .get(&format!("result/{target}"))
                            .map_err(|e| crate::service::VinzError(e.to_string()))?
                            .is_some();
                        if done && mark_resent(st, &format!("join:{fiber_id}:{target}"), cooldown) {
                            inner.send_join(fiber_id, &target);
                            note_orphan(inner, fiber_id, "join");
                        }
                    }
                    "children" => {
                        // Re-deliver the termination wake-up of every
                        // finished child; AwakeFiber's consumed-set drops
                        // the ones the parent already saw.
                        let registry = format!("children/{fiber_id}/");
                        let children = inner
                            .store
                            .list(&registry)
                            .map_err(|e| crate::service::VinzError(e.to_string()))?;
                        for child in children.iter().filter_map(|k| k.strip_prefix(&registry)) {
                            let done = inner
                                .store
                                .get(&format!("result/{child}"))
                                .map_err(|e| crate::service::VinzError(e.to_string()))?
                                .is_some();
                            if done
                                && mark_resent(st, &format!("awake:{fiber_id}:{child}"), cooldown)
                            {
                                inner.send_awake(fiber_id, child);
                                note_orphan(inner, fiber_id, "awake");
                            }
                        }
                    }
                    // service-call suspensions are owned by the call-req
                    // scan (timeout-driven, not stall-driven).
                    _ => {}
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Watch `call-req/` records: re-send unanswered calls, then give up
/// with a synthesized timeout fault.
fn scan_call_reqs(inner: &Arc<Inner>, st: &mut ScanState) {
    let retry = &inner.config.retry;
    let Ok(keys) = inner.store.list("call-req/") else { return };
    st.call_seen.retain(|k, _| keys.contains(k));
    for key in keys {
        let first = *st.call_seen.entry(key.clone()).or_insert_with(Instant::now);
        if first.elapsed() < retry.call_timeout {
            continue;
        }
        let Some(corr_str) = key.strip_prefix("call-req/") else { continue };
        let Ok(correlation) = corr_str.parse::<u64>() else { continue };
        let Ok(Some(bytes)) = inner.store.get(&key) else { continue };
        let Some(mut req) = CallReq::decode(&bytes) else { continue };
        if req.attempts < retry.max_attempts {
            req.attempts += 1;
            if inner.store.put(&key, &req.encode()).is_err() {
                continue;
            }
            inner.metrics.calls_retried.fetch_add(1, Ordering::Relaxed);
            inner.obs.bus.emit(|| {
                Event::new(EventKind::CallRetried { attempt: req.attempts })
                    .task(req.task.as_str())
                    .fiber(req.fiber.as_str())
            });
            inner
                .cluster
                .send(req.to_message(&inner.name, correlation));
            st.call_seen.insert(key, Instant::now());
        } else {
            // Out of attempts: surface a timeout fault to the fiber.
            // ResumeFromCall consumes the correlation and the fiber's
            // restarts (`retry` / `give-up`) decide what happens next.
            let _ = inner.store.delete(&key);
            st.call_seen.remove(&key);
            inner.cluster.send(
                Message::new(&inner.name, "ResumeFromCall", Vec::new())
                    .header("correlation", corr_str)
                    .header("fault-code", "{vinz}CallTimeout")
                    .header(
                        "fault-message",
                        format!(
                            "{}:{} unanswered after {} attempt(s)",
                            req.service, req.operation, req.attempts
                        ),
                    ),
            );
        }
    }
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
        if dl.service != inner.name {
            return;
        }
        // Recover the task id: workflow messages carry it directly or
        // via the fiber id; ResumeFromCall only knows its correlation.
        let task = dl
            .msg
            .get_header("task-id")
            .map(str::to_owned)
            .or_else(|| {
                dl.msg
                    .get_header("fiber-id")
                    .map(|f| f.split('/').next().unwrap_or(f).to_owned())
            })
            .or_else(|| {
                let corr = dl.msg.get_header("correlation")?;
                let fiber = inner.store.get(&format!("corr/{corr}")).ok().flatten()?;
                let fiber = String::from_utf8_lossy(&fiber).into_owned();
                Some(fiber.split('/').next().unwrap_or(&fiber).to_owned())
            });
        let Some(task) = task else { return };
        if inner.task_finished(&task) {
            return;
        }
        let fiber = dl.msg.get_header("fiber-id").unwrap_or(task.as_str()).to_string();
        let cond = Condition::with_types(
            vec!["dead-letter".into(), "error".into()],
            format!(
                "{} message {} dead-lettered: {}",
                dl.msg.operation, dl.msg.id, dl.reason
            ),
            gozer_lang::Value::Nil,
        );
        inner
            .metrics
            .tasks_dead_lettered
            .fetch_add(1, Ordering::Relaxed);
        inner.emit(u32::MAX, u64::MAX, &fiber, || EventKind::TaskDone {
            outcome: "failed".into(),
        });
        if inner.obs.flight.is_armed() {
            let dump = inner.flight_dump(&format!(
                "task {task} failed: {} dead-lettered ({})",
                dl.msg.operation, dl.reason
            ));
            let _ = inner.obs.flight.record(&format!("{task}-dead-letter"), &dump);
        }
        inner.finish_task(&task, TaskStatus::Failed(cond));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_req_round_trips() {
        let req = CallReq {
            service: "pricing".into(),
            operation: "Quote".into(),
            soap_action: "urn:q".into(),
            task: "task-1".into(),
            fiber: "task-1/f0".into(),
            attempts: 2,
            body: vec![0, 1, 2, 0xff, b'\n', 3],
        };
        let back = CallReq::decode(&req.encode()).expect("decodes");
        assert_eq!(back.service, "pricing");
        assert_eq!(back.operation, "Quote");
        assert_eq!(back.soap_action, "urn:q");
        assert_eq!(back.task, "task-1");
        assert_eq!(back.fiber, "task-1/f0");
        assert_eq!(back.attempts, 2);
        assert_eq!(back.body, vec![0, 1, 2, 0xff, b'\n', 3]);
    }

    #[test]
    fn retry_delay_scales_and_is_deterministic() {
        let p = RetryPolicy {
            backoff: Duration::from_millis(10),
            jitter: Duration::from_millis(8),
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay_for(1, 42), p.delay_for(1, 42));
        assert!(p.delay_for(3, 42) >= Duration::from_millis(30));
        assert!(p.delay_for(1, 42) < Duration::from_millis(10 + 8));
    }
}
