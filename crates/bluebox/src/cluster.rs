//! The cluster: broker, service registry, instances, failure injection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use gozer_obs::{task_of, Event, EventKind, Obs, Phase};
use gozer_xml::ServiceDescription;
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;

use crate::chaos::{ChaosPlan, FaultAction};
use crate::clock::Clock;
use crate::message::{Fault, Message, ReplyTo};
use crate::metrics::Metrics;
use crate::queue::{AffinityCounts, Policy, ServiceQueue};
use crate::recovery::{
    backoff_for, DeadLetter, Lease, PendingReclaim, RecoveryStats, RecoveryStatsSnapshot, LEASE_TTL,
    REDELIVERY_BUDGET, SCAN_INTERVAL,
};
use crate::tcp::{Conn, TcpBroker};

pub use crate::chaos::FaultPoint;

/// A service operation handler. One handler object serves every instance
/// of the service (instances are threads competing on the queue).
pub trait Handler: Send + Sync {
    /// Process one request; the reply body (possibly empty) or a fault.
    fn handle(&self, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, Fault>;
}

impl<F> Handler for F
where
    F: Fn(&ServiceCtx, &Message) -> Result<Vec<u8>, Fault> + Send + Sync,
{
    fn handle(&self, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, Fault> {
        self(ctx, msg)
    }
}

/// Context handed to a handler invocation.
pub struct ServiceCtx {
    /// The cluster (for nested calls and sends).
    pub cluster: Arc<Cluster>,
    /// The node this instance runs on (fiber caches are per-node).
    pub node_id: u32,
    /// The instance id.
    pub instance_id: u64,
    /// The service name.
    pub service: String,
}

/// Errors from synchronous calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallError {
    /// The service replied with a fault.
    Fault(Fault),
    /// No reply within the timeout.
    Timeout,
    /// The cluster is shutting down.
    Closed,
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Fault(fault) => write!(f, "fault: {fault}"),
            CallError::Timeout => write!(f, "call timed out"),
            CallError::Closed => write!(f, "cluster closed"),
        }
    }
}

impl std::error::Error for CallError {}

struct ServiceEntry {
    desc: Option<ServiceDescription>,
    handler: Arc<dyn Handler>,
}

pub(crate) struct InstanceControl {
    pub(crate) stop: AtomicBool,
    pub(crate) fault: Mutex<Option<FaultPoint>>,
    pub(crate) busy: AtomicBool,
    pub(crate) alive: AtomicBool,
    /// Last queue interaction (or, for a remote slot, last heartbeat
    /// frame from its worker process while the slot was idle), on the
    /// cluster's clock; the reaper expires a lease once both this and
    /// the lease's own start are older than the lease TTL.
    pub(crate) heartbeat: Mutex<Instant>,
}

impl InstanceControl {
    pub(crate) fn new(now: Instant) -> InstanceControl {
        InstanceControl {
            stop: AtomicBool::new(false),
            fault: Mutex::new(None),
            busy: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            heartbeat: Mutex::new(now),
        }
    }
}

/// What serves an instance's deliveries. Both kinds run the one
/// `instance_loop`: the same lease, chaos, kill and settle steps.
pub(crate) enum Slot {
    /// A handler on a thread of this process.
    Local(Arc<dyn Handler>),
    /// One slot of a remote worker process, reached over its connection.
    Remote(Arc<Conn>),
}

impl Slot {
    /// Whether the slot can serve no more: its worker's connection died.
    fn gone(&self) -> bool {
        matches!(self, Slot::Remote(conn) if conn.is_dead())
    }
}

struct InstanceHandle {
    id: u64,
    node_id: u32,
    service: String,
    control: Arc<InstanceControl>,
    thread: Option<JoinHandle<()>>,
}

/// Where a synchronous call's reply is handed to its waiting caller.
pub(crate) type ReplySlot = Sender<Result<Vec<u8>, Fault>>;

/// The workflow deployment a cluster serves, as the broker sees it:
/// one method per question the broker asks about the work it carries.
/// A cluster serves one ([`Cluster::attach`]). Every method but `name`
/// has the answer a cluster with no deployment gives, so an
/// implementation states only what it knows.
pub trait Deployment: Send + Sync {
    /// The deployment's name (a second [`Cluster::attach`] is refused
    /// with it).
    fn name(&self) -> &str;

    /// The node whose cache last held `fiber_id`: service replies
    /// (`ResumeFromCall`) are stamped with it so they chase the fiber
    /// they resume.
    fn affine_node(&self, _fiber_id: &str) -> Option<u32> {
        None
    }

    /// A broker transition changed what `task_id` waits on: parked on
    /// durability, released to a queue, lease expired, re-queued.
    fn note_phase(&self, _task_id: &str, _phase: Phase) {}

    /// Whether the store has committed `watermark`. A message gated on
    /// a watermark that is not durable yet is parked until
    /// [`Cluster::note_durable`] (or the reaper's re-probe) passes it.
    fn durable(&self, _watermark: u64) -> bool {
        true
    }

    /// `dl` was just quarantined: by the reaper once its redelivery
    /// budget ran out, or by [`Cluster::requeue_or_quarantine`].
    fn dead_lettered(&self, _dl: &DeadLetter) {}
}

/// The simulated BlueBox cluster.
pub struct Cluster {
    queues: RwLock<FxHashMap<String, Arc<ServiceQueue>>>,
    services: RwLock<FxHashMap<String, ServiceEntry>>,
    pending: Mutex<FxHashMap<u64, ReplySlot>>,
    instances: Mutex<Vec<InstanceHandle>>,
    next_msg_id: AtomicU64,
    next_corr: AtomicU64,
    next_instance: AtomicU64,
    policy: Policy,
    /// Steal slack applied to queues created from now on (see
    /// [`Cluster::set_affinity_slack`]).
    affinity_slack: RwLock<usize>,
    /// The affinity delivery counts every queue of this cluster adds to.
    affinity: AffinityCounts,
    /// The workflow deployment this cluster serves, once one has
    /// attached ([`Cluster::attach`]).
    deployment: OnceLock<Arc<dyn Deployment>>,
    chaos: RwLock<Option<Arc<ChaosPlan>>>,
    /// Broker metrics.
    pub metrics: Metrics,
    obs: Arc<Obs>,
    /// What every timeout decision reads (see [`Clock`]).
    clock: Clock,
    // --- recovery layer ---------------------------------------------------
    /// Outstanding leases by broker message id.
    leases: Mutex<FxHashMap<u64, Lease>>,
    /// Reclaimed messages waiting out their backoff (queue lease held).
    reclaims_pending: Mutex<Vec<PendingReclaim>>,
    /// Delayed sends ([`Cluster::send_after`]) by due time.
    delayed: Mutex<Vec<(Instant, Message)>>,
    /// Per-queue dead-letter stores.
    dead: Mutex<FxHashMap<String, Vec<DeadLetter>>>,
    recovery_stats: RecoveryStats,
    closed: AtomicBool,
    reaper: Mutex<Option<JoinHandle<()>>>,
    // --- speculative persistence (store watermark gating) -------------
    /// Messages parked until the store's commit watermark passes their
    /// `hold_until` gate. Dropped on shutdown — exactly what a crash
    /// would do to effects whose save never became durable.
    held: Mutex<Vec<Message>>,
    held_total: Arc<AtomicU64>,
    /// The TCP listener remote worker processes register through, once
    /// [`TcpBroker::start`] has put one up; shut down with the cluster.
    pub(crate) tcp: Mutex<Option<Arc<TcpBroker>>>,
}

impl Cluster {
    /// New cluster with FCFS queues (the production default, §5).
    pub fn new() -> Arc<Cluster> {
        Cluster::with_policy(Policy::Fcfs)
    }

    /// New cluster with the given queue scheduling policy.
    pub fn with_policy(policy: Policy) -> Arc<Cluster> {
        Cluster::build(policy, Clock::real())
    }

    /// New FCFS cluster whose timeouts read `clock`: tests hand it a
    /// [`Clock::manual`] and move time with [`Clock::advance`].
    pub fn with_clock(clock: Clock) -> Arc<Cluster> {
        Cluster::build(Policy::Fcfs, clock)
    }

    fn build(policy: Policy, clock: Clock) -> Arc<Cluster> {
        let obs = Arc::new(Obs::new());
        let cluster = Arc::new(Cluster {
            queues: RwLock::new(FxHashMap::default()),
            services: RwLock::new(FxHashMap::default()),
            pending: Mutex::new(FxHashMap::default()),
            instances: Mutex::new(Vec::new()),
            next_msg_id: AtomicU64::new(1),
            next_corr: AtomicU64::new(1),
            next_instance: AtomicU64::new(1),
            policy,
            affinity_slack: RwLock::new(crate::queue::DEFAULT_AFFINITY_SLACK),
            affinity: AffinityCounts::default(),
            deployment: OnceLock::new(),
            chaos: RwLock::new(None),
            metrics: Metrics::default(),
            obs,
            clock,
            leases: Mutex::new(FxHashMap::default()),
            reclaims_pending: Mutex::new(Vec::new()),
            delayed: Mutex::new(Vec::new()),
            dead: Mutex::new(FxHashMap::default()),
            recovery_stats: RecoveryStats::default(),
            closed: AtomicBool::new(false),
            reaper: Mutex::new(None),
            held: Mutex::new(Vec::new()),
            held_total: Arc::default(),
            tcp: Mutex::new(None),
        });
        cluster.register_metrics();
        let weak = Arc::downgrade(&cluster);
        let reaper = std::thread::Builder::new()
            .name("bb-reaper".into())
            .spawn(move || reaper_loop(weak))
            .expect("spawn reaper thread");
        *cluster.reaper.lock() = Some(reaper);
        cluster
    }

    /// Set the affinity steal slack for queues created from now on
    /// (0 disables affinity preference). Call before deploying services.
    pub fn set_affinity_slack(&self, slack: usize) {
        *self.affinity_slack.write() = slack;
    }

    /// Attach the workflow deployment this cluster serves. A cluster
    /// serves one: what the broker asks a deployment is cluster-wide.
    /// Fails with the holder's name if one is attached already.
    pub fn attach(&self, deployment: Arc<dyn Deployment>) -> Result<(), String> {
        let attached = self.deployment.set(deployment);
        attached.map_err(|_| self.deployment.get().expect("attached already").name().to_string())
    }

    /// Flip `msg`'s task (if the message is task-correlated: its
    /// `task-id` header, else its `fiber-id`'s task) into `phase`.
    fn note_phase(&self, msg: &Message, phase: Phase) {
        let Some(deployment) = self.deployment.get() else { return };
        let task = msg
            .get_header("task-id")
            .or_else(|| msg.get_header("fiber-id").and_then(task_of));
        if let Some(task) = task {
            deployment.note_phase(task, phase);
        }
    }

    /// The store's commit watermark advanced to `watermark`: release
    /// every held message whose gate it passes. Wired to the store's
    /// commit hook by the embedder.
    pub fn note_durable(&self, watermark: u64) {
        let ready: Vec<Message> = {
            let mut held = self.held.lock();
            if held.is_empty() {
                return;
            }
            let (ready, rest) = held.drain(..).partition(|m| m.hold_until <= watermark);
            *held = rest;
            ready
        };
        for msg in ready {
            self.release_held(msg);
        }
    }

    /// Deliver a message whose durability gate just opened: stamp how
    /// long it was parked (so queue-wait accounting can exclude it),
    /// flip its task back to `queue_wait`, and dispatch.
    fn release_held(&self, mut msg: Message) {
        let held = msg.enqueued_at.elapsed().as_nanos() as u64;
        msg.held_nanos = msg.held_nanos.saturating_add(held);
        self.obs.bus.emit(|| {
            msg_event(&msg, |service, operation| EventKind::MessageReleased {
                service,
                operation,
                held_nanos: held,
            })
        });
        self.note_phase(&msg, Phase::QueueWait);
        self.dispatch(msg);
    }

    /// Messages currently parked behind the speculative-send gate.
    pub fn held_count(&self) -> usize {
        self.held.lock().len()
    }

    /// Affinity delivery counters summed across queues, as
    /// `(hits, misses)` — the `gozer_affinity_hits_total` /
    /// `gozer_affinity_misses_total` metrics.
    pub fn affinity_stats(&self) -> (u64, u64) {
        let AffinityCounts { hits, misses } = &self.affinity;
        (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed))
    }

    /// Adopt every broker handle into the registry, and register the
    /// two gauges that are sizes of live structures.
    fn register_metrics(self: &Arc<Self>) {
        let reg = &self.obs.registry;
        self.metrics.register(reg);
        for (name, help, handle) in [
            (
                "bluebox_lease_reclaims_total",
                "In-flight messages reclaimed from dead or stale instances.",
                &self.recovery_stats.reclaims,
            ),
            (
                "gozer_dead_letters_total",
                "Messages quarantined after exhausting their redelivery budget.",
                &self.recovery_stats.dead_letters,
            ),
            (
                "gozer_affinity_hits_total",
                "Affinity-stamped messages delivered to their affine node.",
                &self.affinity.hits,
            ),
            (
                "gozer_affinity_misses_total",
                "Affinity-stamped messages delivered elsewhere (steal or dead node).",
                &self.affinity.misses,
            ),
            (
                "gozer_messages_held_total",
                "Outbound messages parked behind a not-yet-durable store watermark.",
                &self.held_total,
            ),
        ] {
            reg.counter(name, help, "", handle);
        }
        let weak = Arc::downgrade(self);
        reg.gauge_fn(
            "gozer_messages_held",
            "Messages currently parked awaiting durability.",
            "",
            move || weak.upgrade().map_or(0, |c| c.held.lock().len() as u64),
        );
        // Backpressure introspection: total waiting messages across all
        // service queues, read by admission gates and the scale bench.
        let weak = Arc::downgrade(self);
        reg.gauge_fn(
            "gozer_queue_depth",
            "Waiting messages across all service queues.",
            "",
            move || weak.upgrade().map_or(0, |c| c.total_queue_depth() as u64),
        );
    }

    /// The clock every timeout decision of this cluster, and of the
    /// workflow deployment on it, reads.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The cluster's observability handle: the shared event bus and
    /// metrics registry every layer (broker, Vinz, VM hooks) emits into.
    pub fn obs(&self) -> Arc<Obs> {
        self.obs.clone()
    }

    /// Install a chaos plan: from now on every send, delivery, and
    /// reply consults it. Replaces any previous plan.
    pub fn set_chaos(&self, plan: Arc<ChaosPlan>) {
        *self.chaos.write() = Some(plan);
    }

    /// Remove the chaos plan (already-scheduled faults stand; no new
    /// ones are injected).
    pub fn clear_chaos(&self) {
        *self.chaos.write() = None;
    }

    /// The currently installed chaos plan, if any.
    pub fn chaos_plan(&self) -> Option<Arc<ChaosPlan>> {
        self.chaos.read().clone()
    }

    fn queue(&self, service: &str) -> Arc<ServiceQueue> {
        if let Some(q) = self.queues.read().get(service) {
            return q.clone();
        }
        let mut queues = self.queues.write();
        let slack = *self.affinity_slack.read();
        queues
            .entry(service.to_string())
            .or_insert_with(|| {
                Arc::new(ServiceQueue::with_affinity(
                    self.policy,
                    slack,
                    self.affinity.clone(),
                ))
            })
            .clone()
    }

    /// Register a service: its interface document (what `deflink`
    /// fetches) and the handler shared by all instances. Instances must
    /// be spawned separately.
    pub fn register_service(
        &self,
        name: &str,
        desc: Option<ServiceDescription>,
        handler: Arc<dyn Handler>,
    ) {
        self.services
            .write()
            .insert(name.to_string(), ServiceEntry { desc, handler });
    }

    /// Fetch a service's interface document.
    pub fn wsdl(&self, service: &str) -> Option<ServiceDescription> {
        self.services.read().get(service)?.desc.clone()
    }

    /// Spawn `count` instances of `service` on `node_id`: threads of this
    /// process. (Remote worker processes add capacity by registering
    /// with a [`TcpBroker`].) Returns their instance ids.
    pub fn spawn_instances(self: &Arc<Cluster>, service: &str, node_id: u32, count: usize) -> Vec<u64> {
        let handler = self
            .services
            .read()
            .get(service)
            .map(|e| e.handler.clone())
            .expect("service must be registered before spawning instances");
        (0..count)
            .map(|_| self.spawn_instance(service, node_id, Slot::Local(handler.clone())))
            .collect()
    }

    /// Start one instance of `service` on `node_id`, served by `slot`.
    /// Local handlers and remote worker slots both come through here,
    /// so the lease reaper, `live_instances`, the kill helpers and
    /// shutdown treat them alike. Returns the instance id.
    pub(crate) fn spawn_instance(
        self: &Arc<Cluster>,
        service: &str,
        node_id: u32,
        slot: Slot,
    ) -> u64 {
        let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
        let control = Arc::new(InstanceControl::new(self.clock.now()));
        if let Slot::Remote(conn) = &slot {
            conn.instances.lock().push(control.clone());
        }
        let ctx = ServiceCtx {
            cluster: self.clone(),
            node_id,
            instance_id: id,
            service: service.to_string(),
        };
        let queue = self.queue(service);
        let thread_control = control.clone();
        // Start the thread under the table lock: the reaper scans under
        // it too, so no scan can see a lease the new instance takes
        // before the instance's entry is in (it would reclaim it at
        // once as held by a "dead holder").
        let mut instances = self.instances.lock();
        let thread = std::thread::Builder::new()
            .name(format!("bb-{service}-{id}"))
            .spawn(move || instance_loop(ctx, queue, slot, thread_control))
            .expect("spawn instance thread");
        instances.push(InstanceHandle {
            id,
            node_id,
            service: service.to_string(),
            control,
            thread: Some(thread),
        });
        id
    }

    /// Record a lease: `msg` is in flight at `instance`.
    fn insert_lease(&self, msg: &Arc<Message>, service: &Arc<str>, instance: u64) {
        self.leases.lock().insert(
            msg.id,
            Lease {
                msg: msg.clone(),
                service: service.clone(),
                instance,
                taken: self.clock.now(),
            },
        );
    }

    /// Claim `instance`'s lease on `msg_id` for settling. `true` means
    /// the caller owns the completion — the reaper has *not* reclaimed
    /// the message — and must route the reply and settle the queue.
    /// `false` means the message was reclaimed (and possibly redelivered
    /// under the same id to another holder); the caller must drop its
    /// result, or the same delivery would take effect twice.
    fn take_lease(&self, msg_id: u64, instance: u64) -> bool {
        let mut leases = self.leases.lock();
        let held = leases.get(&msg_id).is_some_and(|l| l.instance == instance);
        if held {
            leases.remove(&msg_id);
        }
        held
    }

    /// Whether `instance` still holds the lease on `msg_id`.
    pub(crate) fn lease_held(&self, msg_id: u64, instance: u64) -> bool {
        self.leases
            .lock()
            .get(&msg_id)
            .is_some_and(|l| l.instance == instance)
    }

    /// Delivery-side accounting: metrics, queue-wait attribution and the
    /// `MessageDelivered` event.
    fn note_delivered(&self, msg: &Message, node_id: u32, instance_id: u64) {
        let metrics = &self.metrics;
        // Pure queue wait: durability-hold time (stamped on release) is
        // its own latency phase, not queue time.
        let wait = (msg.enqueued_at.elapsed().as_nanos() as u64).saturating_sub(msg.held_nanos);
        metrics.delivered.fetch_add(1, Ordering::Relaxed);
        metrics.wait.observe_nanos(wait);
        self.obs.bus.emit(|| {
            msg_event(msg, |service, operation| EventKind::MessageDelivered {
                service,
                operation,
                wait_nanos: wait,
            })
            .node(node_id)
            .instance(instance_id)
        });
    }

    /// Fire-and-forget send.
    ///
    /// A message carrying a `hold_until` watermark gate is parked (not
    /// queued) while the attached deployment reports the watermark as
    /// not yet durable ([`Deployment::durable`]);
    /// [`Cluster::note_durable`] — fired by the store's commit hook —
    /// releases it. With no deployment attached the gate is vacuous.
    pub fn send(&self, mut msg: Message) {
        msg.id = self.next_msg_id.fetch_add(1, Ordering::Relaxed);
        msg.enqueued_at = Instant::now();
        self.metrics.sent.fetch_add(1, Ordering::Relaxed);
        self.obs.bus.emit(|| {
            msg_event(&msg, |service, operation| EventKind::MessageSent { service, operation })
        });
        if msg.hold_until > 0 {
            if let Some(deployment) = self.deployment.get() {
                // Probe and park under the held-list lock: note_durable
                // drains that list under the same lock *after* the
                // store's watermark advances, so a commit can't slip
                // between a failed probe and the push — a message that
                // parks is guaranteed a later note_durable (or the
                // reaper's re-probe) will see it.
                let mut held = self.held.lock();
                if !deployment.durable(msg.hold_until) {
                    self.held_total.fetch_add(1, Ordering::Relaxed);
                    self.obs.bus.emit(|| {
                        msg_event(&msg, |service, operation| EventKind::MessageHeld {
                            service,
                            operation,
                            watermark: msg.hold_until,
                        })
                    });
                    self.note_phase(&msg, Phase::DurabilityHold);
                    held.push(msg);
                    return;
                }
            }
        }
        self.dispatch(msg);
    }

    /// The enqueue tail of [`Cluster::send`]: chaos faults, then the
    /// service queue. Held messages re-enter here when released.
    fn dispatch(&self, msg: Message) {
        // The gate itself: whichever way a message got here (sent with
        // its watermark already durable, or released from the held
        // list), nothing enters a queue above the durable watermark.
        debug_assert!(
            msg.hold_until == 0
                || self.deployment.get().is_none_or(|d| d.durable(msg.hold_until)),
            "{}/{} queued behind watermark {} before it was durable",
            msg.service,
            msg.operation,
            msg.hold_until
        );
        let queue = self.queue(&msg.service);
        if let Some(plan) = self.chaos_plan() {
            if plan.on_send_duplicate(&msg) {
                self.emit_fault(&msg, "duplicate");
                let mut dup = msg.clone();
                dup.id = self.next_msg_id.fetch_add(1, Ordering::Relaxed);
                queue.push(dup);
            }
            if let Some(slots) = plan.on_send_reorder(&msg) {
                self.emit_fault(&msg, "reorder");
                queue.push_displaced(msg, slots);
                return;
            }
        }
        queue.push(msg);
    }

    /// Emit a [`EventKind::MessageRedelivered`] event for `msg`.
    fn emit_redelivered(&self, msg: &Message) {
        self.obs.bus.emit(|| {
            msg_event(msg, |service, operation| EventKind::MessageRedelivered { service, operation })
        });
    }

    /// Emit a [`EventKind::FaultInjected`] event correlated to `msg`.
    fn emit_fault(&self, msg: &Message, fault: &str) {
        self.obs.bus.emit(|| {
            msg_event(msg, |_, operation| EventKind::FaultInjected {
                fault: fault.to_string(),
                operation,
            })
        });
    }

    /// Reserve a correlation id for a [`ReplyTo::Service`] reply (the
    /// `ResumeFromCall` pattern of §3.2). Lets callers durably record
    /// the correlation *before* the request goes out, so a fast reply
    /// can never race the bookkeeping.
    pub fn allocate_correlation(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Synchronous call: blocks the calling thread until the reply (the
    /// traditional pattern whose wasted slot-time §3.2 quantifies).
    pub fn call(&self, mut msg: Message, timeout: Duration) -> Result<Vec<u8>, CallError> {
        let correlation = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        self.pending.lock().insert(correlation, tx);
        msg.reply_to = ReplyTo::Caller { correlation };
        self.send(msg);
        let started = Instant::now();
        let result = rx.recv_timeout(timeout);
        let blocked = started.elapsed().as_nanos() as u64;
        self.metrics.sync_block.observe_nanos(blocked);
        match result {
            Ok(Ok(body)) => Ok(body),
            Ok(Err(fault)) => Err(CallError::Fault(fault)),
            Err(_) => {
                self.pending.lock().remove(&correlation);
                Err(CallError::Timeout)
            }
        }
    }

    fn route_reply(&self, request: &Message, result: Result<Vec<u8>, Fault>) {
        match &request.reply_to {
            ReplyTo::Nowhere => {
                if result.is_err() {
                    self.metrics.faults.fetch_add(1, Ordering::Relaxed);
                }
            }
            ReplyTo::Caller { correlation } => {
                if result.is_err() {
                    self.metrics.faults.fetch_add(1, Ordering::Relaxed);
                }
                // Chaos reply loss: the caller's entry stays in
                // `pending` and the call surfaces as a timeout, exactly
                // as a vanished reply would in production.
                if let Some(plan) = self.chaos_plan() {
                    if plan.on_caller_reply(*correlation) {
                        self.emit_fault(request, "reply-loss");
                        return;
                    }
                }
                if let Some(tx) = self.pending.lock().remove(correlation) {
                    let _ = tx.send(result);
                }
            }
            ReplyTo::Service {
                service,
                operation,
                correlation,
            } => {
                let mut reply = Message::new(service, operation, Vec::new())
                    .header("correlation", correlation.to_string());
                // Propagate the workflow correlation ids so the reply —
                // and any fault the chaos layer injects into it — still
                // attaches to the fiber that made the call.
                for key in ["task-id", "fiber-id"] {
                    if let Some(v) = request.get_header(key) {
                        reply = reply.header(key, v.to_string());
                    }
                }
                // ResumeFromCall replies race back to the fiber's cache:
                // stamp them with the node that last saved the fiber.
                if let Some(deployment) = self.deployment.get() {
                    if let Some(node) =
                        request.get_header("fiber-id").and_then(|id| deployment.affine_node(id))
                    {
                        reply = reply.with_affinity(node);
                    }
                }
                match result {
                    Ok(body) => reply.body = body,
                    Err(fault) => {
                        self.metrics.faults.fetch_add(1, Ordering::Relaxed);
                        reply = reply
                            .header("fault-code", fault.code)
                            .header("fault-message", fault.message);
                    }
                }
                self.send(reply);
            }
        }
    }

    /// Inject a crash into a specific instance. The instance dies when
    /// it next touches the queue — taking (and re-queuing) a message if
    /// one is available, like a real mid-handoff failure.
    pub fn kill_instance(&self, instance_id: u64, point: FaultPoint) {
        let instances = self.instances.lock();
        if let Some(h) = instances.iter().find(|h| h.id == instance_id) {
            *h.control.fault.lock() = Some(point);
        }
    }

    /// Crash every instance on a node.
    pub fn kill_node(&self, node_id: u32, point: FaultPoint) {
        let instances = self.instances.lock();
        for h in instances.iter().filter(|h| h.node_id == node_id) {
            *h.control.fault.lock() = Some(point);
        }
    }

    /// Number of instances currently inside a handler.
    pub fn busy_instances(&self, service: &str) -> usize {
        self.instances
            .lock()
            .iter()
            .filter(|h| h.service == service && h.control.busy.load(Ordering::Relaxed))
            .count()
    }

    /// Number of live (not crashed/stopped) instances of a service.
    pub fn live_instances(&self, service: &str) -> usize {
        self.instances
            .lock()
            .iter()
            .filter(|h| h.service == service && h.control.alive.load(Ordering::Relaxed))
            .count()
    }

    /// Queue depth of a service.
    pub fn queue_depth(&self, service: &str) -> usize {
        self.queues
            .read()
            .get(service)
            .map(|q| q.depth())
            .unwrap_or(0)
    }

    /// Total waiting messages across every service queue (the
    /// `gozer_queue_depth` gauge).
    pub fn total_queue_depth(&self) -> usize {
        self.queues.read().values().map(|q| q.depth()).sum()
    }

    /// Block until a service's queue is empty and all its in-flight
    /// messages are settled, or the timeout expires. Returns whether it
    /// drained. Wakes on the queue's idle condition variable — no
    /// polling, and no pop-to-busy race: a popped message counts as in
    /// flight until the instance settles it.
    pub fn drain(&self, service: &str, timeout: Duration) -> bool {
        self.queue(service).wait_idle(Instant::now() + timeout)
    }

    /// Recovery counters: leases reclaimed, messages dead-lettered.
    pub fn recovery_stats(&self) -> RecoveryStatsSnapshot {
        self.recovery_stats.snapshot()
    }

    /// The dead-letter store of one service's queue.
    pub fn dead_letters(&self, service: &str) -> Vec<DeadLetter> {
        self.dead.lock().get(service).cloned().unwrap_or_default()
    }

    /// Total messages quarantined across all queues (the
    /// `gozer_dead_letters_total` metric).
    pub fn dead_letter_total(&self) -> u64 {
        self.recovery_stats.dead_letters.load(Ordering::Relaxed)
    }

    /// Enqueue `msg` once `delay` has passed on the cluster's clock
    /// (delivered by the reaper thread's next scan past the due time).
    /// Zero delay sends immediately.
    pub fn send_after(&self, msg: Message, delay: Duration) {
        if delay.is_zero() {
            self.send(msg);
        } else {
            self.delayed.lock().push((self.clock.now() + delay, msg));
        }
    }

    /// Messages of a service currently leased to instances (or held by
    /// the reaper awaiting reclaim) — popped but not yet settled.
    pub fn in_flight(&self, service: &str) -> usize {
        self.queues
            .read()
            .get(service)
            .map(|q| q.leased_count())
            .unwrap_or(0)
    }

    /// The TCP listener remote workers register through, once
    /// [`TcpBroker::start`] has put one up.
    pub fn tcp_broker(&self) -> Option<Arc<TcpBroker>> {
        self.tcp.lock().clone()
    }

    /// Whether [`shutdown`](Self::shutdown) has begun.
    pub fn is_shutdown(&self) -> bool {
        self.closed.load(Ordering::Relaxed)
    }

    /// Whether the lease-reaper thread is still running — a liveness
    /// signal for `/healthz`.
    pub fn reaper_alive(&self) -> bool {
        self.reaper
            .lock()
            .as_ref()
            .is_some_and(|h| !h.is_finished())
    }

    /// `(alive, total)` instance counts across every service — the
    /// other `/healthz` liveness signal (chaos kills mark instances
    /// dead until the supervisor respawns them).
    pub fn instance_counts(&self) -> (usize, usize) {
        let instances = self.instances.lock();
        let alive = instances
            .iter()
            .filter(|h| h.control.alive.load(Ordering::Relaxed))
            .count();
        (alive, instances.len())
    }

    /// One reaper scan at `now` (on the cluster's clock): expire leases
    /// whose holder is dead or stale, re-queue reclaims past their
    /// backoff (or quarantine them over budget), and release due
    /// delayed sends.
    fn recovery_tick(self: &Arc<Cluster>, now: Instant) {
        // 1. Expire leases. A dead holder (crashed thread, `alive`
        //    false, or no longer registered) expires immediately; a live
        //    one only once both its heartbeat and the lease itself are
        //    older than the TTL: a heartbeat vouches for the process, a
        //    lease for its own delivery. A scan that expires nothing
        //    allocates nothing.
        let expired: Vec<Lease> = {
            let instances = self.instances.lock();
            let mut leases = self.leases.lock();
            leases
                .extract_if(|_, lease| match instances.iter().find(|h| h.id == lease.instance) {
                    None => true,
                    Some(h) => {
                        let vouched = (*h.control.heartbeat.lock()).max(lease.taken);
                        !h.control.alive.load(Ordering::Relaxed)
                            || now.saturating_duration_since(vouched) > LEASE_TTL
                    }
                })
                .map(|(_, lease)| lease)
                .collect()
        };
        for lease in expired {
            // A dead holder dropped its share of the message; a stale
            // one that still runs keeps its own copy.
            let msg = Arc::unwrap_or_clone(lease.msg);
            if msg.redeliveries >= REDELIVERY_BUDGET {
                self.quarantine(&lease.service, msg, "redelivery-budget", true);
            } else {
                // The task is now waiting on the redelivery machinery,
                // not on a queue or a handler.
                self.note_phase(&msg, Phase::LeaseRedelivery);
                let due = now + backoff_for(msg.redeliveries);
                self.reclaims_pending.lock().push(PendingReclaim {
                    due,
                    service: lease.service,
                    msg,
                });
            }
        }
        // 2. Re-queue reclaims past their backoff. The broker id is
        //    preserved and `push_front` bumps the redelivery count, so
        //    idempotency keys and the budget both survive the hop.
        let ready: Vec<PendingReclaim> = {
            let mut pending = self.reclaims_pending.lock();
            let (ready, rest) = pending.drain(..).partition(|p| p.due <= now);
            *pending = rest;
            ready
        };
        for p in ready {
            self.metrics.redelivered.fetch_add(1, Ordering::Relaxed);
            self.recovery_stats.reclaims.fetch_add(1, Ordering::Relaxed);
            self.obs.bus.emit(|| {
                msg_event(&p.msg, |service, operation| EventKind::LeaseReclaimed { service, operation })
            });
            self.emit_redelivered(&p.msg);
            self.note_phase(&p.msg, Phase::QueueWait);
            let queue = self.queue(&p.service);
            queue.push_front(p.msg);
            queue.settle();
        }
        // 3. Release due delayed sends.
        let due_sends: Vec<(Instant, Message)> = {
            let mut delayed = self.delayed.lock();
            let (due, rest) = delayed.drain(..).partition(|(at, _)| *at <= now);
            *delayed = rest;
            due
        };
        for (_, m) in due_sends {
            self.send(m);
        }
        // 4. Safety net for the speculative-send gate: re-probe held
        //    messages directly, in case a commit-hook notification was
        //    lost (e.g. the hook was installed after a flush completed).
        if let Some(deployment) = self.deployment.get() {
            let ready: Vec<Message> = {
                let mut held = self.held.lock();
                if held.is_empty() {
                    return;
                }
                let (ready, rest) = held.drain(..).partition(|m| deployment.durable(m.hold_until));
                *held = rest;
                ready
            };
            for msg in ready {
                self.release_held(msg);
            }
        }
    }

    /// Handler-path recovery for fire-and-forget operations: re-queue
    /// `msg` for another attempt, or quarantine it once its redelivery
    /// budget is spent. Unlike the reaper's reclaim path this never
    /// settles the queue lease — the instance loop settles the in-flight
    /// delivery itself after the handler returns. This is how an
    /// embedder turns a persistent handler failure (e.g. a corrupt
    /// persisted continuation) into a dead letter instead of a silently
    /// dropped message that wedges its task forever.
    pub fn requeue_or_quarantine(&self, service: &str, msg: Message, reason: &str) {
        if msg.redeliveries >= REDELIVERY_BUDGET {
            self.quarantine(service, msg, reason, false);
        } else {
            self.metrics.redelivered.fetch_add(1, Ordering::Relaxed);
            self.emit_redelivered(&msg);
            // push_front bumps the redelivery count, so the budget
            // converges even when every attempt fails the same way.
            self.note_phase(&msg, Phase::QueueWait);
            self.queue(service).push_front(msg);
        }
    }

    /// Move a message to the dead-letter store, settle its queue lease
    /// if `settle`, and tell the attached deployment. The reaper path owns the
    /// abandoned lease and must settle it; the handler path's lease is
    /// settled by the instance loop.
    fn quarantine(&self, service: &str, msg: Message, reason: &str, settle: bool) {
        self.recovery_stats.dead_letters.fetch_add(1, Ordering::Relaxed);
        self.obs.bus.emit(|| {
            msg_event(&msg, |_, operation| EventKind::MessageDeadLettered {
                service: service.to_string(),
                operation,
                reason: reason.to_string(),
            })
        });
        let dl = DeadLetter {
            msg,
            service: service.to_string(),
            reason: reason.to_string(),
        };
        self.dead
            .lock()
            .entry(service.to_string())
            .or_default()
            .push(dl.clone());
        if settle {
            self.queue(service).settle();
        }
        if let Some(deployment) = self.deployment.get() {
            deployment.dead_lettered(&dl);
        }
    }

    /// Stop all instances and close all queues.
    pub fn shutdown(&self) {
        self.closed.store(true, Ordering::Relaxed);
        // Held messages never became durable-safe to deliver; dropping
        // them here is the same outcome a crash would have produced.
        self.held.lock().clear();
        // Join the reaper before taking the instances lock: its scan
        // takes that lock too.
        if let Some(t) = self.reaper.lock().take() {
            let _ = t.join();
        }
        // Tear the TCP listener down before taking the instances lock:
        // connection threads register instances (which takes it), and
        // remote slots only exit once their connections die.
        let tcp = self.tcp.lock().take();
        if let Some(broker) = tcp {
            broker.shutdown();
        }
        let mut instances = self.instances.lock();
        for h in instances.iter() {
            h.control.stop.store(true, Ordering::Relaxed);
        }
        for q in self.queues.read().values() {
            q.close();
        }
        for h in instances.iter_mut() {
            if let Some(t) = h.thread.take() {
                let _ = t.join();
            }
        }
    }
}

fn instance_loop(
    ctx: ServiceCtx,
    queue: Arc<ServiceQueue>,
    slot: Slot,
    control: Arc<InstanceControl>,
) {
    let cluster = ctx.cluster.clone();
    let service: Arc<str> = ctx.service.as_str().into();
    let metrics = &cluster.metrics;
    // Announce this node to the queue so affinity-stamped messages can
    // find it; withdrawn after the loop on *every* exit path (stop,
    // fault, crash) so dead nodes never pin their messages.
    queue.register_consumer(ctx.node_id);
    loop {
        // A local instance vouches for itself on every queue
        // interaction. A remote slot is vouched for only by its
        // worker's heartbeat frames: this thread is not the process.
        if let Slot::Local(_) = slot {
            *control.heartbeat.lock() = cluster.clock.now();
        }
        if control.stop.load(Ordering::Relaxed) {
            break;
        }
        if slot.gone() {
            control.alive.store(false, Ordering::Relaxed);
            break;
        }
        let Some(msg) = queue.pop_for(ctx.node_id, Duration::from_millis(50)) else {
            // Timeout, close, or interrupt: check the stop/fault flags
            // and retry.
            if control.fault.lock().is_some() {
                control.alive.store(false, Ordering::Relaxed);
                break;
            }
            continue;
        };
        // The message is leased from here: every exit path below must
        // settle exactly once — or die leaving the lease registered, in
        // which case the reaper settles it after reclaim/quarantine.
        // The lease and the handler share the one message.
        let msg = Arc::new(msg);
        cluster.insert_lease(&msg, &service, ctx.instance_id);
        cluster.note_delivered(&msg, ctx.node_id, ctx.instance_id);
        // Seeded chaos: the plan decides this delivery's fate from the
        // message's stable key alone.
        let chaos = cluster.chaos_plan();
        if let Some(plan) = &chaos {
            match plan.on_deliver(&msg) {
                FaultAction::Deliver => {}
                FaultAction::Delay(d) => {
                    cluster.emit_fault(&msg, "delay");
                    std::thread::sleep(d);
                }
                FaultAction::DropRedeliver => {
                    // The handoff is lost in transit: re-queue, stay
                    // alive (at-least-once redelivery, not a crash) —
                    // unless the reaper already took the lease back.
                    cluster.emit_fault(&msg, "drop");
                    if cluster.take_lease(msg.id, ctx.instance_id) {
                        metrics.redelivered.fetch_add(1, Ordering::Relaxed);
                        cluster.emit_redelivered(&msg);
                        cluster.note_phase(&msg, Phase::QueueWait);
                        queue.push_front(Arc::unwrap_or_clone(msg));
                        queue.settle();
                    }
                    continue;
                }
                FaultAction::Crash(point) => {
                    let node_wide = plan.on_node_scope(&msg);
                    cluster.emit_fault(
                        &msg,
                        match (point, node_wide) {
                            (_, true) => "node-kill",
                            (FaultPoint::BeforeProcess, _) => "crash-before",
                            (FaultPoint::AfterProcess, _) => "crash-after",
                        },
                    );
                    crash_with(&cluster, &control, &msg, point, &ctx, node_wide);
                    break;
                }
            }
        }
        // Manual kill before processing: die holding the message — the
        // lease reaper detects the dead holder and re-queues it.
        if *control.fault.lock() == Some(FaultPoint::BeforeProcess) {
            cluster.obs.bus.emit(|| {
                msg_event(&msg, |_, _| EventKind::InstanceCrashed { point: "before-process".into() })
                    .node(ctx.node_id)
                    .instance(ctx.instance_id)
            });
            control.alive.store(false, Ordering::Relaxed);
            break;
        }
        control.busy.store(true, Ordering::Relaxed);
        metrics.enter_flight();
        let started = Instant::now();
        let result = match &slot {
            Slot::Local(handler) => Some(handler.handle(&ctx, &msg)),
            Slot::Remote(conn) => conn.deliver(&ctx, &msg, &control),
        };
        let busy = started.elapsed().as_nanos() as u64;
        metrics.busy.observe_nanos(busy);
        metrics.exit_flight();
        control.busy.store(false, Ordering::Relaxed);
        let Some(result) = result else {
            // A remote slot abandoned the message. Worker gone (torn
            // frame, kill -9) or slot stopping: die holding the lease,
            // as a local crash does. Lease reclaimed from a slow worker
            // over a healthy connection: keep serving.
            if slot.gone() || control.stop.load(Ordering::Relaxed) || cluster.is_shutdown() {
                control.alive.store(false, Ordering::Relaxed);
                break;
            }
            continue;
        };
        // Crash after processing but before the ack/reply (manual kill
        // or chaos): redelivered even though the handler's effects may
        // stand, exercising the at-least-once path (handlers must be
        // idempotent, which Vinz guarantees via fiber locks).
        let manual_after = *control.fault.lock() == Some(FaultPoint::AfterProcess);
        let chaos_after = chaos.as_ref().is_some_and(|p| p.on_after_process(&msg));
        if manual_after || chaos_after {
            if chaos_after {
                cluster.emit_fault(&msg, "crash-after");
            }
            let node_wide = chaos_after
                && chaos.as_ref().is_some_and(|p| p.on_node_scope(&msg));
            crash_with(
                &cluster,
                &control,
                &msg,
                FaultPoint::AfterProcess,
                &ctx,
                node_wide,
            );
            break;
        }
        // The settle rule: only the lease holder routes the reply and
        // settles the queue. A result that outlived its lease is
        // dropped — the reaper already returned the queue lease, and the
        // redelivery owns the message now.
        let settled = cluster.take_lease(msg.id, ctx.instance_id);
        if let Slot::Remote(conn) = &slot {
            conn.note_settle(settled);
        }
        if settled {
            cluster.route_reply(&msg, result);
            metrics.completed.fetch_add(1, Ordering::Relaxed);
            queue.settle();
        }
    }
    queue.deregister_consumer(ctx.node_id);
}

/// Die holding `msg`: mark this instance dead and abandon the message —
/// no re-queue, no settle. A crashed process cannot return its own
/// work; the lease reaper notices the dead holder, re-queues the
/// message (same broker id, redelivery count bumped) after backoff, or
/// quarantines it once the redelivery budget is spent.
fn crash_with(
    cluster: &Arc<Cluster>,
    control: &Arc<InstanceControl>,
    msg: &Message,
    point: FaultPoint,
    ctx: &ServiceCtx,
    node_wide: bool,
) {
    cluster.obs.bus.emit(|| {
        msg_event(msg, |_, _| EventKind::InstanceCrashed {
            point: match (point, node_wide) {
                (_, true) => "node-kill".into(),
                (FaultPoint::BeforeProcess, _) => "before-process".into(),
                (FaultPoint::AfterProcess, _) => "after-process".into(),
            },
        })
        .node(ctx.node_id)
        .instance(ctx.instance_id)
    });
    control.alive.store(false, Ordering::Relaxed);
    if node_wide {
        cluster.kill_node(ctx.node_id, point);
    }
}

/// The lease reaper: one background thread per cluster, scanning the
/// lease table, the reclaim backlog, and the delayed-send list every
/// [`SCAN_INTERVAL`] of real time, at the cluster clock's `now`. Holds
/// only a [`Weak`] cluster reference so dropping the last external
/// `Arc` (or [`Cluster::shutdown`]) terminates it.
fn reaper_loop(weak: Weak<Cluster>) {
    loop {
        {
            let Some(cluster) = weak.upgrade() else { return };
            if cluster.closed.load(Ordering::Relaxed) {
                return;
            }
            cluster.recovery_tick(cluster.clock.now());
        }
        std::thread::sleep(SCAN_INTERVAL);
    }
}

/// Build an [`Event`] about a message from what the message carries:
/// its service and operation (handed to `kind`), its broker id, and the
/// workflow ids Vinz stamps into `task-id`/`fiber-id` headers (the
/// fiber id alone implies the task via the `task/fiber` convention).
/// Called only inside the closure handed to `EventBus::emit`, so
/// nothing is cloned while tracing is off.
fn msg_event(msg: &Message, kind: impl FnOnce(String, String) -> EventKind) -> Event {
    Event::new(kind(msg.service.clone(), msg.operation.clone()))
        .message(msg.id)
        .task_opt(msg.get_header("task-id").map(str::to_string))
        .fiber_opt(msg.get_header("fiber-id").map(str::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    /// A live holder's lease expires exactly when the cluster's clock
    /// passes its TTL: one reaper scan 1 ms short keeps it, one 1 ms
    /// past reclaims it.
    #[test]
    fn a_live_holders_lease_expires_only_past_the_ttl() {
        let clock = Clock::manual();
        let cluster = Cluster::with_clock(clock.clone());
        let (taken_tx, taken) = unbounded();
        let (release, gate) = unbounded::<()>();
        cluster.register_service(
            "hold",
            None,
            Arc::new(move |ctx: &ServiceCtx, msg: &Message| {
                let _ = taken_tx.send((msg.id, ctx.instance_id));
                let _ = gate.recv_timeout(Duration::from_secs(10));
                Ok(Vec::new())
            }),
        );
        cluster.spawn_instances("hold", 0, 1);
        cluster.send(Message::new("hold", "Op", Vec::new()));
        let (id, instance) = taken.recv_timeout(Duration::from_secs(10)).unwrap();
        clock.advance(LEASE_TTL - Duration::from_millis(1));
        cluster.recovery_tick(clock.now());
        assert!(cluster.lease_held(id, instance), "reclaimed before the TTL ran out");
        clock.advance(Duration::from_millis(2));
        cluster.recovery_tick(clock.now());
        assert!(!cluster.lease_held(id, instance), "kept past the TTL");
        drop(release);
        cluster.shutdown();
    }
}
