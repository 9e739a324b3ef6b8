//! The cluster: broker, service registry, instances, failure injection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Sender};
use gozer_obs::{Event, EventKind, Histogram, Obs, Phase};
use gozer_xml::ServiceDescription;
use parking_lot::{Mutex, RwLock};

use crate::chaos::{ChaosPlan, FaultAction};
use crate::message::{Fault, Message, ReplyTo};
use crate::metrics::Metrics;
use crate::queue::{Policy, ServiceQueue};
use crate::recovery::{DeadLetter, Lease, PendingReclaim, RecoveryConfig, RecoveryStats, RecoveryStatsSnapshot};
use crate::transport::{InProcessTransport, Transport};

pub use crate::chaos::FaultPoint;

/// Backwards-compatible name for [`FaultPoint`]: manual kill injection
/// predates the general chaos layer.
pub type CrashPoint = FaultPoint;

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
    /// Last queue interaction (or, for remote proxy instances, last
    /// heartbeat frame from the worker process); the reaper treats a
    /// holder whose heartbeat is older than the lease TTL as failed.
    pub(crate) heartbeat: Mutex<Instant>,
}

impl InstanceControl {
    pub(crate) fn new() -> InstanceControl {
        InstanceControl {
            stop: AtomicBool::new(false),
            fault: Mutex::new(None),
            busy: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            heartbeat: Mutex::new(Instant::now()),
        }
    }
}

struct InstanceHandle {
    id: u64,
    node_id: u32,
    service: String,
    control: Arc<InstanceControl>,
    thread: Option<JoinHandle<()>>,
}

/// The simulated BlueBox cluster.
pub struct Cluster {
    queues: RwLock<HashMap<String, Arc<ServiceQueue>>>,
    services: RwLock<HashMap<String, ServiceEntry>>,
    pending: Mutex<HashMap<u64, Sender<Result<Vec<u8>, Fault>>>>,
    instances: Mutex<Vec<InstanceHandle>>,
    next_msg_id: AtomicU64,
    next_corr: AtomicU64,
    next_instance: AtomicU64,
    policy: Policy,
    /// Steal slack applied to queues created from now on (see
    /// [`ServiceQueue::with_affinity_slack`]).
    affinity_slack: RwLock<usize>,
    /// Maps a fiber id to its affine node, so service replies
    /// (`ResumeFromCall`) inherit the placement hint of the fiber they
    /// resume. Installed by the embedder (Vinz).
    affinity_resolver: RwLock<Option<Arc<dyn Fn(&str) -> Option<u32> + Send + Sync>>>,
    /// Latency-phase attribution hook: `f(task_id, phase)` flips the
    /// task's tracker ledger into `phase`. Installed by the embedder
    /// (Vinz); the broker calls it when it parks, releases, reclaims,
    /// or re-queues a task-correlated message.
    phase_observer: RwLock<Option<Arc<dyn Fn(&str, Phase) + Send + Sync>>>,
    chaos: RwLock<Option<Arc<ChaosPlan>>>,
    /// Broker metrics.
    pub metrics: Arc<Metrics>,
    obs: Arc<Obs>,
    hist_wait: Arc<Histogram>,
    hist_busy: Arc<Histogram>,
    hist_sync: Arc<Histogram>,
    // --- recovery layer ---------------------------------------------------
    recovery_cfg: RwLock<RecoveryConfig>,
    /// Outstanding leases by broker message id.
    leases: Mutex<HashMap<u64, Lease>>,
    /// Reclaimed messages waiting out their backoff (queue lease held).
    reclaims_pending: Mutex<Vec<PendingReclaim>>,
    /// Delayed sends ([`Cluster::send_after`]).
    delayed: Mutex<Vec<(Instant, Message)>>,
    /// Per-queue dead-letter stores.
    dead: Mutex<HashMap<String, Vec<DeadLetter>>>,
    dead_observers: Mutex<Vec<Box<dyn Fn(&DeadLetter) + Send + Sync>>>,
    recovery_stats: Arc<RecoveryStats>,
    closed: AtomicBool,
    reaper: Mutex<Option<JoinHandle<()>>>,
    // --- speculative persistence (store watermark gating) -------------
    /// Asks the store whether a commit watermark is durable yet.
    /// Installed by the embedder (Vinz) when its store defers
    /// durability; absent means nothing is ever held.
    durability_probe: RwLock<Option<Arc<dyn Fn(u64) -> bool + Send + Sync>>>,
    /// Messages parked until the store's commit watermark passes their
    /// `hold_until` gate. Dropped on shutdown — exactly what a crash
    /// would do to effects whose save never became durable.
    held: Mutex<Vec<Message>>,
    held_total: AtomicU64,
    held_released: AtomicU64,
    /// Where instances run: in-process threads (the deterministic
    /// default) or proxies for remote worker processes. See
    /// [`crate::transport`].
    transport: RwLock<Arc<dyn Transport>>,
}

impl Cluster {
    /// New cluster with FCFS queues (the production default, §5).
    pub fn new() -> Arc<Cluster> {
        Cluster::with_policy(Policy::Fcfs)
    }

    /// New cluster with the given queue scheduling policy.
    pub fn with_policy(policy: Policy) -> Arc<Cluster> {
        let obs = Arc::new(Obs::new());
        let metrics = Arc::new(Metrics::default());
        register_broker_metrics(&obs, &metrics);
        let reg = &obs.registry;
        let hist_wait = reg.histogram(
            "bluebox_queue_wait_seconds",
            "Message queue wait, enqueue to delivery.",
            "",
        );
        let hist_busy = reg.histogram(
            "bluebox_handler_busy_seconds",
            "Time spent inside handlers.",
            "",
        );
        let hist_sync = reg.histogram(
            "bluebox_sync_block_seconds",
            "Caller block time of synchronous nested calls.",
            "",
        );
        let recovery_stats = Arc::new(RecoveryStats::default());
        let rs = recovery_stats.clone();
        reg.counter_fn(
            "bluebox_lease_reclaims_total",
            "In-flight messages reclaimed from dead or stale instances.",
            "",
            move || rs.reclaims.load(Ordering::Relaxed),
        );
        let rs = recovery_stats.clone();
        reg.counter_fn(
            "gozer_dead_letters_total",
            "Messages quarantined after exhausting their redelivery budget.",
            "",
            move || rs.dead_letters.load(Ordering::Relaxed),
        );
        let cluster = Arc::new(Cluster {
            queues: RwLock::new(HashMap::new()),
            services: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            instances: Mutex::new(Vec::new()),
            next_msg_id: AtomicU64::new(1),
            next_corr: AtomicU64::new(1),
            next_instance: AtomicU64::new(1),
            policy,
            affinity_slack: RwLock::new(crate::queue::DEFAULT_AFFINITY_SLACK),
            affinity_resolver: RwLock::new(None),
            phase_observer: RwLock::new(None),
            chaos: RwLock::new(None),
            metrics,
            obs,
            hist_wait,
            hist_busy,
            hist_sync,
            recovery_cfg: RwLock::new(RecoveryConfig::default()),
            leases: Mutex::new(HashMap::new()),
            reclaims_pending: Mutex::new(Vec::new()),
            delayed: Mutex::new(Vec::new()),
            dead: Mutex::new(HashMap::new()),
            dead_observers: Mutex::new(Vec::new()),
            recovery_stats,
            closed: AtomicBool::new(false),
            reaper: Mutex::new(None),
            durability_probe: RwLock::new(None),
            held: Mutex::new(Vec::new()),
            held_total: AtomicU64::new(0),
            held_released: AtomicU64::new(0),
            transport: RwLock::new(Arc::new(InProcessTransport)),
        });
        // Affinity delivery counters, summed across all service queues.
        let weak = Arc::downgrade(&cluster);
        cluster.obs.registry.counter_fn(
            "gozer_affinity_hits_total",
            "Affinity-stamped messages delivered to their affine node.",
            "",
            move || weak.upgrade().map_or(0, |c| c.affinity_stats().0),
        );
        let weak = Arc::downgrade(&cluster);
        cluster.obs.registry.counter_fn(
            "gozer_affinity_misses_total",
            "Affinity-stamped messages delivered elsewhere (steal or dead node).",
            "",
            move || weak.upgrade().map_or(0, |c| c.affinity_stats().1),
        );
        // Speculative-persistence gate visibility.
        let weak = Arc::downgrade(&cluster);
        cluster.obs.registry.counter_fn(
            "gozer_messages_held_total",
            "Outbound messages parked behind a not-yet-durable store watermark.",
            "",
            move || {
                weak.upgrade()
                    .map_or(0, |c| c.held_total.load(Ordering::Relaxed))
            },
        );
        let weak = Arc::downgrade(&cluster);
        cluster.obs.registry.gauge_fn(
            "gozer_messages_held",
            "Messages currently parked awaiting durability.",
            "",
            move || weak.upgrade().map_or(0, |c| c.held.lock().len() as i64),
        );
        // Backpressure introspection: total waiting messages across all
        // service queues, read by admission gates and the scale bench.
        let weak = Arc::downgrade(&cluster);
        cluster.obs.registry.gauge_fn(
            "gozer_queue_depth",
            "Waiting messages across all service queues.",
            "",
            move || weak.upgrade().map_or(0, |c| c.total_queue_depth() as i64),
        );
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

    /// Install the fiber-id → affine-node resolver used to stamp service
    /// replies (`ResumeFromCall`) with the placement hint of the fiber
    /// they resume. Replaces any previous resolver.
    pub fn set_affinity_resolver(
        &self,
        f: impl Fn(&str) -> Option<u32> + Send + Sync + 'static,
    ) {
        *self.affinity_resolver.write() = Some(Arc::new(f));
    }

    /// Install the latency-phase observer: `f(task_id, phase)` is
    /// called whenever a broker transition changes what a task is
    /// waiting on (parked on durability, released to a queue, lease
    /// expired, re-queued). Installed by the embedder (Vinz) so the
    /// task tracker's phase ledger follows broker-side time.
    pub fn set_phase_observer(&self, f: impl Fn(&str, Phase) + Send + Sync + 'static) {
        *self.phase_observer.write() = Some(Arc::new(f));
    }

    /// Flip `msg`'s task (if the message is task-correlated) into
    /// `phase` via the installed observer.
    fn note_phase(&self, msg: &Message, phase: Phase) {
        let observer = self.phase_observer.read().clone();
        let Some(observer) = observer else { return };
        if let Some(task) = task_of(msg) {
            observer(task, phase);
        }
    }

    /// Install the durability probe the speculative-send gate consults:
    /// `f(watermark)` answers "has the store committed this watermark?".
    /// Installed by the embedder (Vinz) alongside the store's commit
    /// hook. Replaces any previous probe.
    pub fn set_durability_probe(&self, f: impl Fn(u64) -> bool + Send + Sync + 'static) {
        *self.durability_probe.write() = Some(Arc::new(f));
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
        self.held_released.fetch_add(1, Ordering::Relaxed);
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
        let queues = self.queues.read();
        queues.values().fold((0, 0), |(h, m), q| {
            let (qh, qm) = q.affinity_counts();
            (h + qh, m + qm)
        })
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
            .or_insert_with(|| Arc::new(ServiceQueue::with_affinity_slack(self.policy, slack)))
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

    /// Install a transport (see [`crate::transport`]); subsequent
    /// [`spawn_instances`](Self::spawn_instances) calls go through it.
    /// Replaces the previous transport without tearing it down.
    pub fn set_transport(&self, t: Arc<dyn Transport>) {
        *self.transport.write() = t;
    }

    /// The installed transport.
    pub fn transport(&self) -> Arc<dyn Transport> {
        self.transport.read().clone()
    }

    /// Spawn `count` instances of `service` on `node_id` via the
    /// installed transport. Returns their instance ids.
    pub fn spawn_instances(self: &Arc<Cluster>, service: &str, node_id: u32, count: usize) -> Vec<u64> {
        let transport = self.transport();
        transport.spawn_instances(self, service, node_id, count)
    }

    /// Spawn `count` in-process instance threads of `service` on
    /// `node_id` — the [`InProcessTransport`] implementation, and the
    /// path remote transports use for services that stay local.
    pub(crate) fn spawn_local_instances(self: &Arc<Cluster>, service: &str, node_id: u32, count: usize) -> Vec<u64> {
        let handler = self
            .services
            .read()
            .get(service)
            .map(|e| e.handler.clone())
            .expect("service must be registered before spawning instances");
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
            ids.push(id);
            let control = Arc::new(InstanceControl {
                stop: AtomicBool::new(false),
                fault: Mutex::new(None),
                busy: AtomicBool::new(false),
                alive: AtomicBool::new(true),
                heartbeat: Mutex::new(Instant::now()),
            });
            let queue = self.queue(service);
            let ctx = ServiceCtx {
                cluster: self.clone(),
                node_id,
                instance_id: id,
                service: service.to_string(),
            };
            let thread_control = control.clone();
            let thread_handler = handler.clone();
            let thread = std::thread::Builder::new()
                .name(format!("bb-{service}-{id}"))
                .spawn(move || instance_loop(ctx, queue, thread_handler, thread_control))
                .expect("spawn instance thread");
            self.instances.lock().push(InstanceHandle {
                id,
                node_id,
                service: service.to_string(),
                control,
                thread: Some(thread),
            });
        }
        ids
    }

    /// Register one *proxy* instance for a remote worker process: the
    /// transport allocates the id and control here, then `spawn` starts
    /// the proxy thread that pops the queue and forwards deliveries
    /// over its connection. The handle joins the normal instance table,
    /// so the lease reaper, `live_instances`, kill helpers, and
    /// shutdown all treat remote capacity exactly like local threads.
    pub(crate) fn register_remote_instance(
        self: &Arc<Cluster>,
        service: &str,
        node_id: u32,
        spawn: impl FnOnce(u64, Arc<InstanceControl>) -> JoinHandle<()>,
    ) -> u64 {
        let id = self.next_instance.fetch_add(1, Ordering::Relaxed);
        let control = Arc::new(InstanceControl::new());
        // Table entry first, thread second: a lease the new proxy
        // inserts must always find its holder registered, or a reaper
        // scan in the gap would reclaim it instantly as "dead holder".
        self.instances.lock().push(InstanceHandle {
            id,
            node_id,
            service: service.to_string(),
            control: control.clone(),
            thread: None,
        });
        let thread = spawn(id, control);
        let mut instances = self.instances.lock();
        if let Some(h) = instances.iter_mut().find(|h| h.id == id) {
            h.thread = Some(thread);
        }
        id
    }

    /// The queue of a service (created on first touch).
    pub(crate) fn service_queue(&self, service: &str) -> Arc<ServiceQueue> {
        self.queue(service)
    }

    /// Record a lease: `msg` is in flight at `instance`.
    pub(crate) fn insert_lease(&self, msg: &Message, service: &str, instance: u64) {
        self.leases.lock().insert(
            msg.id,
            Lease {
                msg: msg.clone(),
                service: service.to_string(),
                instance,
            },
        );
    }

    /// Claim the lease for settling. `true` means the caller owns the
    /// completion — the reaper has *not* reclaimed the message — and
    /// must route the reply and settle the queue. `false` means the
    /// message was already reclaimed (and possibly redelivered); the
    /// caller must drop its result, or the same delivery would take
    /// effect twice.
    pub(crate) fn take_lease(&self, msg_id: u64) -> bool {
        self.leases.lock().remove(&msg_id).is_some()
    }

    /// Whether `msg_id`'s lease is still outstanding.
    pub(crate) fn lease_held(&self, msg_id: u64) -> bool {
        self.leases.lock().contains_key(&msg_id)
    }

    /// Delivery-side accounting shared by local instance loops and
    /// remote proxies: metrics, queue-wait attribution, the
    /// `MessageDelivered` event, and the transport observation hook.
    pub(crate) fn note_delivered(&self, msg: &Message, node_id: u32, instance_id: u64) {
        let metrics = &self.metrics;
        // Pure queue wait: durability-hold time (stamped on release) is
        // its own latency phase, not queue time.
        let wait = (msg.enqueued_at.elapsed().as_nanos() as u64).saturating_sub(msg.held_nanos);
        metrics.add(&metrics.delivered, 1);
        metrics.add(&metrics.wait_nanos, wait);
        metrics.add(&metrics.wait_count, 1);
        self.hist_wait.observe_nanos(wait);
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
    /// queued) while the installed durability probe reports the
    /// watermark as not yet committed; [`Cluster::note_durable`] — fired
    /// by the store's commit hook — releases it. With no probe
    /// installed the gate is vacuous: synchronous stores are durable by
    /// the time the send happens.
    pub fn send(&self, mut msg: Message) {
        msg.id = self.next_msg_id.fetch_add(1, Ordering::Relaxed);
        msg.enqueued_at = Instant::now();
        self.metrics.add(&self.metrics.sent, 1);
        self.obs.bus.emit(|| {
            msg_event(&msg, |service, operation| EventKind::MessageSent { service, operation })
        });
        if msg.hold_until > 0 {
            let probe = self.durability_probe.read().clone();
            if let Some(probe) = probe {
                // Probe and park under the held-list lock: note_durable
                // drains that list under the same lock *after* the
                // store's watermark advances, so a commit can't slip
                // between a failed probe and the push — a message that
                // parks is guaranteed a later note_durable (or the
                // reaper's re-probe) will see it.
                let mut held = self.held.lock();
                if !probe(msg.hold_until) {
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
                || self
                    .durability_probe
                    .read()
                    .as_ref()
                    .is_none_or(|probe| probe(msg.hold_until)),
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

    /// Send a request whose reply is delivered as a fresh request to
    /// `reply_service`/`reply_operation` — the `ResumeFromCall` pattern
    /// of §3.2. Returns the correlation id stamped on the reply.
    pub fn send_with_service_reply(
        &self,
        msg: Message,
        reply_service: &str,
        reply_operation: &str,
    ) -> u64 {
        let correlation = self.allocate_correlation();
        self.send_with_service_reply_corr(msg, reply_service, reply_operation, correlation);
        correlation
    }

    /// Reserve a correlation id without sending anything. Lets callers
    /// durably record the correlation *before* the request goes out, so a
    /// fast reply can never race the bookkeeping.
    pub fn allocate_correlation(&self) -> u64 {
        self.next_corr.fetch_add(1, Ordering::Relaxed)
    }

    /// [`send_with_service_reply`](Self::send_with_service_reply) with a
    /// pre-allocated correlation id.
    pub fn send_with_service_reply_corr(
        &self,
        mut msg: Message,
        reply_service: &str,
        reply_operation: &str,
        correlation: u64,
    ) {
        msg.reply_to = ReplyTo::Service {
            service: reply_service.to_string(),
            operation: reply_operation.to_string(),
            correlation,
        };
        self.send(msg);
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
        self.metrics.add(&self.metrics.sync_block_nanos, blocked);
        self.metrics.add(&self.metrics.sync_block_count, 1);
        self.hist_sync.observe_nanos(blocked);
        match result {
            Ok(Ok(body)) => Ok(body),
            Ok(Err(fault)) => Err(CallError::Fault(fault)),
            Err(_) => {
                self.pending.lock().remove(&correlation);
                Err(CallError::Timeout)
            }
        }
    }

    pub(crate) fn route_reply(&self, request: &Message, result: Result<Vec<u8>, Fault>) {
        match &request.reply_to {
            ReplyTo::Nowhere => {
                if result.is_err() {
                    self.metrics.add(&self.metrics.faults, 1);
                }
            }
            ReplyTo::Caller { correlation } => {
                if result.is_err() {
                    self.metrics.add(&self.metrics.faults, 1);
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
                if let Some(resolver) = self.affinity_resolver.read().clone() {
                    if let Some(node) =
                        request.get_header("fiber-id").and_then(|id| resolver(id))
                    {
                        reply = reply.with_affinity(node);
                    }
                }
                match result {
                    Ok(body) => reply.body = body,
                    Err(fault) => {
                        self.metrics.add(&self.metrics.faults, 1);
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

    /// Replace the recovery tunables (lease TTL, redelivery budget,
    /// backoff). Takes effect from the reaper's next scan.
    pub fn set_recovery(&self, cfg: RecoveryConfig) {
        *self.recovery_cfg.write() = cfg;
    }

    /// The current recovery tunables.
    pub fn recovery(&self) -> RecoveryConfig {
        self.recovery_cfg.read().clone()
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

    /// Register a dead-letter observer, invoked from the reaper thread
    /// for every quarantined message. Observers must not register
    /// further observers re-entrantly.
    pub fn on_dead_letter(&self, f: impl Fn(&DeadLetter) + Send + Sync + 'static) {
        self.dead_observers.lock().push(Box::new(f));
    }

    /// Enqueue `msg` after `delay` (delivered by the reaper thread's
    /// next scan past the due time). Zero delay sends immediately.
    pub fn send_after(&self, msg: Message, delay: Duration) {
        if delay.is_zero() {
            self.send(msg);
        } else {
            self.delayed.lock().push((Instant::now() + delay, msg));
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

    /// One reaper scan: expire leases whose holder is dead or stale,
    /// re-queue reclaims past their backoff (or quarantine them over
    /// budget), and release due delayed sends.
    fn recovery_tick(self: &Arc<Cluster>) {
        let cfg = self.recovery_cfg.read().clone();
        let now = Instant::now();
        // 1. Expire leases. A dead holder (crashed thread, `alive`
        //    false, or no longer registered) expires immediately; a live
        //    one only after its heartbeat goes stale past the TTL.
        let mut expired: Vec<Lease> = Vec::new();
        {
            let instances = self.instances.lock();
            let mut leases = self.leases.lock();
            let ids: Vec<u64> = leases.keys().copied().collect();
            for id in ids {
                let holder = match leases.get(&id) {
                    Some(l) => l.instance,
                    None => continue,
                };
                let failed = match instances.iter().find(|h| h.id == holder) {
                    None => true,
                    Some(h) => {
                        !h.control.alive.load(Ordering::Relaxed)
                            || now.saturating_duration_since(*h.control.heartbeat.lock())
                                > cfg.lease_ttl
                    }
                };
                if failed {
                    if let Some(l) = leases.remove(&id) {
                        expired.push(l);
                    }
                }
            }
        }
        for lease in expired {
            if lease.msg.redeliveries >= cfg.redelivery_budget {
                self.quarantine(&lease.service, lease.msg, "redelivery-budget");
            } else {
                // The task is now waiting on the redelivery machinery,
                // not on a queue or a handler.
                self.note_phase(&lease.msg, Phase::LeaseRedelivery);
                let due = now + cfg.backoff_for(lease.msg.redeliveries);
                self.reclaims_pending.lock().push(PendingReclaim {
                    due,
                    service: lease.service,
                    msg: lease.msg,
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
            self.metrics.add(&self.metrics.redelivered, 1);
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
        let probe = self.durability_probe.read().clone();
        if let Some(probe) = probe {
            let ready: Vec<Message> = {
                let mut held = self.held.lock();
                if held.is_empty() {
                    return;
                }
                let (ready, rest) = held.drain(..).partition(|m| probe(m.hold_until));
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
        let budget = self.recovery_cfg.read().redelivery_budget;
        if msg.redeliveries >= budget {
            self.quarantine_inner(service, msg, reason, false);
        } else {
            self.metrics.add(&self.metrics.redelivered, 1);
            self.emit_redelivered(&msg);
            // push_front bumps the redelivery count, so the budget
            // converges even when every attempt fails the same way.
            self.note_phase(&msg, Phase::QueueWait);
            self.queue(service).push_front(msg);
        }
    }

    /// Move a message to the dead-letter store, settle its queue lease,
    /// and notify observers.
    fn quarantine(&self, service: &str, msg: Message, reason: &str) {
        self.quarantine_inner(service, msg, reason, true);
    }

    /// [`quarantine`](Self::quarantine) with the lease settle optional:
    /// the reaper path owns the abandoned lease and must settle it; the
    /// handler path's lease is settled by the instance loop.
    fn quarantine_inner(&self, service: &str, msg: Message, reason: &str, settle: bool) {
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
        let observers = self.dead_observers.lock();
        for f in observers.iter() {
            f(&dl);
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
        // Tear the transport down before taking the instances lock:
        // connection threads register instances (which takes it), and
        // remote proxy threads only exit once their connections die.
        self.transport().shutdown();
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
    handler: Arc<dyn Handler>,
    control: Arc<InstanceControl>,
) {
    let cluster = ctx.cluster.clone();
    // Announce this node to the queue so affinity-stamped messages can
    // find it; withdrawn after the loop on *every* exit path (stop,
    // fault, crash) so dead nodes never pin their messages.
    queue.register_consumer(ctx.node_id);
    loop {
        *control.heartbeat.lock() = Instant::now();
        if control.stop.load(Ordering::Relaxed) {
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
        cluster.leases.lock().insert(
            msg.id,
            Lease {
                msg: msg.clone(),
                service: ctx.service.clone(),
                instance: ctx.instance_id,
            },
        );
        let metrics = &cluster.metrics;
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
                    // alive (at-least-once redelivery, not a crash).
                    cluster.emit_fault(&msg, "drop");
                    metrics.add(&metrics.redelivered, 1);
                    cluster.emit_redelivered(&msg);
                    cluster.leases.lock().remove(&msg.id);
                    cluster.note_phase(&msg, Phase::QueueWait);
                    queue.push_front(msg);
                    queue.settle();
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
                    crash_with(&cluster, &queue, &control, msg, point, &ctx, node_wide);
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
        let result = handler.handle(&ctx, &msg);
        let busy = started.elapsed().as_nanos() as u64;
        metrics.add(&metrics.busy_nanos, busy);
        metrics.add(&metrics.busy_count, 1);
        cluster.hist_busy.observe_nanos(busy);
        metrics.exit_flight();
        control.busy.store(false, Ordering::Relaxed);
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
                &queue,
                &control,
                msg,
                FaultPoint::AfterProcess,
                &ctx,
                node_wide,
            );
            break;
        }
        cluster.leases.lock().remove(&msg.id);
        cluster.route_reply(&msg, result);
        metrics.add(&metrics.completed, 1);
        queue.settle();
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
    _queue: &Arc<ServiceQueue>,
    control: &Arc<InstanceControl>,
    msg: Message,
    point: FaultPoint,
    ctx: &ServiceCtx,
    node_wide: bool,
) {
    cluster.obs.bus.emit(|| {
        msg_event(&msg, |_, _| EventKind::InstanceCrashed {
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
/// lease table, the reclaim backlog, and the delayed-send list. Holds
/// only a [`Weak`] cluster reference so dropping the last external
/// `Arc` (or [`Cluster::shutdown`]) terminates it.
fn reaper_loop(weak: Weak<Cluster>) {
    loop {
        let interval = {
            let Some(cluster) = weak.upgrade() else { return };
            if cluster.closed.load(Ordering::Relaxed) {
                return;
            }
            cluster.recovery_tick();
            let interval = cluster.recovery_cfg.read().scan_interval;
            interval
        };
        std::thread::sleep(interval);
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

/// The task a message belongs to: its `task-id` header, else the
/// `task/fiber` prefix of its `fiber-id` header.
fn task_of(msg: &Message) -> Option<&str> {
    if let Some(t) = msg.get_header("task-id") {
        return Some(t);
    }
    let fiber = msg.get_header("fiber-id")?;
    let task = fiber.split('/').next()?;
    (!task.is_empty() && task != fiber).then_some(task)
}

/// Mirror the [`Metrics`] atomics into the registry as closure-backed
/// samples: one source of truth, two read paths.
fn register_broker_metrics(obs: &Arc<Obs>, metrics: &Arc<Metrics>) {
    let reg = &obs.registry;
    let mirror = |m: &Arc<Metrics>, f: fn(&Metrics) -> &AtomicU64| {
        let m = m.clone();
        move || f(&m).load(Ordering::Relaxed)
    };
    reg.counter_fn(
        "bluebox_messages_sent_total",
        "Messages accepted by the broker.",
        "",
        mirror(metrics, |m| &m.sent),
    );
    reg.counter_fn(
        "bluebox_messages_delivered_total",
        "Messages handed to an instance.",
        "",
        mirror(metrics, |m| &m.delivered),
    );
    reg.counter_fn(
        "bluebox_messages_redelivered_total",
        "Messages re-queued after a failed delivery.",
        "",
        mirror(metrics, |m| &m.redelivered),
    );
    reg.counter_fn(
        "bluebox_handler_completions_total",
        "Handler invocations that completed.",
        "",
        mirror(metrics, |m| &m.completed),
    );
    reg.counter_fn(
        "bluebox_handler_faults_total",
        "Handler invocations that returned a fault.",
        "",
        mirror(metrics, |m| &m.faults),
    );
    let m = metrics.clone();
    reg.gauge_fn(
        "bluebox_messages_in_flight",
        "Messages currently being processed.",
        "",
        move || m.in_flight.load(Ordering::Relaxed) as i64,
    );
    let m = metrics.clone();
    reg.gauge_fn(
        "bluebox_messages_in_flight_peak",
        "High-water mark of in-flight messages.",
        "",
        move || m.max_in_flight.load(Ordering::Relaxed) as i64,
    );
}
