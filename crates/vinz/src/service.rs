//! The workflow service: Vinz wraps a Gozer program as a BlueBox service
//! exposing the Table 1 operations (Start, Run, Call, Terminate,
//! RunFiber, AwakeFiber, ResumeFromCall, JoinProcess).
//!
//! Execution model (paper §3.1): a *task* is one running workflow; it
//! contains *fibers*, each a Gozer flow of control advancing on at most
//! one node at a time. A fiber runs inside a `RunFiber` message handler
//! until it completes or suspends; suspension persists the continuation
//! to the shared store, and one of the resume operations later restores
//! it — usually on a different instance, because the message queue load
//! balances freely.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bluebox::tcp::{TcpBroker, TcpBrokerConfig};
use bluebox::{Cluster, Fault, Message, ServiceCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_obs::{
    Event, EventKind, FlightDump, FlightRecorder, HealthReport, Histogram, IntrospectServer,
    IntrospectSource, Obs, Phase, ProfileReport, SerialCostSnapshot, SerialCosts, Snapshot,
    TaskSummary, TimelineSet, PHASE_COUNT,
};
use gozer_serial::{
    deserialize_state_costed, deserialize_state_delta_costed, deserialize_value,
    serialize_state_base, serialize_state_delta_costed, serialize_state_sized, serialize_value,
};
use gozer_vm::{Condition, FiberObsEvent, FiberObsKind, FiberState, Gvm, RunOutcome, Unwind, VmError};
use parking_lot::{Mutex, RwLock};

use crate::cache::FiberCache;
use crate::locks::{InProcessLocks, LockGuard, LOCK_WAIT};
use crate::store::{MemStore, StateStore, Watermark};
use crate::supervisor::{self, RetryPolicy, SupervisorConfig};
use crate::tracker::{TaskRecord, TaskStatus, TaskTracker};

/// Node id used by the client-side (non-instance) runtime.
const ADMIN_NODE: u32 = u32::MAX;

/// Deployment configuration.
#[derive(Debug, Clone)]
pub struct VinzConfig {
    /// Default spawn limit for `for-each`/`parallel` (§3.5). Workflows
    /// may adjust it dynamically with `set-spawn-limit`.
    pub spawn_limit: usize,
    /// Compression codec for persisted fiber state (§4.2).
    pub codec: Codec,
    /// Per-node fiber cache capacity.
    pub cache_capacity: usize,
    /// Timeout for synchronous service calls.
    pub sync_call_timeout: Duration,
    /// The §5 "strict limit on how long [an AwakeFiber] will wait for its
    /// turn" before giving up and re-queuing.
    pub awake_wait_limit: Duration,
    /// Future-pool workers per node GVM.
    pub future_pool_size: usize,
    /// Enable the GVM execution profiler on every node runtime
    /// (per-opcode counts, per-function time attribution, folded
    /// stacks). Off by default; continuation serialize/deserialize
    /// costs are tracked regardless because they are a handful of
    /// atomic adds per persist.
    pub profiling: bool,
    /// How long a task waits for its children / join targets before the
    /// blocking wait paths give up (the old hard-coded 600s). Child
    /// tasks inherit the value through the `join-deadline-ms` extension
    /// slot stamped at `Start`.
    pub join_deadline: Duration,
    /// Engine-level retry policy for async service calls.
    pub retry: RetryPolicy,
    /// Deployment supervisor tunables (respawn, orphan resume).
    pub supervision: SupervisorConfig,
    /// Persist suspended fibers as *delta snapshots* (changed frames +
    /// dynamic state against the previous snapshot) whenever the VM
    /// reports a clean frame prefix (§4.1 serialization fast path).
    /// Saves that cannot be expressed as a delta — fresh fibers, fully
    /// dirty stacks, mutable objects reachable from clean frames — fall
    /// back to full snapshots transparently.
    pub delta_snapshots: bool,
    /// Compact a fiber's base + delta chain into a fresh full snapshot
    /// once it grows this long. Compaction is also forced when the
    /// fiber migrates nodes (its next loader replays the chain cold
    /// anyway, so the chain stops paying for itself).
    pub compact_every: u64,
    /// Admission control: maximum tasks in flight (started but not yet
    /// final) before new `Start`s are delayed and then shed. `0`
    /// disables the check.
    pub max_inflight_tasks: usize,
    /// Admission control: maximum waiting messages across the cluster's
    /// service queues before new `Start`s are delayed/shed. `0`
    /// disables the check.
    pub max_queue_depth: usize,
    /// Admission control: maximum suspended fibers before new `Start`s
    /// are delayed/shed. `0` disables the check.
    pub max_suspended_fibers: u64,
    /// How many times an over-pressure `Start` is delayed (each delay
    /// is one `admission_backoff` sleep) before it is rejected. `0`
    /// rejects immediately — the load-shedding configuration.
    pub admission_retries: u32,
    /// Sleep between admission re-checks of a delayed `Start`.
    pub admission_backoff: Duration,
}

impl Default for VinzConfig {
    fn default() -> Self {
        VinzConfig {
            spawn_limit: 8,
            codec: Codec::Deflate,
            cache_capacity: 64,
            sync_call_timeout: Duration::from_secs(10),
            awake_wait_limit: Duration::from_millis(50),
            future_pool_size: 2,
            profiling: false,
            join_deadline: Duration::from_secs(600),
            retry: RetryPolicy::default(),
            supervision: SupervisorConfig::default(),
            delta_snapshots: true,
            compact_every: 8,
            max_inflight_tasks: 0,
            max_queue_depth: 0,
            max_suspended_fibers: 0,
            admission_retries: 3,
            admission_backoff: Duration::from_millis(5),
        }
    }
}

/// Vinz-level counters.
#[derive(Debug, Default)]
pub struct VinzMetrics {
    /// Fiber states persisted.
    pub persist_count: AtomicU64,
    /// Bytes of persisted (compressed) fiber state.
    pub persist_bytes: AtomicU64,
    /// Fiber loads that went to the store (cache misses).
    pub load_count: AtomicU64,
    /// RunFiber executions.
    pub fibers_run: AtomicU64,
    /// Resumptions (AwakeFiber + ResumeFromCall + JoinProcess).
    pub resumes: AtomicU64,
    /// AwakeFiber lock-wait give-ups (§5 burstiness symptom).
    pub awake_retries: AtomicU64,
    /// Tasks started.
    pub tasks_started: AtomicU64,
    /// Task-variable cache hits / misses.
    pub taskvar_hits: AtomicU64,
    /// Task-variable reads served from the store.
    pub taskvar_misses: AtomicU64,
    /// Times the supervisor re-provisioned a dead deployment.
    pub supervisor_respawns: AtomicU64,
    /// Orphaned continuations the supervisor re-sent resume messages for.
    pub orphans_resumed: AtomicU64,
    /// Async service calls re-dispatched by the retry policy.
    pub calls_retried: AtomicU64,
    /// Tasks terminally failed because a message of theirs was
    /// dead-lettered.
    pub tasks_dead_lettered: AtomicU64,
    /// Bytes of persisted delta snapshot records.
    pub delta_bytes: AtomicU64,
    /// Bytes of persisted full snapshot records.
    pub full_bytes: AtomicU64,
    /// Saves persisted as deltas (the rest of `persist_count` were
    /// full snapshots).
    pub delta_saves: AtomicU64,
    /// `Start`s shed by the admission gate (typed rejection returned to
    /// the caller).
    pub admission_rejected: AtomicU64,
    /// `Start`s delayed (backoff slept at least once) by the admission
    /// gate before being admitted or rejected.
    pub admission_delayed: AtomicU64,
    /// Fibers currently suspended with a persisted continuation.
    /// Incremented on every suspension persist, decremented when a
    /// resume operation reloads the fiber; approximate under task
    /// termination (resumes addressed to already-finished tasks drop
    /// without decrementing).
    pub suspended_fibers: AtomicU64,
}

/// Per-fiber routing and sizing hints, kept in memory beside the store:
/// the node that last persisted the fiber (stamped on resume messages
/// as the broker affinity hint) and the sizes of its last full and last
/// delta record (the serializer's output-buffer hint for the next record
/// of the same kind, so steady-state saves neither reallocate mid-write
/// nor allocate a snapshot-sized buffer for a delta a fraction of it).
#[derive(Debug, Clone, Copy)]
struct FiberHot {
    node: u32,
    last_size: usize,
    last_delta_size: usize,
}

/// `(version, generation, chain_len)` of a fiber's snapshot chain, as
/// kept under `fiber-v/{id}`; see [`Inner::fiber_meta`].
type FiberMeta = (u64, u64, u64);

/// Output-buffer hint for a fiber's first record of a kind, before there
/// is a previous one to go by.
const FIRST_SAVE_HINT: usize = 256;

/// One node's runtime: a GVM (the "JVM" of that node) and its fiber
/// cache.
pub struct NodeRuntime {
    /// Node id.
    pub node_id: u32,
    /// The node's VM, with the workflow source loaded.
    pub gvm: Arc<Gvm>,
    /// The node's fiber cache (§4.2).
    pub cache: FiberCache,
}

/// Deployment errors.
#[derive(Debug, Clone)]
pub struct VinzError(pub String);

impl std::fmt::Display for VinzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vinz error: {}", self.0)
    }
}

impl std::error::Error for VinzError {}

/// Outcome of a gated [`WorkflowService::try_start`]: the admission
/// layer sheds load with a *typed* rejection, distinct from transport
/// or deployment failures, so callers can retry-with-backoff instead of
/// treating shed as an error.
#[derive(Debug, Clone)]
pub enum StartError {
    /// The admission gate shed the start; `reason` names the threshold
    /// that was over (inflight tasks, queue depth, or suspended
    /// fibers).
    Rejected {
        /// Which pressure signal rejected the start.
        reason: String,
    },
    /// The start was admitted but failed downstream.
    Failed(VinzError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Rejected { reason } => write!(f, "admission rejected: {reason}"),
            StartError::Failed(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StartError {}

pub(crate) struct Inner {
    pub name: String,
    pub source: String,
    pub cluster: Arc<Cluster>,
    pub store: Arc<dyn StateStore>,
    pub locks: InProcessLocks,
    pub config: VinzConfig,
    pub tracker: TaskTracker,
    pub obs: Arc<Obs>,
    pub metrics: Arc<VinzMetrics>,
    pub serial_costs: Arc<SerialCosts>,
    /// Start→complete latency histogram (`gozer_task_latency_seconds`),
    /// fed by [`Inner::finish_task`] on each first final transition.
    pub task_latency: Arc<Histogram>,
    /// One histogram per [`Phase`] (`gozer_task_phase_seconds`), indexed
    /// by `Phase::index()`. The closed enum *is* the cardinality guard:
    /// the label space is exactly `PHASE_COUNT` phases × deployed
    /// services, fixed at deploy time. Fed by [`Inner::finish_task`]
    /// with each finished task's nonzero phase totals.
    pub phase_hists: [Arc<Histogram>; PHASE_COUNT],
    /// The live introspection server, when the deployment asked for one
    /// ([`WorkflowServiceBuilder::introspect`]). Held so its accept loop
    /// lives exactly as long as the deployment.
    introspect: Mutex<Option<IntrospectServer>>,
    /// The TCP transport listener, when the deployment asked for one
    /// ([`WorkflowServiceBuilder::tcp_listen`]): remote worker
    /// processes connect here to register compute capacity.
    tcp: Mutex<Option<Arc<TcpBroker>>>,
    nodes: RwLock<HashMap<u32, Arc<NodeRuntime>>>,
    hot: RwLock<HashMap<String, FiberHot>>,
    next_task: AtomicU64,
    next_fiber: AtomicU64,
}

/// A deployed workflow service.
#[derive(Clone)]
pub struct WorkflowService {
    pub(crate) inner: Arc<Inner>,
}

/// Staged deployment of a [`WorkflowService`]: created by
/// [`WorkflowService::builder`], finished by
/// [`WorkflowServiceBuilder::deploy`]. Store and config have defaults
/// ([`MemStore`], `VinzConfig::default()`), so a minimal deployment is
/// just `.source(..).deploy()`.
pub struct WorkflowServiceBuilder {
    cluster: Arc<Cluster>,
    name: String,
    source: String,
    store: Arc<dyn StateStore>,
    config: VinzConfig,
    instances: Vec<(u32, usize)>,
    introspect_addr: Option<String>,
    tcp_listen_addr: Option<String>,
}

impl WorkflowServiceBuilder {
    /// The workflow source to compile and serve.
    pub fn source(mut self, source: &str) -> Self {
        self.source = source.to_string();
        self
    }

    /// The shared persistence store (default: a fresh [`MemStore`]).
    pub fn store(mut self, store: Arc<dyn StateStore>) -> Self {
        self.store = store;
        self
    }

    /// Deployment configuration (default: `VinzConfig::default()`).
    pub fn config(mut self, config: VinzConfig) -> Self {
        self.config = config;
        self
    }

    /// Spawn `count` service instances on `node_id` as part of the
    /// deployment. May be repeated for multiple nodes.
    pub fn instances(mut self, node_id: u32, count: usize) -> Self {
        self.instances.push((node_id, count));
        self
    }

    /// Enable (or disable) the GVM execution profiler on every node
    /// runtime of this deployment. Shorthand for setting
    /// [`VinzConfig::profiling`].
    pub fn profiling(mut self, on: bool) -> Self {
        self.config.profiling = on;
        self
    }

    /// Serve live introspection over HTTP on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port). The deployment binds the
    /// listener during [`WorkflowServiceBuilder::deploy`] — a bind
    /// failure fails the deploy — and the bound address is available
    /// from [`WorkflowService::introspect_addr`]. Routes: `/metrics`,
    /// `/healthz`, `/tasks`, `/timeline/<task-id>`.
    pub fn introspect(mut self, addr: &str) -> Self {
        self.introspect_addr = Some(addr.to_string());
        self
    }

    /// Listen for remote worker processes on `addr` (e.g.
    /// `"127.0.0.1:0"` for an ephemeral port). The deployment starts a
    /// [`TcpBroker`] during [`WorkflowServiceBuilder::deploy`] — a bind
    /// failure fails the deploy — and the bound address is available
    /// from [`WorkflowService::tcp_addr`] to hand to `gozer-worker`
    /// processes. The workflow service's own instances stay in-process;
    /// only capacity registered by connecting workers is remote.
    pub fn tcp_listen(mut self, addr: &str) -> Self {
        self.tcp_listen_addr = Some(addr.to_string());
        self
    }

    /// Compile the source, register the service on the cluster, and
    /// spawn any requested instances.
    ///
    /// The source is compiled eagerly on an admin runtime so deployment
    /// fails fast on compile errors; each node instance re-loads the same
    /// source lazily, which is what lets migrated continuations re-link
    /// (program ids are content-derived).
    pub fn deploy(self) -> Result<WorkflowService, VinzError> {
        let obs = self.cluster.obs();
        let metrics = Arc::new(VinzMetrics::default());
        let serial_costs = Arc::new(SerialCosts::new());
        register_vinz_metrics(&obs, &metrics, &serial_costs, &self.name);
        let task_latency = obs.registry.histogram(
            "gozer_task_latency_seconds",
            "Start→complete task latency.",
            &format!("service=\"{}\"", self.name),
        );
        // Eagerly register the full (closed) phase family so a scrape
        // sees every label from the first sample on, and the label
        // space is provably bounded: PHASE_COUNT phases per service.
        let phase_hists: [Arc<Histogram>; PHASE_COUNT] = {
            let name = self.name.clone();
            Phase::ALL.map(|p| {
                obs.registry.histogram(
                    "gozer_task_phase_seconds",
                    "Per-phase share of task wall-clock (latency attribution).",
                    &format!("phase=\"{}\",service=\"{name}\"", p.as_str()),
                )
            })
        };
        let inner = Arc::new(Inner {
            name: self.name.clone(),
            source: self.source,
            cluster: self.cluster.clone(),
            store: self.store,
            locks: InProcessLocks::new(),
            config: self.config,
            tracker: TaskTracker::new(),
            obs,
            metrics,
            serial_costs,
            task_latency,
            phase_hists,
            introspect: Mutex::new(None),
            tcp: Mutex::new(None),
            nodes: RwLock::new(HashMap::new()),
            hot: RwLock::new(HashMap::new()),
            next_task: AtomicU64::new(1),
            next_fiber: AtomicU64::new(1),
        });
        // Fail fast on compile errors.
        inner.node_runtime(ADMIN_NODE)?;
        // Service replies (ResumeFromCall) are built by the broker, not
        // by Vinz: give it the fiber-id → last-saved-node map so those
        // replies chase the fiber's cache too.
        let weak = Arc::downgrade(&inner);
        self.cluster.set_affinity_resolver(move |fiber_id| {
            weak.upgrade()
                .and_then(|i| i.hot.read().get(fiber_id).map(|h| h.node))
        });
        // The broker's leg of phase attribution: durability parks,
        // hold releases, lease reclaims and requeues flip the owning
        // task's ledger without the broker knowing about trackers.
        {
            let weak = Arc::downgrade(&inner);
            self.cluster.set_phase_observer(move |task_id, phase| {
                if let Some(i) = weak.upgrade() {
                    i.tracker.note_phase(task_id, phase);
                }
            });
        }
        // Speculative persistence (LogStore): saves return a ticket
        // before they are durable, and the one message that leaves the
        // deployment — an async service-call request — carries that
        // ticket in `hold_until`. The probe lets the broker ask "is this
        // watermark committed yet?" — and a "no" is also how the store
        // learns that a message is now parked behind that watermark, so
        // it commits in its next group instead of lingering for more
        // saves. The commit hook releases held messages the moment the
        // group-commit fsync lands. Synchronous stores answer "always
        // durable", so both are no-ops for them.
        inner.store.attach_obs(&inner.obs);
        {
            let store = inner.store.clone();
            self.cluster
                .set_durability_probe(move |w| store.durable(Watermark(w)));
        }
        {
            let cluster = Arc::downgrade(&self.cluster);
            inner.store.set_commit_hook(Arc::new(move |w: Watermark| {
                if let Some(c) = cluster.upgrade() {
                    c.note_durable(w.0);
                }
            }));
        }
        let handler = WorkflowHandler {
            inner: Arc::downgrade(&inner),
        };
        self.cluster.register_service(&self.name, None, Arc::new(handler));
        if inner.config.supervision.enabled {
            supervisor::start(&inner);
        }
        // Dead letters must reach the tracker even with supervision
        // off: quarantine is a broker decision, and a task whose
        // message was quarantined will never finish on its own.
        supervisor::install_dead_letter_observer(&inner);
        let service = WorkflowService { inner };
        // The transport goes up before any instances: local spawns
        // route through it, and workers may connect the moment the
        // address is visible.
        if let Some(addr) = &self.tcp_listen_addr {
            let broker = TcpBroker::start(&service.inner.cluster, addr, TcpBrokerConfig::default())
                .map_err(|e| VinzError(format!("tcp listen {addr}: {e}")))?;
            *service.inner.tcp.lock() = Some(broker);
        }
        for (node_id, count) in self.instances {
            service.spawn_instances(node_id, count);
        }
        if let Some(addr) = &self.introspect_addr {
            let source = Arc::new(VinzIntrospect {
                inner: Arc::downgrade(&service.inner),
            });
            let server = IntrospectServer::start(addr, source)
                .map_err(|e| VinzError(format!("introspect bind {addr}: {e}")))?;
            *service.inner.introspect.lock() = Some(server);
        }
        Ok(service)
    }
}

impl WorkflowService {
    /// Start building a deployment of workflow service `name` on
    /// `cluster`; see [`WorkflowServiceBuilder`].
    pub fn builder(cluster: &Arc<Cluster>, name: &str) -> WorkflowServiceBuilder {
        WorkflowServiceBuilder {
            cluster: cluster.clone(),
            name: name.to_string(),
            source: String::new(),
            store: Arc::new(MemStore::new()),
            config: VinzConfig::default(),
            instances: Vec::new(),
            introspect_addr: None,
            tcp_listen_addr: None,
        }
    }

    /// Spawn service instances on a node (threads competing for this
    /// service's queue).
    pub fn spawn_instances(&self, node_id: u32, count: usize) {
        self.inner
            .cluster
            .spawn_instances(&self.inner.name, node_id, count);
    }

    /// Asynchronously begin execution of a workflow, returning its task
    /// id (the Start operation). Admission-gate sheds surface as a
    /// plain [`VinzError`] here; use [`WorkflowService::try_start`] for
    /// the typed rejection.
    pub fn start(
        &self,
        function: &str,
        args: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<String, VinzError> {
        self.try_start(function, args, deadline).map_err(|e| match e {
            StartError::Rejected { reason } => VinzError(format!("admission rejected: {reason}")),
            StartError::Failed(e) => e,
        })
    }

    /// Which admission threshold (if any) is currently over pressure.
    /// `None` means a start may be admitted right now.
    fn admission_pressure(&self) -> Option<String> {
        let cfg = &self.inner.config;
        if cfg.max_inflight_tasks > 0 {
            let running = self.inner.tracker.running_count();
            if running >= cfg.max_inflight_tasks as u64 {
                return Some(format!(
                    "inflight tasks {running} >= max_inflight_tasks {}",
                    cfg.max_inflight_tasks
                ));
            }
        }
        if cfg.max_queue_depth > 0 {
            let depth = self.inner.cluster.total_queue_depth();
            if depth >= cfg.max_queue_depth {
                return Some(format!(
                    "queue depth {depth} >= max_queue_depth {}",
                    cfg.max_queue_depth
                ));
            }
        }
        if cfg.max_suspended_fibers > 0 {
            let susp = self.inner.metrics.suspended_fibers.load(Ordering::Relaxed);
            if susp >= cfg.max_suspended_fibers {
                return Some(format!(
                    "suspended fibers {susp} >= max_suspended_fibers {}",
                    cfg.max_suspended_fibers
                ));
            }
        }
        None
    }

    /// [`WorkflowService::start`] behind the admission gate: when a
    /// pressure threshold is crossed the start is delayed up to
    /// `admission_retries` backoff sleeps, then shed with a typed
    /// [`StartError::Rejected`] instead of queuing into an overloaded
    /// cluster.
    pub fn try_start(
        &self,
        function: &str,
        args: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<String, StartError> {
        // Admission is the one phase that lives *outside* the tracker
        // window (no task exists yet), so it feeds the histogram
        // directly and is excluded from per-task phase sums.
        let gate_opened = Instant::now();
        let admission_hist = &self.inner.phase_hists[Phase::Admission.index()];
        let mut waits = 0u32;
        while let Some(reason) = self.admission_pressure() {
            if waits >= self.inner.config.admission_retries {
                self.inner
                    .metrics
                    .admission_rejected
                    .fetch_add(1, Ordering::Relaxed);
                admission_hist.observe_duration(gate_opened.elapsed());
                return Err(StartError::Rejected { reason });
            }
            if waits == 0 {
                self.inner
                    .metrics
                    .admission_delayed
                    .fetch_add(1, Ordering::Relaxed);
            }
            waits += 1;
            std::thread::sleep(self.inner.config.admission_backoff);
        }
        if waits > 0 {
            admission_hist.observe_duration(gate_opened.elapsed());
        }
        self.start_unchecked(function, args, deadline)
            .map_err(StartError::Failed)
    }

    /// The ungated Start path (no admission check): name the task,
    /// register it, send `Start` one-way. The name is all the caller
    /// needs back, so nothing waits for the service to pick the message
    /// up; `Start` adopts the name, which also makes a redelivered or
    /// duplicated `Start` harmless (see [`Inner::op_start`]).
    fn start_unchecked(
        &self,
        function: &str,
        args: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<String, VinzError> {
        let inner = &self.inner;
        // A one-way send has no reply to carry "no such function".
        let admin = inner.node_runtime(ADMIN_NODE)?;
        if admin.gvm.function(function).is_none() {
            return Err(VinzError(format!(
                "workflow function {function} is not defined"
            )));
        }
        let body = serialize_value(&Value::list(args), inner.config.codec)
            .map_err(|e| VinzError(e.to_string()))?;
        let task_id = inner.new_task_id();
        let mut msg = Message::new(&inner.name, "Start", body)
            .header("function", function)
            .header("task-id", task_id.as_str());
        let mut due = None;
        if let Some(d) = deadline {
            let at = Instant::now() + d;
            msg = msg
                .header("deadline-ms", d.as_millis().to_string())
                .with_deadline(at);
            due = Some(at);
        }
        inner.tracker.task_started(&task_id, due);
        inner.cluster.send(msg);
        Ok(task_id)
    }

    /// Synchronously execute a workflow, returning its record (the Run
    /// operation, implemented client-side against the tracker so that a
    /// single-instance deployment cannot deadlock on itself).
    pub fn run(
        &self,
        function: &str,
        args: Vec<Value>,
        timeout: Duration,
    ) -> Result<TaskRecord, VinzError> {
        let task = self.start(function, args, None)?;
        self.wait(&task, timeout)
            .ok_or_else(|| VinzError(format!("task {task} did not finish in time")))
    }

    /// Synchronously execute a workflow, returning its last result (the
    /// Call operation).
    pub fn call(
        &self,
        function: &str,
        args: Vec<Value>,
        timeout: Duration,
    ) -> Result<Value, VinzError> {
        let rec = self.run(function, args, timeout)?;
        match rec.status {
            TaskStatus::Completed(v) => Ok(v),
            TaskStatus::Failed(c) => Err(VinzError(format!("task failed: {c}"))),
            TaskStatus::Terminated(c) => Err(VinzError(format!("task terminated: {c}"))),
            TaskStatus::Running => unreachable!("wait returned a non-final record"),
        }
    }

    /// Management operation: terminate a running task (the Terminate
    /// operation).
    pub fn terminate(&self, task_id: &str) {
        self.inner.cluster.send(
            Message::new(&self.inner.name, "Terminate", Vec::new()).header("task-id", task_id),
        );
    }

    /// Block until the task finishes.
    pub fn wait(&self, task_id: &str, timeout: Duration) -> Option<TaskRecord> {
        self.inner.tracker.wait(task_id, timeout)
    }

    /// Task status snapshot.
    pub fn status(&self, task_id: &str) -> Option<TaskStatus> {
        self.inner.tracker.status(task_id)
    }

    /// The unified observability view: tracing toggle, event stream,
    /// per-task timelines, counters, tracker, and the text exporter.
    pub fn obs(&self) -> WorkflowObs {
        WorkflowObs {
            inner: self.inner.clone(),
        }
    }

    /// Per-node runtimes created so far (for cache statistics).
    pub fn node_runtimes(&self) -> Vec<Arc<NodeRuntime>> {
        self.inner
            .nodes
            .read()
            .values()
            .filter(|n| n.node_id != ADMIN_NODE)
            .cloned()
            .collect()
    }

    /// The underlying store (for experiment instrumentation).
    pub fn store(&self) -> &Arc<dyn StateStore> {
        &self.inner.store
    }

    /// Where the live introspection server is listening, when the
    /// deployment enabled one ([`WorkflowServiceBuilder::introspect`]).
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.introspect.lock().as_ref().map(|s| s.addr())
    }

    /// Where the TCP transport listens for worker processes, when the
    /// deployment enabled one ([`WorkflowServiceBuilder::tcp_listen`]).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.tcp.lock().as_ref().map(|b| b.addr())
    }

    /// The deployment's TCP transport broker, if one is listening.
    pub fn tcp_broker(&self) -> Option<Arc<TcpBroker>> {
        self.inner.tcp.lock().clone()
    }
}

/// The observability view of a deployed workflow service, returned by
/// [`WorkflowService::obs`]: tracing toggle, correlated event stream,
/// span-tree timelines, Vinz counters, the task tracker, and the
/// cluster-wide Prometheus-style text exporter.
#[derive(Clone)]
pub struct WorkflowObs {
    inner: Arc<Inner>,
}

impl WorkflowObs {
    /// Toggle event collection on the shared cluster bus: broker,
    /// workflow and VM events all start or stop together.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.bus.set_enabled(on);
    }

    /// Whether event collection is on.
    pub fn is_tracing(&self) -> bool {
        self.inner.obs.bus.is_enabled()
    }

    /// The full correlated event stream (broker + workflow + VM), in
    /// emission order.
    pub fn events(&self) -> Vec<Event> {
        self.inner.obs.bus.snapshot()
    }

    /// Reconstruct per-task span trees from the event stream.
    pub fn timelines(&self) -> TimelineSet {
        TimelineSet::build(&self.inner.obs.bus.snapshot())
    }

    /// Render one task's Figure-1-style timeline, if it appears in the
    /// stream.
    pub fn timeline(&self, task_id: &str) -> Option<String> {
        self.timelines().task(task_id).map(|t| t.render())
    }

    /// Render every task's timeline.
    pub fn render(&self) -> String {
        self.timelines().render()
    }

    /// Vinz-level counters for this service.
    pub fn counters(&self) -> &VinzMetrics {
        &self.inner.metrics
    }

    /// Task tracker (records, durations, fiber counts).
    pub fn tracker(&self) -> &TaskTracker {
        &self.inner.tracker
    }

    /// Render the cluster-wide metrics registry in Prometheus text
    /// exposition format.
    pub fn export_text(&self) -> String {
        self.inner.obs.registry.render_text()
    }

    /// Point-in-time snapshot of every registered metric; two snapshots
    /// [`diff`](Snapshot::diff) into an interval view.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.obs.registry.snapshot()
    }

    /// The merged execution profile: per-function call / inclusive /
    /// exclusive totals and opcode counts from every node VM's
    /// profiler, folded stacks for flamegraphs, and the continuation
    /// serialize/deserialize costs. Function/opcode data is empty
    /// unless the deployment enabled
    /// [`WorkflowServiceBuilder::profiling`]; continuation costs are
    /// tracked always.
    pub fn profile(&self) -> ProfileReport {
        self.inner.profile_report()
    }

    /// The crash black box. Arm it with a base directory
    /// (`flight().arm(dir)`) and every task failure writes a dump
    /// directory there; unarmed (the default) it costs nothing.
    pub fn flight(&self) -> &FlightRecorder {
        &self.inner.obs.flight
    }

    /// Assemble (without writing) a flight dump of the current state:
    /// event ring, timelines, metrics text, and — when profiling is on
    /// — the merged profile. The chaos harness and the panic hook
    /// record these through [`WorkflowObs::flight`].
    pub fn flight_dump(&self, reason: &str) -> FlightDump {
        self.inner.flight_dump(reason)
    }

    /// The underlying shared observability handle (bus + registry).
    pub fn handle(&self) -> Arc<Obs> {
        self.inner.obs.clone()
    }

    /// Weak handle for the panic hook registry (must not keep a dropped
    /// deployment alive).
    pub(crate) fn inner_weak(&self) -> Weak<Inner> {
        Arc::downgrade(&self.inner)
    }
}

/// Mirror the [`VinzMetrics`] atomics into the cluster registry as
/// closure-backed counters, labelled by service so multiple deployments
/// on one cluster stay distinguishable.
fn register_vinz_metrics(
    obs: &Arc<Obs>,
    metrics: &Arc<VinzMetrics>,
    serial_costs: &Arc<SerialCosts>,
    service: &str,
) {
    let labels = format!("service=\"{service}\"");
    let reg = &obs.registry;
    // The live twin of the benchmark's `serial.ser_delta_us`: a delta
    // costs what it walks, so `walked` creeping up on `reused` means the
    // seed cache stopped hitting.
    for (source, field) in [
        (
            "reused",
            (|s| s.seed_frames_reused) as fn(SerialCostSnapshot) -> u64,
        ),
        ("walked", |s| s.seed_frames_walked),
    ] {
        let costs = serial_costs.clone();
        reg.counter_fn(
            "gozer_snapshot_seed_frames_total",
            "Clean frames behind delta saves and loads, by where their seeding tables came from.",
            &format!("source=\"{source}\",{labels}"),
            move || field(costs.snapshot()),
        );
    }
    let mirror = |m: &Arc<VinzMetrics>, f: fn(&VinzMetrics) -> &AtomicU64| {
        let m = m.clone();
        move || f(&m).load(Ordering::Relaxed)
    };
    for (name, help, field) in [
        (
            "vinz_tasks_started_total",
            "Tasks started.",
            (|m: &VinzMetrics| &m.tasks_started) as fn(&VinzMetrics) -> &AtomicU64,
        ),
        ("vinz_fibers_run_total", "RunFiber executions.", |m| {
            &m.fibers_run
        }),
        (
            "vinz_resumes_total",
            "Fiber resumptions (AwakeFiber + ResumeFromCall + JoinProcess).",
            |m| &m.resumes,
        ),
        (
            "vinz_awake_retries_total",
            "AwakeFiber lock-wait give-ups.",
            |m| &m.awake_retries,
        ),
        (
            "vinz_fiber_persists_total",
            "Fiber states persisted.",
            |m| &m.persist_count,
        ),
        (
            "vinz_fiber_persist_bytes_total",
            "Bytes of persisted (compressed) fiber state.",
            |m| &m.persist_bytes,
        ),
        (
            "vinz_fiber_store_loads_total",
            "Fiber loads served by the store (cache misses).",
            |m| &m.load_count,
        ),
        (
            "vinz_taskvar_cache_hits_total",
            "Task-variable reads served by the node cache.",
            |m| &m.taskvar_hits,
        ),
        (
            "vinz_taskvar_cache_misses_total",
            "Task-variable reads served by the store.",
            |m| &m.taskvar_misses,
        ),
        (
            "vinz_supervisor_respawns_total",
            "Dead deployments re-provisioned by the supervisor.",
            |m| &m.supervisor_respawns,
        ),
        (
            "vinz_orphans_resumed_total",
            "Orphaned continuations resumed by the supervisor.",
            |m| &m.orphans_resumed,
        ),
        (
            "vinz_calls_retried_total",
            "Async service calls re-dispatched by the retry policy.",
            |m| &m.calls_retried,
        ),
        (
            "vinz_tasks_dead_lettered_total",
            "Tasks terminally failed by dead-lettered messages.",
            |m| &m.tasks_dead_lettered,
        ),
        (
            "gozer_snapshot_delta_bytes_total",
            "Bytes of persisted delta snapshot records.",
            |m| &m.delta_bytes,
        ),
        (
            "gozer_snapshot_full_bytes_total",
            "Bytes of persisted full snapshot records.",
            |m| &m.full_bytes,
        ),
        (
            "gozer_snapshot_delta_saves_total",
            "Fiber saves persisted as delta snapshots.",
            |m| &m.delta_saves,
        ),
        (
            "gozer_admission_rejected_total",
            "Starts shed by the admission gate.",
            |m| &m.admission_rejected,
        ),
        (
            "gozer_admission_delayed_total",
            "Starts delayed by the admission gate before a decision.",
            |m| &m.admission_delayed,
        ),
    ] {
        reg.counter_fn(name, help, &labels, mirror(metrics, field));
    }
    let m = metrics.clone();
    reg.gauge_fn(
        "gozer_suspended_fibers",
        "Fibers currently suspended with a persisted continuation.",
        &labels,
        move || m.suspended_fibers.load(Ordering::Relaxed) as i64,
    );
}

/// The workflow layer behind the live introspection endpoint:
/// everything is reached through a `Weak` so an open scrape cannot keep
/// a dropped deployment alive — requests after teardown degrade to
/// empty bodies and a `degraded` health verdict.
struct VinzIntrospect {
    inner: Weak<Inner>,
}

impl IntrospectSource for VinzIntrospect {
    fn metrics_text(&self) -> String {
        self.inner
            .upgrade()
            .map(|i| i.obs.registry.render_text())
            .unwrap_or_default()
    }

    fn health(&self) -> HealthReport {
        let Some(inner) = self.inner.upgrade() else {
            return HealthReport {
                healthy: false,
                details: vec![("deployment".into(), "gone".into())],
            };
        };
        let reaper = inner.cluster.reaper_alive();
        let (alive, total) = inner.cluster.instance_counts();
        let shutdown = inner.cluster.is_shutdown();
        let transport = inner.cluster.transport();
        let transport_up = transport.alive();
        let healthy = reaper && !shutdown && transport_up && (total == 0 || alive > 0);
        let mut details = vec![
            ("reaper".into(), if reaper { "alive" } else { "dead" }.into()),
            ("instances".into(), format!("{alive}/{total}")),
            (
                "supervisor".into(),
                if inner.config.supervision.enabled {
                    "enabled"
                } else {
                    "disabled"
                }
                .into(),
            ),
            (
                "transport".into(),
                format!(
                    "{} ({})",
                    transport.name(),
                    if transport_up { "up" } else { "down" }
                ),
            ),
            (
                "cluster".into(),
                if shutdown { "shutdown" } else { "up" }.into(),
            ),
        ];
        if let Some(broker) = inner.tcp.lock().as_ref() {
            details.push(("workers".into(), broker.live_connections().to_string()));
        }
        HealthReport { healthy, details }
    }

    fn tasks(&self) -> Vec<TaskSummary> {
        let Some(inner) = self.inner.upgrade() else {
            return Vec::new();
        };
        let mut rows: Vec<TaskSummary> = inner
            .tracker
            .all()
            .into_iter()
            .map(|r| TaskSummary {
                id: r.id.clone(),
                status: match &r.status {
                    TaskStatus::Running => "running",
                    TaskStatus::Completed(_) => "completed",
                    TaskStatus::Terminated(_) => "terminated",
                    TaskStatus::Failed(_) => "failed",
                }
                .into(),
                phase: r
                    .current_phase
                    .map(|p| p.as_str().to_string())
                    .unwrap_or_else(|| "-".into()),
                fibers_created: r.fibers_created,
                fibers_finished: r.fibers_finished,
            })
            .collect();
        rows.sort_by(|a, b| a.id.cmp(&b.id));
        rows
    }

    fn timeline(&self, task: &str) -> Option<String> {
        let inner = self.inner.upgrade()?;
        TimelineSet::build(&inner.obs.bus.snapshot())
            .task(task)
            .map(|t| t.render())
    }
}

struct WorkflowHandler {
    inner: Weak<Inner>,
}

impl bluebox::Handler for WorkflowHandler {
    fn handle(&self, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, Fault> {
        let Some(inner) = self.inner.upgrade() else {
            return Err(Fault::new("{vinz}Gone", "workflow service was dropped"));
        };
        let result = match msg.operation.as_str() {
            "Start" => inner.op_start(ctx, msg),
            "Run" => inner.op_run(ctx, msg),
            "Call" => inner.op_call(ctx, msg),
            "Terminate" => inner.op_terminate(ctx, msg),
            "RunFiber" => inner.op_run_fiber(ctx, msg),
            "AwakeFiber" => inner.op_awake_fiber(ctx, msg),
            "ResumeFromCall" => crate::calls::take_reply(&inner, ctx, msg),
            "JoinProcess" => inner.op_join_process(ctx, msg),
            other => Err(VinzError(format!("unknown operation {other}"))),
        };
        // Fire-and-forget fiber operations have nowhere to surface a
        // fault: a corrupt continuation (bad `fiber-v/` chain, mangled
        // snapshot) would otherwise wedge its task forever. Route the
        // failed delivery back through the broker's redelivery budget so
        // it retries a bounded number of times and then dead-letters —
        // which the dead-letter observer turns into a task failure.
        if let Err(e) = &result {
            let fire_and_forget = matches!(
                msg.operation.as_str(),
                "RunFiber" | "AwakeFiber" | "ResumeFromCall" | "JoinProcess"
            ) && matches!(msg.reply_to, bluebox::ReplyTo::Nowhere);
            if fire_and_forget {
                inner
                    .cluster
                    .requeue_or_quarantine(&msg.service, msg.clone(), &e.0);
                return Ok(Vec::new());
            }
        }
        result.map_err(|e| Fault::new("{vinz}OperationFailed", e.0))
    }
}

impl Inner {
    // ---- node runtimes ------------------------------------------------

    pub(crate) fn node_runtime(self: &Arc<Inner>, node_id: u32) -> Result<Arc<NodeRuntime>, VinzError> {
        if let Some(rt) = self.nodes.read().get(&node_id) {
            return Ok(rt.clone());
        }
        // Build outside the lock (loading the source takes a moment);
        // a racing duplicate is discarded.
        let gvm = Gvm::with_pool_size(self.config.future_pool_size);
        crate::natives::install_vinz(&gvm, Arc::downgrade(self), node_id);
        gvm.load_str(crate::prelude::VINZ_PRELUDE, "vinz-prelude")
            .map_err(|e| VinzError(format!("vinz prelude failed to load: {e}")))?;
        // The unit name must be identical on every node so program ids
        // (and therefore migrated continuations) line up.
        gvm.load_str(&self.source, &format!("workflow:{}", self.name))
            .map_err(|e| VinzError(format!("workflow source failed to load: {e}")))?;
        // The VM leg of the observability layer: continuation captures
        // and re-entries, correlated through the fiber's ext map.
        if node_id != ADMIN_NODE {
            let obs = self.obs.clone();
            gvm.set_fiber_observer(Some(Arc::new(move |e: &FiberObsEvent<'_>| {
                let kind = match e.kind {
                    FiberObsKind::Suspended { frames } => EventKind::VmSuspend { frames },
                    FiberObsKind::Resumed => EventKind::VmResume,
                    // Completion/failure already appear as lifecycle
                    // events (FiberDone / TaskDone).
                    FiberObsKind::Completed | FiberObsKind::Failed => return,
                };
                obs.bus.emit(|| {
                    let id = |slot| e.ext.get(slot).and_then(|v| v.as_str().map(str::to_owned));
                    Event::new(kind)
                        .node(node_id)
                        .task_opt(id("task-id"))
                        .fiber_opt(id("fiber-id"))
                });
            })));
            // Profiling is enabled only now, after the prelude and the
            // workflow source have loaded: load-time opcode execution
            // would otherwise drown the workflow's own opcode mix (and
            // vary with source size rather than behaviour).
            if self.config.profiling {
                gvm.profiler().set_enabled(true);
            }
        }
        let rt = Arc::new(NodeRuntime {
            node_id,
            gvm,
            cache: FiberCache::new(self.config.cache_capacity),
        });
        let mut nodes = self.nodes.write();
        Ok(nodes.entry(node_id).or_insert(rt).clone())
    }

    // ---- profiling / flight recorder ------------------------------------

    /// Merge every node VM's profiler snapshot, plus the continuation
    /// costs, into one [`ProfileReport`]. The admin runtime is skipped
    /// (it never executes workflow fibers, and its profiler is never
    /// enabled).
    pub(crate) fn profile_report(&self) -> ProfileReport {
        let mut report = ProfileReport::default();
        for rt in self.nodes.read().values() {
            if rt.node_id != ADMIN_NODE {
                report.merge(&rt.gvm.profiler().snapshot());
            }
        }
        report.serial = self.serial_costs.snapshot();
        report
    }

    /// Assemble a flight dump of the current state.
    pub(crate) fn flight_dump(&self, reason: &str) -> FlightDump {
        let events = self.obs.bus.snapshot();
        let timelines = TimelineSet::build(&events).render();
        FlightDump {
            reason: reason.to_string(),
            timelines,
            metrics: self.obs.registry.render_text(),
            profile: if self.config.profiling {
                Some(self.profile_report())
            } else {
                None
            },
            events,
        }
    }

    // ---- id helpers ----------------------------------------------------

    fn new_task_id(&self) -> String {
        format!("task-{}", self.next_task.fetch_add(1, Ordering::Relaxed))
    }

    pub(crate) fn new_fiber_id(&self, task_id: &str) -> String {
        format!(
            "{task_id}/f{}",
            self.next_fiber.fetch_add(1, Ordering::Relaxed)
        )
    }

    pub(crate) fn task_of(fiber_id: &str) -> &str {
        fiber_id.split('/').next().unwrap_or(fiber_id)
    }

    /// Emit a workflow-lifecycle event about `fiber_id`. `kind` runs
    /// only while the bus is on, so whatever it clones or formats costs
    /// nothing otherwise.
    pub(crate) fn emit(
        &self,
        node: u32,
        instance: u64,
        fiber_id: &str,
        kind: impl FnOnce() -> EventKind,
    ) {
        self.obs.bus.emit(|| {
            Event::new(kind())
                .node(node)
                .instance(instance)
                .task(Inner::task_of(fiber_id))
                .fiber(fiber_id)
        });
    }

    // ---- persistence ----------------------------------------------------

    /// Snapshot-chain metadata for a fiber: `(version, generation,
    /// chain_len)`. The *version* increments on every save (the cache
    /// validity token); the *generation* names the current full-snapshot
    /// base key (bumped on compaction so a crashed compaction can never
    /// pair a new base with stale deltas); *chain_len* counts the delta
    /// records stacked on that base. A 24-byte little-endian record; a
    /// shorter one (damaged, or written by something else) reads its
    /// missing bytes as zero rather than failing the parse.
    ///
    /// The record is first written by a fiber's first *suspension*:
    /// `None` means the fiber has never suspended, and its continuation
    /// — if it has one — is the birth record, version 0 under the
    /// generation-0 key.
    fn fiber_meta(&self, fiber_id: &str) -> Result<Option<FiberMeta>, VinzError> {
        Ok(self
            .store
            .get(&format!("fiber-v/{fiber_id}"))
            .map_err(|e| VinzError(e.to_string()))?
            .map(|b| {
                let word = |i: usize| {
                    let mut buf = [0u8; 8];
                    let src = b.get(i * 8..i * 8 + 8).unwrap_or(&[]);
                    buf[..src.len()].copy_from_slice(src);
                    u64::from_le_bytes(buf)
                };
                (word(0), word(1), word(2))
            }))
    }

    /// Encode the 24-byte meta record; saved atomically *with* the data
    /// key it names via [`StateStore::put_batch`], so no crash can
    /// publish a meta record pointing at an unwritten snapshot.
    fn fiber_meta_rec(version: u64, generation: u64, chain: u64) -> [u8; 24] {
        let mut rec = [0u8; 24];
        rec[0..8].copy_from_slice(&version.to_le_bytes());
        rec[8..16].copy_from_slice(&generation.to_le_bytes());
        rec[16..24].copy_from_slice(&chain.to_le_bytes());
        rec
    }

    /// Store key of a fiber's full-snapshot base; generation 0, the
    /// first, has the plain key.
    fn base_key(fiber_id: &str, generation: u64) -> String {
        if generation == 0 {
            format!("fiber/{fiber_id}")
        } else {
            format!("fiber/{fiber_id}@{generation}")
        }
    }

    fn delta_key(fiber_id: &str, index: u64) -> String {
        format!("fiber-d/{fiber_id}/{index}")
    }

    /// Execution phase of a fiber, used to make the Table-1 operations
    /// idempotent under the broker's at-least-once delivery: `initial`
    /// (never run to a suspension), `suspended` (awaiting a resume),
    /// `done`. A duplicate RunFiber delivered after the fiber suspended
    /// must not re-enter it, and a duplicate resume must not advance it
    /// twice.
    ///
    /// The phase has no record of its own; it is read off the two a
    /// fiber's life writes anyway: its result means done, else its meta
    /// record (first written when it first suspends) means suspended,
    /// else it is still as it was born. A fiber that died with its task
    /// leaves neither, and needs neither: every entry turns a finished
    /// task's messages away before asking. The meta comes back too, so
    /// the caller that goes on to load and save reads it once.
    pub(crate) fn fiber_phase(
        &self,
        fiber_id: &str,
    ) -> Result<(&'static str, Option<FiberMeta>), VinzError> {
        let done = self
            .store
            .get(&format!("result/{fiber_id}"))
            .map_err(|e| VinzError(e.to_string()))?
            .is_some();
        if done {
            return Ok(("done", None));
        }
        let meta = self.fiber_meta(fiber_id)?;
        let phase = if meta.is_some() { "suspended" } else { "initial" };
        Ok((phase, meta))
    }

    /// Persist a fiber that has never run: its generation-0 base and
    /// nothing else. No meta record (absent *is* version 0), so nothing
    /// is read first, and no routing entry — until it has run somewhere
    /// any node is as cold as any other.
    pub(crate) fn save_newborn(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        state: FiberState,
    ) -> Result<(), VinzError> {
        self.tracker.note_phase(Inner::task_of(fiber_id), Phase::Serialize);
        let start = Instant::now();
        let bytes = serialize_state_sized(&state, self.config.codec, FIRST_SAVE_HINT)
            .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
        self.serial_costs
            .record_serialize(bytes.len() as u64, start.elapsed().as_nanos() as u64);
        self.store
            .put(&Inner::base_key(fiber_id, 0), &bytes)
            .map_err(|e| VinzError(e.to_string()))?;
        self.metrics
            .full_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.note_saved(rt, instance, fiber_id, 0, state, bytes.len());
        Ok(())
    }

    /// The tail every save shares: the state just persisted *is* the new
    /// snapshot — every frame is clean relative to it until the fiber
    /// runs again — so it goes into the node cache under its version.
    fn note_saved(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        version: u64,
        mut state: FiberState,
        saved_len: usize,
    ) {
        state.clean_prefix = state.frames.len();
        rt.cache.put_fiber(fiber_id, version, state);
        self.metrics.persist_count.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .persist_bytes
            .fetch_add(saved_len as u64, Ordering::Relaxed);
        self.emit(rt.node_id, instance, fiber_id, || EventKind::FiberPersisted {
            bytes: saved_len,
        });
    }

    /// Persist the continuation of a fiber that just suspended (under
    /// the fiber lock), as one batch with the meta record that names it
    /// and the `susp/` crumb saying what it waits on. `meta` is what the
    /// entry read under the same lock.
    ///
    /// Steady state writes a *delta* record (the frames above the VM's
    /// clean prefix plus the dynamic state) stacked on the fiber's last
    /// full snapshot; the chain is compacted back into a full snapshot
    /// every [`VinzConfig::compact_every`] saves, on node migration, or
    /// whenever a delta would be unsound (no clean prefix, mutable
    /// object reachable from a clean frame). A first suspension has no
    /// snapshot of this run to be a delta of and replaces the birth
    /// record.
    ///
    /// Crash atomicity: the batch is all or nothing, so recovery sees a
    /// meta record only with the snapshot it names and the crumb the
    /// orphan scan needs; a compaction additionally writes the new base
    /// under a fresh generation key, so even the "nothing" outcome
    /// leaves the old base + chain fully intact.
    ///
    /// The save is not waited for. Whatever it causes inside the
    /// deployment (RunFiber for a fresh child, AwakeFiber/JoinProcess on
    /// completion) only leads to later records of the same log, which a
    /// crash cannot keep without keeping this one (DESIGN.md §13).
    fn save_fiber(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        state: FiberState,
        meta: Option<FiberMeta>,
        crumb: &str,
    ) -> Result<(), VinzError> {
        self.tracker.note_phase(Inner::task_of(fiber_id), Phase::Serialize);
        let (version, generation, chain) = meta.unwrap_or_default();
        let hot = self.hot.read().get(fiber_id).copied();
        let migrated = hot.is_some_and(|h| h.node != rt.node_id);
        let mut hot = hot.unwrap_or(FiberHot {
            node: rt.node_id,
            last_size: FIRST_SAVE_HINT,
            last_delta_size: FIRST_SAVE_HINT,
        });
        // The affinity stamp moves to this node whatever gets written.
        hot.node = rt.node_id;

        let mut delta = None;
        if self.config.delta_snapshots
            && version > 0
            && !migrated
            && chain < self.config.compact_every
        {
            let start = Instant::now();
            let (bytes, seeds) = serialize_state_delta_costed(
                &state,
                state.clean_prefix,
                self.config.codec,
                hot.last_delta_size,
            )
            .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
            delta = bytes;
            self.serial_costs.record_seeding(seeds.reused, seeds.walked);
            if let Some(bytes) = &delta {
                self.serial_costs
                    .record_serialize(bytes.len() as u64, start.elapsed().as_nanos() as u64);
            }
        }
        let meta_key = format!("fiber-v/{fiber_id}");
        let crumb_key = format!("susp/{fiber_id}");
        let saved_len = match delta {
            Some(bytes) => {
                let meta = Inner::fiber_meta_rec(version + 1, generation, chain + 1);
                self.store
                    .put_batch(&[
                        (&Inner::delta_key(fiber_id, chain), &bytes),
                        (&meta_key, &meta),
                        (&crumb_key, crumb.as_bytes()),
                    ])
                    .map_err(|e| VinzError(e.to_string()))?;
                self.metrics.delta_saves.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .delta_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                hot.last_delta_size = bytes.len();
                bytes.len()
            }
            None => {
                let start = Instant::now();
                // The base of the chain to come: its tables stay in
                // `state.seed`, so the next delta has no prefix to walk.
                let bytes = serialize_state_base(&state, self.config.codec, hot.last_size)
                    .map_err(|e| VinzError(format!("persist {fiber_id}: {e}")))?;
                self.serial_costs
                    .record_serialize(bytes.len() as u64, start.elapsed().as_nanos() as u64);
                let new_gen = if chain > 0 { generation + 1 } else { generation };
                let meta = Inner::fiber_meta_rec(version + 1, new_gen, 0);
                self.store
                    .put_batch(&[
                        (&Inner::base_key(fiber_id, new_gen), &bytes),
                        (&meta_key, &meta),
                        (&crumb_key, crumb.as_bytes()),
                    ])
                    .map_err(|e| VinzError(e.to_string()))?;
                // Garbage, not state: the old base and its deltas are
                // unreachable once the meta names the new generation.
                if new_gen != generation {
                    let _ = self.store.delete(&Inner::base_key(fiber_id, generation));
                    for k in 0..chain {
                        let _ = self.store.delete(&Inner::delta_key(fiber_id, k));
                    }
                }
                self.metrics
                    .full_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                hot.last_size = bytes.len();
                bytes.len()
            }
        };
        self.hot.write().insert(fiber_id.to_string(), hot);
        self.note_saved(rt, instance, fiber_id, version + 1, state, saved_len);
        Ok(())
    }

    /// Load a fiber continuation, trying the node cache first (§4.2); a
    /// miss reads the full-snapshot base and replays any delta chain on
    /// top, which reconstitutes the state bit-identically to the last
    /// save.
    fn load_fiber(
        &self,
        rt: &NodeRuntime,
        instance: u64,
        fiber_id: &str,
        meta: Option<FiberMeta>,
    ) -> Result<FiberState, VinzError> {
        self.tracker.note_phase(Inner::task_of(fiber_id), Phase::Deserialize);
        let (version, generation, chain) = meta.unwrap_or_default();
        if let Some(state) = rt.cache.get_fiber(fiber_id, version) {
            self.emit(rt.node_id, instance, fiber_id, || EventKind::FiberLoaded {
                cache_hit: true,
            });
            return Ok(state);
        }
        let bytes = self
            .store
            .get(&Inner::base_key(fiber_id, generation))
            .map_err(|e| VinzError(e.to_string()))?
            .ok_or_else(|| VinzError(format!("fiber {fiber_id} has no persisted state")))?;
        let (mut state, cost) = deserialize_state_costed(&bytes, &rt.gvm)
            .map_err(|e| VinzError(format!("load {fiber_id}: {e}")))?;
        self.serial_costs.record_deserialize(cost.bytes, cost.nanos);
        for k in 0..chain {
            let key = Inner::delta_key(fiber_id, k);
            let dbytes = self
                .store
                .get(&key)
                .map_err(|e| VinzError(e.to_string()))?
                .ok_or_else(|| VinzError(format!("fiber {fiber_id} is missing delta {k}")))?;
            let start = Instant::now();
            let (next, seeds) = deserialize_state_delta_costed(&dbytes, &rt.gvm, &state)
                .map_err(|e| VinzError(format!("load {fiber_id} delta {k}: {e}")))?;
            state = next;
            self.serial_costs
                .record_deserialize(dbytes.len() as u64, start.elapsed().as_nanos() as u64);
            self.serial_costs.record_seeding(seeds.reused, seeds.walked);
        }
        rt.cache.put_fiber(fiber_id, version, state.clone());
        self.metrics.load_count.fetch_add(1, Ordering::Relaxed);
        self.emit(rt.node_id, instance, fiber_id, || EventKind::FiberLoaded {
            cache_hit: false,
        });
        Ok(state)
    }

    /// Read write-once data through the immutable cache.
    pub(crate) fn load_immutable(
        &self,
        rt: &NodeRuntime,
        key: &str,
    ) -> Result<Option<Vec<u8>>, VinzError> {
        if let Some(data) = rt.cache.get_immutable(key) {
            return Ok(Some(data));
        }
        let data = self.store.get(key).map_err(|e| VinzError(e.to_string()))?;
        if let Some(ref d) = data {
            rt.cache.put_immutable(key, d.clone());
        }
        Ok(data)
    }

    // ---- operations (Table 1) -------------------------------------------

    /// Start: create the task and main fiber, persist the fiber as it
    /// was born, enqueue RunFiber, return the task id (§3.1).
    ///
    /// The task is named by whoever sent the message — a `task-id`
    /// header, which [`WorkflowService::start`] always stamps — or,
    /// failing that, here. A sender that named its task can send the
    /// `Start` one-way, gets the same task however often the broker
    /// delivers it, and is owed an end state under that name if the
    /// task cannot be started: nobody reads a one-way message's fault.
    fn op_start(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let named = msg.get_header("task-id");
        if let Some(n) = named
            .and_then(|id| id.strip_prefix("task-"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            // A name of our own shape: keep the counter ahead of it, so
            // whoever mints next cannot collide with it.
            self.next_task
                .fetch_max(n.saturating_add(1), Ordering::Relaxed);
        }
        match self.begin_task(ctx, msg, named) {
            Ok(task_id) => Ok(task_id.into_bytes()),
            Err(e) => {
                if let Some(task_id) = named {
                    self.tracker.task_started(task_id, None);
                    let cond = Condition::with_types(
                        vec!["start-failed".into(), "error".into()],
                        e.0.clone(),
                        Value::Nil,
                    );
                    self.fail_task(ctx.node_id, ctx.instance_id, &format!("{task_id}/f0"), "failed", cond);
                }
                Err(e)
            }
        }
    }

    /// The body of Start; `named` is the id the sender chose, if any.
    fn begin_task(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
        named: Option<&str>,
    ) -> Result<String, VinzError> {
        let rt = self.node_runtime(ctx.node_id)?;
        let function = msg.get_header("function").unwrap_or("main");
        let func = rt
            .gvm
            .function(function)
            .ok_or_else(|| VinzError(format!("workflow function {function} is not defined")))?;
        let args = deserialize_value(&msg.body, &rt.gvm)
            .map_err(|e| VinzError(format!("bad Start arguments: {e}")))?;
        // Freshly deserialized, so the list Arc is unshared and the
        // argument vector moves out without a per-element clone.
        let args: Vec<Value> = match args {
            Value::List(items) => Arc::try_unwrap(items).unwrap_or_else(|a| (*a).clone()),
            _ => Vec::new(),
        };

        let task_id = named.map_or_else(|| self.new_task_id(), str::to_owned);
        let fiber_id = format!("{task_id}/f0");
        // Birth happens under the fiber's own lock. Two deliveries of one
        // Start then cannot both find the task undefined, and the
        // RunFiber the first one sends cannot reach a suspension —
        // which rewrites `fiber/{id}` — while the second is still about
        // to write the birth record over it.
        let birth = self
            .locks
            .acquire(format!("fiber/{fiber_id}"), LOCK_WAIT)
            .ok_or_else(|| VinzError(format!("could not lock {fiber_id} to start it")))?;
        // The task definition is the first thing a Start writes: where
        // it exists, this Start has been delivered before.
        let def_key = format!("task-def/{task_id}");
        let known = self.store.get(&def_key).map_err(|e| VinzError(e.to_string()))?;
        if known.is_some() {
            return Ok(task_id);
        }
        // Anchor the deadline at submission (message enqueue), not at
        // Start processing: queueing delay counts against the deadline.
        let deadline = msg
            .get_header("deadline-ms")
            .and_then(|s| s.parse::<u64>().ok())
            .map(|ms| msg.enqueued_at + Duration::from_millis(ms));
        self.tracker.task_started(&task_id, deadline);
        self.tracker.fiber_created(&task_id);
        self.metrics.tasks_started.fetch_add(1, Ordering::Relaxed);

        let mut state = rt
            .gvm
            .fiber_for(&func, args)
            .map_err(|e| VinzError(format!("cannot start {function}: {e}")))?;
        state.ext.set("task-id", Value::str(&task_id));
        state.ext.set("fiber-id", Value::str(&fiber_id));
        state.ext.set("root", Value::Bool(true));
        state
            .ext
            .set("spawn-limit", Value::Int(self.config.spawn_limit as i64));
        state.ext.set(
            "join-deadline-ms",
            Value::Int(self.config.join_deadline.as_millis() as i64),
        );
        if let Some(d) = msg.get_header("deadline-ms") {
            state.ext.set("deadline-ms", Value::str(d));
        }
        // Persist the (immutable) task definition: consulted by every
        // fiber execution, so the per-node immutable cache serves it
        // after the first read — the second compartment of the §4.2
        // cache measurements.
        let mut def = gozer_lang::AssocMap::new();
        def.insert(Value::keyword("function"), Value::str(function));
        def.insert(
            Value::keyword("deadline-ms"),
            msg.get_header("deadline-ms")
                .map(Value::str)
                .unwrap_or(Value::Nil),
        );
        let def_bytes = serialize_value(&Value::Map(Arc::new(def)), self.config.codec)
            .map_err(|e| VinzError(e.to_string()))?;
        self.store
            .put(&def_key, &def_bytes)
            .map_err(|e| VinzError(e.to_string()))?;
        rt.cache.put_immutable(&def_key, def_bytes);

        self.save_newborn(&rt, ctx.instance_id, &fiber_id, state)?;
        drop(birth);
        self.emit(ctx.node_id, ctx.instance_id, &fiber_id, || EventKind::TaskStarted);
        self.tracker.note_phase(&task_id, Phase::QueueWait);
        self.send_run_fiber(&fiber_id, deadline);
        Ok(task_id)
    }

    /// Send the RunFiber message that begins (or re-begins) a fiber.
    /// Ungated: the consumer reads the continuation through the store's
    /// overlay, and everything it then writes follows that continuation
    /// in the log.
    pub(crate) fn send_run_fiber(&self, fiber_id: &str, deadline: Option<Instant>) {
        let mut msg = Message::new(&self.name, "RunFiber", Vec::new()).header("fiber-id", fiber_id);
        if let Some(d) = deadline {
            msg = msg.with_deadline(d);
        }
        self.cluster.send(self.stamp_affinity(msg, fiber_id));
    }

    /// Send the AwakeFiber message that tells `parent_id` its child
    /// `child_id` has finished. AwakeFiber messages are low priority
    /// (§5).
    pub(crate) fn send_awake(&self, parent_id: &str, child_id: &str) {
        let msg = Message::new(&self.name, "AwakeFiber", Vec::new())
            .header("fiber-id", parent_id)
            .header("from-child", child_id)
            .with_priority(-1);
        self.cluster.send(self.stamp_affinity(msg, parent_id));
    }

    /// Send the JoinProcess message that hands `waiter` the result of
    /// `target`.
    pub(crate) fn send_join(&self, waiter: &str, target: &str) {
        let msg = Message::new(&self.name, "JoinProcess", Vec::new())
            .header("fiber-id", waiter)
            .header("target", target);
        self.cluster.send(self.stamp_affinity(msg, waiter));
    }

    /// Stamp a fiber-bound message with the node that last persisted the
    /// fiber, so the broker can route it back to the warm §4.2 cache.
    /// Fibers never saved (fresh children) go unstamped — any node is as
    /// cold as any other.
    fn stamp_affinity(&self, msg: Message, fiber_id: &str) -> Message {
        match self.hot.read().get(fiber_id) {
            Some(h) => msg.with_affinity(h.node),
            None => msg,
        }
    }

    /// Run: Start then wait for completion (synchronous; occupies this
    /// instance's slot, so deployments using the service-level Run need
    /// at least two instances).
    fn op_run(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id_bytes = self.op_start(ctx, msg)?;
        let task_id = String::from_utf8_lossy(&task_id_bytes).into_owned();
        self.tracker
            .wait(&task_id, self.config.join_deadline)
            .ok_or_else(|| VinzError(format!("task {task_id} did not finish")))?;
        Ok(task_id_bytes)
    }

    /// Call: Run, then return the final result.
    fn op_call(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id_bytes = self.op_run(ctx, msg)?;
        let task_id = String::from_utf8_lossy(&task_id_bytes).into_owned();
        match self.tracker.status(&task_id) {
            Some(TaskStatus::Completed(v)) => {
                serialize_value(&v, self.config.codec).map_err(|e| VinzError(e.to_string()))
            }
            Some(TaskStatus::Failed(c)) | Some(TaskStatus::Terminated(c)) => {
                Err(VinzError(format!("{c}")))
            }
            other => Err(VinzError(format!("unexpected status {other:?}"))),
        }
    }

    /// Terminate: flag the task; fibers notice at their next message
    /// boundary (§3.7).
    fn op_terminate(self: &Arc<Inner>, _ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id = msg
            .get_header("task-id")
            .ok_or_else(|| VinzError("Terminate requires task-id".into()))?;
        self.finish_task(
            task_id,
            TaskStatus::Terminated(Condition::new("terminated", "terminated by management request")),
        );
        Ok(Vec::new())
    }

    /// RunFiber: execute a fiber from its persisted continuation.
    fn op_run_fiber(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        self.enter_fiber(
            ctx,
            msg,
            fiber_id,
            LOCK_WAIT,
            "initial",
            None,
            |why| {
                // A fiber that never ran, and now never will, still
                // counts as finished.
                if why == "finished" {
                    self.tracker.fiber_finished(Inner::task_of(fiber_id));
                }
            },
            |_| Ok(Some(None)),
        )
    }

    /// AwakeFiber: resume a parent awaiting children (§3.5), with the §5
    /// bounded lock wait.
    fn op_awake_fiber(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        self.enter_fiber(
            ctx,
            msg,
            fiber_id,
            self.config.awake_wait_limit,
            "suspended",
            // Each child's termination wake-up counts once.
            msg.get_header("from-child").map(|child| ("awakes-consumed", child)),
            |why| {
                // §5: give up and go back on the queue rather than hold
                // the instance hostage.
                if why == "busy" {
                    self.metrics.awake_retries.fetch_add(1, Ordering::Relaxed);
                    self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::AwakeRetry);
                }
            },
            |_| Ok(Some(Some(("awake", Value::Nil)))),
        )
    }

    /// JoinProcess: resume a fiber waiting on another fiber's
    /// termination, delivering the target's result.
    fn op_join_process(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        let target = msg.get_header("target").unwrap_or("");
        self.enter_fiber(
            ctx,
            msg,
            fiber_id,
            LOCK_WAIT,
            "suspended",
            // Redelivered join wake-ups are told apart by target.
            Some(("joins-consumed", target)),
            |_| {},
            |rt| {
                let result = match self.load_immutable(rt, &format!("result/{target}"))? {
                    Some(bytes) => deserialize_value(&bytes, &rt.gvm)
                        .map_err(|e| VinzError(format!("bad result for {target}: {e}")))?,
                    None => Value::Nil,
                };
                Ok(Some(Some(("join", result))))
            },
        )
    }

    /// The one way into a persisted fiber: RunFiber, AwakeFiber,
    /// ResumeFromCall and JoinProcess (Table 1) are this protocol, run
    /// on what each hands in.
    ///
    /// * `lock_wait` — how long to wait for the fiber lock before the
    ///   message goes back on the queue.
    /// * `answers` — the fiber phase the message is for: `initial` for
    ///   a first run, `suspended` for a resume. Under at-least-once
    ///   delivery a message can find its fiber elsewhere: still
    ///   `initial` means it beat the suspension it answers and is
    ///   retried shortly; anything else means it is late or a duplicate
    ///   (the continuation of a suspended fiber expects a *resume*, not
    ///   a re-entry; a finished fiber expects nothing) and is dropped.
    /// * `once` — `(ext slot, key)`: the wake-up counts once per key,
    ///   even when the broker redelivers it. The consumed set travels
    ///   with the continuation.
    /// * `turned_away` — told why a message did not reach its fiber:
    ///   `finished` (the task is), `busy` (the lock wait ran out), or
    ///   the stale phase it found.
    /// * `resume` — runs under the fiber lock once the phase matches:
    ///   `Some(None)` runs the fiber from the top, `Some(Some((via,
    ///   value)))` resumes it with `value`, `None` means the message
    ///   was used up some other way and the fiber stays as it is.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enter_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
        fiber_id: &str,
        lock_wait: Duration,
        answers: &str,
        once: Option<(&str, &str)>,
        turned_away: impl Fn(&str),
        resume: impl FnOnce(&NodeRuntime) -> Result<Option<Option<(&'static str, Value)>>, VinzError>,
    ) -> Result<Vec<u8>, VinzError> {
        let task_id = Inner::task_of(fiber_id);
        // Fibers of finished tasks terminate "in short order" (§3.7).
        if self.task_finished(task_id) {
            turned_away("finished");
            return Ok(Vec::new());
        }
        let Some(guard) = self.locks.acquire(format!("fiber/{fiber_id}"), lock_wait) else {
            // Could not get the fiber; hand the message back to the queue.
            turned_away("busy");
            self.cluster.send(msg.clone());
            return Ok(Vec::new());
        };
        let meta = match self.fiber_phase(fiber_id)? {
            (phase, meta) if phase == answers => meta,
            ("initial", _) => return self.retry_shortly(guard, msg),
            (phase, _) => {
                turned_away(phase);
                return Ok(Vec::new());
            }
        };
        let rt = self.node_runtime(ctx.node_id)?;
        self.check_task_def(&rt, task_id)?;
        let Some(resume) = resume(&rt)? else {
            return Ok(Vec::new());
        };
        let mut state = self.load_fiber(&rt, ctx.instance_id, fiber_id, meta)?;
        if let Some((slot, key)) = once {
            let mut consumed = state
                .ext
                .get(slot)
                .and_then(Value::as_list)
                .map(<[Value]>::to_vec)
                .unwrap_or_default();
            if consumed.iter().any(|v| v.as_str() == Some(key)) {
                return Ok(Vec::new());
            }
            consumed.push(Value::str(key));
            state.ext.set(slot, Value::list(consumed));
        }
        self.drive_fiber(ctx, &rt, fiber_id, state, meta, resume)
    }

    /// A wake-up found its fiber still in phase "initial": it beat the
    /// suspension it answers. Requeue it after a short back-off, with the
    /// fiber lock released first — the instance thread sleeping here
    /// must not keep the fiber's own first run waiting on that lock.
    fn retry_shortly(&self, guard: LockGuard<'_>, msg: &Message) -> Result<Vec<u8>, VinzError> {
        drop(guard);
        std::thread::sleep(Duration::from_millis(1));
        self.cluster.send(msg.clone());
        Ok(Vec::new())
    }

    // ---- fiber execution -------------------------------------------------

    pub(crate) fn task_finished(&self, task_id: &str) -> bool {
        self.tracker.is_final(task_id)
    }

    /// Move a task to a final state and, when *this* call performed the
    /// transition, feed the start→complete latency histogram plus the
    /// per-phase family with the task's (now closed) ledger. Only
    /// nonzero phases observe, so e.g. `durability_hold` stays an empty
    /// histogram under synchronous stores instead of a wall of zeros.
    pub(crate) fn finish_task(&self, task_id: &str, status: TaskStatus) {
        if let Some((d, phases)) = self.tracker.finish(task_id, status) {
            self.task_latency.observe_duration(d);
            for phase in Phase::ALL {
                let spent = phases.get(phase);
                if !spent.is_zero() {
                    self.phase_hists[phase.index()].observe_duration(spent);
                }
            }
        }
    }

    /// End `fiber_id`'s task `Failed` with `cond`: the fiber died of an
    /// unhandled condition, never came to be, or a message of its task
    /// was dead-lettered. `why` labels the flight dump (`{task}-{why}`).
    pub(crate) fn fail_task(&self, node: u32, instance: u64, fiber_id: &str, why: &str, cond: Condition) {
        let task_id = Inner::task_of(fiber_id);
        self.emit(node, instance, fiber_id, || EventKind::TaskDone {
            outcome: "failed".into(),
        });
        // Black box: capture the failure context before the tracker
        // wakes any waiting client (who may tear the deployment down
        // immediately).
        if self.obs.flight.is_armed() {
            let dump = self.flight_dump(&format!("task {task_id} failed at {fiber_id}: {cond}"));
            let _ = self.obs.flight.record(&format!("{task_id}-{why}"), &dump);
        }
        self.finish_task(task_id, TaskStatus::Failed(cond));
    }

    /// Decrement the suspended-fiber gauge without wrapping below zero
    /// (a resume can race a terminate that already dropped the count).
    fn suspended_dec(&self) {
        let _ = self
            .metrics
            .suspended_fibers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Validate the task definition exists (every fiber execution
    /// consults it, through the immutable cache).
    fn check_task_def(&self, rt: &NodeRuntime, task_id: &str) -> Result<(), VinzError> {
        match self.load_immutable(rt, &format!("task-def/{task_id}"))? {
            Some(_) => Ok(()),
            None => Err(VinzError(format!("task {task_id} has no definition"))),
        }
    }

    /// Run a fiber from the top (`resume` is `None`) or resume it with a
    /// value and the way it arrived (`awake`, `service-call`, `join`),
    /// and deal with the outcome: completion, suspension, break,
    /// terminate, or failure. The caller holds the fiber lock, under
    /// which it read `meta` and loaded `state`.
    fn drive_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        rt: &Arc<NodeRuntime>,
        fiber_id: &str,
        state: FiberState,
        meta: Option<FiberMeta>,
        resume: Option<(&'static str, Value)>,
    ) -> Result<Vec<u8>, VinzError> {
        let task_id = Inner::task_of(fiber_id).to_string();
        // Capture identity metadata before the state is consumed.
        let is_root = state.ext.get("root").map(Value::is_truthy).unwrap_or(false);
        let parent = state
            .ext
            .get("parent-id")
            .and_then(|v| v.as_str().map(str::to_owned));
        let notify_parent = state
            .ext
            .get("notify-parent")
            .map(Value::is_truthy)
            .unwrap_or(false);

        self.tracker.note_phase(&task_id, Phase::VmExec);
        let outcome = match resume {
            None => {
                self.metrics.fibers_run.fetch_add(1, Ordering::Relaxed);
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::FiberRun);
                rt.gvm.run_fiber(state)
            }
            Some((via, value)) => {
                self.metrics.resumes.fetch_add(1, Ordering::Relaxed);
                self.suspended_dec();
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::FiberResumed {
                    via: via.into(),
                });
                rt.gvm.resume_fiber(state, value)
            }
        };
        match outcome {
            Ok(RunOutcome::Done(value)) => {
                self.finish_fiber(ctx, rt, fiber_id, &task_id, value, is_root, parent, notify_parent)?;
            }
            Ok(RunOutcome::Suspended(susp)) => {
                let reason = suspension_reason(&susp.payload);
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::FiberYield {
                    reason: reason.clone(),
                });
                // What the fiber is now waiting *on* decides where its
                // wall-clock goes: a dispatched call accrues
                // service_wait, children/join wait on broker messages
                // (queue_wait), and a manual yield is simply suspended.
                // Flipped after the save (which banked serialize time).
                let wait_phase = match reason.as_str() {
                    "service-call" => Phase::ServiceWait,
                    "children" | "join" => Phase::QueueWait,
                    _ => Phase::Suspended,
                };
                // join suspensions register a waiter; racing completion is
                // handled by checking for the result *after* registering.
                let join_target = if reason == "join" {
                    let target = susp.payload.as_map().and_then(|m| m.get(&Value::keyword("target")));
                    let target = target
                        .and_then(Value::as_str)
                        .ok_or_else(|| VinzError("join suspension without target".into()))?;
                    Some(target.to_owned())
                } else {
                    None
                };
                // Breadcrumb for the supervisor's orphan scan: what this
                // fiber is waiting on. It rides in the save's batch with
                // the meta record that makes the fiber read as
                // suspended, so a scan never sees one without the other.
                let crumb = match &join_target {
                    Some(target) => format!("{reason}\n{target}"),
                    None => reason,
                };
                self.save_fiber(rt, ctx.instance_id, fiber_id, susp.state, meta, &crumb)?;
                self.metrics.suspended_fibers.fetch_add(1, Ordering::Relaxed);
                self.tracker.note_phase(&task_id, wait_phase);
                if let Some(target) = join_target {
                    self.register_join_waiter(&target, fiber_id)?;
                }
            }
            Err(VmError::Unwind(Unwind::TerminateTask(cond))) => {
                self.tracker.fiber_finished(&task_id);
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::TaskDone {
                    outcome: "terminated".into(),
                });
                self.finish_task(&task_id, TaskStatus::Terminated(cond));
            }
            Err(e) => {
                // Unhandled condition: the fiber dies and, with it, the
                // task (robust default — a lost child would otherwise hang
                // its parent forever).
                self.tracker.fiber_finished(&task_id);
                self.fail_task(ctx.node_id, ctx.instance_id, fiber_id, "failed", e.to_condition());
            }
        }
        Ok(Vec::new())
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        rt: &Arc<NodeRuntime>,
        fiber_id: &str,
        task_id: &str,
        value: Value,
        is_root: bool,
        parent: Option<String>,
        notify_parent: bool,
    ) -> Result<(), VinzError> {
        // Results are write-once: prime the store and the local immutable
        // cache. The AwakeFiber/JoinProcess messages below announce "this
        // result exists" to fibers of this deployment only, whose next
        // saves follow the result in the log, so they are not held.
        self.tracker.note_phase(task_id, Phase::Serialize);
        let bytes = serialize_value(&value, self.config.codec)
            .map_err(|e| VinzError(format!("result of {fiber_id}: {e}")))?;
        let key = format!("result/{fiber_id}");
        self.store
            .put(&key, &bytes)
            .map_err(|e| VinzError(e.to_string()))?;
        rt.cache.put_immutable(&key, bytes);
        rt.cache.evict_fiber(fiber_id);
        self.hot.write().remove(fiber_id);
        self.tracker.fiber_finished(task_id);
        self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::FiberDone);
        // Until another of the task's fibers activates (or the root
        // finish below closes the ledger) the task is waiting on the
        // broker.
        self.tracker.note_phase(task_id, Phase::QueueWait);

        // Footnote 1 of the paper: fibers created by for-each/parallel
        // notify their parent on termination; plain fork-and-exec fibers
        // do not.
        if notify_parent {
            if let Some(parent_id) = &parent {
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::AwakeSent {
                    parent: parent_id.clone(),
                });
                self.send_awake(parent_id, fiber_id);
            }
        }
        // Wake any join-process waiters.
        self.notify_join_waiters(fiber_id)?;
        if is_root {
            // Emit the event *before* finishing the task: the finish
            // notification wakes waiting clients, who may read the
            // event stream immediately.
            self.emit(ctx.node_id, ctx.instance_id, fiber_id, || EventKind::TaskDone {
                outcome: "completed".into(),
            });
            self.finish_task(task_id, TaskStatus::Completed(value));
        }
        Ok(())
    }

    // ---- join bookkeeping -------------------------------------------------

    /// Add `waiter` to `target`'s waiter list; if the target already
    /// finished, wake immediately (registration-then-check closes the
    /// race with a concurrent finish).
    pub(crate) fn register_join_waiter(
        self: &Arc<Inner>,
        target: &str,
        waiter: &str,
    ) -> Result<(), VinzError> {
        let key = format!("waiters/{target}");
        {
            let _guard = self
                .locks
                .acquire(key.clone(), LOCK_WAIT)
                .ok_or_else(|| VinzError(format!("could not lock {key}")))?;
            let mut list = self
                .store
                .get(&key)
                .map_err(|e| VinzError(e.to_string()))?
                .map(|b| String::from_utf8_lossy(&b).into_owned())
                .unwrap_or_default();
            if !list.is_empty() {
                list.push(',');
            }
            list.push_str(waiter);
            self.store
                .put(&key, list.as_bytes())
                .map_err(|e| VinzError(e.to_string()))?;
        }
        // Already done? Deliver the wake-up ourselves.
        let done = self
            .store
            .get(&format!("result/{target}"))
            .map_err(|e| VinzError(e.to_string()))?
            .is_some();
        if done {
            // The target finished before (or while) we registered: wake
            // ourselves.
            self.notify_join_waiters(target)?;
        }
        Ok(())
    }

    /// Send JoinProcess to everyone waiting on `target`. Ungated: the
    /// save that made the wake legitimate (the target's result, or the
    /// waiter's own suspension save in the registration race) is already
    /// in the log ahead of anything the woken fiber will write.
    fn notify_join_waiters(self: &Arc<Inner>, target: &str) -> Result<(), VinzError> {
        let key = format!("waiters/{target}");
        let waiters = {
            let _guard = self
                .locks
                .acquire(key.clone(), LOCK_WAIT)
                .ok_or_else(|| VinzError(format!("could not lock {key}")))?;
            let list = self
                .store
                .get(&key)
                .map_err(|e| VinzError(e.to_string()))?
                .map(|b| String::from_utf8_lossy(&b).into_owned());
            // Nobody registered: nothing to clear (on LogStore a delete
            // of a key never written would still append a tombstone).
            let Some(list) = list else { return Ok(()) };
            self.store.delete(&key).map_err(|e| VinzError(e.to_string()))?;
            list
        };
        for waiter in waiters.split(',').filter(|w| !w.is_empty()) {
            self.send_join(waiter, target);
        }
        Ok(())
    }
}

/// A header the operation cannot do without.
pub(crate) fn required_header<'m>(msg: &'m Message, name: &str) -> Result<&'m str, VinzError> {
    msg.get_header(name)
        .ok_or_else(|| VinzError(format!("{} requires {name}", msg.operation)))
}

/// Extract the reason keyword from a suspension payload (`{:reason
/// :children}`-style maps); anything else is "manual".
fn suspension_reason(payload: &Value) -> String {
    payload
        .as_map()
        .and_then(|m| m.get(&Value::keyword("reason")).cloned())
        .map(|v| match v {
            Value::Keyword(k) => k.name().to_string(),
            Value::Str(s) => s.to_string(),
            other => format!("{other}"),
        })
        .unwrap_or_else(|| "manual".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspension_reason_parsing() {
        let gvm = Gvm::with_pool_size(1);
        let v = gvm.eval_str("{:reason :children}").unwrap();
        assert_eq!(suspension_reason(&v), "children");
        let v = gvm.eval_str("{:reason \"join\" :target \"t/f1\"}").unwrap();
        assert_eq!(suspension_reason(&v), "join");
        assert_eq!(suspension_reason(&Value::Nil), "manual");
    }

    #[test]
    fn task_of_extracts_prefix() {
        assert_eq!(Inner::task_of("task-3/f7"), "task-3");
        assert_eq!(Inner::task_of("task-3"), "task-3");
    }
}
