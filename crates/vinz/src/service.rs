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

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bluebox::tcp::{TcpBroker, TcpBrokerConfig};
use bluebox::{Cluster, DeadLetter, Deployment, Fault, Message, ServiceCtx};
use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_obs::{Event, EventKind, IntrospectServer, Obs, Phase};
use gozer_serial::SerError;
use gozer_vm::{Condition, FiberObsEvent, FiberObsKind, Gvm};
use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashMap;

use crate::cache::FiberCache;
use crate::host::FiberHot;
use crate::locks::InProcessLocks;
use crate::observe::VinzIntrospect;
use crate::store::{MemStore, StateStore, StoreError, Watermark};
use crate::supervisor::{self, SupervisorConfig};
use crate::tracker::{TaskRecord, TaskStatus, TaskTracker};

pub use crate::observe::WorkflowObs;

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
    /// Whether the deployment supervisor runs (respawn, orphan resume,
    /// call timeouts).
    pub supervision: SupervisorConfig,
    /// Persist suspended fibers as *delta snapshots* (changed frames +
    /// dynamic state against the previous snapshot) whenever the VM
    /// reports a clean frame prefix (§4.1 serialization fast path).
    /// Saves that cannot be expressed as a delta — fresh fibers, fully
    /// dirty stacks, mutable objects reachable from clean frames — fall
    /// back to full snapshots transparently.
    pub delta_snapshots: bool,
}

impl Default for VinzConfig {
    fn default() -> Self {
        VinzConfig {
            spawn_limit: 8,
            codec: Codec::Deflate,
            cache_capacity: 64,
            awake_wait_limit: Duration::from_millis(50),
            future_pool_size: 2,
            profiling: false,
            supervision: SupervisorConfig::default(),
            delta_snapshots: true,
        }
    }
}

/// Vinz-level counters: handles the workflow layer increments and the
/// cluster's metrics registry adopts (see `register_metrics`). The
/// save/load path counts each continuation here once; the profile's
/// continuation costs are read from these handles.
#[derive(Debug, Default)]
pub struct VinzMetrics {
    /// Fiber states persisted (each one serialized once).
    pub persist_count: Arc<AtomicU64>,
    /// Bytes of persisted (compressed) fiber state.
    pub persist_bytes: Arc<AtomicU64>,
    /// Nanos spent serializing the persisted states.
    pub serialize_nanos: Arc<AtomicU64>,
    /// Cheapest single serialization in nanos; 0 until the first save.
    pub min_serialize_nanos: Arc<AtomicU64>,
    /// Continuation records deserialized (a base and each delta on it).
    pub deserialize_count: Arc<AtomicU64>,
    /// Bytes of the deserialized records.
    pub deserialize_bytes: Arc<AtomicU64>,
    /// Nanos spent deserializing them.
    pub deserialize_nanos: Arc<AtomicU64>,
    /// Clean frames whose delta seeding tables came from the seed cache.
    pub seed_frames_reused: Arc<AtomicU64>,
    /// Clean frames serialized again to rebuild delta seeding tables.
    pub seed_frames_walked: Arc<AtomicU64>,
    /// Fiber loads that went to the store (cache misses).
    pub load_count: Arc<AtomicU64>,
    /// RunFiber executions.
    pub fibers_run: Arc<AtomicU64>,
    /// Resumptions (AwakeFiber + ResumeFromCall + JoinProcess).
    pub resumes: Arc<AtomicU64>,
    /// AwakeFiber lock-wait give-ups (§5 burstiness symptom).
    pub awake_retries: Arc<AtomicU64>,
    /// Tasks started.
    pub tasks_started: Arc<AtomicU64>,
    /// Task-variable cache hits / misses.
    pub taskvar_hits: Arc<AtomicU64>,
    /// Task-variable reads served from the store.
    pub taskvar_misses: Arc<AtomicU64>,
    /// Times the supervisor re-provisioned a dead deployment.
    pub supervisor_respawns: Arc<AtomicU64>,
    /// Orphaned continuations the supervisor re-sent resume messages for.
    pub orphans_resumed: Arc<AtomicU64>,
    /// Async service calls re-dispatched by the retry policy.
    pub calls_retried: Arc<AtomicU64>,
    /// Tasks terminally failed because a message of theirs was
    /// dead-lettered.
    pub tasks_dead_lettered: Arc<AtomicU64>,
    /// Bytes of persisted delta snapshot records.
    pub delta_bytes: Arc<AtomicU64>,
    /// Bytes of persisted full snapshot records.
    pub full_bytes: Arc<AtomicU64>,
    /// Saves persisted as deltas (the rest of `persist_count` were
    /// full snapshots).
    pub delta_saves: Arc<AtomicU64>,
    /// Fibers currently suspended with a persisted continuation.
    /// Incremented on every suspension persist, decremented when a
    /// resume operation reloads the fiber; approximate under task
    /// termination (resumes addressed to already-finished tasks drop
    /// without decrementing).
    pub suspended_fibers: Arc<AtomicU64>,
}

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

impl From<StoreError> for VinzError {
    fn from(e: StoreError) -> VinzError {
        VinzError(e.to_string())
    }
}

impl From<SerError> for VinzError {
    fn from(e: SerError) -> VinzError {
        VinzError(e.to_string())
    }
}

pub(crate) struct Inner {
    pub name: String,
    pub source: String,
    pub cluster: Arc<Cluster>,
    pub store: Arc<dyn StateStore>,
    pub locks: InProcessLocks,
    pub config: VinzConfig,
    pub tracker: TaskTracker,
    pub obs: Arc<Obs>,
    pub metrics: VinzMetrics,
    /// The live introspection server, when the deployment asked for one
    /// ([`WorkflowServiceBuilder::introspect`]). Held so its accept loop
    /// lives exactly as long as the deployment.
    introspect: Mutex<Option<IntrospectServer>>,
    /// The supervisor thread, when supervision is on; joined by
    /// [`Inner::shutdown`].
    supervisor: Mutex<Option<JoinHandle<()>>>,
    /// Set once, by [`Inner::shutdown`].
    stopped: AtomicBool,
    pub nodes: RwLock<FxHashMap<u32, Arc<NodeRuntime>>>,
    pub hot: RwLock<FxHashMap<String, FiberHot>>,
    pub next_task: AtomicU64,
    next_fiber: AtomicU64,
}

/// A deployed workflow service. Clones are handles on one deployment;
/// the drop of the last one shuts it down
/// ([`WorkflowService::shutdown`]).
#[derive(Clone)]
pub struct WorkflowService {
    pub(crate) inner: Arc<Inner>,
    _last: Arc<LastHandle>,
}

/// Shared by every clone of a [`WorkflowService`]: its drop is the drop
/// of the last handle.
struct LastHandle(Arc<Inner>);

impl Drop for LastHandle {
    fn drop(&mut self) {
        self.0.shutdown();
    }
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
    /// failure, or a cluster that already has a broker, fails the
    /// deploy — and the bound address is available
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
    /// Before the deployment attaches, it builds the runtime (one GVM
    /// with the Vinz prelude and the source loaded) of every node it
    /// places instances on, or node 0's when it places none, so a
    /// compile error fails the deploy. A node that gets instances later
    /// builds its runtime on its first message. Every node loads the
    /// same source under the same unit name, which is what lets
    /// migrated continuations re-link (program ids are content-derived).
    ///
    /// A cluster serves one workflow deployment at a time
    /// ([`Cluster::attach`]), so deploying on a cluster that has one
    /// fails before anything is installed; once that one is shut down,
    /// the name can be deployed again. The listen and introspection
    /// addresses are bound before the deployment attaches, so a deploy
    /// that fails on either leaves the cluster free.
    pub fn deploy(self) -> Result<WorkflowService, VinzError> {
        let inner = Arc::new(Inner {
            name: self.name.clone(),
            source: self.source,
            cluster: self.cluster.clone(),
            store: self.store,
            locks: InProcessLocks::new(),
            config: self.config,
            tracker: TaskTracker::new(),
            obs: self.cluster.obs(),
            metrics: VinzMetrics::default(),
            introspect: Mutex::new(None),
            supervisor: Mutex::new(None),
            stopped: AtomicBool::new(false),
            nodes: RwLock::new(FxHashMap::default()),
            hot: RwLock::new(FxHashMap::default()),
            next_task: AtomicU64::new(1),
            next_fiber: AtomicU64::new(1),
        });
        // Fail fast on compile errors and on addresses that cannot be
        // bound, before the deployment attaches.
        let mut placed = self.instances.iter().filter(|(_, n)| *n > 0).peekable();
        if placed.peek().is_none() {
            inner.node_runtime(0)?;
        }
        for (node_id, _) in placed {
            inner.node_runtime(*node_id)?;
        }
        let introspect = self.introspect_addr.as_deref().map(|addr| {
            let source = Arc::new(VinzIntrospect {
                inner: inner.clone(),
            });
            IntrospectServer::start(addr, source)
                .map_err(|e| VinzError(format!("introspect bind {addr}: {e}")))
        });
        let listener =
            self.tcp_listen_addr
                .as_deref()
                .map(|addr| match self.cluster.tcp_broker() {
                    Some(_) => Err(VinzError(format!(
                        "tcp listen {addr}: the cluster already has a TCP broker"
                    ))),
                    None => TcpListener::bind(addr)
                        .map_err(|e| VinzError(format!("tcp listen {addr}: {e}"))),
                });
        let (introspect, listener) = (introspect.transpose()?, listener.transpose()?);
        let attached = Arc::new(Attached {
            inner: inner.clone(),
        });
        self.cluster.attach(attached.clone()).map_err(|first| {
            VinzError(format!(
                "cluster already serves workflow deployment `{first}`; deploy `{}` on its own cluster",
                self.name
            ))
        })?;
        // From here a failed step drops the handle, which detaches.
        let service = WorkflowService {
            inner: inner.clone(),
            _last: Arc::new(LastHandle(inner.clone())),
        };
        inner.register_metrics();
        inner.store.attach_obs(&inner.obs);
        // The commit hook releases held messages (see
        // `Attached::durable`) the moment the group-commit fsync lands.
        {
            let cluster = Arc::downgrade(&self.cluster);
            inner.store.set_commit_hook(Arc::new(move |w: Watermark| {
                if let Some(c) = cluster.upgrade() {
                    c.note_durable(w.0);
                }
            }));
        }
        self.cluster.register_service(&self.name, None, attached);
        *inner.supervisor.lock() = supervisor::start(&inner);
        // Workers may connect the moment the broker accepts.
        if let Some(listener) = listener {
            TcpBroker::serve(&inner.cluster, listener, TcpBrokerConfig::default())
                .map_err(|e| VinzError(format!("tcp listen: {e}")))?;
        }
        for (node_id, count) in self.instances {
            service.spawn_instances(node_id, count)?;
        }
        *inner.introspect.lock() = introspect;
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
    pub fn spawn_instances(&self, node_id: u32, count: usize) -> Result<(), VinzError> {
        self.inner.running()?;
        self.inner
            .cluster
            .spawn_instances(&self.inner.name, node_id, count);
        Ok(())
    }

    /// End the deployment, in this order: stop its supervisor; stop and
    /// join its instances (an in-flight delivery finishes and settles,
    /// an undelivered message stays queued); flush the store, so every
    /// held message goes out at a durable watermark; stop the
    /// introspection server; detach from the cluster, which can then
    /// take another deployment, of this name too. Idempotent, and run
    /// by the drop of the last handle. Afterwards `start`, `call`,
    /// `run` and `spawn_instances` fail at once.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Asynchronously begin execution of a workflow, returning its task
    /// id (the Start operation).
    pub fn start(
        &self,
        function: &str,
        args: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<String, VinzError> {
        self.inner.running()?;
        self.inner.send_start(function, args, deadline)
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

    /// The deployment's node runtimes, one per node: those
    /// [`WorkflowServiceBuilder::deploy`] built for the nodes it placed
    /// instances on (node 0's when it placed none), and one for each
    /// node that has run a message since.
    pub fn node_runtimes(&self) -> Vec<Arc<NodeRuntime>> {
        self.inner.nodes.read().values().cloned().collect()
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

    /// Where the TCP transport of the deployment's cluster listens for
    /// worker processes, if one does ([`WorkflowServiceBuilder::tcp_listen`]).
    pub fn tcp_addr(&self) -> Option<std::net::SocketAddr> {
        self.tcp_broker().map(|b| b.addr())
    }

    /// The TCP transport broker of the deployment's cluster, if one is
    /// listening ([`bluebox::Cluster::tcp_broker`]).
    pub fn tcp_broker(&self) -> Option<Arc<TcpBroker>> {
        self.inner.cluster.tcp_broker()
    }
}

/// The deployment as the cluster sees it: the handler every instance
/// runs and the answers the broker asks for. The cluster holds it, and
/// through it the deployment, until [`Inner::shutdown`] detaches it.
struct Attached {
    inner: Arc<Inner>,
}

impl Deployment for Attached {
    fn name(&self) -> &str {
        &self.inner.name
    }

    /// Service replies (ResumeFromCall) are built by the broker, not by
    /// Vinz: they chase the cache of the node that last saved the fiber.
    fn affine_node(&self, fiber_id: &str) -> Option<u32> {
        self.inner.last_node(fiber_id)
    }

    /// The broker's leg of phase attribution: durability parks, hold
    /// releases, lease reclaims and requeues flip the owning task's
    /// ledger.
    fn note_phase(&self, task_id: &str, phase: Phase) {
        self.inner.tracker.note_phase(task_id, phase);
    }

    /// Speculative persistence (LogStore): saves return a ticket before
    /// they are durable, and the one message that leaves the deployment
    /// — an async service-call request — carries that ticket in
    /// `hold_until`. A "no" here is also how the store learns that a
    /// message is now parked behind that watermark, so it commits in
    /// its next group instead of lingering for more saves. Synchronous
    /// stores answer "always durable".
    fn durable(&self, watermark: u64) -> bool {
        self.inner.store.durable(Watermark(watermark))
    }

    /// Quarantine is a broker decision, and a task whose message was
    /// quarantined will never finish on its own: fail it, supervision
    /// on or off. Every workflow message names its task through a
    /// `fiber-id` or `task-id` header.
    fn dead_lettered(&self, dl: &DeadLetter) {
        let inner = &self.inner;
        let Some(fiber) = dl
            .msg
            .get_header("fiber-id")
            .or(dl.msg.get_header("task-id"))
        else {
            return;
        };
        if dl.service != inner.name || inner.tracker.is_final(Inner::task_of(fiber)) {
            return;
        }
        let cond = Condition::with_types(
            vec!["dead-letter".into(), "error".into()],
            format!(
                "{} message {} dead-lettered: {}",
                dl.msg.operation, dl.msg.id, dl.reason
            ),
            Value::Nil,
        );
        inner
            .metrics
            .tasks_dead_lettered
            .fetch_add(1, Ordering::Relaxed);
        inner.fail_task(u32::MAX, u64::MAX, fiber, "dead-letter", cond);
    }
}

impl bluebox::Handler for Attached {
    fn handle(&self, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, Fault> {
        let inner = &self.inner;
        let result = match msg.operation.as_str() {
            "Start" => inner.op_start(ctx, msg),
            "Run" => inner.op_run(ctx, msg),
            "Call" => inner.op_call(ctx, msg),
            "Terminate" => inner.op_terminate(msg),
            "RunFiber" => inner.op_run_fiber(ctx, msg),
            "AwakeFiber" => inner.op_awake_fiber(ctx, msg),
            "ResumeFromCall" => crate::calls::take_reply(inner, ctx, msg),
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
    /// [`WorkflowService::shutdown`]. The first call does the work; the
    /// calling thread is never joined.
    fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        let supervisor = self.supervisor.lock().take();
        if let Some(t) = supervisor.filter(|t| t.thread().id() != std::thread::current().id()) {
            let _ = t.join();
        }
        self.cluster.stop_service(&self.name);
        // A failed flush leaves its messages parked; detach drops them.
        let _ = self.store.flush();
        self.introspect.lock().take();
        // The store stops reporting commits to a cluster that may next
        // serve another store's watermarks.
        self.store.set_commit_hook(Arc::new(|_| {}));
        self.cluster.detach(&self.name);
    }

    /// Whether [`Inner::shutdown`] has begun: waits on the deployment's
    /// behalf end when it has.
    pub(crate) fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Refuse a call on a deployment that is shut down.
    fn running(&self) -> Result<(), VinzError> {
        if self.is_stopped() {
            let name = &self.name;
            return Err(VinzError(format!(
                "workflow deployment `{name}` is shut down"
            )));
        }
        Ok(())
    }
}

impl Inner {
    // ---- node runtimes ------------------------------------------------

    pub(crate) fn node_runtime(
        self: &Arc<Inner>,
        node_id: u32,
    ) -> Result<Arc<NodeRuntime>, VinzError> {
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
        let rt = Arc::new(NodeRuntime {
            node_id,
            gvm,
            cache: FiberCache::new(self.config.cache_capacity),
        });
        let mut nodes = self.nodes.write();
        Ok(nodes.entry(node_id).or_insert(rt).clone())
    }

    // ---- id helpers ----------------------------------------------------

    pub(crate) fn new_fiber_id(&self, task_id: &str) -> String {
        format!(
            "{task_id}/f{}",
            self.next_fiber.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// `fiber_id`'s task ([`gozer_obs::task_of`]), or the whole id when
    /// it names a task rather than a fiber.
    pub(crate) fn task_of(fiber_id: &str) -> &str {
        gozer_obs::task_of(fiber_id).unwrap_or(fiber_id)
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
}

/// A header the operation cannot do without.
pub(crate) fn required_header<'m>(msg: &'m Message, name: &str) -> Result<&'m str, VinzError> {
    msg.get_header(name)
        .ok_or_else(|| VinzError(format!("{} requires {name}", msg.operation)))
}
