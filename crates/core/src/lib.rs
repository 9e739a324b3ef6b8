#![warn(missing_docs)]

//! # gozer — the Gozer workflow system
//!
//! A from-scratch Rust reproduction of *"The Gozer Workflow System"*
//! (Madden, Grounds, Sachs, Antonio — IPPS 2010): a Lisp-dialect workflow
//! language whose virtual machine (the GVM) keeps its call stack as plain
//! heap data, so any flow of control can be captured as a **serializable
//! continuation**, persisted, migrated across a cluster, and resumed —
//! plus the **Vinz** distribution layer (tasks, fibers, non-blocking
//! service calls, `for-each`/`parallel`, task variables, condition
//! actions) and a simulated **BlueBox** message-passing cluster to run it
//! all on.
//!
//! This crate is the facade: it re-exports every layer and provides
//! [`GozerSystem`], a builder wiring a cluster, persistence and a deployed
//! workflow together.
//!
//! ## Local evaluation
//!
//! ```
//! let gvm = gozer::Gvm::new();
//! // Listing 1's par-sum-squares: local parallelism with futures.
//! let v = gvm.eval_str(
//!     "(defun par-sum-squares (numbers)
//!        (apply #'+ (loop for n in numbers collect (future (* n n)))))
//!      (par-sum-squares (range 1 5))").unwrap(); // squares of 1..4
//! assert_eq!(v, gozer::Value::Int(30));
//! ```
//!
//! ## Distributed workflows
//!
//! ```
//! use std::time::Duration;
//! let system = gozer::GozerSystem::builder()
//!     .nodes(2)
//!     .instances_per_node(2)
//!     .workflow(
//!         "(defun dist-sum-squares (numbers)
//!            (apply #'+ (for-each (n in numbers) (* n n))))")
//!     .build()
//!     .unwrap();
//! let result = system.call(
//!     "dist-sum-squares",
//!     vec![gozer::Value::list((1..=4).map(gozer::Value::Int).collect())],
//!     Duration::from_secs(30),
//! ).unwrap();
//! assert_eq!(result, gozer::Value::Int(30));
//! system.shutdown();
//! ```

use std::sync::Arc;
use std::time::Duration;

pub use bluebox::{
    CallError, ChaosConfig, ChaosPlan, ChaosRng, ChaosStatsSnapshot, Cluster, CrashPoint,
    DeadLetter, Fault, FaultAction, FaultPoint, Message, MetricsSnapshot, Policy, RecoveryConfig,
    RecoveryStatsSnapshot, ServiceCtx,
};
pub use gozer_compress::Codec;
pub use gozer_lang::{Reader, Symbol, Value};
pub use gozer_serial::{deserialize_state, deserialize_value, serialize_state, serialize_value};
pub use gozer_vm::{Condition, FiberState, Gvm, RunOutcome, Suspension, VmError};
pub use gozer_xml::{Element, QName, ServiceDescription};
pub use gozer_obs::{
    CriticalPath, CriticalSegment, Event, EventBus, EventKind, FlightDump, FlightRecorder,
    FnProfile, HealthReport, IntrospectServer, IntrospectSource, MetricsRegistry, Obs, Phase,
    PhaseBreakdown, ProfileReport, SerialCostSnapshot, Snapshot, TaskSummary, TaskTimeline,
    TimelineSet, PHASE_COUNT,
};
pub use vinz::{
    DurabilityTicket, FileStore, FileStoreBuilder, FsyncPolicy, LogStats, LogStore,
    LogStoreBuilder, MemStore, RetryPolicy, StateStore, StoreError, SupervisorConfig, TaskRecord,
    TaskStatus, VinzConfig, VinzError, Watermark, WorkflowObs, WorkflowService,
    WorkflowServiceBuilder,
};

/// Re-export of the test-service and chaos-harness helpers (used by
/// examples, benches, and the randomized survivability suite).
pub mod testing {
    pub use vinz::testing::{
        chaos_seeds, install_flight_panic_hook, register_square_service, register_value_service,
        repro_command, run_workflow_under_chaos, run_workflow_under_chaos_flight, ChaosRun,
    };
}

/// A fully wired deployment: cluster + store + workflow service.
pub struct GozerSystem {
    /// The simulated cluster.
    pub cluster: Arc<Cluster>,
    /// The deployed workflow service.
    pub workflow: WorkflowService,
}

/// Builder for [`GozerSystem`].
pub struct GozerSystemBuilder {
    nodes: u32,
    instances_per_node: usize,
    source: String,
    service_name: String,
    config: VinzConfig,
    policy: Policy,
    store: Option<Arc<dyn StateStore>>,
    cluster: Option<Arc<Cluster>>,
    introspect_addr: Option<String>,
}

impl GozerSystem {
    /// Start building a system.
    pub fn builder() -> GozerSystemBuilder {
        GozerSystemBuilder {
            nodes: 2,
            instances_per_node: 2,
            source: String::new(),
            service_name: "workflow".into(),
            config: VinzConfig::default(),
            policy: Policy::Fcfs,
            store: None,
            cluster: None,
            introspect_addr: None,
        }
    }

    /// Run a workflow function to completion and return its value.
    pub fn call(
        &self,
        function: &str,
        args: Vec<Value>,
        timeout: Duration,
    ) -> Result<Value, VinzError> {
        self.workflow.call(function, args, timeout)
    }

    /// Start a workflow asynchronously (the `Start` operation).
    pub fn start(&self, function: &str, args: Vec<Value>) -> Result<String, VinzError> {
        self.workflow.start(function, args, None)
    }

    /// Wait for a started task.
    pub fn wait(&self, task_id: &str, timeout: Duration) -> Option<TaskRecord> {
        self.workflow.wait(task_id, timeout)
    }

    /// Stop all instances and close the cluster.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

impl GozerSystemBuilder {
    /// Number of simulated nodes (default 2).
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// Workflow service instances per node (default 2).
    pub fn instances_per_node(mut self, n: usize) -> Self {
        self.instances_per_node = n.max(1);
        self
    }

    /// The workflow's Gozer source.
    pub fn workflow(mut self, source: &str) -> Self {
        self.source = source.to_string();
        self
    }

    /// Service name (default `"workflow"`).
    pub fn service_name(mut self, name: &str) -> Self {
        self.service_name = name.to_string();
        self
    }

    /// Vinz configuration.
    pub fn config(mut self, config: VinzConfig) -> Self {
        self.config = config;
        self
    }

    /// Enable the GVM execution profiler on every node runtime
    /// (per-opcode counts, per-function time attribution, folded
    /// stacks; read back through `workflow.obs().profile()`).
    pub fn profiling(mut self, on: bool) -> Self {
        self.config.profiling = on;
        self
    }

    /// Message-queue scheduling policy (default FCFS, as in production —
    /// §5).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Persistence store (default [`MemStore`]).
    pub fn store(mut self, store: Arc<dyn StateStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Use an existing cluster (e.g. with extra services registered).
    pub fn cluster(mut self, cluster: Arc<Cluster>) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Serve live introspection over HTTP on `addr` (`"127.0.0.1:0"`
    /// for an ephemeral port); the bound address is available from
    /// `workflow.introspect_addr()` after [`GozerSystemBuilder::build`].
    pub fn introspect(mut self, addr: &str) -> Self {
        self.introspect_addr = Some(addr.to_string());
        self
    }

    /// Deploy everything.
    pub fn build(self) -> Result<GozerSystem, VinzError> {
        let cluster = self
            .cluster
            .unwrap_or_else(|| Cluster::with_policy(self.policy));
        let store = self.store.unwrap_or_else(|| Arc::new(MemStore::new()));
        let mut builder = WorkflowService::builder(&cluster, &self.service_name)
            .source(&self.source)
            .store(store)
            .config(self.config);
        if let Some(addr) = &self.introspect_addr {
            builder = builder.introspect(addr);
        }
        for node in 0..self.nodes {
            builder = builder.instances(node, self.instances_per_node);
        }
        let workflow = builder.deploy()?;
        Ok(GozerSystem { cluster, workflow })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_deploys_and_runs() {
        let system = GozerSystem::builder()
            .nodes(1)
            .instances_per_node(2)
            .workflow("(defun main () (+ 20 22))")
            .build()
            .unwrap();
        let v = system
            .call("main", vec![], Duration::from_secs(30))
            .unwrap();
        assert_eq!(v, Value::Int(42));
        system.shutdown();
    }

    #[test]
    fn builder_rejects_bad_source() {
        let err = GozerSystem::builder()
            .workflow("(defun main (") // unterminated
            .build();
        assert!(err.is_err());
    }
}
