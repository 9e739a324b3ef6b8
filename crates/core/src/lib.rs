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
//! This crate is the facade: it re-exports every layer, and holds the
//! `gozer-repl` binary. A deployment is a [`Cluster`] and a
//! [`WorkflowService`] built on it ([`WorkflowService::builder`]).
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
//! use gozer::{Cluster, Value, WorkflowService};
//! let cluster = Cluster::new();
//! let wf = WorkflowService::builder(&cluster, "workflow")
//!     .source(
//!         "(defun dist-sum-squares (numbers)
//!            (apply #'+ (for-each (n in numbers) (* n n))))")
//!     .instances(0, 2)
//!     .instances(1, 2)
//!     .deploy()
//!     .unwrap();
//! let result = wf.call(
//!     "dist-sum-squares",
//!     vec![Value::list((1..=4).map(Value::Int).collect())],
//!     Duration::from_secs(30),
//! ).unwrap();
//! assert_eq!(result, Value::Int(30));
//! cluster.shutdown();
//! ```

pub use bluebox::{
    CallError, ChaosConfig, ChaosPlan, ChaosRng, ChaosStatsSnapshot, Clock, Cluster, DeadLetter,
    Fault, FaultAction, FaultPoint, Message, MetricsSnapshot, Policy, RecoveryStatsSnapshot,
    ServiceCtx,
};
pub use gozer_compress::Codec;
pub use gozer_lang::{Reader, Symbol, Value};
pub use gozer_serial::{deserialize_state, deserialize_value, serialize_state, serialize_value};
pub use gozer_vm::{
    Condition, FiberState, FnProfile, Gvm, ProfileReport, RunOutcome, SerialCostSnapshot,
    Suspension, VmError,
};
pub use gozer_xml::{Element, QName, ServiceDescription};
pub use gozer_obs::{
    CriticalPath, CriticalSegment, Event, EventBus, EventKind, FlightDump, FlightRecorder,
    HealthReport, IntrospectServer, IntrospectSource, MetricsRegistry, Obs, Phase,
    PhaseBreakdown, Snapshot, TaskSummary, TaskTimeline, TimelineSet, PHASE_COUNT,
};
pub use vinz::{
    DurabilityTicket, LogStats, LogStore, LogStoreBuilder, MemStore, StateStore, StoreError,
    SupervisorConfig, TaskRecord, TaskStatus, VinzConfig, VinzError, Watermark, WorkflowObs,
    WorkflowService, WorkflowServiceBuilder,
};

/// Re-export of the test-service and chaos-harness helpers (used by
/// examples, benches, and the randomized survivability suite).
pub mod testing {
    pub use vinz::testing::{
        chaos_seeds, install_flight_panic_hook, register_square_service, register_value_service,
        repro_command, run_workflow_under_chaos, run_workflow_under_chaos_store, ChaosRun,
    };
}
