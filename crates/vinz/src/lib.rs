#![warn(missing_docs)]

//! # vinz
//!
//! The distribution module of the Gozer workflow system (paper §3):
//! "Vinz offers a simplified set of abstractions to workflow authors
//! intended to make writing fully distributed, concurrent workflows as
//! similar to writing local, sequential programs as possible."
//!
//! A Gozer program is wrapped up as a BlueBox workflow service exposing
//! the **Table 1** operations:
//!
//! | Operation        | Description |
//! |------------------|-------------|
//! | `Start`          | Asynchronously begin execution, returning the task id. |
//! | `Run`            | Synchronously execute, returning the id. |
//! | `Call`           | Synchronously execute, returning the last result. |
//! | `Terminate`      | Management operation: terminate any running workflow. |
//! | `RunFiber`       | Execute a portion of the workflow on this instance. |
//! | `AwakeFiber`     | Resume a suspended parent when a child completes. |
//! | `ResumeFromCall` | Resume a suspended fiber when a remote operation completes. |
//! | `JoinProcess`    | Resume a suspended fiber when any process completes. |
//!
//! Everything the paper describes is here: automatic checkpointing and
//! migration of fibers through serialized continuations, non-blocking
//! service requests (§3.2), `deflink` stub generation (§3.3),
//! `fork-and-exec`/`join-process` (§3.4), `for-each`/`parallel` with the
//! spawn limit (§3.5, Listing 3), task variables with the `^` reader
//! macro (§3.6, Listings 4–5), and the `defhandler`/`with-handler`
//! condition actions (§3.7, Listing 6).
//!
//! ```
//! use std::time::Duration;
//! use bluebox::Cluster;
//! use vinz::WorkflowService;
//!
//! let cluster = Cluster::new();
//! let wf = WorkflowService::builder(&cluster, "wf")
//!     .source(
//!         "(defun main (n)
//!            (apply #'+ (for-each (i in (range n)) (* i i))))",
//!     )
//!     .instances(0, 2)
//!     .instances(1, 2)
//!     .deploy()
//!     .unwrap();
//! let result = wf.call("main", vec![gozer_lang::Value::Int(5)],
//!                      Duration::from_secs(30)).unwrap();
//! assert_eq!(result, gozer_lang::Value::Int(30));
//! cluster.shutdown();
//! ```

pub mod cache;
mod calls;
mod deflink;
mod locks;
mod natives;
pub mod prelude;
pub mod service;
pub mod store;
pub mod supervisor;
pub mod testing;
pub mod tracker;

pub use cache::{CacheStats, FiberCache};
pub use prelude::VINZ_PRELUDE;
pub use service::{
    NodeRuntime, StartError, VinzConfig, VinzError, VinzMetrics, WorkflowObs, WorkflowService,
    WorkflowServiceBuilder,
};
pub use store::{
    CommitHook, DurabilityTicket, FileStore, FileStoreBuilder, FsyncPolicy, LogStats, LogStore,
    LogStoreBuilder, MemStore, StateStore, StoreError, Watermark,
};
pub use supervisor::{RetryPolicy, SupervisorConfig};
pub use gozer_obs::{FlightDump, FlightRecorder, FnProfile, ProfileReport, SerialCostSnapshot};
pub use tracker::{TaskRecord, TaskStatus, TaskTracker};
