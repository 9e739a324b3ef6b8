#![warn(missing_docs)]

//! # bluebox
//!
//! A faithful in-process simulation of the (proprietary) BlueBox
//! environment the Gozer platform runs on (paper §1): "a distributed,
//! message-passing cluster based on a service-oriented architecture.
//! Service instances communicate by placing XML messages on a message
//! queue which distributes the messages to available nodes."
//!
//! What the simulation preserves — the properties Vinz actually depends
//! on:
//!
//! * **Competing-consumer load balancing**: any live instance of a
//!   service may receive any message for it (which is why the fiber
//!   cache of §4.2 is "only somewhat effective").
//! * **At-least-once delivery**: instance failure before the ack
//!   re-queues the message; survivability (§3.2) falls out.
//! * **Priorities and pluggable scheduling** (FCFS / priority / EDF) for
//!   the §5 scheduling experiment.
//! * **Request slots**: an instance processes one message at a time, so
//!   a synchronous nested call wastes its slot — the motivation for
//!   non-blocking requests in §3.2.
//! * **Interface documents**: services publish WSDL-like descriptions
//!   that `deflink` (§3.3) fetches and compiles stubs from.
//!
//! Nodes are threads instead of machines; everything else is real
//! concurrent code, not discrete-event simulation.
//!
//! ```
//! use bluebox::{Cluster, Message};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let cluster = Cluster::new();
//! cluster.register_service("echo", None, Arc::new(
//!     |_ctx: &bluebox::ServiceCtx, msg: &Message| Ok(msg.body.clone())
//! ));
//! cluster.spawn_instances("echo", 0, 2);
//! let reply = cluster
//!     .call(Message::new("echo", "Echo", b"hi".to_vec()), Duration::from_secs(1))
//!     .unwrap();
//! assert_eq!(reply, b"hi");
//! cluster.shutdown();
//! ```

pub mod chaos;
pub mod clock;
pub mod cluster;
pub mod message;
pub mod metrics;
pub mod queue;
pub mod recovery;
pub mod tcp;
pub mod wire;

pub use chaos::{
    ChaosConfig, ChaosPlan, ChaosRng, ChaosStats, ChaosStatsSnapshot, FaultAction, FaultPoint,
};
pub use clock::Clock;
pub use cluster::{CallError, Cluster, Deployment, Handler, ServiceCtx};
pub use message::{Fault, Headers, Message, ReplyTo};
pub use metrics::{Metrics, MetricsSnapshot, TransportMetrics, TransportMetricsSnapshot};
pub use queue::{Policy, ServiceQueue};
pub use recovery::{DeadLetter, RecoveryStats, RecoveryStatsSnapshot};
pub use tcp::{
    RemoteDelivery, RemoteHandler, TcpBroker, TcpBrokerConfig, TcpWorker, WorkerConfig,
    WorkerCtx, WorkerStats,
};
pub use wire::{FrameError, SettleBody, WireMsg, WirePayload, MAX_FRAME_LEN};
