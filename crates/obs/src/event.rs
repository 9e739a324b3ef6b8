//! The structured event model: one record type for every layer, with
//! the correlated ids that make a cross-layer timeline reconstructible.

use std::time::Instant;

/// What happened, across all layers.
///
/// Broker-level kinds carry the service/operation they concern; workflow
/// kinds mirror the paper's Figure 1 lifecycle; VM kinds are emitted by
/// the fiber suspend/resume hooks installed per node GVM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    // ---- broker (BlueBox) ------------------------------------------------
    /// A message was accepted by the broker.
    MessageSent {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
    },
    /// A message was handed to an instance, with its queue wait.
    MessageDelivered {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
        /// Enqueue → delivery wait, in nanoseconds.
        wait_nanos: u64,
    },
    /// A message went back on the queue after a failed delivery.
    MessageRedelivered {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
    },
    /// The chaos layer injected a fault into this message's delivery.
    FaultInjected {
        /// Fault kind: `drop`, `delay`, `duplicate`, `reorder`,
        /// `crash-before`, `crash-after`, `node-kill`, `reply-loss`.
        fault: String,
        /// Operation of the afflicted message.
        operation: String,
    },
    /// An instance died (chaos crash or manual kill).
    InstanceCrashed {
        /// Where it died relative to processing.
        point: String,
    },
    /// A dead instance's leased-but-unacknowledged message was
    /// reclaimed by the broker's lease reaper and re-queued.
    LeaseReclaimed {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
    },
    /// A message exhausted its redelivery budget and was quarantined in
    /// the per-queue dead-letter store.
    MessageDeadLettered {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
        /// Why it was quarantined (e.g. `redelivery-budget`).
        reason: String,
    },
    /// A send was parked on a durability watermark (`hold_until`): the
    /// speculative-persistence hold began.
    MessageHeld {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
        /// The watermark the message is waiting on.
        watermark: u64,
    },
    /// A parked message's watermark became durable and the message was
    /// released into its queue.
    MessageReleased {
        /// Destination service.
        service: String,
        /// Destination operation.
        operation: String,
        /// How long the message was parked, in nanoseconds.
        held_nanos: u64,
    },

    // ---- workflow lifecycle (Vinz) ---------------------------------------
    /// `Start` accepted: the task and its main fiber exist.
    TaskStarted,
    /// A `RunFiber` began executing a fiber on an instance.
    FiberRun,
    /// A fiber suspended, with the suspension reason.
    FiberYield {
        /// `children`, `join`, `service-call`, or `manual`.
        reason: String,
    },
    /// Fiber state written to the persistence store.
    FiberPersisted {
        /// Serialized (compressed) size.
        bytes: usize,
    },
    /// Fiber state loaded for resumption.
    FiberLoaded {
        /// Whether the per-node cache served it (§4.2).
        cache_hit: bool,
    },
    /// A fiber was resumed.
    FiberResumed {
        /// `awake`, `service-call`, or `join`.
        via: String,
    },
    /// A child fiber was forked.
    FiberForked {
        /// The child's fiber id (its span's parent is this event's
        /// fiber).
        child: String,
    },
    /// An AwakeFiber message was sent to a parent.
    AwakeSent {
        /// The parent fiber id.
        parent: String,
    },
    /// An AwakeFiber gave up waiting for the fiber lock and re-queued
    /// itself (§5).
    AwakeRetry,
    /// A non-blocking service call was dispatched.
    ServiceCallDispatched {
        /// `service:operation`.
        target: String,
    },
    /// A fiber completed.
    FiberDone,
    /// The whole task reached a final state.
    TaskDone {
        /// `completed`, `failed`, or `terminated`.
        outcome: String,
    },
    /// The supervisor replaced a dead deployment's instances.
    InstancesRespawned {
        /// Service whose instances were re-provisioned.
        service: String,
        /// How many instances were spawned.
        count: usize,
    },
    /// The supervisor found an orphaned continuation in the state store
    /// and re-sent the message that resumes it.
    OrphanResumed {
        /// `run-fiber`, `awake`, or `join`.
        via: String,
    },
    /// The engine-level retry policy re-dispatched a faulted or timed
    /// out async service call.
    CallRetried {
        /// 1-based attempt number of the re-dispatch.
        attempt: u32,
    },

    // ---- VM (GVM fiber hooks) --------------------------------------------
    /// The VM captured a continuation: the fiber suspended with this
    /// many live frames.
    VmSuspend {
        /// Heap frame count at capture time.
        frames: usize,
    },
    /// The VM re-entered a restored continuation.
    VmResume,
}

impl EventKind {
    /// Short lowercase label for rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::MessageSent { .. } => "send",
            EventKind::MessageDelivered { .. } => "deliver",
            EventKind::MessageRedelivered { .. } => "redeliver",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::InstanceCrashed { .. } => "crash",
            EventKind::LeaseReclaimed { .. } => "reclaim",
            EventKind::MessageDeadLettered { .. } => "dead-letter",
            EventKind::MessageHeld { .. } => "hold",
            EventKind::MessageReleased { .. } => "release",
            EventKind::TaskStarted => "start",
            EventKind::FiberRun => "run-fiber",
            EventKind::FiberYield { .. } => "yield",
            EventKind::FiberPersisted { .. } => "persist",
            EventKind::FiberLoaded { .. } => "load",
            EventKind::FiberResumed { .. } => "resume",
            EventKind::FiberForked { .. } => "fork",
            EventKind::AwakeSent { .. } => "awake-sent",
            EventKind::AwakeRetry => "awake-retry",
            EventKind::ServiceCallDispatched { .. } => "service-call",
            EventKind::FiberDone => "fiber-done",
            EventKind::TaskDone { .. } => "task-done",
            EventKind::InstancesRespawned { .. } => "respawn",
            EventKind::OrphanResumed { .. } => "orphan-resume",
            EventKind::CallRetried { .. } => "call-retry",
            EventKind::VmSuspend { .. } => "vm-suspend",
            EventKind::VmResume => "vm-resume",
        }
    }

    /// Is this one of the chaos fault kinds?
    pub fn is_fault(&self) -> bool {
        matches!(self, EventKind::FaultInjected { .. })
    }
}

/// One structured event with its correlation ids. Ids that a layer does
/// not know (the broker doesn't always know the task; the VM doesn't
/// know the message) stay `None` — the span builder joins what it can.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global emission order (assigned by the bus).
    pub seq: u64,
    /// When (assigned by the bus).
    pub at: Instant,
    /// Node that emitted the event.
    pub node: Option<u32>,
    /// Service instance involved, if any.
    pub instance: Option<u64>,
    /// Correlated task id.
    pub task: Option<String>,
    /// Correlated fiber id.
    pub fiber: Option<String>,
    /// Correlated broker message id.
    pub message_id: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Start building an event of this kind (ids default to `None`; the
    /// bus stamps `seq` and `at` on emit).
    pub fn new(kind: EventKind) -> Event {
        Event {
            seq: 0,
            at: Instant::now(),
            node: None,
            instance: None,
            task: None,
            fiber: None,
            message_id: None,
            kind,
        }
    }

    /// Builder: node id.
    pub fn node(mut self, node: u32) -> Event {
        self.node = Some(node);
        self
    }

    /// Builder: instance id.
    pub fn instance(mut self, instance: u64) -> Event {
        self.instance = Some(instance);
        self
    }

    /// Builder: task id.
    pub fn task(mut self, task: impl Into<String>) -> Event {
        self.task = Some(task.into());
        self
    }

    /// Builder: optional task id.
    pub fn task_opt(mut self, task: Option<String>) -> Event {
        self.task = task;
        self
    }

    /// Builder: fiber id. Also derives the task id from the
    /// `task/fiber` naming convention when none is set yet.
    pub fn fiber(mut self, fiber: impl Into<String>) -> Event {
        let fiber = fiber.into();
        if self.task.is_none() {
            self.task = task_of(&fiber).map(str::to_string);
        }
        self.fiber = Some(fiber);
        self
    }

    /// Builder: optional fiber id (with task derivation, as
    /// [`Event::fiber`]).
    pub fn fiber_opt(self, fiber: Option<String>) -> Event {
        match fiber {
            Some(f) => self.fiber(f),
            None => self,
        }
    }

    /// Builder: broker message id.
    pub fn message(mut self, id: u64) -> Event {
        self.message_id = Some(id);
        self
    }
}

/// The task a fiber id belongs to under the `task/fiber` naming
/// convention: the non-empty part before the first `/`. `None` for an
/// id with no such part (a bare task id, or one starting with `/`).
pub fn task_of(fiber_id: &str) -> Option<&str> {
    match fiber_id.split_once('/') {
        Some((task, _)) if !task.is_empty() => Some(task),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_of_extracts_prefix() {
        assert_eq!(task_of("task-3/f7"), Some("task-3"));
        assert_eq!(task_of("task-3/f7/f9"), Some("task-3"));
        assert_eq!(task_of("task-3"), None);
        assert_eq!(task_of("/f7"), None);
    }

    #[test]
    fn fiber_builder_derives_task() {
        let e = Event::new(EventKind::FiberRun).fiber("task-3/f7");
        assert_eq!(e.task.as_deref(), Some("task-3"));
        assert_eq!(e.fiber.as_deref(), Some("task-3/f7"));
        // An explicit task is not overridden.
        let e = Event::new(EventKind::FiberRun)
            .task("task-9")
            .fiber("task-3/f7");
        assert_eq!(e.task.as_deref(), Some("task-9"));
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EventKind::TaskStarted.label(), "start");
        assert_eq!(
            EventKind::FaultInjected {
                fault: "drop".into(),
                operation: "RunFiber".into()
            }
            .label(),
            "fault"
        );
        assert!(EventKind::FaultInjected {
            fault: "drop".into(),
            operation: "RunFiber".into()
        }
        .is_fault());
    }
}
