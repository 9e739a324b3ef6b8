//! Tasks: Start, Run, Call and Terminate (Table 1), how a task is named,
//! and how it ends.
//!
//! A task is one running workflow (§3.1). `Start` names it `task-N`
//! (one counter per deployment), writes its definition and births its
//! main fiber `{task}/f0`; from then on the fibers move it forward
//! through the host, and the tracker's
//! [`finish`](crate::TaskTracker::finish) and [`Inner::fail_task`] are
//! the only ways it ends.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Message, ServiceCtx};
use gozer_lang::{AssocMap, Value};
use gozer_obs::{EventKind, Phase};
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::Condition;

use crate::locks::{JOIN_DEADLINE, LOCK_WAIT};
use crate::service::{Inner, VinzError, ADMIN_NODE};
use crate::tracker::TaskStatus;

/// The main fiber of `task_id`.
fn main_fiber(task_id: &str) -> String {
    format!("{task_id}/f0")
}

impl Inner {
    fn new_task_id(&self) -> String {
        format!("task-{}", self.next_task.fetch_add(1, Ordering::Relaxed))
    }

    /// The client side of Start: name the task, register it, send
    /// `Start` one-way. The name is all the caller needs back, so
    /// nothing waits for the service to pick the message up; `Start`
    /// adopts the name, which also makes a redelivered or duplicated
    /// `Start` harmless (see [`Inner::op_start`]).
    pub(crate) fn send_start(
        self: &Arc<Inner>,
        function: &str,
        args: Vec<Value>,
        deadline: Option<Duration>,
    ) -> Result<String, VinzError> {
        // A one-way send has no reply to carry "no such function".
        let admin = self.node_runtime(ADMIN_NODE)?;
        if admin.gvm.function(function).is_none() {
            return Err(VinzError(format!("workflow function {function} is not defined")));
        }
        let body = serialize_value(&Value::list(args), self.config.codec)?;
        let task_id = self.new_task_id();
        let mut msg = Message::new(&self.name, "Start", body)
            .header("function", function)
            .header("task-id", task_id.as_str());
        let mut due = None;
        if let Some(d) = deadline {
            let at = Instant::now() + d;
            msg = msg.header("deadline-ms", d.as_millis().to_string()).with_deadline(at);
            due = Some(at);
        }
        self.tracker.task_started(&task_id, due);
        self.cluster.send(msg);
        Ok(task_id)
    }

    /// Start: create the task and main fiber, persist the fiber as it
    /// was born, enqueue RunFiber, return the task id (§3.1).
    ///
    /// The task is named by whoever sent the message — a `task-id`
    /// header, which [`Inner::send_start`] always stamps — or, failing
    /// that, here. A sender that named its task can send the `Start`
    /// one-way, gets the same task however often the broker delivers
    /// it, and is owed an end state under that name if the task cannot
    /// be started: nobody reads a one-way message's fault.
    pub(crate) fn op_start(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let named = msg.get_header("task-id");
        if let Some(n) = named
            .and_then(|id| id.strip_prefix("task-"))
            .and_then(|n| n.parse::<u64>().ok())
        {
            // A name of our own shape: keep the counter ahead of it, so
            // whoever mints next cannot collide with it.
            self.next_task.fetch_max(n.saturating_add(1), Ordering::Relaxed);
        }
        match self.begin_task(ctx, msg, named) {
            Ok(task_id) => Ok(task_id.into_bytes()),
            Err(e) => {
                if let Some(task_id) = named {
                    self.tracker.task_started(task_id, None);
                    let cond =
                        Condition::with_types(vec!["start-failed".into(), "error".into()], e.0.clone(), Value::Nil);
                    self.fail_task(ctx.node_id, ctx.instance_id, &main_fiber(task_id), "failed", cond);
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
        let args = deserialize_value(&msg.body, &rt.gvm).map_err(|e| VinzError(format!("bad Start arguments: {e}")))?;
        // Freshly deserialized, so the list Arc is unshared and the
        // argument vector moves out without a per-element clone.
        let args: Vec<Value> = match args {
            Value::List(items) => Arc::try_unwrap(items).unwrap_or_else(|a| (*a).clone()),
            _ => Vec::new(),
        };

        let task_id = named.map_or_else(|| self.new_task_id(), str::to_owned);
        let fiber_id = main_fiber(&task_id);
        // Birth happens under the fiber's own lock. Two deliveries of one
        // Start then cannot both find the task undefined, and the
        // RunFiber the first one sends cannot reach a suspension —
        // which rewrites the birth record — while the second is still
        // about to write the birth record over it.
        let birth = self
            .lock_fiber(&fiber_id, LOCK_WAIT)
            .ok_or_else(|| VinzError(format!("could not lock {fiber_id} to start it")))?;
        // The task definition is the first thing a Start writes: where
        // it exists, this Start has been delivered before.
        if self.task_defined(&task_id)? {
            return Ok(task_id);
        }
        // Anchor the deadline at submission (message enqueue), not at
        // Start processing: queueing delay counts against the deadline.
        let deadline_ms = msg.get_header("deadline-ms");
        let deadline = deadline_ms
            .and_then(|s| s.parse::<u64>().ok())
            .map(|ms| msg.enqueued_at + Duration::from_millis(ms));
        self.tracker.task_born(&task_id, deadline);
        self.metrics.tasks_started.fetch_add(1, Ordering::Relaxed);

        let mut state = rt
            .gvm
            .fiber_for(&func, args)
            .map_err(|e| VinzError(format!("cannot start {function}: {e}")))?;
        state.ext.set("task-id", Value::str(&task_id));
        state.ext.set("fiber-id", Value::str(&fiber_id));
        state.ext.set("root", Value::Bool(true));
        state.ext.set("spawn-limit", Value::Int(self.config.spawn_limit as i64));
        if let Some(d) = deadline_ms {
            state.ext.set("deadline-ms", Value::str(d));
        }
        let mut def = AssocMap::new();
        def.insert(Value::keyword("function"), Value::str(function));
        def.insert(
            Value::keyword("deadline-ms"),
            deadline_ms.map(Value::str).unwrap_or(Value::Nil),
        );
        self.save_task_def(&rt, &task_id, &Value::Map(Arc::new(def)))?;

        self.save_newborn(&rt, ctx.instance_id, &fiber_id, state)?;
        drop(birth);
        self.emit(ctx.node_id, ctx.instance_id, &fiber_id, || EventKind::TaskStarted);
        self.tracker.note_phase(&task_id, Phase::QueueWait);
        self.send_run_fiber(&fiber_id, deadline);
        Ok(task_id)
    }

    /// Run: Start then wait for completion (synchronous; occupies this
    /// instance's slot, so deployments using the service-level Run need
    /// at least two instances).
    pub(crate) fn op_run(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id_bytes = self.op_start(ctx, msg)?;
        let task_id = String::from_utf8_lossy(&task_id_bytes).into_owned();
        self.tracker
            .wait(&task_id, JOIN_DEADLINE)
            .ok_or_else(|| VinzError(format!("task {task_id} did not finish")))?;
        Ok(task_id_bytes)
    }

    /// Call: Run, then return the final result.
    pub(crate) fn op_call(self: &Arc<Inner>, ctx: &ServiceCtx, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id_bytes = self.op_run(ctx, msg)?;
        let task_id = String::from_utf8_lossy(&task_id_bytes).into_owned();
        match self.tracker.status(&task_id) {
            Some(TaskStatus::Completed(v)) => Ok(serialize_value(&v, self.config.codec)?),
            Some(TaskStatus::Failed(c)) | Some(TaskStatus::Terminated(c)) => Err(VinzError(format!("{c}"))),
            other => Err(VinzError(format!("unexpected status {other:?}"))),
        }
    }

    /// Terminate: flag the task; fibers notice at their next message
    /// boundary (§3.7).
    pub(crate) fn op_terminate(&self, msg: &Message) -> Result<Vec<u8>, VinzError> {
        let task_id = msg
            .get_header("task-id")
            .ok_or_else(|| VinzError("Terminate requires task-id".into()))?;
        self.tracker.finish(
            task_id,
            TaskStatus::Terminated(Condition::new("terminated", "terminated by management request")),
        );
        Ok(Vec::new())
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
        self.tracker.finish(task_id, TaskStatus::Failed(cond));
    }
}
