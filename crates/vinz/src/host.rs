//! The fiber host: what a fiber leaves in the shared store, and the one
//! way into a fiber.
//!
//! Every key a fiber's life writes is built in this module and nowhere
//! else; the orphan scan and the natives ask the functions here.
//!
//! | key | written | read as |
//! |---|---|---|
//! | `task-def/{task}` | once, by `Start` | the task exists |
//! | `fiber/{fiber}` (`@{gen}` after a compaction) | at birth, at each full save | the chain's base snapshot |
//! | `fiber-d/{fiber}/{i}` | at a delta save | the `i`-th delta on that base |
//! | `fiber-v/{fiber}` | at each suspension, with the snapshot | `(version, generation, chain_len)`; present ⇒ suspended |
//! | `susp/{fiber}` | in the same batch | what the fiber waits on ([`Wait`]) |
//! | `result/{fiber}` | once, when the fiber finishes | its value; present ⇒ done |
//! | `children/{parent}/{child}` | at a fork | the parent's child registry |
//! | `waiters/{target}` | at a join suspension | who to wake when `target` finishes |
//!
//! `RunFiber`, `AwakeFiber`, `JoinProcess` and `ResumeFromCall` (Table 1)
//! all enter their fiber through [`Inner::enter_fiber`]; the first three
//! are here, the fourth is in `calls`. How a continuation is saved and
//! loaded is the child module `chain`.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Message, ServiceCtx};
use gozer_lang::Value;
use gozer_obs::{EventKind, Phase};
use gozer_serial::{deserialize_value, serialize_value};
use gozer_vm::{FiberState, RunOutcome, Unwind, VmError};

use crate::locks::{LockGuard, LOCK_WAIT};
use crate::service::{required_header, Inner, NodeRuntime, VinzError};
use crate::tracker::TaskStatus;

mod chain;

pub(crate) use chain::FiberHot;
use chain::FiberMeta;

// ---- the key layout ------------------------------------------------------

fn task_def_key(task_id: &str) -> String {
    format!("task-def/{task_id}")
}

/// Store key of a fiber's full-snapshot base; generation 0, the first,
/// has the plain key.
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

fn meta_key(fiber_id: &str) -> String {
    format!("fiber-v/{fiber_id}")
}

fn crumb_key(fiber_id: &str) -> String {
    format!("susp/{fiber_id}")
}

fn result_key(fiber_id: &str) -> String {
    format!("result/{fiber_id}")
}

fn children_prefix(parent_id: &str) -> String {
    format!("children/{parent_id}/")
}

fn waiters_key(target: &str) -> String {
    format!("waiters/{target}")
}

/// Where a fiber is in its life, read off the store by
/// [`Inner::fiber_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FiberPhase {
    /// Born and not yet run to a suspension.
    Initial,
    /// Suspended, awaiting a resume.
    Suspended,
    /// Finished.
    Done,
}

/// What a suspended fiber waits on: parsed once from its suspension
/// payload, kept as its `susp/` crumb for the orphan scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Wait {
    /// Its `for-each`/`parallel` children (`AwakeFiber`).
    Children,
    /// The termination of the named fiber (`JoinProcess`).
    Join(String),
    /// The reply to an async service call (`ResumeFromCall`).
    ServiceCall,
    /// Anything else, e.g. a bare `yield` (`manual`).
    Other(String),
}

impl Wait {
    /// Read the wait off a suspension payload: `{:reason :children}`,
    /// `{:reason "join" :target "task-1/f2"}`, … A payload without a
    /// reason is `manual`.
    fn parse(payload: &Value) -> Result<Wait, VinzError> {
        let map = payload.as_map();
        let field = |name| map.and_then(|m| m.get(&Value::keyword(name)));
        let reason = match field("reason") {
            Some(Value::Keyword(k)) => k.name().to_string(),
            Some(Value::Str(s)) => s.to_string(),
            Some(other) => format!("{other}"),
            None => "manual".to_string(),
        };
        let target = field("target").and_then(Value::as_str);
        if reason == "join" && target.is_none() {
            return Err(VinzError("join suspension without target".into()));
        }
        Ok(Wait::of(&reason, target))
    }

    /// The one mapping from a reason (and a join's target) to the wait.
    fn of(reason: &str, target: Option<&str>) -> Wait {
        match (reason, target) {
            ("children", _) => Wait::Children,
            ("service-call", _) => Wait::ServiceCall,
            ("join", Some(target)) if !target.is_empty() => Wait::Join(target.to_string()),
            (reason, _) => Wait::Other(reason.to_string()),
        }
    }

    /// The reason as the payload named it.
    fn reason(&self) -> &str {
        match self {
            Wait::Children => "children",
            Wait::Join(_) => "join",
            Wait::ServiceCall => "service-call",
            Wait::Other(reason) => reason,
        }
    }

    /// Where the task's wall-clock goes while the fiber waits: a
    /// dispatched call accrues service_wait, children and joins wait on
    /// broker messages (queue_wait), anything else is simply suspended.
    fn phase(&self) -> Phase {
        match self {
            Wait::ServiceCall => Phase::ServiceWait,
            Wait::Children | Wait::Join(_) => Phase::QueueWait,
            Wait::Other(_) => Phase::Suspended,
        }
    }

    /// The `susp/` crumb: the reason, and for a join a second line with
    /// the target.
    fn encode(&self) -> String {
        match self {
            Wait::Join(target) => format!("join\n{target}"),
            other => other.reason().to_string(),
        }
    }

    /// Read a crumb back. A join crumb without a target reads as
    /// `Other("join")`, which nothing resumes.
    fn decode(bytes: &[u8]) -> Wait {
        let crumb = String::from_utf8_lossy(bytes);
        let mut lines = crumb.lines();
        Wait::of(lines.next().unwrap_or(""), lines.next())
    }
}

/// How one operation enters its fiber; see [`Inner::enter_fiber`].
pub(crate) struct Entry<'m> {
    /// The fiber the message is for.
    pub fiber_id: &'m str,
    /// How long to wait for the fiber lock before the message goes back
    /// on the queue.
    pub lock_wait: Duration,
    /// The phase the message is for: `Initial` for a first run,
    /// `Suspended` for a resume.
    pub answers: FiberPhase,
    /// `(ext slot, key)`: the wake-up counts once per key, even when the
    /// broker redelivers it. The consumed set travels with the
    /// continuation.
    pub once: Option<(&'static str, &'m str)>,
}

/// Why a message did not reach its fiber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TurnedAway {
    /// The fiber's task is final.
    Finished,
    /// The lock wait ran out; the message went back on the queue.
    Busy,
    /// The fiber is past the phase the message is for: the message is
    /// late or a duplicate.
    Stale,
}

/// What enters the fiber once its phase matches.
pub(crate) enum Resume {
    /// Run it from the top.
    Run,
    /// Resume it with `value`, which arrived `via` (`awake`,
    /// `service-call`, `join`).
    With { via: &'static str, value: Value },
}

impl Inner {
    // ---- what the store says of a fiber -------------------------------

    /// Take a fiber's lock (named after its birth key), waiting up to
    /// `wait`.
    pub(crate) fn lock_fiber(&self, fiber_id: &str, wait: Duration) -> Option<LockGuard<'_>> {
        self.locks.acquire(base_key(fiber_id, 0), wait)
    }

    /// Execution phase of a fiber, used to make the Table-1 operations
    /// idempotent under the broker's at-least-once delivery. A duplicate
    /// RunFiber delivered after the fiber suspended must not re-enter
    /// it, and a duplicate resume must not advance it twice.
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
    ) -> Result<(FiberPhase, Option<FiberMeta>), VinzError> {
        if self.fiber_done(fiber_id)? {
            return Ok((FiberPhase::Done, None));
        }
        let meta = self.fiber_meta(fiber_id)?;
        let phase = if meta.is_some() {
            FiberPhase::Suspended
        } else {
            FiberPhase::Initial
        };
        Ok((phase, meta))
    }

    /// Whether the fiber has finished (its result is written).
    pub(crate) fn fiber_done(&self, fiber_id: &str) -> Result<bool, VinzError> {
        Ok(self.result_bytes(fiber_id)?.is_some())
    }

    /// A finished fiber's serialized result, read from the store.
    pub(crate) fn result_bytes(&self, fiber_id: &str) -> Result<Option<Vec<u8>>, VinzError> {
        Ok(self.store.get(&result_key(fiber_id))?)
    }

    /// A fiber's result through the node's immutable cache; `nil` while
    /// it has none.
    pub(crate) fn load_result(&self, rt: &NodeRuntime, fiber_id: &str) -> Result<Value, VinzError> {
        match self.load_immutable(rt, &result_key(fiber_id))? {
            Some(bytes) => deserialize_value(&bytes, &rt.gvm)
                .map_err(|e| VinzError(format!("bad result for {fiber_id}: {e}"))),
            None => Ok(Value::Nil),
        }
    }

    /// Every fiber of `task`, by its base snapshot: each has one from
    /// birth on (a compacted one under `@{generation}`, listed once per
    /// base key present).
    pub(crate) fn fibers_of(&self, task_id: &str) -> Result<Vec<String>, VinzError> {
        let prefix = base_key(task_id, 0) + "/";
        Ok(self
            .store
            .list(&prefix)?
            .iter()
            .filter_map(|key| key.strip_prefix("fiber/"))
            .map(|base| base.split('@').next().unwrap_or(base).to_string())
            .collect())
    }

    /// What a suspended fiber waits on, from its crumb.
    pub(crate) fn wait_of(&self, fiber_id: &str) -> Result<Option<Wait>, VinzError> {
        Ok(self
            .store
            .get(&crumb_key(fiber_id))?
            .map(|b| Wait::decode(&b)))
    }

    /// Register `child_id` in `parent_id`'s child registry, which the
    /// orphan scan reads to re-send lost wake-ups: one key per child, so
    /// a fork writes its own id and reads nothing, however many siblings
    /// came before.
    pub(crate) fn register_child(&self, parent_id: &str, child_id: &str) -> Result<(), VinzError> {
        Ok(self
            .store
            .put(&(children_prefix(parent_id) + child_id), b"")?)
    }

    /// The children registered under `parent_id`.
    pub(crate) fn children_of(&self, parent_id: &str) -> Result<Vec<String>, VinzError> {
        let prefix = children_prefix(parent_id);
        Ok(self
            .store
            .list(&prefix)?
            .iter()
            .filter_map(|k| k.strip_prefix(&prefix).map(str::to_owned))
            .collect())
    }

    /// Whether a `Start` has already written `task_id`'s definition.
    pub(crate) fn task_defined(&self, task_id: &str) -> Result<bool, VinzError> {
        Ok(self.store.get(&task_def_key(task_id))?.is_some())
    }

    /// Persist the (immutable) task definition: consulted by every fiber
    /// execution, so the per-node immutable cache serves it after the
    /// first read — the second compartment of the §4.2 cache
    /// measurements.
    pub(crate) fn save_task_def(
        &self,
        rt: &NodeRuntime,
        task_id: &str,
        def: &Value,
    ) -> Result<(), VinzError> {
        let key = task_def_key(task_id);
        let bytes = serialize_value(def, self.config.codec)?;
        self.store.put(&key, &bytes)?;
        rt.cache.put_immutable(&key, Arc::new(bytes));
        Ok(())
    }

    /// Validate the task definition exists (every fiber execution
    /// consults it, through the immutable cache).
    fn check_task_def(&self, rt: &NodeRuntime, task_id: &str) -> Result<(), VinzError> {
        match self.load_immutable(rt, &task_def_key(task_id))? {
            Some(_) => Ok(()),
            None => Err(VinzError(format!("task {task_id} has no definition"))),
        }
    }

    /// Read write-once data through the immutable cache.
    fn load_immutable(
        &self,
        rt: &NodeRuntime,
        key: &str,
    ) -> Result<Option<Arc<Vec<u8>>>, VinzError> {
        if let Some(data) = rt.cache.get_immutable(key) {
            return Ok(Some(data));
        }
        let data = self.store.get(key)?.map(Arc::new);
        if let Some(d) = &data {
            rt.cache.put_immutable(key, d.clone());
        }
        Ok(data)
    }

    // ---- the fiber operations (Table 1) -----------------------------------

    /// RunFiber: execute a fiber from its persisted continuation.
    pub(crate) fn op_run_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
    ) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        let entry = Entry {
            fiber_id,
            lock_wait: LOCK_WAIT,
            answers: FiberPhase::Initial,
            once: None,
        };
        self.enter_fiber(
            ctx,
            msg,
            entry,
            |why| {
                // A fiber that never ran, and now never will, still
                // counts as finished.
                if why == TurnedAway::Finished {
                    self.tracker.fiber_finished(Inner::task_of(fiber_id));
                }
            },
            |_| Ok(Some(Resume::Run)),
        )
    }

    /// AwakeFiber: resume a parent awaiting children (§3.5), with the §5
    /// bounded lock wait.
    pub(crate) fn op_awake_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
    ) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        let entry = Entry {
            fiber_id,
            lock_wait: self.config.awake_wait_limit,
            answers: FiberPhase::Suspended,
            // Each child's termination wake-up counts once.
            once: msg
                .get_header("from-child")
                .map(|child| ("awakes-consumed", child)),
        };
        self.enter_fiber(
            ctx,
            msg,
            entry,
            |why| {
                // §5: give up and go back on the queue rather than hold
                // the instance hostage.
                if why == TurnedAway::Busy {
                    self.metrics.awake_retries.fetch_add(1, Ordering::Relaxed);
                    self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                        EventKind::AwakeRetry
                    });
                }
            },
            |_| {
                Ok(Some(Resume::With {
                    via: "awake",
                    value: Value::Nil,
                }))
            },
        )
    }

    /// JoinProcess: resume a fiber waiting on another fiber's
    /// termination, delivering the target's result.
    pub(crate) fn op_join_process(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
    ) -> Result<Vec<u8>, VinzError> {
        let fiber_id = required_header(msg, "fiber-id")?;
        let target = msg.get_header("target").unwrap_or("");
        let entry = Entry {
            fiber_id,
            lock_wait: LOCK_WAIT,
            answers: FiberPhase::Suspended,
            // Redelivered join wake-ups are told apart by target.
            once: Some(("joins-consumed", target)),
        };
        self.enter_fiber(
            ctx,
            msg,
            entry,
            |_| {},
            |rt| {
                let value = self.load_result(rt, target)?;
                Ok(Some(Resume::With { via: "join", value }))
            },
        )
    }

    /// The one way into a persisted fiber: RunFiber, AwakeFiber,
    /// ResumeFromCall and JoinProcess (Table 1) are this protocol, run
    /// on what each hands in ([`Entry`]).
    ///
    /// Under at-least-once delivery a message can find its fiber in
    /// another phase than the one it `answers`: still `Initial` means it
    /// beat the suspension it answers and is retried shortly; anything
    /// else means it is late or a duplicate (the continuation of a
    /// suspended fiber expects a *resume*, not a re-entry; a finished
    /// fiber expects nothing) and is dropped. `turned_away` is told why
    /// a message did not reach its fiber. `resume` runs under the fiber
    /// lock once the phase matches; `None` means the message was used up
    /// some other way and the fiber stays as it is.
    pub(crate) fn enter_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        msg: &Message,
        entry: Entry<'_>,
        turned_away: impl Fn(TurnedAway),
        resume: impl FnOnce(&NodeRuntime) -> Result<Option<Resume>, VinzError>,
    ) -> Result<Vec<u8>, VinzError> {
        let fiber_id = entry.fiber_id;
        let task_id = Inner::task_of(fiber_id);
        // Fibers of finished tasks terminate "in short order" (§3.7).
        if self.tracker.is_final(task_id) {
            turned_away(TurnedAway::Finished);
            return Ok(Vec::new());
        }
        let Some(guard) = self.lock_fiber(fiber_id, entry.lock_wait) else {
            // Could not get the fiber; hand the message back to the queue.
            turned_away(TurnedAway::Busy);
            self.cluster.send(msg.clone());
            return Ok(Vec::new());
        };
        let meta = match self.fiber_phase(fiber_id)? {
            (phase, meta) if phase == entry.answers => meta,
            (FiberPhase::Initial, _) => return self.retry_shortly(guard, msg),
            _ => {
                turned_away(TurnedAway::Stale);
                return Ok(Vec::new());
            }
        };
        let rt = self.node_runtime(ctx.node_id)?;
        self.check_task_def(&rt, task_id)?;
        let Some(resume) = resume(&rt)? else {
            return Ok(Vec::new());
        };
        let mut state = self.load_fiber(&rt, ctx.instance_id, fiber_id, meta)?;
        if let Some((slot, key)) = entry.once {
            let mut consumed = state
                .ext
                .get(slot)
                .and_then(Value::as_list)
                .map(<[Value]>::to_vec)
                .unwrap_or_default();
            if consumed.iter().any(|v| v.as_str() == Some(key)) {
                // A duplicate wake-up: the fiber stays as it was.
                self.keep_loaded(&rt, fiber_id, meta, state);
                return Ok(Vec::new());
            }
            consumed.push(Value::str(key));
            state.ext.set(slot, Value::list(consumed));
        }
        self.drive_fiber(ctx, &rt, fiber_id, state, meta, resume)
    }

    /// A wake-up found its fiber still `Initial`: it beat the suspension
    /// it answers. Requeue it after a short back-off, with the fiber
    /// lock released first — the instance thread sleeping here must not
    /// keep the fiber's own first run waiting on that lock.
    fn retry_shortly(&self, guard: LockGuard<'_>, msg: &Message) -> Result<Vec<u8>, VinzError> {
        drop(guard);
        std::thread::sleep(Duration::from_millis(1));
        self.cluster.send(msg.clone());
        Ok(Vec::new())
    }

    // ---- fiber execution ------------------------------------------------

    /// Run a fiber from the top or resume it, and deal with the outcome:
    /// completion, suspension, break, terminate, or failure. The caller
    /// holds the fiber lock, under which it read `meta` and loaded
    /// `state`.
    fn drive_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        rt: &Arc<NodeRuntime>,
        fiber_id: &str,
        state: FiberState,
        meta: Option<FiberMeta>,
        resume: Resume,
    ) -> Result<Vec<u8>, VinzError> {
        let task_id = Inner::task_of(fiber_id);
        let lineage = Lineage::of(&state);
        self.tracker.note_phase(task_id, Phase::VmExec);
        let outcome = match resume {
            Resume::Run => {
                self.metrics.fibers_run.fetch_add(1, Ordering::Relaxed);
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                    EventKind::FiberRun
                });
                rt.gvm.run_fiber(state)
            }
            Resume::With { via, value } => {
                self.metrics.resumes.fetch_add(1, Ordering::Relaxed);
                // Never below zero: a resume can race a terminate that
                // already dropped the count.
                let gauge = &self.metrics.suspended_fibers;
                let _ =
                    gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                    EventKind::FiberResumed { via: via.into() }
                });
                rt.gvm.resume_fiber(state, value)
            }
        };
        match outcome {
            Ok(RunOutcome::Done(value)) => self.finish_fiber(ctx, rt, fiber_id, value, lineage)?,
            Ok(RunOutcome::Suspended(susp)) => {
                let wait = Wait::parse(&susp.payload)?;
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                    EventKind::FiberYield {
                        reason: wait.reason().to_string(),
                    }
                });
                // The crumb rides in the save's batch with the meta
                // record that makes the fiber read as suspended, so the
                // orphan scan never sees one without the other. The wait
                // phase is flipped after the save, which banked
                // serialize time.
                self.save_fiber(rt, ctx.instance_id, fiber_id, susp.state, meta, &wait)?;
                self.metrics
                    .suspended_fibers
                    .fetch_add(1, Ordering::Relaxed);
                self.tracker.note_phase(task_id, wait.phase());
                // A join registers its waiter; a racing completion is
                // caught by checking for the result *after* registering.
                if let Wait::Join(target) = &wait {
                    self.register_join_waiter(target, fiber_id)?;
                }
            }
            Err(VmError::Unwind(Unwind::TerminateTask(cond))) => {
                self.tracker.fiber_finished(task_id);
                self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                    EventKind::TaskDone {
                        outcome: "terminated".into(),
                    }
                });
                self.tracker.finish(task_id, TaskStatus::Terminated(cond));
            }
            Err(e) => {
                // Unhandled condition: the fiber dies and, with it, the
                // task (robust default — a lost child would otherwise hang
                // its parent forever).
                self.tracker.fiber_finished(task_id);
                self.fail_task(
                    ctx.node_id,
                    ctx.instance_id,
                    fiber_id,
                    "failed",
                    e.to_condition(),
                );
            }
        }
        Ok(Vec::new())
    }

    fn finish_fiber(
        self: &Arc<Inner>,
        ctx: &ServiceCtx,
        rt: &Arc<NodeRuntime>,
        fiber_id: &str,
        value: Value,
        lineage: Lineage,
    ) -> Result<(), VinzError> {
        let task_id = Inner::task_of(fiber_id);
        // Results are write-once: prime the store and the local immutable
        // cache. The AwakeFiber/JoinProcess messages below announce "this
        // result exists" to fibers of this deployment only, whose next
        // saves follow the result in the log, so they are not held.
        self.tracker.note_phase(task_id, Phase::Serialize);
        let bytes = serialize_value(&value, self.config.codec)
            .map_err(|e| VinzError(format!("result of {fiber_id}: {e}")))?;
        let key = result_key(fiber_id);
        self.store.put(&key, &bytes)?;
        rt.cache.put_immutable(&key, Arc::new(bytes));
        self.hot.write().remove(fiber_id);
        self.tracker.fiber_finished(task_id);
        self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
            EventKind::FiberDone
        });
        // Until another of the task's fibers activates (or the root
        // finish below closes the ledger) the task is waiting on the
        // broker.
        self.tracker.note_phase(task_id, Phase::QueueWait);

        // Footnote 1 of the paper: fibers created by for-each/parallel
        // notify their parent on termination; plain fork-and-exec fibers
        // do not.
        if let Some(parent_id) = lineage.notify {
            self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                EventKind::AwakeSent {
                    parent: parent_id.clone(),
                }
            });
            self.send_awake(&parent_id, fiber_id);
        }
        // Wake any join-process waiters.
        self.notify_join_waiters(fiber_id)?;
        if lineage.is_root {
            // Emit the event *before* finishing the task: the finish
            // notification wakes waiting clients, who may read the
            // event stream immediately.
            self.emit(ctx.node_id, ctx.instance_id, fiber_id, || {
                EventKind::TaskDone {
                    outcome: "completed".into(),
                }
            });
            self.tracker.finish(task_id, TaskStatus::Completed(value));
        }
        Ok(())
    }

    // ---- messages that enter a fiber --------------------------------------

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
    /// `child_id` has finished. It is stamped low priority as §5 says,
    /// but that changes nothing here: only `Policy::Priority` ranks by
    /// priority, and no cluster runs it (FCFS everywhere, EDF in the
    /// `sec5-scheduling` experiment).
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
        match self.last_node(fiber_id) {
            Some(node) => msg.with_affinity(node),
            None => msg,
        }
    }

    // ---- join bookkeeping -------------------------------------------------

    /// Add `waiter` to `target`'s waiter list; if the target already
    /// finished, wake immediately (registration-then-check closes the
    /// race with a concurrent finish).
    fn register_join_waiter(
        self: &Arc<Inner>,
        target: &str,
        waiter: &str,
    ) -> Result<(), VinzError> {
        let key = waiters_key(target);
        {
            let _guard = self
                .locks
                .acquire(key.clone(), LOCK_WAIT)
                .ok_or_else(|| VinzError(format!("could not lock {key}")))?;
            let mut list = self
                .store
                .get(&key)?
                .map(|b| String::from_utf8_lossy(&b).into_owned())
                .unwrap_or_default();
            if !list.is_empty() {
                list.push(',');
            }
            list.push_str(waiter);
            self.store.put(&key, list.as_bytes())?;
        }
        // The target finished before (or while) we registered: wake
        // ourselves.
        if self.fiber_done(target)? {
            self.notify_join_waiters(target)?;
        }
        Ok(())
    }

    /// Send JoinProcess to everyone waiting on `target`. Ungated: the
    /// save that made the wake legitimate (the target's result, or the
    /// waiter's own suspension save in the registration race) is already
    /// in the log ahead of anything the woken fiber will write.
    fn notify_join_waiters(self: &Arc<Inner>, target: &str) -> Result<(), VinzError> {
        let key = waiters_key(target);
        // Most fibers have no waiters, and finding none needs no lock: a
        // waiter registers first and then checks for the result, which
        // is written before this runs, so one that registers after this
        // read wakes itself.
        if self.store.get(&key)?.is_none() {
            return Ok(());
        }
        let waiters = {
            let _guard = self
                .locks
                .acquire(key.clone(), LOCK_WAIT)
                .ok_or_else(|| VinzError(format!("could not lock {key}")))?;
            // Nobody registered: nothing to clear (on LogStore a delete
            // of a key never written would still append a tombstone).
            let Some(list) = self.store.get(&key)? else {
                return Ok(());
            };
            self.store.delete(&key)?;
            String::from_utf8_lossy(&list).into_owned()
        };
        for waiter in waiters.split(',').filter(|w| !w.is_empty()) {
            self.send_join(waiter, target);
        }
        Ok(())
    }
}

/// Where a fiber sits in its task, read from its continuation's ext
/// slots before the run consumes it.
struct Lineage {
    /// The task's main fiber: its finish finishes the task.
    is_root: bool,
    /// The parent to wake on finish (`for-each`/`parallel` children only).
    notify: Option<String>,
}

impl Lineage {
    fn of(state: &FiberState) -> Lineage {
        let flag = |slot| state.ext.get(slot).is_some_and(Value::is_truthy);
        let parent = state
            .ext
            .get("parent-id")
            .and_then(|v| v.as_str().map(str::to_owned));
        Lineage {
            is_root: flag("root"),
            notify: parent.filter(|_| flag("notify-parent")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gozer_vm::Gvm;

    #[test]
    fn suspension_reason_parsing() {
        let gvm = Gvm::with_pool_size(1);
        let parse = |src: &str| Wait::parse(&gvm.eval_str(src).unwrap()).unwrap();
        assert_eq!(parse("{:reason :children}"), Wait::Children);
        assert_eq!(
            parse("{:reason \"join\" :target \"t/f1\"}"),
            Wait::Join("t/f1".into())
        );
        assert_eq!(parse("{:reason :service-call}"), Wait::ServiceCall);
        assert_eq!(
            Wait::parse(&Value::Nil).unwrap(),
            Wait::Other("manual".into())
        );
        assert!(Wait::parse(&gvm.eval_str("{:reason :join}").unwrap()).is_err());
    }

    /// Every wait round-trips through its `susp/` bytes, and the bytes
    /// stores already hold decode to the wait that wrote them.
    #[test]
    fn wait_round_trips_through_its_crumb() {
        for wait in [
            Wait::Children,
            Wait::Join("task-1/f2".into()),
            Wait::ServiceCall,
            Wait::Other("manual".into()),
        ] {
            assert_eq!(Wait::decode(wait.encode().as_bytes()), wait);
        }
        for (bytes, wait) in [
            (&b"children"[..], Wait::Children),
            (b"join\ntask-1/f2", Wait::Join("task-1/f2".into())),
            (b"service-call", Wait::ServiceCall),
            (b"manual", Wait::Other("manual".into())),
        ] {
            assert_eq!(Wait::decode(bytes), wait);
            assert_eq!(wait.encode().as_bytes(), bytes);
        }
        // A join that lost its target is resumed by nothing.
        assert_eq!(Wait::decode(b"join"), Wait::Other("join".into()));
    }
}
