//! Span-tree reconstruction: turn the flat event stream back into
//! per-task timelines with fiber parent links, and render the
//! Figure-1-style per-task report.
//!
//! A task's main fiber (`task-N/f0`) roots the tree; every
//! [`EventKind::FiberForked`] event links the named child fiber to the
//! forking fiber. Broker events (faults, crashes, redeliveries) attach
//! to the task/fiber their correlation headers name; events that name a
//! fiber never seen by the workflow layer, or a task with no
//! `TaskStarted`, land in [`TimelineSet::orphans`] — the chaos sweep
//! test asserts that set stays empty.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::event::{Event, EventKind};
use crate::phase::{Phase, PhaseBreakdown};

/// One fiber's span: its events plus tree links.
#[derive(Debug, Clone)]
pub struct FiberSpan {
    /// Fiber id (`task-N/fM`).
    pub fiber: String,
    /// Forking parent's fiber id; `None` for the main fiber.
    pub parent: Option<String>,
    /// Child fiber ids, in fork order.
    pub children: Vec<String>,
    /// This fiber's events, in sequence order.
    pub events: Vec<Event>,
}

impl FiberSpan {
    /// Whether this span recorded any injected fault.
    pub fn has_fault(&self) -> bool {
        self.events.iter().any(|e| e.kind.is_fault())
    }
}

/// One task's reconstructed lifetime.
#[derive(Debug, Clone)]
pub struct TaskTimeline {
    /// Task id.
    pub task: String,
    /// All spans of this task, main fiber first, then by first
    /// appearance.
    pub spans: Vec<FiberSpan>,
    /// Task-scoped events that name no fiber (e.g. `TaskStarted`,
    /// `TaskDone`, task-correlated broker faults).
    pub events: Vec<Event>,
}

impl TaskTimeline {
    /// Find a span by fiber id.
    pub fn span(&self, fiber: &str) -> Option<&FiberSpan> {
        self.spans.iter().find(|s| s.fiber == fiber)
    }

    /// All fault events anywhere in this task's timeline.
    pub fn faults(&self) -> Vec<&Event> {
        self.events
            .iter()
            .chain(self.spans.iter().flat_map(|s| s.events.iter()))
            .filter(|e| e.kind.is_fault())
            .collect()
    }

    /// First event timestamp, used as the timeline origin.
    fn origin(&self) -> Option<Instant> {
        self.events
            .iter()
            .chain(self.spans.iter().flat_map(|s| s.events.iter()))
            .map(|e| e.at)
            .min()
    }

    /// Render this task's Figure-1-style report: task-level events and
    /// the fiber tree, children indented under their forking parent,
    /// each line offset in milliseconds from the task's first event.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let origin = match self.origin() {
            Some(o) => o,
            None => return out,
        };
        out.push_str(&format!("task {}\n", self.task));
        for e in &self.events {
            out.push_str(&format!("  {}\n", describe(e, origin)));
        }
        // Walk the fiber tree from the roots (spans with no parent or a
        // parent outside this task).
        let known: BTreeMap<&str, &FiberSpan> =
            self.spans.iter().map(|s| (s.fiber.as_str(), s)).collect();
        for span in &self.spans {
            let is_root = span
                .parent
                .as_deref()
                .map_or(true, |p| !known.contains_key(p));
            if is_root {
                render_span(span, &known, 1, origin, &mut out);
            }
        }
        let cp = self.critical_path();
        if !cp.segments.is_empty() {
            out.push_str("  critical path:\n");
            out.push_str(&cp.render_at(origin, 2));
            let totals = cp.totals();
            out.push_str(&format!("  critical totals: {}", totals.render()));
            if let Some((phase, d)) = totals.dominant() {
                out.push_str(&format!(
                    " (dominant {phase} {:.3}ms)",
                    d.as_secs_f64() * 1e3
                ));
            }
            out.push('\n');
        }
        out
    }

    /// The earliest `TaskStarted` event, if traced.
    fn task_started(&self) -> Option<&Event> {
        self.events
            .iter()
            .chain(self.spans.iter().flat_map(|s| s.events.iter()))
            .filter(|e| matches!(e.kind, EventKind::TaskStarted))
            .min_by_key(|e| e.seq)
    }

    /// Compute the task's **critical path**: the single chain of phases
    /// that gated completion, walked *backward* from the final
    /// `TaskDone` event through the causes of each activation.
    ///
    /// At each step the latest activation (`FiberRun` / `FiberResumed`)
    /// before the cursor bounds an execution segment (`vm_exec`); the
    /// activation's cause determines the preceding wait segment and
    /// where the walk jumps next:
    ///
    /// * `FiberRun` ← the parent's `FiberForked` (a `queue_wait` for
    ///   the RunFiber message; the walk continues in the parent) or the
    ///   task's `TaskStarted` (terminal `queue_wait`).
    /// * `FiberResumed via service-call` ← the same fiber's latest
    ///   `ServiceCallDispatched` (`service_wait`).
    /// * `FiberResumed via awake`/`join` ← the latest child `FiberDone`
    ///   (a `queue_wait` for the awake; the walk recurses into the
    ///   child), else the fiber's own `FiberYield` (`suspended`).
    ///
    /// Queue-wait windows containing a `MessageReleased` broker event
    /// split the released `held_nanos` out as `durability_hold`.
    /// Termination is guaranteed: the cursor's event sequence number is
    /// strictly decreasing, with an iteration cap as a belt.
    pub fn critical_path(&self) -> CriticalPath {
        let mut segs: Vec<CriticalSegment> = Vec::new();
        let done = self
            .events
            .iter()
            .chain(self.spans.iter().flat_map(|s| s.events.iter()))
            .filter(|e| matches!(e.kind, EventKind::TaskDone { .. }))
            .max_by_key(|e| e.seq);
        let Some(done) = done else {
            return CriticalPath::default();
        };
        let root = self.spans.iter().find(|s| {
            s.parent.as_deref().map_or(true, |p| self.span(p).is_none())
        });
        let Some(mut fiber) = done
            .fiber
            .as_deref()
            .and_then(|f| self.span(f))
            .or(root)
        else {
            return CriticalPath::default();
        };
        let mut cursor: Event = done.clone();
        for _ in 0..10_000 {
            let activation = fiber
                .events
                .iter()
                .filter(|e| e.seq < cursor.seq)
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::FiberRun | EventKind::FiberResumed { .. }
                    )
                })
                .max_by_key(|e| e.seq);
            let Some(act) = activation.cloned() else {
                // Trace window truncated before this fiber's activation:
                // close with a wait back to the task start if visible.
                if let Some(start) = self.task_started() {
                    if start.seq < cursor.seq {
                        push_wait(&mut segs, fiber, start.at, cursor.at);
                    }
                }
                break;
            };
            segs.push(CriticalSegment {
                fiber: fiber.fiber.clone(),
                phase: Phase::VmExec,
                start: act.at,
                duration: cursor.at.saturating_duration_since(act.at),
            });
            match &act.kind {
                EventKind::FiberRun => {
                    let parent = fiber.parent.as_deref().and_then(|p| self.span(p));
                    let fork = parent.and_then(|p| {
                        p.events
                            .iter()
                            .filter(|e| e.seq < act.seq)
                            .filter(|e| {
                                matches!(&e.kind,
                                    EventKind::FiberForked { child } if *child == fiber.fiber)
                            })
                            .max_by_key(|e| e.seq)
                    });
                    match (parent, fork) {
                        (Some(p), Some(f)) => {
                            push_wait(&mut segs, fiber, f.at, act.at);
                            cursor = f.clone();
                            fiber = p;
                        }
                        _ => {
                            if let Some(start) = self.task_started() {
                                if start.seq < act.seq {
                                    push_wait(&mut segs, fiber, start.at, act.at);
                                }
                            }
                            break;
                        }
                    }
                }
                EventKind::FiberResumed { via } if via == "service-call" => {
                    let call = fiber
                        .events
                        .iter()
                        .filter(|e| e.seq < act.seq)
                        .filter(|e| {
                            matches!(e.kind, EventKind::ServiceCallDispatched { .. })
                        })
                        .max_by_key(|e| e.seq);
                    let Some(c) = call.cloned() else { break };
                    segs.push(CriticalSegment {
                        fiber: fiber.fiber.clone(),
                        phase: Phase::ServiceWait,
                        start: c.at,
                        duration: act.at.saturating_duration_since(c.at),
                    });
                    cursor = c;
                }
                EventKind::FiberResumed { .. } => {
                    // awake / join: gated by the latest child completion.
                    let child_done = fiber
                        .children
                        .iter()
                        .filter_map(|c| self.span(c))
                        .filter_map(|c| {
                            c.events
                                .iter()
                                .filter(|e| e.seq < act.seq)
                                .filter(|e| matches!(e.kind, EventKind::FiberDone))
                                .max_by_key(|e| e.seq)
                                .map(|e| (c, e))
                        })
                        .max_by_key(|(_, e)| e.seq);
                    if let Some((child, done_e)) = child_done {
                        push_wait(&mut segs, fiber, done_e.at, act.at);
                        cursor = done_e.clone();
                        fiber = child;
                    } else {
                        let prior = fiber
                            .events
                            .iter()
                            .filter(|e| e.seq < act.seq)
                            .filter(|e| matches!(e.kind, EventKind::FiberYield { .. }))
                            .max_by_key(|e| e.seq);
                        let Some(y) = prior.cloned() else { break };
                        segs.push(CriticalSegment {
                            fiber: fiber.fiber.clone(),
                            phase: Phase::Suspended,
                            start: y.at,
                            duration: act.at.saturating_duration_since(y.at),
                        });
                        cursor = y;
                    }
                }
                _ => break,
            }
        }
        segs.reverse();
        CriticalPath { segments: segs }
    }
}

/// One hop of a task's critical path.
#[derive(Debug, Clone)]
pub struct CriticalSegment {
    /// Fiber the segment belongs to.
    pub fiber: String,
    /// What the time was spent on.
    pub phase: Phase,
    /// When the segment began.
    pub start: Instant,
    /// How long it lasted.
    pub duration: Duration,
}

/// The dominant phase chain gating a task's completion — the answer to
/// "where did this task's wall-clock actually go?".
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments in causal (chronological) order.
    pub segments: Vec<CriticalSegment>,
}

impl CriticalPath {
    /// Total critical-path time per phase.
    pub fn totals(&self) -> PhaseBreakdown {
        let mut b = PhaseBreakdown::default();
        for s in &self.segments {
            b.phases[s.phase.index()] += s.duration;
        }
        b
    }

    /// End-to-end critical-path length.
    pub fn total(&self) -> Duration {
        self.segments.iter().map(|s| s.duration).sum()
    }

    /// Render one line per segment, offsets relative to `origin`,
    /// indented `depth` two-space stops.
    pub fn render_at(&self, origin: Instant, depth: usize) -> String {
        let pad = "  ".repeat(depth);
        let mut out = String::new();
        for s in &self.segments {
            let ms = s.start.saturating_duration_since(origin).as_secs_f64() * 1e3;
            out.push_str(&format!(
                "{pad}+{ms:8.3}ms {:<16} {:9.3}ms  {}\n",
                s.phase.as_str(),
                s.duration.as_secs_f64() * 1e3,
                s.fiber,
            ));
        }
        out
    }
}

/// Append the wait window `[t0, t1]` on `fiber` to `segs` (still in
/// backward order), splitting out any durability hold recorded by
/// `MessageReleased` events inside the window.
fn push_wait(segs: &mut Vec<CriticalSegment>, fiber: &FiberSpan, t0: Instant, t1: Instant) {
    let window = t1.saturating_duration_since(t0);
    let held_nanos: u64 = fiber
        .events
        .iter()
        .filter(|e| e.at >= t0 && e.at <= t1)
        .filter_map(|e| match &e.kind {
            EventKind::MessageReleased { held_nanos, .. } => Some(*held_nanos),
            _ => None,
        })
        .sum();
    let held = Duration::from_nanos(held_nanos).min(window);
    let queue = window.saturating_sub(held);
    // Backward order: the queue leg (after release) precedes the hold.
    if queue > Duration::ZERO || held.is_zero() {
        segs.push(CriticalSegment {
            fiber: fiber.fiber.clone(),
            phase: Phase::QueueWait,
            start: t0 + held,
            duration: queue,
        });
    }
    if held > Duration::ZERO {
        segs.push(CriticalSegment {
            fiber: fiber.fiber.clone(),
            phase: Phase::DurabilityHold,
            start: t0,
            duration: held,
        });
    }
}

fn render_span(
    span: &FiberSpan,
    known: &BTreeMap<&str, &FiberSpan>,
    depth: usize,
    origin: Instant,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!("{pad}fiber {}\n", span.fiber));
    for e in &span.events {
        out.push_str(&format!("{pad}  {}\n", describe(e, origin)));
    }
    for child in &span.children {
        if let Some(c) = known.get(child.as_str()) {
            render_span(c, known, depth + 1, origin, out);
        }
    }
}

/// One rendered line: `+offset_ms label [details] [ids]`.
fn describe(e: &Event, origin: Instant) -> String {
    let ms = e.at.saturating_duration_since(origin).as_secs_f64() * 1e3;
    let mut line = format!("+{ms:8.3}ms {:<12}", e.kind.label());
    match &e.kind {
        EventKind::MessageSent { service, operation }
        | EventKind::MessageRedelivered { service, operation } => {
            line.push_str(&format!(" {service}:{operation}"));
        }
        EventKind::MessageDelivered {
            service,
            operation,
            wait_nanos,
        } => {
            line.push_str(&format!(
                " {service}:{operation} wait={:.3}ms",
                *wait_nanos as f64 / 1e6
            ));
        }
        EventKind::FaultInjected { fault, operation } => {
            line.push_str(&format!(" {fault} on {operation}"));
        }
        EventKind::InstanceCrashed { point } => line.push_str(&format!(" at {point}")),
        EventKind::LeaseReclaimed { service, operation } => {
            line.push_str(&format!(" {service}:{operation}"));
        }
        EventKind::MessageDeadLettered {
            service,
            operation,
            reason,
        } => {
            line.push_str(&format!(" {service}:{operation} ({reason})"));
        }
        EventKind::MessageHeld {
            service,
            operation,
            watermark,
        } => {
            line.push_str(&format!(" {service}:{operation} wm={watermark}"));
        }
        EventKind::MessageReleased {
            service,
            operation,
            held_nanos,
        } => {
            line.push_str(&format!(
                " {service}:{operation} held={:.3}ms",
                *held_nanos as f64 / 1e6
            ));
        }
        EventKind::InstancesRespawned { service, count } => {
            line.push_str(&format!(" {count} x {service}"));
        }
        EventKind::OrphanResumed { via } => line.push_str(&format!(" via {via}")),
        EventKind::CallRetried { attempt } => {
            line.push_str(&format!(" attempt {attempt}"));
        }
        EventKind::FiberYield { reason } => line.push_str(&format!(" ({reason})")),
        EventKind::FiberPersisted { bytes } => line.push_str(&format!(" {bytes}B")),
        EventKind::FiberLoaded { cache_hit } => {
            line.push_str(if *cache_hit { " cache-hit" } else { " store" })
        }
        EventKind::FiberResumed { via } => line.push_str(&format!(" via {via}")),
        EventKind::FiberForked { child } => line.push_str(&format!(" -> {child}")),
        EventKind::AwakeSent { parent } => line.push_str(&format!(" -> {parent}")),
        EventKind::ServiceCallDispatched { target } => line.push_str(&format!(" -> {target}")),
        EventKind::TaskDone { outcome } => line.push_str(&format!(" {outcome}")),
        EventKind::VmSuspend { frames } => line.push_str(&format!(" {frames} frames")),
        _ => {}
    }
    if let Some(node) = e.node {
        line.push_str(&format!(" [node {node}]"));
    }
    if let Some(id) = e.message_id {
        line.push_str(&format!(" [msg {id}]"));
    }
    line
}

/// All tasks reconstructed from one event snapshot, plus the events
/// that could not be attached to any task.
#[derive(Debug, Clone, Default)]
pub struct TimelineSet {
    /// Per-task timelines, ordered by first appearance in the stream.
    pub tasks: Vec<TaskTimeline>,
    /// Task- or fiber-correlated events whose task never appeared in
    /// the workflow lifecycle (should be empty in a healthy run), plus
    /// events with no correlation at all.
    pub orphans: Vec<Event>,
}

impl TimelineSet {
    /// Build timelines from a bus snapshot (events already in seq
    /// order, as [`crate::EventBus::snapshot`] returns them).
    pub fn build(events: &[Event]) -> TimelineSet {
        struct TaskAcc {
            task: String,
            // fiber id → span index
            fibers: BTreeMap<String, usize>,
            spans: Vec<FiberSpan>,
            events: Vec<Event>,
            lifecycle_seen: bool,
        }
        let mut order: Vec<String> = Vec::new();
        let mut tasks: BTreeMap<String, TaskAcc> = BTreeMap::new();
        let mut unattached: Vec<Event> = Vec::new();

        let lifecycle = |kind: &EventKind| {
            !matches!(
                kind,
                EventKind::MessageSent { .. }
                    | EventKind::MessageDelivered { .. }
                    | EventKind::MessageRedelivered { .. }
                    | EventKind::FaultInjected { .. }
                    | EventKind::InstanceCrashed { .. }
                    | EventKind::LeaseReclaimed { .. }
                    | EventKind::MessageDeadLettered { .. }
                    | EventKind::MessageHeld { .. }
                    | EventKind::MessageReleased { .. }
            )
        };

        for e in events {
            let task_id = match &e.task {
                Some(t) => t.clone(),
                None => {
                    unattached.push(e.clone());
                    continue;
                }
            };
            let acc = tasks.entry(task_id.clone()).or_insert_with(|| {
                order.push(task_id.clone());
                TaskAcc {
                    task: task_id.clone(),
                    fibers: BTreeMap::new(),
                    spans: Vec::new(),
                    events: Vec::new(),
                    lifecycle_seen: false,
                }
            });
            if lifecycle(&e.kind) {
                acc.lifecycle_seen = true;
            }
            match &e.fiber {
                Some(fiber) => {
                    let idx = *acc.fibers.entry(fiber.clone()).or_insert_with(|| {
                        acc.spans.push(FiberSpan {
                            fiber: fiber.clone(),
                            parent: None,
                            children: Vec::new(),
                            events: Vec::new(),
                        });
                        acc.spans.len() - 1
                    });
                    acc.spans[idx].events.push(e.clone());
                    if let EventKind::FiberForked { child } = &e.kind {
                        let parent_fiber = fiber.clone();
                        acc.spans[idx].children.push(child.clone());
                        let child_idx =
                            *acc.fibers.entry(child.clone()).or_insert_with(|| {
                                acc.spans.push(FiberSpan {
                                    fiber: child.clone(),
                                    parent: None,
                                    children: Vec::new(),
                                    events: Vec::new(),
                                });
                                acc.spans.len() - 1
                            });
                        acc.spans[child_idx].parent = Some(parent_fiber);
                    }
                }
                None => acc.events.push(e.clone()),
            }
        }

        let mut set = TimelineSet::default();
        for task_id in order {
            let acc = tasks.remove(&task_id).expect("accumulated task");
            if acc.lifecycle_seen {
                set.tasks.push(TaskTimeline {
                    task: acc.task,
                    spans: acc.spans,
                    events: acc.events,
                });
            } else {
                // Broker events naming a task the workflow layer never
                // reported: orphans (a correlation bug).
                set.orphans
                    .extend(acc.events.into_iter().chain(
                        acc.spans.into_iter().flat_map(|s| s.events),
                    ));
            }
        }
        set.orphans.extend(unattached);
        set.orphans.sort_by_key(|e| e.seq);
        set
    }

    /// Timeline for one task, if present.
    pub fn task(&self, task: &str) -> Option<&TaskTimeline> {
        self.tasks.iter().find(|t| t.task == task)
    }

    /// Orphaned events that carry a task or fiber correlation — the
    /// ones that *should* have attached somewhere. Ambient broker
    /// traffic with no ids (e.g. admin messages) is excluded.
    pub fn correlated_orphans(&self) -> Vec<&Event> {
        self.orphans
            .iter()
            .filter(|e| e.task.is_some() || e.fiber.is_some())
            .collect()
    }

    /// Render every task's report, separated by blank lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::EventBus;

    fn emitted(bus: &EventBus) -> Vec<Event> {
        bus.snapshot()
    }

    #[test]
    fn fork_builds_parent_links() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f0"));
        bus.emit(|| {
            Event::new(EventKind::FiberForked {
                child: "task-1/f1".into(),
            })
            .fiber("task-1/f0")
        });
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f1"));
        bus.emit(|| Event::new(EventKind::FiberDone).fiber("task-1/f1"));
        bus.emit(|| Event::new(EventKind::TaskDone {
            outcome: "completed".into(),
        })
        .task("task-1"));

        let set = TimelineSet::build(&emitted(&bus));
        assert_eq!(set.tasks.len(), 1);
        assert!(set.orphans.is_empty());
        let t = set.task("task-1").unwrap();
        let child = t.span("task-1/f1").unwrap();
        assert_eq!(child.parent.as_deref(), Some("task-1/f0"));
        let root = t.span("task-1/f0").unwrap();
        assert_eq!(root.children, vec!["task-1/f1".to_string()]);
        let rendered = t.render();
        assert!(rendered.contains("task task-1"));
        assert!(rendered.contains("fiber task-1/f0"));
        // Child is indented deeper than its parent.
        let parent_line = rendered.lines().find(|l| l.ends_with("fiber task-1/f0")).unwrap();
        let child_line = rendered.lines().find(|l| l.ends_with("fiber task-1/f1")).unwrap();
        assert!(child_line.len() - child_line.trim_start().len()
            > parent_line.len() - parent_line.trim_start().len());
    }

    #[test]
    fn faults_attach_to_their_task() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f0"));
        bus.emit(|| {
            Event::new(EventKind::FaultInjected {
                fault: "drop".into(),
                operation: "RunFiber".into(),
            })
            .fiber("task-1/f0")
            .message(42)
        });
        let set = TimelineSet::build(&emitted(&bus));
        let t = set.task("task-1").unwrap();
        let faults = t.faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].message_id, Some(42));
        assert!(t.render().contains("drop on RunFiber"));
        assert!(t.render().contains("[msg 42]"));
        assert!(set.correlated_orphans().is_empty());
    }

    #[test]
    fn critical_path_walks_fork_service_wait_and_hold() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        // Root fiber forks a child; the child's RunFiber message is
        // parked on a durability watermark, then the child makes a
        // service call; its completion awakes the root.
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f0"));
        bus.emit(|| {
            Event::new(EventKind::FiberForked { child: "task-1/f1".into() })
                .fiber("task-1/f0")
        });
        bus.emit(|| {
            Event::new(EventKind::FiberYield { reason: "children".into() })
                .fiber("task-1/f0")
        });
        bus.emit(|| {
            Event::new(EventKind::MessageReleased {
                service: "workflow".into(),
                operation: "RunFiber".into(),
                held_nanos: 1,
            })
            .fiber("task-1/f1")
        });
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f1"));
        bus.emit(|| {
            Event::new(EventKind::ServiceCallDispatched { target: "maths:Square".into() })
                .fiber("task-1/f1")
        });
        bus.emit(|| {
            Event::new(EventKind::FiberResumed { via: "service-call".into() })
                .fiber("task-1/f1")
        });
        bus.emit(|| Event::new(EventKind::FiberDone).fiber("task-1/f1"));
        bus.emit(|| {
            Event::new(EventKind::FiberResumed { via: "awake".into() })
                .fiber("task-1/f0")
        });
        bus.emit(|| {
            Event::new(EventKind::TaskDone { outcome: "completed".into() })
                .fiber("task-1/f0")
        });

        let set = TimelineSet::build(&emitted(&bus));
        let t = set.task("task-1").unwrap();
        let cp = t.critical_path();
        let phases: Vec<Phase> = cp.segments.iter().map(|s| s.phase).collect();
        // Chronological: task start wait → root exec → fork wait (with
        // the hold split out) → child exec → service wait → child exec
        // → awake wait → root exec.
        assert_eq!(
            phases,
            vec![
                Phase::QueueWait,
                Phase::VmExec,
                Phase::DurabilityHold,
                Phase::QueueWait,
                Phase::VmExec,
                Phase::ServiceWait,
                Phase::VmExec,
                Phase::QueueWait,
                Phase::VmExec,
            ]
        );
        // Fiber attribution: the service wait belongs to the child.
        let sw = cp
            .segments
            .iter()
            .find(|s| s.phase == Phase::ServiceWait)
            .unwrap();
        assert_eq!(sw.fiber, "task-1/f1");
        assert!(cp.totals().get(Phase::DurabilityHold) > Duration::ZERO);
        // The rendered timeline carries the critical-path report.
        let rendered = t.render();
        assert!(rendered.contains("critical path:"), "{rendered}");
        assert!(rendered.contains("critical totals:"), "{rendered}");
        assert!(rendered.contains("service_wait"), "{rendered}");
    }

    #[test]
    fn critical_path_without_task_done_is_empty() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        bus.emit(|| Event::new(EventKind::TaskStarted).task("task-1"));
        bus.emit(|| Event::new(EventKind::FiberRun).fiber("task-1/f0"));
        let set = TimelineSet::build(&emitted(&bus));
        let cp = set.task("task-1").unwrap().critical_path();
        assert!(cp.segments.is_empty());
        assert_eq!(cp.total(), Duration::ZERO);
    }

    #[test]
    fn broker_only_tasks_are_orphans() {
        let bus = EventBus::new();
        bus.set_enabled(true);
        // A fault naming a task that never started: correlation bug.
        bus.emit(|| {
            Event::new(EventKind::FaultInjected {
                fault: "delay".into(),
                operation: "RunFiber".into(),
            })
            .task("task-9")
        });
        // Ambient traffic with no ids: orphan, but not "correlated".
        bus.emit(|| Event::new(EventKind::MessageSent {
            service: "admin".into(),
            operation: "Spawn".into(),
        }));
        let set = TimelineSet::build(&emitted(&bus));
        assert!(set.tasks.is_empty());
        assert_eq!(set.orphans.len(), 2);
        assert_eq!(set.correlated_orphans().len(), 1);
    }
}
