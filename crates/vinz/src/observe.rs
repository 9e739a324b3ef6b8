//! How a deployment is seen from outside: the [`WorkflowObs`] handle,
//! the Vinz counters adopted by the metrics registry, the live
//! introspection source, the merged profile and the flight dump.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use gozer_obs::{
    Event, FlightDump, FlightRecorder, HealthReport, IntrospectSource, Obs, Phase, Snapshot,
    TaskSummary, TimelineSet,
};
use gozer_vm::{ProfileReport, SerialCostSnapshot};

use crate::service::{Inner, VinzMetrics, ADMIN_NODE};
use crate::tracker::{TaskStatus, TaskTracker};

/// The observability view of a deployed workflow service, returned by
/// [`WorkflowService::obs`]: tracing toggle, correlated event stream,
/// span-tree timelines, Vinz counters, the task tracker, and the
/// cluster-wide Prometheus-style text exporter.
///
/// [`WorkflowService::obs`]: crate::WorkflowService::obs
#[derive(Clone)]
pub struct WorkflowObs {
    pub(crate) inner: Arc<Inner>,
}

impl WorkflowObs {
    /// Toggle event collection on the shared cluster bus: broker,
    /// workflow and VM events all start or stop together.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.bus.set_enabled(on);
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
    /// unless the deployment enabled [`VinzConfig::profiling`];
    /// continuation costs are tracked always.
    ///
    /// [`VinzConfig::profiling`]: crate::VinzConfig::profiling
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

impl Inner {
    /// Merge every node VM's profiler snapshot into one
    /// [`ProfileReport`] and fill in the continuation costs from the
    /// save/load counters. The admin runtime is skipped (it never
    /// executes workflow fibers, and its profiler is never enabled).
    pub(crate) fn profile_report(&self) -> ProfileReport {
        let mut report = ProfileReport::default();
        for rt in self.nodes.read().values() {
            if rt.node_id != ADMIN_NODE {
                report.merge(&rt.gvm.profiler().snapshot());
            }
        }
        let m = &self.metrics;
        let load = |handle: &AtomicU64| handle.load(Ordering::Relaxed);
        let min = load(&m.min_serialize_nanos);
        report.serial = SerialCostSnapshot {
            serialize_count: load(&m.persist_count),
            serialize_bytes: load(&m.persist_bytes),
            serialize_nanos: load(&m.serialize_nanos),
            min_serialize_nanos: (min > 0).then_some(min),
            deserialize_count: load(&m.deserialize_count),
            deserialize_bytes: load(&m.deserialize_bytes),
            deserialize_nanos: load(&m.deserialize_nanos),
            seed_frames_reused: load(&m.seed_frames_reused),
            seed_frames_walked: load(&m.seed_frames_walked),
        };
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
            profile: self.config.profiling.then(|| {
                let report = self.profile_report();
                (report.render(20), report.folded_stacks())
            }),
            events,
        }
    }

    /// Adopt the deployment's handles into the cluster registry,
    /// labelled by service so multiple deployments on one cluster stay
    /// distinguishable. The whole (closed) phase family is registered
    /// up front, so a scrape sees every label from the first sample on
    /// and the label space is provably bounded: `PHASE_COUNT` phases
    /// per service.
    pub(crate) fn register_metrics(&self) {
        let labels = format!("service=\"{}\"", self.name);
        let reg = &self.obs.registry;
        let m = &self.metrics;
        for (name, help, handle) in [
            (
                "vinz_tasks_started_total",
                "Tasks started.",
                &m.tasks_started,
            ),
            (
                "vinz_fibers_run_total",
                "RunFiber executions.",
                &m.fibers_run,
            ),
            (
                "vinz_resumes_total",
                "Fiber resumptions (AwakeFiber + ResumeFromCall + JoinProcess).",
                &m.resumes,
            ),
            (
                "vinz_awake_retries_total",
                "AwakeFiber lock-wait give-ups.",
                &m.awake_retries,
            ),
            (
                "vinz_fiber_persists_total",
                "Fiber states persisted.",
                &m.persist_count,
            ),
            (
                "vinz_fiber_persist_bytes_total",
                "Bytes of persisted (compressed) fiber state.",
                &m.persist_bytes,
            ),
            (
                "vinz_fiber_store_loads_total",
                "Fiber loads served by the store (cache misses).",
                &m.load_count,
            ),
            (
                "vinz_taskvar_cache_hits_total",
                "Task-variable reads served by the node cache.",
                &m.taskvar_hits,
            ),
            (
                "vinz_taskvar_cache_misses_total",
                "Task-variable reads served by the store.",
                &m.taskvar_misses,
            ),
            (
                "vinz_supervisor_respawns_total",
                "Dead deployments re-provisioned by the supervisor.",
                &m.supervisor_respawns,
            ),
            (
                "vinz_orphans_resumed_total",
                "Orphaned continuations resumed by the supervisor.",
                &m.orphans_resumed,
            ),
            (
                "vinz_calls_retried_total",
                "Async service calls re-dispatched by the retry policy.",
                &m.calls_retried,
            ),
            (
                "vinz_tasks_dead_lettered_total",
                "Tasks terminally failed by dead-lettered messages.",
                &m.tasks_dead_lettered,
            ),
            (
                "gozer_snapshot_delta_bytes_total",
                "Bytes of persisted delta snapshot records.",
                &m.delta_bytes,
            ),
            (
                "gozer_snapshot_full_bytes_total",
                "Bytes of persisted full snapshot records.",
                &m.full_bytes,
            ),
            (
                "gozer_snapshot_delta_saves_total",
                "Fiber saves persisted as delta snapshots.",
                &m.delta_saves,
            ),
            (
                "gozer_admission_rejected_total",
                "Starts shed by the admission gate.",
                &m.admission_rejected,
            ),
            (
                "gozer_admission_delayed_total",
                "Starts delayed by the admission gate before a decision.",
                &m.admission_delayed,
            ),
        ] {
            reg.counter(name, help, &labels, handle);
        }
        // The live twin of the benchmark's `serial.ser_delta_us`: a delta
        // costs what it walks, so `walked` creeping up on `reused` means
        // the seed cache stopped hitting.
        for (source, handle) in [
            ("reused", &m.seed_frames_reused),
            ("walked", &m.seed_frames_walked),
        ] {
            reg.counter(
                "gozer_snapshot_seed_frames_total",
                "Clean frames behind delta saves and loads, by where their seeding tables came from.",
                &format!("source=\"{source}\",{labels}"),
                handle,
            );
        }
        reg.gauge(
            "gozer_suspended_fibers",
            "Fibers currently suspended with a persisted continuation.",
            &labels,
            &m.suspended_fibers,
        );
        reg.histogram(
            "gozer_task_latency_seconds",
            "Start→complete task latency.",
            &labels,
            &self.tracker.latency,
        );
        for (p, hist) in Phase::ALL.iter().zip(&self.tracker.phase_hists) {
            reg.histogram(
                "gozer_task_phase_seconds",
                "Per-phase share of task wall-clock (latency attribution).",
                &format!("phase=\"{}\",{labels}", p.as_str()),
                hist,
            );
        }
    }
}

/// The workflow layer behind the live introspection endpoint:
/// everything is reached through a `Weak` so an open scrape cannot keep
/// a dropped deployment alive — requests after teardown degrade to
/// empty bodies and a `degraded` health verdict.
pub(crate) struct VinzIntrospect {
    pub(crate) inner: Weak<Inner>,
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
        let tcp = inner.cluster.tcp_broker();
        let (transport, transport_up) = match &tcp {
            Some(broker) => ("tcp", broker.alive()),
            None => ("in-process", true),
        };
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
                format!("{transport} ({})", if transport_up { "up" } else { "down" }),
            ),
            ("cluster".into(), if shutdown { "shutdown" } else { "up" }.into()),
        ];
        if let Some(broker) = &tcp {
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
