#![warn(missing_docs)]

//! # gozer-obs
//!
//! The observability layer of the Gozer reproduction: one structured
//! event stream and one metrics registry shared by every layer of the
//! system.
//!
//! Three pieces:
//!
//! * [`EventBus`] — a lock-cheap, per-node-sharded ring buffer of
//!   structured [`Event`]s. Both the broker (BlueBox) and the workflow
//!   layer (Vinz) emit into the same bus, with correlated ids
//!   (`task_id` / `fiber_id` / `message_id` / `node_id`), so a broker
//!   fault and the fiber it displaced appear in one causal stream.
//! * [`span`] — reconstructs a task's lifetime as a span *tree*
//!   (Start → RunFiber → Yield/Persist → migrate → Resume → TaskDone,
//!   with forked children as child spans and injected chaos faults
//!   attached where they struck), and renders the Figure-1-style
//!   per-task timeline.
//! * [`MetricsRegistry`] — counters, gauges and fixed-log-bucket
//!   [`Histogram`]s with a Prometheus-style text exporter
//!   ([`MetricsRegistry::render_text`]) and a point-in-time
//!   [`Snapshot`] diff API consumed by `gozer-bench`.
//!
//! The [`Obs`] struct bundles one bus and one registry; a cluster owns
//! exactly one and hands it to every subsystem.

pub mod bus;
pub mod event;
pub mod flight;
pub mod introspect;
pub mod metrics;
pub mod phase;
pub mod span;

pub use bus::EventBus;
pub use event::{task_of, Event, EventKind};
pub use flight::{FlightDump, FlightRecorder};
pub use introspect::{HealthReport, IntrospectServer, IntrospectSource, TaskSummary};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, SampleSnapshot, Snapshot};
pub use phase::{Phase, PhaseBreakdown, PHASE_COUNT};
pub use span::{CriticalPath, CriticalSegment, FiberSpan, TaskTimeline, TimelineSet};

/// One bus + one registry + one flight recorder: the observability
/// handle a cluster owns and every layer (broker, workflow service, VM
/// hooks) emits into.
pub struct Obs {
    /// The structured event stream (disabled by default; enabling it is
    /// what "tracing" means post-unification).
    pub bus: EventBus,
    /// The metrics registry (always on; counters are cheap).
    pub registry: MetricsRegistry,
    /// The crash black box (unarmed by default).
    pub flight: FlightRecorder,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

impl Obs {
    /// Fresh bus + registry + recorder. The registry adopts the bus's
    /// drop counter as `gozer_events_dropped_total`, so ring overflow
    /// is visible to scrapes.
    pub fn new() -> Obs {
        let obs = Obs {
            bus: EventBus::new(),
            registry: MetricsRegistry::new(),
            flight: FlightRecorder::new(),
        };
        obs.adopt_dropped();
        obs
    }

    fn adopt_dropped(&self) {
        self.registry.counter(
            "gozer_events_dropped_total",
            "Events evicted from the bus ring by overflow.",
            "",
            self.bus.dropped_handle(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden check for the dropped-events family: zero when healthy,
    /// and counting once the ring overflows.
    #[test]
    fn exporter_surfaces_dropped_events_counter() {
        let obs = Obs::new();
        let text = obs.registry.render_text();
        assert!(text.contains("# TYPE gozer_events_dropped_total counter"));
        assert!(text.contains("\ngozer_events_dropped_total 0\n"));

        // Overflow a tiny ring and watch the adopted counter move.
        let obs = Obs {
            bus: EventBus::with_capacity(2),
            ..Obs::new()
        };
        // `new()` adopted the counter of the bus it built; adopt the
        // replacement's.
        obs.adopt_dropped();
        obs.bus.set_enabled(true);
        for _ in 0..5 {
            obs.bus.emit(|| Event::new(EventKind::FiberRun).node(0));
        }
        assert_eq!(obs.bus.dropped(), 3);
        assert!(obs
            .registry
            .render_text()
            .contains("\ngozer_events_dropped_total 3\n"));
    }
}
