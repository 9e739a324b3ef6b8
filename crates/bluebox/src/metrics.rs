//! Cluster-wide counters used by the benchmark harnesses (§3.2, §5).
//!
//! Every field is a handle: the broker moves it, and the cluster's
//! [`gozer_obs::MetricsRegistry`] adopts a clone of it, so the text
//! exporter and a [`MetricsSnapshot`] read the same atomic. A latency
//! is one [`Histogram`], whose count and sum are the snapshot's
//! `*_count` / `*_nanos` pair.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gozer_obs::{Histogram, MetricsRegistry};

/// Monotonic counters and latency histograms; cheap enough to leave
/// always-on.
#[derive(Default)]
pub struct Metrics {
    /// Messages accepted by the broker.
    pub sent: Arc<AtomicU64>,
    /// Messages handed to an instance.
    pub delivered: Arc<AtomicU64>,
    /// Messages re-queued after a failed delivery.
    pub redelivered: Arc<AtomicU64>,
    /// Handler invocations that completed (reply routed or none needed).
    pub completed: Arc<AtomicU64>,
    /// Handler invocations that returned a fault.
    pub faults: Arc<AtomicU64>,
    /// Messages currently being processed.
    pub in_flight: Arc<AtomicU64>,
    /// High-water mark of `in_flight`.
    pub max_in_flight: Arc<AtomicU64>,
    /// Message queue wait (enqueue → delivery).
    pub wait: Arc<Histogram>,
    /// Time spent inside handlers.
    pub busy: Arc<Histogram>,
    /// Time instances spent blocked inside *synchronous* nested service
    /// calls — the wasted "request slot" time of §3.2.
    pub sync_block: Arc<Histogram>,
}

impl Metrics {
    pub(crate) fn enter_flight(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn exit_flight(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adopt every handle into `reg`.
    pub(crate) fn register(&self, reg: &MetricsRegistry) {
        for (name, help, handle) in [
            (
                "bluebox_messages_sent_total",
                "Messages accepted by the broker.",
                &self.sent,
            ),
            (
                "bluebox_messages_delivered_total",
                "Messages handed to an instance.",
                &self.delivered,
            ),
            (
                "bluebox_messages_redelivered_total",
                "Messages re-queued after a failed delivery.",
                &self.redelivered,
            ),
            (
                "bluebox_handler_completions_total",
                "Handler invocations that completed.",
                &self.completed,
            ),
            (
                "bluebox_handler_faults_total",
                "Handler invocations that returned a fault.",
                &self.faults,
            ),
        ] {
            reg.counter(name, help, "", handle);
        }
        reg.gauge(
            "bluebox_messages_in_flight",
            "Messages currently being processed.",
            "",
            &self.in_flight,
        );
        reg.gauge(
            "bluebox_messages_in_flight_peak",
            "High-water mark of in-flight messages.",
            "",
            &self.max_in_flight,
        );
        for (name, help, handle) in [
            (
                "bluebox_queue_wait_seconds",
                "Message queue wait, enqueue to delivery.",
                &self.wait,
            ),
            (
                "bluebox_handler_busy_seconds",
                "Time spent inside handlers.",
                &self.busy,
            ),
            (
                "bluebox_sync_block_seconds",
                "Caller block time of synchronous nested calls.",
                &self.sync_block,
            ),
        ] {
            reg.histogram(name, help, "", handle);
        }
    }

    /// Point-in-time copy for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (wait, busy, sync_block) = (
            self.wait.snapshot(),
            self.busy.snapshot(),
            self.sync_block.snapshot(),
        );
        MetricsSnapshot {
            sent: load(&self.sent),
            delivered: load(&self.delivered),
            redelivered: load(&self.redelivered),
            completed: load(&self.completed),
            faults: load(&self.faults),
            busy_nanos: busy.sum_nanos,
            busy_count: busy.count,
            wait_nanos: wait.sum_nanos,
            wait_count: wait.count,
            sync_block_nanos: sync_block.sum_nanos,
            sync_block_count: sync_block.count,
            max_in_flight: load(&self.max_in_flight),
        }
    }
}

/// A copied-out view of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// See [`Metrics::sent`].
    pub sent: u64,
    /// See [`Metrics::delivered`].
    pub delivered: u64,
    /// See [`Metrics::redelivered`].
    pub redelivered: u64,
    /// See [`Metrics::completed`].
    pub completed: u64,
    /// See [`Metrics::faults`].
    pub faults: u64,
    /// Total time spent inside handlers ([`Metrics::busy`]'s sum).
    pub busy_nanos: u64,
    /// Handler invocations behind `busy_nanos`.
    pub busy_count: u64,
    /// Total queue wait ([`Metrics::wait`]'s sum).
    pub wait_nanos: u64,
    /// Deliveries behind `wait_nanos`.
    pub wait_count: u64,
    /// Total synchronous-call block time ([`Metrics::sync_block`]'s sum).
    pub sync_block_nanos: u64,
    /// Synchronous calls behind `sync_block_nanos`.
    pub sync_block_count: u64,
    /// See [`Metrics::max_in_flight`].
    pub max_in_flight: u64,
}

/// Counters of the TCP transport layer (see [`crate::tcp`]): framing
/// traffic, connection churn, and the settle disambiguation outcomes
/// the exactly-once tests assert on. Kept separate from [`Metrics`]
/// because in-process instances have nothing to report; a
/// [`crate::TcpBroker`] adopts its handles into the cluster's registry
/// when it starts.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Frames written to sockets.
    pub frames_sent: Arc<AtomicU64>,
    /// Frames successfully decoded off sockets.
    pub frames_received: Arc<AtomicU64>,
    /// Bytes written to sockets (frame headers included).
    pub bytes_sent: Arc<AtomicU64>,
    /// Frames that failed to decode (bad CRC, bad tag, oversized,
    /// torn) — each one is connection-fatal.
    pub decode_errors: Arc<AtomicU64>,
    /// Worker connections accepted (handshake completed).
    pub worker_connects: Arc<AtomicU64>,
    /// Worker connections lost or closed.
    pub worker_disconnects: Arc<AtomicU64>,
    /// Deliveries forwarded to remote workers.
    pub remote_deliveries: Arc<AtomicU64>,
    /// Settles applied (the proxy still owned the lease).
    pub remote_settles: Arc<AtomicU64>,
    /// Settles discarded because the lease was already reclaimed or
    /// the delivery superseded — the double-effect guard firing.
    pub duplicate_settles: Arc<AtomicU64>,
    /// Heartbeat frames received from workers.
    pub heartbeats: Arc<AtomicU64>,
}

impl TransportMetrics {
    /// Adopt every handle into `reg`.
    pub(crate) fn register(&self, reg: &MetricsRegistry) {
        for (name, help, handle) in [
            (
                "bluebox_tcp_frames_sent_total",
                "Frames written to worker sockets.",
                &self.frames_sent,
            ),
            (
                "bluebox_tcp_frames_received_total",
                "Frames decoded off worker sockets.",
                &self.frames_received,
            ),
            (
                "bluebox_tcp_bytes_sent_total",
                "Bytes written to worker sockets.",
                &self.bytes_sent,
            ),
            (
                "bluebox_tcp_decode_errors_total",
                "Frames that failed to decode (each one is connection-fatal).",
                &self.decode_errors,
            ),
            (
                "bluebox_tcp_worker_connects_total",
                "Worker connections accepted.",
                &self.worker_connects,
            ),
            (
                "bluebox_tcp_worker_disconnects_total",
                "Worker connections lost or closed.",
                &self.worker_disconnects,
            ),
            (
                "bluebox_tcp_remote_deliveries_total",
                "Deliveries forwarded to remote workers.",
                &self.remote_deliveries,
            ),
            (
                "bluebox_tcp_remote_settles_total",
                "Remote settles applied to a live lease.",
                &self.remote_settles,
            ),
            (
                "bluebox_tcp_duplicate_settles_total",
                "Remote settles discarded because the lease was already reclaimed or superseded.",
                &self.duplicate_settles,
            ),
            (
                "bluebox_tcp_heartbeats_total",
                "Heartbeat frames received from workers.",
                &self.heartbeats,
            ),
        ] {
            reg.counter(name, help, "", handle);
        }
    }

    /// Point-in-time copy for reporting.
    pub fn snapshot(&self) -> TransportMetricsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        TransportMetricsSnapshot {
            frames_sent: load(&self.frames_sent),
            frames_received: load(&self.frames_received),
            bytes_sent: load(&self.bytes_sent),
            decode_errors: load(&self.decode_errors),
            worker_connects: load(&self.worker_connects),
            worker_disconnects: load(&self.worker_disconnects),
            remote_deliveries: load(&self.remote_deliveries),
            remote_settles: load(&self.remote_settles),
            duplicate_settles: load(&self.duplicate_settles),
            heartbeats: load(&self.heartbeats),
        }
    }
}

/// A copied-out view of [`TransportMetrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportMetricsSnapshot {
    /// See [`TransportMetrics::frames_sent`].
    pub frames_sent: u64,
    /// See [`TransportMetrics::frames_received`].
    pub frames_received: u64,
    /// See [`TransportMetrics::bytes_sent`].
    pub bytes_sent: u64,
    /// See [`TransportMetrics::decode_errors`].
    pub decode_errors: u64,
    /// See [`TransportMetrics::worker_connects`].
    pub worker_connects: u64,
    /// See [`TransportMetrics::worker_disconnects`].
    pub worker_disconnects: u64,
    /// See [`TransportMetrics::remote_deliveries`].
    pub remote_deliveries: u64,
    /// See [`TransportMetrics::remote_settles`].
    pub remote_settles: u64,
    /// See [`TransportMetrics::duplicate_settles`].
    pub duplicate_settles: u64,
    /// See [`TransportMetrics::heartbeats`].
    pub heartbeats: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn flight_tracking() {
        let m = Metrics::default();
        m.enter_flight();
        m.enter_flight();
        m.exit_flight();
        m.enter_flight();
        let s = m.snapshot();
        assert_eq!(s.max_in_flight, 2);
    }

    /// A latency pair is its histogram's count and sum: no mean before
    /// the first observation, the exact one after.
    #[test]
    fn means_need_counts() {
        let m = Metrics::default();
        assert_eq!(m.wait.snapshot().mean(), None);
        m.wait.observe_nanos(1_000);
        m.wait.observe_nanos(2_000);
        let s = m.snapshot();
        assert_eq!((s.wait_count, s.wait_nanos), (2, 3_000));
        assert_eq!(m.wait.snapshot().mean(), Some(Duration::from_nanos(1_500)));
    }

    /// The registry reads the handles the broker moves, so two of its
    /// snapshots diff into the interval between them.
    #[test]
    fn snapshot_diff_isolates_interval() {
        let m = Metrics::default();
        let reg = MetricsRegistry::new();
        m.register(&reg);
        m.busy.observe_nanos(10_000);
        m.completed.fetch_add(1, Ordering::Relaxed);
        let before = reg.snapshot();
        m.busy.observe_nanos(2_000);
        m.busy.observe_nanos(4_000);
        m.completed.fetch_add(2, Ordering::Relaxed);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("bluebox_handler_completions_total"), Some(2));
        let busy = delta.histogram("bluebox_handler_busy_seconds").unwrap();
        assert_eq!(busy.count, 2);
        assert_eq!(busy.mean(), Some(Duration::from_nanos(3_000)));
    }
}
