//! Cluster-wide counters used by the benchmark harnesses (§3.2, §5).
//!
//! Each latency sum (`busy_nanos`, `wait_nanos`, `sync_block_nanos`)
//! carries a paired observation count, so a mean is computable from any
//! [`MetricsSnapshot`] — and two snapshots [`diff`](MetricsSnapshot::diff)
//! into an interval view. The same atomics are mirrored into the
//! cluster's [`gozer_obs::MetricsRegistry`] as closure-backed samples,
//! so the text exporter and these counters can never disagree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic counters; cheap enough to leave always-on.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Messages accepted by the broker.
    pub sent: AtomicU64,
    /// Messages handed to an instance.
    pub delivered: AtomicU64,
    /// Messages re-queued after a failed delivery.
    pub redelivered: AtomicU64,
    /// Handler invocations that completed (reply routed or none needed).
    pub completed: AtomicU64,
    /// Handler invocations that returned a fault.
    pub faults: AtomicU64,
    /// Total time spent inside handlers.
    pub busy_nanos: AtomicU64,
    /// Number of handler invocations contributing to `busy_nanos`.
    pub busy_count: AtomicU64,
    /// Total message queue-wait time (enqueue → delivery).
    pub wait_nanos: AtomicU64,
    /// Number of deliveries contributing to `wait_nanos`.
    pub wait_count: AtomicU64,
    /// Time instances spent blocked inside *synchronous* nested service
    /// calls — the wasted "request slot" time of §3.2.
    pub sync_block_nanos: AtomicU64,
    /// Number of synchronous calls contributing to `sync_block_nanos`.
    pub sync_block_count: AtomicU64,
    /// Messages currently being processed.
    pub in_flight: AtomicU64,
    /// High-water mark of `in_flight`.
    pub max_in_flight: AtomicU64,
}

impl Metrics {
    pub(crate) fn add(&self, counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    pub(crate) fn enter_flight(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    pub(crate) fn exit_flight(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Mean queue wait per delivery, or `None` before any delivery.
    pub fn mean_wait(&self) -> Option<Duration> {
        self.snapshot().mean_wait()
    }

    /// Mean handler busy time, or `None` before any invocation.
    pub fn mean_busy(&self) -> Option<Duration> {
        self.snapshot().mean_busy()
    }

    /// Mean synchronous-call block time, or `None` before any call.
    pub fn mean_sync_block(&self) -> Option<Duration> {
        self.snapshot().mean_sync_block()
    }

    /// Point-in-time copy for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            sent: self.sent.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            redelivered: self.redelivered.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            busy_count: self.busy_count.load(Ordering::Relaxed),
            wait_nanos: self.wait_nanos.load(Ordering::Relaxed),
            wait_count: self.wait_count.load(Ordering::Relaxed),
            sync_block_nanos: self.sync_block_nanos.load(Ordering::Relaxed),
            sync_block_count: self.sync_block_count.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
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
    /// See [`Metrics::busy_nanos`].
    pub busy_nanos: u64,
    /// See [`Metrics::busy_count`].
    pub busy_count: u64,
    /// See [`Metrics::wait_nanos`].
    pub wait_nanos: u64,
    /// See [`Metrics::wait_count`].
    pub wait_count: u64,
    /// See [`Metrics::sync_block_nanos`].
    pub sync_block_nanos: u64,
    /// See [`Metrics::sync_block_count`].
    pub sync_block_count: u64,
    /// See [`Metrics::max_in_flight`].
    pub max_in_flight: u64,
}

impl MetricsSnapshot {
    fn mean_of(nanos: u64, count: u64) -> Option<Duration> {
        nanos.checked_div(count).map(Duration::from_nanos)
    }

    /// Mean queue wait per delivery, or `None` with zero deliveries.
    pub fn mean_wait(&self) -> Option<Duration> {
        Self::mean_of(self.wait_nanos, self.wait_count)
    }

    /// Mean handler busy time, or `None` with zero invocations.
    pub fn mean_busy(&self) -> Option<Duration> {
        Self::mean_of(self.busy_nanos, self.busy_count)
    }

    /// Mean synchronous-call block time, or `None` with zero calls.
    pub fn mean_sync_block(&self) -> Option<Duration> {
        Self::mean_of(self.sync_block_nanos, self.sync_block_count)
    }

    /// This snapshot minus an `earlier` one (saturating): counters and
    /// latency pairs become interval deltas. `max_in_flight` keeps the
    /// later high-water mark (it is not a counter).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            sent: self.sent.saturating_sub(earlier.sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            redelivered: self.redelivered.saturating_sub(earlier.redelivered),
            completed: self.completed.saturating_sub(earlier.completed),
            faults: self.faults.saturating_sub(earlier.faults),
            busy_nanos: self.busy_nanos.saturating_sub(earlier.busy_nanos),
            busy_count: self.busy_count.saturating_sub(earlier.busy_count),
            wait_nanos: self.wait_nanos.saturating_sub(earlier.wait_nanos),
            wait_count: self.wait_count.saturating_sub(earlier.wait_count),
            sync_block_nanos: self.sync_block_nanos.saturating_sub(earlier.sync_block_nanos),
            sync_block_count: self.sync_block_count.saturating_sub(earlier.sync_block_count),
            max_in_flight: self.max_in_flight,
        }
    }
}

/// Counters of the TCP transport layer (see [`crate::tcp`]): framing
/// traffic, connection churn, and the settle disambiguation outcomes
/// the exactly-once tests assert on. Kept separate from [`Metrics`] —
/// in-process instances have nothing to report, and embedders
/// snapshot the broker counters by value.
#[derive(Debug, Default)]
pub struct TransportMetrics {
    /// Frames written to sockets.
    pub frames_sent: AtomicU64,
    /// Frames successfully decoded off sockets.
    pub frames_received: AtomicU64,
    /// Bytes written to sockets (frame headers included).
    pub bytes_sent: AtomicU64,
    /// Frames that failed to decode (bad CRC, bad tag, oversized,
    /// torn) — each one is connection-fatal.
    pub decode_errors: AtomicU64,
    /// Worker connections accepted (handshake completed).
    pub worker_connects: AtomicU64,
    /// Worker connections lost or closed.
    pub worker_disconnects: AtomicU64,
    /// Deliveries forwarded to remote workers.
    pub remote_deliveries: AtomicU64,
    /// Settles applied (the proxy still owned the lease).
    pub remote_settles: AtomicU64,
    /// Settles discarded because the lease was already reclaimed or
    /// the delivery superseded — the double-effect guard firing.
    pub duplicate_settles: AtomicU64,
    /// Heartbeat frames received from workers.
    pub heartbeats: AtomicU64,
}

impl TransportMetrics {
    /// Point-in-time copy for reporting.
    pub fn snapshot(&self) -> TransportMetricsSnapshot {
        TransportMetricsSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            worker_connects: self.worker_connects.load(Ordering::Relaxed),
            worker_disconnects: self.worker_disconnects.load(Ordering::Relaxed),
            remote_deliveries: self.remote_deliveries.load(Ordering::Relaxed),
            remote_settles: self.remote_settles.load(Ordering::Relaxed),
            duplicate_settles: self.duplicate_settles.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
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

    #[test]
    fn means_need_counts() {
        let m = Metrics::default();
        assert_eq!(m.mean_wait(), None);
        m.add(&m.wait_nanos, 3_000);
        m.add(&m.wait_count, 2);
        assert_eq!(m.mean_wait(), Some(Duration::from_nanos(1_500)));
    }

    #[test]
    fn snapshot_diff_isolates_interval() {
        let m = Metrics::default();
        m.add(&m.busy_nanos, 10_000);
        m.add(&m.busy_count, 1);
        let before = m.snapshot();
        m.add(&m.busy_nanos, 2_000);
        m.add(&m.busy_count, 1);
        m.add(&m.busy_nanos, 4_000);
        m.add(&m.busy_count, 1);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.busy_count, 2);
        assert_eq!(delta.mean_busy(), Some(Duration::from_nanos(3_000)));
    }
}
