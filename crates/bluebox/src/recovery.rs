//! Lease-based failure detection and dead-letter quarantine.
//!
//! Every message an instance pops is recorded in a cluster-wide lease
//! table; instances heartbeat on every queue interaction. A background
//! reaper thread (one per cluster) watches the table: when a lease's
//! holder dies — or stops heartbeating for longer than the lease TTL —
//! the message is *reclaimed*: re-queued at the front with its
//! redelivery count bumped, after an exponential backoff derived from
//! that count. A message that exhausts its redelivery budget is not
//! re-queued again; it moves to the per-queue dead-letter store, where
//! registered observers (the Vinz supervisor) can translate it into a
//! terminal task failure.
//!
//! This replaces the old crash behaviour, where a dying instance pushed
//! its message back itself: a real crashed process cannot do that, and
//! the paper's §3.1 survivability claim rests on the *broker* noticing
//! the failure. The queue lease stays held during the whole detection +
//! backoff window, so `drain`/`wait_idle` still mean "nothing left in
//! flight".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::message::Message;

/// Tunables for the lease reaper. Installed per cluster via
/// [`crate::Cluster::set_recovery`]; the defaults suit the test suites
/// (sub-second detection, generous budget).
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// How long a live instance may go without heartbeating before its
    /// leases are considered expired. Dead instances (crashed threads)
    /// are detected immediately, independent of this bound; the TTL
    /// only catches wedged-but-alive holders, so it defaults high.
    pub lease_ttl: Duration,
    /// Reaper scan cadence: the detection latency floor.
    pub scan_interval: Duration,
    /// Redeliveries allowed before a message is dead-lettered.
    pub redelivery_budget: u32,
    /// Base of the exponential reclaim backoff (doubled per
    /// redelivery already on the message).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            lease_ttl: Duration::from_secs(30),
            scan_interval: Duration::from_millis(5),
            redelivery_budget: 16,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(250),
        }
    }
}

impl RecoveryConfig {
    /// Exponential backoff before the `n`-th redelivery, capped at
    /// [`backoff_max`](RecoveryConfig::backoff_max).
    pub fn backoff_for(&self, redeliveries: u32) -> Duration {
        let factor = 1u32.checked_shl(redeliveries.min(16)).unwrap_or(u32::MAX);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_max)
    }
}

/// One outstanding lease: a message popped by an instance and not yet
/// settled. Keyed by broker message id in the cluster's lease table.
pub(crate) struct Lease {
    /// The leased message, shared with its holder, so a crashed
    /// holder's delivery can be re-queued verbatim (same broker id —
    /// idempotency keys survive) without a copy per delivery.
    pub msg: Arc<Message>,
    /// Destination service (names the queue to reclaim into), shared
    /// by every lease its instance takes.
    pub service: Arc<str>,
    /// Holding instance.
    pub instance: u64,
    /// When the holder took the message: the lease's own TTL runs from
    /// here, whatever its holder's heartbeat says.
    pub taken: Instant,
}

/// A reclaimed message sitting out its backoff before re-queueing. The
/// queue lease stays held the whole time.
pub(crate) struct PendingReclaim {
    pub due: Instant,
    pub service: Arc<str>,
    pub msg: Message,
}

/// A quarantined message: it exhausted its redelivery budget and will
/// never be delivered again.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    /// The message, redelivery count included.
    pub msg: Message,
    /// The service whose queue it was quarantined from.
    pub service: String,
    /// Why it was quarantined.
    pub reason: String,
}

/// Monotonic recovery counters, adopted by the metrics registry as
/// `bluebox_lease_reclaims_total` / `gozer_dead_letters_total`.
#[derive(Debug, Default)]
pub struct RecoveryStats {
    /// Leases reclaimed from dead or stale holders.
    pub reclaims: Arc<AtomicU64>,
    /// Messages moved to the dead-letter store.
    pub dead_letters: Arc<AtomicU64>,
}

impl RecoveryStats {
    /// Point-in-time copy.
    pub fn snapshot(&self) -> RecoveryStatsSnapshot {
        RecoveryStatsSnapshot {
            reclaims: self.reclaims.load(Ordering::Relaxed),
            dead_letters: self.dead_letters.load(Ordering::Relaxed),
        }
    }
}

/// A copied-out view of [`RecoveryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStatsSnapshot {
    /// See [`RecoveryStats::reclaims`].
    pub reclaims: u64,
    /// See [`RecoveryStats::dead_letters`].
    pub dead_letters: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let cfg = RecoveryConfig {
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(100),
            ..RecoveryConfig::default()
        };
        assert_eq!(cfg.backoff_for(0), Duration::from_millis(2));
        assert_eq!(cfg.backoff_for(1), Duration::from_millis(4));
        assert_eq!(cfg.backoff_for(3), Duration::from_millis(16));
        assert_eq!(cfg.backoff_for(10), Duration::from_millis(100));
        // No overflow at absurd counts.
        assert_eq!(cfg.backoff_for(u32::MAX), Duration::from_millis(100));
    }
}
