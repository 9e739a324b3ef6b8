//! The cluster's clock: what every timeout decision reads.
//!
//! A lease's start, an instance's heartbeat, a delayed send's due time,
//! the reaper's scan, and the workflow layer's stall, call-timeout and
//! join deadlines all stamp and compare instants from the one
//! [`Clock`] their cluster holds ([`crate::Cluster::clock`]). The real
//! clock is `Instant::now()`. A manual clock stands still until a test
//! moves it with [`Clock::advance`], so a test reaches a 30 s lease
//! expiry by advancing 30 s, not by sleeping or by shrinking the TTL.
//!
//! Code that *measures* elapsed time (queue wait, busy time, phase
//! ledgers, store latency) and blocking waits (queue pops, condvars,
//! socket timeouts) stay on `Instant` and real time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A source of "now" for deadline decisions: real, or manual (tests).
/// Clones share one time line.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    /// A manual clock's base instant and its offset from it, in nanos.
    manual: Option<Arc<(Instant, AtomicU64)>>,
}

impl Clock {
    /// The real clock: `now()` is `Instant::now()`.
    pub fn real() -> Clock {
        Clock::default()
    }

    /// A manual clock: `now()` stays put until [`Clock::advance`].
    pub fn manual() -> Clock {
        let manual = Some(Arc::new((Instant::now(), AtomicU64::new(0))));
        Clock { manual }
    }

    /// The current instant on this clock.
    #[inline]
    pub fn now(&self) -> Instant {
        match &self.manual {
            None => Instant::now(),
            Some(m) => m.0 + Duration::from_nanos(m.1.load(Ordering::Acquire)),
        }
    }

    /// Move a manual clock forward by `by`.
    ///
    /// # Panics
    ///
    /// On the real clock, which only time moves.
    pub fn advance(&self, by: Duration) {
        let m = self.manual.as_ref().expect("only a manual clock can be advanced");
        m.1.fetch_add(by.as_nanos() as u64, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_manual_clock_moves_only_when_advanced_and_clones_share_it() {
        let clock = Clock::manual();
        let t0 = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(clock.now(), t0);
        let shared = clock.clone();
        shared.advance(Duration::from_secs(600));
        assert_eq!(clock.now() - t0, Duration::from_secs(600));
    }

    #[test]
    #[should_panic(expected = "only a manual clock")]
    fn the_real_clock_cannot_be_advanced() {
        Clock::real().advance(Duration::from_secs(1));
    }
}
