//! The task latency phase model: a **closed** set of named phases that
//! every nanosecond of a task's wall-clock is attributed to.
//!
//! The enum being closed is the cardinality guard for the
//! `gozer_task_phase_seconds{phase=...}` histogram family: phases are
//! `&'static str` labels drawn from [`Phase::ALL`], registered eagerly
//! at deploy time, so the family's label space is fixed at
//! `|ALL| × |services|` and cannot grow with traffic.
//!
//! Phases (see DESIGN.md §14):
//!
//! * `admission` — client-side backoff before the `Start` message is
//!   even sent (admission control, PR 6). Outside the task's tracker
//!   window, so it is observed directly into the histogram and is *not*
//!   part of the per-task breakdown sum.
//! * `queue_wait` — time a task's messages sit in broker queues (or the
//!   task waits on forked children), excluding durability holds.
//! * `durability_hold` — time parked on a `hold_until` watermark while
//!   the group-commit log catches up (speculative persistence, PR 7).
//!   Zero under a synchronous store.
//! * `lease_redelivery` — time between a lease expiring on a dead
//!   instance and the broker requeueing the message.
//! * `serialize` / `deserialize` — continuation snapshot encode/decode.
//! * `vm_exec` — the GVM actually running fiber opcodes.
//! * `service_wait` — suspended on a non-blocking service call.
//! * `suspended` — manually suspended (condition actions, explicit
//!   yields) awaiting an external awake.

use std::time::Duration;

/// One phase of a task's wall-clock decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Client-side admission backoff (pre-Start; histogram-only).
    Admission,
    /// Broker queue wait / waiting on forked children.
    QueueWait,
    /// Parked on a durability watermark (`hold_until`).
    DurabilityHold,
    /// Lease expired on a dead holder; awaiting requeue.
    LeaseRedelivery,
    /// Serializing a continuation snapshot.
    Serialize,
    /// Deserializing (and delta-replaying) a continuation snapshot.
    Deserialize,
    /// The GVM executing fiber opcodes.
    VmExec,
    /// Suspended on a service call.
    ServiceWait,
    /// Manually suspended awaiting an awake.
    Suspended,
}

/// Number of phases (the fixed cardinality of the label space).
pub const PHASE_COUNT: usize = 9;

impl Phase {
    /// Every phase, in label order. This is the *entire* label space of
    /// `gozer_task_phase_seconds` — the registration site iterates this
    /// array, and the cardinality test pins its length.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Admission,
        Phase::QueueWait,
        Phase::DurabilityHold,
        Phase::LeaseRedelivery,
        Phase::Serialize,
        Phase::Deserialize,
        Phase::VmExec,
        Phase::ServiceWait,
        Phase::Suspended,
    ];

    /// The phase's metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::DurabilityHold => "durability_hold",
            Phase::LeaseRedelivery => "lease_redelivery",
            Phase::Serialize => "serialize",
            Phase::Deserialize => "deserialize",
            Phase::VmExec => "vm_exec",
            Phase::ServiceWait => "service_wait",
            Phase::Suspended => "suspended",
        }
    }

    /// Index into [`Phase::ALL`] (and into per-task ledgers).
    pub fn index(self) -> usize {
        match self {
            Phase::Admission => 0,
            Phase::QueueWait => 1,
            Phase::DurabilityHold => 2,
            Phase::LeaseRedelivery => 3,
            Phase::Serialize => 4,
            Phase::Deserialize => 5,
            Phase::VmExec => 6,
            Phase::ServiceWait => 7,
            Phase::Suspended => 8,
        }
    }

    /// Parse a label value back to a phase (introspection endpoints).
    #[allow(
        clippy::should_implement_trait,
        reason = "the task benchmark calls `Phase::from_str` by this name and matches on its `Option`"
    )]
    pub fn from_str(s: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.as_str() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A completed task's phase breakdown: one duration per phase, summing
/// (by construction — see `vinz::tracker`) to the task's measured
/// start→final latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Accumulated time per phase, indexed by [`Phase::index`].
    pub phases: [Duration; PHASE_COUNT],
}

impl PhaseBreakdown {
    /// Time attributed to `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        self.phases[phase.index()]
    }

    /// Sum of every phase (equals the task's measured latency).
    pub fn total(&self) -> Duration {
        self.phases.iter().sum()
    }

    /// The phase holding the most time, with its duration (`None` for
    /// an all-zero breakdown).
    pub fn dominant(&self) -> Option<(Phase, Duration)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, self.get(p)))
            .max_by_key(|&(_, d)| d)
            .filter(|&(_, d)| d > Duration::ZERO)
    }

    /// Render as `phase=1.234ms phase=...` for nonzero phases, in label
    /// order; `"-"` when empty.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &p in Phase::ALL.iter() {
            let d = self.get(p);
            if d == Duration::ZERO {
                continue;
            }
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&format!("{}={:.3}ms", p.as_str(), d.as_secs_f64() * 1e3));
        }
        if out.is_empty() {
            out.push('-');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_space_is_closed_and_stable() {
        assert_eq!(Phase::ALL.len(), PHASE_COUNT);
        // Labels are unique and round-trip.
        for (i, &p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_str(p.as_str()), Some(p));
        }
        let labels: std::collections::BTreeSet<&str> =
            Phase::ALL.iter().map(|p| p.as_str()).collect();
        assert_eq!(labels.len(), PHASE_COUNT);
    }

    #[test]
    fn breakdown_totals_and_dominant() {
        let mut b = PhaseBreakdown::default();
        assert_eq!(b.total(), Duration::ZERO);
        assert_eq!(b.dominant(), None);
        assert_eq!(b.render(), "-");
        b.phases[Phase::VmExec.index()] = Duration::from_millis(3);
        b.phases[Phase::QueueWait.index()] = Duration::from_millis(5);
        assert_eq!(b.total(), Duration::from_millis(8));
        assert_eq!(b.dominant(), Some((Phase::QueueWait, Duration::from_millis(5))));
        let r = b.render();
        assert!(r.contains("queue_wait=5.000ms") && r.contains("vm_exec=3.000ms"), "{r}");
    }
}
