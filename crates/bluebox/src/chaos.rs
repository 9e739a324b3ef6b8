//! Deterministic fault injection for the simulated cluster.
//!
//! A [`ChaosPlan`] is a *pure function* from `(seed, fault point, stable
//! message key)` to a fault decision. Nothing in a decision depends on
//! wall-clock time, broker-assigned ids, or thread scheduling, so a
//! distributed test driven by a plan is reproducible from its seed
//! alone: the same message always draws the same fate, no matter which
//! instance happens to pick it up or when.
//!
//! Faults covered (the failure modes §3.2's survivability argument has
//! to hold under):
//!
//! * **Drop** — the delivery is abandoned and the message re-queued, as
//!   when a node vanishes mid-handoff (at-least-once redelivery).
//! * **Delay** — delivery stalls for a bounded, seed-derived duration.
//! * **Duplicate** — the broker delivers the message twice.
//! * **Reorder** — the message jumps its FCFS position on enqueue.
//! * **Crash** — the receiving instance dies [`FaultPoint::BeforeProcess`]
//!   (message untouched) or [`FaultPoint::AfterProcess`] (handler ran,
//!   ack lost: the idempotency-critical case), optionally taking its
//!   whole node down.
//! * **Reply loss** — a synchronous caller's reply evaporates.
//!
//! Crashes are metered by budgets so a finite plan cannot extinguish a
//! cluster faster than a test's recovery step can respawn it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::message::Message;

/// Where a fault fires relative to message processing.
///
/// Manual kills ([`crate::Cluster::kill_instance`]) and seeded chaos
/// crashes share the enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// Before the handler runs; the message is redelivered untouched.
    BeforeProcess,
    /// After the handler ran but before the reply/ack: the message is
    /// redelivered even though its effects may have happened, exercising
    /// at-least-once idempotency.
    AfterProcess,
}

/// What the chaos layer decided for one delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Process normally.
    Deliver,
    /// Abandon this delivery and re-queue the message.
    DropRedeliver,
    /// Stall the delivery, then process normally.
    Delay(Duration),
    /// Kill the receiving instance at the given point.
    Crash(FaultPoint),
}

/// A seeded, splittable PRNG (splitmix64). Deterministic per seed;
/// `split` derives an independent stream, so concurrent consumers each
/// get a reproducible sequence of their own.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosRng {
    /// Construct from a seed.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng {
            state: seed ^ GOLDEN,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform value in `[0, n)` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    /// Derive an independent generator (parent advances once).
    pub fn split(&mut self) -> ChaosRng {
        ChaosRng::new(self.next_u64() ^ 0xA5A5_A5A5_5A5A_5A5A)
    }
}

/// Stateless hash used for per-message fault decisions.
fn mix(seed: u64, point: u64, key: u64) -> u64 {
    let mut state = seed ^ point.wrapping_mul(0xD605_0EDB_34AF_4F29) ^ key.rotate_left(17);
    splitmix64(&mut state)
}

// Distinct fault-point discriminators for the decision hash.
const PT_DROP: u64 = 1;
const PT_DELAY: u64 = 2;
const PT_DELAY_AMOUNT: u64 = 3;
const PT_DUP: u64 = 4;
const PT_REORDER: u64 = 5;
const PT_REORDER_SLOT: u64 = 6;
const PT_CRASH_BEFORE: u64 = 7;
const PT_CRASH_AFTER: u64 = 8;
const PT_NODE_SCOPE: u64 = 9;
const PT_REPLY_LOSS: u64 = 10;

/// Fault probabilities (permille) and budgets for a [`ChaosPlan`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed from which every decision derives.
    pub seed: u64,
    /// Probability a delivery is abandoned and re-queued.
    pub drop_permille: u32,
    /// Probability a delivery is delayed.
    pub delay_permille: u32,
    /// Upper bound on an injected delay.
    pub max_delay: Duration,
    /// Probability a sent message is delivered twice.
    pub duplicate_permille: u32,
    /// Probability a sent message jumps its queue position.
    pub reorder_permille: u32,
    /// Probability the receiving instance crashes before processing.
    pub crash_before_permille: u32,
    /// Probability the receiving instance crashes after processing.
    pub crash_after_permille: u32,
    /// Probability an injected crash takes the whole node down.
    pub node_kill_permille: u32,
    /// Probability a synchronous caller's reply is lost.
    pub reply_loss_permille: u32,
    /// Total instance crashes the plan may inject.
    pub max_crashes: u32,
    /// Total node-wide kills the plan may inject (counted against
    /// `max_crashes` too, once per node kill).
    pub max_node_kills: u32,
    /// Per-message cap on injected drops: once a message has been
    /// redelivered this many times, it is always delivered. Guarantees
    /// progress under at-least-once semantics.
    pub max_faults_per_message: u32,
    /// When set, faults are injected *only* into messages with this
    /// operation; everything else flows untouched. Used by the
    /// [`poison`](ChaosConfig::poison) preset to doom one operation
    /// while the rest of the workload stays healthy.
    pub target_operation: Option<String>,
}

impl ChaosConfig {
    /// All probabilities zero: a plan that never interferes.
    pub fn off(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            drop_permille: 0,
            delay_permille: 0,
            max_delay: Duration::from_millis(1),
            duplicate_permille: 0,
            reorder_permille: 0,
            crash_before_permille: 0,
            crash_after_permille: 0,
            node_kill_permille: 0,
            reply_loss_permille: 0,
            max_crashes: 0,
            max_node_kills: 0,
            max_faults_per_message: 3,
            target_operation: None,
        }
    }

    /// The survivability preset: every fault except reply loss, at rates
    /// calibrated for workloads of tens-to-hundreds of messages. Reply
    /// loss is excluded because a lost synchronous reply surfaces as a
    /// (correct) caller timeout, not a survivability violation.
    pub fn survivability(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_permille: 40,
            delay_permille: 60,
            max_delay: Duration::from_millis(2),
            duplicate_permille: 30,
            reorder_permille: 40,
            crash_before_permille: 12,
            crash_after_permille: 12,
            node_kill_permille: 150,
            max_crashes: 5,
            max_node_kills: 1,
            ..ChaosConfig::off(seed)
        }
    }

    /// Heavier message-level faults, no crashes: stresses redelivery and
    /// duplication without ever needing recovery.
    pub fn turbulence(seed: u64) -> ChaosConfig {
        ChaosConfig {
            drop_permille: 120,
            delay_permille: 120,
            max_delay: Duration::from_millis(2),
            duplicate_permille: 100,
            reorder_permille: 120,
            ..ChaosConfig::off(seed)
        }
    }

    /// A poison-message preset: every delivery of the targeted
    /// operation crashes its instance before processing, with a budget
    /// deep enough to outlast any redelivery budget. The rest of the
    /// workload is untouched. Exercises the dead-letter path.
    pub fn poison(seed: u64, operation: impl Into<String>) -> ChaosConfig {
        ChaosConfig {
            crash_before_permille: 1000,
            max_crashes: 64,
            target_operation: Some(operation.into()),
            ..ChaosConfig::off(seed)
        }
    }
}

/// Counters for injected faults (all monotonically increasing).
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Deliveries abandoned and re-queued.
    pub dropped: AtomicU64,
    /// Deliveries delayed.
    pub delayed: AtomicU64,
    /// Messages delivered twice.
    pub duplicated: AtomicU64,
    /// Messages enqueued out of order.
    pub reordered: AtomicU64,
    /// Instance crashes injected before processing.
    pub crashes_before: AtomicU64,
    /// Instance crashes injected after processing.
    pub crashes_after: AtomicU64,
    /// Node-wide kills injected.
    pub node_kills: AtomicU64,
    /// Synchronous replies suppressed.
    pub replies_lost: AtomicU64,
}

/// Point-in-time copy of [`ChaosStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Deliveries abandoned and re-queued.
    pub dropped: u64,
    /// Deliveries delayed.
    pub delayed: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages enqueued out of order.
    pub reordered: u64,
    /// Instance crashes injected before processing.
    pub crashes_before: u64,
    /// Instance crashes injected after processing.
    pub crashes_after: u64,
    /// Node-wide kills injected.
    pub node_kills: u64,
    /// Synchronous replies suppressed.
    pub replies_lost: u64,
}

impl ChaosStatsSnapshot {
    /// Total faults of any kind.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.reordered
            + self.crashes_before
            + self.crashes_after
            + self.node_kills
            + self.replies_lost
    }
}

/// A seeded fault-injection plan consulted by the cluster at its fault
/// points.
///
/// Decision functions (`decide_*`) are pure: they depend only on the
/// seed and the message's *stable key* ([`ChaosPlan::message_key`]),
/// never on broker ids, timing, or prior decisions. The `on_*` wrappers
/// used by the cluster add the impure-but-bounded parts — arming and
/// crash budgets — and count stats.
pub struct ChaosPlan {
    config: ChaosConfig,
    armed: AtomicBool,
    crashes_spent: AtomicU64,
    node_kills_spent: AtomicU64,
    /// Injected-fault counters.
    pub stats: ChaosStats,
}

impl ChaosPlan {
    /// Build an armed plan.
    pub fn new(config: ChaosConfig) -> Arc<ChaosPlan> {
        Arc::new(ChaosPlan {
            config,
            armed: AtomicBool::new(true),
            crashes_spent: AtomicU64::new(0),
            node_kills_spent: AtomicU64::new(0),
            stats: ChaosStats::default(),
        })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.config.seed
    }

    /// The plan's configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Stop injecting faults (used by recovery phases: disarm, respawn,
    /// let the workload finish cleanly).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Resume injecting faults.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Whether faults are currently injected.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// Copy the fault counters.
    pub fn snapshot(&self) -> ChaosStatsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ChaosStatsSnapshot {
            dropped: load(&self.stats.dropped),
            delayed: load(&self.stats.delayed),
            duplicated: load(&self.stats.duplicated),
            reordered: load(&self.stats.reordered),
            crashes_before: load(&self.stats.crashes_before),
            crashes_after: load(&self.stats.crashes_after),
            node_kills: load(&self.stats.node_kills),
            replies_lost: load(&self.stats.replies_lost),
        }
    }

    /// The stable identity of a message for fault decisions: a hash of
    /// what the *sender* chose (service, operation, headers, body) plus
    /// the redelivery count — never the broker-assigned id or any
    /// timestamp, both of which vary run to run.
    ///
    /// Including `redeliveries` gives each delivery attempt a fresh
    /// draw, so a dropped message is not doomed to be dropped forever.
    pub fn message_key(msg: &Message) -> u64 {
        // FNV-1a over the stable fields.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h ^= 0xFF;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        eat(msg.service.as_bytes());
        eat(msg.operation.as_bytes());
        for (k, v) in msg.headers.iter() {
            eat(k.as_bytes());
            eat(v.as_bytes());
        }
        eat(&msg.body);
        eat(&msg.redeliveries.to_le_bytes());
        h
    }

    // ---- pure decision core -------------------------------------------------

    /// Pure: what happens when a message with this key and redelivery
    /// count reaches an instance. Ignores arming and crash budgets.
    pub fn decide_delivery(&self, key: u64, redeliveries: u32) -> FaultAction {
        let c = &self.config;
        if mix(c.seed, PT_CRASH_BEFORE, key) % 1000 < c.crash_before_permille as u64 {
            return FaultAction::Crash(FaultPoint::BeforeProcess);
        }
        if redeliveries < c.max_faults_per_message
            && mix(c.seed, PT_DROP, key) % 1000 < c.drop_permille as u64
        {
            return FaultAction::DropRedeliver;
        }
        if mix(c.seed, PT_DELAY, key) % 1000 < c.delay_permille as u64 {
            let micros = c.max_delay.as_micros().max(1) as u64;
            return FaultAction::Delay(Duration::from_micros(
                mix(c.seed, PT_DELAY_AMOUNT, key) % micros,
            ));
        }
        FaultAction::Deliver
    }

    /// Pure: does the instance crash after processing this message?
    pub fn decide_crash_after(&self, key: u64) -> bool {
        mix(self.config.seed, PT_CRASH_AFTER, key) % 1000 < self.config.crash_after_permille as u64
    }

    /// Pure: is this send delivered twice?
    pub fn decide_duplicate(&self, key: u64) -> bool {
        mix(self.config.seed, PT_DUP, key) % 1000 < self.config.duplicate_permille as u64
    }

    /// Pure: does this send jump the queue, and by how many slots?
    pub fn decide_reorder(&self, key: u64) -> Option<usize> {
        if mix(self.config.seed, PT_REORDER, key) % 1000 < self.config.reorder_permille as u64 {
            Some((mix(self.config.seed, PT_REORDER_SLOT, key) % 3 + 1) as usize)
        } else {
            None
        }
    }

    /// Pure: does an injected crash take the whole node?
    pub fn decide_node_scope(&self, key: u64) -> bool {
        mix(self.config.seed, PT_NODE_SCOPE, key) % 1000 < self.config.node_kill_permille as u64
    }

    /// Pure: is the synchronous reply for this correlation lost?
    pub fn decide_reply_loss(&self, correlation: u64) -> bool {
        mix(self.config.seed, PT_REPLY_LOSS, correlation) % 1000
            < self.config.reply_loss_permille as u64
    }

    // ---- effectful wrappers (arming + budgets + stats) ----------------------

    /// Is this message within the plan's blast radius? (Always, unless
    /// the config targets a single operation.)
    fn targets(&self, msg: &Message) -> bool {
        match &self.config.target_operation {
            Some(op) => msg.operation == *op,
            None => true,
        }
    }

    fn try_spend_crash(&self) -> bool {
        let max = self.config.max_crashes as u64;
        let mut spent = self.crashes_spent.load(Ordering::SeqCst);
        loop {
            if spent >= max {
                return false;
            }
            match self.crashes_spent.compare_exchange(
                spent,
                spent + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => spent = actual,
            }
        }
    }

    /// Cluster hook: decide the fate of a delivery. Crash decisions are
    /// suppressed once the crash budget is spent (the message is then
    /// delivered normally).
    pub fn on_deliver(&self, msg: &Message) -> FaultAction {
        if !self.is_armed() || !self.targets(msg) {
            return FaultAction::Deliver;
        }
        let key = ChaosPlan::message_key(msg);
        match self.decide_delivery(key, msg.redeliveries) {
            FaultAction::Crash(point) => {
                if self.try_spend_crash() {
                    self.stats.crashes_before.fetch_add(1, Ordering::Relaxed);
                    FaultAction::Crash(point)
                } else {
                    FaultAction::Deliver
                }
            }
            FaultAction::DropRedeliver => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                FaultAction::DropRedeliver
            }
            FaultAction::Delay(d) => {
                self.stats.delayed.fetch_add(1, Ordering::Relaxed);
                FaultAction::Delay(d)
            }
            FaultAction::Deliver => FaultAction::Deliver,
        }
    }

    /// Cluster hook: crash after the handler ran?
    pub fn on_after_process(&self, msg: &Message) -> bool {
        if !self.is_armed() || !self.targets(msg) {
            return false;
        }
        let key = ChaosPlan::message_key(msg);
        if self.decide_crash_after(key) && self.try_spend_crash() {
            self.stats.crashes_after.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Cluster hook: deliver this send twice?
    pub fn on_send_duplicate(&self, msg: &Message) -> bool {
        if !self.is_armed() || !self.targets(msg) {
            return false;
        }
        if self.decide_duplicate(ChaosPlan::message_key(msg)) {
            self.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Cluster hook: displace this send in the queue by `n` slots?
    pub fn on_send_reorder(&self, msg: &Message) -> Option<usize> {
        if !self.is_armed() || !self.targets(msg) {
            return None;
        }
        let slots = self.decide_reorder(ChaosPlan::message_key(msg))?;
        self.stats.reordered.fetch_add(1, Ordering::Relaxed);
        Some(slots)
    }

    /// Cluster hook: widen an injected crash to the whole node? Budgeted
    /// separately (and consumes nothing extra when the budget is gone).
    pub fn on_node_scope(&self, msg: &Message) -> bool {
        if !self.is_armed() {
            return false;
        }
        if !self.decide_node_scope(ChaosPlan::message_key(msg)) {
            return false;
        }
        let max = self.config.max_node_kills as u64;
        if self.node_kills_spent.fetch_add(1, Ordering::SeqCst) < max {
            self.stats.node_kills.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Cluster hook: suppress a synchronous caller's reply?
    pub fn on_caller_reply(&self, correlation: u64) -> bool {
        if !self.is_armed() {
            return false;
        }
        if self.decide_reply_loss(correlation) {
            self.stats.replies_lost.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosPlan")
            .field("seed", &self.config.seed)
            .field("armed", &self.is_armed())
            .field("stats", &self.snapshot())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(op: &str, body: &[u8], redeliveries: u32) -> Message {
        let mut m = Message::new("svc", op, body.to_vec()).header("fiber", "7");
        m.redeliveries = redeliveries;
        m
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_key() {
        let plan_a = ChaosPlan::new(ChaosConfig::survivability(42));
        let plan_b = ChaosPlan::new(ChaosConfig::survivability(42));
        let plan_c = ChaosPlan::new(ChaosConfig::survivability(43));
        let mut differs = false;
        for i in 0..500u32 {
            let m = msg("Op", &i.to_le_bytes(), i % 3);
            let key = ChaosPlan::message_key(&m);
            assert_eq!(
                plan_a.decide_delivery(key, m.redeliveries),
                plan_b.decide_delivery(key, m.redeliveries)
            );
            assert_eq!(
                plan_a.decide_crash_after(key),
                plan_b.decide_crash_after(key)
            );
            assert_eq!(plan_a.decide_duplicate(key), plan_b.decide_duplicate(key));
            assert_eq!(plan_a.decide_reorder(key), plan_b.decide_reorder(key));
            if plan_a.decide_delivery(key, m.redeliveries)
                != plan_c.decide_delivery(key, m.redeliveries)
            {
                differs = true;
            }
        }
        assert!(
            differs,
            "different seeds should produce different schedules"
        );
    }

    #[test]
    fn message_key_ignores_broker_id_and_time() {
        let mut a = msg("Op", b"payload", 1);
        let mut b = msg("Op", b"payload", 1);
        a.id = 17;
        b.id = 99;
        b.enqueued_at = std::time::Instant::now();
        assert_eq!(ChaosPlan::message_key(&a), ChaosPlan::message_key(&b));
        // But any stable field changes the key.
        let c = msg("Other", b"payload", 1);
        let d = msg("Op", b"payload", 2);
        assert_ne!(ChaosPlan::message_key(&a), ChaosPlan::message_key(&c));
        assert_ne!(ChaosPlan::message_key(&a), ChaosPlan::message_key(&d));
    }

    #[test]
    fn redelivery_cap_guarantees_progress() {
        let mut config = ChaosConfig::off(7);
        config.drop_permille = 1000; // always drop...
        config.max_faults_per_message = 3; // ...until the cap
        let plan = ChaosPlan::new(config);
        let m = msg("Op", b"x", 3);
        let key = ChaosPlan::message_key(&m);
        assert_eq!(plan.decide_delivery(key, 3), FaultAction::Deliver);
        assert_eq!(plan.decide_delivery(key, 2), FaultAction::DropRedeliver);
    }

    #[test]
    fn crash_budget_is_finite() {
        let mut config = ChaosConfig::off(5);
        config.crash_before_permille = 1000;
        config.max_crashes = 2;
        let plan = ChaosPlan::new(config);
        let mut crashes = 0;
        for i in 0..10u32 {
            let m = msg("Op", &i.to_le_bytes(), 0);
            if matches!(plan.on_deliver(&m), FaultAction::Crash(_)) {
                crashes += 1;
            }
        }
        assert_eq!(crashes, 2);
        assert_eq!(plan.snapshot().crashes_before, 2);
    }

    #[test]
    fn disarm_stops_all_faults() {
        let plan = ChaosPlan::new(ChaosConfig::turbulence(11));
        plan.disarm();
        for i in 0..200u32 {
            let m = msg("Op", &i.to_le_bytes(), 0);
            assert_eq!(plan.on_deliver(&m), FaultAction::Deliver);
            assert!(!plan.on_send_duplicate(&m));
            assert!(plan.on_send_reorder(&m).is_none());
        }
        assert_eq!(plan.snapshot().total(), 0);
    }

    #[test]
    fn rng_split_streams_are_independent_and_reproducible() {
        let mut parent_a = ChaosRng::new(3);
        let mut parent_b = ChaosRng::new(3);
        let mut child_a = parent_a.split();
        let mut child_b = parent_b.split();
        let xs: Vec<u64> = (0..8).map(|_| child_a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| child_b.next_u64()).collect();
        assert_eq!(xs, ys);
        let ps: Vec<u64> = (0..8).map(|_| parent_a.next_u64()).collect();
        assert_ne!(xs, ps, "child stream must differ from parent stream");
    }
}
