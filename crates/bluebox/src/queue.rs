//! A per-service message queue with pluggable scheduling policy,
//! blocking competing-consumer receive, and affinity-aware delivery.
//!
//! Messages live in one ordered index keyed by `(policy rank, arrival)`,
//! so the next message under any policy is the *first* map entry —
//! O(log n) per push/pop instead of the old O(n) best-match scan — and
//! FCFS-within-priority falls out of the arrival component of the key.
//!
//! Affinity (paper §4.2): a message may carry a *placement hint* naming
//! the node whose fiber cache most likely holds its continuation. The
//! queue then prefers a consumer on that node: other consumers skip the
//! message unless the affine node is dead (no registered consumers) or
//! behind (its affine backlog exceeds a configurable slack), in which
//! case delivery degrades to plain load balancing. Skipped messages stay
//! in order, so affinity never reorders work destined for the same node.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rustc_hash::FxHashMap;

use crate::message::Message;

/// How the next message is chosen when multiple are queued.
///
/// The production system is FCFS with priorities ("task scheduling is
/// first-come-first-serve, which has been shown to be suboptimal in the
/// presence of deadlines", §5); `Edf` is the deadline-aware policy the
/// §5 scheduling experiment compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Strict arrival order.
    #[default]
    Fcfs,
    /// Highest priority first, FCFS within a priority.
    Priority,
    /// Earliest deadline first (no deadline = last), FCFS among equals.
    Edf,
}

/// Default steal slack: how many waiting affine messages a node may
/// accumulate before other nodes start taking them.
pub const DEFAULT_AFFINITY_SLACK: usize = 2;

/// Ordered-index key: policy rank first, arrival order within a rank.
/// Arrival keys are strided so displaced (re-ordered) inserts can claim
/// gaps without renumbering.
type SelKey = (i64, i64);

const ARRIVAL_STRIDE: i64 = 1 << 10;

struct QueueState {
    messages: BTreeMap<SelKey, Message>,
    /// Arrival key for the next normal push (grows by the stride).
    next_seq: i64,
    /// Arrival key for the next front-of-class push (shrinks).
    front_seq: i64,
    closed: bool,
    /// Messages handed to a consumer by [`ServiceQueue::pop`] whose
    /// processing has not yet been settled. Incremented under the queue
    /// lock at pop time, so `messages.is_empty() && leased == 0` is a
    /// race-free "nothing in flight" predicate (the old
    /// depth-then-busy check could observe the gap between a pop and
    /// the consumer marking itself busy).
    leased: usize,
    /// Bumped by [`ServiceQueue::interrupt`]; blocked pops return early
    /// when they observe a new epoch so consumers can re-check control
    /// flags without waiting out their timeout.
    interrupt_epoch: u64,
    /// Registered consumer count per node id; a node with no entries is
    /// *dead* for affinity purposes and its messages are free to take.
    consumers: FxHashMap<u32, usize>,
    /// Waiting (not yet popped) messages per affinity node — the
    /// backlog the slack rule compares against.
    affine_depth: FxHashMap<u32, usize>,
}

impl QueueState {
    fn note_queued(&mut self, m: &Message) {
        if let Some(a) = m.affinity {
            *self.affine_depth.entry(a).or_insert(0) += 1;
        }
    }

    fn note_dequeued(&mut self, m: &Message) {
        if let Some(a) = m.affinity {
            if let Some(d) = self.affine_depth.get_mut(&a) {
                *d = d.saturating_sub(1);
                if *d == 0 {
                    self.affine_depth.remove(&a);
                }
            }
        }
    }
}

/// Where queues count their affinity-stamped deliveries: to the affine
/// node (`hits`) or elsewhere, a steal or a dead node (`misses`). A
/// cluster's queues share its pair.
#[derive(Clone, Default)]
pub(crate) struct AffinityCounts {
    pub hits: Arc<AtomicU64>,
    pub misses: Arc<AtomicU64>,
}

/// A service queue.
pub struct ServiceQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    idle_cond: Condvar,
    policy: Policy,
    /// Reference instant for EDF deadline ranking.
    epoch: Instant,
    affinity_slack: usize,
    affinity: AffinityCounts,
}

impl ServiceQueue {
    /// Queue with the given policy and the default affinity slack.
    pub fn new(policy: Policy) -> ServiceQueue {
        ServiceQueue::with_affinity(policy, DEFAULT_AFFINITY_SLACK, AffinityCounts::default())
    }

    /// Queue with an explicit affinity steal slack, counting into
    /// `affinity`. Slack 0 disables affinity preference entirely
    /// (every consumer takes the head).
    pub(crate) fn with_affinity(
        policy: Policy,
        affinity_slack: usize,
        affinity: AffinityCounts,
    ) -> ServiceQueue {
        ServiceQueue {
            state: Mutex::new(QueueState {
                messages: BTreeMap::new(),
                next_seq: 0,
                front_seq: -ARRIVAL_STRIDE,
                closed: false,
                leased: 0,
                interrupt_epoch: 0,
                consumers: FxHashMap::default(),
                affine_depth: FxHashMap::default(),
            }),
            cond: Condvar::new(),
            idle_cond: Condvar::new(),
            policy,
            epoch: Instant::now(),
            affinity_slack,
            affinity,
        }
    }

    /// Policy rank of a message: the primary sort key of the ordered
    /// index. Smaller ranks deliver first.
    fn rank(&self, m: &Message) -> i64 {
        match self.policy {
            Policy::Fcfs => 0,
            Policy::Priority => -(m.priority as i64),
            Policy::Edf => m
                .deadline
                .map(|d| {
                    d.saturating_duration_since(self.epoch)
                        .as_nanos()
                        .min((i64::MAX - 1) as u128) as i64
                })
                .unwrap_or(i64::MAX),
        }
    }

    /// Enqueue.
    pub fn push(&self, msg: Message) {
        let rank = self.rank(&msg);
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += ARRIVAL_STRIDE;
        st.note_queued(&msg);
        st.messages.insert((rank, seq), msg);
        drop(st);
        // notify_all, not notify_one: with affinity in play the woken
        // consumer may skip the new message, and it must not swallow the
        // wakeup meant for the affine node's consumer.
        self.cond.notify_all();
    }

    /// Re-enqueue a message after a failed delivery, preserving arrival
    /// fairness as well as possible (front of its rank class).
    pub fn push_front(&self, mut msg: Message) {
        msg.redeliveries += 1;
        let rank = self.rank(&msg);
        let mut st = self.state.lock();
        let seq = st.front_seq;
        st.front_seq -= ARRIVAL_STRIDE;
        st.note_queued(&msg);
        st.messages.insert((rank, seq), msg);
        drop(st);
        self.cond.notify_all();
    }

    /// Enqueue displaced `slots` positions ahead of the back of the
    /// queue — a deterministic FCFS-order violation used by the chaos
    /// layer to simulate broker reordering.
    pub fn push_displaced(&self, msg: Message, slots: usize) {
        let rank = self.rank(&msg);
        let mut st = self.state.lock();
        // The entry currently `slots` from the back is the one the
        // displaced message should overtake; claim an arrival key just
        // ahead of it (the stride leaves gaps for exactly this).
        let succ = if slots == 0 {
            None
        } else {
            st.messages
                .iter()
                .rev()
                .nth(slots - 1)
                .or_else(|| st.messages.iter().next())
                .map(|(&k, _)| k)
        };
        let seq = match succ {
            Some((_, succ_seq)) => {
                let mut candidate = succ_seq - 1;
                while st.messages.contains_key(&(rank, candidate)) {
                    candidate -= 1;
                }
                candidate
            }
            None => {
                let seq = st.next_seq;
                st.next_seq += ARRIVAL_STRIDE;
                seq
            }
        };
        st.note_queued(&msg);
        st.messages.insert((rank, seq), msg);
        drop(st);
        self.cond.notify_all();
    }

    /// Register a consumer running on `node` (affinity target). Call
    /// [`deregister_consumer`](Self::deregister_consumer) when it stops,
    /// or the node will keep claiming its affine messages forever.
    pub fn register_consumer(&self, node: u32) {
        let mut st = self.state.lock();
        *st.consumers.entry(node).or_insert(0) += 1;
    }

    /// Deregister a consumer of `node`; once the count reaches zero the
    /// node is dead for affinity purposes and its messages are released
    /// to everyone.
    pub fn deregister_consumer(&self, node: u32) {
        let mut st = self.state.lock();
        if let Some(c) = st.consumers.get_mut(&node) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                st.consumers.remove(&node);
            }
        }
        drop(st);
        // Messages that were reserved for this node are now up for grabs.
        self.cond.notify_all();
    }

    /// Select and remove the first deliverable message for `consumer`
    /// under the affinity rules. Runs under the queue lock; the scan
    /// skips at most `slack` waiting messages per live affine node, so
    /// it stays shallow even on deep queues.
    fn take(&self, st: &mut QueueState, consumer: Option<u32>) -> Option<Message> {
        let mut chosen: Option<(SelKey, bool)> = None;
        for (&key, m) in st.messages.iter() {
            let Some(affine) = m.affinity else {
                chosen = Some((key, false));
                break;
            };
            if consumer == Some(affine) {
                chosen = Some((key, true));
                break;
            }
            let node_live = st.consumers.contains_key(&affine);
            let backlog = st.affine_depth.get(&affine).copied().unwrap_or(0);
            if !node_live || self.affinity_slack == 0 || backlog > self.affinity_slack {
                // Dead node, affinity disabled, or the affine node has
                // fallen behind its slack: steal to keep load balanced.
                chosen = Some((key, false));
                break;
            }
            // Leave it for the affine node's consumers.
        }
        let (key, hit) = chosen?;
        let m = st.messages.remove(&key).expect("chosen key present");
        st.note_dequeued(&m);
        if m.affinity.is_some() {
            let count = if hit {
                &self.affinity.hits
            } else {
                &self.affinity.misses
            };
            count.fetch_add(1, Ordering::Relaxed);
        }
        Some(m)
    }

    /// Blocking receive with timeout; `None` on timeout, close, or
    /// [`interrupt`](Self::interrupt). A returned message is *leased*:
    /// the consumer must call [`settle`](Self::settle) once it has
    /// finished with it (processed, crashed, or re-queued), or
    /// [`wait_idle`](Self::wait_idle) will never report idle.
    pub fn pop(&self, timeout: Duration) -> Option<Message> {
        self.pop_as(None, timeout)
    }

    /// [`pop`](Self::pop) for a consumer running on `node`: messages
    /// affine to `node` are preferred, messages affine to *other live*
    /// nodes are skipped while those nodes keep up.
    pub fn pop_for(&self, node: u32, timeout: Duration) -> Option<Message> {
        self.pop_as(Some(node), timeout)
    }

    fn pop_as(&self, consumer: Option<u32>, timeout: Duration) -> Option<Message> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        let epoch = st.interrupt_epoch;
        loop {
            if let Some(msg) = self.take(&mut st, consumer) {
                st.leased += 1;
                return Some(msg);
            }
            if st.closed || st.interrupt_epoch != epoch {
                return None;
            }
            if self.cond.wait_until(&mut st, deadline).timed_out() {
                return None;
            }
        }
    }

    /// Release the lease taken by [`pop`](Self::pop); wakes
    /// [`wait_idle`](Self::wait_idle) waiters when the queue quiesces.
    pub fn settle(&self) {
        let mut st = self.state.lock();
        st.leased = st.leased.saturating_sub(1);
        if st.leased == 0 && st.messages.is_empty() {
            drop(st);
            self.idle_cond.notify_all();
        }
    }

    /// Wake all blocked pops without closing the queue, so consumers
    /// re-check their control flags (stop/kill) immediately instead of
    /// waiting out the pop timeout.
    pub fn interrupt(&self) {
        self.state.lock().interrupt_epoch += 1;
        self.cond.notify_all();
    }

    /// Block until the queue is empty *and* every leased message has
    /// been settled, or `deadline` passes. Returns whether the queue is
    /// idle.
    pub fn wait_idle(&self, deadline: Instant) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.messages.is_empty() && st.leased == 0 {
                return true;
            }
            if self.idle_cond.wait_until(&mut st, deadline).timed_out() {
                return st.messages.is_empty() && st.leased == 0;
            }
        }
    }

    /// Non-blocking receive. Does *not* lease (intended for tests and
    /// single-threaded draining, not competing consumers).
    pub fn try_pop(&self) -> Option<Message> {
        let mut st = self.state.lock();
        self.take(&mut st, None)
    }

    /// Number of waiting messages.
    pub fn depth(&self) -> usize {
        self.state.lock().messages.len()
    }

    /// Number of popped-but-unsettled messages (outstanding leases).
    pub fn leased_count(&self) -> usize {
        self.state.lock().leased
    }

    /// Deliveries of affinity-stamped messages to their affine node vs
    /// elsewhere, as `(hits, misses)`, summed over every queue sharing
    /// this one's counts.
    pub fn affinity_counts(&self) -> (u64, u64) {
        let AffinityCounts { hits, misses } = &self.affinity;
        (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed))
    }

    /// Close: wake all receivers; subsequent pops drain then return
    /// `None`.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(op: &str, prio: i32) -> Message {
        Message::new("s", op, vec![]).with_priority(prio)
    }

    #[test]
    fn fcfs_order() {
        let q = ServiceQueue::new(Policy::Fcfs);
        q.push(msg("a", 0));
        q.push(msg("b", 9));
        q.push(msg("c", 5));
        let order: Vec<String> = (0..3)
            .map(|_| q.pop(Duration::from_millis(10)).unwrap().operation)
            .collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn priority_order() {
        let q = ServiceQueue::new(Policy::Priority);
        q.push(msg("low", 0));
        q.push(msg("high", 9));
        q.push(msg("mid", 5));
        q.push(msg("high2", 9));
        let order: Vec<String> = (0..4)
            .map(|_| q.pop(Duration::from_millis(10)).unwrap().operation)
            .collect();
        assert_eq!(order, vec!["high", "high2", "mid", "low"]);
    }

    #[test]
    fn edf_order() {
        let q = ServiceQueue::new(Policy::Edf);
        let now = Instant::now();
        q.push(msg("nodeadline", 0));
        q.push(msg("late", 0).with_deadline(now + Duration::from_secs(10)));
        q.push(msg("soon", 0).with_deadline(now + Duration::from_secs(1)));
        let order: Vec<String> = (0..3)
            .map(|_| q.pop(Duration::from_millis(10)).unwrap().operation)
            .collect();
        assert_eq!(order, vec!["soon", "late", "nodeadline"]);
    }

    #[test]
    fn deep_priority_queue_keeps_fcfs_within_priority() {
        // Exercises the ordered index well past any small-queue special
        // case: interleaved priorities, strict FCFS inside each.
        let q = ServiceQueue::new(Policy::Priority);
        for i in 0..500 {
            q.push(msg(&format!("m{}-p{}", i, i % 5), i % 5));
        }
        let mut last_prio = i32::MAX;
        let mut last_index_in_prio = -1i64;
        for _ in 0..500 {
            let m = q.pop(Duration::from_millis(10)).unwrap();
            assert!(m.priority <= last_prio, "priority must not increase");
            let idx: i64 = m.operation[1..m.operation.find('-').unwrap()]
                .parse()
                .unwrap();
            if m.priority == last_prio {
                assert!(idx > last_index_in_prio, "FCFS within priority violated");
            }
            last_prio = m.priority;
            last_index_in_prio = idx;
        }
    }

    #[test]
    fn pop_times_out() {
        let q = ServiceQueue::new(Policy::Fcfs);
        assert!(q.pop(Duration::from_millis(20)).is_none());
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = std::sync::Arc::new(ServiceQueue::new(Policy::Fcfs));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(msg("x", 0));
        assert_eq!(h.join().unwrap().unwrap().operation, "x");
    }

    #[test]
    fn redelivery_goes_first_and_counts() {
        let q = ServiceQueue::new(Policy::Fcfs);
        q.push(msg("a", 0));
        let failed = msg("failed", 0);
        q.push_front(failed);
        let first = q.pop(Duration::from_millis(10)).unwrap();
        assert_eq!(first.operation, "failed");
        assert_eq!(first.redeliveries, 1);
    }

    #[test]
    fn wait_idle_waits_for_settle_not_just_empty() {
        let q = std::sync::Arc::new(ServiceQueue::new(Policy::Fcfs));
        q.push(msg("x", 0));
        let m = q.pop(Duration::from_millis(10)).unwrap();
        assert_eq!(m.operation, "x");
        // Queue is empty but the message is still leased.
        assert_eq!(q.depth(), 0);
        assert!(!q.wait_idle(Instant::now() + Duration::from_millis(30)));
        let q2 = q.clone();
        let h = std::thread::spawn(move || {
            q2.wait_idle(Instant::now() + Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.settle();
        assert!(h.join().unwrap());
    }

    #[test]
    fn interrupt_wakes_blocked_pop() {
        let q = std::sync::Arc::new(ServiceQueue::new(Policy::Fcfs));
        let q2 = q.clone();
        let started = Instant::now();
        let h = std::thread::spawn(move || q2.pop(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.interrupt();
        assert!(h.join().unwrap().is_none());
        assert!(started.elapsed() < Duration::from_secs(5));
        // The queue still works afterwards.
        q.push(msg("y", 0));
        assert_eq!(q.pop(Duration::from_millis(10)).unwrap().operation, "y");
    }

    #[test]
    fn push_displaced_jumps_fcfs_order() {
        let q = ServiceQueue::new(Policy::Fcfs);
        q.push(msg("a", 0));
        q.push(msg("b", 0));
        q.push_displaced(msg("late", 0), 2);
        let order: Vec<String> = (0..3)
            .map(|_| q.pop(Duration::from_millis(10)).unwrap().operation)
            .collect();
        assert_eq!(order, vec!["late", "a", "b"]);
    }

    #[test]
    fn close_wakes_waiters() {
        let q = std::sync::Arc::new(ServiceQueue::new(Policy::Fcfs));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_none());
    }

    // ---- affinity -------------------------------------------------------

    #[test]
    fn affine_consumer_gets_its_message_first() {
        let q = ServiceQueue::new(Policy::Fcfs);
        q.register_consumer(1);
        q.register_consumer(2);
        q.push(msg("for-2", 0).with_affinity(2));
        q.push(msg("anyone", 0));
        // Node 1 skips node 2's message (node 2 is live and within slack)
        // and takes the unstamped one behind it.
        assert_eq!(
            q.pop_for(1, Duration::from_millis(10)).unwrap().operation,
            "anyone"
        );
        assert_eq!(
            q.pop_for(2, Duration::from_millis(10)).unwrap().operation,
            "for-2"
        );
        assert_eq!(q.affinity_counts(), (1, 0));
    }

    #[test]
    fn dead_node_messages_are_released() {
        let q = ServiceQueue::new(Policy::Fcfs);
        q.register_consumer(1);
        q.register_consumer(2);
        q.push(msg("for-2", 0).with_affinity(2));
        q.deregister_consumer(2);
        // Node 2 died: node 1 must take the message (graceful fallback).
        assert_eq!(
            q.pop_for(1, Duration::from_millis(10)).unwrap().operation,
            "for-2"
        );
        assert_eq!(q.affinity_counts(), (0, 1));
    }

    #[test]
    fn backlogged_affine_node_gets_stolen_from() {
        let slack = 2;
        let q = ServiceQueue::with_affinity(Policy::Fcfs, slack, AffinityCounts::default());
        q.register_consumer(1);
        q.register_consumer(2);
        for i in 0..4 {
            q.push(msg(&format!("m{i}"), 0).with_affinity(2));
        }
        // Backlog (4) exceeds slack (2): node 1 steals the head instead
        // of idling while node 2 churns through all four.
        assert_eq!(
            q.pop_for(1, Duration::from_millis(10)).unwrap().operation,
            "m0"
        );
        // Backlog is now 3, still over slack: another steal is allowed.
        assert_eq!(
            q.pop_for(1, Duration::from_millis(10)).unwrap().operation,
            "m1"
        );
        // Backlog 2 = slack: node 1 now leaves the rest for node 2.
        assert!(q.pop_for(1, Duration::from_millis(10)).is_none());
        assert_eq!(
            q.pop_for(2, Duration::from_millis(10)).unwrap().operation,
            "m2"
        );
        let (hits, misses) = q.affinity_counts();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn skipped_affine_message_does_not_block_waiting_affine_consumer() {
        let q = std::sync::Arc::new(ServiceQueue::new(Policy::Fcfs));
        q.register_consumer(1);
        q.register_consumer(2);
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop_for(2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        // The push must wake node 2's consumer even if node 1's is also
        // blocked (notify_all semantics).
        let q1 = q.clone();
        let h1 = std::thread::spawn(move || q1.pop_for(1, Duration::from_millis(200)));
        q.push(msg("for-2", 0).with_affinity(2));
        assert_eq!(h.join().unwrap().unwrap().operation, "for-2");
        assert!(h1.join().unwrap().is_none(), "node 1 must not take it");
    }

    #[test]
    fn plain_pop_ignores_affinity_when_no_nodes_registered() {
        // Embedders that never register consumers see exactly the old
        // behavior, affinity stamps or not.
        let q = ServiceQueue::new(Policy::Fcfs);
        q.push(msg("a", 0).with_affinity(7));
        assert_eq!(q.pop(Duration::from_millis(10)).unwrap().operation, "a");
    }
}
