//! Property tests for the service queue's scheduling policies: every
//! policy must deliver exactly the pushed multiset of messages, in the
//! order its discipline defines.

use std::time::{Duration, Instant};

use bluebox::{Message, Policy, ServiceQueue};
use proptest::prelude::*;

fn drain(q: &ServiceQueue) -> Vec<Message> {
    let mut out = Vec::new();
    while let Some(m) = q.try_pop() {
        out.push(m);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fcfs_preserves_arrival_order(ops in proptest::collection::vec(0u32..1000, 1..40)) {
        let q = ServiceQueue::new(Policy::Fcfs);
        for (i, _) in ops.iter().enumerate() {
            q.push(Message::new("s", &format!("m{i}"), vec![]));
        }
        let out = drain(&q);
        prop_assert_eq!(out.len(), ops.len());
        for (i, m) in out.iter().enumerate() {
            let expected = format!("m{i}");
            prop_assert_eq!(m.operation.as_str(), expected.as_str());
        }
    }

    #[test]
    fn priority_never_inverts(prios in proptest::collection::vec(-5i32..5, 1..40)) {
        let q = ServiceQueue::new(Policy::Priority);
        for (i, &p) in prios.iter().enumerate() {
            q.push(Message::new("s", &format!("m{i}"), vec![]).with_priority(p));
        }
        let out = drain(&q);
        prop_assert_eq!(out.len(), prios.len());
        // Non-increasing priority sequence.
        for w in out.windows(2) {
            prop_assert!(w[0].priority >= w[1].priority);
        }
        // FCFS within a priority level.
        for p in -5i32..5 {
            let idxs: Vec<usize> = out
                .iter()
                .filter(|m| m.priority == p)
                .map(|m| m.operation[1..].parse::<usize>().unwrap())
                .collect();
            let mut sorted = idxs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(idxs, sorted, "priority {} not FCFS within level", p);
        }
    }

    #[test]
    fn edf_orders_by_deadline(offsets in proptest::collection::vec(proptest::option::of(1u64..10_000), 1..40)) {
        let q = ServiceQueue::new(Policy::Edf);
        let base = Instant::now() + Duration::from_secs(3600);
        for (i, off) in offsets.iter().enumerate() {
            let mut m = Message::new("s", &format!("m{i}"), vec![]);
            if let Some(ms) = off {
                m = m.with_deadline(base + Duration::from_millis(*ms));
            }
            q.push(m);
        }
        let out = drain(&q);
        prop_assert_eq!(out.len(), offsets.len());
        // All deadline-carrying messages come before deadline-free ones,
        // in non-decreasing deadline order.
        let first_none = out.iter().position(|m| m.deadline.is_none());
        if let Some(cut) = first_none {
            prop_assert!(out[cut..].iter().all(|m| m.deadline.is_none()));
        }
        for w in out.windows(2) {
            if let (Some(a), Some(b)) = (w[0].deadline, w[1].deadline) {
                prop_assert!(a <= b);
            }
        }
    }

    #[test]
    fn nothing_lost_or_duplicated_under_any_policy(
        n in 1usize..60,
        policy_idx in 0usize..3,
    ) {
        let policy = [Policy::Fcfs, Policy::Priority, Policy::Edf][policy_idx];
        let q = ServiceQueue::new(policy);
        for i in 0..n {
            q.push(Message::new("s", &format!("m{i}"), vec![]).with_priority((i % 3) as i32));
        }
        let mut names: Vec<String> = drain(&q).into_iter().map(|m| m.operation).collect();
        names.sort();
        let mut expected: Vec<String> = (0..n).map(|i| format!("m{i}")).collect();
        expected.sort();
        prop_assert_eq!(names, expected);
    }
}

#[test]
fn concurrent_producers_consumers_preserve_messages() {
    use std::sync::Arc;
    let q = Arc::new(ServiceQueue::new(Policy::Fcfs));
    let producers: Vec<_> = (0..4)
        .map(|t| {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..250 {
                    q.push(Message::new("s", &format!("p{t}-{i}"), vec![]));
                }
            })
        })
        .collect();
    let consumed = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let q = q.clone();
            let consumed = consumed.clone();
            std::thread::spawn(move || {
                while let Some(m) = q.pop(Duration::from_millis(100)) {
                    consumed.lock().push(m.operation);
                }
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    for c in consumers {
        c.join().unwrap();
    }
    let mut got = consumed.lock().clone();
    got.sort();
    let mut expected: Vec<String> = (0..4)
        .flat_map(|t| (0..250).map(move |i| format!("p{t}-{i}")))
        .collect();
    expected.sort();
    assert_eq!(got, expected);
}
