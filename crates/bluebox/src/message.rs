//! Messages and faults.

use std::sync::OnceLock;
use std::time::Instant;

/// A message's string headers, kept as a vector sorted by key.
///
/// A message carries one to four headers, so a binary search over one
/// small allocation beats a `BTreeMap`'s node. Iteration is in key
/// order, exactly as a `BTreeMap`'s would be, so anything hashed or
/// encoded from the headers (chaos message keys, wire frames) is
/// unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers(Vec<(String, String)>);

impl Headers {
    /// No headers.
    pub fn new() -> Headers {
        Headers(Vec::new())
    }

    fn find(&self, k: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(key, _)| key.as_str().cmp(k))
    }

    /// The value under `k`.
    pub fn get(&self, k: &str) -> Option<&str> {
        self.find(k).ok().map(|i| self.0[i].1.as_str())
    }

    /// Whether a value is set under `k`.
    pub fn contains_key(&self, k: &str) -> bool {
        self.find(k).is_ok()
    }

    /// Set `k` to `v`; the value it replaces, if any.
    pub fn insert(&mut self, k: String, v: String) -> Option<String> {
        match self.find(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, v)),
            Err(i) => {
                self.0.insert(i, (k, v));
                None
            }
        }
    }

    /// The headers in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &String)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl FromIterator<(String, String)> for Headers {
    /// Later pairs replace earlier ones under the same key, as a map's
    /// `collect` does.
    fn from_iter<I: IntoIterator<Item = (String, String)>>(pairs: I) -> Headers {
        let mut headers = Headers::new();
        for (k, v) in pairs {
            headers.insert(k, v);
        }
        headers
    }
}

/// Where a service's reply (if any) should go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyTo {
    /// Fire-and-forget: replies are dropped.
    Nowhere,
    /// A synchronous caller is blocked on this correlation id.
    Caller {
        /// Correlation id of the pending call.
        correlation: u64,
    },
    /// Deliver the reply as a *new request* to any instance of a service
    /// — the mechanism behind `ResumeFromCall` (§3.2): the response goes
    /// back to the message queue, not to the sending instance.
    Service {
        /// Target service.
        service: String,
        /// Target operation.
        operation: String,
        /// Correlation id copied into the reply's headers.
        correlation: u64,
    },
}

/// A queued message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Broker-assigned id.
    pub id: u64,
    /// Destination service.
    pub service: String,
    /// Destination operation.
    pub operation: String,
    /// String headers (correlation ids, fiber ids, ...).
    pub headers: Headers,
    /// Opaque payload (the embedder's serialized value).
    pub body: Vec<u8>,
    /// Larger is more urgent. Only [`Policy::Priority`] ranks by it, and
    /// only the queue's property tests run that policy: clusters run
    /// FCFS (EDF in the `sec5-scheduling` experiment), so the low
    /// priority `AwakeFiber` messages carry per §5 has no effect.
    ///
    /// [`Policy::Priority`]: crate::Policy::Priority
    pub priority: i32,
    /// Soft deadline used by the EDF scheduling policy (§5 future work).
    pub deadline: Option<Instant>,
    /// Where the handler's reply goes.
    pub reply_to: ReplyTo,
    /// Placement hint: the node whose fiber cache most likely holds this
    /// message's continuation (the node that last saved it). The queue
    /// *prefers* delivering to a consumer on this node but never requires
    /// it — see `ServiceQueue` for the slack/steal rules — so routing
    /// degrades to plain load balancing when the node is dead or behind.
    pub affinity: Option<u32>,
    /// Time the message entered the queue; stamped by the broker on
    /// send.
    pub enqueued_at: Instant,
    /// Number of times this delivery was re-queued after instance
    /// failure.
    pub redeliveries: u32,
    /// Speculative-persistence gate: the store watermark that must be
    /// durable before this message may be delivered (0 = no gate). Set
    /// by senders whose causally-preceding save got a deferred
    /// durability ticket (Vinz's `DurabilityTicket`); the cluster parks the message until the
    /// commit watermark passes it.
    pub hold_until: u64,
    /// How long the message sat parked behind its `hold_until` gate, in
    /// nanoseconds; stamped by the broker on release. Queue-wait
    /// accounting subtracts it, so durability holds and genuine queue
    /// time are attributed to separate latency phases. Zero when the
    /// message never parked (synchronous stores).
    pub held_nanos: u64,
}

impl Message {
    /// Build a message; the broker assigns `id` and `enqueued_at` on
    /// send, so the clock is not read here.
    pub fn new(service: &str, operation: &str, body: Vec<u8>) -> Message {
        Message {
            id: 0,
            service: service.to_string(),
            operation: operation.to_string(),
            headers: Headers::new(),
            body,
            priority: 0,
            deadline: None,
            reply_to: ReplyTo::Nowhere,
            affinity: None,
            enqueued_at: unsent(),
            redeliveries: 0,
            hold_until: 0,
            held_nanos: 0,
        }
    }

    /// Builder: set the affinity placement hint.
    pub fn with_affinity(mut self, node: u32) -> Message {
        self.affinity = Some(node);
        self
    }

    /// Builder: gate delivery on a store watermark (speculative
    /// persistence — see the `hold_until` field).
    pub fn with_hold_until(mut self, watermark: u64) -> Message {
        self.hold_until = watermark;
        self
    }

    /// Builder: set a header.
    pub fn header(mut self, k: &str, v: impl Into<String>) -> Message {
        self.headers.insert(k.to_string(), v.into());
        self
    }

    /// Builder: set priority.
    pub fn with_priority(mut self, p: i32) -> Message {
        self.priority = p;
        self
    }

    /// Builder: set a deadline.
    pub fn with_deadline(mut self, d: Instant) -> Message {
        self.deadline = Some(d);
        self
    }

    /// Header accessor.
    pub fn get_header(&self, k: &str) -> Option<&str> {
        self.headers.get(k)
    }
}

/// The `enqueued_at` of a message not yet sent: one instant per
/// process, taken once, since [`crate::Cluster::send`] stamps the real
/// one.
fn unsent() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A service fault: a QName-style code plus a message, which Vinz turns
/// into a Gozer condition (§3.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// Designator, conventionally `{namespace}Code`.
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl Fault {
    /// Build a fault.
    pub fn new(code: &str, message: impl Into<String>) -> Fault {
        Fault {
            code: code.to_string(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosConfig, ChaosPlan, ChaosRng};
    use std::collections::BTreeMap;

    /// Over seeded insert/replace sequences, `Headers` answers and
    /// iterates exactly like a `BTreeMap` fed the same operations. Keys
    /// `h0`…`h11` make string order differ from numeric order.
    #[test]
    fn headers_behave_like_a_btreemap() {
        for seed in 0..64u64 {
            let mut rng = ChaosRng::new(seed);
            let mut headers = Headers::new();
            let mut model = BTreeMap::new();
            for step in 0..40 {
                let k = format!("h{}", rng.below(12));
                let v = format!("v{step}");
                assert_eq!(
                    headers.insert(k.clone(), v.clone()),
                    model.insert(k.clone(), v),
                    "seed {seed} step {step}"
                );
                assert_eq!(headers.get(&k), model.get(&k).map(String::as_str));
                assert_eq!(headers.len(), model.len());
                assert!(headers.iter().eq(model.iter()), "seed {seed} step {step}");
                let probe = format!("h{}", rng.below(16));
                assert_eq!(headers.contains_key(&probe), model.contains_key(&probe));
            }
            let collected: Headers = model.clone().into_iter().rev().collect();
            assert_eq!(collected, headers, "seed {seed}");
        }
    }

    /// A message whose headers were set out of key order keeps the chaos
    /// key, and so every fault decision, it had when headers were a
    /// `BTreeMap` (the values below were computed with that type).
    #[test]
    fn chaos_decisions_for_a_multi_header_message_are_unchanged() {
        let m = Message::new("wf", "AwakeFiber", b"body".to_vec())
            .header("task-id", "task-7")
            .header("fiber-id", "task-7/f0")
            .header("from-child", "task-7/f3")
            .header("correlation", "12");
        let key = ChaosPlan::message_key(&m);
        assert_eq!(key, 0x2a37_e554_b926_63c6);
        let decisions: Vec<String> = (0..32)
            .map(|seed| {
                let plan = ChaosPlan::new(ChaosConfig::turbulence(seed));
                format!(
                    "{:?}/{}/{}/{:?}",
                    plan.decide_delivery(key, 0),
                    plan.decide_crash_after(key),
                    plan.decide_duplicate(key),
                    plan.decide_reorder(key)
                )
            })
            .collect();
        let before = [
            "Deliver/false/false/None",
            "DropRedeliver/false/false/None",
            "Deliver/false/false/Some(2)",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "DropRedeliver/false/false/None",
            "Deliver/false/false/None",
            "Delay(1.687ms)/false/false/None",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Deliver/false/false/Some(1)",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Delay(1.464ms)/false/false/Some(2)",
            "Deliver/false/false/Some(2)",
            "Deliver/false/false/Some(1)",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "DropRedeliver/false/false/Some(1)",
            "Deliver/false/true/None",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Delay(1.924ms)/false/false/Some(1)",
            "Delay(1.754ms)/false/false/None",
            "Deliver/false/false/Some(3)",
            "Deliver/false/false/None",
            "Deliver/false/false/None",
            "Delay(1.285ms)/false/false/Some(3)",
            "Deliver/false/false/None",
            "DropRedeliver/false/false/None",
        ];
        assert_eq!(decisions, before);
    }

    #[test]
    fn builders() {
        let m = Message::new("svc", "Op", vec![1, 2])
            .header("k", "v")
            .with_priority(3);
        assert_eq!(m.get_header("k"), Some("v"));
        assert_eq!(m.priority, 3);
        assert_eq!(m.body, vec![1, 2]);
        assert_eq!(m.reply_to, ReplyTo::Nowhere);
    }

    #[test]
    fn fault_display() {
        let f = Fault::new("{urn:s}Connect", "refused");
        assert_eq!(f.to_string(), "{urn:s}Connect: refused");
    }
}
