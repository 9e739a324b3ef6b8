//! Integration tests for the simulated cluster: load balancing,
//! request/reply, service-routed replies, failure injection, metrics.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bluebox::{CallError, Cluster, Deployment, Fault, FaultPoint, Message, ReplyTo, ServiceCtx};
use parking_lot::Mutex;

/// A deployment whose store has committed every watermark up to
/// `committed`, and no further.
struct Committed {
    name: &'static str,
    committed: Arc<AtomicU64>,
}

impl Deployment for Committed {
    fn name(&self) -> &str {
        self.name
    }

    fn durable(&self, watermark: u64) -> bool {
        self.committed.load(Ordering::SeqCst) >= watermark
    }
}

/// Attach a [`Committed`] deployment to `cluster`; returns its commit
/// point.
fn attach_committed(cluster: &Cluster) -> Arc<AtomicU64> {
    let committed = Arc::new(AtomicU64::new(0));
    let deployment = Committed { name: "committed", committed: committed.clone() };
    cluster.attach(Arc::new(deployment)).unwrap();
    committed
}

#[test]
fn sync_call_round_trips() {
    let cluster = Cluster::new();
    cluster.register_service(
        "upper",
        None,
        Arc::new(|_: &ServiceCtx, msg: &Message| {
            Ok(String::from_utf8_lossy(&msg.body).to_uppercase().into_bytes())
        }),
    );
    cluster.spawn_instances("upper", 0, 1);
    let reply = cluster
        .call(Message::new("upper", "Up", b"abc".to_vec()), Duration::from_secs(2))
        .unwrap();
    assert_eq!(reply, b"ABC");
    cluster.shutdown();
}

#[test]
fn faults_propagate_to_callers() {
    let cluster = Cluster::new();
    cluster.register_service(
        "flaky",
        None,
        Arc::new(|_: &ServiceCtx, _: &Message| -> Result<Vec<u8>, Fault> {
            Err(Fault::new("{urn:svc}Connect", "connection refused"))
        }),
    );
    cluster.spawn_instances("flaky", 0, 1);
    let err = cluster
        .call(Message::new("flaky", "Op", vec![]), Duration::from_secs(2))
        .unwrap_err();
    match err {
        CallError::Fault(f) => assert_eq!(f.code, "{urn:svc}Connect"),
        other => panic!("expected fault, got {other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn call_to_unstaffed_service_times_out() {
    let cluster = Cluster::new();
    let err = cluster
        .call(Message::new("nobody", "Op", vec![]), Duration::from_millis(100))
        .unwrap_err();
    assert_eq!(err, CallError::Timeout);
    cluster.shutdown();
}

#[test]
fn load_balances_across_instances() {
    let cluster = Cluster::new();
    let seen: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let seen2 = seen.clone();
    cluster.register_service(
        "work",
        None,
        Arc::new(move |ctx: &ServiceCtx, _: &Message| {
            seen2.lock().insert(ctx.instance_id);
            std::thread::sleep(Duration::from_millis(5));
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("work", 0, 4);
    for _ in 0..40 {
        cluster.send(Message::new("work", "Do", vec![]));
    }
    assert!(cluster.drain("work", Duration::from_secs(10)));
    assert!(
        seen.lock().len() >= 3,
        "work should spread across instances, saw {:?}",
        seen.lock()
    );
    cluster.shutdown();
}

#[test]
fn service_routed_reply_reaches_other_service() {
    // A -> B with reply routed to A's "Resume" operation (ResumeFromCall).
    let cluster = Cluster::new();
    let resumed = Arc::new(Mutex::new(Vec::<(String, Vec<u8>)>::new()));
    let resumed2 = resumed.clone();
    cluster.register_service(
        "a",
        None,
        Arc::new(move |_: &ServiceCtx, msg: &Message| {
            if msg.operation == "Resume" {
                resumed2.lock().push((
                    msg.get_header("correlation").unwrap_or("").to_string(),
                    msg.body.clone(),
                ));
            }
            Ok(vec![])
        }),
    );
    cluster.register_service(
        "b",
        None,
        Arc::new(|_: &ServiceCtx, msg: &Message| Ok([msg.body.as_slice(), b"!"].concat())),
    );
    cluster.spawn_instances("a", 0, 1);
    cluster.spawn_instances("b", 0, 1);
    let corr = cluster.allocate_correlation();
    let mut request = Message::new("b", "Shout", b"hey".to_vec());
    request.reply_to = ReplyTo::Service {
        service: "a".into(),
        operation: "Resume".into(),
        correlation: corr,
    };
    cluster.send(request);
    assert!(cluster.drain("b", Duration::from_secs(5)));
    assert!(cluster.drain("a", Duration::from_secs(5)));
    let got = resumed.lock();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, corr.to_string());
    assert_eq!(got[0].1, b"hey!");
    cluster.shutdown();
}

#[test]
fn crash_before_process_redelivers_to_survivor() {
    let cluster = Cluster::new();
    let processed = Arc::new(AtomicU64::new(0));
    let p2 = processed.clone();
    cluster.register_service(
        "resilient",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            p2.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    // Spawn ONLY a doomed instance first so the redelivery is
    // deterministic: it must take the first message and crash.
    let ids = cluster.spawn_instances("resilient", 0, 1);
    cluster.kill_instance(ids[0], FaultPoint::BeforeProcess);
    for _ in 0..10 {
        cluster.send(Message::new("resilient", "Op", vec![]));
    }
    // Wait for the doomed instance to die.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.live_instances("resilient") > 0 {
        assert!(std::time::Instant::now() < deadline, "instance never crashed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(processed.load(Ordering::SeqCst), 0, "doomed instance processed nothing");
    // Survivor picks everything up, including the re-queued delivery.
    cluster.spawn_instances("resilient", 1, 1);
    assert!(cluster.drain("resilient", Duration::from_secs(10)));
    assert_eq!(processed.load(Ordering::SeqCst), 10, "all messages processed");
    let snap = cluster.metrics.snapshot();
    assert!(snap.redelivered >= 1, "the doomed delivery was redelivered");
    cluster.shutdown();
}

#[test]
fn crash_after_process_causes_duplicate_processing() {
    // At-least-once: a crash after processing but before the ack makes
    // the handler run twice — which is why Vinz fiber handlers are
    // guarded by locks and persisted state.
    let cluster = Cluster::new();
    let processed = Arc::new(AtomicU64::new(0));
    let p2 = processed.clone();
    cluster.register_service(
        "dup",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            p2.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    let ids = cluster.spawn_instances("dup", 0, 2);
    cluster.kill_instance(ids[0], FaultPoint::AfterProcess);
    cluster.send(Message::new("dup", "Op", vec![]));
    assert!(cluster.drain("dup", Duration::from_secs(10)));
    // Processed once by the doomed instance + once after redelivery, OR
    // just once if the healthy instance won the race.
    let n = processed.load(Ordering::SeqCst);
    assert!(n == 1 || n == 2, "got {n}");
    cluster.shutdown();
}

#[test]
fn after_process_redelivery_is_idempotent_when_keyed_by_message_id() {
    // The discipline Vinz's fiber handlers follow, distilled: an
    // AfterProcess crash means the work happened but the ack didn't, so
    // the broker *must* redeliver — and a handler that keys its effect
    // by message id applies it exactly once anyway.
    let cluster = Cluster::new();
    let invocations = Arc::new(AtomicU64::new(0));
    let effects: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let redelivered_seen = Arc::new(AtomicU64::new(0));
    let (inv, eff, red) = (invocations.clone(), effects.clone(), redelivered_seen.clone());
    cluster.register_service(
        "ledger",
        None,
        Arc::new(move |_: &ServiceCtx, msg: &Message| {
            inv.fetch_add(1, Ordering::SeqCst);
            if msg.redeliveries > 0 {
                red.fetch_add(1, Ordering::SeqCst);
            }
            // The idempotency key: redelivery re-presents the same
            // broker id, so the effect set ignores the second pass.
            eff.lock().insert(msg.id);
            Ok(vec![])
        }),
    );
    // Only the doomed instance exists at first, so it must take the
    // message, process it, and crash before acknowledging.
    let ids = cluster.spawn_instances("ledger", 0, 1);
    cluster.kill_instance(ids[0], FaultPoint::AfterProcess);
    cluster.send(Message::new("ledger", "Credit", vec![]));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while cluster.live_instances("ledger") > 0 {
        assert!(std::time::Instant::now() < deadline, "instance never crashed");
        std::thread::sleep(Duration::from_millis(2));
    }
    // Survivor receives the redelivery of the already-processed message.
    cluster.spawn_instances("ledger", 1, 1);
    assert!(cluster.drain("ledger", Duration::from_secs(10)));
    assert_eq!(
        invocations.load(Ordering::SeqCst),
        2,
        "handler must observe the at-least-once duplicate"
    );
    assert_eq!(
        redelivered_seen.load(Ordering::SeqCst),
        1,
        "second delivery must carry the redelivery mark"
    );
    assert_eq!(
        effects.lock().len(),
        1,
        "effect keyed by message id applies exactly once"
    );
    cluster.shutdown();
}

#[test]
fn nested_sync_call_occupies_slot() {
    // One instance of "outer" making a blocking nested call can't take
    // other work meanwhile (the §3.2 waste).
    let cluster = Cluster::new();
    cluster.register_service(
        "inner",
        None,
        Arc::new(|_: &ServiceCtx, _: &Message| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(vec![])
        }),
    );
    cluster.register_service(
        "outer",
        None,
        Arc::new(|ctx: &ServiceCtx, _: &Message| {
            ctx.cluster
                .call(Message::new("inner", "Slow", vec![]), Duration::from_secs(5))
                .map_err(|e| Fault::new("nested", e.to_string()))?;
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("inner", 0, 1);
    cluster.spawn_instances("outer", 0, 1);
    cluster.send(Message::new("outer", "Op", vec![]));
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(cluster.busy_instances("outer"), 1, "slot held while blocked");
    assert!(cluster.drain("outer", Duration::from_secs(5)));
    let snap = cluster.metrics.snapshot();
    assert!(
        snap.sync_block_nanos > Duration::from_millis(40).as_nanos() as u64,
        "blocked time recorded: {}ns",
        snap.sync_block_nanos
    );
    cluster.shutdown();
}

#[test]
fn metrics_count_throughput() {
    let cluster = Cluster::new();
    cluster.register_service(
        "m",
        None,
        Arc::new(|_: &ServiceCtx, _: &Message| Ok(vec![])),
    );
    cluster.spawn_instances("m", 0, 2);
    for _ in 0..25 {
        cluster.send(Message::new("m", "Op", vec![]));
    }
    assert!(cluster.drain("m", Duration::from_secs(10)));
    let snap = cluster.metrics.snapshot();
    assert_eq!(snap.sent, 25);
    assert_eq!(snap.completed, 25);
    assert!(snap.max_in_flight >= 1);
    cluster.shutdown();
}

#[test]
fn wsdl_registry_serves_descriptions() {
    use gozer_xml::ServiceDescription;
    let cluster = Cluster::new();
    let desc = ServiceDescription::new("SecurityManager", "urn:security-manager-service")
        .operation("ListSessions", "Lists sessions.", &[("FilterParams", "string")]);
    cluster.register_service(
        "SecurityManager",
        Some(desc.clone()),
        Arc::new(|_: &ServiceCtx, _: &Message| Ok(vec![])),
    );
    assert_eq!(cluster.wsdl("SecurityManager"), Some(desc));
    assert_eq!(cluster.wsdl("Nope"), None);
    cluster.shutdown();
}

#[test]
fn hold_until_parks_messages_until_watermark_commits() {
    let cluster = Cluster::new();
    let delivered = Arc::new(AtomicU64::new(0));
    let seen = delivered.clone();
    cluster.register_service(
        "gated",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("gated", 0, 1);

    // Probe: only watermarks <= the advancing commit point are durable.
    let committed = attach_committed(&cluster);

    // Ungated messages flow immediately.
    cluster.send(Message::new("gated", "Op", vec![]));
    assert!(cluster.drain("gated", Duration::from_secs(2)));
    assert_eq!(delivered.load(Ordering::SeqCst), 1);

    // A gated message parks until note_durable passes its watermark.
    cluster.send(Message::new("gated", "Op", vec![]).with_hold_until(7));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(delivered.load(Ordering::SeqCst), 1, "must be held");
    assert_eq!(cluster.held_count(), 1);

    cluster.note_durable(3); // not far enough
    assert_eq!(cluster.held_count(), 1);
    committed.store(7, Ordering::SeqCst);
    cluster.note_durable(7);
    assert_eq!(cluster.held_count(), 0);
    assert!(cluster.drain("gated", Duration::from_secs(2)));
    assert_eq!(delivered.load(Ordering::SeqCst), 2);
    cluster.shutdown();
}

#[test]
fn reaper_releases_held_messages_as_safety_net() {
    let cluster = Cluster::new();
    let delivered = Arc::new(AtomicU64::new(0));
    let seen = delivered.clone();
    cluster.register_service(
        "gated2",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("gated2", 0, 1);
    let committed = attach_committed(&cluster);

    cluster.send(Message::new("gated2", "Op", vec![]).with_hold_until(1));
    assert_eq!(cluster.held_count(), 1);
    // Advance the commit point but "lose" the hook notification: the
    // reaper's periodic re-probe must still release the message.
    committed.store(1, Ordering::SeqCst);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while delivered.load(Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "reaper never released");
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

/// A cluster serves one deployment: a second `attach` is refused with
/// the first one's name, and the first stays attached (its answers
/// still gate held messages).
#[test]
fn a_second_attach_is_refused_and_names_the_first() {
    let cluster = Cluster::new();
    let committed = Arc::new(AtomicU64::new(0));
    cluster.attach(Arc::new(Committed { name: "first", committed: committed.clone() })).unwrap();
    let second = Committed { name: "second", committed: Arc::new(AtomicU64::new(u64::MAX)) };
    assert_eq!(cluster.attach(Arc::new(second)), Err("first".to_string()));
    cluster.send(Message::new("gated3", "Op", vec![]).with_hold_until(1));
    assert_eq!(cluster.held_count(), 1, "the first deployment still answers");
    committed.store(1, Ordering::SeqCst);
    cluster.note_durable(1);
    assert_eq!(cluster.held_count(), 0);
    cluster.shutdown();
}

/// The cluster holds its deployment: a message held on a watermark is
/// still released by `note_durable` once every handle the embedder
/// kept of the deployment is dropped.
#[test]
fn a_held_message_is_released_after_the_deployment_handle_is_dropped() {
    let cluster = Cluster::new();
    let delivered = Arc::new(AtomicU64::new(0));
    let seen = delivered.clone();
    cluster.register_service(
        "gated4",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("gated4", 0, 1);
    let committed = Arc::new(AtomicU64::new(0));
    let deployment = Arc::new(Committed { name: "dropped", committed: committed.clone() });
    cluster.attach(deployment.clone()).unwrap();
    cluster.send(Message::new("gated4", "Op", vec![]).with_hold_until(5));
    assert_eq!(cluster.held_count(), 1);
    drop(deployment);
    committed.store(5, Ordering::SeqCst);
    cluster.note_durable(5);
    assert_eq!(cluster.held_count(), 0);
    assert!(cluster.drain("gated4", Duration::from_secs(2)));
    assert_eq!(delivered.load(Ordering::SeqCst), 1);
    cluster.shutdown();
}
