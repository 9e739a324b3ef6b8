//! Integration tests for the lease-based recovery layer: a crashed
//! instance abandons its message; the reaper notices the dead holder,
//! reclaims the lease, and re-queues the message for survivors — or
//! quarantines it once the redelivery budget runs out.
//!
//! Every cluster here runs on a manual clock: a test reaches a lease
//! expiry or a backoff by advancing the clock, never by sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::recovery::{BACKOFF_BASE, BACKOFF_MAX, LEASE_TTL, REDELIVERY_BUDGET, SCAN_INTERVAL};
use bluebox::{
    ChaosConfig, ChaosPlan, Clock, Cluster, DeadLetter, Deployment, Fault, FaultPoint, Message,
    RemoteDelivery, ReplyTo, ServiceCtx, TcpBroker, TcpBrokerConfig, TcpWorker, WorkerConfig,
    WorkerCtx,
};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

/// A cluster on a manual clock, and the clock.
fn manual_cluster() -> (Arc<Cluster>, Clock) {
    let clock = Clock::manual();
    (Cluster::with_clock(clock.clone()), clock)
}

/// Advance `clock` by `step` once per reaper scan until `done` holds;
/// panic after 20 s of real time.
fn advance_until(clock: &Clock, step: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "not done after 20 s of real time");
        clock.advance(step);
        std::thread::sleep(SCAN_INTERVAL);
    }
}

/// Poll for a cross-thread effect; panic with `what` after 10 s.
fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Keep `service` staffed with two fresh instances per node while
/// poison eats them, advancing the clock one maximal backoff per scan,
/// until a message of it is dead-lettered.
fn staff_until_dead_lettered(cluster: &Arc<Cluster>, clock: &Clock, service: &str) {
    let mut next_node = 1u32;
    advance_until(clock, BACKOFF_MAX, || {
        if cluster.live_instances(service) == 0 {
            cluster.spawn_instances(service, next_node, 2);
            next_node += 1;
        }
        cluster.dead_letter_total() > 0
    });
}

#[test]
fn reaper_reclaims_lease_without_any_survivor_present() {
    // The old crash path had the dying instance push its message back
    // itself. Now the *broker* must notice: kill the only instance,
    // then spawn the survivor and watch the reclaim counter.
    let (cluster, clock) = manual_cluster();
    let processed = Arc::new(AtomicU64::new(0));
    let p2 = processed.clone();
    cluster.register_service(
        "leased",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            p2.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    let ids = cluster.spawn_instances("leased", 0, 1);
    cluster.kill_instance(ids[0], FaultPoint::BeforeProcess);
    cluster.send(Message::new("leased", "Op", vec![]));
    wait_for("doomed instance never crashed", || cluster.live_instances("leased") == 0);
    // No survivor yet: the message sits leased (not lost, not settled).
    cluster.spawn_instances("leased", 1, 1);
    advance_until(&clock, BACKOFF_BASE, || processed.load(Ordering::SeqCst) == 1);
    assert!(cluster.drain("leased", Duration::from_secs(10)));
    assert_eq!(processed.load(Ordering::SeqCst), 1);
    let stats = cluster.recovery_stats();
    assert!(stats.reclaims >= 1, "reaper must have reclaimed the lease");
    assert_eq!(stats.dead_letters, 0);
    cluster.shutdown();
}

#[test]
fn poison_message_dead_letters_after_redelivery_budget() {
    let (cluster, clock) = manual_cluster();
    // Every delivery of "Poison" crashes its instance before the
    // handler runs; other operations are untouched.
    cluster.set_chaos(ChaosPlan::new(ChaosConfig::poison(7, "Poison")));
    let healthy = Arc::new(AtomicU64::new(0));
    let h2 = healthy.clone();
    cluster.register_service(
        "victim",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            h2.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("victim", 0, 2);
    cluster.send(Message::new("victim", "Poison", vec![]));
    cluster.send(Message::new("victim", "Fine", vec![]));

    // Keep the service staffed while chaos eats instances, until the
    // poison message lands in quarantine.
    staff_until_dead_lettered(&cluster, &clock, "victim");
    assert!(cluster.drain("victim", Duration::from_secs(10)));
    let dead = cluster.dead_letters("victim");
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].msg.operation, "Poison");
    assert_eq!(dead[0].reason, "redelivery-budget");
    assert_eq!(dead[0].msg.redeliveries, REDELIVERY_BUDGET, "budget was spent first");
    assert_eq!(healthy.load(Ordering::SeqCst), 1, "the healthy message got through");
    // The registry adopts the counter under the
    // paper-facing name.
    let text = cluster.obs().registry.render_text();
    assert!(
        text.contains("gozer_dead_letters_total"),
        "metrics export must carry the dead-letter counter:\n{text}"
    );
    cluster.shutdown();
}

#[test]
fn dead_letter_observers_fire_on_quarantine() {
    let (cluster, clock) = manual_cluster();
    cluster.set_chaos(ChaosPlan::new(ChaosConfig::poison(7, "Doomed")));
    /// A deployment that records every dead letter it is told of.
    struct Recorder(Arc<parking_lot::Mutex<Vec<(String, String)>>>);
    impl Deployment for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }
        fn dead_lettered(&self, dl: &DeadLetter) {
            self.0.lock().push((dl.service.clone(), dl.msg.operation.clone()));
        }
    }
    let seen: Arc<parking_lot::Mutex<Vec<(String, String)>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    cluster.attach(Arc::new(Recorder(seen.clone()))).unwrap();
    cluster.register_service(
        "oneshot",
        None,
        Arc::new(|_: &ServiceCtx, _: &Message| Ok(vec![])),
    );
    // Every delivery crashes its instance, so the reclaim after the
    // last redelivery the budget allows quarantines instead.
    cluster.send(Message::new("oneshot", "Doomed", vec![]));
    staff_until_dead_lettered(&cluster, &clock, "oneshot");
    assert!(cluster.drain("oneshot", Duration::from_secs(5)), "quarantine settles the lease");
    // Observers run after the settle, so the drain can return first.
    wait_for("observer never ran", || !seen.lock().is_empty());
    assert_eq!(seen.lock().as_slice(), &[("oneshot".to_string(), "Doomed".to_string())]);
    cluster.shutdown();
}

/// A delayed send is released by the first scan at or past its due
/// time on the cluster's clock, not before: a marker due 1 ms earlier
/// arrives alone (a scan that released both would deliver the earlier
/// `send_after` first), and the delayed send follows once the clock
/// reaches its due time.
#[test]
fn send_after_delays_delivery() {
    let (cluster, clock) = manual_cluster();
    let delivered: Arc<parking_lot::Mutex<Vec<String>>> = Arc::default();
    let d2 = delivered.clone();
    cluster.register_service(
        "later",
        None,
        Arc::new(move |_: &ServiceCtx, msg: &Message| {
            d2.lock().push(msg.operation.clone());
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("later", 0, 1);
    cluster.send_after(Message::new("later", "Delayed", vec![]), Duration::from_millis(50));
    clock.advance(Duration::from_millis(40));
    cluster.send_after(Message::new("later", "Marker", vec![]), Duration::from_millis(9));
    clock.advance(Duration::from_millis(9));
    wait_for("the marker never arrived", || !delivered.lock().is_empty());
    assert_eq!(*delivered.lock(), ["Marker"], "released before its due time");
    clock.advance(Duration::from_millis(1));
    wait_for("the delayed send never arrived", || delivered.lock().len() == 2);
    assert_eq!(*delivered.lock(), ["Marker", "Delayed"]);
    cluster.shutdown();
}

#[test]
fn reclaimed_message_keeps_id_and_bumps_redeliveries() {
    let (cluster, clock) = manual_cluster();
    let seen: Arc<parking_lot::Mutex<Vec<(u64, u32)>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    cluster.register_service(
        "idem",
        None,
        Arc::new(move |_: &ServiceCtx, msg: &Message| {
            s2.lock().push((msg.id, msg.redeliveries));
            Ok(vec![])
        }),
    );
    let ids = cluster.spawn_instances("idem", 0, 1);
    cluster.kill_instance(ids[0], FaultPoint::AfterProcess);
    cluster.send(Message::new("idem", "Op", vec![]));
    wait_for("instance never crashed", || cluster.live_instances("idem") == 0);
    cluster.spawn_instances("idem", 1, 1);
    advance_until(&clock, BACKOFF_BASE, || seen.lock().len() == 2);
    assert!(cluster.drain("idem", Duration::from_secs(10)));
    let got = seen.lock();
    assert_eq!(got.len(), 2, "at-least-once: processed, crashed on ack, reclaimed");
    assert_eq!(got[0].0, got[1].0, "broker id (the idempotency key) survives reclaim");
    assert_eq!(got[0].1, 0);
    assert!(got[1].1 >= 1, "redelivery mark set on the reclaimed copy");
    cluster.shutdown();
}

/// The two kinds of instance slot a service can be served by.
#[derive(Debug, Clone, Copy)]
enum SlotKind {
    Local,
    TcpWorker,
}

/// What the "slow" service's handler does with one delivery, whichever
/// slot runs it. The first delivery waits (while the test moves the
/// clock past its lease TTL) until the test opens `first`; a redelivery announces itself and waits
/// until the test opens `redelivery`; a `Probe` just counts.
struct SlowService {
    first: Receiver<()>,
    redelivery: Receiver<()>,
    redelivered: Sender<()>,
    probed: Sender<()>,
}

impl SlowService {
    fn handle(&self, operation: &str, redeliveries: u32) -> Result<Vec<u8>, Fault> {
        let gate_limit = Duration::from_secs(20);
        if operation == "Probe" {
            let _ = self.probed.send(());
        } else if redeliveries == 0 {
            // Opened by dropping the sender: every waiter passes.
            assert_eq!(
                self.first.recv_timeout(gate_limit),
                Err(RecvTimeoutError::Disconnected)
            );
        } else {
            let _ = self.redelivered.send(());
            assert_eq!(
                self.redelivery.recv_timeout(gate_limit),
                Err(RecvTimeoutError::Disconnected)
            );
        }
        Ok(b"done".to_vec())
    }
}

/// The settle rule: only the instance that still holds a message's
/// lease may route its reply and settle the queue. A first delivery
/// that outlives its lease comes back after the message was reclaimed
/// and redelivered; its result must be dropped. Otherwise the reply
/// goes out twice and the extra queue settle lets `drain` report idle
/// while the redelivery is still in flight. One row per slot kind.
#[test]
fn late_result_after_reclaim_is_dropped_for_every_slot_kind() {
    for kind in [SlotKind::Local, SlotKind::TcpWorker] {
        late_result_is_dropped(kind);
    }
}

fn late_result_is_dropped(kind: SlotKind) {
    let (cluster, clock) = manual_cluster();
    let replies = Arc::new(AtomicU64::new(0));
    let sink_replies = replies.clone();
    cluster.register_service(
        "sink",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            sink_replies.fetch_add(1, Ordering::SeqCst);
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("sink", 0, 1);

    let (open_first, first) = unbounded::<()>();
    let (open_redelivery, redelivery) = unbounded::<()>();
    let (redelivered, redelivery_started) = unbounded();
    let (probed, probe_done) = unbounded();
    let slow = Arc::new(SlowService {
        first,
        redelivery,
        redelivered,
        probed,
    });
    let mut worker = None;
    match kind {
        SlotKind::Local => {
            let slow = slow.clone();
            cluster.register_service(
                "slow",
                None,
                Arc::new(move |_: &ServiceCtx, msg: &Message| {
                    slow.handle(&msg.operation, msg.redeliveries)
                }),
            );
            cluster.spawn_instances("slow", 0, 2);
        }
        SlotKind::TcpWorker => {
            let broker =
                TcpBroker::start(&cluster, "127.0.0.1:0", TcpBrokerConfig::default()).unwrap();
            let slow = slow.clone();
            let handler = Arc::new(move |_: &WorkerCtx, d: &RemoteDelivery| {
                slow.handle(&d.operation, d.redeliveries)
            });
            worker = Some(TcpWorker::spawn(
                WorkerConfig::new(broker.addr().to_string(), "slow", 2),
                handler,
            ));
        }
    }
    wait_for(&format!("{kind:?}: slots never came up"), || cluster.live_instances("slow") == 2);

    let mut request = Message::new("slow", "Work", vec![]);
    request.reply_to = ReplyTo::Service {
        service: "sink".into(),
        operation: "Reply".into(),
        correlation: cluster.allocate_correlation(),
    };
    cluster.send(request);
    // The first delivery outlives its lease: the reaper reclaims the
    // message and a slot takes the redelivery after its backoff.
    wait_for(&format!("{kind:?}: the first delivery never went out"), || {
        cluster.busy_instances("slow") == 1
    });
    clock.advance(LEASE_TTL + Duration::from_millis(1));
    advance_until(&clock, BACKOFF_BASE, || redelivery_started.try_recv().is_ok());
    // Let the first delivery return. Once the probe behind it is
    // handled, its slot has finished with that late result.
    drop(open_first);
    cluster.send(Message::new("slow", "Probe", vec![]));
    probe_done
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|e| panic!("{kind:?}: the probe was never handled: {e:?}"));
    let idle_with_redelivery_in_flight = cluster.drain("slow", Duration::ZERO);
    drop(open_redelivery);
    assert!(
        cluster.drain("slow", Duration::from_secs(20)),
        "{kind:?}: slow never drained"
    );
    assert!(
        cluster.drain("sink", Duration::from_secs(20)),
        "{kind:?}: sink never drained"
    );
    assert!(
        !idle_with_redelivery_in_flight,
        "{kind:?}: drain returned while the redelivery was still in flight"
    );
    assert_eq!(
        replies.load(Ordering::SeqCst),
        1,
        "{kind:?}: exactly one reply"
    );
    if let Some(worker) = worker {
        worker.stop();
    }
    cluster.shutdown();
}

/// A heartbeat vouches for the worker process and a lease for its own
/// delivery. A one-slot worker serves nine queued deliveries back to
/// back, each moving the clock a third of the lease TTL, so the slot is
/// busy for three TTLs and is never idle when a heartbeat could re-arm
/// it (the broker asks for heartbeats far apart). Each delivery then
/// holds its lease for a few reaper scans at the advanced time. Every
/// lease must be kept: nothing reclaimed, nothing redelivered, no
/// duplicate settle.
#[test]
fn busy_remote_slot_keeps_every_lease() {
    let (cluster, clock) = manual_cluster();
    let cfg = TcpBrokerConfig {
        heartbeat: Duration::from_secs(2),
        liveness_timeout: Duration::from_secs(10),
    };
    let broker = TcpBroker::start(&cluster, "127.0.0.1:0", cfg).unwrap();
    for i in 0..9u8 {
        cluster.send(Message::new("busy", "Work", vec![i]));
    }
    let handled = Arc::new(AtomicU64::new(0));
    let redelivered = Arc::new(AtomicU64::new(0));
    let (seen, seen_redelivered) = (handled.clone(), redelivered.clone());
    let handler = Arc::new(move |_: &WorkerCtx, d: &RemoteDelivery| {
        clock.advance(LEASE_TTL / 3);
        std::thread::sleep(SCAN_INTERVAL * 4);
        seen.fetch_add(1, Ordering::SeqCst);
        if d.redeliveries > 0 {
            seen_redelivered.fetch_add(1, Ordering::SeqCst);
        }
        Ok(Vec::new())
    });
    let worker = TcpWorker::spawn(
        WorkerConfig::new(broker.addr().to_string(), "busy", 1),
        handler,
    );
    assert!(cluster.drain("busy", Duration::from_secs(20)), "busy never drained");
    let tm = broker.transport_metrics().snapshot();
    assert_eq!(redelivered.load(Ordering::SeqCst), 0, "a busy slot's lease was reclaimed");
    assert_eq!(handled.load(Ordering::SeqCst), 9);
    assert_eq!(tm.remote_settles, 9, "one applied settle per delivery");
    assert_eq!(tm.duplicate_settles, 0, "no settle dropped as a duplicate");
    assert_eq!(cluster.recovery_stats().reclaims, 0);
    worker.stop();
    cluster.shutdown();
}
