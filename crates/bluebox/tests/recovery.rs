//! Integration tests for the lease-based recovery layer: a crashed
//! instance abandons its message; the reaper notices the dead holder,
//! reclaims the lease, and re-queues the message for survivors — or
//! quarantines it once the redelivery budget runs out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{ChaosConfig, ChaosPlan, Cluster, CrashPoint, Message, RecoveryConfig, ServiceCtx};

#[test]
fn reaper_reclaims_lease_without_any_survivor_present() {
    // The old crash path had the dying instance push its message back
    // itself. Now the *broker* must notice: kill the only instance,
    // then spawn the survivor and watch the reclaim counter.
    let cluster = Cluster::new();
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
    cluster.kill_instance(ids[0], CrashPoint::BeforeProcess);
    cluster.send(Message::new("leased", "Op", vec![]));
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.live_instances("leased") > 0 {
        assert!(Instant::now() < deadline, "doomed instance never crashed");
        std::thread::sleep(Duration::from_millis(2));
    }
    // No survivor yet: the message sits leased (not lost, not settled).
    cluster.spawn_instances("leased", 1, 1);
    assert!(cluster.drain("leased", Duration::from_secs(10)));
    assert_eq!(processed.load(Ordering::SeqCst), 1);
    let stats = cluster.recovery_stats();
    assert!(stats.reclaims >= 1, "reaper must have reclaimed the lease");
    assert_eq!(stats.dead_letters, 0);
    cluster.shutdown();
}

#[test]
fn poison_message_dead_letters_after_redelivery_budget() {
    let cluster = Cluster::new();
    cluster.set_recovery(RecoveryConfig {
        redelivery_budget: 3,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(5),
        ..RecoveryConfig::default()
    });
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
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut next_node = 1u32;
    while cluster.dead_letter_total() == 0 {
        assert!(Instant::now() < deadline, "message never dead-lettered");
        if cluster.live_instances("victim") == 0 {
            cluster.spawn_instances("victim", next_node, 2);
            next_node += 1;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cluster.drain("victim", Duration::from_secs(10)));
    let dead = cluster.dead_letters("victim");
    assert_eq!(dead.len(), 1);
    assert_eq!(dead[0].msg.operation, "Poison");
    assert_eq!(dead[0].reason, "redelivery-budget");
    assert!(dead[0].msg.redeliveries >= 3, "budget was spent first");
    assert_eq!(healthy.load(Ordering::SeqCst), 1, "the healthy message got through");
    // The counter is mirrored into the metrics registry under the
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
    let cluster = Cluster::new();
    cluster.set_recovery(RecoveryConfig {
        redelivery_budget: 0,
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        ..RecoveryConfig::default()
    });
    let seen: Arc<parking_lot::Mutex<Vec<(String, String)>>> = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let s2 = seen.clone();
    cluster.on_dead_letter(move |dl| {
        s2.lock().push((dl.service.clone(), dl.msg.operation.clone()));
    });
    cluster.register_service(
        "oneshot",
        None,
        Arc::new(|_: &ServiceCtx, _: &Message| Ok(vec![])),
    );
    // Budget zero: the very first reclaim quarantines instead.
    let ids = cluster.spawn_instances("oneshot", 0, 1);
    cluster.kill_instance(ids[0], CrashPoint::BeforeProcess);
    cluster.send(Message::new("oneshot", "Doomed", vec![]));
    let deadline = Instant::now() + Duration::from_secs(10);
    while cluster.dead_letter_total() == 0 {
        assert!(Instant::now() < deadline, "never quarantined");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(cluster.drain("oneshot", Duration::from_secs(5)), "quarantine settles the lease");
    // Observers run after the settle, so the drain can return first.
    while seen.lock().is_empty() {
        assert!(Instant::now() < deadline, "observer never ran");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(seen.lock().as_slice(), &[("oneshot".to_string(), "Doomed".to_string())]);
    cluster.shutdown();
}

#[test]
fn send_after_delays_delivery() {
    let cluster = Cluster::new();
    let delivered_at: Arc<parking_lot::Mutex<Option<Instant>>> = Arc::new(parking_lot::Mutex::new(None));
    let d2 = delivered_at.clone();
    cluster.register_service(
        "later",
        None,
        Arc::new(move |_: &ServiceCtx, _: &Message| {
            *d2.lock() = Some(Instant::now());
            Ok(vec![])
        }),
    );
    cluster.spawn_instances("later", 0, 1);
    let start = Instant::now();
    cluster.send_after(Message::new("later", "Op", vec![]), Duration::from_millis(50));
    let deadline = Instant::now() + Duration::from_secs(5);
    while delivered_at.lock().is_none() {
        assert!(Instant::now() < deadline, "delayed send never arrived");
        std::thread::sleep(Duration::from_millis(2));
    }
    let at = delivered_at.lock().unwrap();
    assert!(
        at.duration_since(start) >= Duration::from_millis(45),
        "delivery should respect the delay, got {:?}",
        at.duration_since(start)
    );
    cluster.shutdown();
}

#[test]
fn reclaimed_message_keeps_id_and_bumps_redeliveries() {
    let cluster = Cluster::new();
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
    cluster.kill_instance(ids[0], CrashPoint::AfterProcess);
    cluster.send(Message::new("idem", "Op", vec![]));
    let deadline = Instant::now() + Duration::from_secs(5);
    while cluster.live_instances("idem") > 0 {
        assert!(Instant::now() < deadline, "instance never crashed");
        std::thread::sleep(Duration::from_millis(2));
    }
    cluster.spawn_instances("idem", 1, 1);
    assert!(cluster.drain("idem", Duration::from_secs(10)));
    let got = seen.lock();
    assert_eq!(got.len(), 2, "at-least-once: processed, crashed on ack, reclaimed");
    assert_eq!(got[0].0, got[1].0, "broker id (the idempotency key) survives reclaim");
    assert_eq!(got[0].1, 0);
    assert!(got[1].1 >= 1, "redelivery mark set on the reclaimed copy");
    cluster.shutdown();
}
