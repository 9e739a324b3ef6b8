//! Adversarial store-corruption tests: a node handed a corrupt
//! persisted continuation must fail the task through the dead-letter
//! path (PR 4), never wedge it, and corrupt auxiliary records (task-var
//! versions) must not panic instances.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bluebox::{Cluster, Message};
use gozer_lang::Value;
use vinz::{MemStore, StateStore, SupervisorConfig, TaskStatus, VinzConfig, WorkflowService};

const HOLD_WF: &str = "(defun hold () (yield {:reason :hold}) :released)";

fn quiet_config() -> VinzConfig {
    VinzConfig {
        // Supervision off: the orphan scan would otherwise keep
        // re-sending resumes on its own schedule and blur the assertions
        // (the dead-letter observer installs regardless).
        supervision: SupervisorConfig { enabled: false },
        ..VinzConfig::default()
    }
}

fn wait_for_suspension(wf: &WorkflowService) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while wf
        .obs()
        .counters()
        .suspended_fibers
        .load(std::sync::atomic::Ordering::Relaxed)
        == 0
    {
        assert!(Instant::now() < deadline, "fiber never suspended");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn awake(cluster: &Arc<Cluster>, task: &str) {
    cluster.send(
        Message::new("wf", "AwakeFiber", Vec::new()).header("fiber-id", format!("{task}/f0")),
    );
}

/// A corrupt `fiber-v/` meta record (chain pointing at a generation
/// that does not exist) makes every resume fail; the failed deliveries
/// must spend the redelivery budget and dead-letter the task — a
/// terminal `Failed`, not a wedge.
#[test]
fn corrupt_fiber_chain_dead_letters_the_task() {
    let cluster = Cluster::new();
    let store = Arc::new(MemStore::new());
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(HOLD_WF)
        .store(store.clone())
        .config(quiet_config())
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("hold", vec![], None).unwrap();
    wait_for_suspension(&wf);

    // Corrupt the version chain: a version no cache holds and a
    // generation no base snapshot was ever written under.
    let mut garbage = [0u8; 24];
    garbage[0..8].copy_from_slice(&u64::MAX.to_le_bytes()); // version
    garbage[8..16].copy_from_slice(&777_777u64.to_le_bytes()); // generation
    store.put(&format!("fiber-v/{task}/f0"), &garbage).unwrap();

    awake(&cluster, &task);
    let rec = wf
        .wait(&task, Duration::from_secs(30))
        .expect("a corrupt chain must dead-letter the task, not wedge it");
    match rec.status {
        TaskStatus::Failed(c) => assert!(c.matches("dead-letter"), "{c}"),
        other => panic!("expected Failed via quarantine, got {other:?}"),
    }
    assert!(cluster.dead_letter_total() > 0, "quarantine counter moved");
    assert!(
        cluster
            .dead_letters("wf")
            .iter()
            .any(|d| d.msg.operation == "AwakeFiber"),
        "the failing resume is what got quarantined"
    );
    cluster.shutdown();
}

/// A mutated persisted snapshot (bit-flipped base record) is a typed
/// deserialize error on load, which takes the same dead-letter path.
#[test]
fn mutated_snapshot_dead_letters_the_task() {
    let cluster = Cluster::new();
    let store = Arc::new(MemStore::new());
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(HOLD_WF)
        .store(store.clone())
        .config(quiet_config())
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("hold", vec![], None).unwrap();
    wait_for_suspension(&wf);

    // Flip bytes in the middle of the base snapshot payload and bump
    // the meta version so the node cache misses and actually re-loads
    // the mangled record from the store.
    let vkey = format!("fiber-v/{task}/f0");
    let meta = store.get(&vkey).unwrap().expect("meta exists");
    let mut version = [0u8; 8];
    version.copy_from_slice(&meta[0..8]);
    let mut bumped = meta.clone();
    bumped[0..8].copy_from_slice(&(u64::from_le_bytes(version) + 100).to_le_bytes());
    store.put(&vkey, &bumped).unwrap();

    let bkey = format!("fiber/{task}/f0");
    let mut snap = store.get(&bkey).unwrap().expect("base snapshot exists");
    let mid = snap.len() / 2;
    let end = (mid + 8).min(snap.len());
    for b in &mut snap[mid..end] {
        *b ^= 0xA5;
    }
    store.put(&bkey, &snap).unwrap();

    awake(&cluster, &task);
    let rec = wf
        .wait(&task, Duration::from_secs(30))
        .expect("a mangled snapshot must dead-letter the task, not wedge it");
    match rec.status {
        TaskStatus::Failed(c) => assert!(c.matches("dead-letter"), "{c}"),
        other => panic!("expected Failed via quarantine, got {other:?}"),
    }
    cluster.shutdown();
}

/// Regression for the `read_version` slice-copy panic: a truncated
/// task-variable version record (fewer than 8 bytes) must parse
/// length-tolerantly — the workflow still resumes and completes instead
/// of panicking the instance that reads it.
#[test]
fn truncated_taskvar_version_record_does_not_panic() {
    let cluster = Cluster::new();
    let store = Arc::new(MemStore::new());
    let wf = WorkflowService::builder(&cluster, "wf")
        .source(
            "(deftaskvar flag \"adversarial test variable\")
             (defun main ()
               (setf ^flag^ 7)
               (yield {:reason :hold})
               ^flag^)",
        )
        .store(store.clone())
        .config(quiet_config())
        .instances(0, 2)
        .deploy()
        .unwrap();
    let task = wf.start("main", vec![], None).unwrap();
    wait_for_suspension(&wf);

    // Truncate the version record to 3 bytes (little-endian prefix of
    // version 1): the tolerant parse reads a low version, the data
    // record is still present, and the read succeeds.
    store
        .put(&format!("taskvar-v/{task}/flag"), &[1u8, 0, 0])
        .unwrap();

    awake(&cluster, &task);
    let rec = wf
        .wait(&task, Duration::from_secs(30))
        .expect("a truncated version record must not wedge or panic");
    assert_eq!(rec.status, TaskStatus::Completed(Value::Int(7)));
    cluster.shutdown();
}
