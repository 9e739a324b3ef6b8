//! LogStore crash-recovery suite: the log-structured backend must give
//! back exactly the durable prefix of history after any crash shape —
//! torn tail appends, half-written group-commit batches, kills between
//! segment rotations — and a workflow deployed on it must be
//! indistinguishable (same results, same opcode counts) from one on the
//! always-durable in-memory store, under the same chaos schedule. And
//! because no fiber-bound message waits for a save, every prefix of the
//! log a crash can leave must be causally closed on its own.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use bluebox::Cluster;
use gozer_lang::Value;
use gozer_serial::{deserialize_state, deserialize_state_delta};
use gozer_vm::Gvm;
use vinz::testing::{
    chaos_seeds, register_square_service, repro_command, run_workflow_under_chaos_store,
    ChaosConfig, ChaosPlan, ChaosRun,
};
use vinz::{LogStore, StateStore, StoreError, TaskStatus, VinzConfig, WorkflowService};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-logstore-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// A cluster serves one workflow deployment. A second deployment's
/// broker hooks would replace the first's: its durability probe would
/// answer for the first's call requests from another store. So the
/// second deploy is refused, and the first, on its log, still completes
/// an async service call.
#[test]
fn a_second_deployment_on_a_cluster_is_refused() {
    let dir = temp_dir("second-deployment");
    let cluster = Cluster::new();
    register_square_service(&cluster, "Square", 1, 1, Duration::ZERO);
    let source = "(deflink S :wsdl \"urn:square\" :port \"Square\")
                  (defun main (n) (S-Square-Method :n n))";
    let first = WorkflowService::builder(&cluster, "first")
        .source(source)
        .store(Arc::new(LogStore::builder(&dir).build().unwrap()))
        .instances(0, 2)
        .deploy()
        .unwrap();
    let refused = WorkflowService::builder(&cluster, "second")
        .source(source)
        .instances(1, 2)
        .deploy()
        .err()
        .expect("a second deployment on one cluster must be refused");
    assert!(refused.0.contains("`first`"), "{refused}");
    let v = first.call("main", vec![Value::Int(7)], Duration::from_secs(30)).unwrap();
    assert_eq!(v, Value::Int(49));
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A deploy that fails to bind its listen or introspection address
/// leaves the cluster unclaimed: a retry on free addresses deploys and
/// serves.
#[test]
fn a_deploy_that_fails_to_bind_leaves_the_cluster_unclaimed() {
    let cluster = Cluster::new();
    register_square_service(&cluster, "Square", 1, 1, Duration::ZERO);
    let source = "(deflink S :wsdl \"urn:square\" :port \"Square\")
                  (defun main (n) (S-Square-Method :n n))";
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let taken_addr = taken.local_addr().unwrap().to_string();
    let failed = WorkflowService::builder(&cluster, "first")
        .source(source)
        .tcp_listen(&taken_addr)
        .deploy()
        .err()
        .expect("a listen address in use must fail the deploy");
    assert!(failed.0.contains("tcp listen"), "{failed}");
    let failed = WorkflowService::builder(&cluster, "second")
        .source(source)
        .introspect(&taken_addr)
        .deploy()
        .err()
        .expect("an introspection address in use must fail the deploy");
    assert!(failed.0.contains("introspect bind"), "{failed}");
    let svc = WorkflowService::builder(&cluster, "third")
        .source(source)
        .tcp_listen("127.0.0.1:0")
        .introspect("127.0.0.1:0")
        .instances(0, 2)
        .deploy()
        .expect("the failed deploys must leave the cluster unclaimed");
    assert!(cluster.tcp_broker().is_some(), "the retry's broker is up");
    let v = svc.call("main", vec![Value::Int(7)], Duration::from_secs(30)).unwrap();
    assert_eq!(v, Value::Int(49));
    drop(taken);
    cluster.shutdown();
}

/// Path of the log's segment `seg` (mirrors the store's layout).
fn seg_path(dir: &std::path::Path, seg: u64) -> PathBuf {
    dir.join(format!("seg-{seg:010}.log"))
}

/// Segment ids present in the store directory, ascending.
fn segments(dir: &std::path::Path) -> Vec<u64> {
    let mut segs: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().to_string_lossy().into_owned();
            name.strip_prefix("seg-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .collect();
    segs.sort_unstable();
    segs
}

/// Highest-numbered segment file.
fn tail_segment(dir: &std::path::Path) -> PathBuf {
    seg_path(dir, *segments(dir).last().expect("log has segments"))
}

/// Run `body` on its own thread and fail — not stall — if it has not
/// finished by the deadline: a lost wake-up parks two threads on a
/// futex forever, and a hung test blocks CI silently.
fn within<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(deadline)
        .unwrap_or_else(|e| panic!("{what}: not finished after {deadline:?} ({e})"))
}

/// Crash shape 1: the machine dies mid-append, leaving a frame whose
/// bytes stop short. Recovery must truncate exactly the damaged suffix
/// and keep everything before it.
#[test]
fn torn_tail_keeps_durable_prefix() {
    let dir = temp_dir("torn");
    {
        let store = LogStore::builder(&dir).build().unwrap();
        store.put("fiber/a", b"first save").unwrap();
        store.put("fiber/b", b"second save").unwrap();
        store.flush().unwrap();
        store.simulate_crash();
    }
    // Tear the last record: chop bytes off the tail segment's end.
    let tail = tail_segment(&dir);
    let len = std::fs::metadata(&tail).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 4)
        .unwrap();

    let store = LogStore::builder(&dir).build().unwrap();
    // fiber/a's record is intact; fiber/b's was torn and is gone — the
    // durable prefix, nothing more, nothing less.
    assert_eq!(store.get("fiber/a").unwrap(), Some(b"first save".to_vec()));
    assert_eq!(store.get("fiber/b").unwrap(), None);
    // The store is fully writable after truncating the tear.
    store.put("fiber/b", b"rewritten").unwrap();
    store.flush().unwrap();
    assert_eq!(store.get("fiber/b").unwrap(), Some(b"rewritten".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash shape 2: a group-commit batch is one framed record, so a crash
/// that tears it must roll back the *whole* batch — recovery may never
/// surface the meta key without its data key or vice versa.
#[test]
fn partial_group_commit_batch_is_all_or_nothing() {
    let dir = temp_dir("partial-batch");
    {
        let store = LogStore::builder(&dir).build().unwrap();
        store
            .put_batch(&[("fiber/1", b"base snapshot"), ("fiber-v/1", b"v1")])
            .unwrap();
        store.flush().unwrap();
        store
            .put_batch(&[("fiber-d/1/0", b"delta zero"), ("fiber-v/1", b"v2")])
            .unwrap();
        store.flush().unwrap();
        store.simulate_crash();
    }
    // Tear into the second batch's record (both batches share the one
    // segment; the tear lands inside the last frame).
    let tail = tail_segment(&dir);
    let len = std::fs::metadata(&tail).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&tail)
        .unwrap()
        .set_len(len - 3)
        .unwrap();

    let store = LogStore::builder(&dir).build().unwrap();
    // Batch 1 survives whole.
    assert_eq!(
        store.get("fiber/1").unwrap(),
        Some(b"base snapshot".to_vec())
    );
    // Batch 2 vanishes whole: no delta, and the meta key rolled back to
    // batch 1's value — never a v2 meta naming an unwritten delta.
    assert_eq!(store.get("fiber-d/1/0").unwrap(), None);
    assert_eq!(store.get("fiber-v/1").unwrap(), Some(b"v1".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

/// Crash shape 3: death between segment rotations. Tiny segments force
/// a rotation on nearly every record; the crash leaves a freshly
/// created tail segment holding only its magic (and, in the worst
/// case, a half-written magic). Recovery must stitch the full history
/// back together from the many small segments.
#[test]
fn kill_between_segment_rotations_recovers_all_segments() {
    let dir = temp_dir("rotation");
    let payload = vec![7u8; 100];
    {
        // 64-byte segments: every ~100-byte record rotates first.
        let store = LogStore::builder(&dir).segment_bytes(64).build().unwrap();
        for i in 0..12 {
            store.put(&format!("fiber/{i}"), &payload).unwrap();
        }
        store.flush().unwrap();
        store.simulate_crash();
    }
    // The crash happened just after a rotation created the next
    // segment: an empty file with only the magic, plus one where the
    // magic itself was half-written.
    let next = 1 + segments(&dir).last().expect("log has segments");
    std::fs::write(seg_path(&dir, next), b"GZLOG1\0\0").unwrap();
    std::fs::write(seg_path(&dir, next + 1), b"GZL").unwrap();

    let store = LogStore::builder(&dir).segment_bytes(64).build().unwrap();
    for i in 0..12 {
        assert_eq!(
            store.get(&format!("fiber/{i}")).unwrap(),
            Some(payload.clone()),
            "fiber/{i} lost across rotation crash"
        );
    }
    // And the store keeps rotating happily after recovery.
    for i in 12..20 {
        store.put(&format!("fiber/{i}"), &payload).unwrap();
    }
    store.flush().unwrap();
    assert_eq!(store.get("fiber/19").unwrap(), Some(payload));
    let _ = std::fs::remove_dir_all(dir);
}

/// Split a segment's bytes into its magic and its framed records.
fn frames(seg: &[u8]) -> (&[u8], Vec<&[u8]>) {
    let (magic, mut rest) = seg.split_at(8);
    let mut out = Vec::new();
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let (frame, tail) = rest.split_at(8 + len);
        out.push(frame);
        rest = tail;
    }
    (magic, out)
}

/// Crash shape 4: a record goes missing from the *middle* of the tail
/// (the page cache owes nobody write order within one un-fsynced
/// group). The survivor past the hole may embed state read
/// speculatively from the lost write, so recovery must stop at the
/// hole — the durable state is a prefix of commit order — and cut the
/// survivor from disk, or fresh writes reusing its seq would let the
/// next recovery resurrect it.
#[test]
fn hole_in_the_tail_rolls_back_to_the_prefix_before_it() {
    let dir = temp_dir("hole");
    {
        let store = LogStore::builder(&dir).build().unwrap();
        for (key, val) in [
            ("a", "kept"),
            ("b", "lost in the cut"),
            ("c", "past the hole"),
        ] {
            store.put(key, val.as_bytes()).unwrap();
            store.flush().unwrap();
        }
        store.simulate_crash();
    }
    let tail = tail_segment(&dir);
    let bytes = std::fs::read(&tail).unwrap();
    let (magic, recs) = frames(&bytes);
    assert_eq!(recs.len(), 3, "three flushed puts are three records");
    std::fs::write(&tail, [magic, recs[0], recs[2]].concat()).unwrap();

    let store = LogStore::builder(&dir).build().unwrap();
    assert_eq!(store.get("a").unwrap(), Some(b"kept".to_vec()));
    assert_eq!(store.get("b").unwrap(), None);
    assert_eq!(
        store.get("c").unwrap(),
        None,
        "record past the seq gap must roll back with it"
    );
    // New writes reuse the rolled-back seqs; that must be safe because
    // the zombie record was cut from disk.
    store.put("b", b"rewritten").unwrap();
    store.flush().unwrap();
    drop(store);

    let store = LogStore::builder(&dir).build().unwrap();
    assert_eq!(store.get("b").unwrap(), Some(b"rewritten".to_vec()));
    assert_eq!(
        store.get("c").unwrap(),
        None,
        "rolled-back record resurrected by seq reuse"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The multi-partition layout is retired with no compat reader: a
/// directory that still holds one is refused with a typed error rather
/// than opened as an empty store beside the old data.
#[test]
fn multi_partition_directory_is_refused() {
    let dir = temp_dir("old-layout");
    std::fs::create_dir_all(dir.join("p1")).unwrap();
    std::fs::write(dir.join("p1").join("seg-0000000001.log"), b"GZLOG1\0\0").unwrap();
    match LogStore::builder(&dir).build() {
        Err(StoreError::Backend(why)) => assert!(why.contains("multi-partition"), "{why}"),
        Err(other) => panic!("want a Backend error, got {other:?}"),
        Ok(_) => panic!("a partitioned directory must not open"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

// ---- a group is one buffer, one write ------------------------------------

/// A window no test outlives: nothing commits until somebody asks, so
/// everything put before a `flush` is one group.
fn lingering(dir: &Path) -> vinz::LogStoreBuilder {
    LogStore::builder(dir).group_commit_window(Duration::from_secs(60))
}

/// Records in the group under test, and the ops they carry.
const GROUP_RECORDS: usize = 12 + 2;
const GROUP_OPS: u64 = 12 * 2 + 2;

/// The group under test: batches of uneven sizes, overwrites and two
/// deletes among them, one record each. Returns what the store holds
/// once the first `upto` records have been applied and none after.
fn group_batches(store: Option<&LogStore>, upto: usize) -> BTreeMap<String, Vec<u8>> {
    let mut want = BTreeMap::new();
    let mut records = 0;
    for i in 0..12usize {
        let (data, meta) = (format!("g/{i}"), format!("g-v/{}", i % 5));
        let val = vec![i as u8; 3 + (i * 37) % 90];
        let doomed = (i % 5 == 4).then(|| format!("g/{}", i - 3));
        if let Some(store) = store {
            store
                .put_batch(&[(&data, &val), (&meta, data.as_bytes())])
                .unwrap();
            if let Some(doomed) = &doomed {
                store.delete(doomed).unwrap();
            }
        }
        if records < upto {
            want.insert(data.clone(), val);
            want.insert(meta, data.into_bytes());
        }
        records += 1;
        if let Some(doomed) = doomed {
            if records < upto {
                want.remove(&doomed);
            }
            records += 1;
        }
    }
    want
}

fn contents(store: &LogStore) -> BTreeMap<String, Vec<u8>> {
    let keys = store.list("g").unwrap();
    keys.into_iter()
        .map(|k| {
            let v = store.get(&k).unwrap().expect("listed key reads back");
            (k, v)
        })
        .collect()
}

/// However many batches pile up behind the window, the group that
/// commits them costs the kernel one append and one fsync.
#[test]
fn a_group_is_one_write() {
    let dir = temp_dir("one-write");
    let store = lingering(&dir).build().unwrap();
    store.put("earlier", b"its own group").unwrap();
    store.flush().unwrap();
    let before = store.stats();
    let want = group_batches(Some(&store), usize::MAX);
    assert_eq!(store.stats().group_commits, before.group_commits);
    store.flush().unwrap();
    let after = store.stats();
    assert_eq!(
        (
            after.group_commits - before.group_commits,
            after.writes - before.writes,
            after.fsyncs - before.fsyncs,
        ),
        (1, 1, 1),
        "{before:?} -> {after:?}"
    );
    assert_eq!(after.committed_entries - before.committed_entries, GROUP_OPS);
    // From the index (the overlay is retired) and from disk alone.
    assert_eq!(contents(&store), want);
    drop(store);
    let store = LogStore::builder(&dir).build().unwrap();
    assert_eq!(contents(&store), want);
    assert_eq!(store.get("earlier").unwrap(), Some(b"its own group".to_vec()));
    let _ = std::fs::remove_dir_all(dir);
}

/// A group larger than a segment: every rotation inside it first hands
/// the buffered records to the segment it closes, so each segment holds
/// whole records only and the group costs one write per segment touched.
#[test]
fn a_group_straddling_a_rotation_lands_whole() {
    let dir = temp_dir("straddle");
    const SEGMENT: u64 = 300;
    let store = lingering(&dir).segment_bytes(SEGMENT).build().unwrap();
    let want = group_batches(Some(&store), usize::MAX);
    store.flush().unwrap();
    let stats = store.stats();
    let segs = segments(&dir);
    assert!(segs.len() > 3, "the group must span segments: {segs:?}");
    let rotations = segs.len() as u64 - 1;
    assert_eq!(
        (stats.group_commits, stats.writes, stats.fsyncs),
        (1, 1 + rotations, 1 + rotations),
        "{stats:?}"
    );
    // `frames` panics on a frame that runs past its segment's end.
    let mut records = 0;
    for seg in &segs {
        let bytes = std::fs::read(seg_path(&dir, *seg)).unwrap();
        let (_, recs) = frames(&bytes);
        assert!(
            bytes.len() as u64 <= SEGMENT || recs.len() == 1,
            "seg {seg}: {} bytes in {} records",
            bytes.len(),
            recs.len()
        );
        records += recs.len();
    }
    assert_eq!(records, GROUP_RECORDS);
    assert_eq!(contents(&store), want);
    store.simulate_crash();
    drop(store);
    let store = LogStore::builder(&dir).build().unwrap();
    assert_eq!(contents(&store), want);
    let _ = std::fs::remove_dir_all(dir);
}

/// One `write` of N framed records can be torn anywhere. Cut the tail
/// at *every* byte inside the last group: what comes back is exactly
/// the whole records before the cut — the mid-record companion of
/// `every_log_prefix_is_causally_closed`, which cuts between records.
#[test]
fn a_torn_group_recovers_to_a_record_boundary() {
    let dir = temp_dir("torn-group");
    {
        let store = lingering(&dir).build().unwrap();
        store.put("earlier", b"its own group").unwrap();
        store.flush().unwrap();
        group_batches(Some(&store), usize::MAX);
        store.flush().unwrap();
        assert_eq!(store.stats().writes, 2);
        store.simulate_crash();
    }
    let bytes = std::fs::read(tail_segment(&dir)).unwrap();
    let (magic, recs) = frames(&bytes);
    assert_eq!(recs.len(), 1 + GROUP_RECORDS);
    // ends[k]: offset just past record k.
    let ends: Vec<usize> = recs
        .iter()
        .scan(magic.len(), |end, r| {
            *end += r.len();
            Some(*end)
        })
        .collect();
    let scratch = temp_dir("torn-group-cut");
    for cut in ends[0]..=bytes.len() {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(seg_path(&scratch, 1), &bytes[..cut]).unwrap();
        let store = LogStore::builder(&scratch)
            .build()
            .unwrap_or_else(|e| panic!("cut at {cut}: a torn tail is not an error: {e}"));
        // Whole records of the last group that precede the cut.
        let whole = ends.iter().filter(|end| **end <= cut).count() - 1;
        assert_eq!(contents(&store), group_batches(None, whole), "cut at {cut}");
        assert_eq!(store.get("earlier").unwrap(), Some(b"its own group".to_vec()));
        drop(store);
        // And the tear itself is gone from disk.
        assert_eq!(
            std::fs::metadata(seg_path(&scratch, 1)).unwrap().len() as usize,
            ends[whole],
            "cut at {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(scratch);
    let _ = std::fs::remove_dir_all(dir);
}

// ---- shutdown wake-ups ---------------------------------------------------

/// The once-seen hang (ROADMAP): `simulate_crash` and `Drop` used to
/// flip `stop` and notify without the writer's mutex, so a writer that
/// had just tested `stop` and not yet parked slept through the notify
/// and `join()` never returned. Thousands of open → save → flush →
/// shut cycles land in that window within seconds when it exists.
#[test]
fn shutdown_never_misses_the_writer() {
    let dir = temp_dir("shutdown");
    let root = dir.clone();
    within(
        "open/put_batch/flush/shut cycles",
        Duration::from_secs(60),
        move || {
            for i in 0..3000 {
                let dir = root.join(format!("{}", i % 8));
                let _ = std::fs::remove_dir_all(&dir);
                let store = LogStore::builder(&dir).build().unwrap();
                store
                    .put_batch(&[("fiber/1", b"state"), ("fiber-v/1", b"v1")])
                    .unwrap();
                store.flush().unwrap();
                if i % 2 == 0 {
                    store.simulate_crash();
                }
                drop(store);
            }
        },
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Shutdown racing live savers: a crash while another thread is
/// mid-`put` must stop both promptly, every put either lands in the
/// queue before the stop or is refused; and a clean drop right behind a
/// save must drain it without sitting out the window.
#[test]
fn shutdown_races_with_enqueue() {
    let dir = temp_dir("shutdown-race");
    let root = dir.clone();
    within(
        "enqueue-vs-shutdown cycles",
        Duration::from_secs(60),
        move || {
            for i in 0..300 {
                let dir = root.join(format!("{}", i % 8));
                let _ = std::fs::remove_dir_all(&dir);
                let store = Arc::new(
                    LogStore::builder(&dir)
                        .group_commit_window(Duration::from_secs(10))
                        .build()
                        .unwrap(),
                );
                let (go, started) = std::sync::mpsc::channel();
                let saver = {
                    let store = store.clone();
                    std::thread::spawn(move || {
                        let mut n = 0u64;
                        while store.put(&format!("k/{n}"), b"v").is_ok() {
                            if n == 0 {
                                go.send(()).unwrap();
                            }
                            n += 1;
                        }
                        n
                    })
                };
                started.recv().unwrap();
                store.simulate_crash();
                assert!(saver.join().unwrap() > 0);
                drop(store);

                // Clean close right behind an unwaited save.
                let store = LogStore::builder(&dir)
                    .group_commit_window(Duration::from_secs(10))
                    .build()
                    .unwrap();
                store.put("closing", b"drained").unwrap();
                drop(store);
                let store = LogStore::builder(&dir).build().unwrap();
                assert_eq!(store.get("closing").unwrap(), Some(b"drained".to_vec()));
            }
        },
    );
    let _ = std::fs::remove_dir_all(dir);
}

// ---- full-vs-log chaos equivalence ------------------------------------

fn calls_by_name(run: &ChaosRun) -> BTreeMap<String, u64> {
    run.profile
        .functions
        .iter()
        .map(|(name, f)| (name.clone(), f.calls))
        .collect()
}

fn fail_sweep(test: &str, failures: Vec<String>) {
    if failures.is_empty() {
        return;
    }
    let repros: Vec<String> = failures
        .iter()
        .filter_map(|f| f.split(':').next())
        .filter_map(|s| s.strip_prefix("seed "))
        .filter_map(|s| s.trim().parse::<u64>().ok())
        .map(|seed| {
            format!(
                "    {}",
                repro_command("-p vinz --test logstore", test, seed)
            )
        })
        .collect();
    panic!(
        "{} seed(s) failed:\n  {}\n  replay with:\n{}",
        failures.len(),
        failures.join("\n  "),
        repros.join("\n")
    );
}

/// Same shape as the delta-equivalence sweep (PR 5): three frames deep,
/// three sequential fork+joins in the leaf, all resumes deduplicated —
/// per-seed opcode totals are schedule-independent, so the two backends
/// must agree exactly.
const DEEP_SEQ_WF: &str = "
(defun triple (n) (* n 3))
(defun leaf (n)
  (+ (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))))
(defun mid (n) (+ 1 (leaf n)))
(defun main (n) (+ (mid n) 1))
";

/// 16 seeds under the turbulence preset: a deployment persisting to a
/// LogStore — group commit, speculative resume, held messages, the
/// whole protocol — must produce the same value and execute the same
/// opcodes as one on the default MemStore, seed for seed.
#[test]
fn log_store_is_opcode_identical_to_mem_store_sixteen_seeds() {
    let mut failures = Vec::new();
    let mut log_dirs = Vec::new();
    for &seed in &chaos_seeds(16) {
        let run = |store: Option<Arc<dyn StateStore>>, label: &str| -> Result<ChaosRun, String> {
            let r = run_workflow_under_chaos_store(
                DEEP_SEQ_WF,
                "main",
                vec![Value::Int(5)],
                ChaosConfig::turbulence(seed),
                VinzConfig::default(),
                store,
                None,
            )
            .map_err(|e| format!("seed {seed}: {label}: {e}"))?;
            if r.value != Value::Int(47) {
                return Err(format!("seed {seed}: {label}: wrong result {:?}", r.value));
            }
            Ok(r)
        };
        let dir = temp_dir(&format!("equiv-{seed}"));
        // Tiny segments + a real commit window so the sweep crosses
        // rotation, group-commit batching, and compaction constantly.
        let log: Arc<dyn StateStore> = Arc::new(
            LogStore::builder(&dir)
                .segment_bytes(16 * 1024)
                .build()
                .unwrap(),
        );
        log_dirs.push(dir);
        let (mem, log) = match (run(None, "mem"), run(Some(log), "log")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                failures.push(e);
                continue;
            }
        };
        if mem.profile.opcodes != log.profile.opcodes {
            failures.push(format!(
                "seed {seed}: opcode counts diverge between store backends:\n    \
                 mem: {:?}\n    log: {:?}",
                mem.profile.opcodes, log.profile.opcodes
            ));
        }
        let (calls_mem, calls_log) = (calls_by_name(&mem), calls_by_name(&log));
        if calls_mem != calls_log {
            failures.push(format!(
                "seed {seed}: function call counts diverge:\n    mem: {calls_mem:?}\n    \
                 log: {calls_log:?}"
            ));
        }
    }
    for dir in log_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    fail_sweep(
        "log_store_is_opcode_identical_to_mem_store_sixteen_seeds",
        failures,
    );
}

// ---- every recoverable prefix is causally closed -------------------------

/// Sequential fork+join rounds and a `for-each`: every way one fiber's
/// save can be caused by another's (fork, join, child termination).
const FORK_JOIN_FOR_EACH_WF: &str = "
(defun triple (n) (* n 3))
(defun rounds (n)
  (+ (join-process (fork-and-exec #'triple :argument n))
     (join-process (fork-and-exec #'triple :argument n))))
(defun main (n)
  (+ (rounds n) (apply #'+ (for-each (i in (range n)) (* i i)))))
";

/// Run two concurrent `main` tasks under turbulence on a LogStore at
/// `dir`; returns a VM with the workflow loaded (to read continuations
/// back) once everything written is on disk and the store is closed.
fn run_two_tasks_on_log(dir: &Path, seed: u64) -> Result<Arc<Gvm>, String> {
    let cluster = Cluster::new();
    cluster.set_chaos(ChaosPlan::new(ChaosConfig::turbulence(seed)));
    // No compaction: the log must hold the run's whole history, one
    // record per write, for its prefixes to be the crash states.
    let store = LogStore::builder(dir)
        .compact_min_bytes(u64::MAX)
        .build()
        .map_err(|e| format!("seed {seed}: {e}"))?;
    let workflow = WorkflowService::builder(&cluster, "workflow")
        .source(FORK_JOIN_FOR_EACH_WF)
        .store(Arc::new(store))
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .map_err(|e| format!("seed {seed}: deploy failed: {e}"))?;
    let tasks: Vec<(String, i64)> = [4i64, 6]
        .iter()
        .map(|&n| (workflow.start("main", vec![Value::Int(n)], None).unwrap(), n))
        .collect();
    for (task, n) in &tasks {
        let want = Value::Int(6 * n + (0..*n).map(|i| i * i).sum::<i64>());
        match workflow.wait(task, Duration::from_secs(45)).map(|r| r.status) {
            Some(TaskStatus::Completed(v)) if v == want => {}
            other => return Err(format!("seed {seed}: main({n}) ended {other:?}")),
        }
    }
    workflow.store().flush().map_err(|e| format!("seed {seed}: {e}"))?;
    let gvm = workflow.node_runtimes()[0].gvm.clone();
    cluster.shutdown();
    Ok(gvm)
}

/// Why the state recovered from `dir` is not causally closed, if it is
/// not: some record is present whose cause — a write the program made
/// *before* it — is missing.
fn closure_violation(dir: &Path, gvm: &Arc<Gvm>) -> Option<String> {
    let store = LogStore::builder(dir).build().unwrap();
    let has = |key: &str| store.get(key).unwrap().is_some();
    // A fiber has a base snapshot from birth on: under the plain key, or
    // a generation key once its chain was compacted.
    let born = |fiber: &str| {
        let plain = format!("fiber/{fiber}");
        let compacted = format!("{plain}@");
        let keys = store.list(&plain).unwrap();
        keys.iter().any(|k| *k == plain || k.starts_with(&compacted))
    };
    let task_of = |fiber: &str| fiber.split('/').next().unwrap().to_owned();
    for key in store.list("result/").unwrap() {
        let fiber = key.strip_prefix("result/").unwrap();
        if !born(fiber) {
            return Some(format!("{key} without a continuation of {fiber}"));
        }
        if !has(&format!("task-def/{}", task_of(fiber))) {
            return Some(format!("{key} without its task definition"));
        }
    }
    // `children/{parent}/{child}`; a fiber id is `{task}/{fiber}`.
    for key in store.list("children/").unwrap() {
        let mut tail = key.rsplitn(3, '/');
        let (fiber, task) = (tail.next().unwrap(), tail.next().unwrap());
        if !born(&format!("{task}/{fiber}")) {
            return Some(format!("{key} names a child that has no continuation"));
        }
    }
    for key in store.list("fiber/").unwrap() {
        let fiber = key.strip_prefix("fiber/").unwrap();
        if !has(&format!("task-def/{}", task_of(fiber))) {
            return Some(format!("{key} without its task definition"));
        }
    }
    for key in store.list("fiber-v/").unwrap() {
        let fiber = key.strip_prefix("fiber-v/").unwrap();
        // The meta record is what makes a fiber read as suspended; the
        // crumb saying on what came in the same batch.
        if !has(&format!("susp/{fiber}")) {
            return Some(format!("{key} without susp/{fiber}"));
        }
        // The meta record names a base and a delta chain; all of it must
        // be there and load.
        let meta = store.get(&key).unwrap().unwrap();
        let word = |i: usize| u64::from_le_bytes(meta[i * 8..i * 8 + 8].try_into().unwrap());
        let (generation, chain) = (word(1), word(2));
        let base_key = match generation {
            0 => format!("fiber/{fiber}"),
            g => format!("fiber/{fiber}@{g}"),
        };
        let Some(base) = store.get(&base_key).unwrap() else {
            return Some(format!("{key} names {base_key}, which is missing"));
        };
        let mut state = match deserialize_state(&base, gvm) {
            Ok(state) => state,
            Err(e) => return Some(format!("{base_key} does not load: {e}")),
        };
        for k in 0..chain {
            let delta_key = format!("fiber-d/{fiber}/{k}");
            let Some(delta) = store.get(&delta_key).unwrap() else {
                return Some(format!("{key} names {delta_key}, which is missing"));
            };
            state = match deserialize_state_delta(&delta, gvm, &state) {
                Ok(state) => state,
                Err(e) => return Some(format!("{delta_key} does not load: {e}")),
            };
        }
        // A continuation that has consumed a child's wake-up was saved
        // after that child's result was.
        for slot in ["joins-consumed", "awakes-consumed"] {
            let consumed = state.ext.get(slot).and_then(Value::as_list).unwrap_or(&[]);
            for child in consumed.iter().filter_map(Value::as_str) {
                if !has(&format!("result/{child}")) {
                    return Some(format!("{fiber} has {slot} {child} without result/{child}"));
                }
            }
        }
    }
    None
}

/// Happens-before ⊆ seq order, mechanically: fiber-bound messages are
/// not held for the save that caused them, so a crash can cut the log
/// between any two records. Whatever it keeps must stand on its own —
/// a result with its fiber's birth and its task, a listed child with
/// its birth, a suspended fiber with a loadable chain and its crumb, a
/// parent that has seen a child's result with that result. (Holds never changed the
/// order of records, so this passes with or without them.)
#[test]
fn every_log_prefix_is_causally_closed() {
    let failures = within("prefix-closure sweep", Duration::from_secs(240), || {
        let mut failures = Vec::new();
        for &seed in &chaos_seeds(8) {
            let dir = temp_dir(&format!("closure-{seed}"));
            match run_two_tasks_on_log(&dir, seed) {
                Err(e) => failures.push(e),
                Ok(gvm) => {
                    let segs = segments(&dir);
                    assert_eq!(segs.len(), 1, "the run fits one segment");
                    let bytes = std::fs::read(seg_path(&dir, segs[0])).unwrap();
                    let (magic, recs) = frames(&bytes);
                    let cut_dir = temp_dir(&format!("closure-cut-{seed}"));
                    let mut cut = magic.len();
                    for (n, rec) in recs.iter().enumerate() {
                        cut += rec.len();
                        let _ = std::fs::remove_dir_all(&cut_dir);
                        std::fs::create_dir_all(&cut_dir).unwrap();
                        std::fs::write(seg_path(&cut_dir, segs[0]), &bytes[..cut]).unwrap();
                        if let Some(why) = closure_violation(&cut_dir, &gvm) {
                            failures.push(format!(
                                "seed {seed}: log cut after record {} of {}: {why}",
                                n + 1,
                                recs.len()
                            ));
                            break;
                        }
                    }
                    let _ = std::fs::remove_dir_all(cut_dir);
                }
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        failures
    });
    fail_sweep("every_log_prefix_is_causally_closed", failures);
}
