//! [`LogStore`]: Netherite-style log-structured persistence.
//!
//! Layout on disk, rooted at the store directory:
//!
//! ```text
//! dir/
//!   checkpoint            framed index snapshot (tmp+rename published)
//!   seg-0000000001.log    the one append-only log, cut into segments
//!   seg-0000000002.log
//!   ...
//! ```
//!
//! Every segment starts with an 8-byte magic and then holds framed
//! *batch records*:
//!
//! ```text
//! [u32 len][u32 crc32(payload)] payload
//! payload = [u64 seq][u32 count] count × ([u8 op][u16 klen][key][u32 vlen][value])
//! ```
//!
//! One `put_batch` is one record — the frame's CRC covers the whole
//! batch, so crash recovery observes all of its entries or none
//! (torn-tail truncation drops the record wholesale). There is one
//! append stream and one writer, so file order is commit order: replay
//! walks the segments in order, requires each new record's `seq` to be
//! exactly one past the last, and cuts the tail segment at the first
//! frame that is torn, malformed or out of sequence. What survives a
//! crash is therefore always a prefix of history. (Compaction rewrites
//! keep their original `seq`; replay recognises them by it.)
//!
//! The group-commit writer thread takes everything enqueued so far,
//! frames it into one buffer, appends that with **one write**, issues
//! **one fsync** for the whole group, advances the durable watermark,
//! fires the commit hook, and wakes `flush` waiters.
//! A write nobody waits on lingers for up to the commit window so later
//! saves can share its fsync; the linger ends the moment somebody asks
//! for a watermark that is not durable yet (a failed
//! [`StateStore::durable`] probe, or `flush`). Groups start at least
//! `GATHER` (500 µs) apart, so under load a group is whatever arrived in that
//! interval, and the commit rate is set by a timer the store owns, not
//! by how fast the device happens to fsync today.
//!
//! Reads are served from the pending overlay (writes not yet committed
//! — read-your-writes), falling back to the in-memory index of
//! `key → (segment, offset)` locations, which only ever points at
//! fsynced bytes.
//!
//! # Wake-up invariants
//!
//! Two condition variables, each with one rule: *the state a waiter
//! tests changes only under the mutex the waiter holds while testing
//! it, and the notify follows the change*. A waiter then either tests
//! after the change (and sees it) or is already parked when the notify
//! is sent; there is no window between its test and its park.
//!
//! * `work_cv` (mutex `pending`) — only the writer waits. Idle, it
//!   tests `queue.is_empty()` and `stop`; lingering, it tests `wanted`
//!   against the durable watermark, `stop`, and a deadline. `queue` and
//!   `wanted` live inside `pending`; `stop` is an atomic (so `flush` can
//!   read it under its own mutex) but is *stored* only with `pending`
//!   held — see `LogStore::shut`. The durable watermark is advanced
//!   by the writer itself, never while it waits.
//! * `commit_cv` (mutex `commit`) — `flush` callers wait. They test
//!   `durable`, `failed` and `stop == CRASHED`. The first two live
//!   inside `commit`. `stop` is stored under `pending`, not `commit`, so
//!   `shut` takes and releases `commit` between the store and its
//!   `notify_all`: a waiter that tested the old value holds `commit`
//!   until it is parked, so by the time `shut` gets the mutex the waiter
//!   can be notified.
//!
//! Lock order: a caller's own locks (the broker probes under its
//! held-message list) → `pending`. The writer holds none of the store's
//! locks while it calls the commit hook.

use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use rustc_hash::FxHashMap;

use super::{CommitHook, DurabilityTicket, StateStore, StoreError, Watermark};

const SEG_MAGIC: &[u8; 8] = b"GZLOG1\0\0";
const CKPT_MAGIC: &[u8; 4] = b"GZK2";
const OP_PUT: u8 = 1;
const OP_DELETE: u8 = 2;

// `stop` only ever moves up this list.
const RUNNING: u8 = 0;
const STOPPING: u8 = 1;
const CRASHED: u8 = 2;

/// Group commits start at least this far apart (or `window`, if that is
/// shorter). Savers whose next save follows a commit sooner than the
/// device can fsync would otherwise never share one: each save arrives
/// while the other's fsync runs and gets an fsync of its own, and the
/// store's throughput *is* the device's fsync latency, drift included.
const GATHER: Duration = Duration::from_micros(500);

/// Where a committed value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    /// Sequence number of the batch that wrote it.
    seq: u64,
    seg: u64,
    /// Byte offset of the value within the segment file.
    off: u64,
    len: u32,
}

/// One key's share of a queued batch.
struct PendingOp {
    key: String,
    /// `None` is a delete.
    val: Option<Arc<Vec<u8>>>,
}

struct QueueEntry {
    seq: u64,
    queued: Instant,
    ops: Vec<PendingOp>,
}

struct OverlayVal {
    seq: u64,
    val: Option<Arc<Vec<u8>>>,
}

#[derive(Default)]
struct PendingState {
    /// Read-your-writes view of everything enqueued but not yet
    /// committed; cleared per-key as commits catch up.
    overlay: FxHashMap<String, OverlayVal>,
    /// In `seq` order.
    queue: Vec<QueueEntry>,
    /// Highest watermark somebody is known to be waiting for. While it
    /// is ahead of the durable watermark the writer does not linger.
    wanted: u64,
}

struct CommitState {
    durable: u64,
    /// Set once, by the writer, when an append or fsync fails; the
    /// writer then exits and every later write or flush reports it.
    failed: Option<StoreError>,
}

/// The append end of the log and its space accounting. Owned by the
/// commit thread: one stream, one writer.
struct Tail {
    seg_id: u64,
    file: File,
    /// Bytes appended to the current segment (including its magic).
    seg_bytes: u64,
    /// Value bytes currently referenced by the index.
    live: u64,
    /// Value bytes superseded or deleted but still on disk.
    dead: u64,
    /// Framed records not yet handed to `file`, where they will start at
    /// `seg_bytes`. Reused from group to group; a rotation empties it.
    group: Vec<u8>,
}

/// Point-in-time counters for benches and smoke checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    /// fsync calls issued by the commit path (group commits + rotations
    /// + compactions).
    pub fsyncs: u64,
    /// Append writes issued by the commit path (group commits + rotations + compacted records).
    pub writes: u64,
    /// Group commits completed.
    pub group_commits: u64,
    /// Individual save/delete operations made durable.
    pub committed_entries: u64,
    /// Bytes appended to segment files.
    pub log_bytes: u64,
    /// Checkpoints published.
    pub checkpoints: u64,
    /// Log compactions completed.
    pub compactions: u64,
}

/// The counters behind [`LogStats`]; the metrics registry adopts four
/// of them when the store is attached to a deployment.
#[derive(Default)]
struct StatCells {
    fsyncs: Arc<AtomicU64>,
    writes: AtomicU64,
    group_commits: Arc<AtomicU64>,
    committed_entries: AtomicU64,
    log_bytes: Arc<AtomicU64>,
    checkpoints: AtomicU64,
    compactions: Arc<AtomicU64>,
    /// Enqueue-to-durable latency of each committed entry.
    commit_latency: Arc<gozer_obs::Histogram>,
}

struct LogInner {
    dir: PathBuf,
    segment_bytes: u64,
    window: Duration,
    compact_dead_ratio: f64,
    compact_min_bytes: u64,

    index: RwLock<FxHashMap<String, Loc>>,
    pending: Mutex<PendingState>,
    work_cv: Condvar,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Mirror of `commit.durable` for the lock-free probe.
    durable_seq: AtomicU64,
    next_seq: AtomicU64,
    stop: AtomicU8,

    readers: Mutex<FxHashMap<u64, Arc<File>>>,

    written: AtomicU64,
    read: AtomicU64,
    stats: StatCells,
    commit_hook: Mutex<Option<CommitHook>>,
}

/// Log-structured [`StateStore`] with group commit and speculative
/// persistence. Construct with [`LogStore::builder`]:
///
/// ```no_run
/// use std::time::Duration;
/// use vinz::LogStore;
/// let store = LogStore::builder("/var/lib/gozer/log")
///     .segment_bytes(8 * 1024 * 1024)
///     .group_commit_window(Duration::from_millis(2))
///     .build()
///     .unwrap();
/// ```
pub struct LogStore {
    inner: Arc<LogInner>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// Configures and opens a [`LogStore`]; see [`LogStore::builder`].
#[derive(Debug, Clone)]
pub struct LogStoreBuilder {
    dir: PathBuf,
    segment_bytes: u64,
    window: Duration,
    compact_dead_ratio: f64,
    compact_min_bytes: u64,
}

impl LogStoreBuilder {
    /// Rotate the log's segment after roughly this many bytes (default
    /// 8 MiB).
    pub fn segment_bytes(mut self, bytes: u64) -> LogStoreBuilder {
        self.segment_bytes = bytes.max(64);
        self
    }

    /// The longest a write that nobody waits on stays volatile before
    /// the commit thread fsyncs it, so that later saves can share the
    /// fsync (default 2 ms, at most an hour). A write somebody *does*
    /// wait on — a failed [`StateStore::durable`] probe for its ticket,
    /// or a `flush` — goes into the next group, whatever the window;
    /// groups start at least 500 µs apart (or this window, if shorter).
    pub fn group_commit_window(mut self, window: Duration) -> LogStoreBuilder {
        self.window = window.min(Duration::from_secs(3600));
        self
    }

    /// Compact the log once this fraction of its value bytes is dead
    /// (default 0.5).
    pub fn compact_dead_ratio(mut self, ratio: f64) -> LogStoreBuilder {
        self.compact_dead_ratio = ratio.clamp(0.05, 1.0);
        self
    }

    /// Don't bother compacting below this many dead bytes (default
    /// 64 KiB).
    pub fn compact_min_bytes(mut self, bytes: u64) -> LogStoreBuilder {
        self.compact_min_bytes = bytes;
        self
    }

    /// Open the store: create the directory, recover from any existing
    /// checkpoint + segments (truncating a torn tail), and start the
    /// group-commit writer thread. A directory written by the retired
    /// multi-partition layout (`p0/`, `p1/`, …) is refused with a
    /// [`StoreError::Backend`].
    pub fn build(self) -> Result<LogStore, StoreError> {
        LogStore::open(self)
    }
}

impl LogStore {
    /// Start configuring a store rooted at `dir`.
    pub fn builder(dir: impl Into<PathBuf>) -> LogStoreBuilder {
        LogStoreBuilder {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
            window: Duration::from_millis(2),
            compact_dead_ratio: 0.5,
            compact_min_bytes: 64 * 1024,
        }
    }

    fn open(cfg: LogStoreBuilder) -> Result<LogStore, StoreError> {
        fs::create_dir_all(&cfg.dir).map_err(StoreError::io)?;
        refuse_partitioned_layout(&cfg.dir)?;

        let recovered = recover(&cfg.dir)?;

        // Always start appending into a fresh segment: a possibly
        // truncated tail is never written to again, so "one segment,
        // one writer incarnation" holds by construction.
        let seg_id = recovered.max_seg + 1;
        let tail = Tail {
            seg_id,
            file: create_segment(&cfg.dir, seg_id)?,
            seg_bytes: SEG_MAGIC.len() as u64,
            live: recovered.index.values().map(|l| l.len as u64).sum(),
            dead: 0,
            group: Vec::new(),
        };

        let inner = Arc::new(LogInner {
            dir: cfg.dir,
            segment_bytes: cfg.segment_bytes,
            window: cfg.window,
            compact_dead_ratio: cfg.compact_dead_ratio,
            compact_min_bytes: cfg.compact_min_bytes,
            index: RwLock::new(recovered.index),
            pending: Mutex::new(PendingState::default()),
            work_cv: Condvar::new(),
            commit: Mutex::new(CommitState {
                durable: recovered.next_seq,
                failed: None,
            }),
            commit_cv: Condvar::new(),
            durable_seq: AtomicU64::new(recovered.next_seq),
            next_seq: AtomicU64::new(recovered.next_seq),
            stop: AtomicU8::new(RUNNING),
            readers: Mutex::new(FxHashMap::default()),
            written: AtomicU64::new(0),
            read: AtomicU64::new(0),
            stats: StatCells::default(),
            commit_hook: Mutex::new(None),
        });

        let writer_inner = inner.clone();
        let handle = std::thread::Builder::new()
            .name("gozer-log-commit".into())
            .spawn(move || writer_loop(&writer_inner, tail))
            .map_err(StoreError::io)?;

        Ok(LogStore {
            inner,
            writer: Mutex::new(Some(handle)),
        })
    }

    /// Counters for benches and smoke checks.
    pub fn stats(&self) -> LogStats {
        let s = &self.inner.stats;
        LogStats {
            fsyncs: s.fsyncs.load(Ordering::Relaxed),
            writes: s.writes.load(Ordering::Relaxed),
            group_commits: s.group_commits.load(Ordering::Relaxed),
            committed_entries: s.committed_entries.load(Ordering::Relaxed),
            log_bytes: s.log_bytes.load(Ordering::Relaxed),
            checkpoints: s.checkpoints.load(Ordering::Relaxed),
            compactions: s.compactions.load(Ordering::Relaxed),
        }
    }

    /// Kill the commit thread *without* draining pending writes, as a
    /// power cut would: everything enqueued after the last group commit
    /// is lost, everything fsynced survives. The store object rejects
    /// further writes; reopen the directory with a fresh builder to
    /// exercise recovery. Test affordance for the crash-recovery suite.
    pub fn simulate_crash(&self) {
        self.shut(CRASHED);
        // The un-fsynced overlay dies with the "machine".
        let mut p = self.inner.pending.lock();
        p.overlay.clear();
        p.queue.clear();
    }

    /// Move `stop` up to `to`, wake everything that tests it, and join
    /// the writer. The store happens under `pending` — the mutex the
    /// writer holds from testing `stop` until it is parked — so the
    /// notify cannot fall between its test and its park. See the module
    /// docs for why `commit` is taken before `commit_cv` is notified.
    fn shut(&self, to: u8) {
        {
            let _pending = self.inner.pending.lock();
            self.inner.stop.fetch_max(to, Ordering::SeqCst);
        }
        self.inner.work_cv.notify_all();
        drop(self.inner.commit.lock());
        self.inner.commit_cv.notify_all();
        // The commit hook can drop the last handle to the store on the
        // writer itself, which must not then wait for its own exit.
        let writer = self.writer.lock().take();
        if let Some(h) = writer.filter(|h| h.thread().id() != std::thread::current().id()) {
            let _ = h.join();
        }
    }

    fn enqueue(&self, ops: Vec<PendingOp>) -> Result<Watermark, StoreError> {
        if let Some(err) = self.inner.commit.lock().failed.clone() {
            return Err(err);
        }
        // Seq allocation happens under the pending lock so queue order
        // is seq order and no seq can exist outside the queue. If it
        // were allocated first, a preempted enqueuer could let a
        // later-seq batch commit ahead of it: the watermark would then
        // cover this batch's seq — releasing messages gated on it —
        // while its bytes were still only in this thread's stack, and a
        // stale-seq overlay insert could clobber a newer value.
        let mut p = self.inner.pending.lock();
        // Tested under the lock `shut` stores it under: nothing is
        // queued behind a writer that has been told to go.
        if self.inner.stop.load(Ordering::SeqCst) != RUNNING {
            return Err(StoreError::backend("store is shut down"));
        }
        let seq = self.inner.next_seq.fetch_add(1, Ordering::SeqCst) + 1;
        for op in &ops {
            p.overlay.insert(
                op.key.clone(),
                OverlayVal {
                    seq,
                    val: op.val.clone(),
                },
            );
        }
        // The writer waits on `work_cv` for two things: a first entry
        // (here) and a reason to stop lingering (`want`). Entries that
        // join a non-empty queue are neither, and must not wake it.
        let first = p.queue.is_empty();
        p.queue.push(QueueEntry {
            seq,
            queued: Instant::now(),
            ops,
        });
        drop(p);
        if first {
            self.inner.work_cv.notify_one();
        }
        Ok(Watermark(seq))
    }
}

impl LogInner {
    /// Somebody is waiting for `seq` to become durable: end the
    /// writer's linger.
    fn want(&self, seq: u64) {
        // A watermark this store never issued (a ticket from before a
        // crash) must not switch the linger off for good.
        let seq = seq.min(self.next_seq.load(Ordering::SeqCst));
        let mut p = self.pending.lock();
        if seq > p.wanted {
            p.wanted = seq;
            drop(p);
            self.work_cv.notify_one();
        }
    }

    /// Read a committed value straight from its segment.
    fn read_loc(&self, key: &str, loc: Loc) -> Result<Vec<u8>, StoreError> {
        let file = {
            let mut readers = self.readers.lock();
            match readers.get(&loc.seg) {
                Some(f) => f.clone(),
                None => {
                    let path = seg_path(&self.dir, loc.seg);
                    let f = Arc::new(File::open(&path).map_err(StoreError::io)?);
                    readers.insert(loc.seg, f.clone());
                    f
                }
            }
        };
        let mut buf = vec![0u8; loc.len as usize];
        file.read_exact_at(&mut buf, loc.off).map_err(|e| {
            StoreError::corrupt(
                key,
                format!(
                    "short read for {key} at seg-{} off {}: {e}",
                    loc.seg, loc.off
                ),
            )
        })?;
        Ok(buf)
    }
}

impl Drop for LogStore {
    fn drop(&mut self) {
        self.shut(STOPPING);
    }
}

impl StateStore for LogStore {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError> {
        self.inner
            .written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.enqueue(vec![PendingOp {
            key: key.to_string(),
            val: Some(Arc::new(data.to_vec())),
        }])?;
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        // Read-your-writes: the overlay wins until the commit thread
        // has both fsynced the batch and published its index entry.
        // Only the `Arc` is cloned under the lock every save needs; the
        // bytes are copied after it is released.
        let hit = self
            .inner
            .pending
            .lock()
            .overlay
            .get(key)
            .map(|ov| ov.val.clone());
        if let Some(val) = hit {
            return Ok(val.map(|v| {
                self.inner.read.fetch_add(v.len() as u64, Ordering::Relaxed);
                Arc::unwrap_or_clone(v)
            }));
        }
        // Compaction may unlink a segment between our index lookup and
        // the open; the refreshed index then points into the compacted
        // segment, so retry once.
        for attempt in 0..2 {
            let loc = match self.inner.index.read().get(key) {
                Some(l) => *l,
                None => return Ok(None),
            };
            match self.inner.read_loc(key, loc) {
                Ok(data) => {
                    self.inner
                        .read
                        .fetch_add(data.len() as u64, Ordering::Relaxed);
                    return Ok(Some(data));
                }
                Err(StoreError::Io(_)) if attempt == 0 => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("read_loc retry loop returns")
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.enqueue(vec![PendingOp {
            key: key.to_string(),
            val: None,
        }])?;
        Ok(())
    }

    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        let mut keys: std::collections::BTreeSet<String> = self
            .inner
            .index
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for (k, ov) in self.inner.pending.lock().overlay.iter() {
            if !k.starts_with(prefix) {
                continue;
            }
            if ov.val.is_some() {
                keys.insert(k.clone());
            } else {
                keys.remove(k);
            }
        }
        Ok(keys.into_iter().collect())
    }

    fn bytes_written(&self) -> u64 {
        self.inner.written.load(Ordering::Relaxed)
    }

    fn bytes_read(&self) -> u64 {
        self.inner.read.load(Ordering::Relaxed)
    }

    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<DurabilityTicket, StoreError> {
        if entries.is_empty() {
            return Ok(Watermark(self.inner.durable_seq.load(Ordering::SeqCst)));
        }
        let mut total = 0u64;
        let ops = entries
            .iter()
            .map(|(k, v)| {
                total += v.len() as u64;
                PendingOp {
                    key: (*k).to_string(),
                    val: Some(Arc::new(v.to_vec())),
                }
            })
            .collect();
        self.inner.written.fetch_add(total, Ordering::Relaxed);
        self.enqueue(ops)
    }

    fn flush(&self) -> Result<Watermark, StoreError> {
        let target = self.inner.next_seq.load(Ordering::SeqCst);
        self.inner.want(target);
        let mut commit = self.inner.commit.lock();
        loop {
            if let Some(err) = commit.failed.clone() {
                return Err(err);
            }
            if commit.durable >= target {
                return Ok(Watermark(commit.durable));
            }
            if self.inner.stop.load(Ordering::SeqCst) == CRASHED {
                return Err(StoreError::backend("store crashed before flush completed"));
            }
            self.inner.commit_cv.wait(&mut commit);
        }
    }

    /// A probe that finds `w` not yet durable also tells the commit
    /// thread that somebody is waiting for it: the broker probes when
    /// it is about to park a `hold_until` message, and that message
    /// moves again only once `w` commits.
    fn durable(&self, w: Watermark) -> bool {
        if w.is_immediate() || self.inner.durable_seq.load(Ordering::SeqCst) >= w.0 {
            return true;
        }
        self.inner.want(w.0);
        false
    }

    fn attach_obs(&self, obs: &Arc<gozer_obs::Obs>) {
        let reg = &obs.registry;
        let s = &self.inner.stats;
        for (name, help, handle) in [
            (
                "gozer_store_fsyncs_total",
                "fsync calls issued by the log store's commit path.",
                &s.fsyncs,
            ),
            (
                "gozer_store_group_commit_batch_total",
                "Group commits completed by the log store.",
                &s.group_commits,
            ),
            (
                "gozer_store_log_bytes_total",
                "Bytes appended to log segments.",
                &s.log_bytes,
            ),
            (
                "gozer_store_compactions_total",
                "Log compactions completed by the log store.",
                &s.compactions,
            ),
        ] {
            reg.counter(name, help, "", handle);
        }
        reg.histogram(
            "gozer_store_commit_latency",
            "Enqueue-to-durable latency of saves through the group-commit path.",
            "",
            &s.commit_latency,
        );
    }

    fn set_commit_hook(&self, hook: CommitHook) {
        *self.inner.commit_hook.lock() = Some(hook);
    }
}

fn seg_path(dir: &Path, seg: u64) -> PathBuf {
    dir.join(format!("seg-{seg:010}.log"))
}

/// The retired layout kept one log per partition under `p<N>/`. Nothing
/// here reads it, and opening beside it would silently start empty.
fn refuse_partitioned_layout(dir: &Path) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir).map_err(StoreError::io)? {
        let entry = entry.map_err(StoreError::io)?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let partition = name
            .strip_prefix('p')
            .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
        if partition && entry.path().is_dir() {
            return Err(StoreError::backend(format!(
                "{} holds a multi-partition log ({name}/); this store reads only the \
                 single-log layout",
                dir.display()
            )));
        }
    }
    Ok(())
}

fn create_segment(dir: &Path, seg: u64) -> Result<File, StoreError> {
    let path = seg_path(dir, seg);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&path)
        .map_err(StoreError::io)?;
    file.write_all(SEG_MAGIC).map_err(StoreError::io)?;
    // Make the new name itself durable: fsync the directory entry.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(file)
}

/// Bytes [`encode_record`] appends for `ops`.
fn record_len(ops: &[PendingOp]) -> usize {
    let op_len = |op: &PendingOp| 7 + op.key.len() + op.val.as_ref().map_or(0, |v| v.len());
    20 + ops.iter().map(op_len).sum::<usize>()
}

/// Frame one batch as a record at the tail of the group buffer: the
/// payload is laid down once, checksummed where it lies, and its header
/// patched. `placed` gets each key with where its value will sit in the
/// segment (`None` for a delete).
fn encode_record<'a>(
    tail: &mut Tail,
    seq: u64,
    ops: &'a [PendingOp],
    placed: &mut Vec<(&'a str, Option<Loc>)>,
) {
    let (seg, base, buf) = (tail.seg_id, tail.seg_bytes, &mut tail.group);
    let start = buf.len();
    buf.reserve(record_len(ops));
    // [len][crc] are patched in once the payload behind them is known.
    buf.extend_from_slice(&[0u8; 8]);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        let val = op.val.as_ref().map(|v| v.as_slice());
        buf.push(if val.is_some() { OP_PUT } else { OP_DELETE });
        buf.extend_from_slice(&(op.key.len() as u16).to_le_bytes());
        buf.extend_from_slice(op.key.as_bytes());
        let len = val.map_or(0, |v| v.len() as u32);
        buf.extend_from_slice(&len.to_le_bytes());
        let off = base + buf.len() as u64;
        placed.push((&op.key, val.map(|_| Loc { seq, seg, off, len })));
        buf.extend_from_slice(val.unwrap_or_default());
    }
    let payload = start + 8;
    let len = (buf.len() - payload) as u32;
    let crc = gozer_compress::crc32(&buf[payload..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

fn writer_loop(inner: &LogInner, mut tail: Tail) {
    let state = || inner.stop.load(Ordering::SeqCst);
    let gather = GATHER.min(inner.window);
    // The earliest the next group may start.
    let mut slot = Instant::now();
    loop {
        let batch = {
            let mut p = inner.pending.lock();
            while p.queue.is_empty() && state() == RUNNING {
                inner.work_cv.wait(&mut p);
            }
            // The group-commit window. Nobody is known to wait for
            // these writes, so let later saves join their fsync — until
            // the oldest has been volatile for `window`, or until a
            // probe or a flush asks for a watermark we have not made
            // durable, whichever is first. Either way not before `slot`.
            if let Some(oldest) = p.queue.first() {
                let deadline = (oldest.queued + inner.window).max(slot);
                while state() == RUNNING {
                    let asked = p.wanted > inner.durable_seq.load(Ordering::SeqCst);
                    let until = if asked { slot } else { deadline };
                    if inner.work_cv.wait_until(&mut p, until).timed_out() {
                        break;
                    }
                }
            }
            match state() {
                CRASHED => return,
                STOPPING if p.queue.is_empty() => return,
                _ => {}
            }
            std::mem::take(&mut p.queue)
        };
        slot = Instant::now() + gather;
        if let Err(err) = commit_group(inner, &mut tail, &batch) {
            inner.commit.lock().failed = Some(err);
            inner.commit_cv.notify_all();
            return;
        }
    }
}

fn commit_group(inner: &LogInner, tail: &mut Tail, batch: &[QueueEntry]) -> Result<(), StoreError> {
    let Some(newest) = batch.last() else {
        return Ok(());
    };
    let max_seq = newest.seq;

    let mut updates: Vec<(&str, Option<Loc>)> = Vec::new();
    for entry in batch {
        let end = tail.seg_bytes + tail.group.len() as u64;
        if end + record_len(&entry.ops) as u64 > inner.segment_bytes && end > SEG_MAGIC.len() as u64
        {
            rotate(inner, tail)?;
        }
        encode_record(tail, entry.seq, &entry.ops, &mut updates);
    }
    // The durability point for every save in the group: one write and
    // one fsync, however many batches piled up. (A rotation above has
    // already written and synced the segment it closed.)
    write_out(inner, tail)?;
    tail.file.sync_all().map_err(StoreError::io)?;
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);

    // Publish locations, then retire the overlay entries they replace.
    {
        let mut idx = inner.index.write();
        for (key, new_loc) in &updates {
            let old = match new_loc {
                Some(loc) => {
                    tail.live += loc.len as u64;
                    match idx.get_mut(*key) {
                        Some(cur) => Some(std::mem::replace(cur, *loc)),
                        None => idx.insert((*key).to_string(), *loc),
                    }
                }
                None => idx.remove(*key),
            };
            if let Some(old) = old {
                tail.dead += old.len as u64;
                tail.live = tail.live.saturating_sub(old.len as u64);
            }
        }
    }
    // Stats before the watermark advances: a caller returning from
    // `flush()` must already see this commit's counters.
    inner.stats.group_commits.fetch_add(1, Ordering::Relaxed);
    inner
        .stats
        .committed_entries
        .fetch_add(updates.len() as u64, Ordering::Relaxed);
    {
        let mut commit = inner.commit.lock();
        commit.durable = max_seq;
        inner.durable_seq.store(max_seq, Ordering::SeqCst);
    }
    inner.commit_cv.notify_all();
    inner
        .pending
        .lock()
        .overlay
        .retain(|_, ov| ov.seq > max_seq);

    let now = Instant::now();
    for entry in batch {
        inner
            .stats
            .commit_latency
            .observe_duration(now.saturating_duration_since(entry.queued));
    }
    let hook = inner.commit_hook.lock().clone();
    if let Some(hook) = hook {
        hook(Watermark(max_seq));
    }

    let total = tail.live + tail.dead;
    if tail.dead >= inner.compact_min_bytes
        && total > 0
        && (tail.dead as f64) / (total as f64) >= inner.compact_dead_ratio
    {
        compact(inner, tail)?;
    }
    Ok(())
}

/// Hand the buffered records to the tail segment: one write.
fn write_out(inner: &LogInner, tail: &mut Tail) -> Result<(), StoreError> {
    let len = tail.group.len() as u64;
    if len > 0 {
        tail.file.write_all(&tail.group).map_err(StoreError::io)?;
        inner.stats.writes.fetch_add(1, Ordering::Relaxed);
        inner.stats.log_bytes.fetch_add(len, Ordering::Relaxed);
    }
    tail.seg_bytes += len;
    tail.group.clear();
    Ok(())
}

/// Close the tail segment — what is buffered belongs to it — and open the next.
fn rotate(inner: &LogInner, tail: &mut Tail) -> Result<(), StoreError> {
    write_out(inner, tail)?;
    tail.file.sync_all().map_err(StoreError::io)?;
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    tail.seg_id += 1;
    tail.file = create_segment(&inner.dir, tail.seg_id)?;
    tail.seg_bytes = SEG_MAGIC.len() as u64;
    Ok(())
}

/// Rewrite the log's live values into a fresh segment, publish a
/// checkpoint, then delete the older segments.
///
/// Crash-ordering invariants:
/// 1. the fresh segment is fsynced before the checkpoint names it,
/// 2. the checkpoint is published (tmp + rename) before any old segment
///    is unlinked,
/// 3. replay of a half-written compaction segment is idempotent because
///    moved records keep their original `seq`.
fn compact(inner: &LogInner, tail: &mut Tail) -> Result<(), StoreError> {
    rotate(inner, tail)?;
    let target_seg = tail.seg_id;

    // Everything indexed lives below the segment just opened.
    let live: Vec<(String, Loc)> = inner
        .index
        .read()
        .iter()
        .map(|(k, l)| (k.clone(), *l))
        .collect();

    let mut moved: Vec<(String, Loc, Loc)> = Vec::with_capacity(live.len());
    let mut live_bytes = 0u64;
    for (key, loc) in live {
        let val = Some(Arc::new(inner.read_loc(&key, loc)?));
        let (ops, mut placed) = ([PendingOp { key, val }], Vec::new());
        encode_record(tail, loc.seq, &ops, &mut placed);
        write_out(inner, tail)?;
        let new = placed[0].1.expect("compaction writes puts");
        live_bytes += new.len as u64;
        let [PendingOp { key, .. }] = ops;
        moved.push((key, loc, new));
    }
    tail.file.sync_all().map_err(StoreError::io)?;
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);

    {
        let mut idx = inner.index.write();
        for (key, old, new) in &moved {
            if let Some(cur) = idx.get_mut(key) {
                if *cur == *old {
                    *cur = *new;
                }
            }
        }
    }

    write_checkpoint(inner, target_seg)?;

    // Only now is it safe to drop the old segments.
    let mut readers = inner.readers.lock();
    for seg in list_segments(&inner.dir)? {
        if seg < target_seg {
            let _ = fs::remove_file(seg_path(&inner.dir, seg));
            readers.remove(&seg);
        }
    }
    drop(readers);
    tail.live = live_bytes;
    tail.dead = 0;
    inner.stats.compactions.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Publish the index as of the durable watermark; replay after it
/// starts at segment `replay_from`.
fn write_checkpoint(inner: &LogInner, replay_from: u64) -> Result<(), StoreError> {
    let ckpt_seq = inner.durable_seq.load(Ordering::SeqCst);
    let mut payload = Vec::new();
    payload.extend_from_slice(&ckpt_seq.to_le_bytes());
    payload.extend_from_slice(&replay_from.to_le_bytes());
    {
        let idx = inner.index.read();
        payload.extend_from_slice(&(idx.len() as u64).to_le_bytes());
        for (key, loc) in idx.iter() {
            payload.extend_from_slice(&(key.len() as u16).to_le_bytes());
            payload.extend_from_slice(key.as_bytes());
            payload.extend_from_slice(&loc.seq.to_le_bytes());
            payload.extend_from_slice(&loc.seg.to_le_bytes());
            payload.extend_from_slice(&loc.off.to_le_bytes());
            payload.extend_from_slice(&loc.len.to_le_bytes());
        }
    }
    let tmp = inner.dir.join("checkpoint.tmp");
    let path = inner.dir.join("checkpoint");
    let mut f = File::create(&tmp).map_err(StoreError::io)?;
    f.write_all(CKPT_MAGIC).map_err(StoreError::io)?;
    f.write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(StoreError::io)?;
    f.write_all(&gozer_compress::crc32(&payload).to_le_bytes())
        .map_err(StoreError::io)?;
    f.write_all(&payload).map_err(StoreError::io)?;
    f.sync_all().map_err(StoreError::io)?;
    fs::rename(&tmp, &path).map_err(StoreError::io)?;
    if let Ok(d) = File::open(&inner.dir) {
        let _ = d.sync_all();
    }
    inner.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
    inner.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

struct Recovered {
    index: FxHashMap<String, Loc>,
    next_seq: u64,
    /// Highest segment id present (0 if none).
    max_seg: u64,
}

struct Checkpoint {
    seq: u64,
    replay_from: u64,
    index: FxHashMap<String, Loc>,
}

/// The index as replay has rebuilt it so far.
struct Replay {
    index: FxHashMap<String, Loc>,
    /// Records at or below this are already reflected in `index` by the
    /// checkpoint (compaction rewrites keep their original seq and are
    /// indexed before the checkpoint publishes).
    ckpt_seq: u64,
    /// Seq of the newest record applied. The next new record carries
    /// exactly `commit_point + 1`; a lower seq is a compaction rewrite.
    commit_point: u64,
}

fn recover(dir: &Path) -> Result<Recovered, StoreError> {
    let (ckpt_seq, replay_from, index) = match load_checkpoint(dir)? {
        Some(c) => (c.seq, c.replay_from, c.index),
        None => (0, 0, FxHashMap::default()),
    };
    let mut replay = Replay {
        index,
        ckpt_seq,
        commit_point: ckpt_seq,
    };
    let segs = list_segments(dir)?;
    let tail = segs.last().copied();
    for &seg in segs.iter().filter(|s| **s >= replay_from) {
        scan_segment(dir, seg, Some(seg) == tail, &mut replay)?;
    }
    Ok(Recovered {
        index: replay.index,
        next_seq: replay.commit_point,
        max_seg: tail.unwrap_or(0),
    })
}

fn list_segments(dir: &Path) -> Result<Vec<u64>, StoreError> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir).map_err(StoreError::io)? {
        let entry = entry.map_err(StoreError::io)?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(num) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
        {
            if let Ok(n) = num.parse::<u64>() {
                segs.push(n);
            }
        }
    }
    segs.sort_unstable();
    Ok(segs)
}

/// Replay one segment into `replay`. A damaged frame in the tail
/// segment is a torn write: the file is truncated at the last valid
/// record and the scan stops — with one append stream, what precedes
/// the tear *is* the durable prefix. Damage anywhere else is real
/// corruption and fails recovery.
fn scan_segment(
    dir: &Path,
    seg: u64,
    is_tail: bool,
    replay: &mut Replay,
) -> Result<(), StoreError> {
    let path = seg_path(dir, seg);
    let data = fs::read(&path).map_err(StoreError::io)?;
    let label = format!("seg-{seg:010}.log");

    if data.len() < SEG_MAGIC.len() || &data[..SEG_MAGIC.len()] != SEG_MAGIC {
        // `create_segment` doesn't fsync the magic, so a power cut can
        // leave the tail zero-length or with a half-written header.
        // Remove such a file rather than emptying it in place: once the
        // next incarnation creates a higher-numbered segment, a leftover
        // magicless file is no longer the tail and would fail every
        // later recovery as "corrupt". Zero-length segments are the same
        // accident regardless of position, so they are cleared wherever
        // they sit.
        if is_tail || data.is_empty() {
            fs::remove_file(&path).map_err(StoreError::io)?;
            return Ok(());
        }
        return Err(StoreError::corrupt(
            &label,
            format!("bad segment magic in {label}"),
        ));
    }

    let mut off = SEG_MAGIC.len();
    while off < data.len() {
        let damage = match parse_record(&data, off, seg) {
            Ok(rec) if rec.seq <= replay.ckpt_seq => {
                off = rec.next;
                continue;
            }
            Ok(rec) if rec.seq > replay.commit_point.saturating_add(1) => {
                format!("record seq {} follows seq {}", rec.seq, replay.commit_point)
            }
            Ok(rec) => {
                replay.commit_point = replay.commit_point.max(rec.seq);
                for (key, loc) in rec.ops {
                    match loc {
                        Some(l) => replay.index.insert(key, l),
                        None => replay.index.remove(&key),
                    };
                }
                off = rec.next;
                continue;
            }
            Err(why) => why,
        };
        if !is_tail {
            return Err(StoreError::corrupt(
                &label,
                format!("damaged record in non-tail segment {label} at offset {off}: {damage}"),
            ));
        }
        // The canonical torn tail: the machine died mid-append.
        // Everything before this offset is intact; drop the rest.
        let f = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(StoreError::io)?;
        f.set_len(off as u64).map_err(StoreError::io)?;
        f.sync_all().map_err(StoreError::io)?;
        return Ok(());
    }
    Ok(())
}

/// One framed batch record surfaced by replay.
struct ReplayRec {
    seq: u64,
    ops: Vec<(String, Option<Loc>)>,
    /// Offset of the frame after this one.
    next: usize,
}

/// Parse the record at `off`, with the location of each value in it.
/// The error says what is wrong with the frame: it runs past the end of
/// the file, fails its CRC (both a torn write), or passes the CRC but
/// does not parse (fuzzer food).
fn parse_record(data: &[u8], off: usize, seg: u64) -> Result<ReplayRec, String> {
    let header = data.get(off..off + 8).ok_or("frame header past end")?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let payload = data
        .get(off + 8..off + 8 + len)
        .ok_or("frame payload past end")?;
    if gozer_compress::crc32(payload) != crc {
        return Err("checksum mismatch".into());
    }

    let seq = u64::from_le_bytes(
        payload
            .get(..8)
            .ok_or("payload shorter than seq")?
            .try_into()
            .unwrap(),
    );
    let count = u32::from_le_bytes(
        payload
            .get(8..12)
            .ok_or("payload shorter than count")?
            .try_into()
            .unwrap(),
    );
    let mut ops: Vec<(String, Option<Loc>)> = Vec::new();
    let mut cursor = 12usize;
    for _ in 0..count {
        let op = *payload.get(cursor).ok_or("op byte past end")?;
        cursor += 1;
        let klen = u16::from_le_bytes(
            payload
                .get(cursor..cursor + 2)
                .ok_or("klen past end")?
                .try_into()
                .unwrap(),
        ) as usize;
        cursor += 2;
        let key_bytes = payload.get(cursor..cursor + klen).ok_or("key past end")?;
        let key = std::str::from_utf8(key_bytes)
            .map_err(|_| "key not utf-8")?
            .to_string();
        cursor += klen;
        let vlen = u32::from_le_bytes(
            payload
                .get(cursor..cursor + 4)
                .ok_or("vlen past end")?
                .try_into()
                .unwrap(),
        ) as usize;
        cursor += 4;
        if payload.get(cursor..cursor + vlen).is_none() {
            return Err("value past end".into());
        }
        let val_off = (off + 8 + cursor) as u64;
        cursor += vlen;
        match op {
            OP_PUT => ops.push((
                key,
                Some(Loc {
                    seq,
                    seg,
                    off: val_off,
                    len: vlen as u32,
                }),
            )),
            OP_DELETE => ops.push((key, None)),
            other => return Err(format!("unknown op byte {other}")),
        }
    }
    if cursor != payload.len() {
        return Err("trailing bytes after ops".into());
    }
    Ok(ReplayRec {
        seq,
        ops,
        next: off + 8 + len,
    })
}

fn load_checkpoint(dir: &Path) -> Result<Option<Checkpoint>, StoreError> {
    let path = dir.join("checkpoint");
    let data = match fs::read(&path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io(e)),
    };
    let label = "checkpoint";
    let corrupt = |why: &str| StoreError::corrupt(label, format!("{why} in {label}"));
    if data.len() < 12 || &data[..4] != CKPT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let len = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(data[8..12].try_into().unwrap());
    let payload = data
        .get(12..12 + len)
        .ok_or_else(|| corrupt("short payload"))?;
    if gozer_compress::crc32(payload) != crc {
        return Err(corrupt("checksum mismatch"));
    }

    let take = |cursor: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        let s = payload
            .get(*cursor..*cursor + n)
            .ok_or_else(|| corrupt("truncated field"))?;
        *cursor += n;
        Ok(s)
    };
    let mut cur = 0usize;
    let seq = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
    let replay_from = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
    let nkeys = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
    let mut index = FxHashMap::default();
    for _ in 0..nkeys {
        let klen = u16::from_le_bytes(take(&mut cur, 2)?.try_into().unwrap()) as usize;
        let key = std::str::from_utf8(take(&mut cur, klen)?)
            .map_err(|_| corrupt("key not utf-8"))?
            .to_string();
        let kseq = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let seg = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let off = u64::from_le_bytes(take(&mut cur, 8)?.try_into().unwrap());
        let vlen = u32::from_le_bytes(take(&mut cur, 4)?.try_into().unwrap());
        index.insert(
            key,
            Loc {
                seq: kseq,
                seg,
                off,
                len: vlen,
            },
        );
    }
    Ok(Some(Checkpoint {
        seq,
        replay_from,
        index,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gozer-log-{tag}-{}", super::super::fastrand_u64()))
    }

    fn fast(dir: &Path) -> LogStore {
        LogStore::builder(dir)
            .group_commit_window(Duration::from_micros(200))
            .build()
            .unwrap()
    }

    /// A window no test outlives: whatever commits under it was asked for.
    fn lingering(dir: &Path) -> LogStore {
        LogStore::builder(dir)
            .group_commit_window(Duration::from_secs(10))
            .build()
            .unwrap()
    }

    /// Compaction runs on the writer thread *after* the commit that
    /// released `flush`, so stats-based assertions must wait for it.
    fn wait_for(store: &LogStore, what: &str, pred: impl Fn(LogStats) -> bool) -> LogStats {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = store.stats();
            if pred(stats) {
                return stats;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn log_store_exercise() {
        let dir = tmp_dir("exercise");
        let store = fast(&dir);
        crate::store::tests::exercise(&store);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn put_batch_ticket_becomes_durable() {
        let dir = tmp_dir("ticket");
        let store = fast(&dir);
        let w = store
            .put_batch(&[("fiber-d/1/0", b"delta"), ("fiber-v/1", b"meta")])
            .unwrap();
        assert!(!w.is_immediate(), "log store must issue real tickets");
        // Speculative read before durability.
        assert_eq!(store.get("fiber-v/1").unwrap(), Some(b"meta".to_vec()));
        store.flush().unwrap();
        assert!(store.durable(w));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let dir = tmp_dir("amortize");
        let store = Arc::new(
            LogStore::builder(&dir)
                .group_commit_window(Duration::from_millis(4))
                .build()
                .unwrap(),
        );
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        store.put(&format!("k/{t}/{i}"), &[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(stats.committed_entries, 200);
        assert!(
            stats.fsyncs < 100,
            "group commit should need far fewer fsyncs than saves: {stats:?}"
        );
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_probe_ends_the_linger() {
        let dir = tmp_dir("probe");
        let store = lingering(&dir);
        let w = store.put_batch(&[("fiber/1", b"state")]).unwrap();
        let asked = Instant::now();
        assert!(
            !store.durable(w),
            "nothing commits under a 10 s window unasked"
        );
        // That one failed probe is the whole request; poll the counters,
        // not `durable`, so nothing asks a second time.
        wait_for(&store, "the probed ticket to commit", |s| {
            s.group_commits == 1
        });
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "took {:?}",
            asked.elapsed()
        );
        assert!(store.durable(w));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn flush_ends_the_linger() {
        let dir = tmp_dir("flush");
        let store = lingering(&dir);
        let w = store.put_batch(&[("fiber/1", b"state")]).unwrap();
        let asked = Instant::now();
        store.flush().unwrap();
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "took {:?}",
            asked.elapsed()
        );
        assert!(store.durable(w));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn unwaited_writes_linger_for_the_window() {
        let dir = tmp_dir("linger");
        let store = lingering(&dir);
        for i in 0..10 {
            store
                .put(&format!("k/{i}"), b"nobody waits for this")
                .unwrap();
        }
        std::thread::sleep(Duration::from_millis(100));
        let stats = store.stats();
        assert_eq!(
            (stats.group_commits, stats.fsyncs),
            (0, 0),
            "unwaited writes must stay in the window: {stats:?}"
        );
        // Read-your-writes meanwhile, and a clean close drains them
        // without sitting out the window.
        assert_eq!(
            store.get("k/3").unwrap(),
            Some(b"nobody waits for this".to_vec())
        );
        let closing = Instant::now();
        drop(store);
        assert!(
            closing.elapsed() < Duration::from_secs(1),
            "close took {:?}",
            closing.elapsed()
        );
        let store = fast(&dir);
        assert_eq!(store.list("k/").unwrap().len(), 10);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_group_costs_exactly_one_fsync() {
        let dir = tmp_dir("onefsync");
        let store = lingering(&dir);
        for i in 0..100 {
            let (data, meta) = (format!("fiber/{i}"), format!("fiber-v/{i}"));
            store
                .put_batch(&[(&data, b"snapshot".as_slice()), (&meta, b"v1".as_slice())])
                .unwrap();
        }
        store.flush().unwrap();
        let stats = store.stats();
        assert_eq!(
            (stats.group_commits, stats.fsyncs, stats.committed_entries),
            (1, 1, 200),
            "100 batches over 100 keys are one group and one fsync: {stats:?}"
        );
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn waited_groups_start_a_gather_apart() {
        let dir = tmp_dir("gather");
        let store = lingering(&dir);
        let started = Instant::now();
        for i in 0..21 {
            store.put(&format!("k/{i}"), b"waited for").unwrap();
            store.flush().unwrap();
        }
        // Twenty gaps between twenty-one groups, whatever the disk does.
        assert!(
            started.elapsed() >= GATHER * 20,
            "took {:?}",
            started.elapsed()
        );
        assert_eq!(store.stats().group_commits, 21);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn stale_watermark_does_not_disable_the_linger() {
        // A ticket from a previous incarnation can be far ahead of
        // anything this store has issued; probing it must not leave the
        // writer believing somebody waits on every later write.
        let dir = tmp_dir("stale");
        let store = lingering(&dir);
        assert!(!store.durable(Watermark(1 << 40)));
        store.put("k", b"v").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(store.stats().group_commits, 0);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_recovers_flushed_state() {
        let dir = tmp_dir("reopen");
        {
            let store = fast(&dir);
            store.put("a/1", b"one").unwrap();
            store.put("a/2", b"two").unwrap();
            store.put("a/1", b"one-v2").unwrap();
            store.delete("a/2").unwrap();
            store.flush().unwrap();
        }
        let store = fast(&dir);
        assert_eq!(store.get("a/1").unwrap(), Some(b"one-v2".to_vec()));
        assert_eq!(store.get("a/2").unwrap(), None);
        assert_eq!(store.list("a/").unwrap(), vec!["a/1"]);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crash_loses_only_unflushed_writes() {
        let dir = tmp_dir("crash");
        let store = lingering(&dir);
        store.put("durable/1", b"kept").unwrap();
        store.flush().unwrap();
        // Nobody waits for this one, so it is still in the window when
        // the power goes.
        store.put("lost/1", b"gone").unwrap();
        store.simulate_crash();
        assert!(store.put("lost/2", b"refused").is_err());
        assert!(
            store.flush().is_err(),
            "a crashed store cannot promise durability"
        );

        let store = fast(&dir);
        assert_eq!(store.get("durable/1").unwrap(), Some(b"kept".to_vec()));
        assert_eq!(store.get("lost/1").unwrap(), None);
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn rotation_and_compaction_preserve_data() {
        let dir = tmp_dir("rotate");
        let store = LogStore::builder(&dir)
            .segment_bytes(512)
            .group_commit_window(Duration::ZERO)
            .compact_min_bytes(256)
            .compact_dead_ratio(0.3)
            .build()
            .unwrap();
        // Overwrite a small key set many times: forces rotations and
        // plenty of dead bytes, so compaction must kick in.
        for round in 0..40 {
            for k in 0..8 {
                store
                    .put(&format!("hot/{k}"), format!("value-{round}-{k}").as_bytes())
                    .unwrap();
            }
        }
        store.flush().unwrap();
        wait_for(&store, "compaction", |s| s.compactions > 0);
        for k in 0..8 {
            assert_eq!(
                store.get(&format!("hot/{k}")).unwrap(),
                Some(format!("value-39-{k}").into_bytes()),
                "key hot/{k} after compaction"
            );
        }
        drop(store);

        // And the compacted state must survive a reopen.
        let store = LogStore::builder(&dir).build().unwrap();
        for k in 0..8 {
            assert_eq!(
                store.get(&format!("hot/{k}")).unwrap(),
                Some(format!("value-39-{k}").into_bytes())
            );
        }
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn delete_survives_checkpoint_replay() {
        // Regression guard for the resurrection hazard: a put whose
        // delete was folded into the checkpoint must not reappear when
        // the put's segment is replayed.
        let dir = tmp_dir("resurrect");
        let store = LogStore::builder(&dir)
            .segment_bytes(256)
            .group_commit_window(Duration::ZERO)
            .compact_min_bytes(64)
            .compact_dead_ratio(0.2)
            .build()
            .unwrap();
        store.put("victim", b"to be deleted").unwrap();
        store.flush().unwrap();
        store.delete("victim").unwrap();
        // Churn until a compaction+checkpoint has certainly happened.
        for round in 0..60 {
            store
                .put("churn", format!("round-{round}").as_bytes())
                .unwrap();
        }
        store.flush().unwrap();
        wait_for(&store, "checkpoint", |s| s.checkpoints > 0);
        drop(store);

        let store = LogStore::builder(&dir).build().unwrap();
        assert_eq!(
            store.get("victim").unwrap(),
            None,
            "deleted key resurrected"
        );
        assert_eq!(store.get("churn").unwrap(), Some(b"round-59".to_vec()));
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_segment_create_survives_repeated_reopens() {
        // A power cut during create_segment leaves a tail file with a
        // missing or half-written magic. Recovery must remove it — a
        // file merely truncated to zero stops being the tail on the
        // next open (a fresh, higher-numbered segment appears) and
        // would then fail every later recovery as interior corruption.
        let dir = tmp_dir("badmagic");
        {
            let store = fast(&dir);
            store.put("k/1", b"keep").unwrap();
            store.flush().unwrap();
        }
        let next = list_segments(&dir).unwrap().last().unwrap() + 1;
        // A zero-length segment that is not the tail.
        fs::write(seg_path(&dir, next), b"").unwrap();
        // And the torn create itself: a half-written magic at the tail.
        fs::write(seg_path(&dir, next + 1), b"GZL").unwrap();
        for reopen in 0..2 {
            let store = LogStore::builder(&dir).build().unwrap();
            assert_eq!(
                store.get("k/1").unwrap(),
                Some(b"keep".to_vec()),
                "data lost on reopen {reopen}"
            );
            drop(store);
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn the_last_handle_may_be_dropped_by_the_commit_hook() {
        // A deployment's hook holds the cluster, whose probe holds the
        // store: at teardown the writer can be the one that lets go last,
        // and `Drop` joining the writer from the writer panicked.
        let dir = tmp_dir("selfdrop");
        let store = Arc::new(fast(&dir));
        let last = Arc::new(Mutex::new(Some(store.clone())));
        let dropped_cleanly = Arc::new(Mutex::new(None));
        let (slot, verdict) = (last.clone(), dropped_cleanly.clone());
        store.set_commit_hook(Arc::new(move |_| {
            if let Some(store) = slot.lock().take() {
                let drop_it = std::panic::AssertUnwindSafe(|| drop(store));
                *verdict.lock() = Some(std::panic::catch_unwind(drop_it).is_ok());
            }
        }));
        store.put("k", b"v").unwrap();
        drop(store);
        let deadline = Instant::now() + Duration::from_secs(5);
        while dropped_cleanly.lock().is_none() {
            assert!(Instant::now() < deadline, "the hook never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*dropped_cleanly.lock(), Some(true));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn commit_hook_reports_watermarks() {
        let dir = tmp_dir("hook");
        let store = fast(&dir);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        store.set_commit_hook(Arc::new(move |w: Watermark| {
            seen2.store(w.0, Ordering::SeqCst);
        }));
        let w = store.put_batch(&[("h/1", b"x")]).unwrap();
        store.flush().unwrap();
        // `flush` returns at the durability point; the hook fires just
        // after it, on the writer thread.
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.load(Ordering::SeqCst) < w.0 {
            assert!(Instant::now() < deadline, "commit hook never reported {w}");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(store);
        let _ = fs::remove_dir_all(dir);
    }
}
