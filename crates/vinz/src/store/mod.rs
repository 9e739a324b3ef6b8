//! The shared persistence store (paper §4.2): "a shared NFS filesystem
//! provides all instances with read and write access to this data".
//!
//! Three implementations of [`StateStore`]:
//!
//! * [`MemStore`] — in-process shared map, the fast default for tests and
//!   benches (stands in for the enterprise NAS).
//! * [`FileStore`] — a directory of files, one per key, giving the real
//!   write-out/read-back IO path for the §4.2 compression experiment.
//!   One fsync'd rename per save: durable, simple, slow.
//! * [`LogStore`] — one append-only commit log with group commit
//!   (Netherite-style): one fsync covers every save that arrived since
//!   the last one, issued as soon as somebody waits on a save (or, for
//!   saves nobody waits on, when the commit window runs out) but no
//!   sooner than 500 µs after the previous group started, and saves
//!   become durable in the background while the fiber speculatively
//!   resumes.
//!
//! # The write path: batches, watermarks, speculation
//!
//! The trait splits reads from a write path that can express batching
//! and deferred durability. [`StateStore::put_batch`] persists several
//! keys as one atomic unit and returns a [`DurabilityTicket`] — a
//! monotonic [`Watermark`] naming the commit that will contain the
//! batch. A caller continues the moment the ticket is issued. What it
//! causes *inside* the deployment (fiber-bound messages, whose only
//! consequences are further writes to this store) is not held: a log
//! assigns seqs under one lock and recovers a contiguous prefix, so a
//! crash cannot keep a consequence and lose its cause. Only an effect
//! that can outlive the process — the request of an asynchronous
//! service call — is held until [`StateStore::durable`] reports the
//! ticket's watermark as committed. [`Watermark::IMMEDIATE`] (zero)
//! means "already durable when the call returned", which is what the
//! default implementations report: `MemStore` and `FileStore` complete
//! their IO before returning, so nothing ever needs holding.
//!
//! Stores that defer durability invoke the hook installed by
//! [`StateStore::set_commit_hook`] each time the commit watermark
//! advances; the cluster uses it to release held messages.

mod file;
mod log;
mod mem;

use std::fmt;
use std::sync::Arc;

pub use file::{FileStore, FileStoreBuilder, FsyncPolicy};
pub use log::{LogStats, LogStore, LogStoreBuilder};
pub use mem::MemStore;

/// Store failure, classified by what went wrong.
///
/// The rendered text is unchanged from the old stringly-typed error
/// (`store error: …`), so messages logged or asserted against previous
/// releases keep matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying filesystem or device failed.
    Io(String),
    /// A stored record failed its integrity check (torn write, bit rot,
    /// or a mangled log frame).
    Corrupt {
        /// The key whose record is damaged, or the segment/checkpoint
        /// path when the damage is below the key level.
        key: String,
        /// Human-readable diagnosis (includes the key).
        detail: String,
    },
    /// The backend rejected the operation (shut down, misconfigured).
    Backend(String),
}

impl StoreError {
    /// An IO-classified error from anything displayable.
    pub fn io(err: impl fmt::Display) -> StoreError {
        StoreError::Io(err.to_string())
    }

    /// A corruption error for `key` with a full human-readable detail.
    pub fn corrupt(key: impl Into<String>, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            key: key.into(),
            detail: detail.into(),
        }
    }

    /// A backend-rejection error.
    pub fn backend(msg: impl Into<String>) -> StoreError {
        StoreError::Backend(msg.into())
    }

    /// The inner message, exactly as `Display` renders it after the
    /// `store error: ` prefix.
    pub fn message(&self) -> &str {
        match self {
            StoreError::Io(m) | StoreError::Backend(m) => m,
            StoreError::Corrupt { detail, .. } => detail,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.message())
    }
}

impl std::error::Error for StoreError {}

/// A monotonic position in a store's commit order.
///
/// `Watermark(0)` ([`Watermark::IMMEDIATE`]) is reserved for "durable
/// before the call returned"; log-structured stores issue tickets
/// starting at 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Watermark(pub u64);

impl Watermark {
    /// The watermark of a write that was durable when its call
    /// returned. Always reported durable by every store.
    pub const IMMEDIATE: Watermark = Watermark(0);

    /// Whether this is the already-durable sentinel.
    pub fn is_immediate(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Watermark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// What a speculative save hands back: the watermark whose commit will
/// make the save durable. Hold outbound effects until
/// [`StateStore::durable`] says the ticket has committed.
pub type DurabilityTicket = Watermark;

/// Callback fired by a deferred-durability store every time its commit
/// watermark advances, with the new high-water mark.
pub type CommitHook = Arc<dyn Fn(Watermark) + Send + Sync>;

/// Shared key/value persistence with the operations Vinz needs.
///
/// Only `put`/`get`/`delete`/`list` are required. The batching and
/// durability methods default to "write through and report immediate
/// durability", so a plain synchronous backend implements nothing
/// extra.
pub trait StateStore: Send + Sync {
    /// Write (create or overwrite) a key.
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StoreError>;
    /// Read a key.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;
    /// Delete a key (idempotent).
    fn delete(&self, key: &str) -> Result<(), StoreError>;
    /// Keys under a prefix.
    fn list(&self, prefix: &str) -> Result<Vec<String>, StoreError>;
    /// Total bytes written so far (for the §4.2 IO-cost accounting).
    fn bytes_written(&self) -> u64;
    /// Total bytes read so far.
    fn bytes_read(&self) -> u64;

    /// Persist several keys as one atomic unit and return the ticket
    /// naming the commit that will contain them. Readers on this store
    /// observe the new values immediately (read-your-writes); crash
    /// recovery observes either all entries of the batch or none.
    ///
    /// The default writes each key through [`StateStore::put`] in order
    /// and reports immediate durability.
    fn put_batch(&self, entries: &[(&str, &[u8])]) -> Result<DurabilityTicket, StoreError> {
        for (key, data) in entries {
            self.put(key, data)?;
        }
        Ok(Watermark::IMMEDIATE)
    }

    /// Block until every write issued so far is durable; returns the
    /// committed watermark.
    fn flush(&self) -> Result<Watermark, StoreError> {
        Ok(Watermark::IMMEDIATE)
    }

    /// Whether the commit named by `w` has reached stable storage.
    fn durable(&self, _w: Watermark) -> bool {
        true
    }

    /// Mirror the store's internal counters into the observability
    /// registry. Default: nothing to report.
    fn attach_obs(&self, _obs: &Arc<gozer_obs::Obs>) {}

    /// Install the callback fired when the commit watermark advances.
    /// Stores that never defer durability ignore it.
    fn set_commit_hook(&self, _hook: CommitHook) {}
}

/// Cheap thread-local PRNG for temp-file suffixes.
pub(crate) fn fastrand_u64() -> u64 {
    use std::cell::Cell;
    thread_local! {
        static STATE: Cell<u64> = Cell::new(0x853c49e6748fea9b ^ std::process::id() as u64);
    }
    STATE.with(|s| {
        let mut x = s.get().wrapping_add(0x9E3779B97F4A7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        s.set(x);
        x ^ (x >> 31)
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn exercise(store: &dyn StateStore) {
        assert_eq!(store.get("a/b").unwrap(), None);
        store.put("a/b", b"hello").unwrap();
        store.put("a/c", b"world").unwrap();
        assert_eq!(store.get("a/b").unwrap(), Some(b"hello".to_vec()));
        store.put("a/b", b"hello2").unwrap();
        assert_eq!(store.get("a/b").unwrap(), Some(b"hello2".to_vec()));
        assert_eq!(store.list("a/").unwrap(), vec!["a/b", "a/c"]);
        store.delete("a/b").unwrap();
        store.delete("a/b").unwrap(); // idempotent
        assert_eq!(store.get("a/b").unwrap(), None);
        assert!(store.bytes_written() >= 16);
        assert!(store.bytes_read() >= 11);

        // The batched write path: atomic pair, ticket, flush, probe.
        let w = store
            .put_batch(&[("b/1", b"one"), ("b/2", b"two")])
            .unwrap();
        assert_eq!(store.get("b/1").unwrap(), Some(b"one".to_vec()));
        assert_eq!(store.get("b/2").unwrap(), Some(b"two".to_vec()));
        let flushed = store.flush().unwrap();
        assert!(store.durable(w), "ticket {w} not durable after flush");
        assert!(store.durable(flushed));
        assert!(store.durable(Watermark::IMMEDIATE));
    }

    #[test]
    fn error_display_text_is_stable() {
        // The structured enum must render exactly as the old
        // `StoreError(String)` did: existing logs and assertions
        // match on this text.
        let torn = StoreError::corrupt(
            "fiber/1",
            "torn write detected for fiber/1: expected 10 payload bytes, found 5",
        );
        assert_eq!(
            torn.to_string(),
            "store error: torn write detected for fiber/1: expected 10 payload bytes, found 5"
        );
        let io = StoreError::io("No such file or directory (os error 2)");
        assert_eq!(
            io.to_string(),
            "store error: No such file or directory (os error 2)"
        );
        let backend = StoreError::backend("store is shut down");
        assert_eq!(backend.to_string(), "store error: store is shut down");
        match torn {
            StoreError::Corrupt { ref key, .. } => assert_eq!(key, "fiber/1"),
            _ => panic!("expected Corrupt"),
        }
    }

    #[test]
    fn watermark_ordering() {
        assert!(Watermark::IMMEDIATE.is_immediate());
        assert!(!Watermark(1).is_immediate());
        assert!(Watermark(1) < Watermark(2));
    }
}
