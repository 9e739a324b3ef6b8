//! The deployment's lock table: named, exclusive, timed locks that keep
//! a fiber from running on two instances at once (paper §4.2, where NFS
//! lock files do this job and ZooKeeper is named as their replacement).
//! Every fiber runs in the deployment's process, so one mutex-guarded
//! table keeps that contract; when fibers move into worker processes
//! the lock becomes a lease in the broker's lease table.

use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use rustc_hash::FxHashMap;

/// How long a lock site waits before giving up: the fiber lock of
/// RunFiber, ResumeFromCall, JoinProcess and a Start's birth, a task
/// variable's mutation, and a join-waiter list. AwakeFiber waits only
/// `VinzConfig::awake_wait_limit` (§5).
pub(crate) const LOCK_WAIT: Duration = Duration::from_secs(10);

/// How long a synchronous service call (`call-wsdl-operation`) waits
/// for its reply.
pub(crate) const SYNC_CALL_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the blocking waits for a task give up after: `Run`'s wait
/// for its task, and a `join-process` on a thread that cannot suspend.
pub(crate) const JOIN_DEADLINE: Duration = Duration::from_secs(600);

/// Lock name → owner token of the current holder.
struct Table {
    held: FxHashMap<String, u64>,
    next_owner: u64,
}

/// The lock table of one deployment.
pub(crate) struct InProcessLocks {
    table: Mutex<Table>,
    released: Condvar,
}

impl InProcessLocks {
    pub(crate) fn new() -> InProcessLocks {
        InProcessLocks {
            table: Mutex::new(Table {
                held: FxHashMap::default(),
                next_owner: 1,
            }),
            released: Condvar::new(),
        }
    }

    /// Acquire `key`, waiting up to `wait`. `None` on timeout.
    pub(crate) fn acquire(&self, key: String, wait: Duration) -> Option<LockGuard<'_>> {
        let deadline = Instant::now() + wait;
        let mut table = self.table.lock();
        loop {
            if !table.held.contains_key(&key) {
                let owner = table.next_owner;
                table.next_owner += 1;
                table.held.insert(key.clone(), owner);
                return Some(LockGuard {
                    locks: self,
                    key,
                    owner,
                });
            }
            if self.released.wait_until(&mut table, deadline).timed_out() {
                return None;
            }
        }
    }
}

/// A held lock; released on drop, including when its holder unwinds.
pub(crate) struct LockGuard<'a> {
    locks: &'a InProcessLocks,
    key: String,
    owner: u64,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        let mut table = self.locks.table.lock();
        if table.held.get(&self.key) == Some(&self.owner) {
            table.held.remove(&self.key);
        }
        self.locks.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn exclusive_per_key() {
        let locks = InProcessLocks::new();
        let g = locks
            .acquire("lock/t1".into(), Duration::from_millis(200))
            .unwrap();
        assert!(
            locks
                .acquire("lock/t1".into(), Duration::from_millis(50))
                .is_none(),
            "second acquire should time out"
        );
        // Different name is independent.
        assert!(locks
            .acquire("lock/t2".into(), Duration::from_millis(50))
            .is_some());
        drop(g);
        assert!(locks
            .acquire("lock/t1".into(), Duration::from_millis(200))
            .is_some());
    }

    #[test]
    fn contention_is_safe() {
        let locks = InProcessLocks::new();
        let inside = AtomicUsize::new(0);
        let max = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..15 {
                        let g = locks.acquire("hot".into(), LOCK_WAIT).unwrap();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        max.fetch_max(now, Ordering::SeqCst);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        drop(g);
                    }
                });
            }
        });
        assert_eq!(max.load(Ordering::SeqCst), 1);
    }

    /// A holder that dies frees its lock: a thread panicking while it
    /// holds `lock/x` releases it on unwind, and a waiter already
    /// blocked on `lock/x` gets it within its wait. (An instance thread
    /// whose handler panics dies this way.)
    #[test]
    fn holder_crash_releases() {
        let locks = &InProcessLocks::new();
        let (held_tx, held_rx) = mpsc::channel();
        let (waiting_tx, waiting_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let holder = s.spawn(move || {
                let _g = locks.acquire("lock/x".into(), LOCK_WAIT).unwrap();
                held_tx.send(()).unwrap();
                waiting_rx.recv().unwrap();
                // Give the waiter time to block on the condvar.
                std::thread::sleep(Duration::from_millis(20));
                panic!("holder crashed");
            });
            held_rx.recv().unwrap();
            let waiter = s.spawn(move || {
                waiting_tx.send(()).unwrap();
                locks.acquire("lock/x".into(), LOCK_WAIT).is_some()
            });
            assert!(holder.join().is_err(), "holder should have panicked");
            assert!(
                waiter.join().unwrap(),
                "waiter should get the dead holder's lock"
            );
        });
    }
}
