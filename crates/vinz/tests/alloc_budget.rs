//! Heap allocations per task: what the engine's bookkeeping costs one
//! trivial task — broker message, lease, tracker record, lock, store
//! keys, snapshot, cache entry — counted by a global allocator and held
//! under a budget, so a change that adds a copy to the task path fails
//! here rather than only in a profile.
//!
//! Its own test binary: the counting allocator sees every allocation of
//! the process, so nothing else may run beside the measured tasks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bluebox::Cluster;
use gozer_compress::Codec;
use gozer_lang::Value;
use vinz::{MemStore, SupervisorConfig, TaskStatus, VinzConfig, WorkflowService};

/// Allocations one `quick` task may make, start to finished record:
/// 77.4 measured, plus 10 % (95.5 before messages were leased by
/// reference and the fiber cache handed its entries over).
const ALLOCS_PER_TASK_BUDGET: f64 = 85.0;

const WARM_UP: usize = 500;
const TASKS: usize = 2_000;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by this allocator, which is
        // `System`, with `layout`; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_quick_task_stays_within_its_allocation_budget() {
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "wf")
        .source("(defun quick (n) (* n n))")
        .store(Arc::new(MemStore::new()))
        .config(VinzConfig {
            codec: Codec::None,
            supervision: SupervisorConfig { enabled: false },
            ..VinzConfig::default()
        })
        .instances(0, 2)
        .deploy()
        .unwrap();
    let run = |n: usize| {
        for i in 0..n as i64 {
            let task = wf.start("quick", vec![Value::Int(i)], None).unwrap();
            let rec = wf
                .wait(&task, Duration::from_secs(30))
                .expect("task finished");
            assert_eq!(rec.status, TaskStatus::Completed(Value::Int(i * i)));
        }
    };
    run(WARM_UP);
    let (allocs, bytes) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    run(TASKS);
    let per_task = (ALLOCS.load(Ordering::Relaxed) - allocs) as f64 / TASKS as f64;
    let bytes_per_task = (BYTES.load(Ordering::Relaxed) - bytes) as f64 / TASKS as f64;
    println!("allocations per task: {per_task:.1} ({bytes_per_task:.0} bytes)");
    cluster.shutdown();
    assert!(
        per_task <= ALLOCS_PER_TASK_BUDGET,
        "{per_task:.1} allocations per task, budget {ALLOCS_PER_TASK_BUDGET}"
    );
}
