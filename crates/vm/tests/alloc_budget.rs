//! Heap allocations per interpreted call: what a warm fused VM spends on
//! `(fib 15)` and `(sum-to 1000)`, counted by a global allocator and held
//! under a budget. This is the gate on the interpreter's fast paths. The
//! frame pool, the two-int arithmetic and the simple closure call each
//! exist to keep the allocator out of the call path, so a change that
//! wires one of them off multiplies the count (tens of allocations per
//! `(fib 15)` become thousands) on any machine, where a timing ratio
//! would need a de-optimized twin of the interpreter to compare against.
//!
//! Its own test binary: the counting allocator sees every allocation of
//! the process, so nothing else may run beside the measured calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gozer_lang::Value;
use gozer_vm::{set_fuse_override, Gvm};

/// Allocations one `(fib 15)` call may make, 1 973 interpreted calls
/// deep: 40 measured in a debug build (the entry call's own frame,
/// argument and result plumbing), plus 10 %.
const FIB_BUDGET: f64 = 44.0;

/// Allocations one `(sum-to 1000)` call may make: 7 measured, plus two.
const SUM_TO_BUDGET: f64 = 9.0;

const WARM_UP: usize = 20;
const CALLS: usize = 200;

const SRC: &str = "
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun sum-to (n) (loop for i from 1 to n sum i))
";

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a plain
// atomic and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Mean allocations per call of `name` on `arg` after a warm-up, each
/// call checked against `expected`.
fn allocs_per_call(gvm: &Arc<Gvm>, name: &str, arg: i64, expected: i64) -> f64 {
    let f = gvm.function(name).unwrap();
    let run = |n: usize| {
        for _ in 0..n {
            assert_eq!(
                gvm.call_sync(&f, vec![Value::Int(arg)]).unwrap(),
                Value::Int(expected)
            );
        }
    };
    run(WARM_UP);
    let before = ALLOCS.load(Ordering::Relaxed);
    run(CALLS);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / CALLS as f64
}

#[test]
fn a_warm_fused_vm_stays_within_its_allocation_budget() {
    set_fuse_override(Some(true));
    let gvm = Gvm::with_pool_size(1);
    let loaded = gvm.load_str(SRC, "alloc-budget");
    set_fuse_override(None);
    loaded.unwrap();

    let fib = allocs_per_call(&gvm, "fib", 15, 610);
    let sum_to = allocs_per_call(&gvm, "sum-to", 1000, 500_500);
    println!("allocations per call: (fib 15) {fib:.1}, (sum-to 1000) {sum_to:.1}");
    assert!(
        fib <= FIB_BUDGET,
        "(fib 15): {fib:.1} allocations per call, budget {FIB_BUDGET}"
    );
    assert!(
        sum_to <= SUM_TO_BUDGET,
        "(sum-to 1000): {sum_to:.1} allocations per call, budget {SUM_TO_BUDGET}"
    );
}
