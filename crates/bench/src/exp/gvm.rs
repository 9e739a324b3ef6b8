//! GVM interpreter wall clock and primitive costs (`BENCH_gvm.json`):
//! the interpreter-bound cores (fib, a summing loop, Listing 1's
//! `loc`/`par` collect loops at n = 256) and the primitives everything
//! else is built from (future spawn+touch, continuation capture +
//! resume at depth 1 and 50, compiling a small `defun`).
//!
//! `shared_gvm` records what running on one VM from two threads costs,
//! as service instances do: calls per second of `loop_sum` and of the
//! taskbench `compute` loop (`sum_squares`) from one thread and from two
//! threads at once on one fused `Gvm`. Anything both threads write —
//! a refcount of a global they both call — shows as a `scaling` below
//! the thread count.
//!
//! Every workload runs on two VMs, one whose code is compiled with
//! superinstruction fusion and one without (fusion is the VM's only
//! switch), and the report gives the fused-vs-unfused speedup. No ratio
//! is asserted: a timing depends on the host. The gate on the
//! interpreter's fast paths is an allocation count
//! (`crates/vm/tests/alloc_budget.rs`); each workload here checks its
//! own result.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gozer::{Gvm, RunOutcome, Value};
use gozer_bench::{Json, Table};
use gozer_vm::set_fuse_override;

use super::{median, timed};

const SRC: &str = "
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun sum-to (n) (loop for i from 1 to n sum i))
(defun sum-squares (n) (loop for i from 1 to n sum (* i i)))
(defun spawn-touch () (touch (future (* 6 7))))
(defun yielder () (yield :pause) :done)
(defun deep (n) (if (= n 0) (yield :deep) (+ 0 (deep (- n 1)))))
(defun loc-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (* number number))))
(defun par-sum-squares (numbers)
  (apply #'+
         (loop for number in numbers
               collect (future (* number number)))))
";

/// A VM compiling with or without fusion. Fusion is decided when code
/// is compiled, so everything this VM compiles goes through [`Vm::load`].
struct Vm {
    gvm: Arc<Gvm>,
    fuse: bool,
}

impl Vm {
    fn new(fuse: bool) -> Vm {
        let vm = Vm {
            gvm: Gvm::with_pool_size(2),
            fuse,
        };
        vm.load(SRC, "gvm");
        vm
    }

    fn load(&self, src: &str, name: &str) {
        set_fuse_override(Some(self.fuse));
        let loaded = self.gvm.load_str(src, name);
        set_fuse_override(None);
        loaded.unwrap();
    }
}

type Workload<'a> = (&'static str, Box<dyn FnMut() + 'a>);

fn workload<'a>(name: &'static str, f: impl FnMut() + 'a) -> Workload<'a> {
    (name, Box::new(f))
}

/// The workloads on `vm`, each checking its own result. The compile
/// workload is last because every call defines a new global; its source
/// differs each time so nothing can be cached by program identity.
fn workloads(vm: &Vm, fib_n: i64, sum_n: i64) -> Vec<Workload<'_>> {
    let function = |name| vm.gvm.function(name).unwrap();
    let (fib, sum_to, spawn_touch) = (function("fib"), function("sum-to"), function("spawn-touch"));
    let (yielder, deep) = (function("yielder"), function("deep"));
    let (loc, par) = (function("loc-sum-squares"), function("par-sum-squares"));
    let fib_expected = (0..fib_n).fold((0i64, 1i64), |(a, b), _| (b, a + b)).0;
    let numbers = Value::list((1..=256i64).map(Value::Int).collect());
    let sq_expected = Value::Int((1..=256i64).map(|x| x * x).sum());
    let call = move |f: &Value, args: Vec<Value>| vm.gvm.call_sync(f, args).unwrap();
    let yield_resume = move |f: &Value, args: Vec<Value>, expected: &Value| {
        let RunOutcome::Suspended(s) = vm.gvm.call_fiber(f, args).unwrap() else {
            panic!("expected suspension");
        };
        let RunOutcome::Done(v) = vm.gvm.resume_fiber(s.state, Value::Int(0)).unwrap() else {
            panic!("expected done");
        };
        assert_eq!(&v, expected);
    };
    let (loc_numbers, loc_expected) = (numbers.clone(), sq_expected.clone());
    let mut compiled = 0u64;
    vec![
        workload("fib", move || {
            assert_eq!(
                call(&fib, vec![Value::Int(fib_n)]),
                Value::Int(fib_expected)
            );
        }),
        workload("loop_sum", move || {
            assert_eq!(
                call(&sum_to, vec![Value::Int(sum_n)]),
                Value::Int(sum_n * (sum_n + 1) / 2)
            );
        }),
        workload("loc_sum_squares_256", move || {
            assert_eq!(call(&loc, vec![loc_numbers.clone()]), loc_expected);
        }),
        workload("par_sum_squares_256", move || {
            assert_eq!(call(&par, vec![numbers.clone()]), sq_expected);
        }),
        workload("future_spawn_touch", move || {
            assert_eq!(call(&spawn_touch, vec![]), Value::Int(42));
        }),
        workload("yield_resume_depth1", move || {
            yield_resume(&yielder, vec![], &Value::keyword("done"));
        }),
        workload("yield_resume_depth50", move || {
            yield_resume(&deep, vec![Value::Int(50)], &Value::Int(0));
        }),
        workload("load_str_compile", move || {
            compiled += 1;
            vm.load(
                &format!("(defun tmp{compiled} (x) (* x {compiled}))"),
                "compile",
            );
        }),
    ]
}

/// Median wall time per call of each of two variants of one workload,
/// sampled alternately so a noisy stretch of the host lands on both.
fn time_pair(samples: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    a();
    b();
    let (ta, tb) = (0..samples).map(|_| (timed(&mut a), timed(&mut b))).unzip();
    (median(ta), median(tb))
}

fn rows_json(rows: &[(&str, Duration)]) -> Json {
    rows.iter().fold(Json::obj(), |obj, (name, t)| {
        obj.field(name, t.as_nanos() as u64)
    })
}

/// Threads of the `shared_gvm` rows' concurrent side.
const SHARED_THREADS: usize = 2;

/// Calls per second of `name` on `n` when `threads` threads call it at
/// once on `vm`, `calls` calls each.
fn calls_per_s(vm: &Vm, name: &str, n: i64, expected: i64, threads: usize, calls: usize) -> f64 {
    let f = vm.gvm.function(name).unwrap();
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                for _ in 0..calls {
                    let v = vm.gvm.call_sync(&f, vec![Value::Int(n)]).unwrap();
                    assert_eq!(v, Value::Int(expected));
                }
            });
        }
    });
    (threads * calls) as f64 / t.elapsed().as_secs_f64()
}

/// One and [`SHARED_THREADS`] threads on one shared `Gvm`, sampled
/// alternately: the best calls per second of each, and their ratio. The
/// concurrent side needs a second free core, which a shared host takes
/// away for seconds at a time; the best sample of each side reads the
/// program and the median would read the host. Contention on a cache
/// line both threads write slows every sample, the best one too.
fn shared_gvm(vm: &Vm, samples: usize, sum_n: i64, calls: usize) -> Json {
    let mut table = Table::new(
        "One Gvm shared by two threads (best calls/s, all threads)",
        &["workload", "1 thread", "2 threads", "scaling"],
    );
    let mut json = Json::obj().field("threads", SHARED_THREADS);
    let shapes = [
        ("loop_sum", "sum-to", sum_n * (sum_n + 1) / 2),
        (
            "sum_squares",
            "sum-squares",
            sum_n * (sum_n + 1) * (2 * sum_n + 1) / 6,
        ),
    ];
    for (row, name, expected) in shapes {
        let (mut one, mut two) = (Vec::new(), Vec::new());
        for _ in 0..samples {
            one.push(calls_per_s(vm, name, sum_n, expected, 1, calls));
            two.push(calls_per_s(
                vm,
                name,
                sum_n,
                expected,
                SHARED_THREADS,
                calls,
            ));
        }
        let (one, two) = (best(one), best(two));
        let scaling = (two / one * 100.0).round() / 100.0;
        table.row(&[
            row.to_string(),
            format!("{one:.0}"),
            format!("{two:.0}"),
            format!("{scaling:.2}x"),
        ]);
        json = json.field(
            row,
            Json::obj()
                .field("one_thread_calls_per_s", one.round() as u64)
                .field("two_threads_calls_per_s", two.round() as u64)
                .field("scaling", scaling),
        );
    }
    table.print();
    json
}

fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(0.0, f64::max)
}

pub fn run(smoke: bool) -> Json {
    let (samples, fib_n, sum_n) = if smoke {
        (7, 16, 4000)
    } else {
        (15, 20, 100_000)
    };
    let (fused_vm, unfused_vm) = (Vm::new(true), Vm::new(false));
    let (mut fused, mut unfused) = (Vec::new(), Vec::new());
    for ((name, a), (_, b)) in workloads(&fused_vm, fib_n, sum_n)
        .into_iter()
        .zip(workloads(&unfused_vm, fib_n, sum_n))
    {
        let (ta, tb) = time_pair(samples, a, b);
        fused.push((name, ta));
        unfused.push((name, tb));
    }

    let mut table = Table::new(
        "GVM wall clock (median ns per call), fused vs unfused",
        &["workload", "fused", "unfused", "speedup"],
    );
    let mut speedups = Json::obj();
    for ((name, a), (_, b)) in fused.iter().zip(&unfused) {
        let s = b.as_nanos() as f64 / a.as_nanos().max(1) as f64;
        speedups = speedups.field(name, (s * 100.0).round() / 100.0);
        table.row(&[
            name.to_string(),
            a.as_nanos().to_string(),
            b.as_nanos().to_string(),
            format!("{s:.2}x"),
        ]);
    }
    table.print();
    let shared = shared_gvm(&fused_vm, samples, sum_n, if smoke { 2 } else { 5 });

    Json::obj()
        .field("samples", samples)
        .field("fib_n", fib_n)
        .field("sum_n", sum_n)
        .field("fused", rows_json(&fused))
        .field("unfused", rows_json(&unfused))
        .field("speedup_fused_vs_unfused", speedups)
        .field("shared_gvm", shared)
}
