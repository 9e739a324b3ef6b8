//! GVM interpreter wall clock and primitive costs (`BENCH_gvm.json`):
//! the interpreter-bound cores (fib, a summing loop, Listing 1's
//! `loc`/`par` collect loops at n = 256) and the primitives everything
//! else is built from (future spawn+touch, continuation capture +
//! resume at depth 1 and 50, compiling a small `defun`).
//!
//! Every workload runs on two VMs, one at full optimization and one at
//! [`OptConfig::off`] (the semantics-preserving de-optimization
//! `GVM_OPT=off` selects), and the interpreter-bound ones must come out
//! at least [`MIN_SPEEDUP`] faster at full: the gate that catches fast
//! paths wired off.

use std::sync::Arc;
use std::time::Duration;

use gozer::{Gvm, RunOutcome, Value};
use gozer_bench::{Json, Table};
use gozer_vm::{set_fuse_override, OptConfig};

use super::{median, timed};

const SRC: &str = "
(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
(defun sum-to (n) (loop for i from 1 to n sum i))
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

/// The floor on full-vs-off speedup for [`GATED`] workloads. Far below
/// the committed speedups: it catches "fast paths wired off" (a ~1.0x
/// reading), not machine-to-machine variance.
const MIN_SPEEDUP: f64 = 1.3;

/// The workloads bound by instruction dispatch. The others are
/// dominated by continuation capture, the future pool or the compiler.
const GATED: &[&str] = &["fib", "loop_sum", "loc_sum_squares_256"];

/// A VM at one optimization level. Fusion is decided when code is
/// compiled, so everything this VM compiles goes through [`Vm::load`].
struct Vm {
    gvm: Arc<Gvm>,
    fuse: bool,
}

impl Vm {
    fn new(opt: OptConfig) -> Vm {
        let gvm = Gvm::with_pool_size(2);
        gvm.set_opt(opt);
        let vm = Vm { gvm, fuse: opt.fuse };
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
            assert_eq!(call(&fib, vec![Value::Int(fib_n)]), Value::Int(fib_expected));
        }),
        workload("loop_sum", move || {
            assert_eq!(call(&sum_to, vec![Value::Int(sum_n)]), Value::Int(sum_n * (sum_n + 1) / 2));
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
            vm.load(&format!("(defun tmp{compiled} (x) (* x {compiled}))"), "compile");
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
    rows.iter()
        .fold(Json::obj(), |obj, (name, t)| obj.field(name, t.as_nanos() as u64))
}

pub fn run(smoke: bool) -> Json {
    let (samples, fib_n, sum_n) = if smoke { (7, 16, 4000) } else { (15, 20, 100_000) };
    let (full_vm, off_vm) = (Vm::new(OptConfig::full()), Vm::new(OptConfig::off()));
    let (mut full, mut off) = (Vec::new(), Vec::new());
    for ((name, a), (_, b)) in workloads(&full_vm, fib_n, sum_n)
        .into_iter()
        .zip(workloads(&off_vm, fib_n, sum_n))
    {
        let (ta, tb) = time_pair(samples, a, b);
        full.push((name, ta));
        off.push((name, tb));
    }

    let mut table = Table::new(
        "GVM wall clock (median ns per call), full vs GVM_OPT=off",
        &["workload", "full", "off", "speedup"],
    );
    let mut speedups = Json::obj();
    let mut worst = f64::INFINITY;
    for ((name, a), (_, b)) in full.iter().zip(&off) {
        let s = b.as_nanos() as f64 / a.as_nanos().max(1) as f64;
        if GATED.contains(name) {
            worst = worst.min(s);
        }
        speedups = speedups.field(name, (s * 100.0).round() / 100.0);
        table.row(&[
            name.to_string(),
            a.as_nanos().to_string(),
            b.as_nanos().to_string(),
            format!("{s:.2}x"),
        ]);
    }
    table.print();
    println!("shape check: worst interpreter-bound speedup {worst:.2}x (floor {MIN_SPEEDUP}x)");
    assert!(
        worst >= MIN_SPEEDUP,
        "worst interpreter-bound speedup {worst:.2}x < {MIN_SPEEDUP}x: are the fast paths off?"
    );

    Json::obj()
        .field("samples", samples)
        .field("fib_n", fib_n)
        .field("sum_n", sum_n)
        .field("full", rows_json(&full))
        .field("off", rows_json(&off))
        .field("speedup_full_vs_off", speedups)
        .field("min_speedup_required", MIN_SPEEDUP)
}
