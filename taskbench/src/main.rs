//! `taskbench`: the task-level benchmark of the Gozer workflow system.
//!
//! Six workloads, each a deployment users could run, each stressing
//! different layers of a task's path (reader → compiler → GVM →
//! `gozer-serial` → `StateStore` → `ServiceQueue` → wire). The untraced
//! run gives what a user sees — tasks per second, start→`Completed`
//! latency, set-up time; the traced run gives each layer's own figures.
//! See `README.md` beside this package for names, units and commands.

mod json;
mod ladder;
mod load;
mod pin;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use run::Opts;
use workloads::Kind;

const USAGE: &str = "usage:
  taskbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; last stdout line is the result object
  taskbench --all --seed <n> --json <out.json> [--seconds <s>] [--trace] [--repeat <n>] [--order rev]
      every workload (untraced, then traced with --trace); full report
  taskbench --compare <a.json> <b.json>
      b against a per metric x workload: ratio, bound, ok/worse/unresolved
  taskbench --smoke
      all six workloads in under 10 s, then a shape check of the report
workloads: quick-closed quick-open forkjoin-log awake-cold compute svc-tcp";

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("{name}: cannot read {v:?}"))
            })
            .transpose()
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--compare") {
        let i = args
            .0
            .iter()
            .position(|a| a == "--compare")
            .expect("flag present");
        let (Some(a), Some(b)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
            return Err("--compare needs two report files".into());
        };
        return report::compare(&PathBuf::from(a), &PathBuf::from(b));
    }
    if pin::pin_process().is_none() {
        eprintln!("taskbench: could not pin to one CPU; figures will be noisier");
    }
    if args.flag("--smoke") {
        return run::smoke();
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: want a number in (0, 600]"));
    }
    if args.flag("--all") {
        let out = PathBuf::from(args.value("--json").ok_or("--all needs --json <out>")?);
        let repeat: usize = args.parsed("--repeat")?.unwrap_or(1).max(1);
        let reverse = args.value("--order") == Some("rev");
        let mut opts = Opts::full(seed, seconds);
        opts.out_dir = out.parent().map(PathBuf::from).unwrap_or_default();
        return run::all(&opts, &out, args.flag("--trace"), repeat, reverse);
    }
    if let Some(name) = args.value("--workload") {
        let kind =
            Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
        let trace = match args.value("--trace") {
            Some("1") => true,
            Some("0") | None => false,
            Some(other) => return Err(format!("--trace {other}: want 0 or 1")),
        };
        return run::driver(kind, &Opts::driver(seed, seconds), trace);
    }
    Err(USAGE.into())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("taskbench: {e}");
            ExitCode::from(2)
        }
    }
}
