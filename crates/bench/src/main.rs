//! `experiments`: one subcommand per table, figure and section of the
//! paper's evaluation (see EXPERIMENTS.md). Each experiment prints its
//! tables and asserts its shape; the six that regenerate a committed
//! `BENCH_*.json` baseline also return a report, which `--out <dir>`
//! writes to `<dir>/<that file name>` under one shared `bench`/`smoke`
//! header.
//!
//! ```bash
//! cargo run --release -p gozer-bench -- <experiment>… [--smoke] [--out <dir>]
//! cargo run --release -p gozer-bench -- all --smoke     # every experiment, downscaled
//! cargo run --release -p gozer-bench -- scale --out .   # regenerate BENCH_scale.json
//! ```
//!
//! `--smoke` shrinks every population so the whole set finishes in
//! seconds. The shape assertions stay on; only `sec42-cache`'s hit-rate
//! comparisons, too noisy at eight tasks, are full-size only.

mod exp;

use std::path::PathBuf;
use std::time::Instant;

use gozer_bench::Json;

/// What an experiment leaves behind besides its printed tables.
enum Output {
    /// Nothing: the tables are the result.
    Tables(fn(bool)),
    /// The report that regenerates the named committed baseline.
    Report(&'static str, fn(bool) -> Json),
}

const EXPERIMENTS: &[(&str, Output)] = &[
    ("listing1", Output::Tables(exp::listing1::run)),
    ("table1", Output::Tables(exp::table1::run)),
    ("fig1", Output::Report("BENCH_serialization.json", exp::fig1::run)),
    ("sec31", Output::Tables(exp::sec31::run)),
    ("sec32", Output::Tables(exp::sec32::run)),
    ("sec42-compression", Output::Tables(exp::sec42_compression::run)),
    ("sec42-cache", Output::Report("BENCH_cache.json", exp::sec42_cache::run)),
    ("sec5-day", Output::Report("BENCH_store.json", exp::sec5_day::run)),
    ("sec5-spawn-limit", Output::Tables(exp::sec5_spawn_limit::run)),
    ("sec5-scheduling", Output::Tables(exp::sec5_scheduling::run)),
    ("foreach-chunking", Output::Tables(exp::foreach_chunking::run)),
    ("gvm", Output::Report("BENCH_gvm.json", exp::gvm::run)),
    ("scale", Output::Report("BENCH_scale.json", exp::scale::run)),
    ("cluster", Output::Report("BENCH_cluster.json", exp::cluster::run)),
];

fn usage() -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: experiments <experiment>... [--smoke] [--out <dir>]\n\
         experiments: {} | all",
        names.join(" | ")
    );
    std::process::exit(2);
}

/// The shared header, then the experiment's own fields.
fn with_header(name: &str, smoke: bool, body: Json) -> Json {
    let Json::Obj(fields) = body else {
        panic!("{name}: a report is a JSON object");
    };
    let header = Json::obj().field("bench", name).field("smoke", smoke);
    fields.into_iter().fold(header, |doc, (key, value)| doc.field(&key, value))
}

fn main() {
    let mut selected = Vec::new();
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage()).into()),
            "all" => selected.extend(EXPERIMENTS.iter()),
            name => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
                Some(experiment) => selected.push(experiment),
                None => usage(),
            },
        }
    }
    if selected.is_empty() {
        usage();
    }

    let t_all = Instant::now();
    for (name, output) in selected {
        println!("##### {name}{}\n", if smoke { " (smoke)" } else { "" });
        let t0 = Instant::now();
        match output {
            Output::Tables(run) => run(smoke),
            Output::Report(file, run) => {
                let report = with_header(name, smoke, run(smoke));
                if let Some(dir) = &out {
                    let path = dir.join(file);
                    report
                        .write(&path)
                        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                    println!("wrote {}", path.display());
                }
            }
        }
        println!("{name}: ok in {:.2?}\n", t0.elapsed());
    }
    println!("experiments: ok in {:.2?}", t_all.elapsed());
}
