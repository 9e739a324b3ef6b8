//! An interactive Gozer REPL — the paper calls the language a "scripting
//! language" with "support for interactive development"; this is that
//! loop.
//!
//! ```bash
//! cargo run -p gozer --bin gozer-repl
//! ```
//!
//! Multi-line input is supported (the reader keeps accepting lines until
//! parentheses balance). `:quit` exits, `:log` dumps captured output.
//!
//! ## The `timeline` subcommand
//!
//! ```bash
//! cargo run -p gozer --bin gozer-repl -- timeline workflow.gz main 5
//! ```
//!
//! Deploys the workflow source on a simulated 2-node cluster, runs
//! `main` with the given (integer or string) arguments, and prints the
//! Figure-1-style per-task timeline — every fiber as a span annotated
//! with the node/instance it executed on — followed by the metrics in
//! Prometheus text format.
//!
//! ## The `profile` subcommand
//!
//! ```bash
//! cargo run -p gozer --bin gozer-repl -- profile workflow.gz main 5
//! ```
//!
//! Same deployment, but with the GVM execution profiler enabled:
//! prints the top-N hot-function table (calls, inclusive/exclusive
//! time), the opcode mix, and the continuation serialize/deserialize
//! costs, and writes the folded stacks to `<file>.folded` — pipe that
//! through `flamegraph.pl` for an SVG. `profile --top-pairs <file>
//! <function>` adds the hottest adjacent opcode pairs, the reproducible
//! source of the superinstruction fusion table.

use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

use gozer::{Cluster, Gvm, Value, VinzConfig, WorkflowService};

fn paren_balance(src: &str) -> i32 {
    let mut depth = 0;
    let mut in_string = false;
    let mut escaped = false;
    let mut prev: Option<char> = None;
    for c in src.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
        } else {
            match c {
                '"' => in_string = true,
                '(' | '[' | '{'
                    // #\( is a character literal, not an opener.
                    if prev != Some('\\') => {
                        depth += 1;
                    }
                ')' | ']' | '}'
                    if prev != Some('\\') => {
                        depth -= 1;
                    }
                _ => {}
            }
        }
        prev = Some(c);
    }
    depth
}

/// Deploy the workflow in `path` on a 2-node cluster, two instances
/// per node.
fn deploy(path: &str, profiling: bool) -> Result<(Arc<Cluster>, WorkflowService), String> {
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cluster = Cluster::new();
    let wf = WorkflowService::builder(&cluster, "workflow")
        .source(&source)
        .config(VinzConfig {
            profiling,
            ..VinzConfig::default()
        })
        .instances(0, 2)
        .instances(1, 2)
        .deploy()
        .map_err(|e| format!("deploy failed: {e}"))?;
    Ok((cluster, wf))
}

/// Call `function` with command-line arguments, each an integer or
/// else a string, and print the result.
fn call(wf: &WorkflowService, function: &str, args: &[String]) -> Result<(), String> {
    let args = args
        .iter()
        .map(|a| {
            a.parse::<i64>()
                .map(Value::Int)
                .unwrap_or_else(|_| Value::str(a))
        })
        .collect();
    let v = wf
        .call(function, args, Duration::from_secs(300))
        .map_err(|e| format!("workflow failed: {e}"))?;
    println!("result: {v:?}\n");
    Ok(())
}

/// `timeline <file> <function> [args...]`: run a workflow and print the
/// per-task observability report.
fn run_timeline(args: &[String]) -> Result<(), String> {
    let (path, rest) = args
        .split_first()
        .ok_or("usage: gozer-repl timeline <file> <function> [args...]")?;
    let (function, rest) = rest
        .split_first()
        .ok_or("usage: gozer-repl timeline <file> <function> [args...]")?;
    let (cluster, wf) = deploy(path, false)?;
    let obs = wf.obs();
    obs.set_tracing(true);
    call(&wf, function, rest)?;
    print!("{}", obs.render());
    println!("\n# metrics");
    print!("{}", obs.export_text());
    cluster.shutdown();
    Ok(())
}

/// `profile [--top-pairs] <file> <function> [args...]`: run a workflow
/// with the GVM profiler on; print the hot-function report and write
/// the folded stacks next to the source file. With `--top-pairs`, also
/// print the hottest adjacent opcode pairs — the reproducible source of
/// the superinstruction fusion table (`crates/vm/src/fuse.rs`).
fn run_profile(args: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: gozer-repl profile [--top-pairs] <file> <function> [args...]";
    let mut args = args;
    let mut top_pairs = false;
    if args.first().map(String::as_str) == Some("--top-pairs") {
        top_pairs = true;
        args = &args[1..];
    }
    let (path, rest) = args.split_first().ok_or(USAGE)?;
    let (function, rest) = rest.split_first().ok_or(USAGE)?;
    let (cluster, wf) = deploy(path, true)?;
    call(&wf, function, rest)?;
    let profile = wf.obs().profile();
    print!("{}", profile.render(20));
    if top_pairs {
        println!("\n== top opcode pairs (fusion candidates) ==");
        print!("{}", profile.top_pairs(20));
    }
    let folded_path = format!("{path}.folded");
    std::fs::write(&folded_path, profile.folded_stacks())
        .map_err(|e| format!("cannot write {folded_path}: {e}"))?;
    println!("\nfolded stacks: {folded_path} (pipe through flamegraph.pl for an SVG)");
    cluster.shutdown();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("timeline") {
        if let Err(e) = run_timeline(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    if args.first().map(String::as_str) == Some("profile") {
        if let Err(e) = run_profile(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let gvm = Gvm::new();
    gvm.log_to_stdout
        .store(true, std::sync::atomic::Ordering::Relaxed);
    println!("Gozer REPL — (Lisp dialect of the Gozer workflow system)");
    println!("Type forms; :quit exits.\n");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("gozer> ");
        } else {
            print!("  ...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed {
                ":quit" | ":q" => break,
                ":log" => {
                    for entry in gvm.take_log() {
                        println!("{entry}");
                    }
                    continue;
                }
                "" => continue,
                _ => {}
            }
        }
        buffer.push_str(&line);
        if paren_balance(&buffer) > 0 {
            continue; // keep reading lines
        }
        let src = std::mem::take(&mut buffer);
        match gvm.eval_str(&src) {
            Ok(v) => println!("=> {v:?}"),
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye.");
}
