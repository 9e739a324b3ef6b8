//! Tier-1 runs the paper's evaluation. Every experiment of the
//! `experiments` binary runs at smoke size, one after another in one
//! child process, and asserts its own shape: fig1's >= 2x delta saving,
//! sec5-scheduling's EDF < FCFS, sec5-day's fsync and write counts,
//! sec31's full completion, gvm's workload results. gvm asserts no
//! timing ratio: the interpreter's fast paths are gated by an allocation
//! count, in `crates/vm/tests/alloc_budget.rs`. Then each report must
//! carry exactly the `"key":` names of the committed `BENCH_*.json` of
//! the same name, and every committed file must have been written. The
//! key check reads no number.
//!
//! A baseline is regenerated with `cargo run --release -p gozer-bench --
//! <experiment> --out .` from the repository root.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// How long the whole smoke run may take before it counts as wedged.
const DEADLINE: Duration = Duration::from_secs(120);

/// `BENCH_*.json` files by name, with their contents.
type Reports = BTreeMap<String, String>;

fn reports_in(dir: &Path) -> Reports {
    fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            (name.starts_with("BENCH_") && name.ends_with(".json"))
                .then(|| (name, fs::read_to_string(&path).unwrap()))
        })
        .collect()
}

/// The object keys of `json`: every string literal followed by a `:`.
fn keys(json: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let mut last_string = None;
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                let mut string = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => string.extend([c].into_iter().chain(chars.next())),
                        '"' => break,
                        c => string.push(c),
                    }
                }
                last_string = Some(string);
            }
            ':' => keys.extend(last_string.take()),
            c if c.is_whitespace() => {}
            _ => last_string = None,
        }
    }
    keys
}

/// Every way the `written` reports differ from the `committed` ones,
/// one line each, naming the file and the key.
fn key_mismatches(committed: &Reports, written: &Reports) -> Vec<String> {
    let mut found: Vec<String> = written
        .keys()
        .filter(|name| !committed.contains_key(*name))
        .map(|name| format!("{name}: written, but no committed file has that name"))
        .collect();
    for (name, committed_json) in committed {
        let Some(written_json) = written.get(name) else {
            found.push(format!("{name}: committed, but no experiment wrote it"));
            continue;
        };
        let (want, got) = (keys(committed_json), keys(written_json));
        found.extend(
            want.difference(&got)
                .map(|key| format!("{name}: missing key \"{key}\"")),
        );
        found.extend(
            got.difference(&want)
                .map(|key| format!("{name}: extra key \"{key}\"")),
        );
    }
    found
}

#[test]
fn all_experiments_hold_their_shapes_and_report_keys() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("experiments-smoke-{}", std::process::id()));
    let _ = fs::remove_dir_all(&out);
    fs::create_dir_all(&out).unwrap();
    let log_path = out.join("output.log");
    let log = File::create(&log_path).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--smoke", "--out"])
        .arg(&out)
        .stdout(log.try_clone().unwrap())
        .stderr(log)
        .spawn()
        .expect("spawn the experiments binary");

    let deadline = Instant::now() + DEADLINE;
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    // The test harness shows this on a failure (or with --nocapture).
    print!("{}", fs::read_to_string(&log_path).unwrap_or_default());
    match status {
        None => panic!("experiments still running after {DEADLINE:?}, killed (output above)"),
        Some(status) if !status.success() => panic!("experiments failed ({status}, output above)"),
        Some(_) => {}
    }

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mismatches = key_mismatches(&reports_in(&root), &reports_in(&out));
    assert!(
        mismatches.is_empty(),
        "reports differ from the committed BENCH_*.json (regenerate with \
         `cargo run --release -p gozer-bench -- <experiment> --out .`):\n{}",
        mismatches.join("\n")
    );
    fs::remove_dir_all(&out).unwrap();
}

fn reports(files: &[(&str, &str)]) -> Reports {
    files
        .iter()
        .map(|(name, json)| (name.to_string(), json.to_string()))
        .collect()
}

#[test]
fn key_check_names_a_missing_key() {
    let committed = reports(&[(
        "BENCH_a.json",
        r#"{"bench": "a", "rows": [{"n": 1, "ms": 2}]}"#,
    )]);
    let written = reports(&[("BENCH_a.json", r#"{"bench": "a", "rows": [{"n": 1}]}"#)]);
    assert_eq!(
        key_mismatches(&committed, &written),
        ["BENCH_a.json: missing key \"ms\""]
    );
}

#[test]
fn key_check_names_an_extra_key() {
    let committed = reports(&[("BENCH_a.json", r#"{"bench": "a", "note": "x: \"y\": z"}"#)]);
    let written = reports(&[("BENCH_a.json", r#"{"bench": "a", "note": "", "ms" : 3}"#)]);
    assert_eq!(
        key_mismatches(&committed, &written),
        ["BENCH_a.json: extra key \"ms\""]
    );
}

#[test]
fn key_check_names_an_unmatched_file() {
    let committed = reports(&[("BENCH_a.json", "{}"), ("BENCH_b.json", "{}")]);
    let written = reports(&[("BENCH_a.json", "{}"), ("BENCH_c.json", "{}")]);
    assert_eq!(
        key_mismatches(&committed, &written),
        [
            "BENCH_c.json: written, but no committed file has that name",
            "BENCH_b.json: committed, but no experiment wrote it",
        ]
    );
}
