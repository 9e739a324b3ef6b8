//! `gozer-repl profile` end to end: the CLI deploys the example
//! pipeline with the GVM profiler on, prints the hot-function table, the
//! opcode mix and the continuation costs, and writes folded stacks next
//! to its input file.

use std::path::PathBuf;
use std::process::Command;

const PIPELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/pipeline.gz");

fn temp_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "gozer-repl-profile-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// The first whitespace-separated field after `label` on the first line
/// that starts with it, parsed as a count.
fn count_after(out: &str, label: &str) -> Option<u64> {
    let line = out.lines().find(|l| l.starts_with(label))?;
    line[label.len()..].split_whitespace().next()?.parse().ok()
}

#[test]
fn profile_prints_a_report_and_writes_folded_stacks() {
    // Run on a copy: the CLI writes `<file>.folded` beside its input, and
    // the test must leave the checkout untouched.
    let dir = temp_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let workflow = dir.join("pipeline.gz");
    std::fs::copy(PIPELINE, &workflow).unwrap();

    let run = Command::new(env!("CARGO_BIN_EXE_gozer-repl"))
        .arg("profile")
        .arg(&workflow)
        .args(["main", "6"])
        .output()
        .unwrap();
    let out = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "gozer-repl profile failed:\n{out}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    assert!(out.lines().any(|l| l == "result: 410"), "{out}");
    assert!(out.contains("\n== hot functions"), "{out}");
    // The recursion and the forked child are each attributed a row.
    for function in ["validate-digits ", "audit "] {
        assert!(
            out.lines().any(|l| l.starts_with(function)),
            "no hot-function row for {function:?}:\n{out}"
        );
    }
    assert!(out.contains("\n== opcodes"), "{out}");
    assert!(count_after(&out, "call ").is_some_and(|n| n > 0), "{out}");
    assert!(
        count_after(&out, "serialize:").is_some_and(|n| n > 0),
        "{out}"
    );
    let min_ns = out
        .split_once("(min ")
        .and_then(|(_, rest)| rest.split_once("ns)"))
        .and_then(|(n, _)| n.parse::<u64>().ok());
    assert!(min_ns.is_some_and(|n| n > 0), "{out}");

    // Every folded line is `path weight` with a positive weight, the
    // shape flamegraph.pl consumes; stacks are rooted at main and nest.
    let folded = std::fs::read_to_string(dir.join("pipeline.gz.folded")).unwrap();
    assert!(!folded.is_empty());
    for line in folded.lines() {
        let (path, weight) = line.split_once(' ').unwrap_or_else(|| panic!("{line:?}"));
        assert!(
            !path.is_empty() && weight.parse::<u64>().is_ok_and(|w| w > 0),
            "{line:?}"
        );
    }
    assert!(folded.lines().any(|l| l.starts_with("main")), "{folded}");
    assert!(folded.contains(';'), "{folded}");

    std::fs::remove_dir_all(&dir).unwrap();
}
