//! The flight recorder: a crash black box for post-mortem analysis.
//!
//! A [`FlightRecorder`] sits unarmed (and free) until the embedder
//! arms it with a base directory. Once armed, any layer that detects a
//! terminal failure — a failed workflow task, a chaos-sweep contract
//! violation, or a panic (hook installed by `vinz::testing`) — hands it
//! a [`FlightDump`] and the recorder writes a timestamped dump
//! directory:
//!
//! ```text
//! <base>/<label>-<unix-millis>-<n>/
//!   reason.txt      why the dump was taken
//!   events.log      the recent event ring, one line per event
//!   timelines.txt   per-task span-tree timelines
//!   metrics.prom    MetricsRegistry::render_text (a MetricsSnapshot
//!                   in exposition form)
//!   profile.txt     hot functions + opcode mix + continuation costs
//!   profile.folded  folded stacks (flamegraph.pl input)
//! ```
//!
//! Dumps never interfere with the failure path: every I/O error is
//! swallowed into the `Result` and the recorder keeps working.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

use crate::event::Event;

/// Everything a dump contains, pre-rendered by the embedder (which is
/// the layer that owns the bus, the timelines and the profile).
#[derive(Debug, Clone, Default)]
pub struct FlightDump {
    /// Why the dump was taken (failure message, panic payload, chaos
    /// contract violation).
    pub reason: String,
    /// The recent event ring (bus snapshot).
    pub events: Vec<Event>,
    /// Rendered per-task timelines.
    pub timelines: String,
    /// Metrics snapshot in Prometheus text form.
    pub metrics: String,
    /// The execution profile, if profiling was on, as the text of
    /// `profile.txt` (report) and `profile.folded` (folded stacks).
    pub profile: Option<(String, String)>,
}

/// The black box. One per [`crate::Obs`]; unarmed by default.
#[derive(Default)]
pub struct FlightRecorder {
    base: Mutex<Option<PathBuf>>,
    seq: AtomicU64,
    last: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    /// Unarmed recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Arm: dumps will be written under `base` (created on demand).
    pub fn arm(&self, base: impl Into<PathBuf>) {
        *self.base.lock() = Some(base.into());
    }

    /// Disarm: subsequent failures stop producing dumps.
    pub fn disarm(&self) {
        *self.base.lock() = None;
    }

    /// Whether a base directory is armed.
    pub fn is_armed(&self) -> bool {
        self.base.lock().is_some()
    }

    /// Directory of the most recent dump, if any.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.last.lock().clone()
    }

    /// Write `dump` under a fresh `<label>-<millis>-<n>` directory.
    /// Returns `Ok(None)` when unarmed; the dump directory otherwise.
    pub fn record(&self, label: &str, dump: &FlightDump) -> std::io::Result<Option<PathBuf>> {
        let Some(base) = self.base.lock().clone() else {
            return Ok(None);
        };
        let millis = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("{}-{millis}-{n}", sanitize(label)));
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join("reason.txt"), format!("{}\n", dump.reason))?;
        std::fs::write(dir.join("events.log"), render_events(&dump.events))?;
        std::fs::write(dir.join("timelines.txt"), &dump.timelines)?;
        std::fs::write(dir.join("metrics.prom"), &dump.metrics)?;
        if let Some((report, folded)) = &dump.profile {
            std::fs::write(dir.join("profile.txt"), report)?;
            std::fs::write(dir.join("profile.folded"), folded)?;
        }
        *self.last.lock() = Some(dir.clone());
        Ok(Some(dir))
    }
}

/// Render events one per line: seq, ids, kind label and payload.
pub fn render_events(events: &[Event]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in events {
        let _ = write!(out, "{:>8} ", e.seq);
        let _ = write!(out, "node={} ", opt(e.node));
        let _ = write!(out, "inst={} ", opt(e.instance));
        let _ = write!(
            out,
            "task={} fiber={} msg={} ",
            e.task.as_deref().unwrap_or("-"),
            e.fiber.as_deref().unwrap_or("-"),
            opt(e.message_id),
        );
        let _ = writeln!(out, "{:<12} {:?}", e.kind.label(), e.kind);
    }
    out
}

fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".to_string())
}

/// Keep labels filesystem-safe.
fn sanitize(label: &str) -> String {
    let cleaned: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "dump".to_string()
    } else {
        cleaned.chars().take(80).collect()
    }
}

/// Convenience for tests and tooling: does `dir` look like a complete
/// dump?
pub fn dump_is_complete(dir: &Path, with_profile: bool) -> bool {
    let mut required = vec!["reason.txt", "events.log", "timelines.txt", "metrics.prom"];
    if with_profile {
        required.push("profile.txt");
        required.push("profile.folded");
    }
    required.iter().all(|f| dir.join(f).is_file())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn temp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gozer-flight-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn unarmed_recorder_writes_nothing() {
        let rec = FlightRecorder::new();
        assert!(!rec.is_armed());
        let out = rec.record("x", &FlightDump::default()).unwrap();
        assert!(out.is_none());
        assert!(rec.last_dump().is_none());
    }

    #[test]
    fn armed_recorder_writes_a_complete_dump() {
        let base = temp_base("complete");
        let rec = FlightRecorder::new();
        rec.arm(&base);
        let dump = FlightDump {
            reason: "task failed: boom".into(),
            events: vec![
                Event::new(EventKind::TaskStarted).task("task-1").node(0),
                Event::new(EventKind::TaskDone {
                    outcome: "failed".into(),
                })
                .task("task-1"),
            ],
            timelines: "task task-1\n".into(),
            metrics: "# TYPE x counter\nx 1\n".into(),
            profile: Some(("== hot functions ==\n".into(), "main 1\n".into())),
        };
        let dir = rec.record("task-1-failed", &dump).unwrap().unwrap();
        assert!(dump_is_complete(&dir, true));
        assert_eq!(rec.last_dump(), Some(dir.clone()));
        let events = std::fs::read_to_string(dir.join("events.log")).unwrap();
        assert!(events.contains("task=task-1"));
        assert!(events.contains("task-done"));
        let reason = std::fs::read_to_string(dir.join("reason.txt")).unwrap();
        assert!(reason.contains("boom"));
        // Two dumps never collide even within one millisecond.
        let dir2 = rec.record("task-1-failed", &dump).unwrap().unwrap();
        assert_ne!(dir, dir2);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn disarm_stops_dumps_and_labels_are_sanitized() {
        let base = temp_base("sanitize");
        let rec = FlightRecorder::new();
        rec.arm(&base);
        let dir = rec
            .record("weird label/../!!", &FlightDump::default())
            .unwrap()
            .unwrap();
        let name = dir.file_name().unwrap().to_string_lossy().to_string();
        assert!(name.starts_with("weird_label_.._"));
        assert!(dump_is_complete(&dir, false));
        rec.disarm();
        assert!(rec.record("x", &FlightDump::default()).unwrap().is_none());
        std::fs::remove_dir_all(&base).ok();
    }
}
