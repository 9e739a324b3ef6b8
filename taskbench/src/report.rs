//! Metric names, units and bounds; a workload's report; the report file
//! of `--all`; and `--compare`, which sets two report files side by
//! side — the seed of a bench-diff gate.

use std::path::Path;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{good_quartile, iqr_share, median};
use crate::workloads::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Mirrored in `BENCHMARK.json`; the
/// smoke run checks the two agree.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("tasks_per_s", "1/s", Better::Higher, 0.20),
    e2e("task_p50_ms", "ms", Better::Lower, 0.20),
    e2e("task_p95_ms", "ms", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers, from the traced run. No bounds.
pub const PER_LAYER: [MetricDef; 32] = [
    layer("lang.read_us", "us", Better::Lower),
    layer("vm.compile_us", "us", Better::Lower),
    layer("vm.exec_us", "us", Better::Lower),
    layer("vm.resume_us", "us", Better::Lower),
    layer("serial.ser_full_us", "us", Better::Lower),
    layer("serial.ser_delta_us", "us", Better::Lower),
    layer("serial.full_bytes", "bytes", Better::Lower),
    layer("serial.delta_bytes", "bytes", Better::Lower),
    layer("serial.de_us", "us", Better::Lower),
    layer("store.put_us", "us", Better::Lower),
    layer("store.commit_us", "us", Better::Lower),
    layer("store.fsyncs_per_100_puts", "count", Better::Lower),
    layer("store.get_us", "us", Better::Lower),
    layer("cache.hit_ratio", "ratio", Better::Higher),
    layer("queue.push_pop_us", "us", Better::Lower),
    layer("queue.handoff_us.w1", "us", Better::Lower),
    layer("queue.handoff_us.w2", "us", Better::Lower),
    layer("cluster.call_us", "us", Better::Lower),
    layer("wire.codec_us", "us", Better::Lower),
    layer("wire.frame_bytes", "bytes", Better::Lower),
    layer("tcp.rtt_us", "us", Better::Lower),
    layer("service.residual_us", "us", Better::Lower),
    layer("phase.admission_share", "ratio", Better::Lower),
    layer("phase.queue_wait_share", "ratio", Better::Lower),
    layer("phase.durability_hold_share", "ratio", Better::Lower),
    layer("phase.lease_redelivery_share", "ratio", Better::Lower),
    layer("phase.serialize_share", "ratio", Better::Lower),
    layer("phase.deserialize_share", "ratio", Better::Lower),
    layer("phase.vm_exec_share", "ratio", Better::Lower),
    layer("phase.service_wait_share", "ratio", Better::Lower),
    layer("phase.suspended_share", "ratio", Better::Lower),
    layer("obs.trace_overhead", "ratio", Better::Lower),
];

/// One reported figure: the value, and the values it is the good
/// quartile of (sub-windows of a run, or repeated set-ups).
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
    pub values: Vec<f64>,
}

impl Measured {
    pub fn typical(def: &MetricDef, values: Vec<f64>, samples: usize) -> Measured {
        Measured {
            value: good_quartile(&values, def.better == Better::Higher),
            samples,
            values,
        }
    }
}

pub struct WorkloadReport {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    /// In [`END_TO_END`] order; empty for a traced run.
    pub end_to_end: Vec<Measured>,
    /// In [`PER_LAYER`] order; empty for an untraced run.
    pub per_layer: Vec<f64>,
    pub info: Json,
    pub errors: Vec<String>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result object the driver reads.
    pub fn driver_line(&self) -> String {
        let mut metrics = Json::obj();
        for (def, m) in END_TO_END.iter().zip(&self.end_to_end) {
            metrics.set(
                def.name,
                Json::obj().field("value", m.value).field("unit", def.unit),
            );
        }
        for (def, v) in PER_LAYER.iter().zip(&self.per_layer) {
            metrics.set(
                def.name,
                Json::obj().field("value", *v).field("unit", def.unit),
            );
        }
        Json::obj()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .compact()
    }

    /// Every metric by name with its unit, for a person.
    pub fn print(&self) {
        println!(
            "== {} ==  ops_attempted {}  ops_failed {}",
            self.kind.name(),
            self.attempted,
            self.failed
        );
        for (def, m) in END_TO_END.iter().zip(&self.end_to_end) {
            println!(
                "  {:<28} {:>14.4} {:<6} (n={})",
                def.name, m.value, def.unit, m.samples
            );
        }
        for (def, v) in PER_LAYER.iter().zip(&self.per_layer) {
            println!("  {:<28} {:>14.4} {}", def.name, v, def.unit);
        }
        for e in &self.errors {
            println!("  error: {e}");
        }
    }
}

/// Fold the repeats of one workload into its entry of the report file.
pub fn workload_json(untraced: &[WorkloadReport], traced: Option<&WorkloadReport>) -> Json {
    let mut end_to_end = Json::obj();
    for (i, def) in END_TO_END.iter().enumerate() {
        // Four or more repeats: the spread between runs. Fewer: the
        // spread inside the first run, which is wider.
        let per_run: Vec<f64> = untraced.iter().map(|r| r.end_to_end[i].value).collect();
        let values = if per_run.len() >= 4 {
            per_run.clone()
        } else {
            untraced[0].end_to_end[i].values.clone()
        };
        end_to_end.set(
            def.name,
            Json::obj()
                .field("value", median(&per_run))
                .field("unit", def.unit)
                .field(
                    "samples",
                    untraced
                        .iter()
                        .map(|r| r.end_to_end[i].samples)
                        .sum::<usize>(),
                )
                .field("spread", iqr_share(&values))
                .field(
                    "values",
                    values.into_iter().map(Json::from).collect::<Vec<_>>(),
                ),
        );
    }
    let mut out = Json::obj()
        .field(
            "ops_attempted",
            untraced.iter().map(|r| r.attempted).sum::<u64>(),
        )
        .field("ops_failed", untraced.iter().map(|r| r.failed).sum::<u64>())
        .field("end_to_end", end_to_end)
        .field("info", untraced[0].info.clone());
    if let Some(t) = traced {
        let mut per_layer = Json::obj();
        for (def, v) in PER_LAYER.iter().zip(&t.per_layer) {
            per_layer.set(
                def.name,
                Json::obj().field("value", *v).field("unit", def.unit),
            );
        }
        out.set("per_layer", per_layer);
        out.set("trace_info", t.info.clone());
        out.set("traced_ops_failed", t.failed);
    }
    out
}

/// Does `doc` have the shape `--all` promises? Every workload, every
/// end-to-end metric a positive number, no failed operation, and the
/// last key `"claim": null`.
pub fn shape_check(doc: &Json) -> Result<(), String> {
    let workloads = doc.get("workloads").ok_or("no workloads")?;
    for kind in Kind::ALL {
        let w = workloads
            .get(kind.name())
            .ok_or_else(|| format!("{}: missing", kind.name()))?;
        for def in &END_TO_END {
            let v = w
                .get("end_to_end")
                .and_then(|e| e.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {} missing", kind.name(), def.name))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{}: {} = {v}", kind.name(), def.name));
            }
        }
        for key in ["ops_attempted", "ops_failed"] {
            w.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: {key} missing", kind.name()))?;
        }
        if w.get("ops_failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{}: operations failed", kind.name()));
        }
    }
    match doc.fields().last() {
        Some((k, Json::Null)) if k == "claim" => Ok(()),
        _ => Err("report must end with \"claim\": null".into()),
    }
}

/// `BENCHMARK.json` must name exactly the harness's workloads and
/// metrics, with its bounds.
pub fn manifest_check(manifest: &Json) -> Result<(), String> {
    let names = |key: &str| -> Vec<String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
            .collect()
    };
    let want: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    if names("workloads") != want {
        return Err(format!("workloads {:?} != {want:?}", names("workloads")));
    }
    for (kind, w) in Kind::ALL.iter().zip(
        manifest
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap_or(&[]),
    ) {
        if w.get("why").and_then(Json::as_str) != Some(kind.why()) {
            return Err(format!("{}: why differs", kind.name()));
        }
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let want: Vec<String> = defs.iter().map(|d| d.name.to_string()).collect();
        if names(key) != want {
            return Err(format!("{key} {:?} != {want:?}", names(key)));
        }
        for (def, m) in defs
            .iter()
            .zip(manifest.get(key).and_then(Json::as_arr).unwrap_or(&[]))
        {
            let better = if def.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            if m.get("unit").and_then(Json::as_str) != Some(def.unit)
                || m.get("better").and_then(Json::as_str) != Some(better)
                || (key == "end_to_end" && m.get("bound").and_then(Json::as_f64) != Some(def.bound))
            {
                return Err(format!("{key}.{}: unit, better or bound differ", def.name));
            }
        }
    }
    Ok(())
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// `b` against baseline `a`: how much worse (as a share of `a`, negative
/// when better), and the verdict under `bound` given both spreads.
pub fn judge(def: &MetricDef, a: f64, b: f64, spread_a: f64, spread_b: f64) -> (f64, Verdict) {
    let worse_by = match def.better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    };
    let verdict = if spread_a.max(spread_b) > def.bound {
        Verdict::Unresolved
    } else if worse_by > def.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

pub fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (read(a)?, read(b)?);
    let metric = |doc: &Json, w: &str, m: &str, key: &str| {
        doc.get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get(m)?
            .get(key)?
            .as_f64()
    };
    println!(
        "{:<13} {:<12} {:>12} {:>12} {:>7} {:>8} {:>6} {:>9}  verdict",
        "workload", "metric", "a", "b", "b/a", "worse_by", "bound", "spread"
    );
    let mut worse = 0;
    for kind in Kind::ALL {
        for def in &END_TO_END {
            let w = kind.name();
            let (Some(va), Some(vb)) = (
                metric(&a, w, def.name, "value"),
                metric(&b, w, def.name, "value"),
            ) else {
                return Err(format!("{w}: {} missing from a report", def.name));
            };
            let spread_a = metric(&a, w, def.name, "spread").unwrap_or(0.0);
            let spread_b = metric(&b, w, def.name, "spread").unwrap_or(0.0);
            let (worse_by, verdict) = judge(def, va, vb, spread_a, spread_b);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<13} {:<12} {:>12.4} {:>12.4} {:>7.3} {:>+8.3} {:>6.2} {:>9.3}  {}",
                w,
                def.name,
                va,
                vb,
                vb / va,
                worse_by,
                def.bound,
                spread_a.max(spread_b),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if worse > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        let (tput, p50) = (&END_TO_END[0], &END_TO_END[1]);
        assert_eq!(judge(tput, 1000.0, 850.0, 0.01, 0.01).1, Verdict::Ok);
        assert_eq!(judge(tput, 1000.0, 780.0, 0.01, 0.01).1, Verdict::Worse);
        assert_eq!(judge(tput, 1000.0, 2000.0, 0.01, 0.01).1, Verdict::Ok);
        assert_eq!(judge(p50, 1.0, 1.3, 0.01, 0.01).1, Verdict::Worse);
        assert_eq!(judge(p50, 1.0, 0.5, 0.01, 0.01).1, Verdict::Ok);
        // A spread wider than the bound decides nothing either way.
        assert_eq!(judge(p50, 1.0, 1.3, 0.01, 0.3).1, Verdict::Unresolved);
        assert_eq!(judge(p50, 1.0, 1.0, 0.3, 0.0).1, Verdict::Unresolved);
        let (worse_by, _) = judge(tput, 1000.0, 900.0, 0.0, 0.0);
        assert!((worse_by - 0.1).abs() < 1e-12);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }
}
