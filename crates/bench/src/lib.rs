//! Benchmark support library: synthetic workload generators calibrated to
//! the paper's §5 production statistics, fiber-state builders for the
//! §4.2 serialization experiments, and plain-text table/series reporting
//! plus the JSON writer behind the committed `BENCH_*.json` baselines.
//! The experiments themselves are the `experiments` binary's subcommands.

pub mod report;
pub mod states;
pub mod workload;

pub use report::{Json, Series, Table};
pub use states::{suspended_state, workflow_gvm};
pub use workload::{production_day, DayStats, TaskSpec};
