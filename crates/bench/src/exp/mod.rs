//! One module per experiment. Each exposes `run(smoke)`, which prints
//! the experiment's tables and asserts its shape; the ones behind a
//! committed `BENCH_*.json` return the report's fields too (`main.rs`
//! adds the header and writes the file).

use std::time::{Duration, Instant};

pub mod cluster;
pub mod fig1;
pub mod foreach_chunking;
pub mod gvm;
pub mod listing1;
pub mod scale;
pub mod sec31;
pub mod sec32;
pub mod sec42_cache;
pub mod sec42_compression;
pub mod sec5_day;
pub mod sec5_scheduling;
pub mod sec5_spawn_limit;
pub mod table1;

/// Median wall time of one call of `f` over `samples` timed calls,
/// after one untimed warm-up call.
pub fn time_it(samples: usize, mut f: impl FnMut()) -> Duration {
    f();
    median((0..samples).map(|_| timed(&mut f)).collect())
}

/// Wall time of one call of `f`.
pub fn timed(f: &mut impl FnMut()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

pub fn median(mut times: Vec<Duration>) -> Duration {
    times.sort_unstable();
    times[times.len() / 2]
}
