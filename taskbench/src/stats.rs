//! Order statistics for the benchmark's reports: percentiles by nearest
//! rank, the rule for which percentile a sample count supports, and
//! medians over sub-windows of a run so that one stall of the shared
//! machine does not move a whole run's figure.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
/// `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy; failed operations enter as `+inf`, so they sort last
/// and count as missing every latency limit.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// The quartile on the good side of `values`: the third for a figure
/// where higher is better, the first where lower is. On a shared
/// machine noise only ever slows a sub-window down — a neighbour takes
/// the core, a table rehashes — so the good quartile of a run's
/// sub-windows says what the code does more steadily than their median,
/// while still ignoring the one luckiest window.
pub fn good_quartile(values: &[f64], higher_is_better: bool) -> f64 {
    percentile(&sorted(values), if higher_is_better { 0.75 } else { 0.25 })
}

/// Samples strictly beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The tail percentiles a report may quote, highest first.
pub const TAILS: [(f64, &str); 4] = [(0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.5, "p50")];

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// it, or `None` when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .copied()
        .find(|&(q, _)| samples_beyond(n, q) >= 10)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method). 0 for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    // Python's `statistics.median`: the mean of the two middle values.
    let med = (v[(n - 1) / 2] + v[n / 2]) / 2.0;
    if med == 0.0 {
        return 0.0;
    }
    ((quartile(3) - quartile(1)) / med).abs()
}

/// One timed operation: when it ended, as seconds into the measured
/// window, and how long it took in milliseconds (`+inf` if it failed).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub end_s: f64,
    pub ms: f64,
}

/// How many equal sub-windows `n` samples are cut into for percentile
/// `q`: as many as leave each at least ten samples beyond `q`, at most
/// `max`, at least one.
pub fn sub_windows(n: usize, q: f64, max: usize) -> usize {
    let per_window = (10.0 / (1.0 - q)).ceil() as usize + 1;
    (n / per_window).clamp(1, max)
}

/// The `q` percentile of each of at most `max` sub-windows of
/// `window_s` seconds.
pub fn windowed_percentiles(samples: &[Sample], window_s: f64, q: f64, max: usize) -> Vec<f64> {
    let k = sub_windows(samples.len(), q, max);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); k];
    for s in samples {
        let i = ((s.end_s / window_s * k as f64) as usize).min(k - 1);
        buckets[i].push(s.ms);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(&sorted(b), q))
        .collect()
}

/// Completions per second in each of `k` sub-windows: the intervals
/// between a sub-window's first and last completion over the time they
/// span, which — unlike a count over the sub-window's length — does not
/// move in whole-task steps when a sub-window holds only a few dozen.
/// A sub-window with fewer than two completions reports its count.
pub fn windowed_rates(samples: &[Sample], window_s: f64, k: usize) -> Vec<f64> {
    let mut spans = vec![(0u64, f64::INFINITY, f64::NEG_INFINITY); k];
    for s in samples.iter().filter(|s| s.ms.is_finite()) {
        let w = &mut spans[((s.end_s / window_s * k as f64) as usize).min(k - 1)];
        *w = (w.0 + 1, w.1.min(s.end_s), w.2.max(s.end_s));
    }
    spans
        .iter()
        .map(|&(n, first, last)| {
            if n >= 2 && last > first {
                (n - 1) as f64 / (last - first)
            } else {
                n as f64 / (window_s / k as f64)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn good_quartile_leans_to_the_better_side() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(good_quartile(&v, true), 6.0);
        assert_eq!(good_quartile(&v, false), 2.0);
        // Three slow windows of eight do not move it.
        assert_eq!(
            good_quartile(&[1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0], false),
            1.0
        );
    }

    #[test]
    fn failures_sort_last() {
        let v = sorted(&[3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(v[..3], [1.0, 2.0, 3.0]);
        assert!(percentile(&v, 1.0).is_infinite());
        assert_eq!(percentile(&v, 0.75), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(0, 0.5), 0);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).unwrap().1, "p50");
        assert_eq!(highest_supported(199).unwrap().1, "p50");
        assert_eq!(highest_supported(200).unwrap().1, "p95");
        assert_eq!(highest_supported(1000).unwrap().1, "p99");
        assert_eq!(highest_supported(10_000).unwrap().1, "p99.9");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[4.0]), 0.0);
    }

    #[test]
    fn sub_windows_keep_the_tail_supported() {
        assert_eq!(sub_windows(150, 0.95, 10), 1);
        assert_eq!(sub_windows(450, 0.95, 10), 2);
        assert_eq!(sub_windows(100_000, 0.95, 10), 10);
        assert_eq!(sub_windows(100_000, 0.95, 50), 50);
        assert_eq!(sub_windows(100, 0.5, 10), 4);
    }

    #[test]
    fn windowed_median_ignores_one_stall() {
        // 10 s, 1000 ops/s at 1 ms, except second 4 where everything
        // takes 50 ms: the median of per-window p95s stays at 1 ms.
        let mut samples = Vec::new();
        for i in 0..10_000 {
            let end_s = i as f64 / 1000.0;
            let ms = if (4.0..5.0).contains(&end_s) {
                50.0
            } else {
                1.0
            };
            samples.push(Sample { end_s, ms });
        }
        let p95s = windowed_percentiles(&samples, 10.0, 0.95, 10);
        assert_eq!(p95s.len(), 10);
        assert_eq!(median(&p95s), 1.0);
        let rates = windowed_rates(&samples, 10.0, 10);
        assert!((median(&rates) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn rates_do_not_move_in_whole_task_steps() {
        // 46.5 completions per second, evenly spaced, for 10 s: a count
        // per one-second sub-window would read 46 or 47.
        let samples: Vec<Sample> = (0..465)
            .map(|i| Sample {
                end_s: (i as f64 + 0.5) / 46.5,
                ms: 40.0,
            })
            .collect();
        for r in windowed_rates(&samples, 10.0, 10) {
            assert!((r - 46.5).abs() < 1e-6, "{r}");
        }
        // Failed operations complete nothing.
        let failed = [Sample {
            end_s: 0.5,
            ms: f64::INFINITY,
        }; 3];
        assert_eq!(median(&windowed_rates(&failed, 10.0, 10)), 0.0);
    }
}
