//! The metrics registry: counters, gauges, and fixed-log-bucket
//! histograms, with a Prometheus-style text exporter and a
//! point-in-time [`Snapshot`] diff API.
//!
//! Families are registered by name with help text; samples within a
//! family are distinguished by their label string. A sample is a
//! handle the instrumented code owns and moves — an `Arc<AtomicU64>`
//! for a counter or gauge, an `Arc<Histogram>` — and the registry
//! adopts a clone of it, so a scrape reads the very atomic the code
//! increments. Only a gauge that is the size of a live structure is
//! computed at scrape time ([`MetricsRegistry::gauge_fn`]).
//!
//! Everything renders and snapshots in deterministic (BTreeMap) order,
//! which is what makes the exporter output golden-testable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

/// Number of finite histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 12;

/// Upper bound of finite bucket `i`, in nanoseconds: 1µs × 4^i.
/// Spans 1µs .. ~4.2s, which covers queue-wait, busy, and sync-block
/// latencies in both the in-process simulator and chaos runs.
pub fn bucket_upper_nanos(i: usize) -> u64 {
    1_000u64.saturating_mul(4u64.saturating_pow(i as u32))
}

/// A latency histogram with [`HISTOGRAM_BUCKETS`] fixed log buckets
/// (powers of four from 1µs) plus +Inf, and paired count/sum so the
/// mean is always computable.
pub struct Histogram {
    // buckets[i] counts observations ≤ bucket_upper_nanos(i);
    // buckets[HISTOGRAM_BUCKETS] is the +Inf overflow bucket.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one latency observation in nanoseconds.
    pub fn observe_nanos(&self, nanos: u64) {
        let mut idx = HISTOGRAM_BUCKETS; // +Inf unless a bound fits
        for i in 0..HISTOGRAM_BUCKETS {
            if nanos <= bucket_upper_nanos(i) {
                idx = i;
                break;
            }
        }
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Record a [`Duration`] observation.
    pub fn observe_duration(&self, d: Duration) {
        self.observe_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_nanos: self.sum_nanos.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Immutable copy of a [`Histogram`]'s state; subtractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed nanoseconds.
    pub sum_nanos: u64,
    /// Per-bucket counts, `buckets[HISTOGRAM_BUCKETS]` being +Inf.
    pub buckets: [u64; HISTOGRAM_BUCKETS + 1],
}

impl HistogramSnapshot {
    /// Mean latency, or `None` with zero observations.
    pub fn mean(&self) -> Option<Duration> {
        self.sum_nanos
            .checked_div(self.count)
            .map(Duration::from_nanos)
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) from the bucket counts.
    ///
    /// The target rank is located in its bucket and interpolated
    /// **log-linearly** within it — the bucket bounds are a geometric
    /// series (powers of four), so a fraction `f` into bucket `(L, U]`
    /// maps to `L·(U/L)^f`. The first bucket has no finite lower bound
    /// and interpolates linearly from 0; ranks landing in the +Inf
    /// bucket clamp to the largest finite bound. `None` with zero
    /// observations or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            let prev = cum as f64;
            cum += n;
            if n == 0 || (cum as f64) < rank {
                continue;
            }
            if i == HISTOGRAM_BUCKETS {
                break; // +Inf: clamp below
            }
            let f = ((rank - prev) / n as f64).clamp(0.0, 1.0);
            let upper = bucket_upper_nanos(i) as f64;
            let nanos = if i == 0 {
                upper * f
            } else {
                let lower = bucket_upper_nanos(i - 1) as f64;
                lower * (upper / lower).powf(f)
            };
            return Some(Duration::from_nanos(nanos as u64));
        }
        Some(Duration::from_nanos(bucket_upper_nanos(
            HISTOGRAM_BUCKETS - 1,
        )))
    }

    /// Median estimate (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> Option<Duration> {
        self.quantile(0.5)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<Duration> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<Duration> {
        self.quantile(0.99)
    }

    /// This snapshot minus an `earlier` one (saturating), giving the
    /// interval's observations only.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum_nanos: self.sum_nanos.saturating_sub(earlier.sum_nanos),
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
        }
    }
}

/// Closure computing a gauge value at scrape time.
type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

enum Sample {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    GaugeFn(GaugeFn),
    Histogram(Arc<Histogram>),
}

impl Sample {
    /// The family's `# TYPE`.
    fn kind(&self) -> &'static str {
        match self {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) | Sample::GaugeFn(_) => "gauge",
            Sample::Histogram(_) => "histogram",
        }
    }

    fn value(&self) -> SampleSnapshot {
        match self {
            Sample::Counter(c) => SampleSnapshot::Counter(c.load(Ordering::Relaxed)),
            Sample::Gauge(g) => SampleSnapshot::Gauge(g.load(Ordering::Relaxed)),
            Sample::GaugeFn(f) => SampleSnapshot::Gauge(f()),
            Sample::Histogram(h) => SampleSnapshot::Histogram(h.snapshot()),
        }
    }
}

struct Family {
    help: String,
    kind: &'static str,
    // label string (e.g. `service="maths"`, possibly empty) → sample
    samples: BTreeMap<String, Sample>,
}

/// The registry: named metric families, each holding label-keyed
/// samples; renders Prometheus text and takes diffable [`Snapshot`]s.
#[derive(Default)]
pub struct MetricsRegistry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &str, sample: Sample) {
        let kind = sample.kind();
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            samples: BTreeMap::new(),
        });
        debug_assert!(
            family.kind == kind,
            "metric family {name} re-registered with a different kind"
        );
        family.samples.insert(labels.to_string(), sample);
    }

    /// Adopt `handle` as the counter `name{labels}` (labels like
    /// `service="maths"`, rendered verbatim inside `{}`; empty for
    /// none). The code keeps incrementing its own clone.
    pub fn counter(&self, name: &str, help: &str, labels: &str, handle: &Arc<AtomicU64>) {
        self.register(name, help, labels, Sample::Counter(handle.clone()));
    }

    /// Adopt `handle` as the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &str, handle: &Arc<AtomicU64>) {
        self.register(name, help, labels, Sample::Gauge(handle.clone()));
    }

    /// Register a gauge computed at scrape time: for the size of a live
    /// structure, never for reading an atomic (adopt that with
    /// [`MetricsRegistry::gauge`]).
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &str,
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Sample::GaugeFn(Box::new(f)));
    }

    /// Adopt `handle` as the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &str, handle: &Arc<Histogram>) {
        self.register(name, help, labels, Sample::Histogram(handle.clone()));
    }

    /// Render every family in Prometheus text exposition format.
    ///
    /// Counters and gauges emit `name{labels} value`; histograms emit
    /// cumulative `_bucket{le="..."}` series (bounds in seconds),
    /// `_sum` (seconds, as a decimal), and `_count`. Families and
    /// samples render in lexicographic order, so the output is stable
    /// for a given set of values.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let families = self.families.read();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind);
            for (labels, sample) in family.samples.iter() {
                match sample.value() {
                    SampleSnapshot::Counter(v) | SampleSnapshot::Gauge(v) => {
                        let _ = writeln!(out, "{} {v}", with_labels(name, labels));
                    }
                    SampleSnapshot::Histogram(snap) => {
                        let mut cumulative = 0u64;
                        for (i, n) in snap.buckets.iter().enumerate() {
                            cumulative += n;
                            let le = if i == HISTOGRAM_BUCKETS {
                                "+Inf".to_string()
                            } else {
                                format_seconds(bucket_upper_nanos(i))
                            };
                            let le_label = if labels.is_empty() {
                                format!("le=\"{le}\"")
                            } else {
                                format!("{labels},le=\"{le}\"")
                            };
                            let _ = writeln!(out, "{name}_bucket{{{le_label}}} {cumulative}");
                        }
                        let _ = writeln!(
                            out,
                            "{} {}",
                            with_labels(&format!("{name}_sum"), labels),
                            format_seconds(snap.sum_nanos)
                        );
                        let _ = writeln!(
                            out,
                            "{} {}",
                            with_labels(&format!("{name}_count"), labels),
                            snap.count
                        );
                        // Estimated quantiles (log-linear within the
                        // log buckets), rendered summary-style.
                        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                            let Some(d) = snap.quantile(q) else { continue };
                            let q_label = if labels.is_empty() {
                                format!("quantile=\"{label}\"")
                            } else {
                                format!("{labels},quantile=\"{label}\"")
                            };
                            let _ = writeln!(
                                out,
                                "{name}{{{q_label}}} {}",
                                format_seconds(d.as_nanos() as u64)
                            );
                        }
                    }
                }
            }
        }
        out
    }

    /// Point-in-time snapshot of every sample's value, keyed by
    /// `name{labels}`.
    pub fn snapshot(&self) -> Snapshot {
        let mut values = BTreeMap::new();
        let families = self.families.read();
        for (name, family) in families.iter() {
            for (labels, sample) in family.samples.iter() {
                values.insert(with_labels(name, labels), sample.value());
            }
        }
        Snapshot { values }
    }
}

fn with_labels(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

/// Render nanoseconds as decimal seconds without float noise (exact
/// division by 1e9, trailing zeros trimmed to at least one decimal).
fn format_seconds(nanos: u64) -> String {
    let secs = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    let mut s = format!("{secs}.{frac:09}");
    while s.ends_with('0') && !s.ends_with(".0") {
        s.pop();
    }
    s
}

/// One sample's value at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleSnapshot {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(u64),
    /// A histogram's state.
    Histogram(HistogramSnapshot),
}

/// Point-in-time values of every registered sample, keyed by
/// `name{labels}`. Two snapshots [`diff`](Snapshot::diff) into the
/// interval between them.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `name{labels}` → value.
    pub values: BTreeMap<String, SampleSnapshot>,
}

impl Snapshot {
    /// Subtract an `earlier` snapshot: counters and histograms become
    /// interval deltas; gauges keep the later (current) value. Samples
    /// absent from `earlier` pass through unchanged.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let mut values = BTreeMap::new();
        for (key, later) in &self.values {
            let value = match (later, earlier.values.get(key)) {
                (SampleSnapshot::Counter(b), Some(SampleSnapshot::Counter(a))) => {
                    SampleSnapshot::Counter(b.saturating_sub(*a))
                }
                (SampleSnapshot::Histogram(b), Some(SampleSnapshot::Histogram(a))) => {
                    SampleSnapshot::Histogram(b.diff(a))
                }
                (v, _) => *v,
            };
            values.insert(key.clone(), value);
        }
        Snapshot { values }
    }

    /// Counter value by `name{labels}` key, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        match self.values.get(key) {
            Some(SampleSnapshot::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by key, if present.
    pub fn gauge(&self, key: &str) -> Option<u64> {
        match self.values.get(key) {
            Some(SampleSnapshot::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state by key, if present.
    pub fn histogram(&self, key: &str) -> Option<HistogramSnapshot> {
        match self.values.get(key) {
            Some(SampleSnapshot::Histogram(h)) => Some(*h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(handle: &AtomicU64, n: u64) {
        handle.fetch_add(n, Ordering::Relaxed);
    }

    #[test]
    fn bucket_bounds_are_powers_of_four_from_one_micro() {
        assert_eq!(bucket_upper_nanos(0), 1_000);
        assert_eq!(bucket_upper_nanos(1), 4_000);
        assert_eq!(bucket_upper_nanos(11), 1_000 * 4u64.pow(11));
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::new();
        h.observe_nanos(500); // bucket 0 (≤1µs)
        h.observe_nanos(3_000); // bucket 1 (≤4µs)
        h.observe_nanos(u64::MAX / 2); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS], 1);
        assert!(snap.mean().is_some());
        assert_eq!(Histogram::new().snapshot().mean(), None);
    }

    #[test]
    fn histogram_diff_isolates_interval() {
        let h = Histogram::new();
        h.observe_nanos(2_000);
        let before = h.snapshot();
        h.observe_nanos(10_000);
        h.observe_nanos(10_000);
        let delta = h.snapshot().diff(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum_nanos, 20_000);
        assert_eq!(delta.mean(), Some(Duration::from_nanos(10_000)));
    }

    #[test]
    fn registry_counters_and_snapshot_diff() {
        let reg = MetricsRegistry::new();
        let c = Arc::new(AtomicU64::new(0));
        reg.counter("gozer_things_total", "Things that happened.", "", &c);
        add(&c, 5);
        let before = reg.snapshot();
        add(&c, 7);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("gozer_things_total"), Some(7));
    }

    /// A handle the code keeps and bumps after adoption is what both
    /// read paths report: no copy, no mirror.
    #[test]
    fn adopted_handle_renders_and_snapshots_its_value() {
        let reg = MetricsRegistry::new();
        let sent = Arc::new(AtomicU64::new(0));
        let depth = Arc::new(AtomicU64::new(0));
        reg.counter("gozer_sent_total", "Sent.", "service=\"a\"", &sent);
        reg.gauge("gozer_depth", "Depth.", "", &depth);
        add(&sent, 42);
        depth.store(3, Ordering::Relaxed);
        let text = reg.render_text();
        assert!(
            text.contains("\ngozer_sent_total{service=\"a\"} 42\n"),
            "{text}"
        );
        assert!(text.contains("\ngozer_depth 3\n"), "{text}");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gozer_sent_total{service=\"a\"}"), Some(42));
        assert_eq!(snap.gauge("gozer_depth"), Some(3));
    }

    #[test]
    fn labelled_samples_render_separately() {
        let reg = MetricsRegistry::new();
        let (a, b) = (Arc::new(AtomicU64::new(1)), Arc::new(AtomicU64::new(2)));
        reg.counter("gozer_ops_total", "Ops.", "service=\"a\"", &a);
        reg.counter("gozer_ops_total", "Ops.", "service=\"b\"", &b);
        let text = reg.render_text();
        assert!(text.contains("gozer_ops_total{service=\"a\"} 1"));
        assert!(text.contains("gozer_ops_total{service=\"b\"} 2"));
        // Help and type appear once per family.
        assert_eq!(text.matches("# HELP gozer_ops_total").count(), 1);
    }

    /// Golden test: the exporter's exact output for a fixed set of
    /// values must never drift (scrapers and the tests that parse
    /// scraped samples depend on it).
    #[test]
    fn exporter_output_is_stable() {
        let reg = MetricsRegistry::new();
        let (sent, in_flight) = (Arc::new(AtomicU64::new(3)), Arc::new(AtomicU64::new(2)));
        reg.counter("bb_sent_total", "Messages sent.", "", &sent);
        reg.gauge("bb_in_flight", "Messages in flight.", "", &in_flight);
        let h = Arc::new(Histogram::new());
        reg.histogram("bb_wait_seconds", "Queue wait.", "", &h);
        h.observe_nanos(500); // ≤ 1µs bucket
        h.observe_nanos(2_000_000); // ≤ 4.096ms bucket
        let expected = "\
# HELP bb_in_flight Messages in flight.
# TYPE bb_in_flight gauge
bb_in_flight 2
# HELP bb_sent_total Messages sent.
# TYPE bb_sent_total counter
bb_sent_total 3
# HELP bb_wait_seconds Queue wait.
# TYPE bb_wait_seconds histogram
bb_wait_seconds_bucket{le=\"0.000001\"} 1
bb_wait_seconds_bucket{le=\"0.000004\"} 1
bb_wait_seconds_bucket{le=\"0.000016\"} 1
bb_wait_seconds_bucket{le=\"0.000064\"} 1
bb_wait_seconds_bucket{le=\"0.000256\"} 1
bb_wait_seconds_bucket{le=\"0.001024\"} 1
bb_wait_seconds_bucket{le=\"0.004096\"} 2
bb_wait_seconds_bucket{le=\"0.016384\"} 2
bb_wait_seconds_bucket{le=\"0.065536\"} 2
bb_wait_seconds_bucket{le=\"0.262144\"} 2
bb_wait_seconds_bucket{le=\"1.048576\"} 2
bb_wait_seconds_bucket{le=\"4.194304\"} 2
bb_wait_seconds_bucket{le=\"+Inf\"} 2
bb_wait_seconds_sum 0.0020005
bb_wait_seconds_count 2
bb_wait_seconds{quantile=\"0.5\"} 0.000001
bb_wait_seconds{quantile=\"0.95\"} 0.003565775
bb_wait_seconds{quantile=\"0.99\"} 0.003983994
";
        assert_eq!(reg.render_text(), expected);
    }

    #[test]
    fn quantiles_interpolate_log_linearly() {
        // Geometric midpoint: everything in bucket 1 (1µs, 4µs], p50 at
        // fraction 0.5 → 1000·4^0.5 = exactly 2µs.
        let h = Histogram::new();
        for _ in 0..100 {
            h.observe_nanos(3_000);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), Some(Duration::from_nanos(2_000)));
        // Within one bucket the quantiles stay inside its bounds and
        // are monotone in q.
        let (p50, p95, p99) = (s.p50().unwrap(), s.p95().unwrap(), s.p99().unwrap());
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= Duration::from_nanos(4_000));
        assert!(p50 > Duration::from_nanos(1_000));
    }

    #[test]
    fn quantiles_on_a_known_two_point_distribution() {
        // 90 fast (≤1µs) + 10 slow (in (256µs, 1024µs]): p50 in the
        // first bucket, p95/p99 in the slow one.
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe_nanos(400);
        }
        for _ in 0..10 {
            h.observe_nanos(500_000);
        }
        let s = h.snapshot();
        // rank 50 of 90 in bucket 0 (linear from 0): 1000·(50/90).
        assert_eq!(s.p50(), Some(Duration::from_nanos(555)));
        // Slow bucket is (256µs, 1024µs]; rank 95 is halfway through
        // its 10 samples, so log-linear gives 256µs·4^0.5 = 512µs.
        assert_eq!(s.p95(), Some(Duration::from_nanos(512_000)));
        let p99 = s.p99().unwrap();
        assert!(
            p99 > Duration::from_nanos(bucket_upper_nanos(4))
                && p99 <= Duration::from_nanos(bucket_upper_nanos(5)),
            "p99 {p99:?} must land inside the slow bucket"
        );
        assert!(s.p95().unwrap() <= p99);
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(Histogram::new().snapshot().p50(), None);
        let h = Histogram::new();
        h.observe_nanos(u64::MAX / 2); // +Inf bucket
        let s = h.snapshot();
        // Ranks in the overflow bucket clamp to the largest finite bound.
        assert_eq!(
            s.p99(),
            Some(Duration::from_nanos(bucket_upper_nanos(
                HISTOGRAM_BUCKETS - 1
            )))
        );
        assert_eq!(s.quantile(1.5), None);
        assert_eq!(s.quantile(-0.1), None);
    }

    /// A counter reset (a respawned node re-registers and restarts its
    /// atomics at zero) must diff to zero, never wrap negative.
    #[test]
    fn snapshot_diff_survives_counter_reset() {
        let reg = MetricsRegistry::new();
        let c = Arc::new(AtomicU64::new(100));
        reg.counter("gozer_restarts_total", "Restarting thing.", "", &c);
        let before = reg.snapshot();
        // Simulate the respawn: a fresh registry (new atomics at zero)
        // that has seen less traffic than the old one.
        let reg2 = MetricsRegistry::new();
        let c2 = Arc::new(AtomicU64::new(3));
        reg2.counter("gozer_restarts_total", "Restarting thing.", "", &c2);
        let delta = reg2.snapshot().diff(&before);
        assert_eq!(delta.counter("gozer_restarts_total"), Some(0));
    }

    /// Histogram resets likewise saturate per field and per bucket.
    #[test]
    fn histogram_diff_saturates_on_reset() {
        let old = {
            let h = Histogram::new();
            for _ in 0..5 {
                h.observe_nanos(2_000);
            }
            h.snapshot()
        };
        let new = {
            let h = Histogram::new();
            h.observe_nanos(2_000);
            h.snapshot()
        };
        let delta = new.diff(&old);
        assert_eq!(delta.count, 0);
        assert_eq!(delta.sum_nanos, 0);
        assert!(delta.buckets.iter().all(|&b| b == 0));
        // And the all-zero diff behaves like an empty histogram.
        assert_eq!(delta.mean(), None);
        assert_eq!(delta.p99(), None);
    }

    /// Quantiles on the empty/single-bucket boundaries: q=0 and q=1 are
    /// valid and bounded by the occupied bucket.
    #[test]
    fn quantile_boundaries_are_well_defined() {
        let h = Histogram::new();
        h.observe_nanos(3_000); // single observation, bucket 1 (1µs, 4µs]
        let s = h.snapshot();
        let q0 = s.quantile(0.0).unwrap();
        let q1 = s.quantile(1.0).unwrap();
        assert!(q0 <= q1);
        assert!(q1 <= Duration::from_nanos(bucket_upper_nanos(1)));
        // Monotone across the whole range on a single bucket.
        let mut last = q0;
        for i in 1..=10 {
            let q = s.quantile(i as f64 / 10.0).unwrap();
            assert!(q >= last, "quantile must be monotone in q");
            last = q;
        }
    }

    /// Samples that appear only in the later snapshot pass through; a
    /// gauge always reports its current value, even after moving down.
    #[test]
    fn snapshot_diff_new_samples_and_gauges() {
        let reg = MetricsRegistry::new();
        let g = Arc::new(AtomicU64::new(10));
        reg.gauge("gozer_depth", "Depth.", "", &g);
        let before = reg.snapshot();
        g.store(4, Ordering::Relaxed);
        reg.counter(
            "gozer_new_total",
            "Appeared mid-interval.",
            "",
            &Arc::new(AtomicU64::new(7)),
        );
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.gauge("gozer_depth"), Some(4));
        assert_eq!(delta.counter("gozer_new_total"), Some(7));
    }

    #[test]
    fn format_seconds_is_exact() {
        assert_eq!(format_seconds(0), "0.0");
        assert_eq!(format_seconds(1_000), "0.000001");
        assert_eq!(format_seconds(1_500_000_000), "1.5");
        assert_eq!(format_seconds(4_194_304_000), "4.194304");
    }
}
