//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms.
//!
//! Metrics are process-global and registered on first use; handles are
//! `&'static` (leaked once per distinct name), so hot sites pay one
//! registry lookup per *call site execution* only while metrics are
//! enabled — instrumentation guards every lookup with
//! [`super::metrics_enabled`], a single relaxed atomic load when off.
//!
//! Naming scheme (DESIGN.md §8): dotted lowercase `layer.noun.verb`, e.g.
//! `oql.join.rows_out`, `store.index.probes`, `oql.closure.steps`. Histograms
//! carry a `_ns` suffix when they record durations.
//!
//! Everything is integer-only — exporters never format floats (means are
//! reported as integer quotients), keeping the subsystem hermetic.

use super::json_escape;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of power-of-two histogram buckets: bucket `i` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 covers `[0, 2)`), so 40 buckets span 1 ns to
/// ~18 minutes.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    val: AtomicU64,
}

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.val.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.val.load(Ordering::Relaxed)
    }
}

/// A last-value / max-tracking gauge.
#[derive(Debug, Default)]
pub struct Gauge {
    val: AtomicI64,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.val.store(v, Ordering::Relaxed);
    }

    /// Raise the value to at least `v`.
    pub fn set_max(&self, v: i64) {
        self.val.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.val.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram (thread-safe, integer-only).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// The bucket index for a value: `floor(log2(v))`, clamped.
    fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            (63 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (exact, not a bucket floor; 0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The lower bound of the bucket containing the `pct`-th percentile
    /// observation (0 when empty). `pct` in 0..=100.
    pub fn percentile_floor(&self, pct: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (total * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (HISTOGRAM_BUCKETS - 1)
    }

    /// Per-bucket counts as `(lower_bound, count)`, non-empty buckets only.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((if i == 0 { 0 } else { 1u64 << i }, c))
            })
            .collect()
    }
}

/// A registered metric (one of the three kinds).
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static R: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Lock the registry, recovering from poisoning (a kind-mismatch panic
/// under the lock must not take the whole registry down — the map itself
/// is never left mid-mutation).
fn reg_lock() -> std::sync::MutexGuard<'static, BTreeMap<String, Metric>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// The counter named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn counter(name: &str) -> &'static Counter {
    let mut r = reg_lock();
    match r
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric `{name}` is not a counter"),
    }
}

/// The gauge named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut r = reg_lock();
    match r
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric `{name}` is not a gauge"),
    }
}

/// The histogram named `name`, registering it on first use.
///
/// # Panics
/// If `name` is already registered as a different metric kind.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut r = reg_lock();
    match r
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
    {
        Metric::Histogram(h) => h,
        _ => panic!("metric `{name}` is not a histogram"),
    }
}

/// A point-in-time copy of one metric's value(s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricSnapshot {
    /// A counter's value.
    Counter {
        /// Metric name.
        name: String,
        /// Current value.
        value: u64,
    },
    /// A gauge's value.
    Gauge {
        /// Metric name.
        name: String,
        /// Current value.
        value: i64,
    },
    /// A histogram's summary.
    Histogram {
        /// Metric name.
        name: String,
        /// Observation count.
        count: u64,
        /// Observation sum.
        sum: u64,
        /// Largest observation (exact).
        max: u64,
        /// `(lower_bound, count)` for non-empty buckets.
        buckets: Vec<(u64, u64)>,
    },
}

impl MetricSnapshot {
    /// The metric's name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }
}

/// Snapshot every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let r = reg_lock();
    r.iter()
        .map(|(name, m)| match m {
            Metric::Counter(c) => {
                MetricSnapshot::Counter { name: name.clone(), value: c.get() }
            }
            Metric::Gauge(g) => MetricSnapshot::Gauge { name: name.clone(), value: g.get() },
            Metric::Histogram(h) => MetricSnapshot::Histogram {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                max: h.max(),
                buckets: h.nonzero_buckets(),
            },
        })
        .collect()
}

/// Reset every registered metric to zero (test isolation; the registry
/// itself is kept).
pub fn reset_all() {
    let r = reg_lock();
    for m in r.values() {
        match m {
            Metric::Counter(c) => c.val.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.val.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => {
                h.count.store(0, Ordering::Relaxed);
                h.sum.store(0, Ordering::Relaxed);
                h.max.store(0, Ordering::Relaxed);
                for b in &h.buckets {
                    b.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Render a snapshot as aligned plain text (one metric per line, keys in
/// sorted order; histograms report count, sum, integer mean, the p50/p95/
/// p99 bucket floors, and the exact max).
pub fn render_text(snaps: &[MetricSnapshot]) -> String {
    let mut snaps: Vec<&MetricSnapshot> = snaps.iter().collect();
    snaps.sort_by(|a, b| a.name().cmp(b.name()));
    let width = snaps.iter().map(|s| s.name().len()).max().unwrap_or(0);
    let mut out = String::new();
    for s in snaps {
        match s {
            MetricSnapshot::Counter { name, value } => {
                out.push_str(&format!("{name:width$}  {value}\n"));
            }
            MetricSnapshot::Gauge { name, value } => {
                out.push_str(&format!("{name:width$}  {value}\n"));
            }
            MetricSnapshot::Histogram { name, count, sum, max, buckets } => {
                let mean = if *count > 0 { sum / count } else { 0 };
                let (p50, p95, p99) = percentiles_from_buckets(buckets, *count);
                out.push_str(&format!(
                    "{name:width$}  count={count} sum={sum} mean={mean} \
                     p50>={p50} p95>={p95} p99>={p99} max={max}\n"
                ));
            }
        }
    }
    out
}

/// `(p50_floor, p95_floor, p99_floor)` from a `(lower_bound, count)`
/// bucket list.
pub fn percentiles_from_buckets(buckets: &[(u64, u64)], total: u64) -> (u64, u64, u64) {
    let floor = |pct: u64| -> u64 {
        if total == 0 {
            return 0;
        }
        let rank = (total * pct).div_ceil(100).max(1);
        let mut seen = 0u64;
        for &(lo, c) in buckets {
            seen += c;
            if seen >= rank {
                return lo;
            }
        }
        buckets.last().map_or(0, |&(lo, _)| lo)
    };
    (floor(50), floor(95), floor(99))
}

/// Render a snapshot as JSON lines (one object per metric).
pub fn to_json_lines(snaps: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    for s in snaps {
        match s {
            MetricSnapshot::Counter { name, value } => out.push_str(&format!(
                "{{\"metric\":\"{}\",\"kind\":\"counter\",\"value\":{value}}}\n",
                json_escape(name)
            )),
            MetricSnapshot::Gauge { name, value } => out.push_str(&format!(
                "{{\"metric\":\"{}\",\"kind\":\"gauge\",\"value\":{value}}}\n",
                json_escape(name)
            )),
            MetricSnapshot::Histogram { name, count, sum, max, buckets } => {
                let b: Vec<String> =
                    buckets.iter().map(|(lo, c)| format!("[{lo},{c}]")).collect();
                let (p50, p95, p99) = percentiles_from_buckets(buckets, *count);
                out.push_str(&format!(
                    "{{\"metric\":\"{}\",\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\
                     \"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"max\":{max},\"buckets\":[{}]}}\n",
                    json_escape(name),
                    b.join(",")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that read counter values against the one that
    /// calls the global [`reset_all`].
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static L: Mutex<()> = Mutex::new(());
        L.lock().unwrap()
    }

    #[test]
    fn counter_and_gauge_basics() {
        let _g = test_lock();
        let c = counter("test.metrics.counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn registry_returns_same_instance() {
        let a = counter("test.metrics.same") as *const Counter;
        let b = counter("test.metrics.same") as *const Counter;
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        counter("test.metrics.kind_clash");
        gauge("test.metrics.kind_clash");
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::default();
        for v in [1u64, 3, 3, 100, 100, 100, 100, 100, 5000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 1_005_507);
        assert_eq!(h.max(), 1_000_000);
        // p50 falls in the 100s bucket: [64,128).
        assert_eq!(h.percentile_floor(50), 64);
        assert!(h.percentile_floor(100) >= 524288);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 10);
        // p99 of 10 observations is the last one's bucket floor.
        let (p50, p95, p99) = percentiles_from_buckets(&buckets, h.count());
        assert_eq!(p50, 64);
        assert!(p99 >= p95 && p95 >= p50);
        assert_eq!(p99, 524288);
    }

    #[test]
    fn snapshot_and_exporters() {
        counter("test.metrics.snap").add(3);
        let h = histogram("test.metrics.snap_hist");
        h.record(10);
        let snaps = snapshot();
        let text = render_text(&snaps);
        assert!(text.contains("test.metrics.snap"));
        assert!(text.contains("count=") && text.contains("p95>="));
        assert!(text.contains("p99>=") && text.contains("max="));
        // Text exporter lines come out in sorted key order.
        let keys: Vec<&str> =
            text.lines().filter_map(|l| l.split_whitespace().next()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "metric text keys must be sorted");
        let json = to_json_lines(&snaps);
        let line = json
            .lines()
            .find(|l| l.contains("test.metrics.snap_hist"))
            .unwrap();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"histogram\""));
        assert!(line.contains("\"p99\":") && line.contains("\"max\":"));
    }

    #[test]
    fn reset_zeroes_values() {
        let _g = test_lock();
        let c = counter("test.metrics.reset");
        c.add(9);
        reset_all();
        assert_eq!(c.get(), 0);
    }
}
