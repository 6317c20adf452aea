//! The metrics registry and the three metric handle types.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a registry mutex, recovering from poison: the guarded state
/// (metric maps, trace rings) stays structurally valid even if a panic
/// unwound mid-update, and observability must keep working after an
/// unrelated thread died.
pub(crate) fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default histogram bucket upper bounds, tuned for microsecond latencies:
/// 5 µs through 100 ms, roughly geometric.
pub const DEFAULT_BUCKETS: [f64; 14] = [
    5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0,
    50_000.0, 100_000.0,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are not meant for hot-path adds).
    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    /// Bucket upper bounds, ascending; counts has one extra +Inf slot.
    pub(crate) bounds: Vec<f64>,
    pub(crate) counts: Vec<AtomicU64>,
    pub(crate) count: AtomicU64,
    /// Sum of observed values as `f64` bits (CAS-accumulated).
    pub(crate) sum_bits: AtomicU64,
}

/// Estimates the `q`-quantile (`q` in `[0, 1]`) from fixed histogram
/// buckets, interpolating linearly inside the bucket that crosses the
/// target rank — the standard Prometheus `histogram_quantile` estimator.
///
/// `bounds` are the ascending finite bucket upper bounds; `counts` are the
/// **per-bucket** (non-cumulative) observation counts and must carry one
/// extra trailing slot for the overflow (+Inf) bucket. Observations in the
/// overflow bucket report the largest finite bound: the estimate is
/// clamped to the histogram's range, never extrapolated. Returns 0 for an
/// empty histogram.
///
/// This is the single quantile estimator in the workspace: live
/// [`Histogram`] handles, the `/rest/metrics?format=json` summary fields,
/// the load generator's latency report, and `imcf-obs`
/// `quantile_over_time` range queries all delegate here, so every surface
/// agrees on the estimate for the same buckets.
pub fn quantile_from_buckets(bounds: &[f64], counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut cumulative = 0u64;
    let mut lower = 0.0f64;
    for (i, bound) in bounds.iter().enumerate() {
        let in_bucket = counts.get(i).copied().unwrap_or(0);
        let before = cumulative;
        cumulative += in_bucket;
        if cumulative as f64 >= rank && in_bucket > 0 {
            let fraction = ((rank - before as f64) / in_bucket as f64).clamp(0.0, 1.0);
            return lower + (bound - lower) * fraction;
        }
        lower = *bound;
    }
    lower
}

/// The quantile/mean digest of a histogram, computed once from a
/// consistent read of the buckets — the shape the JSON exporter and the
/// load generator report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean observation, or 0 when empty.
    pub mean: f64,
    /// Median estimate.
    pub p50: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// 99.9th percentile estimate.
    pub p999: f64,
}

/// A fixed-bucket histogram of `f64` observations.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the bucket
    /// counts via the shared [`quantile_from_buckets`] estimator (see its
    /// docs for the interpolation and clamping rules).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.0.bounds, &self.bucket_counts(), q)
    }

    /// Per-bucket (non-cumulative) counts, one extra trailing slot for the
    /// overflow (+Inf) bucket — the layout [`quantile_from_buckets`]
    /// consumes.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The histogram's ascending finite bucket upper bounds.
    pub fn bucket_bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// The count in one bucket — finite buckets at `0..bounds.len()`,
    /// the overflow (+Inf) bucket at `bounds.len()`; 0 out of range.
    /// Lets per-tick samplers walk buckets without the `Vec` allocation
    /// of [`Histogram::bucket_counts`].
    pub fn bucket_count(&self, idx: usize) -> u64 {
        self.0
            .counts
            .get(idx)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Count, sum, mean and the p50/p99/p999 estimates in one digest,
    /// from a single read of the buckets.
    pub fn summary(&self) -> HistogramSummary {
        let counts = self.bucket_counts();
        let count: u64 = counts.iter().sum();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            mean: if count == 0 { 0.0 } else { sum / count as f64 },
            p50: quantile_from_buckets(&self.0.bounds, &counts, 0.50),
            p99: quantile_from_buckets(&self.0.bounds, &counts, 0.99),
            p999: quantile_from_buckets(&self.0.bounds, &counts, 0.999),
        }
    }
}

/// A borrowed, allocation-free view of one metric's live value — the
/// hot-path counterpart of the owning snapshot types, consumed through
/// [`Registry::visit_metrics`] by per-tick samplers (`imcf-obs`).
#[derive(Debug)]
pub enum MetricView<'a> {
    /// A counter's running total.
    Counter(u64),
    /// A gauge's last value.
    Gauge(f64),
    /// The histogram handle; read bounds and counts through its
    /// accessors ([`Histogram::bucket_bounds`], [`Histogram::bucket_count`]).
    Histogram(&'a Histogram),
}

/// Identity of one metric: dotted name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct MetricKey {
    pub(crate) name: String,
    pub(crate) labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            name: name.to_string(),
            labels,
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A set of named metrics.
///
/// Most code uses the process-wide [`global`] registry; tests construct
/// their own with [`Registry::new`] for isolation.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) an unlabelled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or finds) a counter with label pairs.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut map = locked(&self.metrics);
        match map
            .entry(key)
            .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted counter"),
        }
    }

    /// Registers (or finds) an unlabelled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Registers (or finds) a gauge with label pairs.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut map = locked(&self.metrics);
        match map
            .entry(key)
            .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted gauge"),
        }
    }

    /// Registers (or finds) an unlabelled histogram with default buckets.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Registers (or finds) a histogram (default buckets) with labels.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with_buckets(name, labels, &DEFAULT_BUCKETS)
    }

    /// Registers (or finds) a histogram with explicit bucket bounds.
    pub fn histogram_with_buckets(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        buckets: &[f64],
    ) -> Histogram {
        assert!(
            buckets.windows(2).all(|w| w[0] < w[1]),
            "histogram buckets must be strictly ascending"
        );
        let key = MetricKey::new(name, labels);
        let mut map = locked(&self.metrics);
        match map.entry(key).or_insert_with(|| {
            Metric::Histogram(Histogram(Arc::new(HistogramCore {
                bounds: buckets.to_vec(),
                counts: (0..=buckets.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            })))
        }) {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted histogram"),
        }
    }

    /// Visits every registered metric in sorted `(name, labels)` order,
    /// handing the closure borrowed names, labels and live values — no
    /// per-metric allocation, unlike the snapshot exporters. The metrics
    /// mutex is held for the whole visit, so the closure must not
    /// register metrics on (or snapshot) this registry.
    pub fn visit_metrics(&self, mut f: impl FnMut(&str, &[(String, String)], MetricView<'_>)) {
        let map = locked(&self.metrics);
        for (key, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => f(&key.name, &key.labels, MetricView::Counter(c.get())),
                Metric::Gauge(g) => f(&key.name, &key.labels, MetricView::Gauge(g.get())),
                Metric::Histogram(h) => f(&key.name, &key.labels, MetricView::Histogram(h)),
            }
        }
    }

    /// Zeroes every metric, keeping metric identities — handles cached by
    /// callers remain valid.
    pub fn reset(&self) {
        let map = locked(&self.metrics);
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0f64.to_bits(), Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for bucket in &h.0.counts {
                        bucket.store(0, Ordering::Relaxed);
                    }
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("a.g");
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn same_name_same_handle_distinct_labels_distinct() {
        let r = Registry::new();
        let a = r.counter_with("x", &[("k", "1")]);
        let b = r.counter_with("x", &[("k", "1")]);
        let c = r.counter_with("x", &[("k", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let r = Registry::new();
        let a = r.counter_with("y", &[("a", "1"), ("b", "2")]);
        let b = r.counter_with("y", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let r = Registry::new();
        let h = r.histogram_with_buckets("h", &[], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(5000.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 5055.0).abs() < 1e-9);
        assert!((h.mean() - 1685.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram_with_buckets("q", &[], &[10.0, 100.0, 1000.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram reports 0");
        // 100 observations uniformly inside (10, 100].
        for _ in 0..100 {
            h.observe(50.0);
        }
        let p50 = h.quantile(0.5);
        assert!((10.0..=100.0).contains(&p50), "p50={p50}");
        assert!(
            (h.quantile(0.5) - 55.0).abs() < 1e-9,
            "linear interpolation"
        );
        // One tail observation lands in the last finite bucket.
        h.observe(999.0);
        let p999 = h.quantile(0.999);
        assert!(p999 > 100.0, "p999={p999} must reach the tail bucket");
        // Overflow observations clamp at the largest finite bound.
        h.observe(1e9);
        assert!(h.quantile(1.0) <= 1000.0);
        // Quantiles are monotone in q.
        assert!(h.quantile(0.99) <= h.quantile(0.999));
        assert!(h.quantile(0.5) <= h.quantile(0.99));
    }

    #[test]
    fn reset_keeps_identities() {
        let r = Registry::new();
        let c = r.counter("keep");
        let h = r.histogram("keep.h");
        c.add(9);
        h.observe(1.0);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        // The pre-reset handle still feeds the same metric.
        c.inc();
        assert_eq!(r.counter("keep").get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("clash");
        r.gauge("clash");
    }
}
