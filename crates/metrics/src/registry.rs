//! The labeled metrics registry: counters, gauges and log2-bucket
//! histograms keyed by `(name, sorted labels)`.
//!
//! Hot paths never touch the registry: `counter`/`gauge`/`histogram`
//! are get-or-create calls that hand back cheap cloneable handles
//! backed by shared atomics — create handles once (per tenant, per
//! shard), then record lock-free. The registry's own mutex is only
//! taken at handle creation and [`MetricsRegistry::snapshot`] time.

use crate::buckets::{bucket_of, merge_buckets, quantile_from_buckets};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Buckets per registry histogram — same width as `pl_serve`'s latency
/// histograms (bucket `i` covers `[2^(i-1), 2^i)` of whatever unit the
/// metric's name declares, conventionally µs).
pub const HIST_BUCKETS: usize = 40;

/// What a metric family is — determines Prometheus `# TYPE` and which
/// snapshot map carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing u64 (`_total` names by convention).
    Counter,
    /// Point-in-time f64.
    Gauge,
    /// Log2-bucket distribution with count and sum.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prom_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Canonical series key: metric family name + label pairs sorted by
/// label name.
pub type SeriesKey = (String, Vec<(String, String)>);

fn series_key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

/// A monotonically increasing counter handle. Clone freely; all clones
/// share the same cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle (f64 stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A log2-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_of(v, HIST_BUCKETS)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Upper-edge estimate of quantile `q` (`0.0..=1.0`).
    pub fn quantile(&self, q: f64) -> u64 {
        let buckets: Vec<u64> = self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        quantile_from_buckets(&buckets, q)
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<SeriesKey, Arc<AtomicU64>>,
    gauges: BTreeMap<SeriesKey, Arc<AtomicU64>>,
    histograms: BTreeMap<SeriesKey, Arc<HistogramCore>>,
    kinds: BTreeMap<String, MetricKind>,
    help: BTreeMap<String, String>,
}

impl RegistryInner {
    fn claim_kind(&mut self, name: &str, kind: MetricKind) {
        match self.kinds.get(name) {
            None => {
                self.kinds.insert(name.to_string(), kind);
            }
            Some(&existing) => assert_eq!(
                existing, kind,
                "metric family {name:?} registered as {existing:?} and {kind:?}"
            ),
        }
    }
}

/// The registry. One per `Server`; a `Router` merges its shards'
/// snapshots with a `shard` label instead of sharing one registry.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MetricsRegistry")
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `(name, labels)`. Panics if `name` was
    /// already registered as a different kind (a programming error, not
    /// an operational condition).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().unwrap();
        inner.claim_kind(name, MetricKind::Counter);
        Counter(Arc::clone(inner.counters.entry(key).or_default()))
    }

    /// Get-or-create the gauge `(name, labels)`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().unwrap();
        inner.claim_kind(name, MetricKind::Gauge);
        Gauge(Arc::clone(inner.gauges.entry(key).or_default()))
    }

    /// Get-or-create the histogram `(name, labels)`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = series_key(name, labels);
        let mut inner = self.inner.lock().unwrap();
        inner.claim_kind(name, MetricKind::Histogram);
        Histogram(Arc::clone(
            inner.histograms.entry(key).or_insert_with(|| Arc::new(HistogramCore::new())),
        ))
    }

    /// Attaches `# HELP` text to a family (idempotent; last write wins).
    pub fn help(&self, name: &str, text: &str) {
        self.inner.lock().unwrap().help.insert(name.to_string(), text.to_string());
    }

    /// Point-in-time copy of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect(),
            help: inner.help.clone(),
        }
    }
}

/// Raw state of one histogram series at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw log2 bucket counts (index `i` = bucket `i`).
    pub buckets: Vec<u64>,
    /// Observation count.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Folds `other` in: buckets, count and sum add.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        merge_buckets(&mut self.buckets, &other.buckets);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Upper-edge quantile estimate over the snapshot's buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets, q)
    }
}

/// A mergeable point-in-time copy of a registry (or of several,
/// folded). Merging follows the serving layer's discipline: counters
/// and histogram buckets **sum**, quantiles are recomputed from summed
/// buckets, never averaged. Gauges also sum on key collision — shard
/// gauges are expected to be disambiguated with
/// [`MetricsSnapshot::with_label`] first, and the fleet-total of
/// `pending`-style gauges is exactly the sum.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauge series.
    pub gauges: BTreeMap<SeriesKey, f64>,
    /// Histogram series.
    pub histograms: BTreeMap<SeriesKey, HistogramSnapshot>,
    /// `# HELP` text per family.
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// Folds `other` in (counters/buckets add, gauges add, help fills
    /// gaps).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, v) in &other.help {
            self.help.entry(k.clone()).or_insert_with(|| v.clone());
        }
    }

    /// Returns the snapshot with `(label, value)` appended to every
    /// series — how a router stamps `shard="N"` onto a shard's snapshot
    /// before merging the fleet view.
    pub fn with_label(self, label: &str, value: &str) -> MetricsSnapshot {
        fn relabel<V>(
            map: BTreeMap<SeriesKey, V>,
            label: &str,
            value: &str,
        ) -> BTreeMap<SeriesKey, V> {
            map.into_iter()
                .map(|(mut key, val)| {
                    key.1.push((label.to_string(), value.to_string()));
                    key.1.sort();
                    (key, val)
                })
                .collect()
        }
        MetricsSnapshot {
            counters: relabel(self.counters, label, value),
            gauges: relabel(self.gauges, label, value),
            histograms: relabel(self.histograms, label, value),
            help: self.help,
        }
    }

    /// The kind of each family present, derived from which map carries
    /// it (a family never spans maps — the registry enforces that).
    pub fn kinds(&self) -> BTreeMap<String, MetricKind> {
        let mut kinds = BTreeMap::new();
        for (name, _) in self.counters.keys() {
            kinds.insert(name.clone(), MetricKind::Counter);
        }
        for (name, _) in self.gauges.keys() {
            kinds.insert(name.clone(), MetricKind::Gauge);
        }
        for (name, _) in self.histograms.keys() {
            kinds.insert(name.clone(), MetricKind::Histogram);
        }
        kinds
    }

    /// Convenience: counter value for `(name, labels)` (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters.get(&series_key(name, labels)).copied().unwrap_or(0)
    }

    /// Convenience: gauge value for `(name, labels)` (`None` when
    /// absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&series_key(name, labels)).copied()
    }

    /// Convenience: histogram snapshot for `(name, labels)`.
    pub fn histogram_series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        self.histograms.get(&series_key(name, labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_labels_canonicalize() {
        let r = MetricsRegistry::new();
        let a = r.counter("pl_steps_total", &[("tenant", "0"), ("mode", "serial")]);
        // Same series under reordered labels: same cell.
        let b = r.counter("pl_steps_total", &[("mode", "serial"), ("tenant", "0")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("pl_steps_total", &[("tenant", "0"), ("mode", "serial")]), 4);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflict_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("pl_x", &[]);
        let _ = r.gauge("pl_x", &[]);
    }

    #[test]
    fn gauge_round_trips_f64() {
        let r = MetricsRegistry::new();
        let g = r.gauge("pl_burn", &[]);
        g.set(1.25);
        assert_eq!(g.get(), 1.25);
        assert_eq!(r.snapshot().gauge_value("pl_burn", &[]), Some(1.25));
    }

    #[test]
    fn histogram_counts_sums_and_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("pl_queue_wait_us", &[("tenant", "1")]);
        for us in [3u64, 3, 3, 100] {
            h.observe(us);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 109);
        assert_eq!(h.quantile(0.5), 4); // bucket [2,4) upper edge
        assert_eq!(h.quantile(1.0), 128); // bucket [64,128) upper edge
    }

    #[test]
    fn merge_sums_counters_and_buckets_and_is_commutative() {
        let ra = MetricsRegistry::new();
        ra.counter("pl_steps_total", &[]).add(10);
        ra.histogram("pl_lat_us", &[]).observe(3);
        let rb = MetricsRegistry::new();
        rb.counter("pl_steps_total", &[]).add(5);
        rb.histogram("pl_lat_us", &[]).observe(1000);

        let (a, b) = (ra.snapshot(), rb.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter_value("pl_steps_total", &[]), 15);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.histograms, ba.histograms);
        let h = ab.histogram_series("pl_lat_us", &[]).unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1003);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let r = MetricsRegistry::new();
        r.counter("pl_steps_total", &[("tenant", "0")]).add(7);
        let snap = r.snapshot();
        let mut merged = snap.clone();
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged.counters, snap.counters);
    }

    #[test]
    fn with_label_stamps_every_series() {
        let r = MetricsRegistry::new();
        r.counter("pl_steps_total", &[("tenant", "0")]).inc();
        r.gauge("pl_pending", &[]).set(2.0);
        let snap = r.snapshot().with_label("shard", "3");
        assert_eq!(snap.counter_value("pl_steps_total", &[("shard", "3"), ("tenant", "0")]), 1);
        assert_eq!(snap.gauge_value("pl_pending", &[("shard", "3")]), Some(2.0));
    }
}
