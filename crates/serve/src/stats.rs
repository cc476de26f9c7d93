//! `ServerStats` — the server's handles into its one telemetry plane.
//!
//! Every serving fact is recorded exactly once, through a pre-created
//! [`pl_metrics`] handle (atomics only — the registry lock is taken at
//! construction, on the first batch of a new GEMM width, and at snapshot
//! time). [`StatsSnapshot`] is a typed, read-only fold of a
//! [`MetricsSnapshot`]: what `plbench` reads and what Prometheus scrapes
//! are the same series.

use parking_lot::Mutex;
use pl_metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, SloWindow,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// `(family, # HELP text)` of every series the serving layer records;
/// the README's family table lists which [`StatsSnapshot`] field reads
/// each.
const FAMILIES: &[(&str, &str)] = &[
    ("pl_steps_submitted_total", "Decode steps accepted into a queue, per tenant"),
    ("pl_steps_total", "Decode steps delivered, per tenant"),
    ("pl_steps_failed_total", "Accepted decode steps answered with an error, per tenant"),
    ("pl_prefills_total", "Prefills completed (fully cached ones included), per tenant"),
    ("pl_prefill_chunks_total", "Prefill chunks executed, per tenant"),
    ("pl_prefill_tokens_total", "Prompt tokens forwarded by prefill chunks, per tenant"),
    ("pl_prefix_hit_tokens_total", "Prompt tokens taken from the prefix cache, per tenant"),
    ("pl_rejected_backpressure_total", "Submissions bounced on a full ring"),
    ("pl_rejected_sessions_total", "Sessions refused at the session cap"),
    ("pl_step_latency_us", "Submit-to-reply decode latency (log2 buckets, µs)"),
    ("pl_queue_wait_us", "Submit-to-collect latency (log2 buckets, µs)"),
    ("pl_execute_us", "Collect-to-reply latency (log2 buckets, µs)"),
    ("pl_prefill_chunk_latency_us", "Prefill chunk enqueue-to-execution latency (µs)"),
    ("pl_batches_total", "Batches executed"),
    ("pl_decode_batches_total", "Batches with at least one decode lane"),
    ("pl_mixed_batches_total", "Batches packing a prefill chunk next to decode lanes"),
    ("pl_batch_size_total", "Batches executed, by exact size (lanes, a chunk counts as one)"),
    ("pl_gemm_total", "GEMMs executed, by (m, n, k); n is the batch's ragged width"),
    ("pl_migrations_total", "Sessions imported from another shard"),
    ("pl_uptime_seconds", "Seconds since the server was constructed"),
    ("pl_slo_burn_rate", "Windowed SLO violation fraction over the error budget"),
    ("pl_sessions_live", "Live sessions"),
    ("pl_pending", "Work items queued but not executing"),
    ("pl_in_flight", "Accepted work not yet delivered"),
    ("pl_shard_health", "0 healthy, 1 degraded, 2 draining, 3 stalled"),
    ("pl_kv_pages_free", "Recycled KV pages available in the shard pool"),
    ("pl_kv_pages_shared", "KV pages shared by more than one owner (prefix cache)"),
    ("pl_kv_sessions_spilled", "Live sessions whose KV is spilled to a snapshot"),
];

/// One tenant's handle set.
pub(crate) struct TenantMetrics {
    pub submitted: Counter,
    pub steps: Counter,
    pub failed: Counter,
    pub prefills: Counter,
    pub prefill_chunks: Counter,
    pub prefill_tokens: Counter,
    pub prefix_hit_tokens: Counter,
    pub rejected_backpressure: Counter,
    pub rejected_sessions: Counter,
    pub step_latency: Histogram,
    pub queue_wait: Histogram,
    pub execute: Histogram,
    pub chunk_latency: Histogram,
    pub burn: Gauge,
    pub slo: SloWindow,
}

/// The serving runtime's recording handles over its [`MetricsRegistry`].
/// Read it with [`ServerStats::snapshot`] (typed) or scrape the registry
/// through [`crate::Server::metrics_snapshot`].
pub struct ServerStats {
    started: Instant,
    /// The registry every handle below records into.
    pub(crate) registry: MetricsRegistry,
    uptime: Gauge,
    /// Per-tenant handle sets, indexed by tenant id.
    pub(crate) tenants: Vec<TenantMetrics>,
    pub(crate) batches: Counter,
    pub(crate) decode_batches: Counter,
    pub(crate) mixed_batches: Counter,
    pub(crate) migrations: Counter,
    /// `pl_batch_size_total{size}` for sizes `1..=max_batch`.
    batch_sizes: Vec<Counter>,
    /// `pl_gemm_total{m,n,k}` handles by shape. One locked update per
    /// batch — not per GEMM — so the hot path stays effectively
    /// lock-free; the registry is touched only the first time a width
    /// executes.
    gemm: Mutex<BTreeMap<(usize, usize, usize), Counter>>,
}

impl ServerStats {
    pub(crate) fn new(tenants: usize, max_batch: usize, slo_p99_us: u64) -> Self {
        let registry = MetricsRegistry::new();
        for (family, help) in FAMILIES {
            registry.help(family, help);
        }
        let tenants = (0..tenants)
            .map(|t| {
                let tenant = t.to_string();
                let l: [(&str, &str); 1] = [("tenant", tenant.as_str())];
                TenantMetrics {
                    submitted: registry.counter("pl_steps_submitted_total", &l),
                    steps: registry.counter("pl_steps_total", &l),
                    failed: registry.counter("pl_steps_failed_total", &l),
                    prefills: registry.counter("pl_prefills_total", &l),
                    prefill_chunks: registry.counter("pl_prefill_chunks_total", &l),
                    prefill_tokens: registry.counter("pl_prefill_tokens_total", &l),
                    prefix_hit_tokens: registry.counter("pl_prefix_hit_tokens_total", &l),
                    rejected_backpressure: registry.counter("pl_rejected_backpressure_total", &l),
                    rejected_sessions: registry.counter("pl_rejected_sessions_total", &l),
                    step_latency: registry.histogram("pl_step_latency_us", &l),
                    queue_wait: registry.histogram("pl_queue_wait_us", &l),
                    execute: registry.histogram("pl_execute_us", &l),
                    chunk_latency: registry.histogram("pl_prefill_chunk_latency_us", &l),
                    burn: registry.gauge("pl_slo_burn_rate", &l),
                    slo: SloWindow::new(slo_p99_us, pl_metrics::slo::SLO_WINDOW_S),
                }
            })
            .collect();
        let batch_sizes = (1..=max_batch.max(1))
            .map(|size| registry.counter("pl_batch_size_total", &[("size", &size.to_string())]))
            .collect();
        ServerStats {
            started: Instant::now(),
            uptime: registry.gauge("pl_uptime_seconds", &[]),
            tenants,
            batches: registry.counter("pl_batches_total", &[]),
            decode_batches: registry.counter("pl_decode_batches_total", &[]),
            mixed_batches: registry.counter("pl_mixed_batches_total", &[]),
            migrations: registry.counter("pl_migrations_total", &[]),
            batch_sizes,
            gemm: Mutex::new(BTreeMap::new()),
            registry,
        }
    }

    /// Counts one executed batch of `size` lanes.
    pub(crate) fn record_batch_size(&self, size: usize) {
        self.batch_sizes[size.clamp(1, self.batch_sizes.len()) - 1].inc();
    }

    /// Records one batch's GEMMs: each `(shape, count)` entry says the
    /// batch executed `count` GEMMs of that `(m, n, k)` shape.
    pub(crate) fn record_gemm_shapes(&self, shapes: &[((usize, usize, usize), u64)]) {
        let mut handles = self.gemm.lock();
        for &((m, n, k), count) in shapes {
            handles
                .entry((m, n, k))
                .or_insert_with(|| {
                    let (m, n, k) = (m.to_string(), n.to_string(), k.to_string());
                    self.registry.counter("pl_gemm_total", &[("m", &m), ("n", &n), ("k", &k)])
                })
                .add(count);
        }
    }

    /// Point-in-time copy of every recorded series (plus the uptime
    /// gauge). No liveness gauge is sampled and no health state moves —
    /// that is [`crate::Server::metrics_snapshot`].
    pub(crate) fn registry_snapshot(&self) -> MetricsSnapshot {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        self.registry.snapshot()
    }

    /// Folds the registry into a point-in-time summary.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot::from_metrics(&self.registry_snapshot())
    }
}

/// Typed summary of the serving families of a [`MetricsSnapshot`],
/// summed over `tenant` (and, for a router's merged snapshot, `shard`)
/// labels. Quantiles are bucket upper edges recomputed from the summed
/// log2 buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Seconds since server start (the longest-lived shard's).
    pub elapsed_s: f64,
    /// Steps accepted.
    pub submitted: u64,
    /// Steps completed (reply delivered).
    pub completed: u64,
    /// Accepted steps answered with an error (batch failure, closed
    /// session, KV exhaustion, shutdown bounce).
    pub failed: u64,
    /// Backpressure rejections.
    pub rejected_backpressure: u64,
    /// Session-cap rejections.
    pub rejected_sessions: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches containing at least one decode lane.
    pub decode_batches: u64,
    /// Prefills completed.
    pub prefills: u64,
    /// Prefill chunks executed through the batcher (a fully cached prompt
    /// completes a prefill with none).
    pub prefill_chunks: u64,
    /// Prompt tokens those chunks forwarded.
    pub prefill_tokens: u64,
    /// Prompt tokens taken from the prefix cache instead of forwarded;
    /// `prefill_tokens + prefix_hit_tokens` is every prompt token served.
    pub prefix_hit_tokens: u64,
    /// Batches that interleaved a prefill chunk with decode lanes — the
    /// continuous-batching signal.
    pub mixed_batches: u64,
    /// `((m, n, k), GEMMs executed)`, `n` the batches' ragged widths.
    pub gemm_shapes: Vec<((usize, usize, usize), u64)>,
    /// Decode throughput (completed steps per second since start).
    pub tokens_per_s: f64,
    /// Mean executed batch size: Σ size·count / batches (a prefill chunk
    /// counts as one lane, as in `batch_distribution`).
    pub mean_batch: f64,
    /// Largest executed batch.
    pub max_batch_observed: usize,
    /// `(batch size, count)` pairs with nonzero counts.
    pub batch_distribution: Vec<(usize, u64)>,
    /// Median submit-to-reply step latency (µs).
    pub p50_us: u64,
    /// 99th percentile step latency (µs).
    pub p99_us: u64,
    /// Mean step latency (µs).
    pub mean_us: f64,
    /// Median submit→collect wait (µs). High here = queueing problem.
    pub queue_wait_p50_us: u64,
    /// 99th percentile queue wait (µs).
    pub queue_wait_p99_us: u64,
    /// Median collect→deliver latency (µs). High here = compute problem.
    pub execute_p50_us: u64,
    /// 99th percentile execute latency (µs).
    pub execute_p99_us: u64,
    /// Median prefill-chunk enqueue-to-execution latency (µs).
    pub chunk_p50_us: u64,
    /// 99th percentile prefill-chunk latency (µs).
    pub chunk_p99_us: u64,
}

/// The numeric value of label `name` on a series.
fn label(labels: &[(String, String)], name: &str) -> usize {
    let value = labels.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
    value.and_then(|v| v.parse().ok()).unwrap_or(0)
}

impl StatsSnapshot {
    /// The all-zero snapshot.
    pub fn empty() -> Self {
        Self::from_metrics(&MetricsSnapshot::default())
    }

    /// Reads the serving families out of `m`, summing each over whatever
    /// labels its series carry.
    pub fn from_metrics(m: &MetricsSnapshot) -> Self {
        let series =
            |family: &'static str| m.counters.iter().filter(move |((name, _), _)| name == family);
        let count = |family| series(family).map(|(_, &v)| v).sum::<u64>();
        let hist = |family: &str| {
            let mut sum = HistogramSnapshot::default();
            for (_, h) in m.histograms.iter().filter(|((name, _), _)| name == family) {
                sum.merge(h);
            }
            sum
        };

        let mut sizes: BTreeMap<usize, u64> = BTreeMap::new();
        for ((_, labels), &n) in series("pl_batch_size_total").filter(|(_, &n)| n > 0) {
            *sizes.entry(label(labels, "size")).or_insert(0) += n;
        }
        let mut shapes: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
        for ((_, labels), &n) in series("pl_gemm_total") {
            let shape = (label(labels, "m"), label(labels, "n"), label(labels, "k"));
            *shapes.entry(shape).or_insert(0) += n;
        }

        let elapsed_s = m
            .gauges
            .iter()
            .filter(|((name, _), _)| name == "pl_uptime_seconds")
            .fold(0.0f64, |max, (_, &v)| max.max(v));
        let completed = count("pl_steps_total");
        let batches = count("pl_batches_total");
        let lanes: u64 = sizes.iter().map(|(&size, &n)| size as u64 * n).sum();
        let step = hist("pl_step_latency_us");
        let queue_wait = hist("pl_queue_wait_us");
        let execute = hist("pl_execute_us");
        let chunk = hist("pl_prefill_chunk_latency_us");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        StatsSnapshot {
            elapsed_s,
            submitted: count("pl_steps_submitted_total"),
            completed,
            failed: count("pl_steps_failed_total"),
            rejected_backpressure: count("pl_rejected_backpressure_total"),
            rejected_sessions: count("pl_rejected_sessions_total"),
            batches,
            decode_batches: count("pl_decode_batches_total"),
            prefills: count("pl_prefills_total"),
            prefill_chunks: count("pl_prefill_chunks_total"),
            prefill_tokens: count("pl_prefill_tokens_total"),
            prefix_hit_tokens: count("pl_prefix_hit_tokens_total"),
            mixed_batches: count("pl_mixed_batches_total"),
            gemm_shapes: shapes.into_iter().collect(),
            tokens_per_s: ratio(completed as f64, elapsed_s),
            mean_batch: ratio(lanes as f64, batches as f64),
            max_batch_observed: sizes.keys().next_back().copied().unwrap_or(0),
            batch_distribution: sizes.into_iter().collect(),
            p50_us: step.quantile(0.50),
            p99_us: step.quantile(0.99),
            mean_us: ratio(step.sum as f64, step.count as f64),
            queue_wait_p50_us: queue_wait.quantile(0.50),
            queue_wait_p99_us: queue_wait.quantile(0.99),
            execute_p50_us: execute.quantile(0.50),
            execute_p99_us: execute.quantile(0.99),
            chunk_p50_us: chunk.quantile(0.50),
            chunk_p99_us: chunk.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_shapes_accumulate_counts_per_batch() {
        // Two layers: 8 QKV+WO GEMMs of h x h, 2 of each FFN shape.
        let s = ServerStats::new(1, 8, 50_000);
        s.record_gemm_shapes(&[((32, 4, 32), 8), ((64, 4, 32), 2), ((32, 4, 64), 2)]);
        s.record_gemm_shapes(&[((32, 4, 32), 8), ((64, 4, 32), 2), ((32, 4, 64), 2)]);
        s.record_gemm_shapes(&[((32, 8, 32), 8), ((64, 8, 32), 2), ((32, 8, 64), 2)]);
        let shapes = s.snapshot().gemm_shapes;
        assert_eq!(shapes.len(), 6);
        assert!(shapes.contains(&((32, 4, 32), 16)), "counts GEMMs executed, not batches");
        assert!(shapes.contains(&((64, 8, 32), 2)));
    }

    #[test]
    fn snapshot_derives_rates_from_the_size_series() {
        let s = ServerStats::new(2, 4, 50_000);
        for size in [2, 4, 9] {
            s.batches.inc();
            s.record_batch_size(size); // 9 clamps to max_batch
        }
        s.tenants[0].steps.add(7);
        s.tenants[1].steps.add(3);
        for us in [10u64, 20, 30, 40, 1000] {
            s.tenants[1].step_latency.observe(us);
        }
        let snap = s.snapshot();
        assert_eq!(snap.completed, 10, "summed over tenants");
        assert_eq!(snap.batch_distribution, vec![(2, 1), (4, 2)]);
        assert_eq!(snap.max_batch_observed, 4);
        // Lanes over batches — not completions over batches.
        assert!((snap.mean_batch - 10.0 / 3.0).abs() < 1e-12);
        assert!((snap.mean_us - 220.0).abs() < 1e-9);
        assert_eq!(snap.p50_us, 32);
        assert!(snap.elapsed_s > 0.0 && snap.tokens_per_s > 0.0);
    }

    #[test]
    fn shard_snapshots_merge_by_summed_buckets_so_the_slow_tail_survives() {
        // A fast shard (90 steps at ≤ 16 µs) and a slow one (10 at
        // ≤ 1024 µs), merged the way the router merges them.
        let (fast, slow) = (ServerStats::new(1, 8, 50_000), ServerStats::new(1, 8, 50_000));
        for (stats, steps, us, batches) in [(&fast, 90, 16, 45), (&slow, 10, 1000, 10)] {
            stats.tenants[0].steps.add(steps);
            (0..steps).for_each(|_| stats.tenants[0].step_latency.observe(us));
            stats.batches.add(batches);
            (0..batches).for_each(|_| stats.record_batch_size(2));
            stats.record_gemm_shapes(&[((32, 2, 32), batches)]);
        }
        let mut fleet = fast.registry_snapshot().with_label("shard", "0");
        fleet.merge(&slow.registry_snapshot().with_label("shard", "1"));
        let agg = StatsSnapshot::from_metrics(&fleet);
        assert_eq!((agg.completed, agg.batches), (100, 55));
        assert_eq!(agg.batch_distribution, vec![(2, 55)]);
        assert_eq!(agg.gemm_shapes, vec![((32, 2, 32), 55)]);
        assert_eq!((agg.p50_us, agg.p99_us), (32, 1024));
        // Count-weighted mean; concurrent shards, so elapsed is the max
        // and fleet throughput the sum.
        assert!((agg.mean_us - (90.0 * 16.0 + 10.0 * 1000.0) / 100.0).abs() < 1e-9);
        let uptime = |s: &ServerStats| s.uptime.get();
        assert_eq!(agg.elapsed_s, uptime(&fast).max(uptime(&slow)));
        assert_eq!(agg.tokens_per_s, 100.0 / agg.elapsed_s);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let e = StatsSnapshot::empty();
        assert_eq!((e.completed, e.batches, e.p99_us, e.max_batch_observed), (0, 0, 0, 0));
        assert_eq!((e.tokens_per_s, e.mean_batch, e.mean_us, e.elapsed_s), (0.0, 0.0, 0.0, 0.0));
        assert!(e.batch_distribution.is_empty() && e.gemm_shapes.is_empty());
    }
}
