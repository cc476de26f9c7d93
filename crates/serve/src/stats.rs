//! `ServerStats` — the serving runtime's metrics surface.
//!
//! Everything is atomics, so the hot path (batcher + client threads)
//! records without locks; a [`ServerStats::snapshot`] folds the counters
//! into human-facing rates and quantiles.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of power-of-two latency buckets (bucket i covers
/// `[2^(i-1), 2^i)` microseconds; bucket 0 is `< 1 µs`).
const LATENCY_BUCKETS: usize = 40;

/// A log2-bucketed latency histogram over microseconds.
///
/// Quantile answers are the upper edge of the containing bucket, i.e.
/// within 2x of the true value — the fidelity latency SLOs actually need,
/// at the cost of 40 counters and zero locks.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Element-wise sum of `other` into `mine`, growing `mine` as needed —
/// the bucket-histogram half of [`StatsSnapshot::merge`], delegating to
/// the workspace-wide implementation in [`pl_metrics::merge_buckets`].
fn merge_buckets(mine: &mut Vec<u64>, other: &[u64]) {
    pl_metrics::merge_buckets(mine, other);
}

/// Quantile estimate from raw log2 bucket counts: the upper edge of the
/// bucket containing rank `ceil(q * n)`. This is the pure fold behind
/// [`LatencyHistogram::quantile_us`], shared with [`StatsSnapshot::merge`]
/// so cross-shard aggregation recomputes quantiles from summed buckets
/// instead of (incorrectly) averaging per-shard quantiles. The single
/// implementation (also behind `pl_trace`'s nanosecond histograms) lives
/// in [`pl_metrics::quantile_from_buckets`]; this re-export keeps the
/// serving-layer API stable.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    pl_metrics::quantile_from_buckets(buckets, q)
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }

    fn bucket_of(us: u64) -> usize {
        pl_metrics::bucket_of(us, LATENCY_BUCKETS)
    }

    /// Point-in-time copy of the raw bucket counts (index i = bucket i).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        self.total_us.load(Ordering::Relaxed) as f64 / n as f64
    }

    /// Upper-edge estimate of quantile `q` (`0.0..=1.0`) in microseconds.
    pub fn quantile_us(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.bucket_counts(), q)
    }
}

/// A dense counting histogram over small integer values (batch sizes).
#[derive(Debug)]
pub struct CountHistogram {
    buckets: Vec<AtomicU64>,
}

impl CountHistogram {
    /// Histogram over values `0..=max_value` (larger values clamp).
    pub fn new(max_value: usize) -> Self {
        CountHistogram { buckets: (0..=max_value).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Records one observation.
    pub fn record(&self, value: usize) {
        let i = value.min(self.buckets.len() - 1);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Count at `value`.
    pub fn count_at(&self, value: usize) -> u64 {
        self.buckets.get(value).map_or(0, |b| b.load(Ordering::Relaxed))
    }

    /// Largest value with a nonzero count.
    pub fn max_observed(&self) -> usize {
        (0..self.buckets.len())
            .rev()
            .find(|&i| self.buckets[i].load(Ordering::Relaxed) > 0)
            .unwrap_or(0)
    }

    /// `(value, count)` pairs with nonzero counts.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some((i, c))
            })
            .collect()
    }
}

/// Live counters of a serving runtime.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    /// Step requests accepted into a queue.
    pub submitted: AtomicU64,
    /// Step requests completed (reply delivered).
    pub completed: AtomicU64,
    /// Rejections because the tenant's queue ring was full.
    pub rejected_backpressure: AtomicU64,
    /// Rejections because the session cap was reached.
    pub rejected_sessions: AtomicU64,
    /// Batches executed.
    pub batches: AtomicU64,
    /// Batches that contained at least one decode lane (a batch can also
    /// be a lone prefill chunk).
    pub decode_batches: AtomicU64,
    /// Prefills completed (all chunks executed, reply delivered).
    pub prefills: AtomicU64,
    /// Prefill chunks executed through the batcher.
    pub prefill_chunks: AtomicU64,
    /// Batches that interleaved a prefill chunk with decode lanes — the
    /// continuous-batching signal: nonzero means long prompts shared
    /// regions with live decode traffic instead of blocking it.
    pub mixed_batches: AtomicU64,
    /// Queue-to-reply latency of decode steps (the combined histogram,
    /// kept for artifact compatibility: `queue_wait_latency` +
    /// `execute_latency` split the same interval).
    pub step_latency: LatencyHistogram,
    /// Submit→collect slice of step latency: time a step sat in the
    /// submission ring (plus coalesce linger and deferred replays)
    /// before a batch picked it up. High here = queueing problem.
    pub queue_wait_latency: LatencyHistogram,
    /// Collect→deliver slice of step latency: checkout + the parallel
    /// region + check-in/reply. High here = compute problem.
    pub execute_latency: LatencyHistogram,
    /// Enqueue-to-execution latency of prefill chunks.
    pub prefill_chunk_latency: LatencyHistogram,
    /// Distribution of executed batch sizes.
    pub batch_sizes: CountHistogram,
    /// `(m, n, k) -> GEMMs executed` over all batches: `n` is the batch's
    /// real ragged width (decode lanes + the chunk's tokens); the
    /// `hidden x hidden` shape runs 4x per layer for QKV + output, the FFN
    /// shapes once per layer. One locked update per batch — not per GEMM —
    /// so the hot path stays effectively lock-free; this is what the
    /// retune loop harvests ([`crate::Server::hot_gemm_problems`]).
    gemm_shapes: Mutex<BTreeMap<(usize, usize, usize), u64>>,
}

impl ServerStats {
    /// Fresh stats; `max_batch` bounds the batch-size histogram.
    pub fn new(max_batch: usize) -> Self {
        ServerStats {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_backpressure: AtomicU64::new(0),
            rejected_sessions: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            decode_batches: AtomicU64::new(0),
            prefills: AtomicU64::new(0),
            prefill_chunks: AtomicU64::new(0),
            mixed_batches: AtomicU64::new(0),
            step_latency: LatencyHistogram::new(),
            queue_wait_latency: LatencyHistogram::new(),
            execute_latency: LatencyHistogram::new(),
            prefill_chunk_latency: LatencyHistogram::new(),
            batch_sizes: CountHistogram::new(max_batch),
            gemm_shapes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records one batch's GEMMs: each `(shape, count)` entry says the
    /// batch executed `count` GEMMs of that `(m, n, k)` shape.
    pub fn record_gemm_shapes(&self, gemm_shapes: &[((usize, usize, usize), u64)]) {
        let mut shapes = self.gemm_shapes.lock();
        for &(s, count) in gemm_shapes {
            *shapes.entry(s).or_insert(0) += count;
        }
    }

    /// The GEMM shapes executed so far, as sorted
    /// `((m, n, k), GEMMs executed)` pairs.
    pub fn gemm_shapes(&self) -> Vec<((usize, usize, usize), u64)> {
        self.gemm_shapes.lock().iter().map(|(&s, &c)| (s, c)).collect()
    }

    /// Folds the counters into a point-in-time summary.
    pub fn snapshot(&self) -> StatsSnapshot {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        StatsSnapshot {
            elapsed_s: elapsed,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected_backpressure: self.rejected_backpressure.load(Ordering::Relaxed),
            rejected_sessions: self.rejected_sessions.load(Ordering::Relaxed),
            batches,
            decode_batches: self.decode_batches.load(Ordering::Relaxed),
            prefills: self.prefills.load(Ordering::Relaxed),
            prefill_chunks: self.prefill_chunks.load(Ordering::Relaxed),
            mixed_batches: self.mixed_batches.load(Ordering::Relaxed),
            gemm_shapes: self.gemm_shapes(),
            tokens_per_s: completed as f64 / elapsed,
            mean_batch: if batches == 0 { 0.0 } else { completed as f64 / batches as f64 },
            max_batch_observed: self.batch_sizes.max_observed(),
            batch_distribution: self.batch_sizes.nonzero(),
            latency_buckets: self.step_latency.bucket_counts(),
            p50_us: self.step_latency.quantile_us(0.50),
            p99_us: self.step_latency.quantile_us(0.99),
            mean_us: self.step_latency.mean_us(),
            queue_wait_buckets: self.queue_wait_latency.bucket_counts(),
            queue_wait_p50_us: self.queue_wait_latency.quantile_us(0.50),
            queue_wait_p99_us: self.queue_wait_latency.quantile_us(0.99),
            execute_buckets: self.execute_latency.bucket_counts(),
            execute_p50_us: self.execute_latency.quantile_us(0.50),
            execute_p99_us: self.execute_latency.quantile_us(0.99),
            chunk_latency_buckets: self.prefill_chunk_latency.bucket_counts(),
            chunk_p50_us: self.prefill_chunk_latency.quantile_us(0.50),
            chunk_p99_us: self.prefill_chunk_latency.quantile_us(0.99),
        }
    }
}

/// Point-in-time summary of [`ServerStats`].
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Seconds since server start.
    pub elapsed_s: f64,
    /// Steps accepted.
    pub submitted: u64,
    /// Steps completed.
    pub completed: u64,
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
    /// Prefill chunks executed through the batcher.
    pub prefill_chunks: u64,
    /// Batches that interleaved a prefill chunk with decode lanes.
    pub mixed_batches: u64,
    /// `((m, n, k), GEMMs executed)`, `n` the batches' ragged widths.
    pub gemm_shapes: Vec<((usize, usize, usize), u64)>,
    /// Decode throughput (completed steps per second since start).
    pub tokens_per_s: f64,
    /// Mean executed batch size.
    pub mean_batch: f64,
    /// Largest executed batch.
    pub max_batch_observed: usize,
    /// `(batch size, count)` pairs.
    pub batch_distribution: Vec<(usize, u64)>,
    /// Raw log2 latency bucket counts (bucket i covers `[2^(i-1), 2^i)`
    /// µs) — carried so snapshots from several servers can be **merged**
    /// with correct quantiles (averaging per-shard p99s would be wrong).
    pub latency_buckets: Vec<u64>,
    /// Median queue-to-reply step latency (µs, bucket upper edge).
    pub p50_us: u64,
    /// 99th percentile step latency (µs, bucket upper edge).
    pub p99_us: u64,
    /// Mean step latency (µs).
    pub mean_us: f64,
    /// Raw log2 buckets of the submit→collect (queue wait) slice of
    /// step latency (mergeable, like `latency_buckets`).
    pub queue_wait_buckets: Vec<u64>,
    /// Median queue wait (µs, bucket upper edge).
    pub queue_wait_p50_us: u64,
    /// 99th percentile queue wait (µs).
    pub queue_wait_p99_us: u64,
    /// Raw log2 buckets of the collect→deliver (execute) slice of step
    /// latency (mergeable).
    pub execute_buckets: Vec<u64>,
    /// Median execute latency (µs, bucket upper edge).
    pub execute_p50_us: u64,
    /// 99th percentile execute latency (µs).
    pub execute_p99_us: u64,
    /// Raw log2 prefill-chunk latency buckets (mergeable, like
    /// `latency_buckets`).
    pub chunk_latency_buckets: Vec<u64>,
    /// Median prefill-chunk enqueue-to-execution latency (µs).
    pub chunk_p50_us: u64,
    /// 99th percentile prefill-chunk latency (µs).
    pub chunk_p99_us: u64,
}

impl StatsSnapshot {
    /// The all-zero snapshot — the identity element of [`StatsSnapshot::merge`].
    pub fn empty() -> Self {
        StatsSnapshot {
            elapsed_s: 0.0,
            submitted: 0,
            completed: 0,
            rejected_backpressure: 0,
            rejected_sessions: 0,
            batches: 0,
            decode_batches: 0,
            prefills: 0,
            prefill_chunks: 0,
            mixed_batches: 0,
            gemm_shapes: Vec::new(),
            tokens_per_s: 0.0,
            mean_batch: 0.0,
            max_batch_observed: 0,
            batch_distribution: Vec::new(),
            latency_buckets: vec![0; LATENCY_BUCKETS],
            p50_us: 0,
            p99_us: 0,
            mean_us: 0.0,
            queue_wait_buckets: vec![0; LATENCY_BUCKETS],
            queue_wait_p50_us: 0,
            queue_wait_p99_us: 0,
            execute_buckets: vec![0; LATENCY_BUCKETS],
            execute_p50_us: 0,
            execute_p99_us: 0,
            chunk_latency_buckets: vec![0; LATENCY_BUCKETS],
            chunk_p50_us: 0,
            chunk_p99_us: 0,
        }
    }

    /// Latency observations carried by this snapshot (sum of the raw
    /// buckets).
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Folds `other` into `self` — the cross-shard aggregation a serving
    /// router needs. Counters add; `elapsed_s` takes the max (shards run
    /// concurrently, not back-to-back); throughput and means are
    /// recomputed from the merged counters; quantiles are recomputed from
    /// the **summed latency buckets** (never from the per-shard p50/p99
    /// values, which do not compose); batch/shape histograms merge by key.
    pub fn merge(&mut self, other: &StatsSnapshot) {
        let (c_self, c_other) = (self.latency_count() as f64, other.latency_count() as f64);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.rejected_backpressure += other.rejected_backpressure;
        self.rejected_sessions += other.rejected_sessions;
        self.batches += other.batches;
        self.decode_batches += other.decode_batches;
        self.prefills += other.prefills;
        self.prefill_chunks += other.prefill_chunks;
        self.mixed_batches += other.mixed_batches;
        self.max_batch_observed = self.max_batch_observed.max(other.max_batch_observed);

        let mut shapes: BTreeMap<(usize, usize, usize), u64> =
            self.gemm_shapes.iter().copied().collect();
        for &(s, c) in &other.gemm_shapes {
            *shapes.entry(s).or_insert(0) += c;
        }
        self.gemm_shapes = shapes.into_iter().collect();

        let mut dist: BTreeMap<usize, u64> = self.batch_distribution.iter().copied().collect();
        for &(b, c) in &other.batch_distribution {
            *dist.entry(b).or_insert(0) += c;
        }
        self.batch_distribution = dist.into_iter().collect();

        merge_buckets(&mut self.latency_buckets, &other.latency_buckets);

        self.tokens_per_s = self.completed as f64 / self.elapsed_s.max(1e-9);
        self.mean_batch =
            if self.batches == 0 { 0.0 } else { self.completed as f64 / self.batches as f64 };
        self.mean_us = if c_self + c_other > 0.0 {
            (self.mean_us * c_self + other.mean_us * c_other) / (c_self + c_other)
        } else {
            0.0
        };
        self.p50_us = quantile_from_buckets(&self.latency_buckets, 0.50);
        self.p99_us = quantile_from_buckets(&self.latency_buckets, 0.99);

        merge_buckets(&mut self.queue_wait_buckets, &other.queue_wait_buckets);
        self.queue_wait_p50_us = quantile_from_buckets(&self.queue_wait_buckets, 0.50);
        self.queue_wait_p99_us = quantile_from_buckets(&self.queue_wait_buckets, 0.99);
        merge_buckets(&mut self.execute_buckets, &other.execute_buckets);
        self.execute_p50_us = quantile_from_buckets(&self.execute_buckets, 0.50);
        self.execute_p99_us = quantile_from_buckets(&self.execute_buckets, 0.99);

        merge_buckets(&mut self.chunk_latency_buckets, &other.chunk_latency_buckets);
        self.chunk_p50_us = quantile_from_buckets(&self.chunk_latency_buckets, 0.50);
        self.chunk_p99_us = quantile_from_buckets(&self.chunk_latency_buckets, 0.99);
    }

    /// Hand-rolled JSON rendering (no serialization crates in this
    /// environment) — every field, machine-readable, for scrapers and the
    /// bench artifact. Array-valued histograms serialize as arrays of
    /// `[key, count]` pairs; the GEMM shapes as `[[m, n, k], count]`.
    pub fn to_json(&self) -> String {
        let dist: Vec<String> =
            self.batch_distribution.iter().map(|(b, c)| format!("[{b},{c}]")).collect();
        let buckets: Vec<String> = self.latency_buckets.iter().map(u64::to_string).collect();
        let queue_buckets: Vec<String> =
            self.queue_wait_buckets.iter().map(u64::to_string).collect();
        let exec_buckets: Vec<String> = self.execute_buckets.iter().map(u64::to_string).collect();
        let chunk_buckets: Vec<String> =
            self.chunk_latency_buckets.iter().map(u64::to_string).collect();
        let shapes: Vec<String> =
            self.gemm_shapes.iter().map(|((m, n, k), c)| format!("[[{m},{n},{k}],{c}]")).collect();
        format!(
            concat!(
                "{{\"elapsed_s\":{:.6},\"submitted\":{},\"completed\":{},",
                "\"rejected_backpressure\":{},\"rejected_sessions\":{},",
                "\"batches\":{},\"decode_batches\":{},\"prefills\":{},",
                "\"prefill_chunks\":{},\"mixed_batches\":{},",
                "\"tokens_per_s\":{:.3},\"mean_batch\":{:.4},",
                "\"max_batch_observed\":{},\"batch_distribution\":[{}],",
                "\"latency_buckets\":[{}],\"gemm_shapes\":[{}],",
                "\"p50_us\":{},\"p99_us\":{},\"mean_us\":{:.3},",
                "\"queue_wait_buckets\":[{}],\"queue_wait_p50_us\":{},",
                "\"queue_wait_p99_us\":{},\"execute_buckets\":[{}],",
                "\"execute_p50_us\":{},\"execute_p99_us\":{},",
                "\"chunk_latency_buckets\":[{}],\"chunk_p50_us\":{},\"chunk_p99_us\":{}}}"
            ),
            self.elapsed_s,
            self.submitted,
            self.completed,
            self.rejected_backpressure,
            self.rejected_sessions,
            self.batches,
            self.decode_batches,
            self.prefills,
            self.prefill_chunks,
            self.mixed_batches,
            self.tokens_per_s,
            self.mean_batch,
            self.max_batch_observed,
            dist.join(","),
            buckets.join(","),
            shapes.join(","),
            self.p50_us,
            self.p99_us,
            self.mean_us,
            queue_buckets.join(","),
            self.queue_wait_p50_us,
            self.queue_wait_p99_us,
            exec_buckets.join(","),
            self.execute_p50_us,
            self.execute_p99_us,
            chunk_buckets.join(","),
            self.chunk_p50_us,
            self.chunk_p99_us,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for us in [10u64, 20, 30, 40, 1000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_us(0.5);
        // 3rd of 5 sorted observations is 30 µs -> bucket upper edge 32.
        assert!((30..=64).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((1000..=2048).contains(&p99), "p99 {p99}");
        assert!((h.mean_us() - 220.0).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn count_histogram_tracks_max_and_distribution() {
        let h = CountHistogram::new(8);
        h.record(1);
        h.record(4);
        h.record(4);
        h.record(100); // clamps to 8
        assert_eq!(h.max_observed(), 8);
        assert_eq!(h.count_at(4), 2);
        assert_eq!(h.nonzero(), vec![(1, 1), (4, 2), (8, 1)]);
    }

    #[test]
    fn gemm_shapes_accumulate_counts_per_batch() {
        // Two layers: 8 QKV+WO GEMMs of h x h, 2 of each FFN shape.
        let s = ServerStats::new(8);
        s.record_gemm_shapes(&[((32, 4, 32), 8), ((64, 4, 32), 2), ((32, 4, 64), 2)]);
        s.record_gemm_shapes(&[((32, 4, 32), 8), ((64, 4, 32), 2), ((32, 4, 64), 2)]);
        s.record_gemm_shapes(&[((32, 8, 32), 8), ((64, 8, 32), 2), ((32, 8, 64), 2)]);
        let shapes = s.gemm_shapes();
        assert_eq!(shapes.len(), 6);
        assert!(shapes.contains(&((32, 4, 32), 16)), "counts GEMMs executed, not batches");
        assert!(shapes.contains(&((64, 8, 32), 2)));
        let snap = s.snapshot();
        assert_eq!(snap.gemm_shapes, shapes);
    }

    #[test]
    fn merge_sums_latency_and_batch_histograms() {
        // Two shards with disjoint latency populations: shard A all-fast
        // (16 µs), shard B all-slow (1024 µs). The merged p99 must come
        // from the *summed buckets* (slow tail visible), not from any
        // average of the per-shard quantiles.
        let a = ServerStats::new(8);
        let b = ServerStats::new(8);
        for _ in 0..99 {
            a.step_latency.record_us(16);
            a.completed.fetch_add(1, Ordering::Relaxed);
        }
        b.step_latency.record_us(1024);
        b.completed.fetch_add(1, Ordering::Relaxed);
        a.batches.fetch_add(50, Ordering::Relaxed);
        b.batches.fetch_add(1, Ordering::Relaxed);
        a.batch_sizes.record(2);
        a.batch_sizes.record(2);
        b.batch_sizes.record(2);
        b.batch_sizes.record(8);
        b.prefills.fetch_add(3, Ordering::Relaxed);
        a.record_gemm_shapes(&[((32, 4, 32), 8)]);
        b.record_gemm_shapes(&[((32, 4, 32), 8), ((64, 4, 32), 2)]);
        // Chunked-prefill surfaces merge too: counters add, chunk
        // latency quantiles recompute from summed buckets.
        a.prefill_chunks.fetch_add(4, Ordering::Relaxed);
        b.prefill_chunks.fetch_add(2, Ordering::Relaxed);
        a.mixed_batches.fetch_add(1, Ordering::Relaxed);
        a.decode_batches.fetch_add(50, Ordering::Relaxed);
        b.decode_batches.fetch_add(1, Ordering::Relaxed);
        a.prefill_chunk_latency.record_us(8);
        b.prefill_chunk_latency.record_us(512);
        // The queue-wait/execute split merges like the combined
        // histogram: summed buckets, recomputed quantiles.
        a.queue_wait_latency.record_us(4);
        b.queue_wait_latency.record_us(256);
        a.execute_latency.record_us(12);
        b.execute_latency.record_us(768);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.completed, 100);
        assert_eq!(merged.batches, 51);
        assert_eq!(merged.prefills, 3);
        assert_eq!(merged.prefill_chunks, 6);
        assert_eq!(merged.mixed_batches, 1);
        assert_eq!(merged.decode_batches, 51);
        assert_eq!(merged.chunk_p50_us, 16, "fast chunk's bucket edge");
        assert_eq!(quantile_from_buckets(&merged.chunk_latency_buckets, 1.0), 1024);
        assert_eq!(merged.queue_wait_buckets.iter().sum::<u64>(), 2);
        assert_eq!(merged.queue_wait_p50_us, 8, "fast queue wait's bucket edge");
        assert_eq!(quantile_from_buckets(&merged.queue_wait_buckets, 1.0), 512);
        assert_eq!(merged.execute_buckets.iter().sum::<u64>(), 2);
        assert_eq!(merged.execute_p50_us, 16);
        assert_eq!(quantile_from_buckets(&merged.execute_buckets, 1.0), 1024);
        assert_eq!(merged.latency_count(), 100);
        // p50 over {99x16, 1x1024} is the 16 µs observation's bucket
        // (upper edge 32); p99 lands on the rank-99 observation (still
        // the fast bucket), p100 on the slow one (bucket edge 2048).
        assert_eq!(merged.p50_us, 32);
        assert_eq!(merged.p99_us, 32);
        assert_eq!(quantile_from_buckets(&merged.latency_buckets, 1.0), 2048);
        // Batch histogram merged by size: three batches of 2, one of 8.
        assert_eq!(merged.batch_distribution, vec![(2, 3), (8, 1)]);
        assert_eq!(merged.max_batch_observed, 8);
        // Shape map merged by (m, n, k).
        assert_eq!(merged.gemm_shapes, vec![((32, 4, 32), 16), ((64, 4, 32), 2)]);
        // Mean is count-weighted: (99*16 + 1024) / 100.
        assert!((merged.mean_us - 26.08).abs() < 1e-9, "mean {}", merged.mean_us);
        // Rates recomputed from merged counters.
        assert!((merged.mean_batch - 100.0 / 51.0).abs() < 1e-12);
    }

    #[test]
    fn merge_identity_and_elapsed_is_max_not_sum() {
        let s = ServerStats::new(4);
        s.completed.fetch_add(7, Ordering::Relaxed);
        s.step_latency.record_us(100);
        let base = s.snapshot();
        // empty ⊕ snap == snap ⊕ empty (on every content field; elapsed of
        // the live snapshot dominates the empty one's 0).
        let mut left = StatsSnapshot::empty();
        left.merge(&base);
        let mut right = base.clone();
        right.merge(&StatsSnapshot::empty());
        assert_eq!(left.completed, right.completed);
        assert_eq!(left.latency_buckets, right.latency_buckets);
        assert_eq!(left.p99_us, right.p99_us);
        assert_eq!(left.elapsed_s, right.elapsed_s);
        // Concurrent shards: elapsed is max, so merged throughput is the
        // *sum* of shard throughputs, not their mean.
        let mut x = StatsSnapshot::empty();
        x.elapsed_s = 2.0;
        x.completed = 10;
        let mut y = StatsSnapshot::empty();
        y.elapsed_s = 2.0;
        y.completed = 30;
        x.merge(&y);
        assert_eq!(x.elapsed_s, 2.0);
        assert!((x.tokens_per_s - 20.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_renders_json() {
        let s = ServerStats::new(4);
        s.submitted.fetch_add(5, Ordering::Relaxed);
        s.completed.fetch_add(5, Ordering::Relaxed);
        s.batches.fetch_add(2, Ordering::Relaxed);
        s.batch_sizes.record(2);
        s.batch_sizes.record(3);
        s.step_latency.record_us(10);
        s.record_gemm_shapes(&[((32, 2, 32), 8)]);
        s.prefill_chunks.fetch_add(3, Ordering::Relaxed);
        s.mixed_batches.fetch_add(1, Ordering::Relaxed);
        s.prefill_chunk_latency.record_us(100);
        s.queue_wait_latency.record_us(3);
        s.execute_latency.record_us(7);
        let json = s.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"completed\":5",
            "\"batches\":2",
            "\"batch_distribution\":[[2,1],[3,1]]",
            "\"gemm_shapes\":[[[32,2,32],8]]",
            "\"latency_buckets\":[",
            "\"p99_us\":16",
            "\"prefill_chunks\":3",
            "\"mixed_batches\":1",
            "\"chunk_latency_buckets\":[",
            "\"chunk_p99_us\":128",
            "\"queue_wait_buckets\":[",
            "\"queue_wait_p99_us\":4",
            "\"execute_buckets\":[",
            "\"execute_p99_us\":8",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Braces/brackets balance — the hand-rolled writer stays well-formed.
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn snapshot_derives_rates() {
        let s = ServerStats::new(4);
        s.submitted.fetch_add(10, Ordering::Relaxed);
        s.completed.fetch_add(10, Ordering::Relaxed);
        s.batches.fetch_add(4, Ordering::Relaxed);
        s.batch_sizes.record(2);
        s.batch_sizes.record(4);
        let snap = s.snapshot();
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.max_batch_observed, 4);
        assert!((snap.mean_batch - 2.5).abs() < 1e-12);
        assert!(snap.tokens_per_s > 0.0);
    }
}
