//! The shared log2-bucket fold.
//!
//! One implementation of the power-of-two histogram discipline used
//! across the workspace: bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 is
//! `< 1` unit), a quantile answer is the **upper edge** of the bucket
//! containing the requested rank (within 2x of the true value — the
//! fidelity latency SLOs actually need, at the cost of a few dozen
//! counters and zero locks), and cross-shard aggregation **sums raw
//! buckets and recomputes** — never averages per-shard quantiles.
//!
//! [`crate::registry::Histogram`] (and through it `pl_serve::stats`)
//! delegates here.

/// Index of the log2 bucket holding `value`, clamped to `n_buckets`.
/// Bucket 0 holds `value < 1` (i.e. 0); bucket `i` holds
/// `[2^(i-1), 2^i)`; the last bucket is a catch-all for the tail.
pub fn bucket_of(value: u64, n_buckets: usize) -> usize {
    ((64 - value.leading_zeros()) as usize).min(n_buckets - 1)
}

/// Quantile estimate from raw log2 bucket counts: the upper edge
/// (`2^i`) of the bucket containing rank `ceil(q * n)` (clamped to at
/// least rank 1). Returns 0 for empty buckets. `q` is clamped to
/// `0.0..=1.0`, so `q = 0.0` answers the smallest observed bucket's
/// edge and `q = 1.0` the largest.
pub fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let n: u64 = buckets.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return 1u64 << i; // upper edge of bucket i
        }
    }
    1u64 << buckets.len().saturating_sub(1)
}

/// Element-wise sum of `other` into `mine`, growing `mine` as needed —
/// the merge half of the discipline: aggregate raw buckets, then
/// recompute quantiles from the sum.
pub fn merge_buckets(mine: &mut Vec<u64>, other: &[u64]) {
    if mine.len() < other.len() {
        mine.resize(other.len(), 0);
    }
    for (i, &c) in other.iter().enumerate() {
        mine[i] += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buckets_answer_zero_at_every_quantile() {
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&[], q), 0);
            assert_eq!(quantile_from_buckets(&[0, 0, 0], q), 0);
        }
    }

    #[test]
    fn single_sample_answers_its_bucket_edge_at_every_quantile() {
        // One observation of 5 µs lands in bucket 3 ([4, 8)), edge 8.
        let mut buckets = vec![0u64; 40];
        buckets[bucket_of(5, 40)] += 1;
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&buckets, q), 8, "q={q}");
        }
    }

    #[test]
    fn q0_and_q1_hit_first_and_last_occupied_buckets() {
        let mut buckets = vec![0u64; 16];
        buckets[2] = 10; // [2, 4) -> edge 4
        buckets[7] = 10; // [64, 128) -> edge 128
        assert_eq!(quantile_from_buckets(&buckets, 0.0), 4);
        assert_eq!(quantile_from_buckets(&buckets, 1.0), 128);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(quantile_from_buckets(&buckets, -3.0), 4);
        assert_eq!(quantile_from_buckets(&buckets, 7.0), 128);
    }

    #[test]
    fn bucket_of_clamps_to_the_catch_all_tail() {
        assert_eq!(bucket_of(0, 40), 0);
        assert_eq!(bucket_of(1, 40), 1);
        assert_eq!(bucket_of(2, 40), 2);
        assert_eq!(bucket_of(3, 40), 2);
        assert_eq!(bucket_of(u64::MAX, 40), 39);
    }

    #[test]
    fn merge_grows_and_sums() {
        let mut mine = vec![1, 2];
        merge_buckets(&mut mine, &[10, 0, 5]);
        assert_eq!(mine, vec![11, 2, 5]);
        // Merging a shorter vector leaves the tail alone.
        merge_buckets(&mut mine, &[1]);
        assert_eq!(mine, vec![12, 2, 5]);
        // Merge identity: empty other.
        merge_buckets(&mut mine, &[]);
        assert_eq!(mine, vec![12, 2, 5]);
    }

    #[test]
    fn quantiles_recomputed_from_summed_buckets_match_pooled_data() {
        // Shard A: 99 fast (bucket 1), shard B: 1 slow (bucket 10).
        let mut a = vec![0u64; 12];
        a[1] = 99;
        let mut b = vec![0u64; 12];
        b[10] = 1;
        let mut merged = a.clone();
        merge_buckets(&mut merged, &b);
        // Pooled p99 rank is 99 -> still the fast bucket; p100 is slow.
        assert_eq!(quantile_from_buckets(&merged, 0.99), 2);
        assert_eq!(quantile_from_buckets(&merged, 1.0), 1 << 10);
    }
}
