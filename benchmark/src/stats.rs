//! Exact order statistics over raw samples (no histogram buckets).

/// Sorts samples ascending. Samples are durations or rates, never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Rank (1-based) of the `permille`/1000 quantile among `n` samples:
/// `ceil(n * permille / 1000)`, in whole numbers so that 99.9% of 10000 is
/// rank 9990 and not whatever a float product rounds to.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank quantile of ascending `sorted` samples, so every reported
/// value is one that was measured. Returns 0 for an empty slice.
pub fn quantile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(v: Vec<f64>) -> f64 {
    quantile(&sorted(v), 500)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(percent, value)`; `None` below 40 samples, where
/// no tail can be stated.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&pm| !sorted.is_empty() && sorted.len() - rank(sorted.len(), pm) >= 10)
        .map(|pm| (pm as f64 / 10.0, quantile(sorted, pm)))
}

/// One session's completed ops as `(reply time, tokens)` in reply order.
pub type SessionOps = Vec<(f64, u64)>;

/// Closed-loop token rate, summed over sessions.
///
/// A session's ops run back to back, so the tokens it was answered by time
/// `b` were computed entirely inside `(start, b]` when `b` is one of its own
/// reply times. Each session is therefore rated over its own span, from
/// `start` to its last reply: no op is ever counted partially, which a fixed
/// wall-clock edge would do to the long prefills.
pub fn token_rate(sessions: &[SessionOps], start: f64) -> f64 {
    sessions
        .iter()
        .filter_map(|ops| {
            let &(last, _) = ops.last()?;
            let tokens: u64 = ops.iter().map(|&(_, n)| n).sum();
            (last > start).then(|| tokens as f64 / (last - start))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_measured_samples() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 500), 3.0);
        assert_eq!(quantile(&s, 0), 1.0);
        assert_eq!(quantile(&s, 1000), 5.0);
        assert_eq!(quantile(&s, 610), 4.0);
        assert_eq!(quantile(&[], 500), 0.0);
        // Even count: nearest rank takes the lower middle, not a mean.
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.0, 990.0)));
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((99.9, 9990.0)));
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s), Some((90.0, 90.0)));
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s), Some((75.0, 30.0)));
        assert_eq!(tail(&s[..39]), None);
    }

    #[test]
    fn tokens_are_rated_over_each_sessions_own_span() {
        // Session 0: an 8-token prefill at t=2, then 1-token steps at 3, 4, 5.
        // Session 1: one 96-token prefill replying at t=4; whatever it was
        // doing when the window closed at t=5 is in neither count nor time.
        let sessions = vec![vec![(2.0, 8), (3.0, 1), (4.0, 1), (5.0, 1)], vec![(4.0, 96)]];
        assert_eq!(token_rate(&sessions, 0.0), 11.0 / 5.0 + 96.0 / 4.0);
        assert_eq!(token_rate(&sessions, 1.0), 11.0 / 4.0 + 96.0 / 3.0);
        // A session without replies contributes nothing and divides by nothing.
        assert_eq!(token_rate(&[vec![], vec![(1.0, 3)]], 1.0), 0.0);
    }
}
