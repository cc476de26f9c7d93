//! Least-loaded placement of new sessions over shards.
//!
//! The same pull-based philosophy as the paper's PAR-MODE dynamic
//! schedule, one level further up: work (a session) goes wherever
//! capacity is, decided at admission time. After placement the session is
//! *affine*: its KV cache lives in the shard's memory for the session's
//! whole life, and moving it would cost more than any rebalancing could
//! win at decode timescales.
//!
//! Load is the only input: every shard is a candidate, and a shard at its
//! session cap is skipped by the router when it refuses the session.

/// One shard's load sample at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Live sessions on the shard.
    pub live_sessions: usize,
    /// Decode steps queued but not yet executed.
    pub queue_depth: usize,
}

impl ShardLoad {
    /// The scalar placement key: sessions + queued steps. Both terms
    /// matter — sessions predict future load (each will keep stepping),
    /// queue depth measures present congestion.
    fn score(&self) -> usize {
        self.live_sessions + self.queue_depth
    }
}

/// Placement-ordered candidate list: every shard, sorted by ascending
/// load score (sessions + queued steps), ties broken by lowest shard
/// index (so placement is deterministic and the first shards fill first
/// at equal load). The router tries candidates in order until one admits
/// the session.
pub fn placement_order(loads: &[ShardLoad]) -> Vec<usize> {
    let mut candidates: Vec<&ShardLoad> = loads.iter().collect();
    candidates.sort_by_key(|l| (l.score(), l.shard));
    candidates.into_iter().map(|l| l.shard).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shard: usize, live: usize, queued: usize) -> ShardLoad {
        ShardLoad { shard, live_sessions: live, queue_depth: queued }
    }

    #[test]
    fn picks_smallest_combined_load() {
        let loads = [load(0, 3, 0), load(1, 1, 1), load(2, 1, 4)];
        assert_eq!(placement_order(&loads)[0], 1);
        // Queue depth counts: shard 0 has fewer sessions but a deep queue.
        let loads = [load(0, 1, 9), load(1, 3, 0)];
        assert_eq!(placement_order(&loads)[0], 1);
    }

    #[test]
    fn ties_break_to_lowest_index() {
        let loads = [load(2, 1, 0), load(0, 1, 0), load(1, 1, 0)];
        assert_eq!(placement_order(&loads), vec![0, 1, 2]);
    }

    #[test]
    fn order_is_ascending_by_score() {
        let loads = [load(0, 4, 4), load(1, 0, 1), load(2, 2, 0)];
        assert_eq!(placement_order(&loads), vec![1, 2, 0]);
    }
}
