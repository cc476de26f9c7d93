//! Least-loaded placement of new sessions over shards.
//!
//! The same pull-based philosophy as the paper's PAR-MODE dynamic
//! schedule, one level further up: work (a session) goes wherever
//! capacity is, decided at admission time. After placement the session is
//! *affine*: its KV cache lives in the shard's memory for the session's
//! whole life, and moving it would cost more than any rebalancing could
//! win at decode timescales.
//!
//! Health feeds placement: a shard whose [`Health`] is not
//! [`Health::Healthy`] — degraded (SLO burn over threshold) or stalled
//! (watchdog) — is excluded from the candidate list. Existing sessions
//! keep stepping on their shard either way; health only gates **new**
//! placements. The degraded state itself carries hysteresis
//! (`pl_metrics::HealthTracker`), so a shard hovering at the burn
//! threshold does not flap in and out of this list.

use pl_metrics::Health;

/// One shard's load sample at placement time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index.
    pub shard: usize,
    /// Live sessions on the shard.
    pub live_sessions: usize,
    /// Decode steps queued but not yet executed.
    pub queue_depth: usize,
    /// Health state derived from the shard's SLO windows and watchdog;
    /// only [`Health::Healthy`] shards take new sessions.
    pub health: Health,
}

impl ShardLoad {
    /// The scalar placement key: sessions + queued steps. Both terms
    /// matter — sessions predict future load (each will keep stepping),
    /// queue depth measures present congestion.
    fn score(&self) -> usize {
        self.live_sessions + self.queue_depth
    }

    /// Whether this shard accepts new sessions.
    pub fn placeable(&self) -> bool {
        self.health.placeable()
    }
}

/// Placement-ordered candidate list: placeable (healthy) shards sorted
/// by ascending load score (sessions + queued steps), ties broken by
/// lowest shard index (so placement is deterministic and the first shards
/// fill first at equal load). The router tries candidates in order until
/// one admits the session.
pub fn placement_order(loads: &[ShardLoad]) -> Vec<usize> {
    let mut candidates: Vec<&ShardLoad> = loads.iter().filter(|l| l.placeable()).collect();
    candidates.sort_by_key(|l| (l.score(), l.shard));
    candidates.into_iter().map(|l| l.shard).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(shard: usize, live: usize, queued: usize) -> ShardLoad {
        ShardLoad { shard, live_sessions: live, queue_depth: queued, health: Health::Healthy }
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
    fn unhealthy_shards_are_excluded() {
        for bad in [Health::Degraded, Health::Stalled] {
            let mut idle = load(0, 0, 0);
            idle.health = bad;
            let loads = [idle, load(1, 5, 2)];
            assert_eq!(placement_order(&loads), vec![1], "idle-but-{bad} shard skipped");
        }
        // Every shard unhealthy: no candidates, admission must fail
        // loudly rather than place onto a degraded shard.
        let mut a = load(0, 0, 0);
        a.health = Health::Degraded;
        let mut b = load(1, 0, 0);
        b.health = Health::Stalled;
        assert!(placement_order(&[a, b]).is_empty());
        assert!(placement_order(&[]).is_empty());
    }

    #[test]
    fn order_is_ascending_by_score() {
        let loads = [load(0, 4, 4), load(1, 0, 1), load(2, 2, 0)];
        assert_eq!(placement_order(&loads), vec![1, 2, 0]);
    }
}
