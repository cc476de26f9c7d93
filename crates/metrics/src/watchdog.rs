//! The stall watchdog: detects a pump that has stopped making progress
//! while work is queued.
//!
//! The contract: if `pending > 0` and the batch counter has not advanced
//! for `deadline`, something is wedged — report `Stalled`.
//! An **idle** server (`pending == 0`) never fires, no matter how long
//! it sits. Progress (the batch counter advancing) or going idle clears
//! the stall.
//!
//! Time is injectable: [`Watchdog::check`] uses the internal monotonic
//! clock; [`Watchdog::observe`] takes explicit milliseconds for
//! deterministic tests.

use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
struct WatchState {
    /// Whether we are currently timing a pending backlog.
    armed: bool,
    /// When the backlog last made progress (ms on the caller's clock).
    last_progress_ms: u64,
    /// Batch counter at the last observation.
    last_batches: u64,
    /// Latched verdict.
    stalled: bool,
}

/// Stall detector over `(pending, batches)` observations.
#[derive(Debug)]
pub struct Watchdog {
    deadline: Duration,
    epoch: Instant,
    state: Mutex<WatchState>,
}

impl Watchdog {
    /// A watchdog firing when `pending > 0` and no batch completes for
    /// `deadline`.
    pub fn new(deadline: Duration) -> Self {
        Watchdog {
            deadline,
            epoch: Instant::now(),
            state: Mutex::new(WatchState {
                armed: false,
                last_progress_ms: 0,
                last_batches: 0,
                stalled: false,
            }),
        }
    }

    /// Feeds one observation at explicit time `now_ms`: current queue
    /// depth and the cumulative batch counter. Returns whether the pump
    /// is considered stalled as of this observation.
    pub fn observe(&self, now_ms: u64, pending: u64, batches: u64) -> bool {
        let mut s = self.state.lock().unwrap();
        if pending == 0 {
            // Idle-but-empty is healthy by definition.
            s.armed = false;
            s.stalled = false;
            s.last_batches = batches;
            return false;
        }
        if !s.armed {
            s.armed = true;
            s.last_progress_ms = now_ms;
            s.last_batches = batches;
            return s.stalled;
        }
        if batches != s.last_batches {
            s.last_batches = batches;
            s.last_progress_ms = now_ms;
            s.stalled = false;
            return false;
        }
        if now_ms.saturating_sub(s.last_progress_ms) >= self.deadline.as_millis() as u64 {
            s.stalled = true;
        }
        s.stalled
    }

    /// [`Watchdog::observe`] at the internal clock's now.
    pub fn check(&self, pending: u64, batches: u64) -> bool {
        self.observe(self.epoch.elapsed().as_millis() as u64, pending, batches)
    }

    /// The latched verdict from the last observation (no re-evaluation).
    #[cfg(test)]
    fn is_stalled(&self) -> bool {
        self.state.lock().unwrap().stalled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dog(ms: u64) -> Watchdog {
        Watchdog::new(Duration::from_millis(ms))
    }

    #[test]
    fn idle_but_empty_never_fires() {
        let w = dog(100);
        for t in (0..10_000).step_by(500) {
            assert!(!w.observe(t, 0, 0), "idle server must never stall (t={t})");
        }
    }

    #[test]
    fn pending_without_progress_fires_after_the_deadline() {
        let w = dog(100);
        assert!(!w.observe(0, 3, 7), "first pending observation arms, not fires");
        assert!(!w.observe(50, 3, 7), "inside deadline");
        assert!(w.observe(100, 3, 7), "deadline reached with no batch progress");
        assert!(w.is_stalled());
    }

    #[test]
    fn batch_progress_resets_the_deadline_and_clears_the_latch() {
        let w = dog(100);
        assert!(!w.observe(0, 3, 7));
        assert!(w.observe(150, 3, 7), "stalled");
        // A batch completes: stall clears, timer restarts.
        assert!(!w.observe(160, 2, 8));
        assert!(!w.observe(250, 2, 8), "90ms since progress — inside deadline");
        assert!(w.observe(260, 2, 8), "100ms since progress — stalled again");
    }

    #[test]
    fn going_idle_disarms_and_rearms_fresh() {
        let w = dog(100);
        assert!(!w.observe(0, 1, 0));
        assert!(!w.observe(90, 1, 0));
        assert!(!w.observe(95, 0, 1), "drained: disarm");
        // New backlog much later: the old timer must not count.
        assert!(!w.observe(10_000, 1, 1), "re-arm");
        assert!(!w.observe(10_090, 1, 1));
        assert!(w.observe(10_100, 1, 1));
    }

    #[test]
    fn burst_of_observations_at_the_same_instant_does_not_fire() {
        let w = dog(100);
        for _ in 0..100 {
            assert!(!w.observe(5, 4, 2));
        }
    }
}
