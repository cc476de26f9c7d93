//! Shard health: the state machine placement consumes.
//!
//! [`Health`] is the operator-facing summary of one serving shard;
//! [`HealthTracker`] derives it from an SLO burn rate and a watchdog
//! verdict, with a hysteresis band (enter `Degraded` at burn ≥ 1.0,
//! recover only once burn falls to ≤ 0.5) so a shard hovering at the
//! threshold does not flap in and out of new-session placement.

use std::sync::atomic::{AtomicBool, Ordering};

/// Health of one serving shard. Ordering reflects severity; the numeric
/// value is what the `pl_shard_health` gauge exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Health {
    /// Serving normally; eligible for new-session placement.
    Healthy,
    /// SLO burn over threshold; existing sessions keep stepping, new
    /// sessions are placed elsewhere.
    Degraded,
    /// Watchdog fired: work pending but no batch collected for the
    /// deadline.
    Stalled,
}

impl Health {
    /// Whether a shard in this state accepts **new** sessions.
    pub fn placeable(self) -> bool {
        matches!(self, Health::Healthy)
    }

    /// Gauge encoding (0 healthy, 1 degraded, 3 stalled).
    pub fn as_f64(self) -> f64 {
        match self {
            Health::Healthy => 0.0,
            Health::Degraded => 1.0,
            Health::Stalled => 3.0,
        }
    }

    /// Lower-case name for logs and label values.
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Stalled => "stalled",
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Default burn rate at which a shard enters `Degraded`.
pub const DEFAULT_ENTER_BURN: f64 = 1.0;
/// Default burn rate a degraded shard must fall to before recovering.
pub const DEFAULT_EXIT_BURN: f64 = 0.5;

/// Derives [`Health`] from (burn rate, stalled) with hysteresis. The
/// tracker remembers only whether it is currently degraded; a stalled
/// verdict overrides everything and does not disturb the degraded latch
/// (a shard can come out of a stall still degraded).
#[derive(Debug)]
pub struct HealthTracker {
    enter_burn: f64,
    exit_burn: f64,
    degraded: AtomicBool,
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new(DEFAULT_ENTER_BURN, DEFAULT_EXIT_BURN)
    }
}

impl HealthTracker {
    /// A tracker entering `Degraded` at `enter_burn` and recovering at
    /// `exit_burn` (asserts `exit_burn <= enter_burn` — an inverted
    /// band would flap by construction).
    pub fn new(enter_burn: f64, exit_burn: f64) -> Self {
        assert!(
            exit_burn <= enter_burn,
            "hysteresis band inverted: exit {exit_burn} > enter {enter_burn}"
        );
        HealthTracker { enter_burn, exit_burn, degraded: AtomicBool::new(false) }
    }

    /// Folds one evaluation in and returns the current health.
    pub fn evaluate(&self, burn_rate: f64, stalled: bool) -> Health {
        let was = self.degraded.load(Ordering::Relaxed);
        let now = if was { burn_rate > self.exit_burn } else { burn_rate >= self.enter_burn };
        self.degraded.store(now, Ordering::Relaxed);
        if stalled {
            Health::Stalled
        } else if now {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeability_and_encoding() {
        assert!(Health::Healthy.placeable());
        for h in [Health::Degraded, Health::Stalled] {
            assert!(!h.placeable(), "{h}");
        }
        assert_eq!(Health::Stalled.as_f64(), 3.0);
        assert_eq!(Health::Healthy.to_string(), "healthy");
    }

    #[test]
    fn hysteresis_band_prevents_flapping() {
        let t = HealthTracker::new(1.0, 0.5);
        assert_eq!(t.evaluate(0.9, false), Health::Healthy);
        assert_eq!(t.evaluate(1.0, false), Health::Degraded, "enter at threshold");
        // Hovering inside the band stays degraded — no oscillation.
        assert_eq!(t.evaluate(0.9, false), Health::Degraded);
        assert_eq!(t.evaluate(0.6, false), Health::Degraded);
        assert_eq!(t.evaluate(0.51, false), Health::Degraded);
        // Only a drop to the exit threshold recovers.
        assert_eq!(t.evaluate(0.5, false), Health::Healthy);
        assert_eq!(t.evaluate(0.9, false), Health::Healthy, "below enter stays healthy");
    }

    #[test]
    fn stall_overrides_but_preserves_the_degraded_latch() {
        let t = HealthTracker::new(1.0, 0.5);
        assert_eq!(t.evaluate(5.0, true), Health::Stalled);
        // Stall clears while burn is still inside the band: degraded.
        assert_eq!(t.evaluate(0.7, false), Health::Degraded);
    }

    #[test]
    #[should_panic(expected = "hysteresis band inverted")]
    fn inverted_band_is_rejected() {
        let _ = HealthTracker::new(0.5, 1.0);
    }
}
