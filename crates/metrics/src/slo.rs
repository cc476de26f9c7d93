//! Rolling-window SLO tracking.
//!
//! An [`SloWindow`] holds a latency target and a ring of per-second
//! slots over the last N seconds; each slot counts observations and how
//! many exceeded the target. From those it answers the operator
//! question *what fraction of recent requests violated the target*,
//! expressed as a **burn rate** against a 1% error budget — burn ≥ 1.0
//! means the budget is being spent as fast as it accrues.
//!
//! Time is injectable: the serving hot path calls [`SloWindow::record`]
//! (internal monotonic clock), tests call its private `record_at` /
//! `burn_rate_at` twins with explicit milliseconds to drive the
//! window deterministically.

use std::sync::Mutex;
use std::time::Instant;

/// Fraction of requests allowed over target — the error budget burn
/// rates are normalised against (1%: matching a "p99 under target"
/// objective).
pub const ERROR_BUDGET: f64 = 0.01;

/// Rolling window length (seconds) the serving layer tracks its SLOs
/// over.
pub const SLO_WINDOW_S: u64 = 60;

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Which absolute second this slot currently holds (u64::MAX =
    /// never written).
    sec: u64,
    total: u64,
    over: u64,
}

/// A rolling per-second window tracking a latency target. Interior
/// mutability (one mutex over the ring) so the server can share it
/// behind an `Arc` between the pump thread and scrapers; the critical
/// section is a few adds.
#[derive(Debug)]
pub struct SloWindow {
    target_us: u64,
    epoch: Instant,
    /// One slot per second of the window.
    slots: Mutex<Vec<Slot>>,
}

impl SloWindow {
    /// A window targeting `target_us` over the last `window_s` seconds
    /// (clamped to ≥ 1).
    pub fn new(target_us: u64, window_s: u64) -> Self {
        let empty = Slot { sec: u64::MAX, total: 0, over: 0 };
        SloWindow {
            target_us,
            epoch: Instant::now(),
            slots: Mutex::new(vec![empty; window_s.max(1) as usize]),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Records one latency observation at the internal clock's now.
    pub fn record(&self, us: u64) {
        self.record_at(self.now_ms(), us);
    }

    /// Records one latency observation at explicit time `ms` since the
    /// window's epoch — the deterministic injection point for tests.
    fn record_at(&self, ms: u64, us: u64) {
        let sec = ms / 1000;
        let mut slots = self.slots.lock().unwrap();
        let n = slots.len() as u64;
        let slot = &mut slots[(sec % n) as usize];
        if slot.sec != sec {
            *slot = Slot { sec, total: 0, over: 0 };
        }
        slot.total += 1;
        slot.over += u64::from(us > self.target_us);
    }

    /// `(total, over_target)` across slots still inside the window
    /// ending at `ms`.
    fn window_at(&self, ms: u64) -> (u64, u64) {
        let now_sec = ms / 1000;
        let slots = self.slots.lock().unwrap();
        let oldest = now_sec.saturating_sub(slots.len() as u64 - 1);
        slots
            .iter()
            .filter(|slot| slot.sec != u64::MAX && slot.sec >= oldest && slot.sec <= now_sec)
            .fold((0, 0), |(total, over), slot| (total + slot.total, over + slot.over))
    }

    /// Burn rate at explicit time `ms`: the windowed violation fraction
    /// divided by [`ERROR_BUDGET`]. 0.0 when the window is empty; 1.0
    /// means the error budget is being consumed exactly as fast as it
    /// accrues; > 1.0 means the SLO is burning down.
    fn burn_rate_at(&self, ms: u64) -> f64 {
        let (total, over) = self.window_at(ms);
        if total == 0 {
            return 0.0;
        }
        (over as f64 / total as f64) / ERROR_BUDGET
    }

    /// Burn rate at the internal clock's now.
    pub fn burn_rate(&self) -> f64 {
        self.burn_rate_at(self.now_ms())
    }

    /// Windowed observation count at the internal clock's now.
    pub fn observations(&self) -> u64 {
        self.window_at(self.now_ms()).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_burns_nothing() {
        let w = SloWindow::new(1000, 10);
        assert_eq!(w.burn_rate_at(0), 0.0);
    }

    #[test]
    fn violations_divide_by_the_error_budget() {
        let w = SloWindow::new(1000, 10);
        // 99 in-target + 1 over: exactly the 1% budget -> burn 1.0.
        for _ in 0..99 {
            w.record_at(500, 100);
        }
        w.record_at(500, 5000);
        assert!((w.burn_rate_at(900) - 1.0).abs() < 1e-9);
        // All over target -> burn 100x.
        let hot = SloWindow::new(1000, 10);
        for _ in 0..10 {
            hot.record_at(0, 9999);
        }
        assert!((hot.burn_rate_at(0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn old_slots_age_out_of_the_window() {
        let w = SloWindow::new(1000, 5);
        for _ in 0..50 {
            w.record_at(1000, 9999); // second 1, all violations
        }
        assert!(w.burn_rate_at(1000) > 1.0);
        // 5 seconds later the window has slid past second 1.
        assert_eq!(w.burn_rate_at(6500), 0.0);
        // New traffic in the fresh window dominates.
        w.record_at(7000, 10);
        assert_eq!(w.burn_rate_at(7000), 0.0);
    }

    #[test]
    fn ring_reuse_resets_stale_slots() {
        let w = SloWindow::new(1000, 2);
        w.record_at(0, 5000); // second 0 -> slot 0
        w.record_at(2000, 10); // second 2 -> same slot 0, must reset
        let (total, over) = w.window_at(2500);
        assert_eq!((total, over), (1, 0), "stale second-0 data must not leak");
    }

    #[test]
    fn windowed_p99_recomputes_from_summed_buckets() {
        // The window sums its seconds: 99 observations in second 0 and
        // one in second 1 are 100 in the window.
        let w = SloWindow::new(1_000_000, 10);
        for _ in 0..99 {
            w.record_at(100, 3);
        }
        w.record_at(1100, 1_000_000);
        assert_eq!(w.observations_at_test(1500), 100);
    }

    impl SloWindow {
        fn observations_at_test(&self, ms: u64) -> u64 {
            self.window_at(ms).0
        }
    }
}
