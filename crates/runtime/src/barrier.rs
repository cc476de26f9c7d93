//! The team barrier behind [`crate::WorkerCtx::barrier`].
//!
//! A sense-reversing (generation-counting) barrier with a three-stage
//! wait: **spin** for [`SPIN_NS`] (the common case — team members finish a
//! statically partitioned phase within microseconds of each other, and a
//! parked hand-off through the OS costs tens of microseconds), then
//! **yield** until [`YIELD_NS`] (an oversubscribed host lets the straggler
//! run), then **park** on a condvar (a long imbalance — one member running
//! a serial phase — must not burn a core). Both budgets are constants, not
//! knobs: they bound the CPU a waiter may burn per crossing, and nothing
//! above this module can observe which stage released it.
//!
//! **Poisoning.** A region member that panics between two barriers would
//! leave its team-mates waiting forever. The pool therefore calls
//! [`TeamBarrier::poison`] when a member unwinds; every current and future
//! waiter then panics too, the region joins, and
//! [`crate::ThreadPool::parallel`] re-raises the *original* panic on the
//! caller.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Busy-wait budget of one crossing before yielding.
const SPIN_NS: u128 = 20_000;
/// Total (spin + yield) budget of one crossing before parking.
const YIELD_NS: u128 = 200_000;

pub(crate) struct TeamBarrier {
    team: usize,
    /// Arrivals of the current generation.
    arrived: AtomicUsize,
    /// Bumped by the last arriver; waiters watch it change.
    generation: AtomicUsize,
    poisoned: AtomicBool,
    /// Members blocked on `wake` (or about to be).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl TeamBarrier {
    pub(crate) fn new(team: usize) -> Self {
        TeamBarrier {
            team,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all `team` members have called `wait`.
    ///
    /// # Panics
    /// Panics if the barrier is (or becomes) poisoned.
    pub(crate) fn wait(&self) {
        if self.team > 1 {
            let gen = self.generation.load(Ordering::Acquire);
            // AcqRel: the last arriver acquires every earlier member's
            // phase writes; its generation bump (SeqCst, below) publishes
            // them to the waiters' acquiring loads.
            if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.team {
                self.arrived.store(0, Ordering::Relaxed);
                self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
                self.wake_sleepers();
            } else {
                self.wait_for(gen);
            }
        }
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "team barrier poisoned by a panicking member"
        );
    }

    /// Marks the barrier broken and releases every waiter (which then
    /// panics in [`TeamBarrier::wait`]).
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_sleepers();
    }

    fn released(&self, gen: usize) -> bool {
        self.generation.load(Ordering::SeqCst) != gen || self.poisoned.load(Ordering::SeqCst)
    }

    fn wait_for(&self, gen: usize) {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if self.released(gen) {
                return;
            }
            spins = spins.wrapping_add(1);
            // The clock is read every 64th probe: a probe is a load, the
            // clock a vDSO call.
            if !spins.is_multiple_of(64) {
                std::hint::spin_loop();
                continue;
            }
            let waited = start.elapsed().as_nanos();
            if waited >= YIELD_NS {
                break;
            }
            if waited >= SPIN_NS {
                std::thread::yield_now();
            }
        }
        // Park. `sleepers` is raised (SeqCst) before the re-check and the
        // releaser reads it (SeqCst) after its store, so either this
        // thread sees the release or the releaser sees the sleeper and
        // takes the lock to notify — no lost wake-up.
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !self.released(gen) {
            guard = self.wake.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify after the sleeper's
            // re-check-then-wait, which happens under the same lock.
            let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_all();
        }
    }
}
