//! # parlooper — PARallel LOOP gEneratoR
//!
//! Rust reproduction of the PARLOOPER framework from *"Harnessing Deep
//! Learning and HPC Kernels via High-Level Loop and Tensor Abstractions on
//! CPU Architectures"* (Georganas et al., IPDPS 2024).
//!
//! The user declares *logical* loops with [`LoopSpecs`] and expresses the
//! computation via the logical indices; the concrete loop nest — ordering,
//! multi-level blocking/tiling, and parallelization — is instantiated at
//! runtime from a single knob, the `loop_spec_string`:
//!
//! ```
//! use parlooper::{LoopSpecs, ThreadedLoop};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! // Listing 1: three logical GEMM loops (K, M, N), tiles of 2.
//! let gemm_loop = ThreadedLoop::new(
//!     &[
//!         LoopSpecs::new(0, 8, 2),                      // K-loop "a"
//!         LoopSpecs::blocked(0, 8, 2, vec![8, 4]),      // M-loop "b"
//!         LoopSpecs::blocked(0, 8, 2, vec![4]),         // N-loop "c"
//!     ],
//!     "bcaBCb", // order/blocking/parallelism, changeable with zero code edits
//! )
//! .unwrap();
//!
//! let tiles = AtomicUsize::new(0);
//! gemm_loop.run(|ind| {
//!     let (_ik, _im, _in) = (ind[0], ind[1], ind[2]);
//!     tiles.fetch_add(1, Ordering::Relaxed);
//! });
//! assert_eq!(tiles.load(Ordering::Relaxed), 4 * 4 * 4);
//! ```
//!
//! The paper's C++ POC JIT-compiles the requested nest; here the spec
//! compiles to a cached [`plan::LoopPlan`] executed by a generic walker at
//! TPP-tile granularity, which amortizes the walk as the JIT amortizes
//! its dispatch.

pub mod cache;
pub mod plan;
pub mod spec;

pub use cache::{stats as plan_cache_stats, PlanCacheStats};
pub use plan::LoopPlan;
pub use spec::{LoopSpecs, Schedule, SpecError};

use pl_runtime::{global_pool, ThreadPool, WorkerCtx};
use plan::WorkQueues;
use std::sync::Arc;

/// A declared logical loop nest, ready to be instantiated and run.
///
/// Mirrors the paper's `ThreadedLoop<N>` object (Listing 1, line 5): cheap
/// to construct (plans are cached), reusable, and runnable with different
/// bodies.
#[derive(Clone)]
pub struct ThreadedLoop {
    plan: Arc<LoopPlan>,
}

/// One in-flight execution of a [`ThreadedLoop`] by a team (see
/// [`ThreadedLoop::begin`]): the plan plus the dynamic-schedule queues the
/// members share.
pub struct LoopRun {
    plan: Arc<LoopPlan>,
    queues: WorkQueues,
}

impl LoopRun {
    /// This member's share of the nest. Every member of the team the run
    /// was begun for must call it exactly once (spec `|` barriers are
    /// team-wide). `body` runs on the calling thread only. A nest with no
    /// parallel level runs its body on member 0 alone; the other members
    /// only walk it, to meet its barriers.
    pub fn member(&self, ctx: &WorkerCtx, body: &dyn Fn(&[usize])) {
        self.plan.execute_member(ctx, &self.queues, body);
    }
}

impl ThreadedLoop {
    /// Declares a nest of `specs.len()` logical loops (mnemonics `a`, `b`,
    /// ... in order) instantiated according to `loop_spec_string`.
    pub fn new(specs: &[LoopSpecs], loop_spec_string: &str) -> Result<Self, SpecError> {
        Ok(ThreadedLoop { plan: cache::get_or_build(specs, loop_spec_string)? })
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Arc<LoopPlan> {
        &self.plan
    }

    /// Runs `body` over the nest on the global thread pool.
    ///
    /// `body` receives the logical indices in declaration order
    /// (`ind[0]` = loop `a`, ...).
    ///
    /// # Panics
    /// Panics if the spec's thread grid does not match the pool size.
    pub fn run(&self, body: impl Fn(&[usize]) + Send + Sync) {
        self.try_run_on(global_pool(), body).unwrap();
    }

    /// Runs on an explicit pool.
    ///
    /// # Panics
    /// Panics if the spec's thread grid does not match the pool size.
    pub fn run_on(&self, pool: &ThreadPool, body: impl Fn(&[usize]) + Send + Sync) {
        self.try_run_on(pool, body).unwrap();
    }

    /// Fallible variant of [`Self::run_on`].
    pub fn try_run_on(
        &self,
        pool: &ThreadPool,
        body: impl Fn(&[usize]) + Send + Sync,
    ) -> Result<(), SpecError> {
        self.try_run_full(pool, None, &body, None)
    }

    /// Full form with the paper's optional `init_func` / `term_func`
    /// (§II-C): both run once per team thread, before/after the nest.
    pub fn try_run_full(
        &self,
        pool: &ThreadPool,
        init: Option<&(dyn Fn() + Sync)>,
        body: &(dyn Fn(&[usize]) + Send + Sync),
        term: Option<&(dyn Fn() + Sync)>,
    ) -> Result<(), SpecError> {
        let run = self.begin(pool.nthreads())?;
        pool.parallel(|ctx| {
            if let Some(f) = init {
                f();
            }
            run.member(ctx, body);
            if let Some(f) = term {
                f();
            }
        });
        Ok(())
    }

    /// Starts one execution of the nest by a team of `team` threads that
    /// is **already inside** a parallel region: build the [`LoopRun`] once
    /// (outside the region, or before the phase that uses it), then have
    /// every member call [`LoopRun::member`]. This is how a chain of nests
    /// shares one region — the paper's fused Fig. 3 MLP — with
    /// [`WorkerCtx::barrier`] between dependent nests. A run is single-use.
    pub fn begin(&self, team: usize) -> Result<LoopRun, SpecError> {
        self.plan.check_team(team)?;
        Ok(LoopRun { plan: Arc::clone(&self.plan), queues: WorkQueues::new(&self.plan) })
    }

    /// Simulates the schedule for a virtual team of `nthreads`: per-thread
    /// chronological lists of body-index tuples. This feeds the performance
    /// model (paper §II-E) without executing any computation.
    pub fn simulate(&self, nthreads: usize) -> Vec<Vec<Vec<usize>>> {
        (0..nthreads).map(|tid| self.plan.simulate_member(tid, nthreads)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_runtime::ThreadPool;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn coverage(specs: &[LoopSpecs], spec: &str, pool: &ThreadPool) -> HashMap<Vec<usize>, usize> {
        let tl = ThreadedLoop::new(specs, spec).unwrap();
        let seen = Mutex::new(HashMap::new());
        tl.run_on(pool, |ind| {
            *seen.lock().unwrap().entry(ind.to_vec()).or_insert(0) += 1;
        });
        seen.into_inner().unwrap()
    }

    fn expected_tiles(specs: &[LoopSpecs]) -> usize {
        specs.iter().map(|s| s.trip_count()).product()
    }

    #[test]
    fn sequential_specs_cover_each_tile_once() {
        let pool = ThreadPool::new(3);
        let specs = vec![LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 6, 2), LoopSpecs::new(0, 4, 2)];
        for spec in ["abc", "cba", "bca", "acb"] {
            let cov = coverage(&specs, spec, &pool);
            assert_eq!(cov.len(), expected_tiles(&specs), "spec {spec}");
            assert!(cov.values().all(|&c| c == 1), "run once, by member 0: {spec}");
        }
    }

    #[test]
    fn blocked_specs_cover_each_tile_once() {
        let pool = ThreadPool::new(2);
        let specs = vec![
            LoopSpecs::blocked(0, 16, 2, vec![8, 4]),
            LoopSpecs::blocked(0, 12, 2, vec![6]),
            LoopSpecs::new(0, 8, 2),
        ];
        // a blocked (up to) twice, b blocked once.
        for spec in ["aabbc", "bacba", "abcab"] {
            let cov = coverage(&specs, spec, &pool);
            assert_eq!(cov.len(), expected_tiles(&specs), "spec {spec}");
        }
    }

    #[test]
    fn parallel_collapse_covers_space_exactly_once() {
        let pool = ThreadPool::new(4);
        let specs = vec![
            LoopSpecs::new(0, 8, 2),
            LoopSpecs::blocked(0, 16, 2, vec![8, 4]),
            LoopSpecs::blocked(0, 8, 2, vec![4]),
        ];
        for spec in ["aBCb", "BCab", "bcaBCb @ schedule(dynamic,1)", "ABCb"] {
            // "ABCb": the whole (a,b,c) prefix is one collapse group.
            let tl = ThreadedLoop::new(&specs, spec).unwrap();
            let seen = Mutex::new(HashMap::new());
            tl.run_on(&pool, |ind| {
                *seen.lock().unwrap().entry(ind.to_vec()).or_insert(0) += 1;
            });
            let cov = seen.into_inner().unwrap();
            assert_eq!(cov.len(), expected_tiles(&specs), "spec {spec}");
            assert!(cov.values().all(|&c| c == 1), "distributed exactly once: {spec}");
        }
    }

    #[test]
    fn partial_edge_blocks_are_covered() {
        // 10 is not divisible by the blocking 4: edge blocks of 2.
        let pool = ThreadPool::new(2);
        let specs = vec![LoopSpecs::blocked(0, 10, 2, vec![4]), LoopSpecs::new(0, 6, 3)];
        let cov = coverage(&specs, "ab", &pool);
        assert_eq!(cov.len(), 5 * 2);
        let cov2 = coverage(&specs, "aba", &pool);
        assert_eq!(cov2.len(), 5 * 2);
    }

    #[test]
    fn grid_mode_matches_listing3_shape() {
        let pool = ThreadPool::new(4);
        let specs = vec![
            LoopSpecs::new(0, 8, 2),
            LoopSpecs::blocked(0, 8, 2, vec![4, 2]),
            LoopSpecs::blocked(0, 8, 2, vec![4]),
        ];
        let tl = ThreadedLoop::new(&specs, "bC{R:2}aB{C:2}cb").unwrap();
        let seen = Mutex::new(HashMap::new());
        tl.run_on(&pool, |ind| {
            *seen.lock().unwrap().entry(ind.to_vec()).or_insert(0) += 1;
        });
        let cov = seen.into_inner().unwrap();
        assert_eq!(cov.len(), 4 * 4 * 4);
        assert!(cov.values().all(|&c| c == 1));
    }

    #[test]
    fn grid_size_mismatch_is_reported() {
        let pool = ThreadPool::new(3);
        let specs = vec![LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2)];
        let tl = ThreadedLoop::new(&specs, "A{R:4}b").unwrap();
        let err = tl.try_run_on(&pool, |_| {}).unwrap_err();
        assert_eq!(err, SpecError::GridSizeMismatch { grid: 4, team: 3 });
    }

    #[test]
    fn validation_errors_surface() {
        let specs = vec![LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2)];
        // b blocked but no blocking steps.
        assert!(matches!(
            ThreadedLoop::new(&specs, "abcb"),
            Err(SpecError::MissingBlockSteps { .. })
        ));
        // Non-consecutive uppercase.
        assert!(matches!(ThreadedLoop::new(&specs, "AbC"), Err(SpecError::NonConsecutiveParallel)));
        // Missing loop letter.
        assert!(matches!(ThreadedLoop::new(&specs, "ab"), Err(SpecError::UnknownLoop('c', 3))));
        // Imperfect nesting.
        let bad = vec![
            LoopSpecs::blocked(0, 12, 2, vec![5]),
            LoopSpecs::new(0, 4, 2),
            LoopSpecs::new(0, 4, 2),
        ];
        assert!(matches!(ThreadedLoop::new(&bad, "aabc"), Err(SpecError::ImperfectNesting { .. })));
    }

    #[test]
    fn barrier_sequences_execute() {
        let pool = ThreadPool::new(4);
        let specs = vec![LoopSpecs::new(0, 4, 1), LoopSpecs::new(0, 4, 1)];
        // Barrier after the outer sequential loop level.
        let tl = ThreadedLoop::new(&specs, "a|b").unwrap();
        let count = AtomicUsize::new(0);
        tl.run_on(&pool, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16); // member 0 only; all meet the barrier
    }

    #[test]
    fn dependent_nests_share_one_region() {
        // Nest 2 reads what nest 1 wrote: legal inside a single region
        // with a team barrier between the two in-team runs.
        let pool = ThreadPool::new(4);
        let tl = ThreadedLoop::new(&[LoopSpecs::new(0, 64, 1)], "A").unwrap();
        let dynamic = ThreadedLoop::new(&[LoopSpecs::new(0, 64, 1)], "A @ schedule(dynamic,3)");
        let dynamic = dynamic.unwrap();
        let squares: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let sum = AtomicUsize::new(0);
        let (first, second) = (tl.begin(4).unwrap(), dynamic.begin(4).unwrap());
        pool.parallel(|ctx| {
            first.member(ctx, &|ind| squares[ind[0]].store(ind[0] * ind[0], Ordering::Relaxed));
            ctx.barrier();
            second.member(ctx, &|ind| {
                sum.fetch_add(squares[63 - ind[0]].load(Ordering::Relaxed), Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..64).map(|i| i * i).sum::<usize>());
        // Grid specs still validate the team size up front.
        let grid = ThreadedLoop::new(&[LoopSpecs::new(0, 8, 2)], "A{R:3}").unwrap();
        assert!(matches!(grid.begin(4), Err(SpecError::GridSizeMismatch { grid: 3, team: 4 })));
    }

    #[test]
    fn barrier_below_parallel_is_rejected() {
        let specs = vec![LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2)];
        assert!(matches!(ThreadedLoop::new(&specs, "Ab|"), Err(SpecError::BarrierBelowParallel)));
    }

    #[test]
    fn init_and_term_run_per_thread() {
        let pool = ThreadPool::new(3);
        let specs = vec![LoopSpecs::new(0, 3, 1)];
        let tl = ThreadedLoop::new(&specs, "A").unwrap();
        let inits = AtomicUsize::new(0);
        let terms = AtomicUsize::new(0);
        tl.try_run_full(
            &pool,
            Some(&|| {
                inits.fetch_add(1, Ordering::Relaxed);
            }),
            &|_| {},
            Some(&|| {
                terms.fetch_add(1, Ordering::Relaxed);
            }),
        )
        .unwrap();
        assert_eq!(inits.load(Ordering::Relaxed), 3);
        assert_eq!(terms.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn simulation_matches_execution_for_static_schedules() {
        let pool = ThreadPool::new(4);
        let specs = vec![
            LoopSpecs::new(0, 8, 2),
            LoopSpecs::blocked(0, 16, 4, vec![8]),
            LoopSpecs::new(0, 8, 4),
        ];
        for spec in ["aBCb", "baBC"] {
            let tl = ThreadedLoop::new(&specs, spec).unwrap();
            let sim = tl.simulate(4);
            // The executor does not expose the member id, so compare the
            // multiset of visited tiles with the simulated schedule's.
            let all = Mutex::new(Vec::new());
            tl.run_on(&pool, |ind| {
                all.lock().unwrap().push(ind.to_vec());
            });
            let mut got = all.into_inner().unwrap();
            let mut want: Vec<Vec<usize>> = sim.into_iter().flatten().collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "spec {spec}");
        }
    }

    #[test]
    fn simulate_single_thread_preserves_nesting_order() {
        let specs = vec![LoopSpecs::new(0, 4, 2), LoopSpecs::new(0, 4, 2)];
        let tl = ThreadedLoop::new(&specs, "ab").unwrap();
        let sim = tl.simulate(1);
        assert_eq!(sim[0], vec![vec![0, 0], vec![0, 2], vec![2, 0], vec![2, 2]]);
        let tl2 = ThreadedLoop::new(&specs, "ba").unwrap();
        assert_eq!(tl2.simulate(1)[0], vec![vec![0, 0], vec![2, 0], vec![0, 2], vec![2, 2]]);
    }

    #[test]
    fn listing2_order_bca_bcb_string() {
        // Verify the nesting order of Listing 2: b0, c0, a0 sequential,
        // then (b1, c1) collapsed, then b2. With one thread the traversal
        // order is fully deterministic.
        let specs = vec![
            LoopSpecs::new(0, 2, 1),                 // a: K
            LoopSpecs::blocked(0, 4, 1, vec![2, 1]), // b: M (blocked twice)
            LoopSpecs::blocked(0, 2, 1, vec![1]),    // c: N (blocked once)
        ];
        let tl = ThreadedLoop::new(&specs, "bcaBCb").unwrap();
        let sim = tl.simulate(1);
        let first = &sim[0][0];
        assert_eq!(first, &vec![0, 0, 0]);
        // a (ind[0]) changes slowest among the last three levels, b fastest.
        assert_eq!(sim[0].len(), 2 * 4 * 2);
    }

    #[test]
    fn dynamic_encounters_beyond_one_work() {
        let pool = ThreadPool::new(2);
        // Sequential outer a -> multiple worksharing encounters.
        let specs = vec![LoopSpecs::new(0, 6, 1), LoopSpecs::new(0, 8, 1)];
        let tl = ThreadedLoop::new(&specs, "aB @ schedule(dynamic,2)").unwrap();
        let seen = Mutex::new(HashMap::new());
        tl.run_on(&pool, |ind| {
            *seen.lock().unwrap().entry(ind.to_vec()).or_insert(0) += 1;
        });
        let cov = seen.into_inner().unwrap();
        assert_eq!(cov.len(), 48);
        assert!(cov.values().all(|&c| c == 1));
    }
}
