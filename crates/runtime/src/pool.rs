//! The persistent thread pool and parallel regions.
//!
//! Design notes (following "Rust Atomics and Locks" idioms): each worker
//! owns a lock-free channel endpoint; a parallel region broadcasts one
//! `Arc<Job>` to every worker plus the caller (which participates as thread
//! 0, so an `n`-thread pool spawns `n - 1` OS threads). Completion is a
//! simple atomic countdown with thread parking; panics inside workers are
//! captured with `catch_unwind` and resumed on the caller.
//!
//! [`WorkerCtx::barrier`] (and therefore every loop-string `|`) is a
//! spin-then-yield-then-park barrier with constant budgets: a crossing
//! between balanced phases costs a few cache-line transfers instead of a
//! parked hand-off, which is what lets a whole multi-phase computation
//! (a decoder forward: LN | QKV | attention | FFN per layer) run inside
//! **one** region. A member that panics between two barriers *poisons*
//! the region's barrier: its team-mates unwind out of their waits instead
//! of hanging, and `parallel` re-raises the first panic on the caller.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::barrier::TeamBarrier;

type Job = dyn Fn(&WorkerCtx) + Send + Sync;

/// Per-region shared state: the job, completion countdown, team barrier and
/// the first captured panic.
struct Region {
    job: Arc<Job>,
    barrier: Arc<TeamBarrier>,
    remaining: Arc<AtomicUsize>,
    caller: std::thread::Thread,
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
    nthreads: usize,
}

enum Message {
    Run(Region),
    Shutdown,
}

/// Execution context handed to the region closure on each team thread.
pub struct WorkerCtx {
    tid: usize,
    nthreads: usize,
    barrier: Arc<TeamBarrier>,
}

impl WorkerCtx {
    /// This thread's id within the team (`0..nthreads`).
    #[inline(always)]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size of the current region.
    #[inline(always)]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Team-wide barrier (all `nthreads` threads must call it). Waiters
    /// spin briefly, then yield, then park (see the module docs).
    ///
    /// # Panics
    /// Panics if another member of the region panicked: the barrier is
    /// poisoned so no waiter is left behind.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

thread_local! {
    /// Set while a thread executes inside a parallel region, to serialize
    /// nested regions (OpenMP default: nesting disabled).
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// A persistent team of worker threads executing parallel regions.
pub struct ThreadPool {
    senders: Vec<Sender<Message>>,
    handles: Vec<JoinHandle<()>>,
    nthreads: usize,
    /// Serializes concurrent regions dispatched from different user threads;
    /// interleaved broadcasts would cross-wire the per-region barriers.
    dispatch: Mutex<()>,
}

impl ThreadPool {
    /// Creates a pool with `nthreads` total team members (the calling thread
    /// participates, so `nthreads - 1` OS threads are spawned).
    ///
    /// # Panics
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "thread pool needs at least one thread");
        let mut senders = Vec::with_capacity(nthreads.saturating_sub(1));
        let mut handles = Vec::with_capacity(nthreads.saturating_sub(1));
        for tid in 1..nthreads {
            let (tx, rx) = channel::<Message>();
            senders.push(tx);
            let handle = std::thread::Builder::new()
                .name(format!("pl-worker-{tid}"))
                .spawn(move || {
                    while let Ok(msg) = rx.recv() {
                        match msg {
                            Message::Shutdown => break,
                            Message::Run(region) => run_region_member(region, tid),
                        }
                    }
                })
                .expect("failed to spawn pool worker");
            handles.push(handle);
        }
        ThreadPool { senders, handles, nthreads, dispatch: Mutex::new(()) }
    }

    /// Team size.
    #[inline(always)]
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Executes `f` once on every team thread (a parallel region) and waits
    /// for all of them. Panics raised inside any team thread are re-raised
    /// here after the region completes.
    ///
    /// Called from inside another region, this runs `f` serially with a
    /// single-thread context instead (nesting disabled).
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(&WorkerCtx) + Send + Sync,
    {
        if IN_PARALLEL.with(|c| c.get()) {
            let ctx = WorkerCtx { tid: 0, nthreads: 1, barrier: Arc::new(TeamBarrier::new(1)) };
            f(&ctx);
            return;
        }

        // Covers dispatch-lock wait + broadcast + the whole team's work;
        // nested (serialized) calls above are inside the caller's spans
        // already and record nothing extra.
        let _region_span = pl_trace::span("pool.region", [self.nthreads as u64, 0, 0]);
        // Held while a member's panic is re-raised below, so every caught
        // region panic poisons it; the next region must still run.
        let _guard = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);

        let barrier = Arc::new(TeamBarrier::new(self.nthreads));
        let remaining = Arc::new(AtomicUsize::new(self.nthreads));
        let panic_slot: Arc<Mutex<Option<Box<dyn Any + Send>>>> = Arc::new(Mutex::new(None));

        // Lifetime erasure by promise-of-join (the classic scoped-pool
        // trick, same as rayon's `Scope`): every team member drops its clone
        // of the job Arc *before* decrementing `remaining`, and the caller
        // only returns once `remaining == 0`. Therefore no reference to `f`
        // (nor the closure value embedding it) outlives this call frame.
        let f_ref: &(dyn Fn(&WorkerCtx) + Send + Sync) = &f;
        // SAFETY: see the join argument above.
        let f_static: &'static (dyn Fn(&WorkerCtx) + Send + Sync) =
            unsafe { std::mem::transmute(f_ref) };
        let job: Arc<Job> = Arc::new(move |ctx: &WorkerCtx| f_static(ctx));

        for (i, tx) in self.senders.iter().enumerate() {
            let region = Region {
                job: Arc::clone(&job),
                barrier: Arc::clone(&barrier),
                remaining: Arc::clone(&remaining),
                caller: std::thread::current(),
                panic: Arc::clone(&panic_slot),
                nthreads: self.nthreads,
            };
            tx.send(Message::Run(region)).unwrap_or_else(|_| panic!("pool worker {} died", i + 1));
        }

        // The caller is team member 0.
        let region0 = Region {
            job,
            barrier,
            remaining: Arc::clone(&remaining),
            caller: std::thread::current(),
            panic: Arc::clone(&panic_slot),
            nthreads: self.nthreads,
        };
        run_region_member(region0, 0);

        // Wait for the rest of the team.
        while remaining.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }

        let captured = panic_slot.lock().expect("region panic slot poisoned").take();
        if let Some(p) = captured {
            resume_unwind(p);
        }
    }
}

fn run_region_member(region: Region, tid: usize) {
    let Region { job, barrier, remaining, caller, panic, nthreads } = region;
    let ctx = WorkerCtx { tid, nthreads, barrier: Arc::clone(&barrier) };
    // One span per team member per region: the occupancy view — on a
    // trace timeline, gaps between a lane's `pool.worker` spans are
    // time that thread sat idle while the region's stragglers finished.
    let _member_span = pl_trace::span("pool.worker", [tid as u64, nthreads as u64, 0]);
    IN_PARALLEL.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| (job)(&ctx)));
    IN_PARALLEL.with(|c| c.set(false));
    // Drop this member's clone of the erased job *before* signaling: the
    // caller may deallocate the captured environment right after the last
    // decrement (see the safety argument in `parallel`).
    drop(job);
    if let Err(p) = result {
        {
            let mut slot = panic.lock().expect("region panic slot poisoned");
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        // Recorded first, so the panics this provokes in team-mates
        // blocked on the barrier never displace the original.
        barrier.poison();
    }
    // Release ordering publishes the job's effects to the caller.
    if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        caller.unpark();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Message::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Default team size: `PL_NUM_THREADS` env var, else available parallelism.
pub fn default_threads() -> usize {
    std::env::var("PL_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Process-wide shared pool, sized by [`default_threads`].
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_threads_run_once() {
        let pool = ThreadPool::new(4);
        let count = AtomicUsize::new(0);
        let seen = Mutex::new(Vec::new());
        pool.parallel(|ctx| {
            count.fetch_add(1, Ordering::Relaxed);
            seen.lock().unwrap().push(ctx.tid());
            assert_eq!(ctx.nthreads(), 4);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
        let mut tids = seen.into_inner().unwrap();
        tids.sort_unstable();
        assert_eq!(tids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn region_can_borrow_stack_locals() {
        let pool = ThreadPool::new(3);
        let data = [1usize, 2, 3];
        let total = AtomicUsize::new(0);
        pool.parallel(|ctx| {
            total.fetch_add(data[ctx.tid()], Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn barrier_synchronizes_team() {
        let pool = ThreadPool::new(4);
        let phase1 = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        pool.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every thread must observe all 4 increments.
            if phase1.load(Ordering::SeqCst) != 4 {
                violations.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_parallel_serializes() {
        let pool = ThreadPool::new(2);
        let inner_counts = Mutex::new(Vec::new());
        pool.parallel(|_outer| {
            pool.parallel(|inner| {
                inner_counts.lock().unwrap().push((inner.tid(), inner.nthreads()));
            });
        });
        let counts = inner_counts.into_inner().unwrap();
        // Each of the 2 outer threads ran the inner region serially.
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().all(|&(tid, n)| tid == 0 && n == 1));
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel(|ctx| {
                if ctx.tid() == 2 {
                    panic!("injected failure");
                }
            });
        }));
        assert!(result.is_err());
        // Pool survives the panic and is reusable.
        let count = AtomicUsize::new(0);
        pool.parallel(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    /// Runs `f` on a helper thread and fails the test if it has not
    /// finished within 10 s (a hung barrier must fail, not stall CI).
    fn with_timeout(f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10)).expect("region hung");
        h.join().unwrap();
    }

    #[test]
    fn panic_between_barriers_poisons_the_team_instead_of_hanging() {
        for threads in [2, 4] {
            with_timeout(move || {
                let pool = ThreadPool::new(threads);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    pool.parallel(|ctx| {
                        ctx.barrier();
                        if ctx.tid() == 1 {
                            panic!("injected failure between barriers");
                        }
                        // Without poisoning the survivors wait here forever.
                        ctx.barrier();
                        ctx.barrier();
                    });
                }));
                let payload = result.expect_err("the member's panic must reach the caller");
                let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
                assert_eq!(msg, "injected failure between barriers", "original panic wins");
                // The pool (fresh barrier per region) is reusable afterwards.
                let count = AtomicUsize::new(0);
                pool.parallel(|ctx| {
                    ctx.barrier();
                    count.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(count.load(Ordering::Relaxed), threads);
            });
        }
    }

    #[test]
    fn barrier_survives_many_crossings_and_parked_waiters() {
        // Phase counters must be complete at every crossing, including
        // crossings where the straggler outlasts the spin and yield
        // budgets so its team-mates park.
        with_timeout(|| {
            let pool = ThreadPool::new(4);
            let rounds = 300;
            let phase = AtomicUsize::new(0);
            let violations = AtomicUsize::new(0);
            pool.parallel(|ctx| {
                for r in 0..rounds {
                    if r % 100 == 0 && ctx.tid() == 3 {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                    phase.fetch_add(1, Ordering::SeqCst);
                    ctx.barrier();
                    if phase.load(Ordering::SeqCst) < 4 * (r + 1) {
                        violations.fetch_add(1, Ordering::Relaxed);
                    }
                    ctx.barrier();
                }
            });
            assert_eq!(violations.load(Ordering::Relaxed), 0);
            assert_eq!(phase.load(Ordering::SeqCst), 4 * rounds);
        });
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let count = AtomicUsize::new(0);
        pool.parallel(|ctx| {
            assert_eq!(ctx.nthreads(), 1);
            ctx.barrier();
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn many_sequential_regions_are_stable() {
        let pool = ThreadPool::new(4);
        for round in 0..200 {
            let count = AtomicUsize::new(0);
            pool.parallel(|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), 4, "round {round}");
        }
    }
}
