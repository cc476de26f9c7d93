//! # pl-runtime — an OpenMP-like parallel runtime
//!
//! The paper's PARLOOPER POC relies on the OpenMP runtime for concurrency
//! (`#pragma omp parallel`, `#pragma omp for collapse(n) nowait`,
//! `schedule(dynamic)`, barriers, and explicit logical thread grids for
//! PAR-MODE 2). This crate reimplements exactly that subset on a persistent
//! thread pool:
//!
//! * [`ThreadPool::parallel`] — a parallel *region*: the closure runs once on
//!   every thread with a [`WorkerCtx`] (thread id, team size, team barrier).
//! * [`sched`] — work distribution inside a region: static block, static
//!   chunked (round-robin), and dynamic (atomic work-stealing counter)
//!   schedules over a linearized (possibly collapsed) iteration space.
//! * [`grid`] — explicit R x C (x L) thread-grid decompositions with block
//!   partitioning, used by PARLOOPER's `{R:16}` / `{C:4}` syntax.
//!
//! Nested `parallel` calls execute serially on the calling thread with a
//! single-thread context (OpenMP's default behaviour with nesting disabled).
//! Worker panics are captured and re-raised on the calling thread; a panic
//! between two team barriers poisons the barrier so the rest of the team
//! unwinds instead of waiting forever. The barrier itself spins, then
//! yields, then parks, with constant budgets (see [`pool`]).

mod barrier;
pub mod grid;
pub mod pool;
pub mod sched;

pub use grid::GridDecomp;
pub use pool::{default_threads, global_pool, ThreadPool, WorkerCtx};
pub use sched::{block_partition, DynamicQueue, StaticChunks};
