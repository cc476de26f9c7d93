//! Micro-benchmarks of PARLOOPER itself: spec parsing, plan construction
//! (the "JIT"), plan-cache hits, and nest-walk overhead versus a
//! hand-written loop.

use parlooper::{LoopSpecs, ThreadedLoop};
use pl_bench::{f1, header, ns_per_iter, row};
use pl_runtime::ThreadPool;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

fn main() {
    header("parlooper", &["case", "ns/iter"]);
    let ns = ns_per_iter(1000, || {
        black_box(parlooper::spec::parse(black_box("bcaBCb @ schedule(dynamic,1)"), 3).unwrap());
    });
    row(&["parse_spec".into(), f1(ns)]);

    let specs = vec![
        LoopSpecs::blocked(0, 32, 1, vec![8]),
        LoopSpecs::blocked(0, 32, 1, vec![8, 4]),
        LoopSpecs::blocked(0, 32, 1, vec![4]),
    ];
    // First call compiles; the iterations measure cached lookups.
    let _ = ThreadedLoop::new(&specs, "bcaBCb").unwrap();
    let ns = ns_per_iter(1000, || {
        black_box(ThreadedLoop::new(black_box(&specs), "bcaBCb").unwrap());
    });
    row(&["plan_cache_hit".into(), f1(ns)]);

    let pool = ThreadPool::new(2);
    let tl =
        ThreadedLoop::new(&[LoopSpecs::new(0, 64, 1), LoopSpecs::new(0, 64, 1)], "AB").unwrap();
    let ns = ns_per_iter(100, || {
        let count = AtomicUsize::new(0);
        tl.run_on(&pool, |ind| {
            count.fetch_add(ind[0] + ind[1], Ordering::Relaxed);
        });
        black_box(count.load(Ordering::Relaxed));
    });
    row(&["nest_walk_4096_tiles".into(), f1(ns)]);
    let ns = ns_per_iter(100, || {
        let count = AtomicUsize::new(0);
        pool.parallel(|ctx| {
            for i in pl_runtime::block_partition(64, ctx.nthreads(), ctx.tid()) {
                for j in 0..64 {
                    count.fetch_add(i + j, Ordering::Relaxed);
                }
            }
        });
        black_box(count.load(Ordering::Relaxed));
    });
    row(&["raw_loop_4096_tiles".into(), f1(ns)]);
}
