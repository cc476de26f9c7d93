//! The executor runs exactly the partition the simulator predicts, for
//! every loop spec the autotuner generates: recorded from
//! `LoopRun::member` on real teams, each member's index list equals
//! `LoopPlan::simulate_member`, and the members' C blocks are disjoint and
//! cover the output. This is the first fact the decoder region's column
//! ownership rests on (`pl_dnn::prepared`), and what the performance model
//! (paper §II-E) assumes when it replays `simulate_member` per thread.

use parlooper::ThreadedLoop;
use pl_autotuner::{blocks_for_spec, Constraints, GemmProblem};
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, BlockedMatrix, DType, Xorshift};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// What each member of `pool`'s team runs of `nest`, in order.
fn executed(nest: &ThreadedLoop, pool: &ThreadPool) -> Vec<Vec<Vec<usize>>> {
    let shares: Vec<Mutex<Vec<Vec<usize>>>> =
        (0..pool.nthreads()).map(|_| Mutex::default()).collect();
    let run = nest.begin(pool.nthreads()).unwrap();
    pool.parallel(|ctx| {
        run.member(ctx, &|ind| shares[ctx.tid()].lock().unwrap().push(ind.to_vec()))
    });
    shares.into_iter().map(|share| share.into_inner().unwrap()).collect()
}

/// Every kernel a generated spec builds for `shape`, at `k_step` 1 and
/// `kb` (a spec whose K blocking is finer than `kb` does not build there).
fn generated_kernels(shape: GemmShape, specs: &[String]) -> Vec<Gemm<f32, f32, f32>> {
    let problem = GemmProblem {
        m: shape.m,
        n: shape.n,
        k: shape.k,
        bm: shape.bm,
        bn: shape.bn,
        bk: shape.bk,
        dtype: DType::F32,
    };
    let mut kernels = Vec::new();
    for spec in specs {
        let Some([a_blocks, b_blocks, c_blocks]) = blocks_for_spec(&problem, spec) else {
            continue;
        };
        for k_step in [1, shape.kb()] {
            let tuning = GemmTuning {
                spec: spec.clone(),
                k_step,
                a_blocks: a_blocks.clone(),
                b_blocks: b_blocks.clone(),
                c_blocks: c_blocks.clone(),
            };
            kernels.extend(Gemm::new(shape, tuning).ok());
        }
    }
    kernels
}

fn activation_shape(m: usize, n: usize, k: usize) -> GemmShape {
    let (bm, bk) = (GemmShape::default_block(m), GemmShape::default_block(k));
    GemmShape { m, n, k, bm, bn: GemmShape::activation_block(n), bk }
}

#[test]
fn every_generated_spec_runs_its_simulated_disjoint_partition() {
    let specs = pl_autotuner::generate(3, &Constraints::gemm(1, 1, 1, 40));
    let pools = [ThreadPool::new(2), ThreadPool::new(3)];
    let mut checked = 0usize;
    // The `mid` model's projections (QKV / WO, FFN-up, FFN-down) at decode,
    // small-batch and ragged widths.
    for (m, k) in [(512, 512), (2048, 512), (512, 2048)] {
        for n in [1, 8, 19] {
            let shape = activation_shape(m, n, k);
            for gemm in generated_kernels(shape, &specs) {
                let (nest, spec) = (gemm.threaded_loop(), &gemm.tuning().spec);
                let k_steps = shape.kb().div_ceil(gemm.tuning().k_step);
                for pool in &pools {
                    let team = pool.nthreads();
                    let shares = executed(nest, pool);
                    let (mut runs, mut owner) = (HashSet::new(), HashMap::new());
                    for (tid, share) in shares.iter().enumerate() {
                        let sim = nest.plan().simulate_member(tid, team);
                        assert_eq!(*share, sim, "{m}x{n}x{k} {spec}: member {tid} of {team}");
                        for ind in share {
                            assert!(runs.insert(ind.clone()), "{spec}: {ind:?} ran twice");
                            let first = *owner.entry((ind[1], ind[2])).or_insert(tid);
                            assert_eq!(first, tid, "{spec}: C block {ind:?} on two members");
                        }
                    }
                    assert_eq!(owner.len(), shape.mb() * shape.nb(), "{spec}: C not covered");
                    assert_eq!(runs.len(), k_steps * shape.mb() * shape.nb(), "{spec}");
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 300, "only {checked} (shape, spec, k_step, team) cases ran");
}

#[test]
fn every_generated_spec_is_bitwise_across_team_sizes() {
    // A team of one and teams of two and three compute the same bits
    // under every generated spec — sequential ones included, which run on
    // member 0 alone.
    let specs = pl_autotuner::generate(3, &Constraints::gemm(1, 1, 1, 40));
    let shape = GemmShape { m: 64, n: 19, k: 64, bm: 16, bn: 4, bk: 16 };
    let mut rng = Xorshift::new(0x7ea);
    let (mut a_cm, mut b_cm) = (vec![0.0f32; 64 * 64], vec![0.0f32; 64 * 20]);
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::a_layout(64, 64, 16, 16).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::b_layout(64, shape.n_padded(), 16, 4).unwrap();
    b.pack_from_colmajor(&b_cm);
    let pools = [ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(3)];
    let kernels = generated_kernels(shape, &specs);
    for gemm in &kernels {
        let outs: Vec<Vec<f32>> = pools
            .iter()
            .map(|pool| {
                let mut c = BlockedMatrix::c_layout(64, shape.n_padded(), 16, 4).unwrap();
                gemm.execute(&a, &b, &mut c, pool).unwrap();
                c.unpack_to_colmajor()
            })
            .collect();
        let spec = &gemm.tuning().spec;
        assert_eq!(outs[1], outs[0], "{spec} (k_step {}): team of 2", gemm.tuning().k_step);
        assert_eq!(outs[2], outs[0], "{spec} (k_step {}): team of 3", gemm.tuning().k_step);
    }
    assert!(kernels.len() > 40, "only {} kernels built", kernels.len());
}
