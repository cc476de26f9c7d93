//! Integration of the auto-tuner with the performance model and the real
//! kernels (the Fig. 1 / Fig. 6 workflow).

use pl_autotuner::{
    blocks_for_spec, tune_gemm_modeled, Constraints, GemmModelSpec, GemmProblem, Platform,
};
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, BlockedMatrix, DType, Xorshift};

#[test]
fn modeled_winner_beats_pathological_schedule_when_measured() {
    let pool = ThreadPool::new(2);
    let (m, n, k) = (128usize, 128usize, 128usize);
    let shape = GemmShape { m, n, k, bm: 32, bn: 32, bk: 32 };
    let problem = GemmProblem { m, n, k, bm: 32, bn: 32, bk: 32, dtype: DType::F32 };
    let host = Platform::generic_host(2);
    let tuned = tune_gemm_modeled(&problem, &Constraints::gemm(0, 1, 1, 100), &host, 2);
    assert!(!tuned.evaluated.is_empty());

    // The modeled winner against a sequential schedule on the same
    // 2-member team: the winner gives member 1 body calls, "abc" runs
    // the whole nest on member 0 while its peer idles. The mechanism is
    // asserted here; the wall-clock comparison lives in `fig6` and
    // plbench, where a busy host cannot flip a test.
    let mut rng = Xorshift::new(2);
    let mut a_cm = vec![0.0f32; m * k];
    let mut b_cm = vec![0.0f32; k * n];
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::<f32>::a_layout(m, k, 32, 32).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::<f32>::b_layout(k, n, 32, 32).unwrap();
    b.pack_from_colmajor(&b_cm);

    let blocks = blocks_for_spec(&problem, &tuned.best.spec).unwrap();
    let best = Gemm::<f32, f32, f32>::new(
        shape,
        GemmTuning {
            spec: tuned.best.spec.clone(),
            k_step: 1,
            a_blocks: blocks[0].clone(),
            b_blocks: blocks[1].clone(),
            c_blocks: blocks[2].clone(),
        },
    )
    .unwrap();
    let seq = Gemm::<f32, f32, f32>::new(shape, GemmTuning::simple("abc")).unwrap();
    let member_1_calls =
        |kernel: &Gemm<f32, f32, f32>| kernel.threaded_loop().plan().simulate_member(1, 2).len();
    assert!(member_1_calls(&best) > 0, "the modeled winner idles member 1");
    assert_eq!(member_1_calls(&seq), 0, "\"abc\" is sequential");

    // Both schedules compute the same product.
    let run = |kernel: &Gemm<f32, f32, f32>| {
        let mut c = BlockedMatrix::<f32>::c_layout(m, n, 32, 32).unwrap();
        kernel.execute(&a, &b, &mut c, &pool).unwrap();
        c.unpack_to_colmajor()
    };
    assert_eq!(run(&best), run(&seq), "tuned and sequential schedules disagree");
}

#[test]
fn model_scores_parallel_above_replicated() {
    let host = Platform::generic_host(4);
    let mk = |spec: &str| GemmModelSpec {
        m: 256,
        n: 256,
        k: 256,
        bm: 32,
        bn: 32,
        bk: 32,
        k_step: 1,
        spec: spec.into(),
        blocks: [vec![], vec![], vec![]],
        dtype: DType::F32,
    };
    let par = mk("BCa").predict(&host, 4).unwrap().gflops;
    let seq = mk("bca").predict(&host, 4).unwrap().gflops;
    assert!(par > 2.0 * seq, "par {par} seq {seq}");
}

#[test]
fn spec_generation_feeds_real_kernels() {
    // Every generated candidate (with ladder blockings) must construct a
    // valid kernel — the zero-code-change property of §II-D.
    let pool = ThreadPool::new(2);
    let (m, n, k) = (64usize, 64usize, 64usize);
    let shape = GemmShape { m, n, k, bm: 16, bn: 16, bk: 16 };
    let problem = GemmProblem { m, n, k, bm: 16, bn: 16, bk: 16, dtype: DType::F32 };
    let specs = pl_autotuner::generate(3, &Constraints::gemm(1, 1, 1, 60));
    let mut built = 0;
    let a = BlockedMatrix::<f32>::a_layout(m, k, 16, 16).unwrap();
    let b = BlockedMatrix::<f32>::b_layout(k, n, 16, 16).unwrap();
    for spec in specs {
        let Some(blocks) = blocks_for_spec(&problem, &spec) else { continue };
        let tuning = GemmTuning {
            spec: spec.clone(),
            k_step: 1,
            a_blocks: blocks[0].clone(),
            b_blocks: blocks[1].clone(),
            c_blocks: blocks[2].clone(),
        };
        let kernel = Gemm::<f32, f32, f32>::new(shape, tuning)
            .unwrap_or_else(|e| panic!("spec {spec}: {e}"));
        let mut c = BlockedMatrix::<f32>::c_layout(m, n, 16, 16).unwrap();
        kernel.execute(&a, &b, &mut c, &pool).unwrap();
        built += 1;
    }
    assert!(built > 20, "only {built} candidates built");
}
