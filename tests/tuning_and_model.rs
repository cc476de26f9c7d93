//! Integration of the auto-tuner with the performance model and the real
//! kernels (the Fig. 1 / Fig. 6 workflow).

use pl_autotuner::{blocks_for_spec, tune_gemm_modeled, Constraints, GemmProblem};
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_perfmodel::{GemmModelSpec, Platform};
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

    // Measure the modeled winner vs a sequential (replicated) schedule.
    let mut rng = Xorshift::new(2);
    let mut a_cm = vec![0.0f32; m * k];
    let mut b_cm = vec![0.0f32; k * n];
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::<f32>::a_layout(m, k, 32, 32).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::<f32>::b_layout(k, n, 32, 32).unwrap();
    b.pack_from_colmajor(&b_cm);

    // One timed sample (3 executions) of a prebuilt kernel.
    let sample = |kernel: &Gemm<f32, f32, f32>, pool: &ThreadPool| -> f64 {
        let mut c = BlockedMatrix::<f32>::c_layout(m, n, 32, 32).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            kernel.execute(&a, &b, &mut c, pool).unwrap();
        }
        t0.elapsed().as_secs_f64()
    };

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
    // Pathological: fully sequential on a 2-thread pool (replicated work).
    let seq = Gemm::<f32, f32, f32>::new(shape, GemmTuning::simple("abc")).unwrap();
    let seq_pool = ThreadPool::new(2);
    // A single wall-clock sample per schedule loses to a scheduling
    // hiccup on a shared host about one run in four: interleave several
    // samples of each (after one untimed warm-up) and compare the minima —
    // interference only ever adds time.
    sample(&best, &pool);
    sample(&seq, &seq_pool);
    let (mut best_time, mut seq_time) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        best_time = best_time.min(sample(&best, &pool));
        seq_time = seq_time.min(sample(&seq, &seq_pool));
    }
    assert!(best_time < seq_time, "tuned {best_time}s not faster than sequential {seq_time}s");
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
        // Sequential specs replicate; only execute parallel ones here.
        if spec.chars().any(|c| c.is_ascii_uppercase()) {
            let mut c = BlockedMatrix::<f32>::c_layout(m, n, 16, 16).unwrap();
            kernel.execute(&a, &b, &mut c, &pool).unwrap();
        }
        built += 1;
    }
    assert!(built > 20, "only {built} candidates built");
}
