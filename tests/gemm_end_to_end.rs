//! Cross-crate integration: the PARLOOPER GEMM kernel against the scalar
//! reference under many loop instantiations — the core correctness claim
//! of the framework (any legal spec computes the same C).

use pl_kernels::gemm::reference_gemm;
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, BlockedMatrix, Xorshift};

fn problem(sh: GemmShape, seed: u64) -> (BlockedMatrix<f32>, BlockedMatrix<f32>, Vec<f32>) {
    let mut rng = Xorshift::new(seed);
    let mut a_cm = vec![0.0f32; sh.m * sh.k];
    let mut b_cm = vec![0.0f32; sh.k * sh.n];
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
    b.pack_from_colmajor(&b_cm);
    let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);
    (a, b, c_ref)
}

#[test]
fn schedule_independence_across_many_specs() {
    let pool = ThreadPool::new(4);
    let sh = GemmShape { m: 48, n: 32, k: 64, bm: 8, bn: 8, bk: 8 };
    let (a, b, c_ref) = problem(sh, 3);

    let parallel_specs: Vec<GemmTuning> = vec![
        GemmTuning::simple("aBC"),
        GemmTuning::simple("BCa"),
        GemmTuning::simple("Bca"),
        GemmTuning::simple("aCB"),
        GemmTuning::simple("cBa"),
        GemmTuning { k_step: 8, ..GemmTuning::simple("BCa") },
        GemmTuning {
            spec: "bcaBCb".into(),
            k_step: 2,
            a_blocks: vec![],
            b_blocks: vec![6, 3],
            c_blocks: vec![2],
        },
        GemmTuning {
            spec: "BCa @ schedule(dynamic,2)".into(),
            k_step: 4,
            a_blocks: vec![],
            b_blocks: vec![],
            c_blocks: vec![],
        },
        GemmTuning {
            spec: "B{R:2}C{C:2}a".into(),
            k_step: 1,
            a_blocks: vec![],
            b_blocks: vec![],
            c_blocks: vec![],
        },
    ];
    for t in parallel_specs {
        let label = t.spec.clone();
        let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
        let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!(
                (got[i] - c_ref[i]).abs() < 1e-3,
                "spec {label}: idx {i}: {} vs {}",
                got[i],
                c_ref[i]
            );
        }
    }
}

#[test]
fn plan_cache_reuses_compiled_nests() {
    let sh = GemmShape { m: 32, n: 32, k: 32, bm: 8, bn: 8, bk: 8 };
    let before = parlooper::plan_cache_stats();
    for _ in 0..5 {
        let _ = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("aBC")).unwrap();
    }
    let after = parlooper::plan_cache_stats();
    assert!(after.hits >= before.hits + 4, "{before:?} -> {after:?}");
}

#[test]
fn team_size_independence() {
    // The same parallel spec on 1/2/4 threads computes the same C.
    let sh = GemmShape { m: 32, n: 32, k: 32, bm: 8, bn: 8, bk: 8 };
    let (a, b, c_ref) = problem(sh, 9);
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        let gemm = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("BCa")).unwrap();
        let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - c_ref[i]).abs() < 1e-3, "threads {threads} idx {i}");
        }
    }
}

#[test]
fn bf16_matches_quantized_reference_end_to_end() {
    use pl_tensor::Bf16;
    let pool = ThreadPool::new(2);
    let sh = GemmShape { m: 32, n: 16, k: 32, bm: 8, bn: 8, bk: 8 };
    let mut rng = Xorshift::new(13);
    let mut a_cm = vec![0.0f32; sh.m * sh.k];
    let mut b_cm = vec![0.0f32; sh.k * sh.n];
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::<Bf16>::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::<Bf16>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
    b.pack_from_colmajor(&b_cm);
    let c_ref = reference_gemm(&a.unpack_to_colmajor(), &b.unpack_to_colmajor(), sh.m, sh.n, sh.k);

    let gemm = Gemm::<Bf16, Bf16, f32>::new(sh, GemmTuning::default_parallel(sh.kb())).unwrap();
    let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
    gemm.execute(&a, &b, &mut c, &pool).unwrap();
    let got = c.unpack_to_colmajor();
    for i in 0..got.len() {
        assert!((got[i] - c_ref[i]).abs() < 1e-3);
    }
}
