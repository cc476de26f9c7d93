//! Integration tests of the prepared-op API (`pl_dnn::prepared`): a
//! plan is bitwise equal to its pack-per-call bridge, for the dense GEMM
//! across all operand orientations, and a block-sparse plan is bitwise
//! stable. (The
//! column-invariance property batched = unbatched decode rests on is
//! stated in `pl_dnn::prepared`'s unit tests, which reach the plan's
//! private kernel constructor.)

use pl_dnn::matmul::{matmul, transpose_cm, Trans};
use pl_dnn::MatmulPlan;
use pl_kernels::gemm::reference_gemm;
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, BcscMatrix, Xorshift};

fn random(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_uniform(&mut v, &mut Xorshift::new(seed), -0.5, 0.5);
    v
}

#[test]
fn plan_is_bitwise_equal_to_free_matmul_for_all_orientations() {
    // The prepared plan packs the weight once and reuses a cached kernel;
    // the free function re-packs per call. Both must produce *bitwise*
    // identical outputs for every Trans combination — the plan migration
    // cannot move a single ulp.
    let pool = ThreadPool::new(4);
    let (m, n, k) = (48, 12, 36);
    let a = random(m * k, 1);
    let b = random(k * n, 2);
    let at = transpose_cm(&a, m, k); // (k x m) storing A^T
    let bt = transpose_cm(&b, k, n); // (n x k) storing B^T
    let want = reference_gemm(&a, &b, m, n, k);

    for (ta, a_buf) in [(Trans::No, &a), (Trans::Yes, &at)] {
        for (tb, b_buf) in [(Trans::No, &b), (Trans::Yes, &bt)] {
            let free = matmul(a_buf, ta, b_buf, tb, m, n, k, &pool);
            let plan = MatmulPlan::new(a_buf, ta, m, k);
            let act: Vec<f32> = match tb {
                Trans::No => b_buf.clone(),
                Trans::Yes => transpose_cm(b_buf, n, k),
            };
            let first = plan.execute(&act, n, &pool);
            let second = plan.execute(&act, n, &pool); // cached kernel
            assert_eq!(free, first, "plan != free function ({ta:?}, {tb:?})");
            assert_eq!(first, second, "cached-kernel re-execution drifted ({ta:?}, {tb:?})");
            for i in 0..m * n {
                assert!((first[i] - want[i]).abs() < 1e-3, "({ta:?}, {tb:?}) idx {i}");
            }
        }
    }
}

#[test]
fn spmm_plan_is_bitwise_stable_across_cached_and_fresh_kernels() {
    // The block-sparse twin of the orientation test's cache check: a
    // first execution (kernel built), a cached one, and a freshly built
    // plan's must agree bit for bit. Plan-vs-dense correctness is
    // `prepared::tests::spmm_plan_matches_dense_reference`.
    let pool = ThreadPool::new(4);
    let (m, k, tokens) = (32, 32, 8);
    let weight = || BcscMatrix::<f32>::random(m, k, 8, 8, 0.6, &mut Xorshift::new(6)).unwrap();
    let x = random(k * tokens, 7);
    let plan = MatmulPlan::block_sparse(weight());
    let first = plan.execute(&x, tokens, &pool);
    assert_eq!(plan.execute(&x, tokens, &pool), first, "cached-kernel re-execution drifted");
    let fresh = MatmulPlan::block_sparse(weight()).execute(&x, tokens, &pool);
    assert_eq!(fresh, first, "a freshly built plan drifted");
}
