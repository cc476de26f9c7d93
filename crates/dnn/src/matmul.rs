//! Flat-matrix matmul bridge — the **pack-per-call compatibility wrapper**
//! over the prepared-op API.
//!
//! [`matmul`] re-packs both operands into PARLOOPER blocked layouts and
//! re-constructs the GEMM kernel on every call: the per-call layout cost
//! the paper amortizes at layer boundaries, and that
//! [`crate::prepared::MatmulPlan`] front-loads. Every forward holds plans;
//! only BERT's backward pass calls this bridge, for contractions whose
//! operands change every call (gradients against activations), and the
//! plan equivalence tests compare against it.
//!
//! [`matmul`] is a throwaway [`crate::prepared::MatmulPlan`] built per
//! call, so both paths execute the identical kernel: same blockings
//! ([`pl_kernels::GemmShape::default_block`]), same `default_parallel`
//! spec, same per-element reduction order — plan outputs are
//! **bit-identical** to `matmul` outputs. No-transpose operands are
//! borrowed, never copied; `Trans::Yes` operands pay one transpose.

use crate::prepared::MatmulPlan;
use pl_runtime::ThreadPool;

/// Operand orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Use as stored.
    No,
    /// Use the transpose.
    Yes,
}

/// `C (m x n) = op_a(A) x op_b(B)` over flat column-major f32 buffers.
///
/// `a` is `(m x k)` after `ta`, `b` is `(k x n)` after `tb`. Packs both
/// operands on every call — hold a [`crate::prepared::MatmulPlan`] instead
/// when `a` is a weight that outlives the call.
#[allow(clippy::too_many_arguments)] // flat GEMM bridge: op_a/op_b + 3 dims + pool
pub fn matmul(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    pool: &ThreadPool,
) -> Vec<f32> {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let plan = MatmulPlan::new(a, ta, m, k);
    match tb {
        Trans::No => plan.execute(b, n, pool),
        Trans::Yes => plan.execute(&transpose_cm(b, n, k), n, pool),
    }
}

/// Transpose of a flat column-major `rows x cols` matrix.
pub fn transpose_cm(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; rows * cols];
    pl_tpp::transform::transpose(rows, cols, x, rows, &mut t, cols);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_kernels::gemm::reference_gemm;
    use pl_tensor::{fill_uniform, Xorshift};

    #[test]
    fn matches_reference_all_orientations() {
        let pool = ThreadPool::new(2);
        let (m, n, k) = (24, 20, 28);
        let mut rng = Xorshift::new(4);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        fill_uniform(&mut a, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b, &mut rng, -0.5, 0.5);
        let want = reference_gemm(&a, &b, m, n, k);

        let c1 = matmul(&a, Trans::No, &b, Trans::No, m, n, k, &pool);
        let at = transpose_cm(&a, m, k); // (k x m) storing A^T
        let c2 = matmul(&at, Trans::Yes, &b, Trans::No, m, n, k, &pool);
        let bt = transpose_cm(&b, k, n);
        let c3 = matmul(&a, Trans::No, &bt, Trans::Yes, m, n, k, &pool);
        let c4 = matmul(&at, Trans::Yes, &bt, Trans::Yes, m, n, k, &pool);
        for (ci, c) in [c1, c2, c3, c4].iter().enumerate() {
            for i in 0..m * n {
                assert!((c[i] - want[i]).abs() < 1e-3, "case {ci} idx {i}");
            }
        }
    }
}
