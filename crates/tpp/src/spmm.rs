//! The block-sparse x dense matmul's test oracle (paper §III-C, Listing 5).
//!
//! The Block-SpMM itself is the GEMM nest over a block-sparse BRGEMM tile
//! (`pl_kernels::BlockSpmm`); this module keeps the dense reference its
//! tests and benches check it against.

/// Dense reference: `C = A_dense x B` in plain f64-accumulated form.
pub fn reference_spmm(
    a_dense: &[f32],
    m: usize,
    k: usize,
    b_colmajor: &[f32],
    n: usize,
) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0f64;
            for p in 0..k {
                acc += a_dense[p * m + i] as f64 * b_colmajor[j * k + p] as f64;
            }
            c[j * m + i] = acc as f32;
        }
    }
    c
}
