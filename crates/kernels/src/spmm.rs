//! Block-SpMM written with PARLOOPER and TPPs — paper Listing 5.
//!
//! `C = A x B` with `A` block-sparse (BCSC), `B`/`C` dense VNNI-packed.
//! The loop declaration is identical to the dense GEMM (3 logical loops);
//! the body calls the `bcsc_spmm_tpp` for the `(im, in)` output block over
//! the K-block range of the current `a` iteration.

use crate::shared::SharedSlice;
use crate::KernelError;
use parlooper::{LoopSpecs, ThreadedLoop};
use pl_runtime::ThreadPool;
use pl_tensor::{BcscMatrix, Element, VnniMatrix};
use pl_tpp::spmm::BcscSpmm;

/// Tuning knobs of the Block-SpMM kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmmTuning {
    /// The `loop_spec_string` (loops `a`=Kb, `b`=Mb, `c`=Nb).
    pub spec: String,
    /// K blocks folded per TPP invocation.
    pub k_step: usize,
    /// Blocking steps for the M loop.
    pub b_blocks: Vec<usize>,
    /// Blocking steps for the N loop.
    pub c_blocks: Vec<usize>,
}

impl SpmmTuning {
    /// Parallel (M, N) distribution, K fully folded.
    pub fn default_parallel(kb: usize) -> Self {
        SpmmTuning {
            spec: "BCa".into(),
            k_step: kb.max(1),
            b_blocks: Vec::new(),
            c_blocks: Vec::new(),
        }
    }
}

/// The Block-SpMM kernel handle.
pub struct BlockSpmm {
    m: usize,
    n: usize,
    k: usize,
    bm: usize,
    bk: usize,
    bn: usize,
    tuning: SpmmTuning,
    tl: ThreadedLoop,
    tpp: BcscSpmm,
}

impl BlockSpmm {
    /// Builds the kernel for `M x K (sparse) x K x N (dense)`.
    ///
    /// The loops are the dense GEMM's, and so are the specs it rejects
    /// with [`KernelError::RacySpec`] (see [`crate::Gemm::new`]): a split K
    /// loop (`A`) or a dynamic C-block deal below a sequential K level.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        m: usize,
        n: usize,
        k: usize,
        bm: usize,
        bk: usize,
        bn: usize,
        tuning: SpmmTuning,
    ) -> Result<Self, KernelError> {
        for (d, b, name) in [(m, bm, "M"), (n, bn, "N"), (k, bk, "K")] {
            if b == 0 || d % b != 0 {
                return Err(KernelError::BadShape(format!("{name}={d} %% {b} != 0")));
            }
        }
        let specs = vec![
            LoopSpecs::new(0, k / bk, tuning.k_step),
            LoopSpecs::blocked(0, m / bm, 1, tuning.b_blocks.clone()),
            LoopSpecs::blocked(0, n / bn, 1, tuning.c_blocks.clone()),
        ];
        let tl = ThreadedLoop::new(&specs, &tuning.spec).map_err(KernelError::Spec)?;
        crate::check_outputs_owned(&tuning.spec, "a")?;
        let tpp = BcscSpmm::new(bm, bk, bn);
        Ok(BlockSpmm { m, n, k, bm, bk, bn, tuning, tl, tpp })
    }

    /// `C = A x B` (paper Listing 5 body).
    pub fn execute<TA: Element, TB: Element, TC: Element>(
        &self,
        a: &BcscMatrix<TA>,
        b: &VnniMatrix<TB>,
        c: &mut VnniMatrix<TC>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        if a.rows() != self.m
            || a.cols() != self.k
            || a.bm() != self.bm
            || a.bk() != self.bk
            || b.rows() != self.k
            || b.cols() != self.n
            || b.bn() != self.bn
            || c.rows() != self.m
            || c.cols() != self.n
            || c.bn() != self.bn
        {
            return Err(KernelError::BadShape("spmm operand mismatch".into()));
        }
        let kb = self.k / self.bk;
        let k_step = self.tuning.k_step;
        let (c_rows, c_v) = (c.rows(), c.v());
        let c_shared = SharedSlice::new(c.data_mut());
        let c_len = c_rows * self.n;
        let tpp = &self.tpp;

        self.tl
            .try_run_on(pool, |ind| {
                let (ik, im, inb) = (ind[0], ind[1], ind[2]);
                let k_hi = (ik + k_step).min(kb);
                // SAFETY: whole-C view; the TPP writes only the (im, inb)
                // block. `new` accepts only specs whose concurrent
                // iterations differ in (im, inb) and that keep each
                // block's K steps on one member, in order.
                let c_view = unsafe { c_shared.slice_mut(0, c_len) };
                tpp.execute_into(a, im, ik..k_hi, b, inb, c_view, c_rows, c_v, ik == 0);
            })
            .map_err(KernelError::Spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::Xorshift;
    use pl_tpp::spmm::reference_spmm;

    fn run_case(sp: f64, tuning: SpmmTuning) {
        let (m, n, k, bm, bk, bn) = (32, 24, 32, 8, 8, 4);
        let mut rng = Xorshift::new(31 + (sp * 10.0) as u64);
        let a = BcscMatrix::<f32>::random(m, k, bm, bk, sp, &mut rng).unwrap();
        let b_cm: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
        let mut b = VnniMatrix::<f32>::new(k, n, bn, 1).unwrap();
        b.pack_from_colmajor(&b_cm);
        let mut c = VnniMatrix::<f32>::new(m, n, bn, 1).unwrap();
        let pool = ThreadPool::new(4);
        let spec_str = tuning.spec.clone();
        let kernel = BlockSpmm::new(m, n, k, bm, bk, bn, tuning).unwrap();
        kernel.execute(&a, &b, &mut c, &pool).unwrap();
        let want = reference_spmm(&a.to_dense_colmajor(), m, k, &b_cm, n);
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!(
                (got[i] - want[i]).abs() < 1e-3,
                "sp={sp} spec={spec_str} i={i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn matches_reference_across_sparsity_and_specs() {
        for &sp in &[0.0, 0.5, 0.9] {
            run_case(sp, SpmmTuning::default_parallel(4));
            run_case(
                sp,
                SpmmTuning { spec: "aBC".into(), k_step: 1, b_blocks: vec![], c_blocks: vec![] },
            );
            run_case(
                sp,
                SpmmTuning {
                    spec: "bcaBCb".into(),
                    k_step: 2,
                    b_blocks: vec![4, 2],
                    c_blocks: vec![3],
                },
            );
        }
    }

    #[test]
    fn rejects_mismatched_operands() {
        let kernel = BlockSpmm::new(16, 16, 16, 8, 8, 4, SpmmTuning::default_parallel(2)).unwrap();
        let mut rng = Xorshift::new(1);
        let a = BcscMatrix::<f32>::random(16, 8, 8, 8, 0.5, &mut rng).unwrap(); // wrong K
        let b = VnniMatrix::<f32>::new(16, 16, 4, 1).unwrap();
        let mut c = VnniMatrix::<f32>::new(16, 16, 4, 1).unwrap();
        let pool = ThreadPool::new(1);
        assert!(kernel.execute(&a, &b, &mut c, &pool).is_err());
    }
}
