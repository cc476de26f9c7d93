//! Block-SpMM written with PARLOOPER and TPPs — paper Listing 5.
//!
//! `C = A x B` with `A` block-sparse (BCSC). Listing 5's nest is Listing
//! 1's with the TPP swapped, and so is this one: [`BlockSpmm`] is the one
//! GEMM nest ([`GemmKernel`]) over [`BcscTile`], a BRGEMM tile whose `A`
//! operand is a [`BcscMatrix`]. For output block `(im, in)` over K blocks
//! `ik..ik + count`, the tile takes row block `im`'s nonzero blocks in that
//! range — contiguous in the BCSC values and in ascending k — as a
//! stride-addressed `A`, and their `B` blocks by offset: one BRGEMM call.
//!
//! Every output element is therefore one ascending-k chain of fused
//! multiply-adds over the nonzero blocks. A zero block would only add exact
//! zeros to it, so `BlockSpmm` equals [`crate::Gemm`] over the decompressed
//! `A` bit for bit.

use crate::gemm::sealed::Call;
use crate::{GemmKernel, GemmShape, GemmTuning, KernelError, Tile, MAX_BR};
use pl_runtime::ThreadPool;
use pl_tensor::{BcscMatrix, BlockedMatrix, InnerLayout, TensorError, VnniMatrix};
use pl_tpp::brgemm::{Blocks, Brgemm, BrgemmDesc};

/// The BRGEMM tile over a block-sparse `A`: f32 operands, one fused
/// multiply-add per product, as [`crate::Gemm`]'s f32 tile.
pub struct BcscTile(Brgemm<f32, f32, f32>);

impl Tile for BcscTile {
    type Operand = BcscMatrix<f32>;
    type B = f32;
    type C = f32;
    type Scales<'s> = ();
    const WHOLE_K: bool = false;
    const SPAN: &'static str = "spmm.execute";

    fn for_block(desc: BrgemmDesc, a: InnerLayout) -> Option<Self> {
        (a == InnerLayout::ColMajor).then(|| BcscTile(Brgemm::new(desc)))
    }

    fn geometry(a: &BcscMatrix<f32>) -> (usize, usize, usize, usize, InnerLayout) {
        (a.rows(), a.cols(), a.bm(), a.bk(), InnerLayout::ColMajor)
    }

    fn run(&self, k: Call<'_, BcscMatrix<f32>, f32>, c: &mut [f32], _: ()) {
        let (a, (im, ik, count)) = (k.a, k.blocks);
        // Row block `im`'s nonzero blocks ascend in k; take those in range.
        let row = a.ptr()[im]..a.ptr()[im + 1];
        let kidx = &a.kidx()[row.clone()];
        let first = row.start + kidx.partition_point(|&x| x < ik);
        let end = row.start + kidx.partition_point(|&x| x < ik + count);
        let size = a.bm() * a.bk();
        let mut offs = [0usize; MAX_BR];
        // One call, unless the range holds more than `MAX_BR` blocks.
        for lo in (first..end).step_by(MAX_BR) {
            let hi = end.min(lo + MAX_BR);
            for (o, &x) in offs.iter_mut().zip(&a.kidx()[lo..hi]) {
                *o = x * k.stride_b;
            }
            let a_blocks = Blocks::Stride { base: &a.values()[lo * size..], stride: size };
            let b_blocks = Blocks::Offsets { base: k.b, offsets: &offs[..hi - lo] };
            self.0.execute(a_blocks, b_blocks, c, hi - lo);
        }
    }
}

/// Tuning knobs of the Block-SpMM kernel: the GEMM's loops (`a` = Kb,
/// `b` = Mb, `c` = Nb) and knobs.
pub type SpmmTuning = GemmTuning;

/// The Block-SpMM kernel: the GEMM nest over [`BcscTile`].
pub type BlockSpmm = GemmKernel<BcscTile>;

impl BlockSpmm {
    /// Builds the kernel for `M x K (sparse) x K x N (dense)`.
    ///
    /// The loops are the dense GEMM's, and so are the specs it rejects
    /// with [`KernelError::RacySpec`] (see [`GemmKernel::build`]).
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
        Self::build(GemmShape { m, n, k, bm, bn, bk }, tuning, InnerLayout::ColMajor)
    }

    /// `C = A x B` over VNNI-packed `B` and `C`, which it converts to and
    /// from the GEMM's blocked layouts around one nest execution, through
    /// flat column-major copies that both layouts pack and unpack by runs.
    pub fn execute(
        &self,
        a: &BcscMatrix<f32>,
        b: &VnniMatrix<f32>,
        c: &mut VnniMatrix<f32>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        let sh = *self.shape();
        if (b.rows(), b.cols(), c.rows(), c.cols()) != (sh.k, sh.n, sh.m, sh.n) {
            return Err(KernelError::BadShape("spmm operand mismatch".into()));
        }
        let layout = |e: TensorError| KernelError::BadShape(e.to_string());
        let mut blocked_b =
            BlockedMatrix::b_layout(sh.k, sh.n_padded(), sh.bk, sh.bn).map_err(layout)?;
        let mut blocked_c =
            BlockedMatrix::c_layout(sh.m, sh.n_padded(), sh.bm, sh.bn).map_err(layout)?;
        let mut flat_b = b.unpack_to_colmajor();
        flat_b.resize(sh.k * sh.n_padded(), 0.0);
        blocked_b.pack_from_colmajor(&flat_b);
        self.execute_on(a, &blocked_b, &mut blocked_c, (), None, pool)?;
        c.pack_from_colmajor(&blocked_c.unpack_to_colmajor()[..sh.m * sh.n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gemm;
    use pl_tensor::Xorshift;
    use pl_tpp::spmm::reference_spmm;

    /// `A x B` through [`BlockSpmm`] at `bn`-blocked `n` columns, with `A`
    /// `bm x bk`-blocked at the given block sparsity: `(A, B, C)`, the
    /// dense operands flat column-major.
    #[allow(clippy::too_many_arguments)]
    fn spmm(
        (m, n, k): (usize, usize, usize),
        (bm, bk, bn): (usize, usize, usize),
        sp: f64,
        seed: u64,
        tuning: SpmmTuning,
        pool: &ThreadPool,
    ) -> (BcscMatrix<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let a = BcscMatrix::<f32>::random(m, k, bm, bk, sp, &mut rng).unwrap();
        let b_cm: Vec<f32> = (0..k * n).map(|_| rng.next_f32() - 0.5).collect();
        let mut b = VnniMatrix::<f32>::new(k, n, bn, 1).unwrap();
        b.pack_from_colmajor(&b_cm);
        // A kernel that left an output element unwritten would keep NaN.
        let mut c = VnniMatrix::<f32>::from_fn(m, n, bn, 1, |_, _| f32::NAN).unwrap();
        let kernel = BlockSpmm::new(m, n, k, bm, bk, bn, tuning).unwrap();
        kernel.execute(&a, &b, &mut c, pool).unwrap();
        (a, b_cm, c.unpack_to_colmajor())
    }

    fn matches_reference(dims: (usize, usize, usize), blocks: (usize, usize, usize), sp: f64) {
        let (m, n, k) = dims;
        let tuning = SpmmTuning::default_parallel(k / blocks.1);
        let seed = (m + k * 3 + n * 7) as u64 + (sp * 100.0) as u64;
        let (a, b, got) = spmm(dims, blocks, sp, seed, tuning, &ThreadPool::new(2));
        let want = reference_spmm(&a.to_dense_colmajor(), m, k, &b, n);
        for i in 0..m * n {
            let tol = 1e-4 * k as f32;
            assert!(
                (got[i] - want[i]).abs() < tol,
                "{dims:?} sp={sp} i={i}: {} vs {}",
                got[i],
                want[i]
            );
        }
    }

    #[test]
    fn matches_dense_reference_across_sparsities() {
        for sp in [0.0, 0.3, 0.7, 0.95, 1.0] {
            matches_reference((32, 16, 32), (8, 8, 4), sp);
        }
    }

    #[test]
    fn various_block_shapes() {
        matches_reference((16, 12, 24), (4, 8, 6), 0.5);
        matches_reference((64, 32, 32), (16, 16, 16), 0.5);
        matches_reference((8, 8, 8), (8, 8, 8), 0.5);
    }

    #[test]
    fn exercises_nontrivial_blocks() {
        matches_reference((48, 24, 32), (16, 8, 8), 0.5);
    }

    #[test]
    fn matches_reference_across_sparsity_and_specs() {
        let pool = ThreadPool::new(4);
        let (dims, blocks) = ((32, 24, 32), (8, 8, 4));
        for sp in [0.0, 0.5, 0.9] {
            for tuning in [
                SpmmTuning::default_parallel(4),
                SpmmTuning::simple("aBC"),
                SpmmTuning {
                    k_step: 2,
                    b_blocks: vec![4, 2],
                    c_blocks: vec![3],
                    ..SpmmTuning::simple("bcaBCb")
                },
            ] {
                let spec = tuning.spec.clone();
                let (a, b, got) = spmm(dims, blocks, sp, 31 + (sp * 10.0) as u64, tuning, &pool);
                let want = reference_spmm(&a.to_dense_colmajor(), dims.0, dims.2, &b, dims.1);
                for i in 0..got.len() {
                    assert!((got[i] - want[i]).abs() < 1e-3, "sp={sp} spec={spec} i={i}");
                }
            }
        }
    }

    #[test]
    fn equals_the_dense_gemm_bit_for_bit() {
        // Both nests add each product with one fused multiply-add, in
        // ascending k; the sparse one skips zero blocks, which would add
        // exact zeros to a finite accumulator. So the bits agree, under a
        // spec that folds K into one call and one that steps it singly,
        // on teams of 1 and 3.
        let (dims, blocks) = ((32, 20, 48), (8, 8, 4));
        let ((m, n, k), (bm, bk, bn)) = (dims, blocks);
        let shape = GemmShape { m, n, k, bm, bn, bk };
        for team in [1, 3] {
            let pool = ThreadPool::new(team);
            for sp in [0.0, 0.5, 0.9] {
                for tuning in [SpmmTuning::default_parallel(k / bk), SpmmTuning::simple("BCa")] {
                    let spec = format!("{} k_step {}", tuning.spec, tuning.k_step);
                    let (a, b_cm, got) = spmm(dims, blocks, sp, 5, tuning.clone(), &pool);
                    let mut dense_a = BlockedMatrix::a_layout(m, k, bm, bk).unwrap();
                    dense_a.pack_from_colmajor(&a.to_dense_colmajor());
                    let mut b = BlockedMatrix::b_layout(k, n, bk, bn).unwrap();
                    b.pack_from_colmajor(&b_cm);
                    let mut c = BlockedMatrix::c_layout(m, n, bm, bn).unwrap();
                    let gemm = Gemm::<f32, f32, f32>::new(shape, tuning).unwrap();
                    gemm.execute(&dense_a, &b, &mut c, &pool).unwrap();
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let want = bits(&c.unpack_to_colmajor());
                    assert_eq!(bits(&got), want, "team {team} sparsity {sp} spec {spec}");
                }
            }
        }
    }

    #[test]
    fn k_range_partitions_compose() {
        // Two K steps, accumulated through C, equal one call over all of K.
        let pool = ThreadPool::new(2);
        let (dims, blocks) = ((16, 8, 32), (8, 8, 4));
        let kb = dims.2 / blocks.1;
        let halves = SpmmTuning { k_step: kb / 2, ..SpmmTuning::simple("BCa") };
        let (_, _, full) = spmm(dims, blocks, 0.4, 77, SpmmTuning::default_parallel(kb), &pool);
        let (_, _, split) = spmm(dims, blocks, 0.4, 77, halves, &pool);
        assert_eq!(full, split);
    }

    #[test]
    fn empty_row_block_leaves_zero() {
        let (_, _, c) = spmm(
            (16, 8, 16),
            (8, 8, 4),
            1.0,
            1,
            SpmmTuning::default_parallel(2),
            &ThreadPool::new(1),
        );
        assert!(c.iter().all(|&v| v == 0.0));
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
