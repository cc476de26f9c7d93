//! Block Compressed Sparse Column storage for the Block-SpMM TPP
//! (paper §III-C, Listing 5).
//!
//! The sparse operand `A` of `C = A x B` is an `M x K` matrix whose non-zero
//! structure is constrained to whole `bm x bk` blocks. Following the paper's
//! kernel interface (`bcsc_spmm_tpp(A_vals, &A_colptr[im], A_rowidx, ...)`),
//! the pointer array is indexed by *output row-block* `im`: all non-zero
//! blocks contributing to one `M`-block of `C` are contiguous, and each
//! entry records which `K`-block it multiplies. (Relative to textbook BCSC
//! this stores `A` transposed-by-blocks; the paper inherits the convention
//! from libxsmm where `A` is the weight tensor of a column-major GEMM.)
//!
//! Block values are stored column-major (`bm` contiguous), ready to be used
//! as BRGEMM-style `A` micro-panels.

use crate::buffer::AlignedVec;
use crate::dtype::Element;
use crate::fill::Xorshift;
use crate::{check_block, TensorError};

/// Block-sparse `M x K` matrix in (row-block-grouped) BCSC format.
#[derive(Debug)]
pub struct BcscMatrix<T> {
    rows: usize,
    cols: usize,
    bm: usize,
    bk: usize,
    /// `ptr[im]..ptr[im+1]` indexes the non-zero blocks of row-block `im`.
    ptr: Vec<usize>,
    /// `K`-block index of each non-zero block.
    kidx: Vec<usize>,
    /// Dense values, `bm*bk` per block, column-major within the block.
    vals: AlignedVec<T>,
}

impl<T: Element> BcscMatrix<T> {
    /// Compresses a dense column-major `rows x cols` array (leading
    /// dimension = rows), dropping blocks whose every element is exactly 0.
    pub fn from_dense_colmajor(
        dense: &[f32],
        rows: usize,
        cols: usize,
        bm: usize,
        bk: usize,
    ) -> Result<Self, TensorError> {
        check_block("M", rows, bm)?;
        check_block("K", cols, bk)?;
        if dense.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                what: "dense input",
                lhs: dense.len(),
                rhs: rows * cols,
            });
        }
        let (mb, kb) = (rows / bm, cols / bk);
        let mut ptr = Vec::with_capacity(mb + 1);
        let mut kidx = Vec::new();
        let mut blocks: Vec<f32> = Vec::new();
        ptr.push(0);
        for im in 0..mb {
            for ik in 0..kb {
                let mut block = vec![0.0f32; bm * bk];
                let mut nonzero = false;
                for c in 0..bk {
                    for r in 0..bm {
                        let v = dense[(ik * bk + c) * rows + im * bm + r];
                        block[c * bm + r] = v;
                        nonzero |= v != 0.0;
                    }
                }
                if nonzero {
                    kidx.push(ik);
                    blocks.extend_from_slice(&block);
                }
            }
            ptr.push(kidx.len());
        }
        let vals = AlignedVec::from_fn(blocks.len(), |i| T::from_f32(blocks[i]));
        Ok(BcscMatrix { rows, cols, bm, bk, ptr, kidx, vals })
    }

    /// Generates a random block-sparse matrix with the given fraction of
    /// *zero* blocks (e.g. `sparsity = 0.8` keeps 20 % of blocks).
    /// Non-zero block values are uniform in `[-0.5, 0.5)`.
    pub fn random(
        rows: usize,
        cols: usize,
        bm: usize,
        bk: usize,
        sparsity: f64,
        rng: &mut Xorshift,
    ) -> Result<Self, TensorError> {
        check_block("M", rows, bm)?;
        check_block("K", cols, bk)?;
        let (mb, kb) = (rows / bm, cols / bk);
        let total = mb * kb;
        // Choose exactly round((1-sparsity)*total) non-zero blocks so the
        // effective sparsity matches the request (a per-block coin flip
        // would wobble for small grids).
        let keep = ((1.0 - sparsity) * total as f64).round() as usize;
        let mut mask = vec![false; total];
        for slot in mask.iter_mut().take(keep) {
            *slot = true;
        }
        // Fisher-Yates shuffle of the mask.
        for i in (1..total).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            mask.swap(i, j);
        }
        let mut ptr = Vec::with_capacity(mb + 1);
        let mut kidx = Vec::new();
        ptr.push(0);
        let mut count = 0usize;
        for im in 0..mb {
            for ik in 0..kb {
                if mask[im * kb + ik] {
                    kidx.push(ik);
                    count += 1;
                }
            }
            ptr.push(count);
        }
        let vals = AlignedVec::from_fn(count * bm * bk, |_| T::from_f32(rng.next_f32() - 0.5));
        Ok(BcscMatrix { rows, cols, bm, bk, ptr, kidx, vals })
    }

    /// Logical row count (`M`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (`K`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block row extent.
    pub fn bm(&self) -> usize {
        self.bm
    }

    /// Block column extent.
    pub fn bk(&self) -> usize {
        self.bk
    }

    /// Number of row blocks.
    pub fn row_blocks(&self) -> usize {
        self.rows / self.bm
    }

    /// Number of column blocks.
    pub fn col_blocks(&self) -> usize {
        self.cols / self.bk
    }

    /// Number of stored (non-zero) blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.kidx.len()
    }

    /// Fraction of blocks that are zero.
    pub fn sparsity(&self) -> f64 {
        1.0 - self.nnz_blocks() as f64 / (self.row_blocks() * self.col_blocks()) as f64
    }

    /// The pointer array (`row_blocks + 1` entries).
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// `K`-block indices of the stored blocks.
    pub fn kidx(&self) -> &[usize] {
        &self.kidx
    }

    /// Values of the stored blocks, `bm * bk` per block in storage order
    /// (row block by row block, ascending `K`-block index within each).
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Values of stored block `b` (column-major `bm x bk`).
    #[inline(always)]
    fn block_vals(&self, b: usize) -> &[T] {
        let bsz = self.bm * self.bk;
        &self.vals[b * bsz..(b + 1) * bsz]
    }

    /// Iterator over `(k_block_index, block_values)` for row-block `im`.
    fn row_block_iter(&self, im: usize) -> impl Iterator<Item = (usize, &[T])> + '_ {
        let (lo, hi) = (self.ptr[im], self.ptr[im + 1]);
        (lo..hi).map(move |b| (self.kidx[b], self.block_vals(b)))
    }

    /// Decompresses to a dense column-major f32 array.
    pub fn to_dense_colmajor(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for im in 0..self.row_blocks() {
            for (ik, block) in self.row_block_iter(im) {
                for c in 0..self.bk {
                    for r in 0..self.bm {
                        out[(ik * self.bk + c) * self.rows + im * self.bm + r] =
                            block[c * self.bm + r].to_f32();
                    }
                }
            }
        }
        out
    }

    /// Bytes used by the compressed representation (values + indices).
    pub fn compressed_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<T>()
            + self.kidx.len() * std::mem::size_of::<usize>()
            + self.ptr.len() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_with_pattern(rows: usize, cols: usize, bm: usize, bk: usize) -> Vec<f32> {
        // Zero out every block where (im + ik) is odd -> 50% block sparsity.
        let mut d = vec![0.0f32; rows * cols];
        for c in 0..cols {
            for r in 0..rows {
                if (r / bm + c / bk).is_multiple_of(2) {
                    d[c * rows + r] = (r * cols + c) as f32 + 1.0;
                }
            }
        }
        d
    }

    #[test]
    fn dense_roundtrip() {
        let (rows, cols, bm, bk) = (16, 12, 4, 3);
        let d = dense_with_pattern(rows, cols, bm, bk);
        let s = BcscMatrix::<f32>::from_dense_colmajor(&d, rows, cols, bm, bk).unwrap();
        assert_eq!(s.to_dense_colmajor(), d);
        assert!((s.sparsity() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn row_block_iter_covers_exactly_nonzero_blocks() {
        let (rows, cols, bm, bk) = (8, 8, 4, 4);
        let d = dense_with_pattern(rows, cols, bm, bk);
        let s = BcscMatrix::<f32>::from_dense_colmajor(&d, rows, cols, bm, bk).unwrap();
        // Row-block 0 keeps ik=0; row-block 1 keeps ik=1.
        let r0: Vec<usize> = s.row_block_iter(0).map(|(ik, _)| ik).collect();
        let r1: Vec<usize> = s.row_block_iter(1).map(|(ik, _)| ik).collect();
        assert_eq!(r0, vec![0]);
        assert_eq!(r1, vec![1]);
    }

    #[test]
    fn random_hits_target_sparsity_exactly() {
        let mut rng = Xorshift::new(42);
        for &sp in &[0.0, 0.1, 0.5, 0.8, 0.9] {
            let s = BcscMatrix::<f32>::random(64, 64, 8, 8, sp, &mut rng).unwrap();
            let total = s.row_blocks() * s.col_blocks();
            let expect = ((1.0 - sp) * total as f64).round() as usize;
            assert_eq!(s.nnz_blocks(), expect, "sparsity {sp}");
        }
    }

    #[test]
    fn fully_sparse_and_fully_dense_edges() {
        let mut rng = Xorshift::new(7);
        let empty = BcscMatrix::<f32>::random(16, 16, 4, 4, 1.0, &mut rng).unwrap();
        assert_eq!(empty.nnz_blocks(), 0);
        assert!(empty.to_dense_colmajor().iter().all(|&v| v == 0.0));
        let full = BcscMatrix::<f32>::random(16, 16, 4, 4, 0.0, &mut rng).unwrap();
        assert_eq!(full.nnz_blocks(), 16);
    }

    #[test]
    fn compressed_bytes_shrink_with_sparsity() {
        let mut rng = Xorshift::new(3);
        let dense = BcscMatrix::<f32>::random(128, 128, 8, 8, 0.0, &mut rng).unwrap();
        let sparse = BcscMatrix::<f32>::random(128, 128, 8, 8, 0.9, &mut rng).unwrap();
        assert!(sparse.compressed_bytes() < dense.compressed_bytes() / 5);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(BcscMatrix::<f32>::from_dense_colmajor(&[0.0; 12], 4, 3, 4, 2).is_err());
        assert!(BcscMatrix::<f32>::from_dense_colmajor(&[0.0; 11], 4, 3, 2, 3).is_err());
    }
}

impl<T: Element> Clone for BcscMatrix<T> {
    fn clone(&self) -> Self {
        BcscMatrix {
            rows: self.rows,
            cols: self.cols,
            bm: self.bm,
            bk: self.bk,
            ptr: self.ptr.clone(),
            kidx: self.kidx.clone(),
            vals: self.vals.clone(),
        }
    }
}
