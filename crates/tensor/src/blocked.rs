//! Blocked 2-D matrix layouts (paper Listing 1).
//!
//! A logical column-major `rows x cols` matrix is tiled into `br x bc`
//! blocks. The block *grid* can be laid out row-block-major (the paper's
//! `A[Mb][Kb][bk][bm]`) or column-block-major (`B[Nb][Kb][bn][bk]`,
//! `C[Nb][Mb][bn][bm]`). Inside a block, elements are column-major, or
//! VNNI-packed for low-precision operands.

use crate::buffer::AlignedVec;
use crate::dtype::Element;
use crate::{check_block, TensorError};

/// Order of the two block-grid dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridOrder {
    /// Grid indexed `[row_block][col_block]` — the paper's `A[Mb][Kb]`.
    RowBlockMajor,
    /// Grid indexed `[col_block][row_block]` — the paper's `B[Nb][Kb]` and
    /// `C[Nb][Mb]`.
    ColBlockMajor,
}

/// Within-block element layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerLayout {
    /// Plain column-major: element `(r, c)` at `c * br + r`.
    ColMajor,
    /// VNNI packed along the *column* dimension with factor `v`: element
    /// `(r, c)` at `(c / v) * br * v + r * v + c % v`. Columns are the
    /// reduction dimension — the layout of the quantized weight pack, where
    /// `A = W (M x K)` and `K` runs along block columns.
    VnniCols(usize),
}

/// A blocked logical matrix. See module docs for the layout.
#[derive(Debug)]
pub struct BlockedMatrix<T> {
    data: AlignedVec<T>,
    rows: usize,
    cols: usize,
    br: usize,
    bc: usize,
    grid: GridOrder,
    inner: InnerLayout,
}

impl<T: Element> BlockedMatrix<T> {
    /// Generic constructor; prefer the [`Self::a_layout`] /
    /// [`Self::b_layout`] / [`Self::c_layout`] shorthands for GEMM operands.
    pub fn new(
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
        grid: GridOrder,
        inner: InnerLayout,
    ) -> Result<Self, TensorError> {
        check_block("rows", rows, br)?;
        check_block("cols", cols, bc)?;
        match inner {
            InnerLayout::VnniCols(v) => check_block("block-cols (vnni)", bc, v)?,
            InnerLayout::ColMajor => {}
        }
        Ok(BlockedMatrix { data: AlignedVec::zeroed(rows * cols), rows, cols, br, bc, grid, inner })
    }

    /// GEMM `A` operand: `M x K` blocked `bm x bk`, grid `[Mb][Kb]`.
    pub fn a_layout(m: usize, k: usize, bm: usize, bk: usize) -> Result<Self, TensorError> {
        Self::new(m, k, bm, bk, GridOrder::RowBlockMajor, InnerLayout::ColMajor)
    }

    /// GEMM `B` operand: `K x N` blocked `bk x bn`, grid `[Nb][Kb]`.
    pub fn b_layout(k: usize, n: usize, bk: usize, bn: usize) -> Result<Self, TensorError> {
        Self::new(k, n, bk, bn, GridOrder::ColBlockMajor, InnerLayout::ColMajor)
    }

    /// GEMM `A` operand in VNNI-packed blocks (quantized weight path):
    /// `M x K` blocked `bm x bk`, grid `[Mb][Kb]`, `v` consecutive `K`
    /// elements of each row contiguous within a block.
    pub fn a_layout_vnni(
        m: usize,
        k: usize,
        bm: usize,
        bk: usize,
        v: usize,
    ) -> Result<Self, TensorError> {
        Self::new(m, k, bm, bk, GridOrder::RowBlockMajor, InnerLayout::VnniCols(v))
    }

    /// GEMM `C` operand: `M x N` blocked `bm x bn`, grid `[Nb][Mb]`.
    pub fn c_layout(m: usize, n: usize, bm: usize, bn: usize) -> Result<Self, TensorError> {
        Self::new(m, n, bm, bn, GridOrder::ColBlockMajor, InnerLayout::ColMajor)
    }

    /// Logical row count.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block row extent.
    #[inline(always)]
    pub fn br(&self) -> usize {
        self.br
    }

    /// Block column extent.
    #[inline(always)]
    pub fn bc(&self) -> usize {
        self.bc
    }

    /// Number of row blocks (`rows / br`).
    #[inline(always)]
    pub fn row_blocks(&self) -> usize {
        self.rows / self.br
    }

    /// Number of column blocks (`cols / bc`).
    #[inline(always)]
    pub fn col_blocks(&self) -> usize {
        self.cols / self.bc
    }

    /// Within-block layout.
    #[inline(always)]
    pub fn inner(&self) -> InnerLayout {
        self.inner
    }

    /// Block grid order.
    #[inline(always)]
    pub fn grid(&self) -> GridOrder {
        self.grid
    }

    /// Flat offset of block `(rb, cb)` in element units.
    #[inline(always)]
    pub fn block_offset(&self, rb: usize, cb: usize) -> usize {
        debug_assert!(rb < self.row_blocks() && cb < self.col_blocks());
        let bsz = self.br * self.bc;
        match self.grid {
            GridOrder::RowBlockMajor => (rb * self.col_blocks() + cb) * bsz,
            GridOrder::ColBlockMajor => (cb * self.row_blocks() + rb) * bsz,
        }
    }

    /// Immutable view of block `(rb, cb)` (`br * bc` elements).
    #[inline(always)]
    pub fn block(&self, rb: usize, cb: usize) -> &[T] {
        let off = self.block_offset(rb, cb);
        &self.data[off..off + self.br * self.bc]
    }

    /// Offset of logical element `(r, c)` within its block.
    #[inline(always)]
    fn inner_offset(&self, r: usize, c: usize) -> usize {
        let (ri, ci) = (r % self.br, c % self.bc);
        match self.inner {
            InnerLayout::ColMajor => ci * self.br + ri,
            InnerLayout::VnniCols(v) => (ci / v) * self.br * v + ri * v + ci % v,
        }
    }

    /// Read logical element `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> T {
        let off = self.block_offset(r / self.br, c / self.bc) + self.inner_offset(r, c);
        self.data[off]
    }

    /// Write logical element `(r, c)`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        let off = self.block_offset(r / self.br, c / self.bc) + self.inner_offset(r, c);
        self.data[off] = v;
    }

    /// Whole backing buffer (blocks in grid order).
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Packs a flat column-major `rows x cols` array (leading dim = rows).
    /// A column-major block holds each source column's `br`-element run
    /// contiguously, so that layout copies whole runs.
    pub fn pack_from_colmajor(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.rows * self.cols, "source size mismatch");
        let br = self.br;
        for c in 0..self.cols {
            let col = &src[c * self.rows..][..self.rows];
            if self.inner == InnerLayout::ColMajor {
                for (rb, run) in col.chunks_exact(br).enumerate() {
                    let off = self.block_offset(rb, c / self.bc) + self.inner_offset(rb * br, c);
                    for (dst, &v) in self.data.as_mut_slice()[off..off + br].iter_mut().zip(run) {
                        *dst = T::from_f32(v);
                    }
                }
            } else {
                for (r, &v) in col.iter().enumerate() {
                    self.set(r, c, T::from_f32(v));
                }
            }
        }
    }

    /// Unpacks into a flat column-major `rows x cols` f32 array (whole
    /// column runs for a column-major block, as in
    /// [`Self::pack_from_colmajor`]).
    pub fn unpack_to_colmajor(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        let br = self.br;
        for (c, col) in out.chunks_exact_mut(self.rows).enumerate() {
            if self.inner == InnerLayout::ColMajor {
                for (rb, run) in col.chunks_exact_mut(br).enumerate() {
                    let off = self.block_offset(rb, c / self.bc) + self.inner_offset(rb * br, c);
                    for (dst, v) in run.iter_mut().zip(&self.data[off..off + br]) {
                        *dst = v.to_f32();
                    }
                }
            } else {
                for (r, dst) in col.iter_mut().enumerate() {
                    *dst = self.get(r, c).to_f32();
                }
            }
        }
        out
    }

    /// Builds from a closure over logical indices.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        br: usize,
        bc: usize,
        grid: GridOrder,
        inner: InnerLayout,
        mut f: impl FnMut(usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut m = Self::new(rows, cols, br, bc, grid, inner)?;
        for c in 0..cols {
            for r in 0..rows {
                m.set(r, c, T::from_f32(f(r, c)));
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_layout_matches_paper_indexing() {
        // A[Mb][Kb][bk][bm]: element (r,c) of block (im, ik) lives at
        // ((im*Kb + ik) * bk + c%bk) * bm + r%bm.
        let m = 8;
        let k = 6;
        let (bm, bk) = (4, 3);
        let a = BlockedMatrix::<f32>::from_fn(
            m,
            k,
            bm,
            bk,
            GridOrder::RowBlockMajor,
            InnerLayout::ColMajor,
            |r, c| (r * 100 + c) as f32,
        )
        .unwrap();
        let kb = k / bk;
        for r in 0..m {
            for c in 0..k {
                let (im, ik) = (r / bm, c / bk);
                let expect = ((im * kb + ik) * bk + c % bk) * bm + r % bm;
                assert_eq!(a.data()[expect], (r * 100 + c) as f32);
            }
        }
    }

    #[test]
    fn c_layout_grid_is_col_block_major() {
        let c = BlockedMatrix::<f32>::c_layout(8, 8, 4, 4).unwrap();
        // C[Nb][Mb]: block (rb=1, cb=0) immediately follows (rb=0, cb=0).
        assert_eq!(c.block_offset(0, 0), 0);
        assert_eq!(c.block_offset(1, 0), 16);
        assert_eq!(c.block_offset(0, 1), 32);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (m, k) = (12, 8);
        let src: Vec<f32> = (0..m * k).map(|i| i as f32 * 0.5).collect();
        let mut a = BlockedMatrix::<f32>::a_layout(m, k, 4, 2).unwrap();
        a.pack_from_colmajor(&src);
        assert_eq!(a.unpack_to_colmajor(), src);
    }

    #[test]
    fn column_run_pack_equals_per_element_path() {
        let layouts = [InnerLayout::ColMajor, InnerLayout::VnniCols(1), InnerLayout::VnniCols(2)];
        // (rows, cols, br, bc): blocks of one element, non-square blocks,
        // a single block and tall / wide grids.
        let shapes = [(4, 6, 1, 1), (12, 8, 4, 2), (8, 12, 2, 6), (6, 4, 6, 4), (16, 10, 8, 2)];
        for grid in [GridOrder::RowBlockMajor, GridOrder::ColBlockMajor] {
            for inner in layouts {
                for (rows, cols, br, bc) in shapes {
                    let Ok(mut packed) = BlockedMatrix::<f32>::new(rows, cols, br, bc, grid, inner)
                    else {
                        continue; // a VNNI factor that does not divide the block
                    };
                    let mut by_element = packed.clone();
                    let src: Vec<f32> = (0..rows * cols).map(|i| i as f32 - 7.5).collect();
                    packed.pack_from_colmajor(&src);
                    for c in 0..cols {
                        for r in 0..rows {
                            by_element.set(r, c, src[c * rows + r]);
                        }
                    }
                    let case = format!("{grid:?} {inner:?} {rows}x{cols} / {br}x{bc}");
                    assert_eq!(packed.data(), by_element.data(), "{case}");
                    let unpacked = packed.unpack_to_colmajor();
                    assert_eq!(unpacked, src, "{case}");
                    for c in 0..cols {
                        for r in 0..rows {
                            assert_eq!(unpacked[c * rows + r], packed.get(r, c), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_blockings() {
        assert!(BlockedMatrix::<f32>::a_layout(10, 10, 3, 2).is_err());
        assert!(BlockedMatrix::<f32>::a_layout(0, 10, 1, 2).is_err());
        // VnniCols requires the block *column* extent divisible by v.
        assert!(BlockedMatrix::<i8>::a_layout_vnni(8, 6, 4, 3, 4).is_err());
    }

    #[test]
    fn vnni_cols_inner_layout_offsets() {
        // bm=2, bk=4, v=2: (r,c) at (c/2)*bm*2 + r*2 + c%2.
        let a = BlockedMatrix::<i8>::from_fn(
            2,
            4,
            2,
            4,
            GridOrder::RowBlockMajor,
            InnerLayout::VnniCols(2),
            |r, c| (r * 10 + c) as f32,
        )
        .unwrap();
        let raw: Vec<f32> = a.data().iter().map(|x| x.to_f32()).collect();
        // Expected order: (0,0),(0,1),(1,0),(1,1),(0,2),(0,3),(1,2),(1,3)
        assert_eq!(raw, vec![0., 1., 10., 11., 2., 3., 12., 13.]);
    }

    #[test]
    fn vnni_cols_roundtrip_i8() {
        let src: Vec<f32> = (0..16 * 32).map(|i| (i % 17) as f32 - 8.0).collect();
        let mut a = BlockedMatrix::<i8>::a_layout_vnni(16, 32, 8, 8, 4).unwrap();
        a.pack_from_colmajor(&src);
        assert_eq!(a.unpack_to_colmajor(), src);
    }
}

impl<T: Element> Clone for BlockedMatrix<T> {
    fn clone(&self) -> Self {
        BlockedMatrix {
            data: self.data.clone(),
            rows: self.rows,
            cols: self.cols,
            br: self.br,
            bc: self.bc,
            grid: self.grid,
            inner: self.inner,
        }
    }
}
