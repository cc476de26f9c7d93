//! Flat VNNI-packed matrices (paper Listing 5, lines 3-4).
//!
//! The Block-SpMM kernel's `execute` takes its dense operands `B` and `C` in
//! a flat VNNI-packed layout `[Nb][rows/v][bn][v]` (and converts them to the
//! GEMM's blocked layouts around the nest): the column dimension is blocked
//! by `bn`, and `v` consecutive *rows* (the reduction dimension for `B`, the
//! `M` dimension for `C`) are interleaved so that low-precision FMA
//! sequences (AVX512-BF16 `VDPBF16PS`, AMX tiles, SVE BFMMLA) can consume
//! them directly.

use crate::buffer::AlignedVec;
use crate::dtype::Element;
use crate::{check_block, TensorError};
use std::ops::Range;

/// A flat `rows x cols` matrix packed as `[Nb][rows/v][bn][v]`.
#[derive(Debug)]
pub struct VnniMatrix<T> {
    data: AlignedVec<T>,
    rows: usize,
    cols: usize,
    bn: usize,
    v: usize,
}

impl<T: Element> VnniMatrix<T> {
    /// Creates a zeroed matrix. `rows` must divide by `v`, `cols` by `bn`.
    pub fn new(rows: usize, cols: usize, bn: usize, v: usize) -> Result<Self, TensorError> {
        check_block("rows (vnni)", rows, v)?;
        check_block("cols", cols, bn)?;
        Ok(VnniMatrix { data: AlignedVec::zeroed(rows * cols), rows, cols, bn, v })
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

    /// Column blocking factor.
    #[inline(always)]
    pub fn bn(&self) -> usize {
        self.bn
    }

    /// VNNI packing factor.
    #[inline(always)]
    pub fn v(&self) -> usize {
        self.v
    }

    /// Number of column blocks.
    #[inline(always)]
    pub fn col_blocks(&self) -> usize {
        self.cols / self.bn
    }

    /// Flat offset of logical element `(r, c)`.
    #[inline(always)]
    fn offset(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.rows && c < self.cols);
        let nb = c / self.bn;
        let cc = c % self.bn;
        ((nb * (self.rows / self.v) + r / self.v) * self.bn + cc) * self.v + r % self.v
    }

    /// Read logical element `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[self.offset(r, c)]
    }

    /// Write logical element `(r, c)`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, val: T) {
        let off = self.offset(r, c);
        self.data[off] = val;
    }

    /// Backing buffer.
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// The storage ranges of column `c`'s `v`-element runs, in row order.
    fn runs(&self, c: usize) -> impl Iterator<Item = Range<usize>> {
        let (bn, v) = (self.bn, self.v);
        let start = (c / bn) * self.rows * bn + (c % bn) * v;
        (0..self.rows / v).map(move |g| start + g * bn * v..start + g * bn * v + v)
    }

    /// Packs from a flat column-major array (leading dimension = rows),
    /// a run at a time.
    pub fn pack_from_colmajor(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.rows * self.cols, "source size mismatch");
        for (c, col) in src.chunks_exact(self.rows).enumerate() {
            for (run, s) in self.runs(c).zip(col.chunks_exact(self.v)) {
                self.data[run].iter_mut().zip(s).for_each(|(d, s)| *d = T::from_f32(*s));
            }
        }
    }

    /// Unpacks to a flat column-major f32 array, a run at a time.
    pub fn unpack_to_colmajor(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for (c, col) in out.chunks_exact_mut(self.rows).enumerate() {
            for (run, d) in self.runs(c).zip(col.chunks_exact_mut(self.v)) {
                d.iter_mut().zip(&self.data[run]).for_each(|(d, s)| *d = s.to_f32());
            }
        }
        out
    }

    /// Builds from a closure over logical `(row, col)` indices.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        bn: usize,
        v: usize,
        mut f: impl FnMut(usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut m = Self::new(rows, cols, bn, v)?;
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
    use crate::dtype::Bf16;

    #[test]
    fn offset_formula_v2() {
        // rows=4, cols=4, bn=2, v=2: layout [2][2][2][2].
        let m = VnniMatrix::<f32>::new(4, 4, 2, 2).unwrap();
        assert_eq!(m.offset(0, 0), 0);
        assert_eq!(m.offset(1, 0), 1);
        assert_eq!(m.offset(0, 1), 2);
        assert_eq!(m.offset(2, 0), 4); // next v-group
        assert_eq!(m.offset(0, 2), 8); // next column block
    }

    #[test]
    fn roundtrip_f32_and_bf16() {
        let src: Vec<f32> = (0..16 * 8).map(|i| i as f32 - 60.0).collect();
        let mut a = VnniMatrix::<f32>::new(16, 8, 4, 1).unwrap();
        a.pack_from_colmajor(&src);
        assert_eq!(a.unpack_to_colmajor(), src);

        let mut b = VnniMatrix::<Bf16>::new(16, 8, 4, 2).unwrap();
        b.pack_from_colmajor(&src);
        assert_eq!(b.unpack_to_colmajor(), src);
    }

    #[test]
    fn rejects_unaligned() {
        assert!(VnniMatrix::<Bf16>::new(7, 8, 4, 2).is_err());
        assert!(VnniMatrix::<Bf16>::new(8, 7, 4, 2).is_err());
    }
}

impl<T: Element> Clone for VnniMatrix<T> {
    fn clone(&self) -> Self {
        VnniMatrix {
            data: self.data.clone(),
            rows: self.rows,
            cols: self.cols,
            bn: self.bn,
            v: self.v,
        }
    }
}
