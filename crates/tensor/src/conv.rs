//! Blocked convolution tensors (paper Listing 4).
//!
//! * Activations: `[N][Cb][H][W][bc]` — feature maps blocked by `bc`, the
//!   block being the innermost (contiguous) dimension.
//! * Weights: `[Kb][Cb][R][S][bc][bk]` — input features outer-of-innermost,
//!   output features innermost, so each `(kb, cb, r, s)` sub-tensor is a
//!   `bk x bc` column-major matrix directly usable as the BRGEMM `A` block.
//! * Outputs: `[N][Kb][P][Q][bk]`.
//!
//! Spatial padding is *physical*: the activation buffer is allocated with
//! `H + 2*pad_h` rows so the compute kernel indexes `ih*stride + ir` without
//! any branch, exactly as in the paper's listing.

use crate::buffer::AlignedVec;
use crate::dtype::Element;
use crate::{check_block, TensorError};

/// Full description of a 2-D convolution problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Minibatch.
    pub n: usize,
    /// Input feature maps.
    pub c: usize,
    /// Output feature maps.
    pub k: usize,
    /// Input spatial height/width (unpadded).
    pub h: usize,
    /// Input spatial width (unpadded).
    pub w: usize,
    /// Filter height.
    pub r: usize,
    /// Filter width.
    pub s: usize,
    /// Spatial stride (same in both dims).
    pub stride: usize,
    /// Spatial zero padding (same in both dims).
    pub pad: usize,
    /// Input feature blocking.
    pub bc: usize,
    /// Output feature blocking.
    pub bk: usize,
}

impl ConvShape {
    /// Output height `P`.
    pub fn p(&self) -> usize {
        (self.h + 2 * self.pad - self.r) / self.stride + 1
    }

    /// Output width `Q`.
    pub fn q(&self) -> usize {
        (self.w + 2 * self.pad - self.s) / self.stride + 1
    }

    /// Number of input feature blocks.
    pub fn cb(&self) -> usize {
        self.c / self.bc
    }

    /// Number of output feature blocks.
    pub fn kb(&self) -> usize {
        self.k / self.bk
    }

    /// Multiply-add count x2 of the forward pass.
    pub fn flops(&self) -> u64 {
        2 * self.n as u64
            * self.k as u64
            * self.c as u64
            * self.p() as u64
            * self.q() as u64
            * self.r as u64
            * self.s as u64
    }

    /// Validates divisibility constraints.
    pub fn validate(&self) -> Result<(), TensorError> {
        check_block("C", self.c, self.bc)?;
        check_block("K", self.k, self.bk)?;
        if self.n == 0 || self.h == 0 || self.w == 0 || self.r == 0 || self.s == 0 {
            return Err(TensorError::ZeroDim("conv spatial"));
        }
        if self.stride == 0 {
            return Err(TensorError::ZeroDim("stride"));
        }
        Ok(())
    }
}

/// Blocked activation tensor `[N][Cb][Hp][Wp][bc]` with physical padding.
#[derive(Debug)]
pub struct ActTensor<T> {
    data: AlignedVec<T>,
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    bc: usize,
    pad: usize,
}

impl<T: Element> ActTensor<T> {
    /// Zeroed activation tensor; `pad` rows/cols of physical zero padding.
    pub fn new(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        bc: usize,
        pad: usize,
    ) -> Result<Self, TensorError> {
        check_block("C", c, bc)?;
        if n == 0 || h == 0 || w == 0 {
            return Err(TensorError::ZeroDim("activation"));
        }
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        Ok(ActTensor { data: AlignedVec::zeroed(n * c * hp * wp), n, c, h, w, bc, pad })
    }

    /// Minibatch extent.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Feature map extent.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Unpadded height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Unpadded width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// Feature blocking.
    pub fn bc(&self) -> usize {
        self.bc
    }

    /// Physical padding.
    pub fn pad(&self) -> usize {
        self.pad
    }

    /// Padded height.
    #[inline(always)]
    pub fn hp(&self) -> usize {
        self.h + 2 * self.pad
    }

    /// Padded width.
    #[inline(always)]
    pub fn wp(&self) -> usize {
        self.w + 2 * self.pad
    }

    /// Flat offset of the `bc`-vector at `(n, cb, y, x)` in *padded*
    /// coordinates (`y in 0..hp`, `x in 0..wp`).
    #[inline(always)]
    fn offset_padded(&self, ni: usize, cb: usize, y: usize, x: usize) -> usize {
        debug_assert!(ni < self.n && cb < self.c / self.bc && y < self.hp() && x < self.wp());
        (((ni * (self.c / self.bc) + cb) * self.hp() + y) * self.wp() + x) * self.bc
    }

    /// Read logical element `(n, ch, y, x)` in unpadded coordinates.
    #[inline(always)]
    pub fn get(&self, ni: usize, ch: usize, y: usize, x: usize) -> T {
        let off = self.offset_padded(ni, ch / self.bc, y + self.pad, x + self.pad) + ch % self.bc;
        self.data[off]
    }

    /// Write logical element `(n, ch, y, x)` in unpadded coordinates.
    #[inline(always)]
    pub fn set(&mut self, ni: usize, ch: usize, y: usize, x: usize, v: T) {
        let off = self.offset_padded(ni, ch / self.bc, y + self.pad, x + self.pad) + ch % self.bc;
        self.data[off] = v;
    }

    /// Backing buffer (padded).
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer (padded). Writing into the halo breaks the
    /// zero-padding invariant; use [`Self::clear_padding`] to restore it.
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Re-zeroes the padding halo (needed after whole-buffer writes).
    pub fn clear_padding(&mut self) {
        if self.pad == 0 {
            return;
        }
        let (hp, wp, bc, pad) = (self.hp(), self.wp(), self.bc, self.pad);
        let cb = self.c / bc;
        for ni in 0..self.n {
            for cbi in 0..cb {
                for y in 0..hp {
                    for x in 0..wp {
                        if y < pad || y >= hp - pad || x < pad || x >= wp - pad {
                            let off = self.offset_padded(ni, cbi, y, x);
                            self.data.as_mut_slice()[off..off + bc]
                                .iter_mut()
                                .for_each(|v| *v = T::default());
                        }
                    }
                }
            }
        }
    }

    /// Builds from a closure over logical `(n, ch, y, x)`.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        bc: usize,
        pad: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut t = Self::new(n, c, h, w, bc, pad)?;
        for ni in 0..n {
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        t.set(ni, ch, y, x, T::from_f32(f(ni, ch, y, x)));
                    }
                }
            }
        }
        Ok(t)
    }
}

/// Blocked convolution weights `[Kb][Cb][R][S][bc][bk]`.
#[derive(Debug)]
pub struct ConvWeights<T> {
    data: AlignedVec<T>,
    c: usize,
    k: usize,
    r: usize,
    s: usize,
    bc: usize,
    bk: usize,
}

impl<T: Element> ConvWeights<T> {
    /// Zeroed weight tensor.
    pub fn new(
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        bc: usize,
        bk: usize,
    ) -> Result<Self, TensorError> {
        check_block("C", c, bc)?;
        check_block("K", k, bk)?;
        if r == 0 || s == 0 {
            return Err(TensorError::ZeroDim("filter"));
        }
        Ok(ConvWeights { data: AlignedVec::zeroed(c * k * r * s), c, k, r, s, bc, bk })
    }

    /// Input feature extent.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Output feature extent.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Filter width.
    pub fn s(&self) -> usize {
        self.s
    }

    /// Input feature blocking.
    pub fn bc(&self) -> usize {
        self.bc
    }

    /// Output feature blocking.
    pub fn bk(&self) -> usize {
        self.bk
    }

    /// Flat offset of the `bc*bk` sub-matrix at `(kb, cb, r, s)`; within it,
    /// element `(ci, ki)` lives at `ci*bk + ki` — a `bk x bc` column-major
    /// matrix, the BRGEMM `A` block of Listing 4.
    #[inline(always)]
    pub fn block_offset(&self, kb: usize, cb: usize, ri: usize, si: usize) -> usize {
        debug_assert!(kb < self.k / self.bk && cb < self.c / self.bc && ri < self.r && si < self.s);
        (((kb * (self.c / self.bc) + cb) * self.r + ri) * self.s + si) * self.bc * self.bk
    }

    /// Read logical element `(ch_in, ch_out, r, s)`.
    #[inline(always)]
    pub fn get(&self, ci: usize, ko: usize, ri: usize, si: usize) -> T {
        let off = self.block_offset(ko / self.bk, ci / self.bc, ri, si)
            + (ci % self.bc) * self.bk
            + ko % self.bk;
        self.data[off]
    }

    /// Write logical element `(ch_in, ch_out, r, s)`.
    #[inline(always)]
    pub fn set(&mut self, ci: usize, ko: usize, ri: usize, si: usize, v: T) {
        let off = self.block_offset(ko / self.bk, ci / self.bc, ri, si)
            + (ci % self.bc) * self.bk
            + ko % self.bk;
        self.data[off] = v;
    }

    /// Backing buffer.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing buffer.
    pub fn data_mut(&mut self) -> &mut [T] {
        self.data.as_mut_slice()
    }

    /// Builds from a closure over `(ch_in, ch_out, r, s)`.
    pub fn from_fn(
        c: usize,
        k: usize,
        r: usize,
        s: usize,
        bc: usize,
        bk: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Result<Self, TensorError> {
        let mut t = Self::new(c, k, r, s, bc, bk)?;
        for ci in 0..c {
            for ko in 0..k {
                for ri in 0..r {
                    for si in 0..s {
                        t.set(ci, ko, ri, si, T::from_f32(f(ci, ko, ri, si)));
                    }
                }
            }
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_output_dims() {
        // ResNet-50 first conv: 224x224, 7x7/s2/p3 -> 112x112.
        let s = ConvShape {
            n: 1,
            c: 4,
            k: 64,
            h: 224,
            w: 224,
            r: 7,
            s: 7,
            stride: 2,
            pad: 3,
            bc: 4,
            bk: 64,
        };
        assert_eq!(s.p(), 112);
        assert_eq!(s.q(), 112);
        s.validate().unwrap();
    }

    #[test]
    fn act_padding_is_zero_and_indexing_consistent() {
        let t = ActTensor::<f32>::from_fn(2, 8, 4, 4, 4, 1, |n, c, y, x| {
            (n * 1000 + c * 100 + y * 10 + x) as f32
        })
        .unwrap();
        assert_eq!(t.get(1, 5, 2, 3), 1523.0);
        // Halo around the image is zero: padded coordinate (0,0) is halo.
        assert_eq!(t.data()[t.offset_padded(0, 0, 0, 0)], 0.0);
        assert_eq!(t.hp(), 6);
        assert_eq!(t.wp(), 6);
    }

    #[test]
    fn act_padded_vs_logical_coordinates() {
        let mut t = ActTensor::<f32>::new(1, 4, 2, 2, 4, 1).unwrap();
        t.set(0, 0, 0, 0, 5.0);
        // Logical (0,0) is padded (1,1).
        let off = t.offset_padded(0, 0, 1, 1);
        assert_eq!(t.data()[off], 5.0);
    }

    #[test]
    fn weight_block_is_bk_x_bc_colmajor() {
        let w = ConvWeights::<f32>::from_fn(4, 6, 3, 3, 2, 3, |ci, ko, r, s| {
            (ci * 1000 + ko * 100 + r * 10 + s) as f32
        })
        .unwrap();
        // Element (ci=3, ko=4, r=1, s=2): block (kb=1, cb=1), inner (ci%2=1, ko%3=1)
        // -> offset block + 1*3 + 1.
        let off = w.block_offset(1, 1, 1, 2) + 3 + 1; // inner (1, 1) at ld 3
        assert_eq!(w.data()[off], 3412.0);
        assert_eq!(w.get(3, 4, 1, 2), 3412.0);
    }

    #[test]
    fn clear_padding_restores_halo() {
        let mut t = ActTensor::<f32>::new(1, 4, 2, 2, 4, 1).unwrap();
        t.data_mut().iter_mut().for_each(|v| *v = 1.0);
        t.clear_padding();
        // Interior survives...
        assert_eq!(t.get(0, 0, 0, 0), 1.0);
        // ...halo is zero again.
        assert_eq!(t.data()[t.offset_padded(0, 0, 0, 0)], 0.0);
        let hp = t.hp();
        let wp = t.wp();
        assert_eq!(t.data()[t.offset_padded(0, 0, hp - 1, wp - 1)], 0.0);
    }

    #[test]
    fn rejects_invalid_shapes() {
        assert!(ActTensor::<f32>::new(1, 5, 4, 4, 4, 0).is_err());
        assert!(ConvWeights::<f32>::new(4, 5, 3, 3, 4, 4).is_err());
        let bad =
            ConvShape { n: 1, c: 4, k: 4, h: 4, w: 4, r: 3, s: 3, stride: 0, pad: 1, bc: 4, bk: 4 };
        assert!(bad.validate().is_err());
    }
}

impl<T: Element> Clone for ActTensor<T> {
    fn clone(&self) -> Self {
        ActTensor {
            data: self.data.clone(),
            n: self.n,
            c: self.c,
            h: self.h,
            w: self.w,
            bc: self.bc,
            pad: self.pad,
        }
    }
}

impl<T: Element> Clone for ConvWeights<T> {
    fn clone(&self) -> Self {
        ConvWeights {
            data: self.data.clone(),
            c: self.c,
            k: self.k,
            r: self.r,
            s: self.s,
            bc: self.bc,
            bk: self.bk,
        }
    }
}
