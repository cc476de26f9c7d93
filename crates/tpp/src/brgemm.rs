//! The Batch-Reduce GEMM TPP — "the main building block for general tensor
//! contractions in the TPP collection" (paper §II-A).
//!
//! BRGEMM materializes `C = beta * C + sum_{i=0}^{brcount-1} A_i x B_i`
//! over column-major `m x k` / `k x n` blocks. All three addressing variants
//! of the paper are provided: *stride* (blocks a fixed element distance
//! apart — Listing 1), *offset* (explicit per-block offsets — used for
//! `R,S`-folded convolutions, §III-B) and *address* (explicit block slices).
//!
//! The microkernel keeps an `MR x NR` tile of f32 accumulators live across
//! the **entire batch reduction** (exactly the register-blocking strategy of
//! libxsmm \[21\]) and only converts to the output element type once per tile.
//! Low-precision inputs widen elementwise to f32 — the AVX512-BF16 / AMX /
//! BFMMLA numerics.

use crate::cache;
use pl_tensor::Element;
use std::sync::Arc;

/// Register tile rows (f32 lanes: two AVX2 vectors / one AVX-512 vector).
const MR: usize = 8;
/// Register tile columns.
const NR: usize = 4;

/// Shape/layout descriptor — the cache key of the "JIT".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrgemmDesc {
    /// Rows of `C` (and of every `A_i`).
    pub m: usize,
    /// Columns of `C` (and of every `B_i`).
    pub n: usize,
    /// Inner-product extent of one block pair.
    pub k: usize,
    /// Leading dimension of `A_i` (>= m).
    pub lda: usize,
    /// Leading dimension of `B_i` (>= k for flat layout; the packed column
    /// count for VNNI layout).
    pub ldb: usize,
    /// Leading dimension of `C` (>= m).
    pub ldc: usize,
    /// `beta == 1` (accumulate into C) versus `beta == 0` (overwrite).
    pub beta_one: bool,
    /// `Some(v)`: `B_i` blocks are VNNI-packed with factor `v`
    /// (element `(p, j)` at `(p/v)*ldb*v + j*v + p%v`).
    pub b_vnni: Option<usize>,
}

impl BrgemmDesc {
    /// Plain GEMM-shaped descriptor with tight leading dimensions and
    /// `beta = 1` (the paper's kernels zero `C` explicitly via `zero_tpp`).
    pub fn blocked(m: usize, n: usize, k: usize) -> Self {
        BrgemmDesc { m, n, k, lda: m, ldb: k, ldc: m, beta_one: true, b_vnni: None }
    }

    /// Same but with VNNI-packed B.
    pub fn blocked_vnni(m: usize, n: usize, k: usize, v: usize) -> Self {
        BrgemmDesc { m, n, k, lda: m, ldb: n, ldc: m, beta_one: true, b_vnni: Some(v) }
    }

    fn validate(&self) {
        assert!(self.m > 0 && self.n > 0 && self.k > 0, "empty BRGEMM shape");
        assert!(self.lda >= self.m, "lda {} < m {}", self.lda, self.m);
        assert!(self.ldc >= self.m, "ldc {} < m {}", self.ldc, self.m);
        match self.b_vnni {
            None => assert!(self.ldb >= self.k, "ldb {} < k {}", self.ldb, self.k),
            Some(v) => {
                assert!(
                    v > 0 && self.k.is_multiple_of(v),
                    "k {} not divisible by vnni {v}",
                    self.k
                );
                assert!(self.ldb >= self.n, "vnni ldb {} < n {}", self.ldb, self.n);
            }
        }
    }

    fn key_words(&self) -> [u64; 8] {
        [
            self.m as u64,
            self.n as u64,
            self.k as u64,
            self.lda as u64,
            self.ldb as u64,
            self.ldc as u64,
            self.beta_one as u64,
            self.b_vnni.map_or(0, |v| v as u64),
        ]
    }
}

/// Batch addressing for one operand (paper's stride/offset/address modes).
#[derive(Clone, Copy)]
pub enum Blocks<'a, T> {
    /// Block `i` starts at `base[i * stride]` (stride in elements).
    Stride {
        /// Backing slice holding all blocks.
        base: &'a [T],
        /// Element distance between consecutive blocks.
        stride: usize,
    },
    /// Block `i` starts at `base[offsets[i]]`.
    Offsets {
        /// Backing slice.
        base: &'a [T],
        /// Per-block element offsets (`len >= brcount`).
        offsets: &'a [usize],
    },
    /// Block `i` is `slices[i]`.
    Address {
        /// Per-block slices (`len >= brcount`).
        slices: &'a [&'a [T]],
    },
}

impl<'a, T> Blocks<'a, T> {
    /// The `i`-th block's backing data (starting at its first element).
    #[inline(always)]
    fn get(&self, i: usize) -> &'a [T] {
        match *self {
            Blocks::Stride { base, stride } => &base[i * stride..],
            Blocks::Offsets { base, offsets } => &base[offsets[i]..],
            Blocks::Address { slices } => slices[i],
        }
    }
}

type KernelFn<TA, TB, TC> =
    for<'a> fn(&BrgemmDesc, Blocks<'a, TA>, Blocks<'a, TB>, &mut [TC], usize);

/// A constructed (and cached) BRGEMM kernel handle.
pub struct Brgemm<TA: Element, TB: Element, TC: Element> {
    desc: BrgemmDesc,
    kernel: KernelFn<TA, TB, TC>,
}

/// Re-exported alias for the addressing modes (paper terminology).
pub type BrgemmVariant<'a, T> = Blocks<'a, T>;

impl<TA: Element, TB: Element, TC: Element> Brgemm<TA, TB, TC> {
    /// Builds (or fetches from the kernel cache) the kernel for `desc`.
    pub fn new(desc: BrgemmDesc) -> Arc<Self> {
        desc.validate();
        let tag = type_tag::<TA, TB, TC>();
        let cached = cache::get_or_jit(cache::hash_key(tag, &desc.key_words()), || Self {
            desc,
            kernel: select_kernel::<TA, TB, TC>(&desc),
        });
        // Hash collisions must never deliver a kernel for another shape.
        assert_eq!(cached.desc, desc, "kernel cache collision");
        cached
    }

    /// The descriptor this kernel was specialized for.
    pub fn desc(&self) -> &BrgemmDesc {
        &self.desc
    }

    /// Executes the batch reduction with arbitrary addressing.
    ///
    /// # Panics
    /// Panics (debug) if a block slice is too short for the descriptor.
    pub fn execute(&self, a: Blocks<'_, TA>, b: Blocks<'_, TB>, c: &mut [TC], brcount: usize) {
        (self.kernel)(&self.desc, a, b, c, brcount);
    }

    /// Stride variant: `addr(A_i) = addr(A_{i-1}) + stride_a` (Listing 1).
    pub fn execute_stride(
        &self,
        a: &[TA],
        stride_a: usize,
        b: &[TB],
        stride_b: usize,
        c: &mut [TC],
        brcount: usize,
    ) {
        self.execute(
            Blocks::Stride { base: a, stride: stride_a },
            Blocks::Stride { base: b, stride: stride_b },
            c,
            brcount,
        );
    }

    /// Offset variant (folded `R`/`S` loops in convolutions, §III-B).
    pub fn execute_offsets(
        &self,
        a: &[TA],
        offs_a: &[usize],
        b: &[TB],
        offs_b: &[usize],
        c: &mut [TC],
    ) {
        let brcount = offs_a.len().min(offs_b.len());
        self.execute(
            Blocks::Offsets { base: a, offsets: offs_a },
            Blocks::Offsets { base: b, offsets: offs_b },
            c,
            brcount,
        );
    }
}

fn type_tag<TA: Element, TB: Element, TC: Element>() -> u64 {
    // Stable small tag per dtype triple; BRGEMM lives in tag-space 1.
    let t = |d: pl_tensor::DType| match d {
        pl_tensor::DType::F32 => 1u64,
        pl_tensor::DType::F64 => 2,
        pl_tensor::DType::Bf16 => 3,
        pl_tensor::DType::I8 => 4,
    };
    (1 << 48) | (t(TA::DTYPE) << 16) | (t(TB::DTYPE) << 8) | t(TC::DTYPE)
}

/// Descriptor for the quantized `i8 x i8 -> i32` BRGEMM.
///
/// Unlike the [`Element`]-generic kernels (which widen everything through
/// f32), the int8 kernel accumulates the inner product **exactly in i32**
/// and dequantizes on store: `C[i, j] (+)= row_scale[i] * col_scale[j] *
/// sum_p qA[i, p] * qB[p, j]`. The `A` operand (the pack-once quantized
/// weight) is VNNI-packed along its *columns* — the reduction dimension for
/// `A` — with factor `a_vnni` ([`pl_tensor::InnerLayout::VnniCols`]); `B`
/// (the per-step quantized activation) is flat column-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrgemmI8Desc {
    /// Rows of `C` (and of every `A_i`).
    pub m: usize,
    /// Columns of `C` (and of every `B_i`).
    pub n: usize,
    /// Inner-product extent of one block pair.
    pub k: usize,
    /// Row count of the VNNI-cols `A` layout (>= m): element `(i, p)` lives
    /// at `(p / v) * lda * v + i * v + p % v`.
    pub lda: usize,
    /// Leading dimension of flat column-major `B_i` (>= k).
    pub ldb: usize,
    /// Leading dimension of `C` (>= m).
    pub ldc: usize,
    /// `beta == 1` (accumulate into f32 `C`) versus `beta == 0` (overwrite).
    pub beta_one: bool,
    /// VNNI factor of the `A` columns; `k % a_vnni == 0`.
    pub a_vnni: usize,
}

impl BrgemmI8Desc {
    /// Tight-leading-dimension descriptor with `beta = 1`.
    pub fn blocked(m: usize, n: usize, k: usize, v: usize) -> Self {
        BrgemmI8Desc { m, n, k, lda: m, ldb: k, ldc: m, beta_one: true, a_vnni: v }
    }

    fn validate(&self) {
        assert!(self.m > 0 && self.n > 0 && self.k > 0, "empty BRGEMM shape");
        assert!(self.lda >= self.m, "lda {} < m {}", self.lda, self.m);
        assert!(self.ldb >= self.k, "ldb {} < k {}", self.ldb, self.k);
        assert!(self.ldc >= self.m, "ldc {} < m {}", self.ldc, self.m);
        assert!(
            self.a_vnni > 0 && self.k.is_multiple_of(self.a_vnni),
            "k {} not divisible by vnni {}",
            self.k,
            self.a_vnni
        );
    }

    fn key_words(&self) -> [u64; 8] {
        [
            self.m as u64,
            self.n as u64,
            self.k as u64,
            self.lda as u64,
            self.ldb as u64,
            self.ldc as u64,
            self.beta_one as u64,
            self.a_vnni as u64,
        ]
    }
}

/// A constructed (and cached) int8 BRGEMM kernel handle.
pub struct BrgemmI8 {
    desc: BrgemmI8Desc,
}

impl BrgemmI8 {
    /// Builds (or fetches from the kernel cache) the kernel for `desc`.
    pub fn new(desc: BrgemmI8Desc) -> Arc<Self> {
        desc.validate();
        // Int8 BRGEMM lives in tag-space 2 (disjoint from the generic
        // kernels: its descriptor has different field semantics).
        let cached =
            cache::get_or_jit(cache::hash_key(2 << 48, &desc.key_words()), || Self { desc });
        assert_eq!(cached.desc, desc, "kernel cache collision");
        cached
    }

    /// The descriptor this kernel was specialized for.
    pub fn desc(&self) -> &BrgemmI8Desc {
        &self.desc
    }

    /// Stride-addressed batch reduction with dequantize-on-store.
    ///
    /// `row_scales[i]` is the quantization scale of `A` row `i` (per output
    /// channel), `col_scales[j]` of `B` column `j` (per token). The i32
    /// accumulator is exact while `k * brcount <= i32::MAX / 127^2`
    /// (~133k reduction elements) — far beyond any block shape in use.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_stride(
        &self,
        a: &[i8],
        stride_a: usize,
        b: &[i8],
        stride_b: usize,
        c: &mut [f32],
        brcount: usize,
        row_scales: &[f32],
        col_scales: &[f32],
    ) {
        let BrgemmI8Desc { m, n, k, lda, ldb, ldc, beta_one, a_vnni: v } = self.desc;
        debug_assert!(row_scales.len() >= m, "row scales shorter than m");
        debug_assert!(col_scales.len() >= n, "col scales shorter than n");
        let mut j0 = 0;
        while j0 < n {
            let nr = NR.min(n - j0);
            let mut i0 = 0;
            while i0 < m {
                let mr = MR.min(m - i0);
                let mut acc = [[0i32; MR]; NR];
                for blk in 0..brcount {
                    let ab = &a[blk * stride_a..];
                    let bb = &b[blk * stride_b..];
                    for p in 0..k {
                        let abase = (p / v) * lda * v + p % v;
                        for (jj, accj) in acc.iter_mut().enumerate().take(nr) {
                            let bv = bb[(j0 + jj) * ldb + p] as i32;
                            for (ii, dst) in accj.iter_mut().enumerate().take(mr) {
                                let av = ab[abase + (i0 + ii) * v] as i32;
                                *dst += av * bv;
                            }
                        }
                    }
                }
                for (jj, accj) in acc.iter().enumerate().take(nr) {
                    let cs = col_scales[j0 + jj];
                    for (ii, &sum) in accj.iter().enumerate().take(mr) {
                        let deq = row_scales[i0 + ii] * cs * sum as f32;
                        let idx = (j0 + jj) * ldc + i0 + ii;
                        c[idx] = if beta_one { c[idx] + deq } else { deq };
                    }
                }
                i0 += MR;
            }
            j0 += NR;
        }
    }
}

/// "Code generation": pick the monomorphized kernel for this descriptor.
fn select_kernel<TA: Element, TB: Element, TC: Element>(desc: &BrgemmDesc) -> KernelFn<TA, TB, TC> {
    match desc.b_vnni {
        None => kernel_flat::<TA, TB, TC> as KernelFn<TA, TB, TC>,
        Some(_) => kernel_vnni::<TA, TB, TC> as KernelFn<TA, TB, TC>,
    }
}

/// Flat-B microkernel: MRxNR register tiles held across the batch reduction.
fn kernel_flat<TA: Element, TB: Element, TC: Element>(
    desc: &BrgemmDesc,
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
) {
    let &BrgemmDesc { m, n, k, lda, ldb, ldc, beta_one, .. } = desc;
    let mut j0 = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            if mr == MR && nr == NR {
                tile_full_flat::<TA, TB, TC>(a, b, c, brcount, k, lda, ldb, ldc, i0, j0, beta_one);
            } else {
                tile_edge_flat::<TA, TB, TC>(
                    a, b, c, brcount, k, lda, ldb, ldc, i0, j0, mr, nr, beta_one,
                );
            }
            i0 += MR;
        }
        j0 += NR;
    }
}

/// Full MRxNR tile, flat B.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_full_flat<TA: Element, TB: Element, TC: Element>(
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
    k: usize,
    lda: usize,
    ldb: usize,
    ldc: usize,
    i0: usize,
    j0: usize,
    beta_one: bool,
) {
    let mut acc = [[0.0f32; MR]; NR];
    if beta_one {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let ccol = &c[(j0 + jj) * ldc + i0..(j0 + jj) * ldc + i0 + MR];
            for (ii, dst) in accj.iter_mut().enumerate() {
                *dst = ccol[ii].to_f32();
            }
        }
    }
    for blk in 0..brcount {
        let ab = a.get(blk);
        let bb = b.get(blk);
        for p in 0..k {
            let acol = &ab[p * lda + i0..p * lda + i0 + MR];
            let mut av = [0.0f32; MR];
            for (dst, src) in av.iter_mut().zip(acol) {
                *dst = src.to_f32();
            }
            for (jj, accj) in acc.iter_mut().enumerate() {
                let bv = bb[(j0 + jj) * ldb + p].to_f32();
                for ii in 0..MR {
                    accj[ii] = av[ii].mul_add(bv, accj[ii]);
                }
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let ccol = &mut c[(j0 + jj) * ldc + i0..(j0 + jj) * ldc + i0 + MR];
        for (dst, src) in ccol.iter_mut().zip(accj) {
            *dst = TC::from_f32(*src);
        }
    }
}

/// Remainder tile, flat B (scalar, still f32-accumulated across the batch).
#[allow(clippy::too_many_arguments)]
fn tile_edge_flat<TA: Element, TB: Element, TC: Element>(
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
    k: usize,
    lda: usize,
    ldb: usize,
    ldc: usize,
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    beta_one: bool,
) {
    let mut acc = [[0.0f32; MR]; NR];
    if beta_one {
        for jj in 0..nr {
            for ii in 0..mr {
                acc[jj][ii] = c[(j0 + jj) * ldc + i0 + ii].to_f32();
            }
        }
    }
    for blk in 0..brcount {
        let ab = a.get(blk);
        let bb = b.get(blk);
        for p in 0..k {
            for jj in 0..nr {
                let bv = bb[(j0 + jj) * ldb + p].to_f32();
                for ii in 0..mr {
                    let av = ab[p * lda + i0 + ii].to_f32();
                    acc[jj][ii] = av.mul_add(bv, acc[jj][ii]);
                }
            }
        }
    }
    for jj in 0..nr {
        for ii in 0..mr {
            c[(j0 + jj) * ldc + i0 + ii] = TC::from_f32(acc[jj][ii]);
        }
    }
}

/// VNNI-B microkernel: B element `(p, j)` at `(p/v)*ldb*v + j*v + p%v`.
fn kernel_vnni<TA: Element, TB: Element, TC: Element>(
    desc: &BrgemmDesc,
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
) {
    let &BrgemmDesc { m, n, k, lda, ldb, ldc, beta_one, b_vnni } = desc;
    let v = b_vnni.expect("vnni kernel without vnni factor");
    let mut j0 = 0;
    while j0 < n {
        let nr = NR.min(n - j0);
        let mut i0 = 0;
        while i0 < m {
            let mr = MR.min(m - i0);
            let mut acc = [[0.0f32; MR]; NR];
            if beta_one {
                for jj in 0..nr {
                    for ii in 0..mr {
                        acc[jj][ii] = c[(j0 + jj) * ldc + i0 + ii].to_f32();
                    }
                }
            }
            for blk in 0..brcount {
                let ab = a.get(blk);
                let bb = b.get(blk);
                for p in 0..k {
                    let boff = (p / v) * ldb * v + p % v;
                    for jj in 0..nr {
                        let bv = bb[boff + (j0 + jj) * v].to_f32();
                        for ii in 0..mr {
                            let av = ab[p * lda + i0 + ii].to_f32();
                            acc[jj][ii] = av.mul_add(bv, acc[jj][ii]);
                        }
                    }
                }
            }
            for jj in 0..nr {
                for ii in 0..mr {
                    c[(j0 + jj) * ldc + i0 + ii] = TC::from_f32(acc[jj][ii]);
                }
            }
            i0 += MR;
        }
        j0 += NR;
    }
}

/// Scalar reference implementation (f64 accumulation) for testing.
pub fn reference_brgemm(
    m: usize,
    n: usize,
    k: usize,
    a_blocks: &[Vec<f32>],
    b_blocks: &[Vec<f32>],
    c: &mut [f32],
    beta: f32,
) {
    for j in 0..n {
        for i in 0..m {
            let mut acc = (c[j * m + i] * beta) as f64;
            for (ab, bb) in a_blocks.iter().zip(b_blocks) {
                for p in 0..k {
                    acc += ab[p * m + i] as f64 * bb[j * k + p] as f64;
                }
            }
            c[j * m + i] = acc as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::{Bf16, Xorshift};

    fn rand_vec(rng: &mut Xorshift, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.next_f32() - 0.5).collect()
    }

    fn run_case(m: usize, n: usize, k: usize, br: usize, beta_one: bool) {
        let mut rng = Xorshift::new((m * 31 + n * 7 + k + br) as u64);
        let a_blocks: Vec<Vec<f32>> = (0..br).map(|_| rand_vec(&mut rng, m * k)).collect();
        let b_blocks: Vec<Vec<f32>> = (0..br).map(|_| rand_vec(&mut rng, k * n)).collect();
        let c_init = rand_vec(&mut rng, m * n);

        let mut c_ref = c_init.clone();
        reference_brgemm(m, n, k, &a_blocks, &b_blocks, &mut c_ref, beta_one as u8 as f32);

        // Flatten blocks contiguously for the stride variant.
        let a_flat: Vec<f32> = a_blocks.iter().flatten().copied().collect();
        let b_flat: Vec<f32> = b_blocks.iter().flatten().copied().collect();
        let mut c = c_init.clone();
        let desc = BrgemmDesc { beta_one, ..BrgemmDesc::blocked(m, n, k) };
        let kernel = Brgemm::<f32, f32, f32>::new(desc);
        kernel.execute_stride(&a_flat, m * k, &b_flat, k * n, &mut c, br);

        for i in 0..m * n {
            assert!(
                (c[i] - c_ref[i]).abs() < 1e-4 * (k * br) as f32,
                "m={m} n={n} k={k} br={br} idx={i}: {} vs {}",
                c[i],
                c_ref[i]
            );
        }
    }

    #[test]
    fn matches_reference_various_shapes() {
        for &(m, n, k, br) in &[
            (8, 4, 8, 1),
            (8, 4, 8, 4),
            (16, 16, 32, 2),
            (7, 5, 3, 2),  // edge tiles everywhere
            (9, 6, 10, 3), // mixed full/edge
            (1, 1, 1, 1),  // degenerate
            (32, 32, 64, 1),
        ] {
            run_case(m, n, k, br, true);
            run_case(m, n, k, br, false);
        }
    }

    #[test]
    fn beta_zero_overwrites_garbage() {
        let m = 8;
        let n = 8;
        let k = 8;
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![f32::NAN; m * n];
        let desc = BrgemmDesc { beta_one: false, ..BrgemmDesc::blocked(m, n, k) };
        let kernel = Brgemm::<f32, f32, f32>::new(desc);
        kernel.execute_stride(&a, 0, &b, 0, &mut c, 1);
        assert!(c.iter().all(|&v| v == k as f32));
    }

    #[test]
    fn offsets_variant_matches_stride() {
        let (m, n, k, br) = (8, 8, 4, 3);
        let mut rng = Xorshift::new(5);
        let a = rand_vec(&mut rng, m * k * br);
        let b = rand_vec(&mut rng, k * n * br);
        let desc = BrgemmDesc::blocked(m, n, k);
        let kernel = Brgemm::<f32, f32, f32>::new(desc);
        let mut c1 = vec![0.0f32; m * n];
        kernel.execute_stride(&a, m * k, &b, k * n, &mut c1, br);
        let offs_a: Vec<usize> = (0..br).map(|i| i * m * k).collect();
        let offs_b: Vec<usize> = (0..br).map(|i| i * k * n).collect();
        let mut c2 = vec![0.0f32; m * n];
        kernel.execute_offsets(&a, &offs_a, &b, &offs_b, &mut c2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn address_variant_matches_stride() {
        let (m, n, k, br) = (8, 4, 4, 2);
        let mut rng = Xorshift::new(9);
        let a = rand_vec(&mut rng, m * k * br);
        let b = rand_vec(&mut rng, k * n * br);
        let desc = BrgemmDesc::blocked(m, n, k);
        let kernel = Brgemm::<f32, f32, f32>::new(desc);
        let mut c1 = vec![0.0f32; m * n];
        kernel.execute_stride(&a, m * k, &b, k * n, &mut c1, br);
        let a_slices: Vec<&[f32]> = (0..br).map(|i| &a[i * m * k..]).collect();
        let b_slices: Vec<&[f32]> = (0..br).map(|i| &b[i * k * n..]).collect();
        let mut c2 = vec![0.0f32; m * n];
        kernel.execute(
            Blocks::Address { slices: &a_slices },
            Blocks::Address { slices: &b_slices },
            &mut c2,
            br,
        );
        assert_eq!(c1, c2);
    }

    #[test]
    fn bf16_inputs_f32_accumulation() {
        let (m, n, k) = (8, 8, 32);
        let mut rng = Xorshift::new(17);
        let af = rand_vec(&mut rng, m * k);
        let bf = rand_vec(&mut rng, k * n);
        // Quantize to bf16 first so the reference sees the same values.
        let a: Vec<Bf16> = af.iter().map(|&v| Bf16::from(v)).collect();
        let b: Vec<Bf16> = bf.iter().map(|&v| Bf16::from(v)).collect();
        let aq: Vec<f32> = a.iter().map(|v| v.to_f32()).collect();
        let bq: Vec<f32> = b.iter().map(|v| v.to_f32()).collect();
        let mut c_ref = vec![0.0f32; m * n];
        reference_brgemm(m, n, k, &[aq], &[bq], &mut c_ref, 0.0);

        let desc = BrgemmDesc { beta_one: false, ..BrgemmDesc::blocked(m, n, k) };
        let kernel = Brgemm::<Bf16, Bf16, f32>::new(desc);
        let mut c = vec![0.0f32; m * n];
        kernel.execute_stride(&a, 0, &b, 0, &mut c, 1);
        for i in 0..m * n {
            // f32 accumulation over bf16 products: tight tolerance.
            assert!((c[i] - c_ref[i]).abs() < 1e-5 * k as f32, "{} vs {}", c[i], c_ref[i]);
        }
    }

    #[test]
    fn vnni_b_matches_flat() {
        let (m, n, k, v) = (8, 8, 16, 2);
        let mut rng = Xorshift::new(23);
        let a = rand_vec(&mut rng, m * k);
        let b_flat = rand_vec(&mut rng, k * n);
        // Pack B into VNNI-2.
        let mut b_vnni = vec![0.0f32; k * n];
        crate::transform::vnni_pack(k, n, v, &b_flat, k, &mut b_vnni, n);

        let flat = Brgemm::<f32, f32, f32>::new(BrgemmDesc {
            beta_one: false,
            ..BrgemmDesc::blocked(m, n, k)
        });
        let vnni = Brgemm::<f32, f32, f32>::new(BrgemmDesc {
            beta_one: false,
            ..BrgemmDesc::blocked_vnni(m, n, k, v)
        });
        let mut c1 = vec![0.0f32; m * n];
        flat.execute_stride(&a, 0, &b_flat, 0, &mut c1, 1);
        let mut c2 = vec![0.0f32; m * n];
        vnni.execute_stride(&a, 0, &b_vnni, 0, &mut c2, 1);
        for i in 0..m * n {
            assert!((c1[i] - c2[i]).abs() < 1e-5, "{} vs {}", c1[i], c2[i]);
        }
    }

    #[test]
    fn kernel_handles_are_cached() {
        let desc = BrgemmDesc::blocked(24, 24, 24);
        let k1 = Brgemm::<f32, f32, f32>::new(desc);
        let k2 = Brgemm::<f32, f32, f32>::new(desc);
        assert!(Arc::ptr_eq(&k1, &k2));
        // Distinct dtype triple -> distinct handle.
        let _k3 = Brgemm::<Bf16, Bf16, f32>::new(BrgemmDesc {
            // same shape, different types must not collide in the cache
            ..desc
        });
    }

    /// i64 reference for the quantized kernel: exact integer inner product,
    /// one f32 dequant multiply per element — the same arithmetic the
    /// kernel must perform, so results compare bitwise.
    fn reference_i8(
        m: usize,
        n: usize,
        k: usize,
        a_blocks: &[Vec<i8>], // column-major m x k
        b_blocks: &[Vec<i8>], // column-major k x n
        rs: &[f32],
        cs: &[f32],
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for j in 0..n {
            for i in 0..m {
                let mut acc: i64 = 0;
                for (ab, bb) in a_blocks.iter().zip(b_blocks) {
                    for p in 0..k {
                        acc += ab[p * m + i] as i64 * bb[j * k + p] as i64;
                    }
                }
                c[j * m + i] = rs[i] * cs[j] * acc as f32;
            }
        }
        c
    }

    fn pack_a_vnni_cols(src: &[i8], m: usize, k: usize, v: usize) -> Vec<i8> {
        let mut out = vec![0i8; m * k];
        for p in 0..k {
            for i in 0..m {
                out[(p / v) * m * v + i * v + p % v] = src[p * m + i];
            }
        }
        out
    }

    #[test]
    fn i8_kernel_matches_integer_reference() {
        for &(m, n, k, br, v) in &[
            (8, 4, 8, 1, 4),
            (16, 8, 32, 2, 4),
            (7, 5, 8, 2, 4),
            (9, 6, 12, 3, 2),
            (8, 1, 16, 1, 4),
        ] {
            let mut rng = Xorshift::new((m * 13 + n * 5 + k + br) as u64);
            let gen = |rng: &mut Xorshift, len: usize| -> Vec<i8> {
                (0..len).map(|_| ((rng.next_f32() - 0.5) * 254.0) as i8).collect()
            };
            let a_blocks: Vec<Vec<i8>> = (0..br).map(|_| gen(&mut rng, m * k)).collect();
            let b_blocks: Vec<Vec<i8>> = (0..br).map(|_| gen(&mut rng, k * n)).collect();
            let rs: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
            let cs: Vec<f32> = (0..n).map(|j| 0.02 + j as f32 * 0.005).collect();
            let c_ref = reference_i8(m, n, k, &a_blocks, &b_blocks, &rs, &cs);

            let a_flat: Vec<i8> =
                a_blocks.iter().flat_map(|blk| pack_a_vnni_cols(blk, m, k, v)).collect();
            let b_flat: Vec<i8> = b_blocks.iter().flatten().copied().collect();
            let mut c = vec![0.0f32; m * n];
            let desc = BrgemmI8Desc { beta_one: false, ..BrgemmI8Desc::blocked(m, n, k, v) };
            let kernel = BrgemmI8::new(desc);
            kernel.execute_stride(&a_flat, m * k, &b_flat, k * n, &mut c, br, &rs, &cs);
            assert_eq!(c, c_ref, "m={m} n={n} k={k} br={br} v={v}");
        }
    }

    #[test]
    fn i8_kernel_beta_one_accumulates() {
        let (m, n, k, v) = (8, 4, 8, 4);
        let a = pack_a_vnni_cols(&vec![1i8; m * k], m, k, v);
        let b = vec![1i8; k * n];
        let rs = vec![0.5f32; m];
        let cs = vec![2.0f32; n];
        let mut c = vec![10.0f32; m * n];
        let kernel = BrgemmI8::new(BrgemmI8Desc::blocked(m, n, k, v));
        kernel.execute_stride(&a, 0, &b, 0, &mut c, 1, &rs, &cs);
        // 10 + 0.5 * 2.0 * (1*1 summed over k=8) = 18.
        assert!(c.iter().all(|&x| x == 18.0), "{c:?}");
    }

    #[test]
    fn i8_kernel_handles_are_cached() {
        let desc = BrgemmI8Desc::blocked(24, 8, 24, 4);
        let k1 = BrgemmI8::new(desc);
        let k2 = BrgemmI8::new(desc);
        assert!(Arc::ptr_eq(&k1, &k2));
    }

    #[test]
    #[should_panic(expected = "not divisible by vnni")]
    fn i8_kernel_rejects_unaligned_k() {
        let _ = BrgemmI8::new(BrgemmI8Desc::blocked(8, 8, 6, 4));
    }

    #[test]
    #[should_panic(expected = "lda")]
    fn rejects_bad_leading_dim() {
        let _ = Brgemm::<f32, f32, f32>::new(BrgemmDesc { lda: 4, ..BrgemmDesc::blocked(8, 8, 8) });
    }

    #[test]
    fn strided_lds_work() {
        // A stored with lda > m, C with ldc > m.
        let (m, n, k) = (4, 3, 5);
        let (lda, ldb, ldc) = (7, 9, 6);
        let mut rng = Xorshift::new(31);
        let a = rand_vec(&mut rng, lda * k);
        let b = rand_vec(&mut rng, ldb * n);
        let mut c = vec![0.0f32; ldc * n];
        let desc = BrgemmDesc { m, n, k, lda, ldb, ldc, beta_one: false, b_vnni: None };
        let kernel = Brgemm::<f32, f32, f32>::new(desc);
        kernel.execute_stride(&a, 0, &b, 0, &mut c, 1);
        for j in 0..n {
            for i in 0..m {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[p * lda + i] as f64 * b[j * ldb + p] as f64;
                }
                assert!((c[j * ldc + i] - acc as f32).abs() < 1e-4);
            }
        }
    }
}
