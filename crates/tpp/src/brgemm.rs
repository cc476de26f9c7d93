//! The Batch-Reduce GEMM TPP — "the main building block for general tensor
//! contractions in the TPP collection" (paper §II-A).
//!
//! BRGEMM materializes `C = beta * C + sum_{i=0}^{brcount-1} A_i x B_i`
//! over column-major `m x k` / `k x n` blocks. All three addressing variants
//! of the paper are provided: *stride* (blocks a fixed element distance
//! apart — Listing 1), *offset* (explicit per-block offsets — used for
//! `R,S`-folded convolutions, §III-B) and *address* (explicit block slices).
//!
//! Every kernel runs one tile body: an `MR x NR` tile of accumulators kept
//! live across the **entire batch reduction** (exactly the register-blocking
//! strategy of libxsmm \[21\]), converted to the output type once per tile.
//! It is instantiated per column count `NR` in 1..=4 (a width-1 call is a
//! full `NR = 1` tile; a ragged last row tile is a runtime row count) and
//! per arithmetic: [`Brgemm`] widens its inputs elementwise to f32 and adds
//! each product with one `mul_add` (the AVX512-BF16 / AMX / BFMMLA
//! numerics); [`BrgemmI8`] sums exactly in i32 over a VNNI-packed `A` and
//! dequantizes on store.

use pl_tensor::Element;
use std::marker::PhantomData;

/// Register tile rows: 8 f32 lanes, one AVX2 vector.
const MR: usize = 8;
/// Register tile columns of a full column panel.
const NR: usize = 4;

/// Shape/layout descriptor of one BRGEMM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BrgemmDesc {
    /// Rows of `C` (and of every `A_i`).
    pub m: usize,
    /// Columns of `C` (and of every `B_i`).
    pub n: usize,
    /// Inner-product extent of one block pair.
    pub k: usize,
    /// Leading dimension of `A_i` (>= m); for [`BrgemmI8`] the row count
    /// of its VNNI-cols layout.
    pub lda: usize,
    /// Leading dimension of `B_i` (>= k).
    pub ldb: usize,
    /// Leading dimension of `C` (>= m).
    pub ldc: usize,
    /// `beta == 1` (accumulate into C) versus `beta == 0` (overwrite).
    pub beta_one: bool,
}

impl BrgemmDesc {
    /// Plain GEMM-shaped descriptor with tight leading dimensions and
    /// `beta = 1` (the paper's kernels zero `C` explicitly via `zero_tpp`).
    pub fn blocked(m: usize, n: usize, k: usize) -> Self {
        BrgemmDesc { m, n, k, lda: m, ldb: k, ldc: m, beta_one: true }
    }

    fn validate(&self) {
        assert!(self.m > 0 && self.n > 0 && self.k > 0, "empty BRGEMM shape");
        assert!(self.lda >= self.m, "lda {} < m {}", self.lda, self.m);
        assert!(self.ldb >= self.k, "ldb {} < k {}", self.ldb, self.k);
        assert!(self.ldc >= self.m, "ldc {} < m {}", self.ldc, self.m);
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
    fn get(&self, i: usize) -> &'a [T] {
        match *self {
            Blocks::Stride { base, stride } => &base[i * stride..],
            Blocks::Offsets { base, offsets } => &base[offsets[i]..],
            Blocks::Address { slices } => slices[i],
        }
    }
}

/// A BRGEMM kernel handle: a validated descriptor and the element types,
/// which select the monomorphized tile body. Building one is a few
/// compares, so callers make them where they need them.
#[derive(Debug, Clone, Copy)]
pub struct Brgemm<TA: Element, TB: Element, TC: Element> {
    desc: BrgemmDesc,
    types: PhantomData<fn(TA, TB) -> TC>,
}

impl<TA: Element, TB: Element, TC: Element> Brgemm<TA, TB, TC> {
    /// The kernel for `desc`.
    ///
    /// # Panics
    /// Panics if the shape is empty or a leading dimension is shorter
    /// than its extent.
    pub fn new(desc: BrgemmDesc) -> Self {
        desc.validate();
        Self { desc, types: PhantomData }
    }

    /// The descriptor this kernel was specialized for.
    pub fn desc(&self) -> &BrgemmDesc {
        &self.desc
    }

    /// Executes the batch reduction with arbitrary addressing.
    ///
    /// # Panics
    /// Panics if a block slice or `c` is too short for the descriptor.
    pub fn execute(&self, a: Blocks<'_, TA>, b: Blocks<'_, TB>, c: &mut [TC], brcount: usize) {
        run_tiles(Fma, &self.desc, a, b, c, brcount);
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

    /// Offset variant (folded `R`/`S` loops in convolutions, §III-B): one
    /// block pair per entry of the two offset lists.
    ///
    /// # Panics
    /// Panics if the two offset lists differ in length.
    pub fn execute_offsets(
        &self,
        a: &[TA],
        offs_a: &[usize],
        b: &[TB],
        offs_b: &[usize],
        c: &mut [TC],
    ) {
        assert_eq!(offs_a.len(), offs_b.len(), "A and B offset lists differ in length");
        self.execute(
            Blocks::Offsets { base: a, offsets: offs_a },
            Blocks::Offsets { base: b, offsets: offs_b },
            c,
            offs_a.len(),
        );
    }
}

/// The quantized `i8 x i8 -> i32` BRGEMM kernel handle.
///
/// Unlike the [`Element`]-generic kernels (which widen everything through
/// f32), the int8 kernel accumulates the inner product **exactly in i32**
/// and dequantizes on store: `C[i, j] (+)= row_scale[i] * col_scale[j] *
/// sum_p qA[i, p] * qB[p, j]`. The `A` operand (the pack-once quantized
/// weight) is VNNI-packed along its *columns* — the reduction dimension for
/// `A` — with factor `a_vnni` ([`pl_tensor::InnerLayout::VnniCols`]): its
/// element `(i, p)` lives at `(p / v) * lda * v + i * v + p % v`. `B` (the
/// per-step quantized activation) is flat column-major, and `C` is f32.
#[derive(Debug, Clone, Copy)]
pub struct BrgemmI8 {
    desc: BrgemmDesc,
    a_vnni: usize,
}

impl BrgemmI8 {
    /// The kernel for `desc` over an `A` packed with VNNI factor `a_vnni`.
    ///
    /// # Panics
    /// Panics where [`Brgemm::new`] does, or if `a_vnni` does not divide
    /// `desc.k`.
    pub fn new(desc: BrgemmDesc, a_vnni: usize) -> Self {
        desc.validate();
        assert!(
            a_vnni > 0 && desc.k.is_multiple_of(a_vnni),
            "k {} not divisible by vnni {a_vnni}",
            desc.k
        );
        Self { desc, a_vnni }
    }

    /// The descriptor this kernel was specialized for.
    pub fn desc(&self) -> &BrgemmDesc {
        &self.desc
    }

    /// Stride-addressed batch reduction with dequantize-on-store.
    ///
    /// `row_scales[i]` is the quantization scale of `A` row `i` (per output
    /// channel), `col_scales[j]` of `B` column `j` (per token). For
    /// operands in `[-127, 127]`, the range the quantizers emit, the i32
    /// accumulator is exact while `k * brcount <= i32::MAX / 127^2` (~133k
    /// reduction elements) — far beyond any block shape in use.
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
        let BrgemmI8 { desc, a_vnni } = *self;
        debug_assert!(row_scales.len() >= desc.m, "row scales shorter than m");
        debug_assert!(col_scales.len() >= desc.n, "col scales shorter than n");
        run_tiles(
            Dequant { a_vnni, beta_one: desc.beta_one, row_scales, col_scales },
            &desc,
            Blocks::Stride { base: a, stride: stride_a },
            Blocks::Stride { base: b, stride: stride_b },
            c,
            brcount,
        );
    }
}

/// The arithmetic a tile runs: how operands widen into the accumulator,
/// how it accumulates, and how it meets `C` before and after the batch.
trait Arith<TA, TB, TC>: Copy {
    /// The accumulator element held across the batch reduction.
    type Acc: Copy + Default;
    /// VNNI factor `v` of the `A` columns: element `(i, p)` of an `A`
    /// block lives at `(p / v) * lda * v + i * v + p % v`. Flat
    /// column-major `A` is `v = 1`.
    fn a_vnni(self) -> usize;
    fn widen_a(a: TA) -> Self::Acc;
    fn widen_b(b: TB) -> Self::Acc;
    /// `acc + a * b`.
    fn madd(a: Self::Acc, b: Self::Acc, acc: Self::Acc) -> Self::Acc;
    /// The accumulator's start value for output element `c` when
    /// `beta = 1` (it starts at zero when `beta = 0`).
    fn load(self, c: &TC) -> Self::Acc;
    /// Stores the finished accumulator of output element `(i, j)`.
    fn store(self, acc: Self::Acc, c: &mut TC, i: usize, j: usize);
}

/// [`Brgemm`]'s arithmetic: flat `A`, f32 accumulation with one fused
/// multiply-add per product, `beta = 1` by starting from `C`.
#[derive(Clone, Copy)]
struct Fma;

impl<TA: Element, TB: Element, TC: Element> Arith<TA, TB, TC> for Fma {
    type Acc = f32;
    fn a_vnni(self) -> usize {
        1
    }
    fn widen_a(a: TA) -> f32 {
        a.to_f32()
    }
    fn widen_b(b: TB) -> f32 {
        b.to_f32()
    }
    fn madd(a: f32, b: f32, acc: f32) -> f32 {
        a.mul_add(b, acc)
    }
    fn load(self, c: &TC) -> f32 {
        c.to_f32()
    }
    fn store(self, acc: f32, c: &mut TC, _: usize, _: usize) {
        *c = TC::from_f32(acc);
    }
}

/// [`BrgemmI8`]'s arithmetic: VNNI-cols `A`, an exact i32 sum (a
/// dequantized `C` cannot join it), dequantized on store and then added
/// to `C` when `beta = 1`.
#[derive(Clone, Copy)]
struct Dequant<'s> {
    a_vnni: usize,
    beta_one: bool,
    row_scales: &'s [f32],
    col_scales: &'s [f32],
}

impl Arith<i8, i8, f32> for Dequant<'_> {
    type Acc = i32;
    fn a_vnni(self) -> usize {
        self.a_vnni
    }
    fn widen_a(a: i8) -> i32 {
        a as i32
    }
    fn widen_b(b: i8) -> i32 {
        b as i32
    }
    fn madd(a: i32, b: i32, acc: i32) -> i32 {
        acc + a * b
    }
    fn load(self, _: &f32) -> i32 {
        0
    }
    fn store(self, acc: i32, c: &mut f32, i: usize, j: usize) {
        let deq = self.row_scales[i] * self.col_scales[j] * acc as f32;
        *c = if self.beta_one { *c + deq } else { deq };
    }
}

/// The one tile loop: walks `C` in column panels of `NR` columns (the last
/// one ragged) and runs each panel with the tile body of its width.
fn run_tiles<TA: Copy, TB: Copy, TC, R: Arith<TA, TB, TC>>(
    arith: R,
    t: &BrgemmDesc,
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
) {
    for j0 in (0..t.n).step_by(NR) {
        match t.n - j0 {
            1 => panel::<1, _, _, _, _>(arith, t, a, b, c, brcount, j0),
            2 => panel::<2, _, _, _, _>(arith, t, a, b, c, brcount, j0),
            3 => panel::<3, _, _, _, _>(arith, t, a, b, c, brcount, j0),
            _ => panel::<NR, _, _, _, _>(arith, t, a, b, c, brcount, j0),
        }
    }
}

/// One `W`-column panel, top to bottom. A full tile passes the constant
/// `MR` as its row count, so only a ragged last tile loops a runtime count.
#[inline(always)]
fn panel<const W: usize, TA: Copy, TB: Copy, TC, R: Arith<TA, TB, TC>>(
    arith: R,
    t: &BrgemmDesc,
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
    j0: usize,
) {
    for i0 in (0..t.m).step_by(MR) {
        let mr = MR.min(t.m - i0);
        if mr == MR {
            tile::<W, _, _, _, _>(arith, t, a, b, c, brcount, (i0, j0, MR));
        } else {
            tile::<W, _, _, _, _>(arith, t, a, b, c, brcount, (i0, j0, mr));
        }
    }
}

/// The one tile body: the `mr x W` tile of `C` at `(i0, j0)` (`mr <= MR`),
/// accumulated across all `brcount` block pairs in k order, then stored.
#[inline(always)]
fn tile<const W: usize, TA: Copy, TB: Copy, TC, R: Arith<TA, TB, TC>>(
    arith: R,
    t: &BrgemmDesc,
    a: Blocks<'_, TA>,
    b: Blocks<'_, TB>,
    c: &mut [TC],
    brcount: usize,
    (i0, j0, mr): (usize, usize, usize),
) {
    let v = arith.a_vnni();
    let mut acc = [[R::Acc::default(); MR]; W];
    if t.beta_one {
        for (jj, accj) in acc.iter_mut().enumerate() {
            let ccol = &c[(j0 + jj) * t.ldc + i0..][..mr];
            for (dst, src) in accj.iter_mut().zip(ccol) {
                *dst = arith.load(src);
            }
        }
    }
    for blk in 0..brcount {
        let (ab, bb) = (a.get(blk), b.get(blk));
        for p in 0..t.k {
            let acol = &ab[(p / v) * t.lda * v + p % v + i0 * v..][..(mr - 1) * v + 1];
            let mut av = [R::Acc::default(); MR];
            for (dst, src) in av[..mr].iter_mut().zip(acol.iter().step_by(v)) {
                *dst = R::widen_a(*src);
            }
            for (jj, accj) in acc.iter_mut().enumerate() {
                let bv = R::widen_b(bb[(j0 + jj) * t.ldb + p]);
                for (dst, &x) in accj[..mr].iter_mut().zip(&av) {
                    *dst = R::madd(x, bv, *dst);
                }
            }
        }
    }
    for (jj, accj) in acc.iter().enumerate() {
        let ccol = &mut c[(j0 + jj) * t.ldc + i0..][..mr];
        for (ii, (dst, &sum)) in ccol.iter_mut().zip(accj).enumerate() {
            arith.store(sum, dst, i0 + ii, j0 + jj);
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

    /// Scalar reference implementation (f64 accumulation): the oracle of
    /// the f32 and bf16 kernels.
    fn reference_brgemm(
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
    #[should_panic(expected = "offset lists differ in length")]
    fn offsets_variant_rejects_mismatched_lists() {
        let (m, n, k) = (8, 4, 4);
        let (a, b) = (vec![0.0f32; m * k * 3], vec![0.0f32; k * n * 3]);
        let mut c = vec![0.0f32; m * n];
        let kernel = Brgemm::<f32, f32, f32>::new(BrgemmDesc::blocked(m, n, k));
        kernel.execute_offsets(&a, &[0, m * k, 2 * m * k], &b, &[0, k * n], &mut c);
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
            let desc = BrgemmDesc { beta_one: false, ..BrgemmDesc::blocked(m, n, k) };
            let kernel = BrgemmI8::new(desc, v);
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
        let kernel = BrgemmI8::new(BrgemmDesc::blocked(m, n, k), v);
        kernel.execute_stride(&a, 0, &b, 0, &mut c, 1, &rs, &cs);
        // 10 + 0.5 * 2.0 * (1*1 summed over k=8) = 18.
        assert!(c.iter().all(|&x| x == 18.0), "{c:?}");
    }

    #[test]
    #[should_panic(expected = "not divisible by vnni")]
    fn i8_kernel_rejects_unaligned_k() {
        let _ = BrgemmI8::new(BrgemmDesc::blocked(8, 8, 6), 4);
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a over the bits of `c`.
    fn fnv(h: u64, c: &[f32]) -> u64 {
        c.iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
    }

    fn assert_bits_eq(got: &[f32], want: &[f32], case: &str) {
        let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{case}");
    }

    /// The pinning grid `(m, n, k, brcount, beta_one)`: one row, ragged
    /// and full row tiles; every column count 1..=4 and ragged panels
    /// after full ones.
    fn pin_grid() -> impl Iterator<Item = (usize, usize, usize, usize, bool)> {
        let ms = [1, 7, 8, 9, 17];
        let ns = [1, 2, 3, 4, 5, 9];
        ms.into_iter().flat_map(move |m| {
            ns.into_iter().flat_map(move |n| {
                [1, 3, 8].into_iter().flat_map(move |k| {
                    [1, 3].into_iter().flat_map(move |br| {
                        [false, true].into_iter().map(move |beta| (m, n, k, br, beta))
                    })
                })
            })
        })
    }

    /// Runs the grid for `TA = TB = T`, `TC = f32`: the stride, offset and
    /// address modes agree bitwise, and so does every column with its own
    /// width-1 run. Returns the FNV-1a of the stride outputs.
    fn pin_float<T: Element>() -> u64 {
        let mut rng = Xorshift::new(0x0070_696e);
        let mut h = FNV_OFFSET;
        for (m, n, k, br, beta_one) in pin_grid() {
            let case = format!("{:?} m={m} n={n} k={k} br={br} beta_one={beta_one}", T::DTYPE);
            let mut gen =
                |len| -> Vec<T> { rand_vec(&mut rng, len).into_iter().map(T::from_f32).collect() };
            let (a, b) = (gen(m * k * br), gen(k * n * br));
            let c0 = rand_vec(&mut rng, m * n);
            let desc = BrgemmDesc { beta_one, ..BrgemmDesc::blocked(m, n, k) };
            let kernel = Brgemm::<T, T, f32>::new(desc);
            let mut c = c0.clone();
            kernel.execute_stride(&a, m * k, &b, k * n, &mut c, br);

            let offs_a: Vec<usize> = (0..br).map(|i| i * m * k).collect();
            let offs_b: Vec<usize> = (0..br).map(|i| i * k * n).collect();
            let mut by_offsets = c0.clone();
            kernel.execute_offsets(&a, &offs_a, &b, &offs_b, &mut by_offsets);
            assert_bits_eq(&by_offsets, &c, &format!("offsets {case}"));

            let a_slices: Vec<&[T]> = offs_a.iter().map(|&o| &a[o..]).collect();
            let b_slices: Vec<&[T]> = offs_b.iter().map(|&o| &b[o..]).collect();
            let mut by_address = c0.clone();
            kernel.execute(
                Blocks::Address { slices: &a_slices },
                Blocks::Address { slices: &b_slices },
                &mut by_address,
                br,
            );
            assert_bits_eq(&by_address, &c, &format!("address {case}"));

            let column = Brgemm::<T, T, f32>::new(BrgemmDesc { n: 1, ..desc });
            for j in 0..n {
                let mut cj = c0[j * m..(j + 1) * m].to_vec();
                column.execute_stride(&a, m * k, &b[j * k..], k * n, &mut cj, br);
                assert_bits_eq(&cj, &c[j * m..(j + 1) * m], &format!("column {j} {case}"));
            }
            h = fnv(h, &c);
        }
        h
    }

    /// The grid for the int8 kernel with VNNI factor `v` (`k` counts VNNI
    /// groups, so the reduction is `k * v`): every column equals its own
    /// width-1 run bitwise. Returns the FNV-1a of the outputs.
    fn pin_i8(v: usize) -> u64 {
        let mut rng = Xorshift::new(0x6938 + v as u64);
        let mut h = FNV_OFFSET;
        for (m, n, groups, br, beta_one) in pin_grid() {
            let k = groups * v;
            let case = format!("i8 v={v} m={m} n={n} k={k} br={br} beta_one={beta_one}");
            let mut gen = |len| -> Vec<i8> {
                (0..len).map(|_| ((rng.next_f32() - 0.5) * 254.0) as i8).collect()
            };
            let a: Vec<i8> = gen(m * k * br)
                .chunks(m * k)
                .flat_map(|blk| pack_a_vnni_cols(blk, m, k, v))
                .collect();
            let b = gen(k * n * br);
            let rs: Vec<f32> = (0..m).map(|_| 0.001 + rng.next_f32() * 0.01).collect();
            let cs: Vec<f32> = (0..n).map(|_| 0.001 + rng.next_f32() * 0.01).collect();
            let c0 = rand_vec(&mut rng, m * n);
            let desc = BrgemmDesc { beta_one, ..BrgemmDesc::blocked(m, n, k) };
            let mut c = c0.clone();
            BrgemmI8::new(desc, v).execute_stride(&a, m * k, &b, k * n, &mut c, br, &rs, &cs);

            let column = BrgemmI8::new(BrgemmDesc { n: 1, ..desc }, v);
            for j in 0..n {
                let mut cj = c0[j * m..(j + 1) * m].to_vec();
                column.execute_stride(&a, m * k, &b[j * k..], k * n, &mut cj, br, &rs, &cs[j..]);
                assert_bits_eq(&cj, &c[j * m..(j + 1) * m], &format!("column {j} {case}"));
            }
            h = fnv(h, &c);
        }
        h
    }

    /// Pins every tile shape's output bits (full and ragged rows, widths
    /// 1..=4, ragged column panels) for the f32, bf16-in and int8 kernels.
    /// The constants were recorded before the tile bodies were merged into
    /// one, so they hold the per-element k-order and `mul_add` fixed.
    #[test]
    fn tile_bits_are_pinned_and_column_invariant() {
        let got = [pin_float::<f32>(), pin_float::<Bf16>(), pin_i8(2), pin_i8(4)];
        let pinned = [
            0x9ad2_4cde_4f00_e52a,
            0x7e3a_b432_ccc6_a41e,
            0xfbb9_0ad3_96ce_107f,
            0xc9db_c14d_241e_14f3,
        ];
        assert_eq!(got, pinned, "got {got:#018x?}");
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
        let desc = BrgemmDesc { m, n, k, lda, ldb, ldc, beta_one: false };
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
