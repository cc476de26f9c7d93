//! GEMM written with PARLOOPER and TPPs — a line-for-line reproduction of
//! paper Listing 1.
//!
//! Three logical loops (`a` = K-blocks, `b` = M-blocks, `c` = N-blocks)
//! iterate the blocked operands; the body zeroes the output block on the
//! first K-step (`zero_tpp`) and invokes the stride-based BRGEMM with
//! `brcount = k_step`, `stride_A = bm*bk`, `stride_B = bn*bk`.
//!
//! There is one nest, [`GemmKernel`], generic over the BRGEMM tile its
//! body calls. The [`Tile`] chooses the arithmetic — f32 FMA ([`Gemm`]) or
//! exact int8 with dequantize-on-store ([`GemmInt8`]) — and with it the
//! element types, the per-call scales, and whether an output block's whole
//! K extent must run in one call. The tile also addresses `A`: the nest
//! hands it an output block's `(im, ik, count)`, which a dense tile maps to
//! `count` blocks of the flat `A[Mb][Kb]` grid, and the block-sparse tile
//! ([`crate::BlockSpmm`], Listing 5) to row block `im`'s nonzero blocks in
//! that K range.
//!
//! The nest has one optional epilogue, the MLP's (§III-A1): a TPP adding a
//! per-row bias and applying ReLU, fired on an output block right after its
//! last K step while the block is still in cache ([`crate::Mlp`] runs its
//! layers that way).

use crate::shared::SharedSlice;
use crate::KernelError;
use parlooper::{LoopRun, LoopSpecs, ThreadedLoop};
use pl_runtime::{ThreadPool, WorkerCtx};
use pl_tensor::{BlockedMatrix, Element, InnerLayout};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc, BrgemmI8};
use std::marker::PhantomData;

/// Tuning knobs of the GEMM kernel: everything the auto-tuner may vary
/// (paper §II-D, decisions i-iv) with zero changes to the kernel code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GemmTuning {
    /// The `loop_spec_string`.
    pub spec: String,
    /// K-blocks reduced per BRGEMM invocation (loop `a` base step).
    pub k_step: usize,
    /// Blocking steps (in block units) for the K loop `a`.
    pub a_blocks: Vec<usize>,
    /// Blocking steps for the M loop `b`.
    pub b_blocks: Vec<usize>,
    /// Blocking steps for the N loop `c`.
    pub c_blocks: Vec<usize>,
}

impl GemmTuning {
    /// Plain spec with no extra blocking.
    pub fn simple(spec: &str) -> Self {
        GemmTuning {
            spec: spec.to_string(),
            k_step: 1,
            a_blocks: Vec::new(),
            b_blocks: Vec::new(),
            c_blocks: Vec::new(),
        }
    }

    /// The paper's default parallel instantiation: distribute the (M, N)
    /// block space, K innermost and fully folded into one BRGEMM call.
    pub fn default_parallel(kb: usize) -> Self {
        GemmTuning { k_step: kb.max(1), ..Self::simple("BCa") }
    }
}

/// Problem geometry: logical sizes and block sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of `C` / `A`.
    pub m: usize,
    /// Columns of `C` / `B`.
    pub n: usize,
    /// Inner-product dimension.
    pub k: usize,
    /// M blocking.
    pub bm: usize,
    /// N blocking.
    pub bn: usize,
    /// K blocking.
    pub bk: usize,
}

impl GemmShape {
    /// Shape with square-ish default blocks of 32 (clamped to the dims).
    pub fn with_default_blocks(m: usize, n: usize, k: usize) -> Self {
        GemmShape {
            m,
            n,
            k,
            bm: Self::default_block(m),
            bn: Self::default_block(n),
            bk: Self::default_block(k),
        }
    }

    /// The block extent [`Self::with_default_blocks`] picks for one
    /// dimension: the largest of 64/48/32/16/8/4/2/1 dividing `d`. Public
    /// so pack-once planners can block a weight's M/K dims independently
    /// of the batch-dependent N dim and still land on the exact blocking
    /// the per-call bridge would have used.
    pub fn default_block(d: usize) -> usize {
        for cand in [64, 48, 32, 16, 8, 4, 2, 1] {
            if d.is_multiple_of(cand) {
                return cand;
            }
        }
        1
    }

    /// The N blocking of an **activation** operand of logical width `n`:
    /// the BRGEMM register-tile width (4 columns), or `n` itself below
    /// that. Unlike [`Self::default_block`] it never degrades on awkward
    /// widths (a prime `n = 19` blocks as 4+4+4+4+3, not 19 x 1): `n` need
    /// not be a multiple of the result — [`Gemm`] runs the ragged last
    /// block through a narrower kernel over zero-padded storage. Narrow
    /// blocks also give `mb * nb` work items to spread over a team when
    /// the weight has few M blocks. Every output column is the same
    /// k-ordered FMA chain whatever `bn` is, so this choice never changes
    /// values.
    pub fn activation_block(n: usize) -> usize {
        n.clamp(1, Self::TILE_COLS)
    }

    /// Columns of the BRGEMM register tile (`NR` in `pl_tpp::brgemm`).
    const TILE_COLS: usize = 4;

    /// Number of M blocks.
    pub fn mb(&self) -> usize {
        self.m / self.bm
    }

    /// Number of N blocks (the last one may be ragged).
    pub fn nb(&self) -> usize {
        self.n.div_ceil(self.bn)
    }

    /// Columns of blocked `B`/`C` storage: `n` rounded up to whole blocks.
    pub fn n_padded(&self) -> usize {
        self.nb() * self.bn
    }

    /// Valid columns of N block `i_n` (`bn` except for a ragged tail).
    fn block_cols(&self, i_n: usize) -> usize {
        self.bn.min(self.n - i_n * self.bn)
    }

    fn validate(&self) -> Result<(), KernelError> {
        for (dim, block, name) in [(self.m, self.bm, "M"), (self.k, self.bk, "K")] {
            if block == 0 || dim % block != 0 {
                return Err(KernelError::BadShape(format!(
                    "{name}={dim} not divisible by block {block}"
                )));
            }
        }
        if self.bn == 0 || self.n == 0 {
            return Err(KernelError::BadShape(format!("N={} with block {}", self.n, self.bn)));
        }
        Ok(())
    }

    fn loop_specs(&self, tuning: &GemmTuning) -> Vec<LoopSpecs> {
        vec![
            LoopSpecs::blocked(0, self.kb(), tuning.k_step, tuning.a_blocks.clone()),
            LoopSpecs::blocked(0, self.mb(), 1, tuning.b_blocks.clone()),
            LoopSpecs::blocked(0, self.nb(), 1, tuning.c_blocks.clone()),
        ]
    }

    /// Number of K blocks.
    pub fn kb(&self) -> usize {
        self.k / self.bk
    }

    /// Floating-point operations of one GEMM.
    pub fn flops(&self) -> u64 {
        2 * self.m as u64 * self.n as u64 * self.k as u64
    }
}

/// A BRGEMM tile the GEMM nest can call: what the nest's body asks of its
/// arithmetic and of its `A` operand. The nest hands each call an output
/// block's coordinates and K-block range, and the tile maps them to `A`
/// blocks. Implemented for `pl_tpp`'s [`Brgemm`] (operands widened to f32,
/// one fused multiply-add per product) and [`BrgemmI8`] (an exact i32 sum
/// over a VNNI-cols `A`, dequantized on store), both over a flat blocked
/// `A`, and for [`crate::spmm::BcscTile`] over a block-sparse one. It is
/// sealed: its methods take a `Call`, which no other crate can name.
pub trait Tile: Sized + Send + Sync {
    /// The whole `A` operand.
    type Operand: Send + Sync;
    /// Element type of `B`.
    type B: Element;
    /// Element type of `C`.
    type C: Element;
    /// The per-call scale operand: `()`, or [`BrgemmI8`]'s one scale per
    /// logical `A` row and one per logical `B` column.
    type Scales<'s>: Copy + Send + Sync;
    /// Whether the accumulator is exact only *within* one call, so that an
    /// output block's whole K extent runs at its first K step.
    const WHOLE_K: bool;
    /// The trace span a GEMM over this tile opens.
    const SPAN: &'static str;
    /// The tile of one `desc` block over an `A` in inner layout `a`, or
    /// `None` if it cannot read that layout.
    #[doc(hidden)]
    fn for_block(desc: BrgemmDesc, a: InnerLayout) -> Option<Self>;
    /// `a`'s rows, columns, block rows, block columns and inner layout.
    #[doc(hidden)]
    fn geometry(a: &Self::Operand) -> (usize, usize, usize, usize, InnerLayout);
    /// One output block's batch reduction.
    #[doc(hidden)]
    fn run(
        &self,
        call: sealed::Call<'_, Self::Operand, Self::B>,
        c: &mut [Self::C],
        s: Self::Scales<'_>,
    );
}

pub(crate) mod sealed {
    /// One output block's batch reduction, as the nest issues it: output
    /// block `im` of `C`'s rows over K blocks `ik..ik + count`, into the
    /// block whose first element is `at` = `(row, col)` of the whole `C`.
    /// `b` starts at the output block's column of `B` blocks, which are
    /// `stride_b` elements apart.
    pub struct Call<'a, A, B> {
        pub a: &'a A,
        pub b: &'a [B],
        pub stride_b: usize,
        pub blocks: (usize, usize, usize),
        pub at: (usize, usize),
    }
}

impl<'a, TA: Element, B> sealed::Call<'a, BlockedMatrix<TA>, B> {
    /// The call's `A` and `B` blocks over a flat blocked `A`, each
    /// stride-addressed: `A[Mb][Kb]` holds block `(im, ik)` at
    /// `(im * Kb + ik)`, `B[Nb][Kb]` block `(ik, in)` at `(in * Kb + ik)`.
    fn dense(&self) -> (&'a [TA], usize, &'a [B]) {
        let (im, ik, _) = self.blocks;
        let stride_a = self.a.br() * self.a.bc();
        let a = &self.a.data()[(im * self.a.col_blocks() + ik) * stride_a..];
        (a, stride_a, &self.b[ik * self.stride_b..])
    }
}

impl<TA: Element, TB: Element, TC: Element> Tile for Brgemm<TA, TB, TC> {
    type Operand = BlockedMatrix<TA>;
    type B = TB;
    type C = TC;
    type Scales<'s> = ();
    const WHOLE_K: bool = false;
    const SPAN: &'static str = "gemm.execute";

    fn for_block(desc: BrgemmDesc, a: InnerLayout) -> Option<Self> {
        (a == InnerLayout::ColMajor).then(|| Brgemm::new(desc))
    }

    fn geometry(a: &BlockedMatrix<TA>) -> (usize, usize, usize, usize, InnerLayout) {
        (a.rows(), a.cols(), a.br(), a.bc(), a.inner())
    }

    fn run(&self, k: sealed::Call<'_, BlockedMatrix<TA>, TB>, c: &mut [TC], _: ()) {
        let (a, stride_a, b) = k.dense();
        self.execute_stride(a, stride_a, b, k.stride_b, c, k.blocks.2);
    }
}

impl Tile for BrgemmI8 {
    type Operand = BlockedMatrix<i8>;
    type B = i8;
    type C = f32;
    type Scales<'s> = (&'s [f32], &'s [f32]);
    const WHOLE_K: bool = true;
    const SPAN: &'static str = "gemm.i8.execute";

    fn for_block(desc: BrgemmDesc, a: InnerLayout) -> Option<Self> {
        match a {
            InnerLayout::VnniCols(v) if v > 0 && desc.k.is_multiple_of(v) => {
                Some(BrgemmI8::new(desc, v))
            }
            _ => None,
        }
    }

    fn geometry(a: &BlockedMatrix<i8>) -> (usize, usize, usize, usize, InnerLayout) {
        (a.rows(), a.cols(), a.br(), a.bc(), a.inner())
    }

    fn run(
        &self,
        k: sealed::Call<'_, BlockedMatrix<i8>, i8>,
        c: &mut [f32],
        (rows, cols): Self::Scales<'_>,
    ) {
        let (BrgemmDesc { m, n, .. }, (i, j)) = (*self.desc(), k.at);
        let (rows, cols) = (&rows[i..i + m], &cols[j..j + n]);
        let (a, stride_a, b) = k.dense();
        self.execute_stride(a, stride_a, b, k.stride_b, c, k.blocks.2, rows, cols);
    }
}

/// The GEMM kernel (Listing 1 realized): one PARLOOPER nest whose body
/// zeroes an output block at its first K step and calls the BRGEMM tile
/// `T`, which chooses the arithmetic. [`Gemm`] and [`GemmInt8`] name its
/// two instantiations.
pub struct GemmKernel<T: Tile> {
    shape: GemmShape,
    tuning: GemmTuning,
    tl: ThreadedLoop,
    /// The `A` inner layout the tile reads.
    a_layout: InnerLayout,
    /// The tile type: a handle is a few compares, so each block builds its own.
    tile: PhantomData<T>,
}

/// The GEMM over `TA x TB -> TC` with f32 arithmetic (f32 or bf16
/// operands): flat blocked `A` and `B`, one k-ordered FMA chain per output
/// element.
pub type Gemm<TA, TB, TC> = GemmKernel<Brgemm<TA, TB, TC>>;

/// The quantized GEMM: the same loop nest as [`Gemm`], but the body
/// invokes the `i8 x i8 -> i32` BRGEMM with dequantize-on-store.
///
/// `A` is the pack-once quantized weight in the VNNI-cols layout
/// ([`BlockedMatrix::a_layout_vnni`]) with one scale per logical row
/// (output channel); `B` is the per-step quantized activation in the plain
/// blocked `B` layout with one scale per logical column (token). `C` stays
/// f32, so downstream consumers (bias, activation, attention) are untouched.
///
/// The i32 accumulator is exact only *within* one BRGEMM call (partial
/// sums would be dequantized and re-added in f32), so the body folds the
/// **whole** K extent into the call issued at an output block's first K
/// step and does nothing at the later ones, whatever `k_step` and K
/// blocking the spec carries. Every output element is therefore one exact
/// integer sum and one dequantizing multiply — independent of the spec
/// and, like the f32 kernel's FMA chain, of the activation width.
pub type GemmInt8 = GemmKernel<BrgemmI8>;

impl<T: Tile> GemmKernel<T> {
    /// Builds the kernel for an `A` operand in inner layout `a_layout`
    /// (`B` and `C` are flat blocked).
    ///
    /// A spec that splits the K loop over the team (`A`), or deals the C
    /// blocks out dynamically below a sequential K level
    /// (`caB @ schedule(dynamic,1)`: afresh at every K step), is rejected:
    /// either lets two members accumulate into one C block at once.
    pub fn build(
        shape: GemmShape,
        tuning: GemmTuning,
        a_layout: InnerLayout,
    ) -> Result<Self, KernelError> {
        shape.validate()?;
        // The tile must be able to read `a_layout`.
        T::for_block(BrgemmDesc::blocked(shape.bm, shape.bn, shape.bk), a_layout).ok_or_else(
            || KernelError::BadShape(format!("A inner layout {a_layout:?} at bk={}", shape.bk)),
        )?;
        let tl = ThreadedLoop::new(&shape.loop_specs(&tuning), &tuning.spec)
            .map_err(KernelError::Spec)?;
        crate::check_outputs_owned(&tuning.spec, "a")?;
        Ok(GemmKernel { shape, tuning, tl, a_layout, tile: PhantomData })
    }

    /// Problem geometry.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }

    /// Active tuning.
    pub fn tuning(&self) -> &GemmTuning {
        &self.tuning
    }

    /// The underlying loop nest (e.g. for schedule simulation).
    pub fn threaded_loop(&self) -> &ThreadedLoop {
        &self.tl
    }

    /// Starts one in-team execution for a team of `team` threads (see
    /// [`ThreadedLoop::begin`]); pass the run to [`Self::execute_in`].
    pub fn begin(&self, team: usize) -> Result<LoopRun, KernelError> {
        self.tl.begin(team).map_err(KernelError::Spec)
    }

    /// This member's share of `C = A x B`, called by **every** member of a
    /// team already inside a parallel region — the way a chain of GEMMs
    /// shares one region, with [`WorkerCtx::barrier`] between dependent
    /// ones. `A` is the tile's operand for [`Self::shape`]; `B` and `C` are
    /// the backing data of blocked matrices laid out for it (padded to
    /// [`GemmShape::n_padded`] columns); `scales` is the tile's per-call
    /// scale operand. With a `bias` (one per row of `C`), each C block
    /// becomes `max(C + bias, 0)` right after its last K step.
    ///
    /// # Safety
    /// Between the team barriers (or region boundaries) that bracket the
    /// team's calls, nothing else may read or write the memory behind `c`:
    /// the members write disjoint blocks of it through the shared view.
    ///
    /// # Panics
    /// Panics if `a` does not match the shape, or an operand, scale vector
    /// or bias is shorter than the shape requires.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn execute_in(
        &self,
        ctx: &WorkerCtx,
        run: &LoopRun,
        a: &T::Operand,
        b_data: &[T::B],
        c: &SharedSlice<T::C>,
        scales: T::Scales<'_>,
        bias: Option<&[f32]>,
    ) {
        let sh = self.shape;
        let (bm, bn, bk) = (sh.bm, sh.bn, sh.bk);
        let (mb, kb) = (sh.mb(), sh.kb());
        assert!(
            T::geometry(a) == (sh.m, sh.k, bm, bk, self.a_layout)
                && b_data.len() >= sh.k * sh.n_padded()
                && c.len() >= sh.m * sh.n_padded()
                && bias.is_none_or(|b| b.len() >= sh.m),
            "GEMM operand does not match its shape"
        );
        let k_step = if T::WHOLE_K { kb } else { self.tuning.k_step };
        let (stride_b, block_c) = (bn * bk, bm * bn);
        run.member(ctx, &|ind| {
            let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
            if T::WHOLE_K && ik != 0 {
                return; // the whole reduction ran at this block's first K step
            }
            let brcount = k_step.min(kb - ik);
            // C[Nb][Mb] grid: block (im, in) at (in*Mb + im).
            let c_off = (i_n * mb + im) * block_c;
            // SAFETY: for any legal spec (paper contract) concurrent
            // iterations differ in (im, in), hence write disjoint C
            // blocks; the sequential K loop serializes accumulation.
            let c_block = unsafe { c.slice_mut(c_off, block_c) };
            if ik == 0 {
                pl_tpp::unary::zero(bm, bn, c_block, bm);
            }
            // The block's tile; a ragged last block keeps the strides
            // (storage is padded) and has fewer columns.
            let cols = sh.block_cols(i_n);
            let tile = T::for_block(BrgemmDesc::blocked(bm, cols, bk), self.a_layout)
                .expect("a block of a valid kernel's layout");
            // B[Nb][Kb] grid: column block `in` starts at block (0, in).
            let b = &b_data[i_n * kb * stride_b..];
            let (blocks, at) = ((im, ik, brcount), (im * bm, i_n * bn));
            tile.run(sealed::Call { a, b, stride_b, blocks, at }, c_block, scales);
            if let Some(bias) = bias.filter(|_| ik + brcount >= kb) {
                // The block's last K step: fuse the bias + ReLU epilogue.
                pl_tpp::equation::bias_relu(bm, cols, &bias[im * bm..][..bm], c_block, bm);
            }
        });
    }

    /// `C = A x B` on the given pool (with the bias + ReLU epilogue if
    /// `bias` is given): one parallel region around [`Self::execute_in`].
    pub(crate) fn execute_on(
        &self,
        a: &T::Operand,
        b: &BlockedMatrix<T::B>,
        c: &mut BlockedMatrix<T::C>,
        scales: T::Scales<'_>,
        bias: Option<&[f32]>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        let (sh, np) = (self.shape, self.shape.n_padded());
        if T::geometry(a) != (sh.m, sh.k, sh.bm, sh.bk, self.a_layout)
            || (b.rows(), b.cols(), b.br(), b.bc(), b.inner())
                != (sh.k, np, sh.bk, sh.bn, InnerLayout::ColMajor)
            || (c.rows(), c.cols(), c.br(), c.bc()) != (sh.m, np, sh.bm, sh.bn)
            || bias.is_some_and(|b| b.len() < sh.m)
        {
            let msg = format!("operands do not match {sh:?} over A {:?}", self.a_layout);
            return Err(KernelError::BadShape(msg));
        }
        let run = self.begin(pool.nthreads())?;
        let c_shared = SharedSlice::new(c.data_mut());
        // SAFETY: `c` is exclusively borrowed for the whole region and the
        // region runs nothing but this GEMM.
        pool.parallel(|ctx| unsafe {
            self.execute_in(ctx, &run, a, b.data(), &c_shared, scales, bias)
        });
        Ok(())
    }
}

impl<TA: Element, TB: Element, TC: Element> Gemm<TA, TB, TC> {
    /// Builds the kernel for a flat (column-major-blocked) `A` (see
    /// [`GemmKernel::build`]).
    pub fn new(shape: GemmShape, tuning: GemmTuning) -> Result<Self, KernelError> {
        Self::build(shape, tuning, InnerLayout::ColMajor)
    }

    /// `C = A x B` on the given pool.
    pub fn execute(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &mut BlockedMatrix<TC>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        self.execute_on(a, b, c, (), None, pool)
    }
}

impl GemmInt8 {
    /// Builds the kernel; `v` is the VNNI factor of the `A` columns
    /// (`bk % v == 0`).
    pub fn new(shape: GemmShape, tuning: GemmTuning, v: usize) -> Result<Self, KernelError> {
        Self::build(shape, tuning, InnerLayout::VnniCols(v))
    }

    /// `C = dequant(qA x qB)` on the given pool. `row_scales` has one
    /// entry per logical `A` row, `col_scales` one per logical `B` column.
    pub fn execute(
        &self,
        a: &BlockedMatrix<i8>,
        row_scales: &[f32],
        b: &BlockedMatrix<i8>,
        col_scales: &[f32],
        c: &mut BlockedMatrix<f32>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        if row_scales.len() != self.shape.m || col_scales.len() < self.shape.n {
            return Err(KernelError::BadShape("scale length mismatch".into()));
        }
        self.execute_on(a, b, c, (row_scales, col_scales), None, pool)
    }
}

/// Scalar reference GEMM on flat column-major data (f64 accumulate).
pub fn reference_gemm(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for j in 0..n {
        for p in 0..k {
            let bv = b[j * k + p] as f64;
            if bv == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * m + i] = (c[j * m + i] as f64 + a[p * m + i] as f64 * bv) as f32;
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockSpmm, SpmmTuning};
    use pl_tensor::{fill_uniform, Bf16, Xorshift};

    fn random_problem(
        sh: GemmShape,
        seed: u64,
    ) -> (BlockedMatrix<f32>, BlockedMatrix<f32>, Vec<f32>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let mut a_cm = vec![0.0f32; sh.m * sh.k];
        let mut b_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        b.pack_from_colmajor(&b_cm);
        (a, b, a_cm, b_cm)
    }

    #[test]
    fn matches_reference_for_many_specs() {
        // Every spec on a 4-thread pool: a spec without parallel letters
        // runs on member 0 alone, so it is as legal on a team as on one
        // thread.
        let pool = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (a, b, a_cm, b_cm) = random_problem(sh, 42);
        let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);

        let mut cases: Vec<GemmTuning> = vec![
            GemmTuning::simple("abc"),
            GemmTuning::simple("bca"),
            GemmTuning::simple("cab"),
            GemmTuning::simple("aBC"),
            GemmTuning::simple("BCa"),
            GemmTuning::default_parallel(sh.kb()),
        ];
        cases.push(GemmTuning {
            spec: "bcaBCb".into(),
            k_step: 2,
            a_blocks: vec![],
            b_blocks: vec![4, 2],
            c_blocks: vec![2],
        });
        // Dynamic scheduling keeps the K loop inside the worksharing loop:
        // below a sequential K loop (`caB`) a block could be claimed by a
        // second member at the next K step while its first is still
        // accumulating.
        cases.push(GemmTuning {
            spec: "cBa @ schedule(dynamic,1)".into(),
            k_step: 3,
            a_blocks: vec![],
            b_blocks: vec![],
            c_blocks: vec![],
        });

        for t in cases {
            let spec_str = t.spec.clone();
            let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
            let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&a, &b, &mut c, &pool).unwrap();
            let got = c.unpack_to_colmajor();
            for i in 0..got.len() {
                assert!(
                    (got[i] - c_ref[i]).abs() < 1e-3,
                    "spec {spec_str}: idx {i}: {} vs {}",
                    got[i],
                    c_ref[i]
                );
            }
        }
    }

    #[test]
    fn specs_that_share_a_c_block_between_members_are_rejected() {
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let build = |spec: &str| Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple(spec));
        assert!(matches!(build("caB @ schedule(dynamic,1)"), Err(KernelError::RacySpec(_))));
        assert!(matches!(build("aBC @ schedule(dynamic,2)"), Err(KernelError::RacySpec(_))));
        assert!(matches!(build("ABc"), Err(KernelError::RacySpec(_))));
        // K inside the group's blocks, or a static deal, keeps each block
        // on one member.
        assert!(build("cBa @ schedule(dynamic,1)").is_ok());
        assert!(build("caB").is_ok());
        assert!(build("caB @ schedule(static,2)").is_ok());

        // Block-SpMM declares the same loops (`a` = K) and rejects the same.
        let spmm = |spec: &str| {
            BlockSpmm::new(sh.m, sh.n, sh.k, sh.bm, sh.bk, sh.bn, SpmmTuning::simple(spec))
        };
        for racy in ["Abc", "cbA", "caB @ schedule(dynamic,1)"] {
            assert!(matches!(spmm(racy), Err(KernelError::RacySpec(_))), "{racy}");
        }
        assert!(spmm("cBa @ schedule(dynamic,1)").is_ok());
        assert!(spmm("caB").is_ok());
    }

    #[test]
    fn grid_mode_matches_reference() {
        let pool = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 32, k: 16, bm: 8, bn: 8, bk: 8 };
        let (a, b, a_cm, b_cm) = random_problem(sh, 7);
        let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);
        let t = GemmTuning {
            spec: "B{R:2}C{C:2}a".into(),
            k_step: 1,
            a_blocks: vec![],
            b_blocks: vec![],
            c_blocks: vec![],
        };
        let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
        let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - c_ref[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn bf16_gemm_matches_quantized_reference() {
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 16, n: 16, k: 32, bm: 8, bn: 8, bk: 8 };
        let mut rng = Xorshift::new(3);
        let mut a_cm = vec![0.0f32; sh.m * sh.k];
        let mut b_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::<Bf16>::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::<Bf16>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        b.pack_from_colmajor(&b_cm);

        // Reference over quantized values.
        let aq = a.unpack_to_colmajor();
        let bq = b.unpack_to_colmajor();
        let c_ref = reference_gemm(&aq, &bq, sh.m, sh.n, sh.k);

        let gemm = Gemm::<Bf16, Bf16, f32>::new(sh, GemmTuning::default_parallel(sh.kb())).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&a, &b, &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - c_ref[i]).abs() < 1e-3, "{} vs {}", got[i], c_ref[i]);
        }
    }

    /// Exact integer reference for the quantized kernel: i64 inner product
    /// over the quantized operands, one f32 dequant multiply per element.
    fn reference_int8(
        qa: &BlockedMatrix<i8>,
        rs: &[f32],
        qb: &BlockedMatrix<i8>,
        cs: &[f32],
    ) -> Vec<f32> {
        let (m, n, k) = (qa.rows(), qb.cols(), qa.cols());
        let mut c = vec![0.0f32; m * n];
        for j in 0..n {
            for i in 0..m {
                let mut acc: i64 = 0;
                for p in 0..k {
                    acc += qa.get(i, p) as i64 * qb.get(p, j) as i64;
                }
                c[j * m + i] = rs[i] * cs[j] * acc as f32;
            }
        }
        c
    }

    fn int8_problem(
        sh: GemmShape,
        v: usize,
        seed: u64,
    ) -> (BlockedMatrix<i8>, Vec<f32>, BlockedMatrix<i8>, Vec<f32>) {
        let mut rng = Xorshift::new(seed);
        let mut w_cm = vec![0.0f32; sh.m * sh.k];
        let mut act_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut w_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut act_cm, &mut rng, -2.0, 2.0);
        let (qa, rs) =
            pl_tensor::quantize_weight_a_vnni(&w_cm, sh.m, sh.k, sh.bm, sh.bk, v).unwrap();
        let mut act = BlockedMatrix::<f32>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        act.pack_from_colmajor(&act_cm);
        let mut qb = BlockedMatrix::<i8>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        let mut cs = vec![0.0f32; sh.n];
        pl_tensor::quantize_cols_blocked(&act, &mut qb, &mut cs);
        (qa, rs, qb, cs)
    }

    #[test]
    fn int8_single_call_matches_integer_reference_exactly() {
        // k_step = kb folds the whole reduction into one BRGEMM call, so
        // the kernel performs the same exact i32 sum as the reference.
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 32, n: 8, k: 64, bm: 8, bn: 4, bk: 16 };
        let (qa, rs, qb, cs) = int8_problem(sh, 4, 5);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        let gemm = GemmInt8::new(sh, GemmTuning::default_parallel(sh.kb()), 4).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        gemm.execute(&qa, &rs, &qb, &cs, &mut c, &pool).unwrap();
        assert_eq!(c.unpack_to_colmajor(), c_ref);
    }

    #[test]
    fn int8_matches_reference_for_many_specs() {
        let pool = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (qa, rs, qb, cs) = int8_problem(sh, 2, 43);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        let cases: Vec<GemmTuning> = vec![
            GemmTuning::simple("abc"),
            GemmTuning::simple("BCa"),
            GemmTuning::default_parallel(sh.kb()),
            GemmTuning {
                spec: "bcaBCb".into(),
                k_step: 2,
                a_blocks: vec![],
                b_blocks: vec![4, 2],
                c_blocks: vec![2],
            },
        ];
        for t in cases {
            let spec_str = t.spec.clone();
            let gemm = GemmInt8::new(sh, t, 2).unwrap();
            let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&qa, &rs, &qb, &cs, &mut c, &pool).unwrap();
            let got = c.unpack_to_colmajor();
            // Whatever k_step the spec carries, the kernel folds the whole
            // reduction into one exact i32 sum per element.
            assert_eq!(got, c_ref, "spec {spec_str}");
        }
    }

    /// Packs `cols` logical columns of `src` (`rows x cols`, column-major)
    /// into the leading columns of a (wider, padded) blocked matrix and
    /// poisons the pad columns: a kernel that read them would go NaN.
    fn pack_leading(dst: &mut BlockedMatrix<f32>, src: &[f32], rows: usize, cols: usize) {
        for c in 0..dst.cols() {
            for r in 0..rows {
                dst.set(r, c, if c < cols { src[c * rows + r] } else { f32::NAN });
            }
        }
    }

    #[test]
    fn ragged_n_runs_a_tail_kernel_and_is_column_invariant() {
        let pool = ThreadPool::new(3);
        let (m, k, bm, bk) = (16, 24, 8, 8);
        let mut rng = Xorshift::new(77);
        let mut a_cm = vec![0.0f32; m * k];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::a_layout(m, k, bm, bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let n_max = 11;
        let mut b_cm = vec![0.0f32; k * n_max];
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        // Column j computed alone (n = 1) is the oracle for every width.
        let alone: Vec<Vec<f32>> = (0..n_max)
            .map(|j| {
                let sh = GemmShape { m, n: 1, k, bm, bn: 1, bk };
                let g = Gemm::<f32, f32, f32>::new(sh, GemmTuning::default_parallel(sh.kb()));
                let mut b = BlockedMatrix::b_layout(k, 1, bk, 1).unwrap();
                b.pack_from_colmajor(&b_cm[j * k..(j + 1) * k]);
                let mut c = BlockedMatrix::c_layout(m, 1, bm, 1).unwrap();
                g.unwrap().execute(&a, &b, &mut c, &pool).unwrap();
                c.unpack_to_colmajor()
            })
            .collect();
        for n in [2, 3, 4, 5, 7, 8, 11] {
            let bn = GemmShape::activation_block(n);
            let sh = GemmShape { m, n, k, bm, bn, bk };
            assert_eq!(sh.nb(), n.div_ceil(bn));
            for tuning in [GemmTuning::default_parallel(sh.kb()), GemmTuning::simple("aCB")] {
                let g = Gemm::<f32, f32, f32>::new(sh, tuning).unwrap();
                let mut b = BlockedMatrix::b_layout(k, sh.n_padded(), bk, bn).unwrap();
                pack_leading(&mut b, &b_cm, k, n);
                let mut c = BlockedMatrix::c_layout(m, sh.n_padded(), bm, bn).unwrap();
                g.execute(&a, &b, &mut c, &pool).unwrap();
                for (j, want) in alone.iter().enumerate().take(n) {
                    let got: Vec<f32> = (0..m).map(|i| c.get(i, j)).collect();
                    assert_eq!(&got, want, "n={n} column {j}");
                }
            }
        }
    }

    #[test]
    fn int8_ragged_n_matches_integer_reference_exactly() {
        let pool = ThreadPool::new(2);
        let (n, bn) = (6, 4);
        let full = GemmShape { m: 16, n: 8, k: 32, bm: 8, bn, bk: 16 };
        let (qa, rs, qb, cs) = int8_problem(full, 4, 9);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        // The same operands, declared 6 columns wide: the last block is a
        // 2-column tail and columns 6..8 are never computed.
        let sh = GemmShape { n, ..full };
        let gemm = GemmInt8::new(sh, GemmTuning::simple("aBC"), 4).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n_padded(), sh.bm, bn).unwrap();
        gemm.execute(&qa, &rs, &qb, &cs[..n], &mut c, &pool).unwrap();
        let got = c.unpack_to_colmajor();
        assert_eq!(got[..sh.m * n], c_ref[..sh.m * n]);
        assert!(got[sh.m * n..].iter().all(|&v| v == 0.0), "pad columns stay zeroed");
    }

    #[test]
    fn bias_relu_epilogue_fires_after_the_last_k_step() {
        // Two K blocks, one per K step. Every column's first K block sums
        // to -8 and its second to 8 * w[j], so the partial sums are
        // negative before the last K step and (but for column 0) positive
        // after it: a ReLU fired at an earlier step would clamp them.
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 8, n: 4, k: 16, bm: 8, bn: 4, bk: 8 };
        let w = [0.5f32, 1.5, 2.0, 3.0];
        let b_cm: Vec<f32> =
            (0..sh.n * sh.k).map(|i| if i % sh.k < sh.bk { -1.0 } else { w[i / sh.k] }).collect();
        let mut a = BlockedMatrix::<f32>::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&vec![1.0; sh.m * sh.k]);
        let mut b = BlockedMatrix::<f32>::b_layout(sh.k, sh.n, sh.bk, sh.bn).unwrap();
        b.pack_from_colmajor(&b_cm);
        let bias: Vec<f32> = (0..sh.m).map(|r| r as f32 * 0.25 - 1.0).collect();
        for spec in ["aBC", "BCa"] {
            let gemm = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple(spec)).unwrap();
            assert_eq!((gemm.tuning().k_step, sh.kb()), (1, 2));
            let mut plain = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&a, &b, &mut plain, &pool).unwrap();
            let mut want = plain.unpack_to_colmajor();
            for (i, v) in want.iter_mut().enumerate() {
                *v = (*v + bias[i % sh.m]).max(0.0);
            }
            let mut fused = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute_on(&a, &b, &mut fused, (), Some(&bias), &pool).unwrap();
            let bits = |c: &[f32]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused.unpack_to_colmajor()), bits(&want), "spec {spec}");
        }
    }

    #[test]
    fn dependent_gemms_chain_inside_one_region() {
        // C2 = A2 x (A1 x B): the second GEMM consumes the first one's
        // blocked output as its B operand, one region, one barrier.
        let pool = ThreadPool::new(4);
        let sh = GemmShape { m: 16, n: 8, k: 16, bm: 8, bn: 4, bk: 8 };
        let (a1, b, a1_cm, b_cm) = random_problem(sh, 11);
        let (a2, _, a2_cm, _) = random_problem(sh, 12);
        let g = Gemm::<f32, f32, f32>::new(sh, GemmTuning::default_parallel(sh.kb())).unwrap();
        let mut c1 = BlockedMatrix::<f32>::b_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        let mut c2 = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
        let (run1, run2) = (g.begin(4).unwrap(), g.begin(4).unwrap());
        let (s1, s2) = (SharedSlice::new(c1.data_mut()), SharedSlice::new(c2.data_mut()));
        // SAFETY: c1 is written only before the barrier and read only
        // after it; c2 is touched by the second GEMM alone.
        pool.parallel(|ctx| unsafe {
            g.execute_in(ctx, &run1, &a1, b.data(), &s1, (), None);
            ctx.barrier();
            g.execute_in(ctx, &run2, &a2, s1.slice(0, s1.len()), &s2, (), None);
        });
        let mid_ref = reference_gemm(&a1_cm, &b_cm, sh.m, sh.n, sh.k);
        let want = reference_gemm(&a2_cm, &mid_ref, sh.m, sh.n, sh.m);
        let got = c2.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}: {} vs {}", got[i], want[i]);
        }
    }

    #[test]
    fn int8_rejects_wrong_inner_layouts() {
        let sh = GemmShape { m: 16, n: 8, k: 16, bm: 8, bn: 4, bk: 8 };
        let gemm = GemmInt8::new(sh, GemmTuning::simple("abc"), 4).unwrap();
        // Plain (non-VNNI) A must be rejected.
        let a = BlockedMatrix::<i8>::a_layout(16, 16, 8, 8).unwrap();
        let b = BlockedMatrix::<i8>::b_layout(16, 8, 8, 4).unwrap();
        let mut c = BlockedMatrix::<f32>::c_layout(16, 8, 8, 4).unwrap();
        let pool = ThreadPool::new(1);
        let rs = vec![1.0f32; 16];
        let cs = vec![1.0f32; 8];
        assert!(matches!(
            gemm.execute(&a, &rs, &b, &cs, &mut c, &pool),
            Err(KernelError::BadShape(_))
        ));
        // Unaligned vnni factor at build time.
        assert!(matches!(
            GemmInt8::new(sh, GemmTuning::simple("abc"), 3),
            Err(KernelError::BadShape(_))
        ));
        // The racy-spec rule is the f32 kernel's: a K-parallel spec or a
        // dynamic deal below a sequential K level is rejected, even though
        // the int8 body only accumulates at an output block's first K step.
        let build = |spec: &str| GemmInt8::new(sh, GemmTuning::simple(spec), 4);
        assert!(matches!(build("ABc"), Err(KernelError::RacySpec(_))));
        assert!(matches!(build("caB @ schedule(dynamic,1)"), Err(KernelError::RacySpec(_))));
        assert!(build("cBa @ schedule(dynamic,1)").is_ok());
    }

    #[test]
    fn layout_mismatch_is_reported() {
        let sh = GemmShape { m: 16, n: 16, k: 16, bm: 8, bn: 8, bk: 8 };
        let gemm = Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("abc")).unwrap();
        let a = BlockedMatrix::<f32>::a_layout(16, 16, 8, 8).unwrap();
        let b = BlockedMatrix::<f32>::b_layout(16, 16, 8, 8).unwrap();
        // Wrong block size for C.
        let mut c = BlockedMatrix::<f32>::c_layout(16, 16, 4, 4).unwrap();
        let pool = ThreadPool::new(1);
        assert!(matches!(gemm.execute(&a, &b, &mut c, &pool), Err(KernelError::BadShape(_))));
    }

    #[test]
    fn bad_blocking_is_reported() {
        let sh = GemmShape { m: 10, n: 16, k: 16, bm: 8, bn: 8, bk: 8 };
        assert!(matches!(
            Gemm::<f32, f32, f32>::new(sh, GemmTuning::simple("abc")),
            Err(KernelError::BadShape(_))
        ));
    }

    #[test]
    fn default_blocks_divide() {
        for (m, n, k) in [(512, 512, 512), (768, 256, 3072), (100, 60, 36)] {
            let sh = GemmShape::with_default_blocks(m, n, k);
            assert_eq!(sh.m % sh.bm, 0);
            assert_eq!(sh.n % sh.bn, 0);
            assert_eq!(sh.k % sh.bk, 0);
        }
    }
}
