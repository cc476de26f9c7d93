//! GEMM written with PARLOOPER and TPPs — a line-for-line reproduction of
//! paper Listing 1.
//!
//! Three logical loops (`a` = K-blocks, `b` = M-blocks, `c` = N-blocks)
//! iterate the blocked operands; the body zeroes the output block on the
//! first K-step (`zero_tpp`) and invokes the stride-based BRGEMM with
//! `brcount = k_step`, `stride_A = bm*bk`, `stride_B = bn*bk`.

use crate::shared::SharedSlice;
use crate::KernelError;
use parlooper::{LoopRun, LoopSpecs, SpecError, ThreadedLoop};
use pl_runtime::{ThreadPool, WorkerCtx};
use pl_tensor::{BlockedMatrix, Element, InnerLayout};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc, BrgemmI8, BrgemmI8Desc};
use std::sync::Arc;

pub use pl_tensor::blocked::InnerLayout as BInner;

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
        GemmTuning {
            spec: "BCa".to_string(),
            k_step: kb.max(1),
            a_blocks: Vec::new(),
            b_blocks: Vec::new(),
            c_blocks: Vec::new(),
        }
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

    /// Columns of the ragged last N block, when `bn` does not divide `n`.
    fn tail_cols(&self) -> Option<usize> {
        Some(self.n % self.bn).filter(|&cols| cols != 0)
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

    /// Whether blocked operands `a`, `b`, `c` have this shape's extents
    /// and blockings (`b`/`c` padded to whole N blocks).
    fn operands_match<TA, TB, TC>(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &BlockedMatrix<TC>,
    ) -> bool
    where
        TA: Element,
        TB: Element,
        TC: Element,
    {
        let np = self.n_padded();
        (a.rows(), a.cols(), a.br(), a.bc()) == (self.m, self.k, self.bm, self.bk)
            && (b.rows(), b.cols(), b.br(), b.bc()) == (self.k, np, self.bk, self.bn)
            && (c.rows(), c.cols(), c.br(), c.bc()) == (self.m, np, self.bm, self.bn)
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

/// The GEMM kernel handle (Listing 1 realized).
pub struct Gemm<TA: Element, TB: Element, TC: Element> {
    shape: GemmShape,
    tuning: GemmTuning,
    tl: ThreadedLoop,
    brgemm: Arc<Brgemm<TA, TB, TC>>,
    /// Kernel of the ragged last N block (`n % bn` columns), if any.
    tail: Option<Arc<Brgemm<TA, TB, TC>>>,
    b_vnni: Option<usize>,
}

impl<TA: Element, TB: Element, TC: Element> Gemm<TA, TB, TC> {
    /// Builds the kernel for a flat (column-major-blocked) `B` operand.
    pub fn new(shape: GemmShape, tuning: GemmTuning) -> Result<Self, KernelError> {
        Self::build(shape, tuning, None)
    }

    /// Builds the kernel for a VNNI-packed `B` operand (low precision).
    pub fn new_vnni(shape: GemmShape, tuning: GemmTuning, v: usize) -> Result<Self, KernelError> {
        Self::build(shape, tuning, Some(v))
    }

    fn build(
        shape: GemmShape,
        tuning: GemmTuning,
        b_vnni: Option<usize>,
    ) -> Result<Self, KernelError> {
        shape.validate()?;
        let tl = ThreadedLoop::new(&shape.loop_specs(&tuning), &tuning.spec)
            .map_err(KernelError::Spec)?;
        let desc = match b_vnni {
            None => BrgemmDesc::blocked(shape.bm, shape.bn, shape.bk),
            Some(v) => BrgemmDesc::blocked_vnni(shape.bm, shape.bn, shape.bk, v),
        };
        let brgemm = Brgemm::new(desc);
        // Same strides as the full block (storage is padded), fewer columns.
        let tail = shape.tail_cols().map(|n| Brgemm::new(BrgemmDesc { n, ..desc }));
        Ok(Gemm { shape, tuning, tl, brgemm, tail, b_vnni })
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

    /// `C = A x B` on the given pool: one parallel region around
    /// [`Self::execute_in`].
    pub fn execute(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &mut BlockedMatrix<TC>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        self.check_operands(a, b, c)?;
        let run = self.begin(pool.nthreads())?;
        let c_shared = SharedSlice::new(c.data_mut());
        // SAFETY: `c` is exclusively borrowed for the whole region and the
        // region runs nothing but this GEMM.
        pool.parallel(|ctx| unsafe { self.execute_in(ctx, &run, a.data(), b.data(), &c_shared) });
        Ok(())
    }

    /// Starts one in-team execution for a team of `team` threads (see
    /// [`ThreadedLoop::begin`]); pass the run to [`Self::execute_in`].
    pub fn begin(&self, team: usize) -> Result<LoopRun, KernelError> {
        self.tl.begin(team).map_err(KernelError::Spec)
    }

    /// This member's share of `C = A x B`, called by **every** member of a
    /// team already inside a parallel region — the way a chain of GEMMs
    /// shares one region, with [`WorkerCtx::barrier`] between dependent
    /// ones. Operands are the backing data of blocked matrices laid out
    /// for [`Self::shape`] (`B`/`C` padded to [`GemmShape::n_padded`]
    /// columns).
    ///
    /// # Safety
    /// Between the team barriers (or region boundaries) that bracket the
    /// team's calls, nothing else may read or write the memory behind `c`:
    /// the members write disjoint blocks of it through the shared view.
    ///
    /// # Panics
    /// Panics if an operand is shorter than the shape requires.
    pub unsafe fn execute_in(
        &self,
        ctx: &WorkerCtx,
        run: &LoopRun,
        a_data: &[TA],
        b_data: &[TB],
        c: &SharedSlice<TC>,
    ) {
        let sh = self.shape;
        let (bm, bn, bk) = (sh.bm, sh.bn, sh.bk);
        let (mb, kb) = (sh.mb(), sh.kb());
        assert!(
            a_data.len() >= sh.m * sh.k
                && b_data.len() >= sh.k * sh.n_padded()
                && c.len() >= sh.m * sh.n_padded(),
            "GEMM operand shorter than its shape"
        );
        let k_step = self.tuning.k_step;
        let stride_a = bm * bk;
        let stride_b = bn * bk;
        let block_c = bm * bn;
        run.member(ctx, &|ind| {
            let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
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
            let brgemm = match &self.tail {
                Some(tail) if sh.block_cols(i_n) < bn => tail,
                _ => &self.brgemm,
            };
            // A[Mb][Kb] grid: block (im, ik) at (im*Kb + ik).
            let a_off = (im * kb + ik) * bm * bk;
            // B[Nb][Kb] grid: block (ik, in) at (in*Kb + ik).
            let b_off = (i_n * kb + ik) * bk * bn;
            brgemm.execute_stride(
                &a_data[a_off..],
                stride_a,
                &b_data[b_off..],
                stride_b,
                c_block,
                brcount,
            );
        });
    }

    fn check_operands(
        &self,
        a: &BlockedMatrix<TA>,
        b: &BlockedMatrix<TB>,
        c: &BlockedMatrix<TC>,
    ) -> Result<(), KernelError> {
        if !self.shape.operands_match(a, b, c) {
            return Err(KernelError::BadShape("operand layout mismatch".into()));
        }
        let want = match self.b_vnni {
            None => InnerLayout::ColMajor,
            Some(v) => InnerLayout::Vnni(v),
        };
        if b.inner() != want {
            return Err(KernelError::BadShape(format!(
                "B inner layout {:?} does not match kernel {:?}",
                b.inner(),
                want
            )));
        }
        Ok(())
    }
}

/// The quantized GEMM kernel: same PARLOOPER loop nest as [`Gemm`], but the
/// body invokes the `i8 x i8 -> i32` BRGEMM with dequantize-on-store.
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
pub struct GemmInt8 {
    shape: GemmShape,
    tuning: GemmTuning,
    tl: ThreadedLoop,
    brgemm: Arc<BrgemmI8>,
    /// Kernel of the ragged last N block (`n % bn` columns), if any.
    tail: Option<Arc<BrgemmI8>>,
    a_vnni: usize,
}

impl GemmInt8 {
    /// Builds the kernel; `v` is the VNNI factor of the `A` columns
    /// (`bk % v == 0`).
    pub fn new(shape: GemmShape, tuning: GemmTuning, v: usize) -> Result<Self, KernelError> {
        shape.validate()?;
        if v == 0 || !shape.bk.is_multiple_of(v) {
            return Err(KernelError::BadShape(format!(
                "bk={} not divisible by vnni factor {v}",
                shape.bk
            )));
        }
        let tl = ThreadedLoop::new(&shape.loop_specs(&tuning), &tuning.spec)
            .map_err(KernelError::Spec)?;
        let desc = BrgemmI8Desc::blocked(shape.bm, shape.bn, shape.bk, v);
        let brgemm = BrgemmI8::new(desc);
        let tail = shape.tail_cols().map(|n| BrgemmI8::new(BrgemmI8Desc { n, ..desc }));
        Ok(GemmInt8 { shape, tuning, tl, brgemm, tail, a_vnni: v })
    }

    /// Problem geometry.
    pub fn shape(&self) -> &GemmShape {
        &self.shape
    }

    /// Active tuning.
    pub fn tuning(&self) -> &GemmTuning {
        &self.tuning
    }

    /// `C = dequant(qA x qB)` on the given pool: one parallel region around
    /// [`Self::execute_in`]. `row_scales` has one entry per logical `A`
    /// row, `col_scales` one per logical `B` column.
    pub fn execute(
        &self,
        a: &BlockedMatrix<i8>,
        row_scales: &[f32],
        b: &BlockedMatrix<i8>,
        col_scales: &[f32],
        c: &mut BlockedMatrix<f32>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        self.check_operands(a, b, c)?;
        if row_scales.len() != self.shape.m || col_scales.len() < self.shape.n {
            return Err(KernelError::BadShape("scale length mismatch".into()));
        }
        let run = self.begin(pool.nthreads())?;
        let c_shared = SharedSlice::new(c.data_mut());
        // SAFETY: `c` is exclusively borrowed for the whole region and the
        // region runs nothing but this GEMM.
        pool.parallel(|ctx| unsafe {
            self.execute_in(ctx, &run, a.data(), row_scales, b.data(), col_scales, &c_shared)
        });
        Ok(())
    }

    /// Starts one in-team execution (see [`Gemm::begin`]).
    pub fn begin(&self, team: usize) -> Result<LoopRun, KernelError> {
        self.tl.begin(team).map_err(KernelError::Spec)
    }

    /// This member's share of the quantized GEMM inside an enclosing
    /// region (see [`Gemm::execute_in`]).
    ///
    /// # Safety
    /// Same contract as [`Gemm::execute_in`]: nothing else touches the
    /// memory behind `c` while the team executes.
    ///
    /// # Panics
    /// Panics if an operand or scale vector is shorter than the shape
    /// requires.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn execute_in(
        &self,
        ctx: &WorkerCtx,
        run: &LoopRun,
        a_data: &[i8],
        row_scales: &[f32],
        b_data: &[i8],
        col_scales: &[f32],
        c: &SharedSlice<f32>,
    ) {
        let sh = self.shape;
        let (bm, bn, bk) = (sh.bm, sh.bn, sh.bk);
        let (mb, kb) = (sh.mb(), sh.kb());
        assert!(
            a_data.len() >= sh.m * sh.k
                && b_data.len() >= sh.k * sh.n_padded()
                && c.len() >= sh.m * sh.n_padded()
                && row_scales.len() >= sh.m
                && col_scales.len() >= sh.n,
            "int8 GEMM operand shorter than its shape"
        );
        let stride_a = bm * bk;
        let stride_b = bn * bk;
        let block_c = bm * bn;
        run.member(ctx, &|ind| {
            let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
            if ik != 0 {
                return; // the whole reduction ran at this block's first K step
            }
            let c_off = (i_n * mb + im) * block_c;
            // SAFETY: same disjointness argument as [`Gemm::execute_in`]:
            // concurrent iterations differ in (im, in) for any legal spec.
            let c_block = unsafe { c.slice_mut(c_off, block_c) };
            pl_tpp::unary::zero(bm, bn, c_block, bm);
            let cols = sh.block_cols(i_n);
            let brgemm = match &self.tail {
                Some(tail) if cols < bn => tail,
                _ => &self.brgemm,
            };
            brgemm.execute_stride(
                &a_data[im * kb * bm * bk..],
                stride_a,
                &b_data[i_n * kb * bk * bn..],
                stride_b,
                c_block,
                kb,
                &row_scales[im * bm..im * bm + bm],
                &col_scales[i_n * bn..i_n * bn + cols],
            );
        });
    }

    fn check_operands(
        &self,
        a: &BlockedMatrix<i8>,
        b: &BlockedMatrix<i8>,
        c: &BlockedMatrix<f32>,
    ) -> Result<(), KernelError> {
        if !self.shape.operands_match(a, b, c) {
            return Err(KernelError::BadShape("operand layout mismatch".into()));
        }
        if a.inner() != InnerLayout::VnniCols(self.a_vnni) {
            return Err(KernelError::BadShape(format!(
                "A inner layout {:?} does not match kernel VnniCols({})",
                a.inner(),
                self.a_vnni
            )));
        }
        if b.inner() != InnerLayout::ColMajor {
            return Err(KernelError::BadShape(format!(
                "B inner layout {:?} must be ColMajor for the int8 kernel",
                b.inner()
            )));
        }
        Ok(())
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

/// Convenience error alias used by higher layers.
pub type GemmResult = Result<(), SpecError>;

#[cfg(test)]
mod tests {
    use super::*;
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
        // A spec without parallel letters replicates the nest on every team
        // thread (OpenMP semantics of code outside a worksharing
        // construct), so sequential specs run on a single-thread pool and
        // parallel specs on a 4-thread pool — the paper's legality contract.
        let pool1 = ThreadPool::new(1);
        let pool4 = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (a, b, a_cm, b_cm) = random_problem(sh, 42);
        let c_ref = reference_gemm(&a_cm, &b_cm, sh.m, sh.n, sh.k);

        let mut cases: Vec<(GemmTuning, &ThreadPool)> = vec![
            (GemmTuning::simple("abc"), &pool1),
            (GemmTuning::simple("bca"), &pool1),
            (GemmTuning::simple("cab"), &pool1),
            (GemmTuning::simple("aBC"), &pool4),
            (GemmTuning::simple("BCa"), &pool4),
            (GemmTuning::default_parallel(sh.kb()), &pool4),
        ];
        cases.push((
            GemmTuning {
                spec: "bcaBCb".into(),
                k_step: 2,
                a_blocks: vec![],
                b_blocks: vec![4, 2],
                c_blocks: vec![2],
            },
            &pool4,
        ));
        cases.push((
            GemmTuning {
                spec: "caB @ schedule(dynamic,1)".into(),
                k_step: 3,
                a_blocks: vec![],
                b_blocks: vec![],
                c_blocks: vec![],
            },
            &pool4,
        ));

        for (t, pool) in cases {
            let spec_str = t.spec.clone();
            let gemm = Gemm::<f32, f32, f32>::new(sh, t).unwrap();
            let mut c = BlockedMatrix::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&a, &b, &mut c, pool).unwrap();
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
    fn bf16_gemm_with_vnni_b() {
        let pool = ThreadPool::new(2);
        let sh = GemmShape { m: 16, n: 16, k: 32, bm: 8, bn: 8, bk: 8 };
        let mut rng = Xorshift::new(3);
        let mut a_cm = vec![0.0f32; sh.m * sh.k];
        let mut b_cm = vec![0.0f32; sh.k * sh.n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::<Bf16>::a_layout(sh.m, sh.k, sh.bm, sh.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::<Bf16>::b_layout_vnni(sh.k, sh.n, sh.bk, sh.bn, 2).unwrap();
        b.pack_from_colmajor(&b_cm);

        // Reference over quantized values.
        let aq = a.unpack_to_colmajor();
        let bq = b.unpack_to_colmajor();
        let c_ref = reference_gemm(&aq, &bq, sh.m, sh.n, sh.k);

        let gemm = Gemm::<Bf16, Bf16, f32>::new_vnni(sh, GemmTuning::default_parallel(sh.kb()), 2)
            .unwrap();
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
        let pool1 = ThreadPool::new(1);
        let pool4 = ThreadPool::new(4);
        let sh = GemmShape { m: 32, n: 24, k: 48, bm: 8, bn: 6, bk: 8 };
        let (qa, rs, qb, cs) = int8_problem(sh, 2, 43);
        let c_ref = reference_int8(&qa, &rs, &qb, &cs);
        let cases: Vec<(GemmTuning, &ThreadPool)> = vec![
            (GemmTuning::simple("abc"), &pool1),
            (GemmTuning::simple("BCa"), &pool4),
            (GemmTuning::default_parallel(sh.kb()), &pool4),
            (
                GemmTuning {
                    spec: "bcaBCb".into(),
                    k_step: 2,
                    a_blocks: vec![],
                    b_blocks: vec![4, 2],
                    c_blocks: vec![2],
                },
                &pool4,
            ),
        ];
        for (t, pool) in cases {
            let spec_str = t.spec.clone();
            let gemm = GemmInt8::new(sh, t, 2).unwrap();
            let mut c = BlockedMatrix::<f32>::c_layout(sh.m, sh.n, sh.bm, sh.bn).unwrap();
            gemm.execute(&qa, &rs, &qb, &cs, &mut c, pool).unwrap();
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
            g.execute_in(ctx, &run1, a1.data(), b.data(), &s1);
            ctx.barrier();
            g.execute_in(ctx, &run2, a2.data(), s1.slice(0, s1.len()), &s2);
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
