//! Prepared (pack-once) execution plans — the paper's "layout
//! transformation paid once per layer boundary" turned into the execution
//! API.
//!
//! The flat bridge ([`crate::matmul::matmul`]) re-copies/transposes its
//! operands, re-packs them into PARLOOPER blocked layouts and
//! re-constructs the GEMM kernel on **every** invocation.
//! For a weight contraction executed thousands of times per second that is
//! pure overhead: the weight bytes never change. The prepared-op lifecycle
//! front-loads all of it:
//!
//! * **build** — [`MatmulPlan::new`] transposes (if needed) and packs the
//!   weight into the blocked `A` layout exactly once, with the same
//!   M/K blockings the per-call bridge would pick
//!   ([`GemmShape::default_block`]), so results stay bit-identical;
//! * **warm** — [`MatmulPlan::warm`] pre-constructs the kernel for every
//!   activation width the caller will execute;
//! * **execute** — [`MatmulPlan::execute`] packs only the activations per
//!   call. Inside a layer's region, one packed activation matrix feeds
//!   every plan with the same reduction extent (a layer's QKV
//!   projections).
//!
//! A model layer runs all of its work in **one** parallel region. Its
//! schedule is a declared list of phases, run by this module's in-team
//! runner (`Region`). Two schedules run on it: the decoder's layer
//! (`llm::Batch::LAYER`, layer after layer in one region) and the BERT
//! encoder layer (`bert::Layer::PHASES`). A phase is a column phase (the
//! loop nest `"A"` over the columns), an item phase (`"A @
//! schedule(dynamic,1)"` over column ranges), a row phase (the same nest
//! over disjoint row ranges, e.g. attention heads) or a GEMM phase (the
//! plans' own nests). The runner places every team barrier, and a body
//! reaches the region's matrices only through a token for its own columns
//! or rows, so ownership is argued once, here, not at each call site.
//!
//! Activations block along N by [`GemmShape::activation_block`] (the
//! microkernel's register-tile width, ragged last block) whatever the
//! width, and every output column is one k-ordered reduction that depends
//! on neither the width nor the spec — so **column `j` of `execute(n)`
//! equals `execute(1)` on that column bit for bit**, at f32 and int8 (this
//! module's tests state the property under the offline tuner's loop specs
//! too). Batched = unbatched decode rests on it.
//!
//! Every kernel runs the built-in parallel spec
//! ([`GemmTuning::default_parallel`]): the offline tuner reproduces the
//! paper's search, and no tuned spec has yet measured better on the serving
//! path.
//!
//! A plan's weight chooses its BRGEMM tile, and the weight is the one
//! place a plan branches: the f32 weight packed by [`MatmulPlan::new`], its
//! int8 quantization with per-channel scales ([`MatmulPlan::with_precision`],
//! whose activation matrices also carry a quantized twin), or a
//! block-sparse (BCSC) weight ([`MatmulPlan::block_sparse`], the
//! contractions of the block-sparse BERT layer). In between, one generic
//! path runs the one GEMM nest ([`GemmKernel`]) over the weight's tile,
//! which also names the trace span (`gemm.execute` / `gemm.i8.execute` /
//! `spmm.execute`).
//!
//! The module also exposes [`pack_events`], a process-wide count of weight
//! pack/transpose work, as the assertion hook for the packing discipline:
//! decode paths over prepared models must leave it unchanged.

use crate::matmul::{transpose_cm, Trans};
use parlooper::{LoopRun, LoopSpecs, ThreadedLoop};
use pl_kernels::spmm::BcscTile;
use pl_kernels::{GemmKernel, GemmShape, GemmTuning, KernelError, SharedSlice, Tile};
use pl_runtime::{ThreadPool, WorkerCtx};
use pl_tensor::{
    quantize_weight_a_vnni, symmetric_scale, BcscMatrix, BlockedMatrix, DType, Element,
};
use pl_tpp::brgemm::{Brgemm, BrgemmI8};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Process-wide count of weight pack/transpose events: one per
/// [`MatmulPlan`] build (the pack-once cost, plus one more when the weight
/// needed a transpose) and therefore one per [`crate::matmul::matmul`]
/// call (the pack-per-call compatibility bridge builds a throwaway plan).
static PACK_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Reads the weight-pack event counter (see `PACK_EVENTS`).
///
/// This is the observability hook for the prepared-op packing discipline:
/// after a model is constructed (its plans built), running `forward` /
/// `forward_batch` must leave this counter unchanged — no weight bytes are
/// packed or transposed on the decode path. `tests/pack_discipline.rs` asserts exactly that.
pub fn pack_events() -> u64 {
    PACK_EVENTS.load(Ordering::Relaxed)
}

fn record_pack_event() {
    PACK_EVENTS.fetch_add(1, Ordering::Relaxed);
}

/// Numeric precision of a prepared plan (and, through
/// `pl_serve::ServerConfig`, of a whole serving stack).
///
/// Batched decode is bit-identical to unbatched decode at **both**
/// precisions. `Int8` trades a bounded relative error *against the f32
/// model* for ~4x less weight traffic per decode step: weights are
/// quantized **once** at plan build (symmetric int8, one f32 scale per
/// output channel, VNNI-blocked), activations are quantized on the fly per
/// step (one scale per column/token), the inner product accumulates in i32
/// and dequantizes on store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// f32 weights and arithmetic.
    #[default]
    F32,
    /// Pack-once symmetric int8 weights, i32 accumulation, f32 outputs.
    Int8,
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Precision::F32 => write!(f, "f32"),
            Precision::Int8 => write!(f, "int8"),
        }
    }
}

impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "fp32" => Ok(Precision::F32),
            "int8" | "i8" => Ok(Precision::Int8),
            other => Err(format!("unknown precision '{other}' (expected f32 or int8)")),
        }
    }
}

/// Cap on cached per-width kernels per plan. Steady-state serving hits a
/// bounded width set (decode `1..=max_batch` plus the prefill ladder —
/// far below this), but a long-running server also sees arbitrary
/// prompt-length prefill widths; beyond the cap those build a throwaway
/// kernel per call instead of growing the cache without bound.
const KERNEL_CACHE_CAP: usize = 64;

/// An owned buffer plus the raw view a thread team shares it through.
struct TeamBuf<T> {
    /// Keeps the allocation alive; only ever accessed through `view`.
    _own: Vec<T>,
    view: SharedSlice<T>,
}

impl<T: Clone + Default> TeamBuf<T> {
    fn zeroed(len: usize) -> Self {
        let mut own = vec![T::default(); len];
        let view = SharedSlice::new(&mut own);
        TeamBuf { _own: own, view }
    }
}

/// A `rows x n` activation (or projection output) in the blocked layout
/// the plan kernels consume — `[Nb][Rb][bn][br]`, `bn =`
/// [`GemmShape::activation_block`]`(n)`, storage zero-padded to whole
/// column blocks. Inside a region, column and item bodies write and read
/// only their own columns and row bodies only their own rows, while GEMM
/// phases consume and produce whole matrices. A matrix built for an int8
/// plan also carries the quantized twin of every column and its scale,
/// filled with the column.
pub(crate) struct ActMatrix {
    rows: usize,
    br: usize,
    n: usize,
    bn: usize,
    data: TeamBuf<f32>,
    quant: Option<(TeamBuf<i8>, TeamBuf<f32>)>,
}

impl ActMatrix {
    fn new(rows: usize, br: usize, n: usize, quantized: bool) -> Self {
        assert!(n > 0, "activation width must be non-zero");
        let bn = GemmShape::activation_block(n);
        let len = rows * n.div_ceil(bn) * bn;
        ActMatrix {
            rows,
            br,
            n,
            bn,
            data: TeamBuf::zeroed(len),
            quant: quantized.then(|| (TeamBuf::zeroed(len), TeamBuf::zeroed(n))),
        }
    }

    /// Offset of the `rb`-th `br`-element run of column `j`.
    #[inline]
    fn run_offset(&self, j: usize, rb: usize) -> usize {
        ((j / self.bn) * (self.rows / self.br) + rb) * self.br * self.bn + (j % self.bn) * self.br
    }

    /// The pieces of rows `rows` of column `j` — the parts of the
    /// `br`-element runs they cross — in row order, each as (its first
    /// row's index within `rows`, its storage offset, its length).
    fn pieces(&self, j: usize, rows: Range<usize>) -> impl Iterator<Item = [usize; 3]> + '_ {
        (rows.start / self.br..rows.end.div_ceil(self.br)).map(move |rb| {
            let (lo, hi) = (rows.start.max(rb * self.br), rows.end.min((rb + 1) * self.br));
            [lo - rows.start, self.run_offset(j, rb) + lo - rb * self.br, hi - lo]
        })
    }

    /// The flat column-major `rows x n` contents.
    pub(crate) fn into_colmajor(mut self) -> Vec<f32> {
        let rows = self.rows;
        let mut out = vec![0.0f32; rows * self.n];
        let mut alone = Region::new(Vec::new(), std::slice::from_mut(&mut self), &[], &[]);
        let cols = alone.sole();
        for (j, col) in out.chunks_exact_mut(rows).enumerate() {
            cols.read(Act(0), j, col);
        }
        out
    }
}

/// The BRGEMM tile of a plan's weight, and how a GEMM phase feeds it.
trait PlanTile: Tile<C = f32> + 'static {
    const PRECISION: Precision;

    /// Bytes of `a` one execution streams (see
    /// [`MatmulPlan::weight_stream_bytes`]).
    fn stream_bytes(a: &Self::Operand) -> usize;

    /// The `B` operand and per-call scales of a GEMM over `act`: its
    /// columns and `()`, or their quantized twin and (`rows`, its column
    /// scales).
    ///
    /// # Safety
    /// Nothing may write `act` while they are in use.
    unsafe fn inputs<'a>(act: &'a ActMatrix, rows: &'a [f32]) -> (&'a [Self::B], Self::Scales<'a>);

    /// `a`'s values' little-endian bytes, folded into the FNV-1a state `h`.
    #[cfg(test)]
    fn fold_fnv(a: &Self::Operand, h: u64) -> u64;
}

/// Folds `bytes` into the FNV-1a state `h`.
#[cfg(test)]
fn fnv(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

impl PlanTile for Brgemm<f32, f32, f32> {
    const PRECISION: Precision = Precision::F32;

    fn stream_bytes(a: &BlockedMatrix<f32>) -> usize {
        std::mem::size_of_val(a.data())
    }

    unsafe fn inputs<'a>(act: &'a ActMatrix, _: &'a [f32]) -> (&'a [f32], ()) {
        (act.data.view.slice(0, act.data.view.len()), ())
    }

    #[cfg(test)]
    fn fold_fnv(a: &BlockedMatrix<f32>, h: u64) -> u64 {
        fnv(h, a.data().iter().flat_map(|x| x.to_le_bytes()))
    }
}

impl PlanTile for BrgemmI8 {
    const PRECISION: Precision = Precision::Int8;

    fn stream_bytes(a: &BlockedMatrix<i8>) -> usize {
        std::mem::size_of_val(a.data())
    }

    unsafe fn inputs<'a>(act: &'a ActMatrix, rows: &'a [f32]) -> (&'a [i8], Self::Scales<'a>) {
        let (q, cols) = act.quant.as_ref().expect("int8 plans need an input built by an int8 plan");
        (q.view.slice(0, q.view.len()), (rows, cols.view.slice(0, act.n)))
    }

    #[cfg(test)]
    fn fold_fnv(a: &BlockedMatrix<i8>, h: u64) -> u64 {
        fnv(h, a.data().iter().flat_map(|x| x.to_le_bytes()))
    }
}

impl PlanTile for BcscTile {
    const PRECISION: Precision = Precision::F32;

    /// The values and both index arrays.
    fn stream_bytes(a: &BcscMatrix<f32>) -> usize {
        a.compressed_bytes()
    }

    /// The dense f32 plan's: the columns themselves.
    unsafe fn inputs<'a>(act: &'a ActMatrix, rows: &'a [f32]) -> (&'a [f32], ()) {
        <Brgemm<f32, f32, f32> as PlanTile>::inputs(act, rows)
    }

    #[cfg(test)]
    fn fold_fnv(a: &BcscMatrix<f32>, h: u64) -> u64 {
        fnv(h, a.values().iter().flat_map(|x| x.to_le_bytes()))
    }
}

/// A plan's pack-once weight: `A` in the operand its tile reads and, at
/// int8, one dequantization scale per output channel.
struct Packed<T: Tile> {
    a: T::Operand,
    row_scales: Vec<f32>,
}

/// A plan's weight, whatever its precision: the one point where a plan
/// dispatches to its precision's (generic) code.
trait Weight: Send + Sync {
    fn precision(&self) -> Precision;
    /// See [`MatmulPlan::weight_stream_bytes`].
    fn stream_bytes(&self) -> usize;
    /// The GEMM over this weight for `shape` under tuning `t`.
    fn kernel(self: Arc<Self>, shape: GemmShape, t: GemmTuning) -> Result<PlanKernel, KernelError>;
    #[cfg(test)]
    fn fold_fnv(&self, h: u64) -> u64;
}

impl<T: PlanTile> Weight for Packed<T> {
    fn precision(&self) -> Precision {
        T::PRECISION
    }

    fn stream_bytes(&self) -> usize {
        T::stream_bytes(&self.a) + std::mem::size_of_val(self.row_scales.as_slice())
    }

    fn kernel(self: Arc<Self>, shape: GemmShape, t: GemmTuning) -> Result<PlanKernel, KernelError> {
        let gemm = GemmKernel::build(shape, t, T::geometry(&self.a).4)?;
        Ok(Box::new(Bound { gemm, weight: self }))
    }

    #[cfg(test)]
    fn fold_fnv(&self, h: u64) -> u64 {
        fnv(T::fold_fnv(&self.a, h), self.row_scales.iter().flat_map(|x| x.to_le_bytes()))
    }
}

/// A plan's compiled kernel at one activation width.
type PlanKernel = Box<dyn Kernel>;

trait Kernel: Send + Sync {
    /// Starts one (single-use) execution by a team of `team` threads that
    /// is, or will be, inside a parallel region.
    fn begin(&self, team: usize) -> LoopRun;

    /// This member's share of `out = W x act` in `run`; every member of
    /// the team calls it once.
    ///
    /// # Safety
    /// Between the team barriers (or region boundaries) bracketing the
    /// team's calls, no thread may write `act` and none may otherwise
    /// read or write `out`. Member `i` then writes only the output blocks
    /// the plan's nest gives it, which no other member writes.
    ///
    /// # Panics
    /// Panics if `act`/`out` were not built for this kernel's geometry,
    /// width and precision.
    unsafe fn member(&self, ctx: &WorkerCtx, run: &LoopRun, act: &ActMatrix, out: &ActMatrix);
}

/// The GEMM nest at one width over a precision's tile, bound to the
/// weight it reads.
struct Bound<T: Tile> {
    gemm: GemmKernel<T>,
    weight: Arc<Packed<T>>,
}

impl<T: PlanTile> Kernel for Bound<T> {
    fn begin(&self, team: usize) -> LoopRun {
        self.gemm.begin(team).expect("plan kernel spec incompatible with the team size")
    }

    unsafe fn member(&self, ctx: &WorkerCtx, run: &LoopRun, act: &ActMatrix, out: &ActMatrix) {
        let GemmShape { m, n, k, bm, bk, .. } = *self.gemm.shape();
        assert!(
            (act.rows, act.br, act.n, out.rows, out.br, out.n) == (k, bk, n, m, bm, n),
            "operands do not match the {m}x{n}x{k} plan"
        );
        // Per-shape wall-clock span (member 0's share — the phase, give
        // or take the static split), args (m, n, k). The tile names it, so
        // f32 and i8 timings of the same shape stay distinguishable.
        let _span = (ctx.tid() == 0).then(|| pl_trace::span(T::SPAN, [m, n, k].map(|d| d as u64)));
        // Nobody writes `act` during the call and `out` belongs to this
        // GEMM (the contract); at int8 the quantized twin and its scales
        // were written with the columns.
        let (b, scales) = T::inputs(act, &self.weight.row_scales);
        self.gemm.execute_in(ctx, run, &self.weight.a, b, &out.data.view, scales, None);
    }
}

/// A compiled, pack-once GEMM plan over one weight operand.
///
/// Built from the flat column-major weight once; executes
/// `out (m x n) = W (m x k) x act (k x n)` for any activation width `n`
/// with zero per-call weight packing, transposition or kernel
/// construction (each width's kernel is built on first use — or by
/// [`MatmulPlan::warm`] — and cached). Execution is `&self` and
/// thread-safe: one plan serves any number of concurrent sessions.
pub struct MatmulPlan {
    m: usize,
    k: usize,
    bm: usize,
    bk: usize,
    weight: Arc<dyn Weight>,
    kernels: RwLock<HashMap<usize, Arc<PlanKernel>>>,
}

impl MatmulPlan {
    /// Packs `w` — flat column-major, `m x k` after `trans` — into the
    /// blocked `A` layout. This is the **only** place the weight bytes are
    /// touched; every later [`MatmulPlan::execute`] reuses the packed
    /// operand.
    pub fn new(w: &[f32], trans: Trans, m: usize, k: usize) -> Self {
        Self::with_precision(w, trans, m, k, Precision::F32)
    }

    /// [`MatmulPlan::new`] with an explicit precision. At
    /// [`Precision::Int8`] the build quantizes the weight into the
    /// VNNI-blocked int8 `A` layout with per-output-channel scales — still
    /// exactly one pack event: weight bytes are touched once at build and
    /// never on the execute path.
    pub fn with_precision(w: &[f32], trans: Trans, m: usize, k: usize, p: Precision) -> Self {
        assert_eq!(w.len(), m * k, "weight size mismatch: {} != {m}x{k}", w.len());
        let bm = GemmShape::default_block(m);
        let bk = GemmShape::default_block(k);
        let flat: std::borrow::Cow<'_, [f32]> = match trans {
            Trans::No => std::borrow::Cow::Borrowed(w),
            Trans::Yes => {
                record_pack_event(); // the transpose touches every weight byte
                std::borrow::Cow::Owned(transpose_cm(w, k, m))
            }
        };
        let weight: Arc<dyn Weight> = match p {
            Precision::F32 => {
                let mut a =
                    BlockedMatrix::<f32>::a_layout(m, k, bm, bk).expect("plan weight layout");
                a.pack_from_colmajor(&flat);
                Arc::new(Packed::<Brgemm<f32, f32, f32>> { a, row_scales: Vec::new() })
            }
            Precision::Int8 => {
                // The dtype's VNNI factor, degraded to a divisor of `bk`
                // when the K blocking is narrower than the granule.
                let v = vnni_fit(DType::I8.vnni_factor(), bk);
                let (a, row_scales) =
                    quantize_weight_a_vnni(&flat, m, k, bm, bk, v).expect("plan weight layout");
                Arc::new(Packed::<BrgemmI8> { a, row_scales })
            }
        };
        record_pack_event();
        MatmulPlan { m, k, bm, bk, weight, kernels: RwLock::new(HashMap::new()) }
    }

    /// A plan over a block-sparse weight, already compressed: pruning
    /// packed it, so the build records no pack event. Its GEMM is the same
    /// nest over the block-sparse tile ([`pl_kernels::BlockSpmm`]),
    /// reading the same packed activations as a dense f32 plan.
    pub fn block_sparse(w: BcscMatrix<f32>) -> Self {
        let (m, k, bm, bk) = (w.rows(), w.cols(), w.bm(), w.bk());
        let weight = Arc::new(Packed::<BcscTile> { a: w, row_scales: Vec::new() });
        MatmulPlan { m, k, bm, bk, weight, kernels: RwLock::new(HashMap::new()) }
    }

    /// The precision this plan was built at.
    pub fn precision(&self) -> Precision {
        self.weight.precision()
    }

    /// Bytes of packed weight operand streamed through memory by one
    /// execution of this plan (any width): the packed weight data itself
    /// plus, for quantized plans, the per-channel scale vector. This is
    /// the counter behind the ~4x decode-traffic claim: an int8 plan
    /// streams `m*k + 4*m` bytes where the f32 plan streams `4*m*k`.
    pub fn weight_stream_bytes(&self) -> usize {
        self.weight.stream_bytes()
    }

    /// Folds the packed weight operand's bytes — the blocked data, plus the
    /// scales of a quantized plan — into the FNV-1a state `h`.
    #[cfg(test)]
    pub(crate) fn fold_weight_fnv(&self, h: u64) -> u64 {
        self.weight.fold_fnv(h)
    }

    /// Reduction extent (`k`) — the activation row count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pre-constructs (and caches) the kernel for width `n`, so the first
    /// real execution at `n` builds nothing.
    pub fn warm(&self, n: usize) {
        let _ = self.kernel_for(n);
    }

    /// Widths with a cached kernel (diagnostics).
    pub fn warmed_widths(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.kernels.read().unwrap().keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn kernel_for(&self, n: usize) -> Arc<PlanKernel> {
        assert!(n > 0, "activation width must be non-zero");
        if let Some(k) = self.kernels.read().unwrap().get(&n) {
            return Arc::clone(k);
        }
        let shape = self.shape(n);
        let tuning = GemmTuning::default_parallel(shape.kb());
        let kernel = Arc::new(self.build_kernel(shape, tuning).expect("plan kernel shape"));
        let mut cache = self.kernels.write().unwrap();
        if cache.len() < KERNEL_CACHE_CAP || cache.contains_key(&n) {
            cache.insert(n, Arc::clone(&kernel));
        }
        kernel
    }

    /// The GEMM this plan runs at activation width `n`.
    fn shape(&self, n: usize) -> GemmShape {
        GemmShape {
            m: self.m,
            n,
            k: self.k,
            bm: self.bm,
            bn: GemmShape::activation_block(n),
            bk: self.bk,
        }
    }

    /// Compiles this plan's kernel for `shape` under `tuning` (the plan
    /// caches it at `default_parallel`, see [`MatmulPlan::kernel_for`]).
    fn build_kernel(
        &self,
        shape: GemmShape,
        tuning: GemmTuning,
    ) -> Result<PlanKernel, KernelError> {
        Arc::clone(&self.weight).kernel(shape, tuning)
    }

    /// An empty `k x n` input operand for this plan (and any sibling
    /// with the same `k`, `bk` and precision), for a team to fill by
    /// columns.
    pub(crate) fn input(&self, n: usize) -> ActMatrix {
        ActMatrix::new(self.k, self.bk, n, self.precision() == Precision::Int8)
    }

    /// An empty `m x n` output operand for this plan.
    pub(crate) fn output(&self, n: usize) -> ActMatrix {
        ActMatrix::new(self.m, self.bm, n, false)
    }

    /// Packs a flat column-major `k x n` activation matrix.
    fn pack(&self, act: &[f32], n: usize) -> ActMatrix {
        assert_eq!(act.len(), self.k * n, "activation size mismatch");
        let mut packed = self.input(n);
        let mut alone = Region::new(Vec::new(), std::slice::from_mut(&mut packed), &[], &[]);
        let mut cols = alone.sole();
        for (j, col) in act.chunks_exact(self.k).enumerate() {
            cols.write(Act(0), j, col);
        }
        packed
    }

    /// Runs the plan over an already-packed activation operand through
    /// `kernel`, one of this plan's kernels at `act`'s width. Returns the
    /// flat column-major `m x n` result.
    fn execute_with(&self, kernel: &PlanKernel, act: &ActMatrix, pool: &ThreadPool) -> Vec<f32> {
        let out = self.output(act.n);
        let run = kernel.begin(pool.nthreads());
        // SAFETY: `out` is local, and nothing can write `act` while it is
        // borrowed shared (a region borrows its matrices exclusively); the
        // parallel region runs nothing but this plan.
        pool.parallel(|ctx| unsafe { kernel.member(ctx, &run, act, &out) });
        out.into_colmajor()
    }

    /// `out (m x n) = W x act` over a flat column-major `k x n` activation
    /// matrix. Packs the activations (never the weight) and executes the
    /// cached kernel for width `n`.
    pub fn execute(&self, act: &[f32], n: usize, pool: &ThreadPool) -> Vec<f32> {
        self.execute_with(&self.kernel_for(n), &self.pack(act, n), pool)
    }
}

/// Names one of a [`Region`]'s activation matrices: its index in the list
/// the region borrows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Act(pub(crate) usize);

/// A column, item or row phase body, run once per index of the phase's
/// nest with a token for that index's share and the member's own scratch.
pub(crate) type Body<C> = fn(&C, &mut Token<'_>, &mut [f32]);

/// What a phase runs, and so the loop nest that splits it over the team.
pub(crate) enum Work<C> {
    /// The body per column, over [`column_nest`].
    Columns(Body<C>),
    /// The body per item (owning the item's columns), over [`item_nest`].
    Items(Body<C>),
    /// The body per row range (owning those rows of every column of every
    /// matrix), over [`item_nest`].
    Rows(Body<C>),
    /// `out = plan x in` per `(plan, in, out)`, `plan` indexing the
    /// layer's plans: the plans' own nests, back to back.
    Gemms(&'static [(usize, Act, Act)]),
}

impl<C> Work<C> {
    /// Whether the runner puts a team barrier between a phase running
    /// `self` and the next one running `next`: always, but between two
    /// column phases, which split the columns identically.
    pub(crate) fn barrier_before(&self, next: &Work<C>) -> bool {
        !matches!((self, next), (Work::Columns(_), Work::Columns(_)))
    }
}

/// One phase of a [`Region`]'s per-layer schedule: what it does (the
/// phase table's "work" cell), the trace span it opens (member 0's,
/// barrier waits included; `None` extends the previous one) and its work.
pub(crate) struct Phase<C> {
    pub(crate) what: &'static str,
    pub(crate) span: Option<&'static str>,
    pub(crate) work: Work<C>,
}

/// The column phases' nest: `"A"` over `0..n`, a static contiguous run of
/// columns per member (`pl_runtime::block_partition`).
pub(crate) fn column_nest(n: usize) -> ThreadedLoop {
    ThreadedLoop::new(&[LoopSpecs::new(0, n, 1)], "A").expect("column nest")
}

/// The item and row phases' nest: `"A @ schedule(dynamic,1)"` over the
/// items (or row ranges), each member claiming the next unclaimed one
/// (items differ in width and context length).
pub(crate) fn item_nest(items: usize) -> ThreadedLoop {
    ThreadedLoop::new(&[LoopSpecs::new(0, items, 1)], "A @ schedule(dynamic,1)").expect("item nest")
}

/// The one in-team runner: runs a per-layer schedule of [`Phase`]s, layer
/// after layer, inside **one** parallel region, over column-major streams
/// (`rows x n` each; the first is the residual stream) and activation
/// matrices of `n` columns, all of which it borrows exclusively. Two
/// schedules run on it: the decoder's layer and the BERT encoder layer.
///
/// # Soundness
/// Every `unsafe` in this module rests on the argument here. While a
/// region lives, nothing outside it can reach its operands (it holds them
/// by `&mut`). Inside, the only paths to their storage are a [`Token`] and
/// the GEMM phases' nests. A token reaches only its own share, and every
/// access checks it: a column or item body's token owns its columns (every
/// row of every stream and matrix), a row body's token owns its rows of
/// every column of every matrix. A row token reaches no stream and writes
/// no matrix with an int8 twin, whose per-column scale spans every row.
/// Two facts make every access race-free:
///
/// 1. **Each nest's partition is disjoint.** The column nest gives every
///    column, and the item nest every item or row range, to exactly one
///    member; the items' columns and the row ranges are disjoint (checked
///    by [`Region::new`]). A GEMM nest writes each output block from one
///    member: a sequential spec runs on member 0 alone, `GemmKernel::build`
///    rejects a spec that would share a block (at every precision), and
///    `tests/partition.rs` checks every generated spec. A GEMM phase's
///    outputs are distinct from each other and from its inputs (checked by
///    [`Region::run`]).
/// 2. **A team barrier separates consecutive phases**, except two column
///    phases in a row: they share one static partition, so each column
///    stays with the member that last touched it. So a barrier precedes and
///    follows every row phase, where ownership turns from columns to rows
///    and back.
pub(crate) struct Region<'r> {
    n: usize,
    /// Each stream's rows and storage.
    streams: Vec<(usize, SharedSlice<f32>)>,
    acts: &'r [ActMatrix],
    items: &'r [Range<usize>],
    bands: &'r [Range<usize>],
    _streams: PhantomData<&'r mut [f32]>,
}

impl<'r> Region<'r> {
    /// A region over `streams`, the matrices `acts` (all `n` columns wide;
    /// [`Act`]`(i)` names `acts[i]`), `items`, disjoint ascending column
    /// ranges, and `bands`, disjoint ascending row ranges.
    pub(crate) fn new(
        streams: Vec<&'r mut [f32]>,
        acts: &'r mut [ActMatrix],
        items: &'r [Range<usize>],
        bands: &'r [Range<usize>],
    ) -> Self {
        let n = acts[0].n;
        assert!(
            acts.iter().all(|m| m.n == n) && streams.iter().all(|x| x.len().is_multiple_of(n)),
            "region operands must share their {n} columns"
        );
        let ordered = |r: &[Range<usize>]| {
            r.iter().all(|r| r.start <= r.end) && r.windows(2).all(|w| w[0].end <= w[1].start)
        };
        let inside = items.last().is_none_or(|item| item.end <= n);
        assert!(ordered(items) && ordered(bands) && inside, "items or row ranges overlap");
        let streams = streams.into_iter().map(|x| (x.len() / n, SharedSlice::new(x))).collect();
        Region { n, streams, acts, items, bands, _streams: PhantomData }
    }

    /// A token over every column, for a caller that runs no team.
    fn sole(&mut self) -> Token<'_> {
        Token { region: self, cols: 0..self.n, rows: None, layer: 0, index: 0 }
    }

    /// Runs `layer` once per entry of `plans` — that layer's plans, which
    /// its GEMM phases index — as one region on `pool`. Each member gets
    /// `scratch` floats of its own for its bodies.
    pub(crate) fn run<C: Sync, const P: usize>(
        self,
        pool: &ThreadPool,
        data: &C,
        layer: &[Phase<C>],
        plans: &[[&MatmulPlan; P]],
        scratch: usize,
    ) {
        for phase in layer {
            if let Work::Gemms(ops) = phase.work {
                let mut outs: Vec<Act> = ops.iter().map(|op| op.2).collect();
                outs.sort_by_key(|out| out.0);
                outs.dedup();
                let clash = outs.len() < ops.len() || ops.iter().any(|op| outs.contains(&op.1));
                assert!(!clash, "{}: a GEMM writes what another uses", phase.what);
            }
        }
        let team = pool.nthreads();
        let runs: Vec<_> = plans
            .iter()
            .map(|l| l.map(|p| p.kernel_for(self.n)).map(|k| (k.begin(team), k)))
            .collect();
        let columns = column_nest(self.n);
        let items = (!self.items.is_empty()).then(|| item_nest(self.items.len()));
        let bands = (!self.bands.is_empty()).then(|| item_nest(self.bands.len()));
        let nests: Vec<Option<LoopRun>> = runs
            .iter()
            .flat_map(|_| layer)
            .map(|phase| {
                let nest = match phase.work {
                    Work::Columns(_) => &columns,
                    Work::Items(_) => items.as_ref().expect("an item phase needs items"),
                    Work::Rows(_) => bands.as_ref().expect("a row phase needs row ranges"),
                    Work::Gemms(_) => return None,
                };
                Some(nest.begin(team).expect("the column and item nests fit any team"))
            })
            .collect();
        let span_args = |l: usize| [l as u64, self.n as u64, self.items.len() as u64];
        pool.parallel(|ctx| {
            let scratch = RefCell::new(vec![0.0f32; scratch]);
            let (mut span, mut prev) = (None, None::<&Work<C>>);
            let phases =
                runs.iter().enumerate().flat_map(|(l, r)| layer.iter().map(move |p| (l, r, p)));
            for ((l, gemms, phase), nest) in phases.zip(&nests) {
                if prev.is_some_and(|prev| prev.barrier_before(&phase.work)) {
                    ctx.barrier();
                }
                prev = Some(&phase.work);
                if let Some(name) = phase.span {
                    drop(span.take());
                    span = (ctx.tid() == 0).then(|| pl_trace::span(name, span_args(l)));
                }
                match phase.work {
                    Work::Columns(body) | Work::Items(body) | Work::Rows(body) => {
                        let nest = nest.as_ref().expect("body phases have a nest");
                        nest.member(ctx, &|ind| {
                            let i = ind[0];
                            let (cols, rows) = match phase.work {
                                Work::Columns(_) => (i..i + 1, None),
                                Work::Items(_) => (self.items[i].clone(), None),
                                _ => (0..self.n, Some(self.bands[i].clone())),
                            };
                            let mut token = Token { region: &self, cols, rows, layer: l, index: i };
                            body(data, &mut token, &mut scratch.borrow_mut());
                        });
                    }
                    Work::Gemms(ops) => {
                        for &(p, a, out) in ops {
                            let (run, kernel) = &gemms[p];
                            // SAFETY: see `Region`: until the next barrier
                            // nothing writes `a`, and only this nest
                            // touches `out`.
                            unsafe { kernel.member(ctx, run, &self.acts[a.0], &self.acts[out.0]) };
                        }
                    }
                }
            }
        });
    }
}

/// What one body may touch, and nothing else (every access checks): a
/// column or item body's columns of every stream and every [`ActMatrix`]
/// of the [`Region`], or a row body's rows of every column of every
/// matrix. Only the runner creates one.
pub(crate) struct Token<'t> {
    region: &'t Region<'t>,
    cols: Range<usize>,
    /// A row body's rows; `None` for every row.
    rows: Option<Range<usize>>,
    /// The layer of the running phase.
    pub(crate) layer: usize,
    /// The nest index: the column, the item or the row range.
    pub(crate) index: usize,
}

impl<'t> Token<'t> {
    /// The columns this token owns (all of them for a row body).
    pub(crate) fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Matrix `m` and this token's rows of it, after checking that its
    /// column `j` is this token's and the rows are `len` values.
    fn share(&self, m: Act, j: usize, len: usize) -> (&'t ActMatrix, Range<usize>) {
        let m = &self.region.acts[m.0];
        let rows = self.rows.clone().unwrap_or(0..m.rows);
        assert!(
            self.cols.contains(&j) && rows.end <= m.rows && len == rows.len(),
            "rows {rows:?} of column {j} ({len} values) of a {}-row matrix are not this body's {:?}",
            m.rows,
            self.cols
        );
        (m, rows)
    }

    /// Column `j` of stream `s`.
    pub(crate) fn stream(&mut self, s: usize, j: usize) -> &mut [f32] {
        assert!(self.rows.is_none() && self.cols.contains(&j), "column {j} is not this body's");
        let (rows, x) = &self.region.streams[s];
        // SAFETY: see `Region`: column `j` is this token's alone.
        unsafe { x.slice_mut(j * rows, *rows) }
    }

    /// Column `j` of the residual stream.
    pub(crate) fn x(&mut self, j: usize) -> &mut [f32] {
        self.stream(0, j)
    }

    /// Copies this token's rows of column `j` of `m` into `dst`.
    pub(crate) fn read(&self, m: Act, j: usize, dst: &mut [f32]) {
        let (m, rows) = self.share(m, j, dst.len());
        for [at, off, len] in m.pieces(j, rows) {
            // SAFETY: see `Region`: these rows of column `j` are this
            // token's alone.
            dst[at..at + len].copy_from_slice(unsafe { m.data.view.slice(off, len) });
        }
    }

    /// Stores `src` as this token's rows of column `j` of `m`, quantizing
    /// the column too when `m` feeds int8 plans (one symmetric scale per
    /// column — the arithmetic of [`pl_tensor::quantize_cols_blocked`]).
    pub(crate) fn write(&mut self, m: Act, j: usize, src: &[f32]) {
        let (m, rows) = self.share(m, j, src.len());
        let scale = m.quant.as_ref().map(|_| {
            assert!(self.rows.is_none(), "a row body cannot write a quantized matrix");
            symmetric_scale(src.iter().fold(0.0f32, |a, v| a.max(v.abs())))
        });
        // SAFETY: see `Region`: these rows of column `j` — and, for a
        // whole column, its quantized twin and its scale slot — are this
        // token's alone.
        unsafe {
            for [at, off, len] in m.pieces(j, rows) {
                let run = &src[at..at + len];
                m.data.view.slice_mut(off, len).copy_from_slice(run);
                if let (Some((q, _)), Some(s)) = (&m.quant, scale) {
                    for (d, v) in q.view.slice_mut(off, len).iter_mut().zip(run) {
                        *d = i8::from_f32(v / s);
                    }
                }
            }
            if let (Some((_, scales)), Some(s)) = (&m.quant, scale) {
                scales.view.slice_mut(j, 1)[0] = s;
            }
        }
    }
}

impl fmt::Debug for MatmulPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MatmulPlan")
            .field("m", &self.m)
            .field("k", &self.k)
            .field("bm", &self.bm)
            .field("bk", &self.bk)
            .field("precision", &self.precision())
            .field("warmed_widths", &self.warmed_widths())
            .finish()
    }
}

impl Clone for MatmulPlan {
    fn clone(&self) -> Self {
        // The packed weight is shared as-is (no re-pack/re-quantize — and
        // no pack event); kernels are cheap to rebuild, so the clone
        // starts cold.
        MatmulPlan {
            m: self.m,
            k: self.k,
            bm: self.bm,
            bk: self.bk,
            weight: Arc::clone(&self.weight),
            kernels: RwLock::new(HashMap::new()),
        }
    }
}

/// The VNNI factor an int8 plan actually uses: the dtype granule `v`
/// degraded (by halving) to the largest power of two dividing the K
/// blocking, so narrow layers (`bk < 4` or odd) still build. Every value
/// this returns divides `bk`, which `BrgemmI8::new` requires.
fn vnni_fit(v: usize, bk: usize) -> usize {
    let mut f = v.max(1);
    while f > 1 && !bk.is_multiple_of(f) {
        f /= 2;
    }
    f
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pl_kernels::gemm::reference_gemm;
    use pl_tensor::{fill_uniform, Xorshift};

    #[test]
    fn plan_matches_reference_and_reuses_kernels() {
        let pool = ThreadPool::new(2);
        let (m, n, k) = (24, 20, 28);
        let mut rng = Xorshift::new(41);
        let mut w = vec![0.0f32; m * k];
        let mut x = vec![0.0f32; k * n];
        fill_uniform(&mut w, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let plan = MatmulPlan::new(&w, Trans::No, m, k);
        let want = reference_gemm(&w, &x, m, n, k);
        let got1 = plan.execute(&x, n, &pool);
        let got2 = plan.execute(&x, n, &pool); // cached kernel
        assert_eq!(got1, got2, "cached-kernel execution must be bitwise stable");
        for i in 0..m * n {
            assert!((got1[i] - want[i]).abs() < 1e-3, "idx {i}");
        }
        assert_eq!(plan.warmed_widths(), vec![n]);
    }

    /// The loop specs the offline tuner generates over the GEMM nest's K
    /// (`a`), M (`b`) and N (`c`) loops with at most one loop blocked once
    /// more: every order of the letters, run sequentially or with one M/N
    /// letter (or two adjacent, distinct ones) parallel.
    fn generated_specs() -> Vec<String> {
        let mut specs = std::collections::BTreeSet::new();
        for extra in ["", "a", "b", "c"] {
            let mut letters: Vec<char> = format!("abc{extra}").chars().collect();
            letters.sort_unstable();
            let len = letters.len() as u32;
            for code in 0..3usize.pow(len) {
                let order: Vec<char> =
                    (0..len).map(|i| (b'a' + (code / 3usize.pow(i) % 3) as u8) as char).collect();
                let mut sorted = order.clone();
                sorted.sort_unstable();
                if sorted != letters {
                    continue;
                }
                specs.insert(order.iter().collect::<String>());
                for i in (0..order.len()).filter(|&i| order[i] != 'a') {
                    let mut par = order.clone();
                    par[i] = par[i].to_ascii_uppercase();
                    specs.insert(par.iter().collect());
                    if order.get(i + 1).is_some_and(|&next| next != 'a' && next != order[i]) {
                        par[i + 1] = par[i + 1].to_ascii_uppercase();
                        specs.insert(par.iter().collect());
                    }
                }
            }
        }
        specs.into_iter().collect()
    }

    /// `spec` with the tuner's blocking of `shape` (a loop named twice is
    /// blocked by its trip count over the count's largest prime factor)
    /// at `k_step = 1`; `None` when a loop named twice cannot be blocked.
    fn tuning_for(shape: &GemmShape, spec: &str) -> Option<GemmTuning> {
        let trips = [shape.kb(), shape.m / shape.bm, shape.n.div_ceil(shape.bn)];
        let mut blocks = trips.map(|_| Vec::new());
        for (l, &t) in trips.iter().enumerate() {
            if spec.chars().filter(|c| c.to_ascii_lowercase() == (b'a' + l as u8) as char).count()
                > 1
            {
                let prime = (2..=t).rev().find(|d| t % d == 0 && (2..*d).all(|f| d % f != 0))?;
                blocks[l] = vec![Some(t / prime).filter(|&b| b > 1)?];
            }
        }
        let [a_blocks, b_blocks, c_blocks] = blocks;
        Some(GemmTuning { spec: spec.to_string(), k_step: 1, a_blocks, b_blocks, c_blocks })
    }

    #[test]
    fn every_output_column_is_independent_of_width_and_spec() {
        // THE invariant of the single decode path: column `j` of
        // `execute(n)` equals `execute(1)` on that column, bit for bit —
        // for f32 and int8 plans, at widths that block evenly (4, 8),
        // raggedly (2, 3, 5, 17, 19: a prime width is four full column
        // blocks and a tail) and not at all (1), under **every** loop spec
        // the offline tuner can generate for the shape (K-blocked,
        // reordered, M- or N-parallel, sequential), not just the
        // `default_parallel` spec plans run. Width 1 runs the default spec
        // (`k_step = kb`), the wide side each candidate (`k_step = 1`), so
        // the reduction's chunking differs too. A future K-parallel spec
        // or a SIMD k-split that reassociates the reduction trips this
        // test, which is where batched != unbatched would start.
        const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 8, 17, 19];
        const DIMS: [usize; 8] = [8, 12, 16, 24, 32, 40, 48, 96];
        let random = |len: usize, seed: u64| {
            let mut v = vec![0.0f32; len];
            fill_uniform(&mut v, &mut Xorshift::new(seed), -0.5, 0.5);
            v
        };
        let specs = generated_specs();
        let pool3 = ThreadPool::new(3);
        let mut rng = Xorshift::new(0xC01);
        let mut checked = [0usize; 2];
        for draw in 0..3u64 {
            let mut pick = || DIMS[(rng.next_f32() * DIMS.len() as f32) as usize % DIMS.len()];
            let (m, k) = (pick(), pick());
            let w = random(m * k, 100 + draw);
            let x = random(k * 19, 200 + draw);
            for (p, precision) in [Precision::F32, Precision::Int8].into_iter().enumerate() {
                let plan = MatmulPlan::with_precision(&w, Trans::No, m, k, precision);
                let alone: Vec<Vec<f32>> =
                    x.chunks_exact(k).map(|col| plan.execute(col, 1, &pool3)).collect();
                for n in WIDTHS {
                    let shape = plan.shape(n);
                    let act = plan.pack(&x[..k * n], n);
                    for spec in &specs {
                        let Some(tuning) = tuning_for(&shape, spec) else {
                            continue; // a loop too short to block at this shape
                        };
                        let kernel = plan.build_kernel(shape, tuning).expect("generated spec");
                        let got = plan.execute_with(&kernel, &act, &pool3);
                        for (j, col) in got.chunks_exact(m).enumerate() {
                            assert_eq!(
                                col, alone[j],
                                "{precision:?} {m}x{n}x{k} spec {spec}: column {j} depends on the batch"
                            );
                        }
                        checked[p] += 1;
                    }
                }
            }
        }
        assert!(
            checked.iter().all(|&c| c > 500),
            "only {checked:?} (shape, width, spec) cases ran"
        );
    }

    #[test]
    fn transposed_weight_plan_matches_reference() {
        let pool = ThreadPool::new(2);
        let (m, n, k) = (16, 8, 12);
        let mut rng = Xorshift::new(43);
        let mut w = vec![0.0f32; m * k];
        let mut x = vec![0.0f32; k * n];
        fill_uniform(&mut w, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let wt = transpose_cm(&w, m, k); // (k x m) storing W^T
        let plan = MatmulPlan::new(&wt, Trans::Yes, m, k);
        let got = plan.execute(&x, n, &pool);
        let want = reference_gemm(&w, &x, m, n, k);
        for i in 0..m * n {
            assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
        }
    }

    #[test]
    fn shared_packed_activations_feed_sibling_plans() {
        let pool = ThreadPool::new(2);
        let (m, n, k) = (16, 6, 16);
        let mut rng = Xorshift::new(44);
        let mut w1 = vec![0.0f32; m * k];
        let mut w2 = vec![0.0f32; m * k];
        let mut x = vec![0.0f32; k * n];
        fill_uniform(&mut w1, &mut rng, -0.5, 0.5);
        fill_uniform(&mut w2, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let p1 = MatmulPlan::new(&w1, Trans::No, m, k);
        let p2 = MatmulPlan::new(&w2, Trans::No, m, k);
        let xp = p1.pack(&x, n);
        let y1 = p1.execute_with(&p1.kernel_for(n), &xp, &pool);
        let y2 = p2.execute_with(&p2.kernel_for(n), &xp, &pool);
        assert_eq!(y1, p1.execute(&x, n, &pool), "shared-pack path matches the direct path");
        assert_eq!(y2, p2.execute(&x, n, &pool));
    }

    #[test]
    fn kernel_cache_is_bounded() {
        let pool = ThreadPool::new(1);
        let (m, k) = (8, 8);
        let w = vec![0.25f32; m * k];
        let plan = MatmulPlan::new(&w, Trans::No, m, k);
        for n in 1..=KERNEL_CACHE_CAP + 8 {
            let x = vec![0.5f32; k * n];
            let _ = plan.execute(&x, n, &pool);
        }
        assert_eq!(plan.warmed_widths().len(), KERNEL_CACHE_CAP, "cache must stop at the cap");
        // Over-cap widths still execute correctly, just uncached.
        let n = KERNEL_CACHE_CAP + 8;
        let x = vec![0.5f32; k * n];
        let got = plan.execute(&x, n, &pool);
        assert_eq!(got.len(), m * n);
        assert!((got[0] - (0.25 * 0.5 * k as f32)).abs() < 1e-4);
    }

    #[test]
    fn pack_events_count_plan_builds() {
        // Only a monotonicity check here: unit tests run concurrently and
        // sibling tests build plans of their own, so exact-delta
        // assertions live in the isolated `tests/pack_discipline.rs`
        // binary instead.
        let (m, k) = (8, 8);
        let w = vec![0.5f32; m * k];
        let before = pack_events();
        let _plan = MatmulPlan::new(&w, Trans::No, m, k);
        assert!(pack_events() > before, "plan build is a pack event");
    }

    #[test]
    fn int8_plan_tracks_f32_within_quantization_error() {
        let pool = ThreadPool::new(2);
        let (m, n, k) = (32, 8, 48);
        let mut rng = Xorshift::new(46);
        let mut w = vec![0.0f32; m * k];
        let mut x = vec![0.0f32; k * n];
        fill_uniform(&mut w, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let fplan = MatmulPlan::new(&w, Trans::No, m, k);
        let qplan = MatmulPlan::with_precision(&w, Trans::No, m, k, Precision::Int8);
        assert_eq!(fplan.precision(), Precision::F32);
        assert_eq!(qplan.precision(), Precision::Int8);
        // The ~4x decode-traffic claim, exactly: i8 data + f32 row scales.
        assert_eq!(fplan.weight_stream_bytes(), 4 * m * k);
        assert_eq!(qplan.weight_stream_bytes(), m * k + 4 * m);
        let want = fplan.execute(&x, n, &pool);
        let got = qplan.execute(&x, n, &pool);
        // Two symmetric-int8 roundings (weight + activation) bound the
        // per-product relative error by ~2/127; the dot product's relative
        // error stays in the same ballpark (errors don't all align), so 5%
        // against a 1.0-floored denominator is comfortably conservative.
        for i in 0..m * n {
            let rel = (got[i] - want[i]).abs() / want[i].abs().max(1.0);
            assert!(rel < 0.05, "idx {i}: int8 {} vs f32 {}", got[i], want[i]);
        }
        // Quantized execution is deterministic (same cached kernel).
        assert_eq!(got, qplan.execute(&x, n, &pool));
        // Clones keep the precision and the quantized bytes.
        let clone = qplan.clone();
        assert_eq!(clone.precision(), Precision::Int8);
        assert_eq!(clone.execute(&x, n, &pool), got);
    }

    #[test]
    fn int8_plan_handles_transposed_and_narrow_k() {
        let pool = ThreadPool::new(2);
        // k = 6 blocks as bk = 2, forcing the VNNI factor to degrade 4 -> 2.
        let (m, n, k) = (16, 4, 6);
        let mut rng = Xorshift::new(47);
        let mut w = vec![0.0f32; m * k];
        let mut x = vec![0.0f32; k * n];
        fill_uniform(&mut w, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let wt = transpose_cm(&w, m, k);
        let qplan = MatmulPlan::with_precision(&wt, Trans::Yes, m, k, Precision::Int8);
        let want = MatmulPlan::new(&w, Trans::No, m, k).execute(&x, n, &pool);
        let got = qplan.execute(&x, n, &pool);
        for i in 0..m * n {
            let rel = (got[i] - want[i]).abs() / want[i].abs().max(1.0);
            assert!(rel < 0.05, "idx {i}: int8 {} vs f32 {}", got[i], want[i]);
        }
    }

    #[test]
    fn vnni_fit_degrades_to_a_bk_divisor() {
        assert_eq!(vnni_fit(4, 32), 4);
        assert_eq!(vnni_fit(4, 48), 4);
        assert_eq!(vnni_fit(4, 6), 2);
        assert_eq!(vnni_fit(4, 3), 1);
        assert_eq!(vnni_fit(4, 1), 1);
        assert_eq!(vnni_fit(1, 7), 1);
    }

    #[test]
    fn spmm_plan_matches_dense_reference() {
        // A block-sparse plan runs each output element's ascending-k FMA
        // chain over the nonzero blocks: bit for bit the dense plan over
        // the decompressed weight, whose zero blocks add exact zeros.
        let pool = ThreadPool::new(2);
        let (m, k, tokens) = (32, 32, 8);
        let mut rng = Xorshift::new(45);
        let a = BcscMatrix::<f32>::random(m, k, 8, 8, 0.5, &mut rng).unwrap();
        let mut x = vec![0.0f32; k * tokens];
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let dense = a.to_dense_colmajor();
        let plan = MatmulPlan::block_sparse(a);
        // Eight of the sixteen 8x8 blocks' values, their K indices, 4 + 1
        // row-block pointers.
        assert_eq!(plan.weight_stream_bytes(), 8 * 64 * 4 + 8 * 8 + 5 * 8);
        let got = plan.execute(&x, tokens, &pool);
        assert_eq!(got, MatmulPlan::new(&dense, Trans::No, m, k).execute(&x, tokens, &pool));
        let want = reference_gemm(&dense, &x, m, tokens, k);
        for i in 0..got.len() {
            assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
        }
    }

    /// Asserts that the phase table in the module docs of `src` is `layer`,
    /// row for row: what each phase does, the nest that splits it and the
    /// span it opens.
    pub(crate) fn assert_table_is_schedule<C>(src: &str, layer: &[Phase<C>]) {
        let split = |work: &Work<C>| match work {
            Work::Columns(_) => format!("columns: `\"{}\"`", column_nest(1).plan().spec_string()),
            Work::Items(_) => format!("items: `\"{}\"`", item_nest(1).plan().spec_string()),
            Work::Rows(_) => format!("row ranges: `\"{}\"`", item_nest(1).plan().spec_string()),
            Work::Gemms(_) => "blocks: the plan's spec".to_string(),
        };
        let rows: Vec<Vec<String>> = src
            .lines()
            .filter_map(|line| line.strip_prefix("//! |"))
            .map(|row| row.split('|').map(|cell| cell.trim().to_string()).collect::<Vec<_>>())
            .filter(|cells| cells[0].parse::<usize>().is_ok())
            .map(|cells| cells[..cells.len() - 1].to_vec())
            .collect();
        assert_eq!(rows.len(), layer.len());
        for (i, (row, phase)) in rows.iter().zip(layer).enumerate() {
            let span = phase.span.map_or(String::new(), |name| format!("`{name}`"));
            let want = [(i + 1).to_string(), phase.what.to_string(), split(&phase.work), span];
            assert_eq!(row[..], want, "phase {}", i + 1);
        }
    }

    /// What each member of `pool`'s team runs of `nest`, in order, as
    /// recorded from `LoopRun::member`.
    fn executed(nest: &ThreadedLoop, pool: &ThreadPool) -> Vec<Vec<usize>> {
        let shares: Vec<std::sync::Mutex<Vec<usize>>> =
            (0..pool.nthreads()).map(|_| Default::default()).collect();
        let run = nest.begin(pool.nthreads()).unwrap();
        pool.parallel(|ctx| run.member(ctx, &|ind| shares[ctx.tid()].lock().unwrap().push(ind[0])));
        shares.into_iter().map(|share| share.into_inner().unwrap()).collect()
    }

    #[test]
    fn column_and_item_nests_give_each_index_to_one_member() {
        // Fact 1 of the region's soundness argument, for its own nests, on
        // teams that divide neither the columns nor the items.
        for team in [2, 3, 4] {
            let pool = ThreadPool::new(team);
            for n in [1, 8, 19] {
                // Static: each member runs exactly its simulated share.
                let nest = column_nest(n);
                let shares = executed(&nest, &pool);
                for (tid, share) in shares.iter().enumerate() {
                    let want: Vec<usize> =
                        nest.plan().simulate_member(tid, team).iter().map(|ind| ind[0]).collect();
                    assert_eq!(*share, want, "column nest, n {n}, member {tid} of {team}");
                }
                // Static or dynamic: every index runs once, on one member.
                for shares in [shares, executed(&item_nest(n), &pool)] {
                    let mut all: Vec<usize> = shares.concat();
                    all.sort_unstable();
                    assert_eq!(all, (0..n).collect::<Vec<_>>(), "n {n} on {team}");
                }
            }
        }
    }
}
