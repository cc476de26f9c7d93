//! Prepared (pack-once) execution plans — the paper's "layout
//! transformation paid once per layer boundary" turned into the execution
//! API.
//!
//! The flat bridge ([`crate::matmul::matmul`]) re-copies/transposes its
//! operands, re-packs them into PARLOOPER blocked layouts, re-resolves the
//! tuning spec and re-constructs the GEMM kernel on **every** invocation.
//! For a weight contraction executed thousands of times per second that is
//! pure overhead: the weight bytes never change. The prepared-op lifecycle
//! front-loads all of it:
//!
//! * **build** — [`MatmulPlan::new`] transposes (if needed) and packs the
//!   weight into the blocked `A` layout exactly once, with the same
//!   M/K blockings the per-call bridge would pick
//!   ([`GemmShape::default_block`]), so results stay bit-identical;
//! * **warm** — [`MatmulPlan::warm`] pre-constructs the kernel for every
//!   activation width the caller will execute, and [`MatmulPlan::problem`]
//!   names the exact `(m, n, k)` shapes so a serving runtime's tuning
//!   warmer covers precisely what will run;
//! * **execute** — [`MatmulPlan::execute`] packs only the activations per
//!   call; the split surface ([`MatmulPlan::pack`] +
//!   [`MatmulPlan::execute_packed`]) lets one packed activation matrix
//!   ([`ActMatrix`]) feed several plans (a layer's QKV projections). Both
//!   are one parallel region around the **in-team** form
//!   ([`MatmulPlan::begin`] + [`PlanRun::member`]), which a caller that is
//!   already inside a region uses directly: a decoder forward chains all
//!   of its projections in one region, members writing and reading
//!   [`ActMatrix`] columns between team barriers.
//!
//! Activations block along N by [`GemmShape::activation_block`] (the
//! microkernel's register-tile width, ragged last block) whatever the
//! width, and every output column is one k-ordered reduction that depends
//! on neither the width nor the spec — so **column `j` of `execute(n)`
//! equals `execute(1)` on that column bit for bit**, at f32 and int8
//! (`tests/prepared_plans.rs` states the property). Batched = unbatched
//! decode rests on it.
//!
//! Kernel selection resolves through [`crate::tuning`]: cached kernels are
//! tagged with the registry [`crate::tuning::epoch`] and re-resolve when a
//! new snapshot is installed, so a plan built before
//! [`crate::tuning::install`] runs the tuned specs right after it. Values
//! are unchanged either way — every legal spec produces each output block
//! on exactly one thread with the same ascending-K reduction order.
//!
//! [`SpmmPlan`] is the Block-SpMM twin for block-sparse weights: the BCSC
//! operand is already a pack-once artifact (pruning produces it), so the
//! plan's job is caching the constructed kernels per width and registering
//! the `spmm/...` tuning shapes for warmers.
//!
//! The module also exposes [`pack_events`], a process-wide count of weight
//! pack/transpose work, as the assertion hook for the packing discipline:
//! decode paths over prepared models must leave it unchanged.

use crate::matmul::{transpose_cm, Trans};
use parlooper::LoopRun;
use pl_autotuner::GemmProblem;
use pl_kernels::{BlockSpmm, Gemm, GemmInt8, GemmShape, GemmTuning, SharedSlice, SpmmTuning};
use pl_runtime::{ThreadPool, WorkerCtx};
use pl_tensor::{
    quantize_weight_a_vnni, symmetric_scale, BcscMatrix, BlockedMatrix, DType, Element, VnniMatrix,
};
use std::collections::HashMap;
use std::fmt;
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

impl Precision {
    /// The storage dtype of the plan weight — the dtype that scopes tuning
    /// keys, trace spans and kernel caches.
    pub fn dtype(self) -> DType {
        match self {
            Precision::F32 => DType::F32,
            Precision::Int8 => DType::I8,
        }
    }
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
/// column blocks — whose **columns are the unit of ownership**: a team
/// inside one parallel region writes and reads disjoint columns between
/// barriers ([`ActMatrix::write_col`] / [`ActMatrix::read_col`]) while
/// [`PlanRun::member`] consumes and produces whole matrices. A matrix
/// built for an int8 plan also carries the quantized twin of every column
/// and its scale, filled by the same `write_col`.
pub struct ActMatrix {
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

    /// Logical columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Offset of the `rb`-th `br`-element run of column `j`.
    #[inline]
    fn run_offset(&self, j: usize, rb: usize) -> usize {
        ((j / self.bn) * (self.rows / self.br) + rb) * self.br * self.bn + (j % self.bn) * self.br
    }

    /// Stores `src` (`rows` values) as column `j`, quantizing it too when
    /// the matrix feeds int8 plans (one symmetric scale per column — the
    /// arithmetic of [`pl_tensor::quantize_cols_blocked`]).
    ///
    /// # Safety
    /// No other thread may read or write column `j` (nor run a
    /// [`PlanRun::member`] over this matrix) concurrently.
    pub unsafe fn write_col(&self, j: usize, src: &[f32]) {
        assert!(j < self.n && src.len() == self.rows, "column {j} of {}x{}", self.rows, self.n);
        let scale = self.quant.as_ref().map(|(_, scales)| {
            let s = symmetric_scale(src.iter().fold(0.0f32, |m, v| m.max(v.abs())));
            // SAFETY: slot `j` belongs to column `j` (caller contract).
            unsafe { scales.view.slice_mut(j, 1)[0] = s };
            s
        });
        for (rb, run) in src.chunks_exact(self.br).enumerate() {
            let off = self.run_offset(j, rb);
            // SAFETY: the run lies inside column `j` (caller contract).
            unsafe { self.data.view.slice_mut(off, self.br) }.copy_from_slice(run);
            if let (Some((q, _)), Some(s)) = (&self.quant, scale) {
                // SAFETY: as above, on the quantized twin.
                let dst = unsafe { q.view.slice_mut(off, self.br) };
                for (d, v) in dst.iter_mut().zip(run) {
                    *d = i8::from_f32(v / s);
                }
            }
        }
    }

    /// Copies column `j` into `dst` (`rows` values).
    ///
    /// # Safety
    /// No thread may write column `j` (nor run a [`PlanRun::member`]
    /// producing this matrix) concurrently.
    pub unsafe fn read_col(&self, j: usize, dst: &mut [f32]) {
        assert!(j < self.n && dst.len() == self.rows, "column {j} of {}x{}", self.rows, self.n);
        for (rb, run) in dst.chunks_exact_mut(self.br).enumerate() {
            // SAFETY: no concurrent writer of column `j` (caller contract).
            run.copy_from_slice(unsafe { self.data.view.slice(self.run_offset(j, rb), self.br) });
        }
    }

    /// The flat column-major `rows x n` contents (exclusive access: no
    /// region can be using the matrix).
    pub fn into_colmajor(self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.rows * self.n];
        for (j, col) in out.chunks_exact_mut(self.rows).enumerate() {
            // SAFETY: `self` is owned, so no other thread holds the matrix.
            unsafe { self.read_col(j, col) };
        }
        out
    }
}

/// The per-width compiled kernel: f32 and int8 plans build different
/// kernel types over the same loop-nest machinery.
enum PlanGemm {
    F32(Gemm<f32, f32, f32>),
    Int8(GemmInt8),
}

struct PlanKernel {
    /// The [`crate::tuning::epoch`] this kernel's spec resolved under.
    epoch: u64,
    shape: GemmShape,
    gemm: PlanGemm,
}

/// The pack-once weight operand of a [`MatmulPlan`], per precision.
#[derive(Clone)]
enum PlanWeight {
    /// Blocked `A` layout, f32.
    F32(BlockedMatrix<f32>),
    /// VNNI-blocked quantized `A` plus one dequantization scale per output
    /// channel (logical row). `v` is the VNNI factor actually used: the
    /// dtype's factor ([`DType::vnni_factor`]) degraded to the largest
    /// divisor of `bk` when the K blocking is narrower than the granule.
    Int8 { q: BlockedMatrix<i8>, scales: Vec<f32>, v: usize },
}

/// A compiled, pack-once GEMM plan over one weight operand.
///
/// Built from the flat column-major weight once; executes
/// `out (m x n) = W (m x k) x act (k x n)` for any activation width `n`
/// with zero per-call weight packing, transposition, tuning resolution or
/// kernel construction (each width's kernel is built on first use — or by
/// [`MatmulPlan::warm`] — and cached). Execution is `&self` and
/// thread-safe: one plan serves any number of concurrent sessions.
pub struct MatmulPlan {
    m: usize,
    k: usize,
    bm: usize,
    bk: usize,
    precision: Precision,
    weight: PlanWeight,
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
        let weight = match p {
            Precision::F32 => {
                let mut packed =
                    BlockedMatrix::<f32>::a_layout(m, k, bm, bk).expect("plan weight layout");
                packed.pack_from_colmajor(&flat);
                PlanWeight::F32(packed)
            }
            Precision::Int8 => {
                let v = vnni_fit(DType::I8.vnni_factor(), bk);
                let (q, scales) =
                    quantize_weight_a_vnni(&flat, m, k, bm, bk, v).expect("plan weight layout");
                PlanWeight::Int8 { q, scales, v }
            }
        };
        record_pack_event();
        MatmulPlan { m, k, bm, bk, precision: p, weight, kernels: RwLock::new(HashMap::new()) }
    }

    /// The precision this plan was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of packed weight operand streamed through memory by one
    /// execution of this plan (any width): the packed weight data itself
    /// plus, for quantized plans, the per-channel scale vector. This is
    /// the counter behind the ~4x decode-traffic claim: an int8 plan
    /// streams `m*k + 4*m` bytes where the f32 plan streams `4*m*k`.
    pub fn weight_stream_bytes(&self) -> usize {
        match &self.weight {
            PlanWeight::F32(wt) => std::mem::size_of_val(wt.data()),
            PlanWeight::Int8 { q, scales, .. } => {
                std::mem::size_of_val(q.data()) + std::mem::size_of_val(scales.as_slice())
            }
        }
    }

    /// Output rows (`m`).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction extent (`k`) — the activation row count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The exact GEMM problem this plan executes at activation width `n` —
    /// blocked identically to the kernel that will run, so tuning warmers
    /// cover precisely the shapes that execute.
    pub fn problem(&self, n: usize) -> GemmProblem {
        GemmProblem {
            m: self.m,
            n,
            k: self.k,
            bm: self.bm,
            bn: GemmShape::activation_block(n),
            bk: self.bk,
            dtype: self.precision.dtype(),
        }
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
        let epoch = crate::tuning::epoch();
        if let Some(k) = self.kernels.read().unwrap().get(&n) {
            if k.epoch == epoch {
                return Arc::clone(k);
            }
        }
        // Build (or re-resolve after a registry install). Same
        // degrade-don't-panic contract as the flat bridge: a rejected
        // registry spec falls back to the built-in parallel spec.
        let shape = GemmShape {
            m: self.m,
            n,
            k: self.k,
            bm: self.bm,
            bn: GemmShape::activation_block(n),
            bk: self.bk,
        };
        let tuning = crate::tuning::gemm_tuning_for(&shape, self.precision.dtype());
        let fallback = || GemmTuning::default_parallel(shape.kb());
        let gemm = match &self.weight {
            PlanWeight::F32(_) => Gemm::<f32, f32, f32>::new(shape, tuning)
                .or_else(|_| Gemm::<f32, f32, f32>::new(shape, fallback()))
                .map(PlanGemm::F32)
                .expect("plan kernel shape"),
            PlanWeight::Int8 { v, .. } => GemmInt8::new(shape, tuning, *v)
                .or_else(|_| GemmInt8::new(shape, fallback(), *v))
                .map(PlanGemm::Int8)
                .expect("plan kernel shape"),
        };
        let kernel = Arc::new(PlanKernel { epoch, shape, gemm });
        let mut cache = self.kernels.write().unwrap();
        if cache.len() < KERNEL_CACHE_CAP || cache.contains_key(&n) {
            cache.insert(n, Arc::clone(&kernel));
        }
        kernel
    }

    /// An empty `k x n` input operand for this plan (and any sibling
    /// with the same `k`, `bk` and precision), for a team to fill by
    /// columns.
    pub fn input(&self, n: usize) -> ActMatrix {
        ActMatrix::new(self.k, self.bk, n, self.precision == Precision::Int8)
    }

    /// An empty `m x n` output operand for this plan.
    pub fn output(&self, n: usize) -> ActMatrix {
        ActMatrix::new(self.m, self.bm, n, false)
    }

    /// Packs a flat column-major `k x n` activation matrix. The layout
    /// depends only on `(k, n)`, so one packed matrix can feed every plan
    /// with the same reduction extent and precision — a layer's QKV
    /// projections pack (and, at int8, quantize) their shared input
    /// **once**.
    pub fn pack(&self, act: &[f32], n: usize) -> ActMatrix {
        assert_eq!(act.len(), self.k * n, "activation size mismatch");
        let packed = self.input(n);
        for (j, col) in act.chunks_exact(self.k).enumerate() {
            // SAFETY: `packed` is not shared with any thread yet.
            unsafe { packed.write_col(j, col) };
        }
        packed
    }

    /// Starts one execution at width `n` by a team of `team` threads that
    /// is (or will be) inside a parallel region: resolves the cached
    /// kernel for `n` here, outside the hot phases; every team member
    /// then calls [`PlanRun::member`]. A run is single-use.
    pub fn begin(&self, n: usize, team: usize) -> PlanRun<'_> {
        let kernel = self.kernel_for(n);
        let run = match &kernel.gemm {
            PlanGemm::F32(g) => g.begin(team),
            PlanGemm::Int8(g) => g.begin(team),
        }
        .expect("plan kernel spec incompatible with the team size");
        PlanRun { plan: self, kernel, run }
    }

    /// Runs the plan over an already-packed activation operand (from
    /// [`MatmulPlan::pack`] — possibly packed by a sibling plan with the
    /// same `k`). Returns the flat column-major `m x n` result.
    pub fn execute_packed(&self, act: &ActMatrix, pool: &ThreadPool) -> Vec<f32> {
        let out = self.output(act.n());
        let run = self.begin(act.n(), pool.nthreads());
        // SAFETY: `out` is local and `act` is only read; the region runs
        // nothing but this plan.
        pool.parallel(|ctx| unsafe { run.member(ctx, act, &out) });
        out.into_colmajor()
    }

    /// `out (m x n) = W x act` over a flat column-major `k x n` activation
    /// matrix. Packs the activations (never the weight) and executes the
    /// cached kernel for width `n`.
    pub fn execute(&self, act: &[f32], n: usize, pool: &ThreadPool) -> Vec<f32> {
        self.execute_packed(&self.pack(act, n), pool)
    }
}

/// One in-flight execution of a [`MatmulPlan`] by a thread team (see
/// [`MatmulPlan::begin`]).
pub struct PlanRun<'a> {
    plan: &'a MatmulPlan,
    kernel: Arc<PlanKernel>,
    run: LoopRun,
}

impl PlanRun<'_> {
    /// This member's share of `out = W x act`; every member of the team
    /// calls it once.
    ///
    /// # Safety
    /// Between the team barriers (or region boundaries) bracketing the
    /// team's calls, no thread may write `act` and none may otherwise
    /// read or write `out`.
    ///
    /// # Panics
    /// Panics if `act`/`out` were not built for this plan's geometry,
    /// width and precision.
    pub unsafe fn member(&self, ctx: &WorkerCtx, act: &ActMatrix, out: &ActMatrix) {
        let (plan, n) = (self.plan, self.kernel.shape.n);
        assert!(
            (act.rows, act.br, act.n) == (plan.k, plan.bk, n)
                && (out.rows, out.br, out.n) == (plan.m, plan.bm, n),
            "operands do not match the {}x{n}x{} plan",
            plan.m,
            plan.k
        );
        // Per-shape wall-clock span (member 0's share — the phase, give
        // or take the static split): aggregated by (m, n, k) this is the
        // measured-timing table `TRACE_shapes.json` is built from. The
        // name carries the plan dtype so f32 and i8 timings of the same
        // shape stay distinguishable.
        let _span = (ctx.tid() == 0).then(|| {
            let name = match plan.precision {
                Precision::F32 => "gemm.execute",
                Precision::Int8 => "gemm.i8.execute",
            };
            pl_trace::span(name, [plan.m as u64, n as u64, plan.k as u64])
        });
        match (&plan.weight, &self.kernel.gemm) {
            (PlanWeight::F32(wt), PlanGemm::F32(g)) => {
                // SAFETY: nobody writes `act` during the call and `out`
                // belongs to this GEMM (caller contract).
                unsafe {
                    let b = act.data.view.slice(0, act.data.view.len());
                    g.execute_in(ctx, &self.run, wt.data(), b, &out.data.view);
                }
            }
            (PlanWeight::Int8 { q, scales, .. }, PlanGemm::Int8(g)) => {
                let (qact, col_scales) =
                    act.quant.as_ref().expect("int8 plans need an input built by an int8 plan");
                // SAFETY: as above; the quantized twin and its scales were
                // written with the columns.
                unsafe {
                    let b = qact.view.slice(0, qact.view.len());
                    let cs = col_scales.view.slice(0, n);
                    g.execute_in(ctx, &self.run, q.data(), scales, b, cs, &out.data.view);
                }
            }
            _ => unreachable!("plan weight/kernel precision mismatch"),
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
            .field("precision", &self.precision)
            .field("warmed_widths", &self.warmed_widths())
            .finish()
    }
}

impl Clone for MatmulPlan {
    fn clone(&self) -> Self {
        // The packed weight is copied as-is (no re-pack/re-quantize — and
        // no pack event); kernels are cheap to rebuild, so the clone
        // starts cold.
        MatmulPlan {
            m: self.m,
            k: self.k,
            bm: self.bm,
            bk: self.bk,
            precision: self.precision,
            weight: self.weight.clone(),
            kernels: RwLock::new(HashMap::new()),
        }
    }
}

/// The VNNI factor an int8 plan actually uses: the dtype granule `v`
/// degraded (by halving) to the largest power of two dividing the K
/// blocking, so narrow layers (`bk < 4` or odd) still build. Every value
/// this returns divides `bk`, which `BrgemmI8Desc::validate` requires.
fn vnni_fit(v: usize, bk: usize) -> usize {
    let mut f = v.max(1);
    while f > 1 && !bk.is_multiple_of(f) {
        f /= 2;
    }
    f
}

/// The `bn` blocking the Block-SpMM bridge picks for an activation width.
pub(crate) fn spmm_bn(tokens: usize) -> usize {
    for cand in [16, 8, 4, 2, 1] {
        if tokens.is_multiple_of(cand) {
            return cand;
        }
    }
    1
}

/// Constructs a Block-SpMM kernel for `tokens` activation columns over an
/// `m x k` sparse operand blocked `bm x bk`, resolving the spec through
/// [`crate::tuning`] with the degrade-don't-panic fallback. Shared by
/// [`SpmmPlan`] and the pack-per-call [`crate::sparse_bert::spmm_matmul`].
pub(crate) fn build_spmm_kernel(
    m: usize,
    k: usize,
    bm: usize,
    bk: usize,
    tokens: usize,
) -> (usize, BlockSpmm) {
    let bn = spmm_bn(tokens);
    let shape = GemmShape { m, n: tokens, k, bm, bn, bk };
    let tuning = crate::tuning::spmm_tuning_for(&shape);
    let kernel = BlockSpmm::new(m, tokens, k, bm, bk, bn, tuning)
        .or_else(|_| {
            let fallback = SpmmTuning::default_parallel(k / bk);
            BlockSpmm::new(m, tokens, k, bm, bk, bn, fallback)
        })
        .expect("spmm kernel shape");
    (bn, kernel)
}

struct SpmmPlanKernel {
    epoch: u64,
    bn: usize,
    kernel: BlockSpmm,
}

/// A compiled Block-SpMM plan over one block-sparse (BCSC) weight.
///
/// The BCSC operand is itself a pack-once artifact (pruning produced it);
/// the plan adds what the pack-per-call bridge re-did every call: kernel
/// construction and tuning resolution, cached per activation width with
/// the same registry-epoch re-resolution as [`MatmulPlan`].
pub struct SpmmPlan {
    weight: BcscMatrix<f32>,
    kernels: RwLock<HashMap<usize, Arc<SpmmPlanKernel>>>,
}

impl SpmmPlan {
    /// Wraps an already-compressed weight.
    pub fn new(weight: BcscMatrix<f32>) -> Self {
        SpmmPlan { weight, kernels: RwLock::new(HashMap::new()) }
    }

    /// The compressed weight (sparsity/footprint accounting).
    pub fn weight(&self) -> &BcscMatrix<f32> {
        &self.weight
    }

    /// The exact SpMM problem this plan executes at `tokens` activation
    /// columns — the shape (`spmm/...` key) a tuning warmer must cover.
    pub fn problem(&self, tokens: usize) -> GemmProblem {
        GemmProblem {
            m: self.weight.rows(),
            n: tokens,
            k: self.weight.cols(),
            bm: self.weight.bm(),
            bn: spmm_bn(tokens),
            bk: self.weight.bk(),
            dtype: DType::F32,
        }
    }

    /// Pre-constructs (and caches) the kernel for `tokens` columns.
    pub fn warm(&self, tokens: usize) {
        let _ = self.kernel_for(tokens);
    }

    fn kernel_for(&self, tokens: usize) -> Arc<SpmmPlanKernel> {
        assert!(tokens > 0, "activation width must be non-zero");
        let epoch = crate::tuning::epoch();
        if let Some(k) = self.kernels.read().unwrap().get(&tokens) {
            if k.epoch == epoch {
                return Arc::clone(k);
            }
        }
        let (bn, kernel) = build_spmm_kernel(
            self.weight.rows(),
            self.weight.cols(),
            self.weight.bm(),
            self.weight.bk(),
            tokens,
        );
        let k = Arc::new(SpmmPlanKernel { epoch, bn, kernel });
        let mut cache = self.kernels.write().unwrap();
        if cache.len() < KERNEL_CACHE_CAP || cache.contains_key(&tokens) {
            cache.insert(tokens, Arc::clone(&k));
        }
        k
    }

    /// `y (m x tokens) = A_sparse x x (k x tokens)` over flat column-major
    /// activations, through the cached kernel for this width.
    pub fn execute(&self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        let (m, k) = (self.weight.rows(), self.weight.cols());
        assert_eq!(x.len(), k * tokens, "activation size mismatch");
        let _span = pl_trace::span("spmm.execute", [m as u64, tokens as u64, k as u64]);
        let kernel = self.kernel_for(tokens);
        let mut b = VnniMatrix::<f32>::new(k, tokens, kernel.bn, 1).expect("b layout");
        b.pack_from_colmajor(x);
        let mut c = VnniMatrix::<f32>::new(m, tokens, kernel.bn, 1).expect("c layout");
        kernel.kernel.execute(&self.weight, &b, &mut c, pool).expect("spmm execute");
        c.unpack_to_colmajor()
    }
}

impl fmt::Debug for SpmmPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpmmPlan")
            .field("m", &self.weight.rows())
            .field("k", &self.weight.cols())
            .field("sparsity", &self.weight.sparsity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
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
        let p = plan.problem(n);
        assert_eq!((p.m, p.n, p.k), (m, n, k));
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
        let y1 = p1.execute_packed(&xp, &pool);
        let y2 = p2.execute_packed(&xp, &pool);
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
        assert_eq!(qplan.problem(n).dtype, DType::I8);
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
        let pool = ThreadPool::new(2);
        let (m, k, tokens) = (32, 32, 8);
        let mut rng = Xorshift::new(45);
        let a = BcscMatrix::<f32>::random(m, k, 8, 8, 0.5, &mut rng).unwrap();
        let mut x = vec![0.0f32; k * tokens];
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let plan = SpmmPlan::new(a);
        let got = plan.execute(&x, tokens, &pool);
        let want = reference_gemm(&plan.weight().to_dense_colmajor(), &x, m, tokens, k);
        for i in 0..got.len() {
            assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
        }
        let p = plan.problem(tokens);
        assert_eq!((p.m, p.n, p.k), (m, tokens, k));
        assert_eq!(p.bn, 8);
    }
}
