//! Decoder-only LLM inference with a KV cache (paper §IV-A / Fig. 11:
//! GPT-J-6B and Llama2-13B, first-token vs next-token latency).
//!
//! The full-size models (24-52 GB of weights) cannot be materialized here;
//! the decoders that run are architecture-faithful *scaled* ones that
//! execute with the real kernels (prompt pass + cached autoregressive
//! steps). First-token latency is compute-bound, next-token latency is
//! weight-bandwidth-bound — the regimes the paper measures.
//!
//! ## Model / state split
//!
//! Weights ([`DecoderModel`]) are immutable and shareable (`Arc`) across
//! any number of concurrent sessions; each session owns only its KV cache
//! ([`DecoderState`]). This is what a serving runtime needs: one copy of
//! the weights, N independent decode streams. [`Decoder`] remains the
//! convenience single-stream wrapper over the pair.
//!
//! ## One ragged forward, one parallel region
//!
//! There is one forward: [`DecoderModel::forward_batch`] over
//! `(state, x, width)` items. A decode lane is an item of width 1, a
//! prefill chunk an item of width `w`, and [`DecoderModel::forward`] a
//! batch of one. The items' `Σ width` token columns form one
//! `hidden x Σwidth` activation matrix; every layer's LayerNorms, QKV /
//! output / FFN projections, GELU and residuals run **once over all
//! columns** (each weight element loaded once serves every token of every
//! item), and only attention runs per item, against that item's own paged
//! KV cache. The whole batch — all layers — executes inside **one**
//! [`ThreadPool::parallel`] region, the paper's Fig. 3 pattern: team
//! barriers separate the phases instead of one fork/join per projection.
//! Each layer is one declared schedule: every phase is a PARLOOPER nest,
//! and the runner in [`crate::prepared`] places the barriers and hands
//! each column or item body a token for its own columns. Per layer:
//!
//! | phase | work | split over the team by | span |
//! |---|---|---|---|
//! | 1 | LN1 → pack (and quantize) the projection input | columns: `"A"` | `decode.ln` |
//! | 2 | Q, K, V GEMMs | blocks: the plan's spec | `decode.qkv` |
//! | 3 | KV append + causal attention → pack the context | items: `"A @ schedule(dynamic,1)"` | `decode.attn` |
//! | 4 | output-projection GEMM | blocks: the plan's spec | |
//! | 5 | residual, LN2 → pack | columns: `"A"` | `decode.ffn` |
//! | 6 | FFN-up GEMM | blocks: the plan's spec | |
//! | 7 | GELU → pack | columns: `"A"` | |
//! | 8 | FFN-down GEMM | blocks: the plan's spec | |
//! | 9 | residual | columns: `"A"` | |
//!
//! A GEMM's blocks are its M blocks x 4-column blocks, split by the
//! plan's loop spec (`default_parallel`). A barrier follows every phase but
//! the 9th: phase 9 and the next layer's phase 1 split the columns the
//! same way, so each column stays with one member — 9 phases and 8
//! barriers per layer. An empty span cell extends the span above it.
//!
//! Every output column is a function of its own input column and its own
//! item's KV only — LayerNorm, GELU, residuals and activation quantization
//! are per column, and a GEMM column is one k-ordered reduction whatever
//! the width (see [`crate::prepared`]) — so each item's output is
//! **bit-identical** to running that item alone, at f32 and int8, for any
//! batch composition, chunking and team size.
//!
//! ## Prepared execution
//!
//! Every weight is a [`MatmulPlan`]: packed into its blocked kernel layout
//! once at [`DecoderModel::new`], with per-width kernels cached on first
//! use (or pre-built by [`DecoderModel::warm_plans`]). Decode steps
//! therefore pack **zero weight bytes** — only activations are blocked,
//! into buffers reused across a forward's layers, and a layer's QKV
//! projections consume a single packed copy of their shared input.

use crate::kvpool::{KvPagePool, KvPoolExhausted, KvSeq, KvSnapshot, PrefixCache, PrefixHit};
use crate::matmul::Trans;
use crate::prepared::{item_nest, Act, Cols, MatmulPlan, Phase, Precision, Region, Work};
use pl_runtime::ThreadPool;
use pl_tensor::Xorshift;
use pl_tpp::{norm, softmax, unary};
use std::sync::{Arc, Mutex, OnceLock};

/// Decoder architecture description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderConfig {
    /// Transformer blocks.
    pub layers: usize,
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// FFN inner width.
    pub ffn: usize,
    /// Vocabulary size. Nothing reads it (there is no LM head); the
    /// benchmark package still names it in its config literals, and the
    /// next change to that package drops it.
    pub vocab: usize,
    /// FFN weight matrices per block. Nothing reads it (the decoder always
    /// runs the 2-matrix GELU form); the benchmark package still names it
    /// in its config literals, and the next change to that package drops
    /// it.
    pub ffn_mats: usize,
}

impl DecoderConfig {
    /// GPT-J-6B: 28 layers, 4096 hidden, 16 heads, 16384 FFN. No caller
    /// yet: the planned Fig. 11 harness builds its one measured layer from
    /// it.
    pub fn gptj_6b() -> Self {
        DecoderConfig { layers: 28, hidden: 4096, heads: 16, ffn: 16384, vocab: 50400, ffn_mats: 2 }
    }

    /// Scaled-down config preserving the architecture (host execution).
    pub fn scaled_for_tests() -> Self {
        DecoderConfig { layers: 2, hidden: 32, heads: 4, ffn: 64, vocab: 128, ffn_mats: 2 }
    }
}

/// One decoder block's weights, held as **prepared plans**: each weight is
/// packed into its blocked kernel layout exactly once at construction
/// ([`MatmulPlan::new`]); decode steps only pack activations.
struct Block {
    wq: MatmulPlan,
    wk: MatmulPlan,
    wv: MatmulPlan,
    wo: MatmulPlan,
    w1: MatmulPlan,
    w2: MatmulPlan,
    ln1_g: Vec<f32>,
    ln1_b: Vec<f32>,
    ln2_g: Vec<f32>,
    ln2_b: Vec<f32>,
}

impl Block {
    fn plans(&self) -> [&MatmulPlan; 6] {
        [&self.wq, &self.wk, &self.wv, &self.wo, &self.w1, &self.w2]
    }
}

// The per-layer KV storage lives in `crate::kvpool`: fixed-size
// [`KvPage`](crate::kvpool::KvPage)s behind a shared [`KvPagePool`],
// one [`KvSeq`] (page list + cursor) per layer.

/// Immutable decoder weights, shareable across sessions.
pub struct DecoderModel {
    cfg: DecoderConfig,
    precision: Precision,
    blocks: Vec<Block>,
}

/// Pre-LN of one token column: `out = gamma * norm(x) + beta`.
fn layernorm_col(x: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32]) {
    let (h, mut mean, mut rstd) = (x.len(), [0.0f32], [0.0f32]);
    norm::layernorm(h, 1, x, h, gamma, beta, 1e-5, out, h, &mut mean, &mut rstd);
}

/// Splits a `tokens`-token prefill into bounded chunk widths under the
/// `chunk` cap: the cap is normalized to the next power of two, every
/// non-final chunk is exactly that width and only the final chunk carries
/// the remainder, so a prompt builds at most two kernels per plan. No
/// kernel needs the power-of-two rounding; it only fixes which widths a
/// cap yields. A prompt that fits in one chunk is returned whole, whatever
/// the cap (even one past the largest power of two). Chunking never changes
/// values: a chunked prefill is bit-identical to the whole-prompt forward.
pub fn prefill_chunk_widths(tokens: usize, chunk: usize) -> Vec<usize> {
    let cap = chunk.min(tokens).max(1).next_power_of_two();
    let mut widths = Vec::with_capacity(tokens.div_ceil(cap));
    let mut remaining = tokens;
    while remaining > 0 {
        let w = cap.min(remaining);
        widths.push(w);
        remaining -= w;
    }
    widths
}

/// One decode stream's mutable state: per-layer KV **page tables** (page
/// list + cursor, [`KvSeq`]) over a shared [`KvPagePool`]. The paged
/// layout is token-major inside each page — the contiguous cache's
/// layout, chunked — and attention reads through the page indirection
/// with unchanged per-element arithmetic order, so decode outputs are
/// bit-identical at every page size. A dense [`KvSnapshot`] of the state
/// ([`DecoderState::snapshot`]) rebuilds it in another pool
/// ([`DecoderState::from_snapshot`]), which is how a session moves
/// between servers.
pub struct DecoderState {
    pool: Arc<KvPagePool>,
    capacity: usize,
    seqs: Vec<KvSeq>,
}

impl DecoderState {
    fn new_in(pool: &Arc<KvPagePool>, layers: usize, max_tokens: usize) -> Self {
        assert!(layers > 0, "decoder states need at least one layer");
        let seqs = (0..layers).map(|_| KvSeq::new(pool)).collect();
        DecoderState { pool: Arc::clone(pool), capacity: max_tokens, seqs }
    }

    /// Cached tokens so far.
    pub fn cached_tokens(&self) -> usize {
        self.seqs[0].len()
    }

    /// KV capacity in tokens (the admission bound; pages are only
    /// allocated as tokens actually arrive).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears the KV cache (the stream restarts from an empty context);
    /// every page the state held recycles into the pool.
    pub fn reset(&mut self) {
        let layers = self.seqs.len();
        self.seqs = (0..layers).map(|_| KvSeq::new(&self.pool)).collect();
    }

    /// The pool this state draws pages from.
    pub fn pool(&self) -> &Arc<KvPagePool> {
        &self.pool
    }

    /// Held pages shared with at least one other holder (prefix cache or
    /// sibling session).
    pub fn shared_kv_pages(&self) -> usize {
        self.seqs.iter().map(|s| s.shared_pages()).sum()
    }

    /// A dense copy of the KV contents — the wire format
    /// ([`KvSnapshot::to_bytes`]) a session moves between servers in.
    pub fn snapshot(&self) -> KvSnapshot {
        KvSnapshot::from_seqs(&self.seqs, self.capacity)
    }

    /// Rebuilds a state from a snapshot, drawing pages from `pool`
    /// (possibly a different server's pool than the snapshot came from).
    /// Continuation is bit-identical: the dense copy preserves every KV
    /// value and the paged read path preserves arithmetic order.
    pub fn from_snapshot(
        pool: &Arc<KvPagePool>,
        snap: &KvSnapshot,
    ) -> Result<Self, KvPoolExhausted> {
        let seqs = snap.restore(pool)?;
        Ok(DecoderState { pool: Arc::clone(pool), capacity: snap.capacity(), seqs })
    }

    /// Adopts the cached leading pages `hit` found for a prompt this state
    /// is about to prefill ([`PrefixCache::lookup`]) into every layer by
    /// reference, so the prefill only has to forward the tokens after
    /// `hit.tokens()`. K and V at a position depend on the tokens up to it
    /// only, so the continuation is bit-identical to prefilling the whole
    /// prompt. Refuses (returning `false`, state untouched) unless the
    /// state is **empty** and the hit is non-empty and within capacity:
    /// cached pages describe a prompt from position 0.
    pub fn adopt_prefix(&mut self, hit: &PrefixHit) -> bool {
        let adoptable = !hit.is_empty()
            && hit.tokens() <= self.capacity
            && hit.layers() == self.seqs.len()
            && self.seqs.iter().all(|seq| seq.is_empty());
        if adoptable {
            for (layer, seq) in self.seqs.iter_mut().enumerate() {
                seq.adopt(hit, layer);
            }
        }
        adoptable
    }

    /// Registers this state's just-completed prompt with `cache`: `prompt`
    /// is the whole `hidden x tokens` prefill input the state was filled
    /// from **empty** with, `hit` what [`PrefixCache::lookup`] returned
    /// for it (whether or not the state adopted it) and `output` the
    /// prefill's `hidden x tokens` result. Returns the pages added — 0
    /// when the state holds anything but exactly that prompt.
    pub fn register_prefix(
        &self,
        cache: &PrefixCache,
        prompt: &[f32],
        hit: &PrefixHit,
        output: &[f32],
    ) -> usize {
        cache.register(prompt, hit, &self.seqs, output)
    }
}

impl DecoderModel {
    /// Random-initialized weights for `cfg`. This is where every weight is
    /// packed into its blocked kernel layout — the only weight-pack events
    /// the model ever generates (see [`crate::prepared::pack_events`]).
    ///
    /// Construction is one PARLOOPER nest over the weight matrices,
    /// `"A @ schedule(dynamic,1)"` on the global pool: each matrix is drawn
    /// from its own span of the seed's one serial stream (reached with
    /// [`Xorshift::jump`]) and packed by whichever member claims it, so the
    /// weights do not depend on the team size.
    pub fn new(cfg: DecoderConfig, seed: u64) -> Self {
        Self::new_with_precision(cfg, seed, Precision::F32)
    }

    /// [`DecoderModel::new`] at an explicit precision. The same `seed`
    /// draws the same f32 weights at every precision, so an
    /// [`Precision::Int8`] model is the *quantization* of the f32 model
    /// with that seed — the property the int8-vs-f32 equivalence tests
    /// rely on. Quantization happens once here (per plan build); decode
    /// steps touch no weight bytes at either precision.
    pub fn new_with_precision(cfg: DecoderConfig, seed: u64, precision: Precision) -> Self {
        Self::build_on(cfg, seed, precision, pl_runtime::global_pool())
    }

    /// [`DecoderModel::new_with_precision`] with the construction nest on
    /// `pool`.
    pub(crate) fn build_on(
        cfg: DecoderConfig,
        seed: u64,
        precision: Precision,
        pool: &ThreadPool,
    ) -> Self {
        let (h, f) = (cfg.hidden, cfg.ffn);
        // `(rows, cols, first draw)` of every matrix in stream order: per
        // layer wq, wk, wv, wo, w1, w2; a normal sample takes two draws.
        let mut draws = 0;
        let mats: Vec<(usize, usize, u64)> = (0..cfg.layers)
            .flat_map(|_| [(h, h), (h, h), (h, h), (h, h), (f, h), (h, f)])
            .map(|(rows, cols)| {
                let first = draws;
                draws += 2 * (rows * cols) as u64;
                (rows, cols, first)
            })
            .collect();
        let stream = Xorshift::new(seed);
        let slots: Vec<OnceLock<MatmulPlan>> = mats.iter().map(|_| OnceLock::new()).collect();
        item_nest(mats.len()).run_on(pool, |ind| {
            let i = ind[0];
            let (rows, cols, first) = mats[i];
            let mut rng = stream.clone();
            rng.jump(first);
            let std = (1.0 / rows as f32).sqrt();
            let mut v = vec![0.0f32; rows * cols];
            pl_tensor::fill_normal(&mut v, &mut rng, 0.0, std);
            let plan = MatmulPlan::with_precision(&v, Trans::No, rows, cols, precision);
            assert!(slots[i].set(plan).is_ok(), "matrix {i} claimed twice");
        });
        let mut plans =
            slots.into_iter().map(|slot| slot.into_inner().expect("every matrix built"));
        let mut next = || plans.next().expect("six plans per layer");
        let blocks = (0..cfg.layers)
            .map(|_| Block {
                wq: next(),
                wk: next(),
                wv: next(),
                wo: next(),
                w1: next(),
                w2: next(),
                ln1_g: vec![1.0; h],
                ln1_b: vec![0.0; h],
                ln2_g: vec![1.0; h],
                ln2_b: vec![0.0; h],
            })
            .collect();
        DecoderModel { cfg, precision, blocks }
    }

    /// Config accessor.
    pub fn config(&self) -> &DecoderConfig {
        &self.cfg
    }

    /// The precision every weight plan was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of packed weight operands streamed through memory by one
    /// decode step (every plan executes exactly once per step, at any
    /// batch width). Decode is weight-bandwidth-bound, so this is the
    /// denominator of the int8 speedup story: the int8 figure is ~4x
    /// smaller than the f32 one for the same config.
    pub fn weight_stream_bytes_per_step(&self) -> usize {
        self.blocks.iter().flat_map(|b| b.plans()).map(|p| p.weight_stream_bytes()).sum()
    }

    /// Pre-constructs every plan's kernel at each width in `widths`
    /// (zero-width entries are skipped), so the first real step at any of
    /// those widths builds nothing.
    pub fn warm_plans(&self, widths: &[usize]) {
        for blk in &self.blocks {
            for plan in blk.plans() {
                for &n in widths {
                    if n > 0 {
                        plan.warm(n);
                    }
                }
            }
        }
    }

    /// Fresh empty KV state with capacity `max_tokens`, drawing pages
    /// from a private unbounded pool at the default page size. Serving
    /// tiers that want sharing and bounded residency pass their shard
    /// pool via [`DecoderModel::new_state_in`] instead.
    pub fn new_state(&self, max_tokens: usize) -> DecoderState {
        let pool = KvPagePool::new(self.cfg.hidden, crate::kvpool::DEFAULT_PAGE_TOKENS);
        self.new_state_in(&pool, max_tokens)
    }

    /// Fresh empty KV state with capacity `max_tokens` over a shared
    /// page pool (one pool per serving shard: sessions share prefix
    /// pages and compete for the same residency bound).
    pub fn new_state_in(&self, pool: &Arc<KvPagePool>, max_tokens: usize) -> DecoderState {
        assert_eq!(pool.hidden(), self.cfg.hidden, "pool geometry must match the model");
        DecoderState::new_in(pool, self.cfg.layers, max_tokens)
    }

    /// Rebuilds a session state from a [`KvSnapshot`] into `pool` — the
    /// import half of moving a session between servers. Continuation from
    /// the restored state is bit-identical to continuing the original.
    pub fn state_from_snapshot(
        &self,
        pool: &Arc<KvPagePool>,
        snap: &KvSnapshot,
    ) -> Result<DecoderState, KvPoolExhausted> {
        assert_eq!(pool.hidden(), self.cfg.hidden, "pool geometry must match the model");
        assert_eq!(snap.layer_count(), self.cfg.layers, "snapshot layer count mismatch");
        DecoderState::from_snapshot(pool, snap)
    }

    /// Forward over `tokens` new positions (`hidden x tokens` hidden
    /// states, column-major); appends to `state`'s caches and returns the
    /// transformed states. Causal masking applies. `tokens == 1` is one
    /// autoregressive step; a whole prompt is a prefill. This is
    /// [`DecoderModel::forward_batch`] over a batch of one.
    pub fn forward(
        &self,
        state: &mut DecoderState,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
    ) -> Vec<f32> {
        self.forward_batch(vec![(state, x, tokens)], pool).pop().expect("one item in, one out")
    }

    /// The forward: a ragged batch of independent sessions, entries
    /// `(state, x, width)` where `x` holds `hidden x width` column-major
    /// hidden states appended to that session's KV cache — decode lanes
    /// (`width == 1`) and prefill chunks side by side. All items share
    /// every layer's projections over the `Σ width` gathered columns,
    /// attention runs per item, and the whole batch is **one** parallel
    /// region (phases and barriers: module docs). Returns the per-item
    /// outputs in input order; each is **bit-identical** to running that
    /// item alone.
    ///
    /// # Panics
    /// Panics on a malformed input, a KV capacity overflow (both checked
    /// before any state is touched), or when the KV page pool runs dry
    /// mid-forward (the region unwinds as a whole; the states of the
    /// batch are then unspecified and must be dropped).
    pub fn forward_batch(
        &self,
        batch: Vec<(&mut DecoderState, &[f32], usize)>,
        pool: &ThreadPool,
    ) -> Vec<Vec<f32>> {
        let (h, f) = (self.cfg.hidden, self.cfg.ffn);
        let n: usize = batch.iter().map(|item| item.2).sum();
        if n == 0 {
            return batch.iter().map(|_| Vec::new()).collect();
        }
        // Gather: item i owns columns `items[i]` of everything.
        let mut x = vec![0.0f32; h * n];
        let (mut states, mut items, mut col0) = (Vec::new(), Vec::new(), 0);
        for (i, (state, xs, width)) in batch.into_iter().enumerate() {
            assert_eq!(xs.len(), h * width, "item {i}: input must be `hidden x width` values");
            assert!(
                state.cached_tokens() + width <= state.capacity,
                "KV cache overflow (item {i})"
            );
            x[col0 * h..(col0 + width) * h].copy_from_slice(xs);
            states.push(Mutex::new(state));
            items.push(col0..col0 + width);
            col0 += width;
        }
        // The region's matrices (named by `XB` .. `UP`), built once and
        // reused by every layer.
        let first = &self.blocks[0];
        let (xb, ab, up) = (first.wq.input(n), first.w2.input(n), first.w1.output(n));
        let mut acts = [xb, ab, first.wq.output(n), first.wq.output(n), first.wq.output(n), up];
        let plans: Vec<_> = self.blocks.iter().map(Block::plans).collect();
        let batch = Batch { model: self, states };
        let region = Region::new(&mut x, &mut acts, &items);
        region.run(pool, &batch, &Batch::LAYER, &plans, 2 * h.max(f));
        items.iter().map(|cols| x[cols.start * h..cols.end * h].to_vec()).collect()
    }

    /// Forward over `tokens` new positions in bounded chunks
    /// ([`prefill_chunk_widths`] under the `chunk` cap): each chunk is one
    /// [`DecoderModel::forward`] call appending to `state`'s KV cache —
    /// the resumable form a serving runtime admits through its batcher one
    /// chunk at a time. Returns the concatenated per-chunk outputs,
    /// **bit-identical** to the whole-prompt forward (a column's
    /// arithmetic does not depend on which columns share its GEMMs).
    pub fn forward_chunked(
        &self,
        state: &mut DecoderState,
        x: &[f32],
        tokens: usize,
        chunk: usize,
        pool: &ThreadPool,
    ) -> Vec<f32> {
        let h = self.cfg.hidden;
        let mut out = Vec::with_capacity(h * tokens);
        let mut done = 0usize;
        for w in prefill_chunk_widths(tokens, chunk) {
            out.extend(self.forward(state, &x[done * h..(done + w) * h], w, pool));
            done += w;
        }
        out
    }
}

// The matrices of a `forward_batch` region, in the order it builds them:
// the `k = hidden` projection input, the `k = ffn` FFN-down input, the Q /
// K / V outputs (Q also takes the output and FFN-down projections) and the
// FFN-up output; then a layer's plans, in `Block::plans` order.
const XB: Act = Act(0);
const AB: Act = Act(1);
const Q: Act = Act(2);
const K: Act = Act(3);
const V: Act = Act(4);
const UP: Act = Act(5);
const WQ: usize = 0;
const WK: usize = 1;
const WV: usize = 2;
const WO: usize = 3;
const W1: usize = 4;
const W2: usize = 5;

/// What the phase bodies of one [`DecoderModel::forward_batch`] region
/// share: the weights and every item's state.
struct Batch<'a> {
    model: &'a DecoderModel,
    /// Item `i`'s state. Uncontended — the attention phase hands each
    /// item to exactly one member — it only launders the `&mut` across the
    /// team.
    states: Vec<Mutex<&'a mut DecoderState>>,
}

impl<'a> Batch<'a> {
    /// One decoder layer: the module docs' phase table, row for row.
    const LAYER: [Phase<Self>; 9] = [
        Phase {
            what: "LN1 → pack (and quantize) the projection input",
            span: Some("decode.ln"),
            work: Work::Columns(Self::ln1),
        },
        Phase {
            what: "Q, K, V GEMMs",
            span: Some("decode.qkv"),
            work: Work::Gemms(&[(WQ, XB, Q), (WK, XB, K), (WV, XB, V)]),
        },
        Phase {
            what: "KV append + causal attention → pack the context",
            span: Some("decode.attn"),
            work: Work::Items(Self::attend),
        },
        Phase { what: "output-projection GEMM", span: None, work: Work::Gemms(&[(WO, XB, Q)]) },
        Phase {
            what: "residual, LN2 → pack",
            span: Some("decode.ffn"),
            work: Work::Columns(Self::residual_ln2),
        },
        Phase { what: "FFN-up GEMM", span: None, work: Work::Gemms(&[(W1, XB, UP)]) },
        Phase { what: "GELU → pack", span: None, work: Work::Columns(Self::gelu) },
        Phase { what: "FFN-down GEMM", span: None, work: Work::Gemms(&[(W2, AB, Q)]) },
        Phase { what: "residual", span: None, work: Work::Columns(Self::residual) },
    ];

    fn ln1(&self, c: &mut Cols<'_>, s: &mut [f32]) {
        let (blk, j, out) = (&self.model.blocks[c.layer], c.index, &mut s[..self.model.cfg.hidden]);
        layernorm_col(c.x(j), &blk.ln1_g, &blk.ln1_b, out);
        c.write(XB, j, out);
    }

    fn residual_ln2(&self, c: &mut Cols<'_>, s: &mut [f32]) {
        self.residual(c, s);
        let (blk, j, out) = (&self.model.blocks[c.layer], c.index, &mut s[..self.model.cfg.hidden]);
        layernorm_col(c.x(j), &blk.ln2_g, &blk.ln2_b, out);
        c.write(XB, j, out);
    }

    fn gelu(&self, c: &mut Cols<'_>, s: &mut [f32]) {
        let (j, f) = (c.index, self.model.cfg.ffn);
        let (a, b) = s.split_at_mut(f);
        c.read(UP, j, a);
        unary::gelu(f, 1, a, f, &mut b[..f], f);
        c.write(AB, j, &b[..f]);
    }

    /// `x[:, j] += Q[:, j]`: the output or FFN-down projection joins the
    /// residual stream.
    fn residual(&self, c: &mut Cols<'_>, s: &mut [f32]) {
        let (j, q) = (c.index, &mut s[..self.model.cfg.hidden]);
        c.read(Q, j, q);
        for (x, q) in c.x(j).iter_mut().zip(&*q) {
            *x += *q;
        }
    }

    /// One item's attention in the token's layer: appends the item's new
    /// K/V columns to its page table (growing pages on demand,
    /// COW-splitting a shared tail page before the first write), attends
    /// causally over the whole cached context, and packs the context
    /// columns into `XB`.
    fn attend(&self, c: &mut Cols<'_>, _: &mut [f32]) {
        let (l, cols) = (c.layer, c.cols());
        let h = self.model.cfg.hidden;
        let nh = self.model.cfg.heads;
        let dh = h / nh;
        let tokens = cols.len();
        // One span per item: on a trace timeline these tile the attention
        // phase and show how the items load-balanced over the team.
        let _item_span = pl_trace::span("batch.item", [cols.start as u64, tokens as u64, l as u64]);
        let gather = |m: Act| {
            let mut flat = vec![0.0f32; h * tokens];
            for (j, col) in cols.clone().zip(flat.chunks_exact_mut(h)) {
                c.read(m, j, col);
            }
            flat
        };
        let (q, knew, vnew) = (gather(Q), gather(K), gather(V));

        let mut guard = self.states[c.index].lock().expect("item claimed by a panicked member");
        let state: &mut DecoderState = &mut guard;
        let (kvpool, seq) = (&state.pool, &mut state.seqs[l]);
        let past = seq.len();
        for t in 0..tokens {
            seq.append(kvpool, &knew[t * h..(t + 1) * h], &vnew[t * h..(t + 1) * h])
                .expect("KV page pool exhausted");
        }
        let total = past + tokens;
        // Token slices resolved once through the page indirection; the
        // loops below run the contiguous layout's arithmetic in the same
        // per-element order, so paging never changes the outputs.
        let ktoks: Vec<&[f32]> = (0..total).map(|t| seq.k_tok(t)).collect();
        let vtoks: Vec<&[f32]> = (0..total).map(|t| seq.v_tok(t)).collect();

        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = vec![0.0f32; h * tokens];
        for hd in 0..nh {
            // Per-head slices over cache (keys/values) and new queries.
            let mut s = vec![f32::NEG_INFINITY; total * tokens];
            for tq in 0..tokens {
                let qoff = tq * h + hd * dh;
                let visible = past + tq + 1; // causal mask
                for tk in 0..visible {
                    let mut dot = 0.0f32;
                    for d in 0..dh {
                        dot += q[qoff + d] * ktoks[tk][hd * dh + d];
                    }
                    s[tq * total + tk] = dot * scale;
                }
            }
            let mut p = vec![0.0f32; total * tokens];
            softmax::softmax_cols(total, tokens, &s, total, &mut p, total);
            for tq in 0..tokens {
                let visible = past + tq + 1;
                for d in 0..dh {
                    let mut acc = 0.0f32;
                    for tk in 0..visible {
                        acc += p[tq * total + tk] * vtoks[tk][hd * dh + d];
                    }
                    ctx[tq * h + hd * dh + d] = acc;
                }
            }
        }
        for (j, col) in cols.zip(ctx.chunks_exact(h)) {
            c.write(XB, j, col);
        }
    }
}

/// A runnable (scaled) single-stream decoder: shared weights + one state.
pub struct Decoder {
    model: Arc<DecoderModel>,
    state: DecoderState,
}

impl Decoder {
    /// Random-initialized decoder with KV capacity `max_tokens`.
    pub fn new(cfg: DecoderConfig, max_tokens: usize, seed: u64) -> Self {
        let model = Arc::new(DecoderModel::new(cfg, seed));
        let state = model.new_state(max_tokens);
        Decoder { model, state }
    }

    /// A decoder sharing `model`'s weights, with a fresh KV state.
    pub fn from_model(model: Arc<DecoderModel>, max_tokens: usize) -> Self {
        let state = model.new_state(max_tokens);
        Decoder { model, state }
    }

    /// The shared weights.
    pub fn model(&self) -> &Arc<DecoderModel> {
        &self.model
    }

    /// Config accessor.
    pub fn config(&self) -> &DecoderConfig {
        self.model.config()
    }

    /// Cached tokens so far.
    pub fn cached_tokens(&self) -> usize {
        self.state.cached_tokens()
    }

    /// Clears the KV cache.
    pub fn reset(&mut self) {
        self.state.reset();
    }

    /// Prefill over a whole prompt (`hidden x tokens` hidden states);
    /// fills the cache and returns the transformed states ("first token"
    /// compute). Causal masking applies.
    pub fn prefill(&mut self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        self.model.forward(&mut self.state, x, tokens, pool)
    }

    /// One autoregressive step for a single token's hidden state
    /// (`hidden` values); appends to the cache ("next token" compute).
    pub fn step(&mut self, x: &[f32], pool: &ThreadPool) -> Vec<f32> {
        self.prefill(x, 1, pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::column_nest;
    use pl_tensor::fill_uniform;

    #[test]
    fn incremental_decoding_matches_full_prefill() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 6;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(8), -0.5, 0.5);

        // Full prefill.
        let mut full = Decoder::new(cfg, 16, 99);
        let y_full = full.prefill(&x, tokens, &pool);

        // Token-by-token with KV cache.
        let mut inc = Decoder::new(cfg, 16, 99);
        let mut last = Vec::new();
        for t in 0..tokens {
            last = inc.step(&x[t * cfg.hidden..(t + 1) * cfg.hidden], &pool);
        }
        // The final token's output must agree.
        let y_last = &y_full[(tokens - 1) * cfg.hidden..tokens * cfg.hidden];
        for (a, b) in y_last.iter().zip(&last) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert_eq!(inc.cached_tokens(), tokens);
    }

    #[test]
    fn causal_mask_blocks_future() {
        // Changing a later token must not affect an earlier token's output.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 4;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(9), -0.5, 0.5);
        let mut d1 = Decoder::new(cfg, 8, 7);
        let y1 = d1.prefill(&x, tokens, &pool);
        let mut x2 = x.clone();
        for v in &mut x2[(tokens - 1) * cfg.hidden..] {
            *v += 1.0;
        }
        let mut d2 = Decoder::new(cfg, 8, 7);
        let y2 = d2.prefill(&x2, tokens, &pool);
        for i in 0..cfg.hidden {
            assert!((y1[i] - y2[i]).abs() < 1e-5, "token 0 leaked future info");
        }
    }

    #[test]
    fn cache_overflow_is_caught() {
        let pool = ThreadPool::new(1);
        let cfg = DecoderConfig::scaled_for_tests();
        let mut d = Decoder::new(cfg, 2, 1);
        let x = vec![0.1f32; cfg.hidden * 2];
        let _ = d.prefill(&x, 2, &pool);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.step(&x[..cfg.hidden], &pool);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn step_is_deterministic_across_team_sizes() {
        // Per-session compute does not depend on how many threads
        // participate: each C block of every GEMM is produced by exactly
        // one thread with a fixed reduction order, and the column / lane
        // phases are per-column arithmetic however they are split.
        let cfg = DecoderConfig::scaled_for_tests();
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(3), -0.5, 0.5);
        let mut outs = Vec::new();
        // 3 divides neither the columns nor the blocks; a width-1 step on
        // 4 threads leaves three members without a column in every column
        // phase.
        for threads in [1, 2, 3, 4] {
            let pool = ThreadPool::new(threads);
            let mut d = Decoder::new(cfg, 8, 42);
            outs.push(d.step(&x, &pool));
        }
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0], outs[2]);
        assert_eq!(outs[0], outs[3]);
    }

    /// `n` sessions over `kvpool` with ragged contexts (session `s`
    /// prefilled with `s + 1` tokens), ready to decode: `(states, next
    /// inputs)`.
    fn ragged_sessions_in(
        model: &DecoderModel,
        kvpool: &Arc<KvPagePool>,
        n: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> (Vec<DecoderState>, Vec<Vec<f32>>) {
        let h = model.config().hidden;
        let mut states: Vec<DecoderState> =
            (0..n).map(|_| model.new_state_in(kvpool, 16)).collect();
        let inputs = states
            .iter_mut()
            .enumerate()
            .map(|(s, st)| {
                let prompt = s + 1;
                let mut px = vec![0.0f32; h * prompt];
                fill_uniform(&mut px, &mut Xorshift::new(seed + s as u64), -0.5, 0.5);
                model.forward(st, &px, prompt, pool)[(prompt - 1) * h..].to_vec()
            })
            .collect();
        (states, inputs)
    }

    fn ragged_sessions(
        model: &DecoderModel,
        n: usize,
        seed: u64,
        pool: &ThreadPool,
    ) -> (Vec<DecoderState>, Vec<Vec<f32>>) {
        let kvpool = KvPagePool::new(model.config().hidden, crate::kvpool::DEFAULT_PAGE_TOKENS);
        ragged_sessions_in(model, &kvpool, n, seed, pool)
    }

    /// One decode lane per session: the batch `forward_batch` takes.
    fn lanes<'a>(
        states: &'a mut [DecoderState],
        inputs: &'a [Vec<f32>],
    ) -> Vec<(&'a mut DecoderState, &'a [f32], usize)> {
        states.iter_mut().zip(inputs).map(|(s, x)| (s, x.as_slice(), 1)).collect()
    }

    #[test]
    fn batched_decode_matches_unbatched_bitwise_at_both_precisions() {
        // Ragged batch (B = 5, not a power of two) with ragged context
        // lengths, several closed-loop steps: every lane's output must be
        // exactly what that session produces stepping alone, and leave
        // identical KV bookkeeping behind — at f32 and at int8.
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let (n, steps) = (5, 3);
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 2024, precision);
            let (mut batched, mut inputs) = ragged_sessions(&model, n, 300, &pool);
            let (mut alone, _) = ragged_sessions(&model, n, 300, &pool);
            for step in 0..steps {
                let got = model.forward_batch(lanes(&mut batched, &inputs), &pool);
                for s in 0..n {
                    let want = model.forward(&mut alone[s], &inputs[s], 1, &pool);
                    assert_eq!(got[s], want, "{precision:?} session {s} step {step}");
                }
                // Closed loop: feed the outputs back so KV raggedness
                // compounds across steps.
                inputs = got;
            }
            for s in 0..n {
                assert_eq!(batched[s].cached_tokens(), s + 1 + steps);
                assert_eq!(alone[s].cached_tokens(), s + 1 + steps);
            }
        }
    }

    #[test]
    fn empty_and_zero_width_batches_are_no_ops() {
        let pool = ThreadPool::new(2);
        let model = DecoderModel::new(DecoderConfig::scaled_for_tests(), 9);
        assert!(model.forward_batch(Vec::new(), &pool).is_empty());
        let mut st = model.new_state(8);
        assert_eq!(model.forward_batch(vec![(&mut st, &[], 0)], &pool), vec![Vec::<f32>::new()]);
        assert_eq!(st.cached_tokens(), 0);
    }

    #[test]
    fn prefill_chunk_widths_are_ladder_aligned() {
        assert_eq!(prefill_chunk_widths(0, 16), Vec::<usize>::new());
        // A prompt that fits in one chunk is never subdivided.
        assert_eq!(prefill_chunk_widths(3, 16), vec![3]);
        assert_eq!(prefill_chunk_widths(16, 16), vec![16]);
        // Non-final chunks are exactly the pow2-normalized cap.
        assert_eq!(prefill_chunk_widths(41, 16), vec![16, 16, 9]);
        assert_eq!(prefill_chunk_widths(32, 4), vec![4; 8]);
        // A ragged cap rounds up to the next power of two (ladder rung).
        assert_eq!(prefill_chunk_widths(20, 6), vec![8, 8, 4]);
        // Degenerate cap: token-at-a-time decoding.
        assert_eq!(prefill_chunk_widths(3, 0), vec![1, 1, 1]);
        // A cap past the largest power of two ("never chunk") is whole.
        assert_eq!(prefill_chunk_widths(3, usize::MAX), vec![3]);
        assert_eq!(prefill_chunk_widths(20, (1 << 63) + 1), vec![20]);
        for (tokens, chunk) in [(1, 1), (7, 2), (100, 16), (33, 32)] {
            let widths = prefill_chunk_widths(tokens, chunk);
            assert_eq!(widths.iter().sum::<usize>(), tokens);
            assert!(widths[..widths.len() - 1].iter().all(|w| w.is_power_of_two()));
        }
    }

    #[test]
    fn forward_chunked_matches_whole_prompt_bitwise() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let tokens = 11;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(21), -0.5, 0.5);
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 77, precision);
            let mut whole_state = model.new_state(16);
            let whole = model.forward(&mut whole_state, &x, tokens, &pool);
            // One chunk, chunks of 4 (4 + 4 + 3) and token-at-a-time all
            // run the projections at other widths — same bits.
            for chunk in [16, 4, 1] {
                let mut state = model.new_state(16);
                let chunked = model.forward_chunked(&mut state, &x, tokens, chunk, &pool);
                assert_eq!(chunked, whole, "{precision:?} chunk {chunk}");
                assert_eq!(state.cached_tokens(), tokens);
            }
        }
    }

    #[test]
    fn forward_batch_mixed_widths_is_bitwise_per_item() {
        // A mixed region — decode steps next to a 16-token prefill chunk,
        // 19 columns in all (prime: four full column blocks and a ragged
        // one) — must produce, per item, exactly what a standalone forward
        // produces: batch composition never changes arithmetic. Teams of 3
        // and 4 divide neither the 19 columns nor the 4 items.
        for threads in [1, 3, 4] {
            let pool = ThreadPool::new(threads);
            let cfg = DecoderConfig::scaled_for_tests();
            let model = Arc::new(DecoderModel::new(cfg, 404));
            let widths = [1usize, 16, 1, 1];
            let inputs: Vec<Vec<f32>> = widths
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    let mut x = vec![0.0f32; cfg.hidden * w];
                    fill_uniform(&mut x, &mut Xorshift::new(600 + i as u64), -0.5, 0.5);
                    x
                })
                .collect();
            let want: Vec<Vec<f32>> = inputs
                .iter()
                .zip(widths)
                .map(|(x, w)| model.forward(&mut model.new_state(16), x, w, &pool))
                .collect();
            let mut states: Vec<DecoderState> =
                widths.iter().map(|_| model.new_state(16)).collect();
            let batch: Vec<(&mut DecoderState, &[f32], usize)> = states
                .iter_mut()
                .zip(inputs.iter().map(|x| x.as_slice()))
                .zip(widths)
                .map(|((s, x), w)| (s, x, w))
                .collect();
            let got = model.forward_batch(batch, &pool);
            assert_eq!(got, want);
            for (s, &w) in states.iter().zip(&widths) {
                assert_eq!(s.cached_tokens(), w);
            }
        }
    }

    #[test]
    fn the_phase_table_is_the_declared_schedule() {
        // The module docs' table is `Batch::LAYER`, row for row: what each
        // phase does, the nest that splits it and the span it opens; and
        // the runner's barrier rule gives 8 barriers per 9-phase layer.
        let split = |work: &Work<Batch<'_>>| match work {
            Work::Columns(_) => format!("columns: `\"{}\"`", column_nest(1).plan().spec_string()),
            Work::Items(_) => format!("items: `\"{}\"`", item_nest(1).plan().spec_string()),
            Work::Gemms(_) => "blocks: the plan's spec".to_string(),
        };
        let rows: Vec<Vec<String>> = include_str!("llm.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//! |"))
            .map(|row| row.split('|').map(|cell| cell.trim().to_string()).collect::<Vec<_>>())
            .filter(|cells| cells[0].parse::<usize>().is_ok())
            .map(|cells| cells[..cells.len() - 1].to_vec())
            .collect();
        let layer = Batch::LAYER;
        assert_eq!(rows.len(), layer.len());
        for (i, (row, phase)) in rows.iter().zip(&layer).enumerate() {
            let span = phase.span.map_or(String::new(), |name| format!("`{name}`"));
            let want = [(i + 1).to_string(), phase.what.to_string(), split(&phase.work), span];
            assert_eq!(row[..], want, "phase {}", i + 1);
        }
        let next = layer.iter().cycle().skip(1);
        let barriers = layer.iter().zip(next).filter(|(a, b)| a.work.barrier_before(&b.work));
        assert_eq!((layer.len(), barriers.count()), (9, 8));
    }

    #[test]
    fn warm_plans_builds_every_plan_kernel_at_each_width() {
        let model = DecoderModel::new(DecoderConfig::scaled_for_tests(), 5);
        model.warm_plans(&[1, 4, 0]); // zero widths are skipped
        for plan in model.blocks.iter().flat_map(|blk| blk.plans()) {
            assert_eq!(plan.warmed_widths(), vec![1, 4]);
        }
    }

    #[test]
    fn int8_model_tracks_f32_model_over_decode() {
        // Same seed => the int8 model is the quantization of the f32 one.
        // Prefill + several batched decode steps: outputs must stay within
        // the quantization error budget (see the serve README "Precision"
        // section for the bound's derivation) and stream ~4x fewer weight
        // bytes per step.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let f32_model = DecoderModel::new(cfg, 314);
        let i8_model = DecoderModel::new_with_precision(cfg, 314, Precision::Int8);
        assert_eq!(f32_model.precision(), Precision::F32);
        assert_eq!(i8_model.precision(), Precision::Int8);
        let fb = f32_model.weight_stream_bytes_per_step();
        let ib = i8_model.weight_stream_bytes_per_step();
        let ratio = fb as f64 / ib as f64;
        assert!(ratio > 3.5 && ratio <= 4.0, "weight-traffic ratio {ratio} (f32 {fb} / i8 {ib})");

        let (n, steps) = (3, 4);
        let (mut f_states, mut f_in) = ragged_sessions(&f32_model, n, 700, &pool);
        let (mut q_states, mut q_in) = ragged_sessions(&i8_model, n, 700, &pool);
        for step in 0..steps {
            let f_out = f32_model.forward_batch(lanes(&mut f_states, &f_in), &pool);
            let q_out = i8_model.forward_batch(lanes(&mut q_states, &q_in), &pool);
            for s in 0..n {
                // Bound derivation: symmetric int8 rounding bounds each
                // operand element's error by half a quantization step
                // (max|.|/254); for roughly Gaussian operands (peaks near
                // 3 sigma) one GEMM's output error is ~1% RMS of the
                // output magnitude, independent of k (error and signal
                // both grow as sqrt(k) — random signs cancel).
                // Per-element outliers run a few x RMS and errors compound
                // over 6 GEMMs/layer x 2 layers x closed-loop steps
                // (observed max ~0.1 at this scale), so 0.25 against a
                // 1.0-floored denominator is a safe envelope.
                for (i, (a, b)) in q_out[s].iter().zip(&f_out[s]).enumerate() {
                    let rel = (a - b).abs() / b.abs().max(1.0);
                    assert!(rel < 0.25, "step {step} session {s} idx {i}: i8 {a} vs f32 {b}");
                }
            }
            f_in = f_out;
            q_in = q_out;
        }
    }

    #[test]
    fn shared_model_states_are_independent() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 7));
        let mut a = Decoder::from_model(Arc::clone(&model), 8);
        let mut b = Decoder::from_model(Arc::clone(&model), 8);
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(11), -0.5, 0.5);
        let ya1 = a.step(&x, &pool);
        // b's state is untouched by a's step and vice versa.
        assert_eq!(a.cached_tokens(), 1);
        assert_eq!(b.cached_tokens(), 0);
        let yb1 = b.step(&x, &pool);
        assert_eq!(ya1, yb1, "same weights + same context => same output");
    }

    /// Drives prefill + decode at one page size; returns the full output
    /// stream (prefill output then each step's output).
    fn paged_stream(
        model: &DecoderModel,
        page_tokens: usize,
        capacity: usize,
        pool: &ThreadPool,
    ) -> Vec<Vec<f32>> {
        let cfg = model.config();
        let kvpool = crate::kvpool::KvPagePool::new(cfg.hidden, page_tokens);
        let mut st = model.new_state_in(&kvpool, capacity);
        let prompt = 5;
        let mut px = vec![0.0f32; cfg.hidden * prompt];
        fill_uniform(&mut px, &mut Xorshift::new(4040), -0.5, 0.5);
        let y = model.forward(&mut st, &px, prompt, pool);
        let mut outs = vec![y.clone()];
        let mut x = y[(prompt - 1) * cfg.hidden..].to_vec();
        for _ in 0..4 {
            x = model.forward(&mut st, &x, 1, pool);
            outs.push(x.clone());
        }
        outs
    }

    #[test]
    fn paged_decode_bitwise_invariant_across_page_sizes() {
        // A pool whose page holds the whole capacity IS the contiguous
        // layout (one page = one flat buffer); smaller page sizes only
        // change where token slices live, never the arithmetic — so every
        // page size must produce bit-identical streams, at f32 and int8.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let capacity = 16;
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 606, precision);
            let contiguous = paged_stream(&model, capacity, capacity, &pool);
            for page_tokens in [1, 3, crate::kvpool::DEFAULT_PAGE_TOKENS] {
                let paged = paged_stream(&model, page_tokens, capacity, &pool);
                assert_eq!(
                    paged, contiguous,
                    "page size {page_tokens} diverged from contiguous ({precision:?})"
                );
            }
        }
    }

    #[test]
    fn batched_decode_bitwise_invariant_across_page_sizes() {
        // A batch reads every lane's KV through the page indirection
        // inside its attention phase; fixing the batch composition, page
        // size must be invisible bit-for-bit.
        let pool = ThreadPool::new(4);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = Arc::new(DecoderModel::new(cfg, 808));
        let run = |page_tokens: usize| -> Vec<Vec<Vec<f32>>> {
            let kvpool = KvPagePool::new(cfg.hidden, page_tokens);
            let (mut states, mut inputs) = ragged_sessions_in(&model, &kvpool, 3, 500, &pool);
            let mut steps = Vec::new();
            for _ in 0..3 {
                let out = model.forward_batch(lanes(&mut states, &inputs), &pool);
                inputs = out.clone();
                steps.push(out);
            }
            steps
        };
        let contiguous = run(16);
        for page_tokens in [2, 5] {
            assert_eq!(run(page_tokens), contiguous, "page size {page_tokens} diverged");
        }
    }

    #[test]
    fn snapshot_wire_roundtrip_into_another_page_size_is_bitwise() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let model = DecoderModel::new(cfg, 909);
        let mut x = vec![0.0f32; cfg.hidden];
        fill_uniform(&mut x, &mut Xorshift::new(23), -0.5, 0.5);
        // Baseline: uninterrupted decode.
        let mut base_st = model.new_state(16);
        let mut base = Vec::new();
        let mut bx = x.clone();
        for _ in 0..6 {
            bx = model.forward(&mut base_st, &bx, 1, &pool);
            base.push(bx.clone());
        }
        // Three steps, then serialize to bytes, rebuild into a *different*
        // pool (different page size — another server's geometry) and
        // decode the rest there.
        let mut st = model.new_state(16);
        let mut sx = x.clone();
        let mut got = Vec::new();
        for _ in 0..3 {
            sx = model.forward(&mut st, &sx, 1, &pool);
            got.push(sx.clone());
        }
        let bytes = st.snapshot().to_bytes();
        let snap = crate::kvpool::KvSnapshot::from_bytes(&bytes).expect("wire roundtrip");
        let other_pool = crate::kvpool::KvPagePool::new(cfg.hidden, 4);
        let mut moved = model.state_from_snapshot(&other_pool, &snap).expect("restore");
        assert_eq!(moved.capacity(), 16, "admission capacity rides the snapshot");
        assert_eq!(moved.cached_tokens(), 3);
        for _ in 3..6 {
            sx = model.forward(&mut moved, &sx, 1, &pool);
            got.push(sx.clone());
        }
        assert_eq!(got, base, "migrated continuation diverged");
    }

    /// Prefills `prompt` into a fresh state over `kvpool` the way a
    /// serving tier does: look the prompt up, adopt what is cached,
    /// forward the rest, register. Returns the state, the full output and
    /// how many tokens the cache supplied.
    fn cached_prefill(
        model: &DecoderModel,
        kvpool: &Arc<KvPagePool>,
        cache: &PrefixCache,
        prompt: &[f32],
        pool: &ThreadPool,
    ) -> (DecoderState, Vec<f32>, usize) {
        let h = model.config().hidden;
        let tokens = prompt.len() / h;
        let mut st = model.new_state_in(kvpool, 128);
        let hit = cache.lookup(prompt);
        let span = if st.adopt_prefix(&hit) { hit.tokens() } else { 0 };
        let mut y = Vec::with_capacity(prompt.len());
        hit.write_outputs(&mut y);
        y.extend(model.forward(&mut st, &prompt[span * h..], tokens - span, pool));
        st.register_prefix(cache, prompt, &hit, &y);
        (st, y, span)
    }

    #[test]
    fn a_prefix_hit_forwards_only_the_suffix_and_stays_bitwise() {
        // Prompt B shares its first `s` pages with prompt A. Prefilled
        // after A through the cache, B must produce the bits of B
        // prefilled alone — at every position, cached or computed — and
        // decode on identically, whatever the page size and precision.
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let h = cfg.hidden;
        for precision in [Precision::F32, Precision::Int8] {
            let model = DecoderModel::new_with_precision(cfg, 1111, precision);
            for pt in [4usize, 16] {
                let tokens = 3 * pt + 1; // three full pages + a partial tail
                let mut a = vec![0.0f32; h * tokens];
                fill_uniform(&mut a, &mut Xorshift::new(31), -0.5, 0.5);
                for shared in 0..=3 {
                    let kvpool = KvPagePool::new(h, pt);
                    let cache = PrefixCache::new(&kvpool, 64);
                    let (_a_state, _, a_span) = cached_prefill(&model, &kvpool, &cache, &a, &pool);
                    assert_eq!(a_span, 0, "the first prompt finds nothing");
                    let mut b = a.clone();
                    fill_uniform(&mut b[shared * pt * h..], &mut Xorshift::new(32), -0.5, 0.5);
                    let resident = kvpool.allocated_pages();
                    let (mut got_state, got, span) =
                        cached_prefill(&model, &kvpool, &cache, &b, &pool);
                    assert_eq!(span, shared * pt, "{precision:?} pt {pt}");
                    assert_eq!(got_state.shared_kv_pages(), 3 * cfg.layers, "every full page");
                    assert_eq!(
                        kvpool.allocated_pages() - resident,
                        (4 - shared) * cfg.layers,
                        "only the pages after the hit are new"
                    );
                    let mut alone = model.new_state(128);
                    let want = model.forward(&mut alone, &b, tokens, &pool);
                    assert_eq!(got, want, "{precision:?} pt {pt} shared {shared}");
                    let mut x = want[(tokens - 1) * h..].to_vec();
                    for step in 0..8 {
                        let y = model.forward(&mut got_state, &x, 1, &pool);
                        x = model.forward(&mut alone, &x, 1, &pool);
                        assert_eq!(y, x, "{precision:?} pt {pt} shared {shared} step {step}");
                    }
                    assert_eq!(kvpool.cow_splits(), 0, "whole-page adoption never splits a page");
                }
            }
        }
    }

    #[test]
    fn a_fully_cached_prompt_needs_no_forward_and_adoption_needs_an_empty_state() {
        let pool = ThreadPool::new(2);
        let cfg = DecoderConfig::scaled_for_tests();
        let h = cfg.hidden;
        let model = DecoderModel::new(cfg, 1212);
        let kvpool = KvPagePool::new(h, 4);
        let cache = PrefixCache::new(&kvpool, 64);
        let mut prompt = vec![0.0f32; h * 8]; // exactly two pages
        fill_uniform(&mut prompt, &mut Xorshift::new(41), -0.5, 0.5);
        let (mut first, want, _) = cached_prefill(&model, &kvpool, &cache, &prompt, &pool);
        let resident = kvpool.allocated_pages();
        let (mut again, got, span) = cached_prefill(&model, &kvpool, &cache, &prompt, &pool);
        assert_eq!((span, &got), (8, &want), "every position came from the cache");
        assert_eq!(kvpool.allocated_pages(), resident, "and no page was allocated");
        // Both decode on from the shared pages, each onto a page of its own.
        let x = want[7 * h..].to_vec();
        assert_eq!(
            model.forward(&mut again, &x, 1, &pool),
            model.forward(&mut first, &x, 1, &pool)
        );
        assert_eq!(kvpool.cow_splits(), 0);

        // No adoption into a state that holds context or is too small; a
        // refused hit leaves the state as it was.
        let hit = cache.lookup(&prompt);
        assert!(!again.adopt_prefix(&hit), "holds context");
        assert_eq!(again.cached_tokens(), 9);
        assert!(!model.new_state_in(&kvpool, 7).adopt_prefix(&hit), "over capacity");
        assert!(!model.new_state_in(&kvpool, 128).adopt_prefix(&PrefixHit::default()));
        // Nor registration of a state that holds more than the prompt.
        assert_eq!(again.register_prefix(&cache, &prompt, &hit, &want), 0);
    }

    /// The `plbench` models and weight seed.
    const MID: DecoderConfig =
        DecoderConfig { layers: 4, hidden: 512, heads: 8, ffn: 2048, vocab: 1024, ffn_mats: 2 };
    const SMALL: DecoderConfig =
        DecoderConfig { layers: 2, hidden: 64, heads: 4, ffn: 256, vocab: 128, ffn_mats: 2 };
    const WEIGHT_SEED: u64 = 0x0070_6c62_656e_6368;

    /// FNV-1a over every plan's packed weight bytes, in layer order.
    fn weight_fnv(model: &DecoderModel) -> u64 {
        model
            .blocks
            .iter()
            .flat_map(Block::plans)
            .fold(0xcbf2_9ce4_8422_2325, |h, p| p.fold_weight_fnv(h))
    }

    /// Pinned at the serial construction that preceded the nest: the
    /// weights are bit-identical to it, and independent of the team size.
    #[test]
    fn construction_is_pinned_and_team_size_independent() {
        let pinned = [
            (MID, Precision::F32, 0x2ecf_25d1_b77f_b099),
            (MID, Precision::Int8, 0xb8a4_de46_d655_bfe7),
            (SMALL, Precision::F32, 0xaad4_9cc0_6a0e_6688),
            (SMALL, Precision::Int8, 0x00a9_4a03_10b3_4495),
        ];
        let pools: Vec<ThreadPool> = (1..=3).map(ThreadPool::new).collect();
        for (cfg, precision, want) in pinned {
            let global = DecoderModel::new_with_precision(cfg, WEIGHT_SEED, precision);
            assert_eq!(weight_fnv(&global), want, "{cfg:?} {precision} on the global pool");
            for pool in &pools {
                let model = DecoderModel::build_on(cfg, WEIGHT_SEED, precision, pool);
                let team = pool.nthreads();
                assert_eq!(weight_fnv(&model), want, "{cfg:?} {precision} on {team} threads");
            }
        }
    }
}
