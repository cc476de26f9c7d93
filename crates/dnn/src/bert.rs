//! BERT encoder via the PARLOOPER/TPP paradigm (paper §IV-A).
//!
//! The paper's four modules are reproduced without dropout: Self-Attention
//! (blocked contractions + scale + softmax), SelfOutput / Output and
//! Intermediate. Activations are `hidden x tokens` column-major f32.
//!
//! A layer's forward is one parallel region (the paper's Fig. 3 pattern,
//! as the decoder's layer in [`crate::llm`]): a declared phase table that
//! the in-team runner of [`crate::prepared`] executes, every phase a
//! PARLOOPER nest, every barrier placed by the runner. Listing 6 fuses
//! SelfOutput's and Output's contraction with bias, residual and
//! layernorm; here each is a GEMM phase and the column phase behind it,
//! which adds in the order `(y + b) + x` and normalizes one token per body
//! with the decoder's per-column TPPs. Per layer:
//!
//! | phase | work | split over the team by | span |
//! |---|---|---|---|
//! | 1 | pack x | columns: `"A"` | `bert.qkv` |
//! | 2 | Q, K, V GEMMs | blocks: the plan's spec | |
//! | 3 | per head: + biases, S = K_hᵀQ_h, scale, softmax, ctx_h = V_h·P → pack | row ranges: `"A @ schedule(dynamic,1)"` | `bert.attn` |
//! | 4 | Wo GEMM | blocks: the plan's spec | |
//! | 5 | SelfOutput: + bo, + x, LN1 | columns: `"A"` | |
//! | 6 | W1 GEMM | blocks: the plan's spec | `bert.ffn` |
//! | 7 | Intermediate: + b1, GELU | columns: `"A"` | |
//! | 8 | W2 GEMM | blocks: the plan's spec | |
//! | 9 | Output: + b2, + h1, LN2 | columns: `"A"` | |
//!
//! A head owns its rows of Q, K, V and the context, and each of its two
//! products is one BRGEMM call on the head's slices in the member's
//! scratch: every element one ascending-k chain of fused multiply-adds, as
//! the GEMM nest computes it. The dense layer's plans pack its flat
//! weights and the block-sparse layer's ([`crate::sparse_bert`]) hold
//! pruned BCSC weights; the one table runs both.
//!
//! Both forward and backward are implemented (Fig. 9 measures SQuAD
//! *fine-tuning* throughput). Embedding lookup is a negligible gather next
//! to the encoder, so synthetic hidden states stand in for it. Each weight
//! is packed into its plan when the layer is built (and re-packed once per
//! SGD update in [`BertEncoder::train_step`]), so forwards pack zero weight
//! bytes. The backward pass keeps the flat [`crate::matmul::matmul`]
//! bridge — its contractions combine per-iteration gradient/activation
//! operands that no plan could own.

use crate::matmul::{matmul, transpose_cm, Trans};
use crate::prepared::{Act, MatmulPlan, Phase, Region, Token, Work};
use pl_runtime::ThreadPool;
use pl_tensor::Xorshift;
use pl_tpp::brgemm::{Brgemm, BrgemmDesc};
use pl_tpp::{binary, norm, softmax, unary};
use std::sync::Mutex;

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BertConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Attention heads (must divide hidden).
    pub heads: usize,
    /// Intermediate (FFN) width.
    pub intermediate: usize,
    /// Encoder layers.
    pub layers: usize,
    /// Maximum sequence length.
    pub seq: usize,
}

impl BertConfig {
    /// `(rows, cols)` of `wq, wk, wv, wo, w1, w2`.
    fn weight_dims(&self) -> [(usize, usize); 6] {
        let (h, i) = (self.hidden, self.intermediate);
        [(h, h), (h, h), (h, h), (h, h), (i, h), (h, i)]
    }

    /// A scaled-down config with the same architecture, for host tests.
    #[cfg(test)]
    fn tiny() -> Self {
        BertConfig { hidden: 32, heads: 4, intermediate: 64, layers: 2, seq: 16 }
    }
}

/// One encoder layer's forward body and what it reads: the six weight
/// plans (`wq, wk, wv, wo, w1, w2`), their biases and the two LayerNorms'
/// parameters.
#[derive(Debug, Clone)]
pub(crate) struct EncoderBody {
    cfg: BertConfig,
    weights: [MatmulPlan; 6],
    /// bq, bk, bv, bo, b1, b2.
    biases: [Vec<f32>; 6],
    ln1_g: Vec<f32>,
    ln1_b: Vec<f32>,
    ln2_g: Vec<f32>,
    ln2_b: Vec<f32>,
}

impl EncoderBody {
    /// The weight plans.
    pub(crate) fn weights(&self) -> &[MatmulPlan; 6] {
        &self.weights
    }

    /// Forward over `x` (`hidden x tokens`, column-major): the output and,
    /// if `keep_tape`, the intermediates the backward pass reads. One
    /// parallel region runs [`Layer::PHASES`].
    pub(crate) fn forward(
        &self,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
        keep_tape: bool,
    ) -> (Vec<f32>, Option<BertLayerTape>) {
        let BertConfig { hidden: h, heads: nh, intermediate: i, .. } = self.cfg;
        let (dh, n) = (h / nh, tokens);
        assert_eq!(x.len(), h * n, "input must be `hidden x tokens` values");
        // The matrices `XB` .. `DN`: plan `p`'s input (0) or output (1).
        let io = [(0, 0), (0, 1), (1, 1), (2, 1), (3, 0), (3, 1), (4, 1), (5, 0), (5, 1)];
        let w = &self.weights;
        let mut acts = io.map(|(p, out)| if out == 0 { w[p].input(n) } else { w[p].output(n) });
        let (mut out, mut stats) = (x.to_vec(), vec![0.0f32; 4 * n]);
        let mut probs = vec![0.0f32; nh * n * n];
        {
            let heads: Vec<_> = (0..nh).map(|hd| hd * dh..(hd + 1) * dh).collect();
            let layer = Layer {
                body: self,
                probs: probs.chunks_exact_mut(n * n).map(Mutex::new).collect(),
            };
            let scratch = (2 * h.max(i)).max(4 * dh * n + n * n);
            let region = Region::new(vec![&mut out, &mut stats], &mut acts, &[], &heads);
            region.run(pool, &layer, &Layer::PHASES, &[self.weights.each_ref()], scratch);
        }
        let tape = keep_tape.then(|| {
            let [h1, q, k, v, ctx, attn_res, inter_pre, inter, ffn_res] =
                acts.map(|m| m.into_colmajor());
            let stat = |row: usize| stats.iter().skip(row).step_by(4).copied().collect();
            BertLayerTape {
                x: x.to_vec(),
                q,
                k,
                v,
                probs,
                ctx,
                attn_res,
                h1,
                inter_pre,
                inter,
                ffn_res,
                ln1_mean: stat(0),
                ln1_rstd: stat(1),
                ln2_mean: stat(2),
                ln2_rstd: stat(3),
                tokens,
            }
        });
        (out, tape)
    }
}

// The matrices of an encoder layer's region: the `k = hidden` input of
// Q/K/V, then of W1 (x, then h1); the Q, K and V outputs; Wo's input (the
// context); Wo's output (then attn_res); W1's output (then inter_pre); W2's
// input (inter); W2's output (then ffn_res).
const XB: Act = Act(0);
const Q: Act = Act(1);
const K: Act = Act(2);
const V: Act = Act(3);
const CTX: Act = Act(4);
const AO: Act = Act(5);
const UP: Act = Act(6);
const IB: Act = Act(7);
const DN: Act = Act(8);
/// The region's second stream: per token, LN1's mean and rstd, then LN2's.
const STATS: usize = 1;

/// What the phase bodies of one encoder layer's region share: the layer
/// and each head's probabilities.
struct Layer<'a> {
    body: &'a EncoderBody,
    /// Head `h`'s `tokens x tokens` probabilities. Uncontended — the
    /// attention phase hands each head to exactly one member — it only
    /// launders the `&mut` across the team.
    probs: Vec<Mutex<&'a mut [f32]>>,
}

impl Layer<'_> {
    /// One encoder layer: the module docs' phase table, row for row.
    const PHASES: [Phase<Self>; 9] = [
        Phase { what: "pack x", span: Some("bert.qkv"), work: Work::Columns(Self::pack_x) },
        Phase {
            what: "Q, K, V GEMMs",
            span: None,
            work: Work::Gemms(&[(0, XB, Q), (1, XB, K), (2, XB, V)]),
        },
        Phase {
            what: "per head: + biases, S = K_hᵀQ_h, scale, softmax, ctx_h = V_h·P → pack",
            span: Some("bert.attn"),
            work: Work::Rows(Self::attend),
        },
        Phase { what: "Wo GEMM", span: None, work: Work::Gemms(&[(3, CTX, AO)]) },
        Phase {
            what: "SelfOutput: + bo, + x, LN1",
            span: None,
            work: Work::Columns(Self::ln::<1>),
        },
        Phase { what: "W1 GEMM", span: Some("bert.ffn"), work: Work::Gemms(&[(4, XB, UP)]) },
        Phase { what: "Intermediate: + b1, GELU", span: None, work: Work::Columns(Self::gelu) },
        Phase { what: "W2 GEMM", span: None, work: Work::Gemms(&[(5, IB, DN)]) },
        Phase { what: "Output: + b2, + h1, LN2", span: None, work: Work::Columns(Self::ln::<2>) },
    ];

    fn pack_x(&self, c: &mut Token<'_>, s: &mut [f32]) {
        let (j, x) = (c.index, &mut s[..self.body.cfg.hidden]);
        x.copy_from_slice(c.x(j));
        c.write(XB, j, x);
    }

    /// One head's attention over every token, in the member's scratch.
    fn attend(&self, c: &mut Token<'_>, s: &mut [f32]) {
        let BertConfig { hidden: h, heads: nh, .. } = self.body.cfg;
        let (hd, dh, t) = (c.index, h / nh, c.cols().len());
        let (slices, scores) = s.split_at_mut(4 * dh * t);
        let mut slices = slices.chunks_exact_mut(dh * t);
        let [qh, kh, kt, vh] = std::array::from_fn(|_| slices.next().expect("four slices"));
        // The head's biased slices, column-major; the biased Q, K and V
        // also go back in place, for the tape.
        for (m, slice, b) in [(Q, &mut *qh, 0), (K, &mut *kh, 1), (V, &mut *vh, 2)] {
            for (j, col) in slice.chunks_exact_mut(dh).enumerate() {
                c.read(m, j, col);
                binary::bias_add(dh, 1, &self.body.biases[b][hd * dh..], col, dh);
                c.write(m, j, col);
            }
        }
        // Scores (keys x queries) S = K_hᵀ Q_h: one call with K = dh into a
        // zeroed S.
        let scores = &mut scores[..t * t];
        let gemm = |m, n, k| Brgemm::<f32, f32, f32>::new(BrgemmDesc::blocked(m, n, k));
        pl_tpp::transform::transpose(dh, t, kh, dh, kt, t);
        scores.fill(0.0);
        gemm(t, t, dh).execute_stride(kt, 0, qh, 0, scores, 1);
        let scale = 1.0 / (dh as f32).sqrt();
        scores.iter_mut().for_each(|v| *v *= scale);
        let mut p = self.probs[hd].lock().expect("head claimed by a panicked member");
        softmax::softmax_cols(t, t, scores, t, &mut p, t);
        // ctx_h = V_h P (dh x tokens): one call with K = tokens, into Q_h's
        // zeroed scratch.
        qh.fill(0.0);
        gemm(dh, t, t).execute_stride(vh, 0, &p, 0, qh, 1);
        for (j, col) in qh.chunks_exact(dh).enumerate() {
            c.write(CTX, j, col);
        }
    }

    /// LayerNorm `L`'s column phase: column `j` of Wo's (W2's) output
    /// becomes `(y + bias) + x` — kept for the tape — and the residual
    /// stream's column its layernorm, with the mean and rstd in the stats
    /// stream. LN1's output also feeds W1.
    fn ln<const L: usize>(&self, c: &mut Token<'_>, s: &mut [f32]) {
        let (body, j, h) = (self.body, c.index, self.body.cfg.hidden);
        let (m, bias, g, b) = match L {
            1 => (AO, 3, &body.ln1_g, &body.ln1_b),
            _ => (DN, 5, &body.ln2_g, &body.ln2_b),
        };
        let (y, res) = s[..2 * h].split_at_mut(h);
        c.read(m, j, y);
        binary::bias_add(h, 1, &body.biases[bias], y, h);
        binary::add(h, 1, y, h, c.x(j), h, res, h);
        c.write(m, j, res);
        let (mut mean, mut rstd) = ([0.0f32], [0.0f32]);
        norm::layernorm(h, 1, res, h, g, b, 1e-5, y, h, &mut mean, &mut rstd);
        c.x(j).copy_from_slice(y);
        c.stream(STATS, j)[2 * L - 2..2 * L].copy_from_slice(&[mean[0], rstd[0]]);
        if L == 1 {
            c.write(XB, j, y);
        }
    }

    fn gelu(&self, c: &mut Token<'_>, s: &mut [f32]) {
        let (j, i) = (c.index, self.body.cfg.intermediate);
        let (pre, act) = s[..2 * i].split_at_mut(i);
        c.read(UP, j, pre);
        binary::bias_add(i, 1, &self.body.biases[4], pre, i);
        c.write(UP, j, pre);
        unary::gelu(i, 1, pre, i, act, i);
        c.write(IB, j, act);
    }
}

/// One dense encoder layer.
///
/// The flat column-major weights remain the source of truth (the backward
/// pass, SGD updates and pruning read them); the **forward** contractions
/// run through prepared plans, one [`MatmulPlan`] per weight, rebuilt once
/// per SGD update (`sgd_step`) — pack-once per *update*, amortized over
/// every forward in between, instead of pack-per-projection-call.
#[derive(Debug, Clone)]
pub struct BertLayer {
    /// wq, wk, wv, wo, w1, w2 (column-major).
    w: [Vec<f32>; 6],
    body: EncoderBody,
}

/// Forward-pass intermediates needed by the backward pass.
pub struct BertLayerTape {
    x: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    probs: Vec<f32>,
    ctx: Vec<f32>,
    attn_res: Vec<f32>,
    h1: Vec<f32>, // post-LN1
    inter_pre: Vec<f32>,
    inter: Vec<f32>,
    ffn_res: Vec<f32>,
    ln1_mean: Vec<f32>,
    ln1_rstd: Vec<f32>,
    ln2_mean: Vec<f32>,
    ln2_rstd: Vec<f32>,
    tokens: usize,
}

/// Parameter gradients of one layer.
#[derive(Debug, Clone)]
pub struct BertLayerGrads {
    /// d/d(wq, wk, wv, wo, w1, w2) flattened in that order.
    pub weights: Vec<Vec<f32>>,
    /// d/d(bq, bk, bv, bo, b1, b2).
    pub biases: Vec<Vec<f32>>,
}

impl BertLayer {
    /// Random initialization.
    pub fn new(cfg: BertConfig, rng: &mut Xorshift) -> Self {
        let dims = cfg.weight_dims();
        let w = dims.map(|(rows, cols)| {
            let std = (2.0 / (rows + cols) as f32).sqrt();
            let mut v = vec![0.0f32; rows * cols];
            pl_tensor::fill_normal(&mut v, rng, 0.0, std);
            v
        });
        let h = cfg.hidden;
        let body = EncoderBody {
            cfg,
            weights: Self::build_plans(cfg, &w),
            biases: dims.map(|(rows, _)| vec![0.0; rows]),
            ln1_g: vec![1.0; h],
            ln1_b: vec![0.0; h],
            ln2_g: vec![1.0; h],
            ln2_b: vec![0.0; h],
        };
        BertLayer { w, body }
    }

    /// The config.
    pub fn config(&self) -> &BertConfig {
        &self.body.cfg
    }

    /// Builds the six forward plans from flat weights (`wq..w2` order).
    fn build_plans(cfg: BertConfig, w: &[Vec<f32>; 6]) -> [MatmulPlan; 6] {
        let dims = cfg.weight_dims();
        std::array::from_fn(|j| MatmulPlan::new(&w[j], Trans::No, dims[j].0, dims[j].1))
    }

    /// This layer's parameters over other weight plans: `f` maps each flat
    /// weight and its `(rows, cols)` (pruning builds the block-sparse layer
    /// this way).
    pub(crate) fn map_weights(
        &self,
        mut f: impl FnMut(&[f32], usize, usize) -> MatmulPlan,
    ) -> EncoderBody {
        let dims = self.body.cfg.weight_dims();
        let b = &self.body;
        EncoderBody {
            cfg: b.cfg,
            weights: std::array::from_fn(|j| f(&self.w[j], dims[j].0, dims[j].1)),
            biases: b.biases.clone(),
            ln1_g: b.ln1_g.clone(),
            ln1_b: b.ln1_b.clone(),
            ln2_g: b.ln2_g.clone(),
            ln2_b: b.ln2_b.clone(),
        }
    }

    /// Inference forward over `x` (`hidden x tokens`, column-major): the
    /// output only, no tape.
    pub fn forward(&self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        self.body.forward(x, tokens, pool, false).0
    }

    /// Training forward: the same output as [`BertLayer::forward`] and
    /// the tape [`BertLayer::backward`] reads.
    fn forward_train(
        &self,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
    ) -> (Vec<f32>, BertLayerTape) {
        let (out, tape) = self.body.forward(x, tokens, pool, true);
        (out, tape.expect("the tape was asked for"))
    }

    /// Backward: upstream `dy` -> input gradient + parameter gradients.
    pub fn backward(
        &self,
        dy: &[f32],
        tape: &BertLayerTape,
        pool: &ThreadPool,
    ) -> (Vec<f32>, BertLayerGrads) {
        let BertConfig { hidden: h, heads: nh, intermediate: i, .. } = self.body.cfg;
        let dh = h / nh;
        let t = tape.tokens;
        let [wq, wk, wv, wo, w1, w2] = &self.w;
        let (ln1_g, ln2_g) = (&self.body.ln1_g, &self.body.ln2_g);

        // LN2 backward.
        let mut d_ffn_res = vec![0.0f32; h * t];
        let mut d_ln2_g = vec![0.0f32; h];
        let mut d_ln2_b = vec![0.0f32; h];
        norm::layernorm_backward(
            h,
            t,
            &tape.ffn_res,
            h,
            dy,
            h,
            ln2_g,
            &tape.ln2_mean,
            &tape.ln2_rstd,
            &mut d_ffn_res,
            h,
            &mut d_ln2_g,
            &mut d_ln2_b,
        );
        // Residual split: d_h1 += d_ffn_res; W2 branch gets d_ffn_res.
        // W2 backward: y2 = W2 inter + b2.
        let d_w2 = matmul(
            &d_ffn_res,
            Trans::No,
            &transpose_cm(&tape.inter, i, t),
            Trans::No,
            h,
            i,
            t,
            pool,
        );
        let d_b2 = row_sum(&d_ffn_res, h, t);
        let mut d_inter = matmul(w2, Trans::Yes, &d_ffn_res, Trans::No, i, t, h, pool);
        // GELU backward.
        let d_inter_c = d_inter.clone();
        unary::gelu_backward(i, t, &tape.inter_pre, i, &d_inter_c, i, &mut d_inter, i);
        // W1 backward.
        let d_w1 =
            matmul(&d_inter, Trans::No, &transpose_cm(&tape.h1, h, t), Trans::No, i, h, t, pool);
        let d_b1 = row_sum(&d_inter, i, t);
        let mut d_h1 = matmul(w1, Trans::Yes, &d_inter, Trans::No, h, t, i, pool);
        // Residual from LN2 input.
        for (a, b) in d_h1.iter_mut().zip(&d_ffn_res) {
            *a += *b;
        }

        // LN1 backward.
        let mut d_attn_res = vec![0.0f32; h * t];
        let mut d_ln1_g = vec![0.0f32; h];
        let mut d_ln1_b = vec![0.0f32; h];
        norm::layernorm_backward(
            h,
            t,
            &tape.attn_res,
            h,
            &d_h1,
            h,
            ln1_g,
            &tape.ln1_mean,
            &tape.ln1_rstd,
            &mut d_attn_res,
            h,
            &mut d_ln1_g,
            &mut d_ln1_b,
        );
        // Residual: dx accumulates d_attn_res directly.
        let mut dx = d_attn_res.clone();
        // Wo backward.
        let d_wo = matmul(
            &d_attn_res,
            Trans::No,
            &transpose_cm(&tape.ctx, h, t),
            Trans::No,
            h,
            h,
            t,
            pool,
        );
        let d_bo = row_sum(&d_attn_res, h, t);
        let d_ctx = matmul(wo, Trans::Yes, &d_attn_res, Trans::No, h, t, h, pool);

        // Attention backward per head.
        let scale = 1.0 / (dh as f32).sqrt();
        let mut dq = vec![0.0f32; h * t];
        let mut dk = vec![0.0f32; h * t];
        let mut dv = vec![0.0f32; h * t];
        for hd in 0..nh {
            let ph = &tape.probs[hd * t * t..(hd + 1) * t * t];
            let d_ch = slice_head(&d_ctx, h, dh, hd, t);
            let vh = slice_head(&tape.v, h, dh, hd, t);
            let qh = slice_head(&tape.q, h, dh, hd, t);
            let kh = slice_head(&tape.k, h, dh, hd, t);
            // ctx = V P: dV = d_ctx P^T, dP = V^T d_ctx.
            let d_vh = matmul(&d_ch, Trans::No, &transpose_cm(ph, t, t), Trans::No, dh, t, t, pool);
            let d_p = matmul(&vh, Trans::Yes, &d_ch, Trans::No, t, t, dh, pool);
            // softmax backward per column.
            let mut d_s = vec![0.0f32; t * t];
            softmax::softmax_cols_backward(t, t, ph, t, &d_p, t, &mut d_s, t);
            for val in d_s.iter_mut() {
                *val *= scale;
            }
            // S = K^T Q: dK = Q dS^T, dQ = K dS.
            let d_kh = matmul(&qh, Trans::No, &transpose_cm(&d_s, t, t), Trans::No, dh, t, t, pool);
            let d_qh = matmul(&kh, Trans::No, &d_s, Trans::No, dh, t, t, pool);
            write_head(&mut dv, &d_vh, h, dh, hd, t);
            write_head(&mut dk, &d_kh, h, dh, hd, t);
            write_head(&mut dq, &d_qh, h, dh, hd, t);
        }

        // Projection backwards; all three consume x.
        let xt = transpose_cm(&tape.x, h, t);
        let d_wq = matmul(&dq, Trans::No, &xt, Trans::No, h, h, t, pool);
        let d_wk = matmul(&dk, Trans::No, &xt, Trans::No, h, h, t, pool);
        let d_wv = matmul(&dv, Trans::No, &xt, Trans::No, h, h, t, pool);
        let d_bq = row_sum(&dq, h, t);
        let d_bk = row_sum(&dk, h, t);
        let d_bv = row_sum(&dv, h, t);
        for (w, g) in [(wq, &dq), (wk, &dk), (wv, &dv)] {
            let dxp = matmul(w, Trans::Yes, g, Trans::No, h, t, h, pool);
            for (a, b) in dx.iter_mut().zip(&dxp) {
                *a += *b;
            }
        }

        let grads = BertLayerGrads {
            weights: vec![d_wq, d_wk, d_wv, d_wo, d_w1, d_w2],
            biases: vec![d_bq, d_bk, d_bv, d_bo, d_b1, d_b2],
        };
        let _ = (d_ln1_g, d_ln1_b, d_ln2_g, d_ln2_b); // LN params trained too; folded into biases bucket in the SGD demo
        (dx, grads)
    }

    /// SGD update from gradients. Re-packs the forward plans afterwards —
    /// the prepared-op layout cost is paid once per parameter update, not
    /// once per forward contraction.
    fn sgd_step(&mut self, grads: &BertLayerGrads, lr: f32) {
        for (w, g) in self.w.iter_mut().zip(&grads.weights) {
            for (a, b) in w.iter_mut().zip(g) {
                *a -= lr * b;
            }
        }
        for (b, g) in self.body.biases.iter_mut().zip(&grads.biases) {
            for (a, d) in b.iter_mut().zip(g) {
                *a -= lr * d;
            }
        }
        self.body.weights = Self::build_plans(self.body.cfg, &self.w);
    }
}

/// A whole encoder (stack of layers).
pub struct BertEncoder {
    /// The layers.
    pub layers: Vec<BertLayer>,
    cfg: BertConfig,
}

impl BertEncoder {
    /// Random-initialized encoder.
    pub fn new(cfg: BertConfig, seed: u64) -> Self {
        let mut rng = Xorshift::new(seed);
        BertEncoder {
            layers: (0..cfg.layers).map(|_| BertLayer::new(cfg, &mut rng)).collect(),
            cfg,
        }
    }

    /// Config accessor.
    pub fn config(&self) -> &BertConfig {
        &self.cfg
    }

    /// Full forward; returns output + tapes.
    pub fn forward(
        &self,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
    ) -> (Vec<f32>, Vec<BertLayerTape>) {
        let mut cur = x.to_vec();
        let mut tapes = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (out, tape) = layer.forward_train(&cur, tokens, pool);
            cur = out;
            tapes.push(tape);
        }
        (cur, tapes)
    }

    /// One fine-tuning step against a target (MSE loss); returns the loss.
    pub fn train_step(
        &mut self,
        x: &[f32],
        target: &[f32],
        tokens: usize,
        lr: f32,
        pool: &ThreadPool,
    ) -> f32 {
        let (out, tapes) = self.forward(x, tokens, pool);
        let n = out.len() as f32;
        let mut dy: Vec<f32> = out.iter().zip(target).map(|(o, t)| 2.0 * (o - t) / n).collect();
        let loss = out.iter().zip(target).map(|(o, t)| (o - t) * (o - t)).sum::<f32>() / n;
        for (layer, tape) in self.layers.iter_mut().zip(tapes.iter()).rev() {
            let (dx, grads) = layer.backward(&dy, tape, pool);
            layer.sgd_step(&grads, lr);
            dy = dx;
        }
        loss
    }
}

fn slice_head(x: &[f32], h: usize, dh: usize, head: usize, tokens: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dh * tokens];
    for t in 0..tokens {
        out[t * dh..(t + 1) * dh].copy_from_slice(&x[t * h + head * dh..t * h + (head + 1) * dh]);
    }
    out
}

fn write_head(x: &mut [f32], hslice: &[f32], h: usize, dh: usize, head: usize, tokens: usize) {
    for t in 0..tokens {
        x[t * h + head * dh..t * h + (head + 1) * dh]
            .copy_from_slice(&hslice[t * dh..(t + 1) * dh]);
    }
}

fn row_sum(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; rows];
    pl_tpp::reduce::row_sum(rows, cols, x, rows, &mut out);
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pl_tensor::fill_uniform;

    #[test]
    fn forward_shapes_and_normalization() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig::tiny();
        let enc = BertEncoder::new(cfg, 1);
        let tokens = cfg.seq;
        let mut rng = Xorshift::new(2);
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut rng, -1.0, 1.0);
        let (y, tapes) = enc.forward(&x, tokens, &pool);
        assert_eq!(y.len(), cfg.hidden * tokens);
        assert_eq!(tapes.len(), cfg.layers);
        // Output is layernormed: per-token mean ~0, var ~1.
        for t in 0..tokens {
            let col = &y[t * cfg.hidden..(t + 1) * cfg.hidden];
            let mu: f32 = col.iter().sum::<f32>() / cfg.hidden as f32;
            assert!(mu.abs() < 1e-4, "token {t} mean {mu}");
        }
    }

    /// FNV-1a over the bit patterns of `parts`, in order.
    pub(crate) fn fnv(parts: &[&[f32]]) -> u64 {
        parts
            .iter()
            .flat_map(|p| p.iter())
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn forward_output_and_tape_bits_are_pinned() {
        // Recorded while the dense layer still had its own forward body,
        // before it shared one with the block-sparse layer.
        let pool = ThreadPool::new(2);
        let cfg = BertConfig::tiny();
        let layer = BertLayer::new(cfg, &mut Xorshift::new(41));
        let tokens = 12;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(42), -1.0, 1.0);
        let (y, t) = layer.forward_train(&x, tokens, &pool);
        let tape: [&[f32]; 15] = [
            &t.x,
            &t.q,
            &t.k,
            &t.v,
            &t.probs,
            &t.ctx,
            &t.attn_res,
            &t.h1,
            &t.inter_pre,
            &t.inter,
            &t.ffn_res,
            &t.ln1_mean,
            &t.ln1_rstd,
            &t.ln2_mean,
            &t.ln2_rstd,
        ];
        assert_eq!(t.tokens, tokens);
        assert_eq!(fnv(&[&y]), 0x3a50_7a1d_7eeb_cd9c, "output {:#018x}", fnv(&[&y]));
        assert_eq!(fnv(&tape), 0xd109_af3a_7b7d_5b98, "tape {:#018x}", fnv(&tape));
    }

    #[test]
    fn the_phase_table_is_the_declared_schedule() {
        // The module docs' table is `Layer::PHASES`, row for row, and the
        // runner's barrier rule separates its 9 phases with 8 barriers.
        let layer = Layer::PHASES;
        crate::prepared::tests::assert_table_is_schedule(include_str!("bert.rs"), &layer);
        let barriers = layer.windows(2).filter(|w| w[0].work.barrier_before(&w[1].work));
        assert_eq!(barriers.count(), 8);
    }

    /// Parallel regions this thread opened since `since_ns`, counted from
    /// the trace: the `pool.region` spans on the lane `marker` lands on.
    fn regions_on_this_thread(since_ns: u64, marker: u64) -> usize {
        pl_trace::instant("test.lane_marker", [marker, 0, 0]);
        let events = pl_trace::snapshot_since(since_ns);
        let lane = events
            .iter()
            .find(|e| e.name == "test.lane_marker" && e.args[0] == marker)
            .expect("marker recorded")
            .lane;
        let begins = events.iter().filter(|e| {
            e.lane == lane && e.name == "pool.region" && e.kind == pl_trace::EventKind::Begin
        });
        begins.count()
    }

    #[test]
    fn a_layer_forward_is_one_parallel_region() {
        // Dense and block-sparse, whatever the head count:
        // the whole layer runs in one region, the attention heads included.
        pl_trace::enable();
        let pool = ThreadPool::new(2);
        for (heads, marker) in [(2usize, 0xB2u64), (5, 0xB5)] {
            let hidden = 8 * heads;
            let cfg = BertConfig { hidden, heads, intermediate: 2 * hidden, layers: 1, seq: 8 };
            let (dense, sparse) = crate::sparse_bert::random_sparse_layer(cfg, 8, 0.5, 61);
            let mut x = vec![0.0f32; hidden * 6];
            fill_uniform(&mut x, &mut Xorshift::new(62), -1.0, 1.0);
            let t0 = pl_trace::now_ns();
            let _ = dense.forward(&x, 6, &pool);
            assert_eq!(regions_on_this_thread(t0, marker), 1, "dense, {heads} heads");
            let t1 = pl_trace::now_ns();
            let _ = sparse.forward(&x, 6, &pool);
            assert_eq!(regions_on_this_thread(t1, marker + 0x100), 1, "sparse, {heads} heads");
        }
    }

    #[test]
    fn inference_and_training_forwards_give_the_same_bits() {
        // The tape is a copy-out after the region; keeping it changes no
        // arithmetic, whatever the head count.
        let pool = ThreadPool::new(2);
        for heads in [2usize, 5] {
            let hidden = 8 * heads;
            let cfg = BertConfig { hidden, heads, intermediate: 2 * hidden, layers: 1, seq: 8 };
            let layer = BertLayer::new(cfg, &mut Xorshift::new(91));
            let mut x = vec![0.0f32; hidden * 7];
            fill_uniform(&mut x, &mut Xorshift::new(92), -1.0, 1.0);
            let (taped, _) = layer.forward_train(&x, 7, &pool);
            let y = layer.forward(&x, 7, &pool);
            assert_eq!(fnv(&[&y]), fnv(&[&taped]), "{heads} heads");
        }
    }

    #[test]
    fn attention_probs_are_distributions() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig::tiny();
        let layer = BertLayer::new(cfg, &mut Xorshift::new(3));
        let tokens = 8;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(4), -1.0, 1.0);
        let (_, tape) = layer.forward_train(&x, tokens, &pool);
        for hd in 0..cfg.heads {
            for col in 0..tokens {
                let p = &tape.probs[hd * tokens * tokens + col * tokens..][..tokens];
                let s: f32 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-5, "head {hd} col {col}: {s}");
                assert!(p.iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn backward_input_gradient_matches_finite_difference() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 8, heads: 2, intermediate: 16, layers: 1, seq: 4 };
        let layer = BertLayer::new(cfg, &mut Xorshift::new(5));
        let tokens = 4;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(6), -0.5, 0.5);
        let mut dy = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut dy, &mut Xorshift::new(7), -0.5, 0.5);

        let (_, tape) = layer.forward_train(&x, tokens, &pool);
        let (dx, _) = layer.backward(&dy, &tape, &pool);

        let loss = |xv: &[f32]| -> f32 {
            let y = layer.forward(xv, tokens, &pool);
            y.iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let h = 2e-2;
        for &idx in &[0usize, 5, 13, 31] {
            let mut xp = x.clone();
            xp[idx] += h;
            let mut xm = x.clone();
            xm[idx] -= h;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!(
                (dx[idx] - fd).abs() < 0.05 * (1.0 + fd.abs()),
                "idx {idx}: {} vs {}",
                dx[idx],
                fd
            );
        }
    }

    #[test]
    fn training_reduces_loss() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 2, seq: 8 };
        let mut enc = BertEncoder::new(cfg, 11);
        let tokens = 8;
        let mut rng = Xorshift::new(12);
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        let mut target = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        fill_uniform(&mut target, &mut rng, -0.5, 0.5);
        let first = enc.train_step(&x, &target, tokens, 0.05, &pool);
        let mut last = first;
        for _ in 0..10 {
            last = enc.train_step(&x, &target, tokens, 0.05, &pool);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn sgd_step_refreshes_forward_plans() {
        // The forward path runs through prepared plans; an SGD update must
        // re-pack them, or inference after fine-tuning would use stale
        // weights.
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 1, seq: 8 };
        let mut layer = BertLayer::new(cfg, &mut Xorshift::new(77));
        let tokens = 4;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(78), -0.5, 0.5);
        let (y0, tape) = layer.forward_train(&x, tokens, &pool);
        let mut dy = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut dy, &mut Xorshift::new(79), -0.5, 0.5);
        let (_, grads) = layer.backward(&dy, &tape, &pool);
        layer.sgd_step(&grads, 0.5);
        let y1 = layer.forward(&x, tokens, &pool);
        assert_ne!(y0, y1, "forward must see the updated weights");
    }
}
