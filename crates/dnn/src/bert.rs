//! BERT encoder via the PARLOOPER/TPP paradigm (paper §IV-A).
//!
//! The paper's four modules are reproduced without dropout: Self-Attention
//! (blocked contractions + scale + softmax), SelfOutput / Output, and
//! Intermediate (contraction + bias + GELU). They are not fused yet:
//! SelfOutput and Output each run four passes over the whole
//! `hidden x tokens` matrix (the contraction, a bias add, a residual add,
//! a layernorm) where Listing 6 fuses them on block granularity.
//! Activations are `hidden x tokens` column-major f32.
//!
//! The forward body is written once, over a layer's six weight plans: the
//! dense layer's pack its flat weights, the block-sparse layer's
//! ([`crate::sparse_bert`]) hold pruned BCSC weights, and both run the one
//! GEMM nest, over a dense or a block-sparse BRGEMM tile.
//!
//! Both forward and backward are implemented (Fig. 9 measures SQuAD
//! *fine-tuning* throughput). Embedding lookup is a negligible gather next
//! to the encoder, so synthetic hidden states stand in for it.
//!
//! Forward weight contractions run through prepared plans
//! ([`crate::prepared::MatmulPlan`]): each weight is packed into its
//! blocked kernel layout when the layer is built (and re-packed once per
//! SGD update in [`BertEncoder::train_step`]); inference-only forwards
//! pack zero weight bytes per call. The backward pass keeps the flat
//! [`crate::matmul::matmul`] bridge — its contractions combine
//! per-iteration gradient/activation operands that no plan could own.

use crate::matmul::{matmul, transpose_cm, Trans};
use crate::prepared::MatmulPlan;
use pl_runtime::ThreadPool;
use pl_tensor::Xorshift;
use pl_tpp::{norm, softmax, unary};

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
    /// if `keep_tape`, the intermediates the backward pass reads.
    pub(crate) fn forward(
        &self,
        x: &[f32],
        tokens: usize,
        pool: &ThreadPool,
        keep_tape: bool,
    ) -> (Vec<f32>, Option<BertLayerTape>) {
        let BertConfig { hidden: h, heads: nh, intermediate: i, .. } = self.cfg;
        let dh = h / nh;
        debug_assert_eq!(x.len(), h * tokens);
        let bias = |j: usize, mut y: Vec<f32>| {
            let b = &self.biases[j];
            pl_tpp::binary::bias_add(b.len(), tokens, b, &mut y, b.len());
            y
        };
        let linear = |j: usize, x: &[f32]| bias(j, self.weights[j].execute(x, tokens, pool));

        // Self-attention projections over one packed copy of `x` (pack-once
        // per layer boundary), then their bias adds.
        let xp = self.weights[0].pack(x, tokens);
        let [q, k, v] = std::array::from_fn(|j| self.weights[j].execute_packed(&xp, pool));
        let (q, k, v) = (bias(0, q), bias(1, k), bias(2, v));

        // Per-head attention: scores = (K_h^T Q_h) / sqrt(dh), softmax over
        // keys (rows of scores in our col-major view), ctx = V_h probs.
        let scale = 1.0 / (dh as f32).sqrt();
        let mut probs = vec![0.0f32; nh * tokens * tokens];
        let mut ctx = vec![0.0f32; h * tokens];
        for hd in 0..nh {
            let qh = slice_head(&q, h, dh, hd, tokens);
            let kh = slice_head(&k, h, dh, hd, tokens);
            let vh = slice_head(&v, h, dh, hd, tokens);
            // scores (keys x queries), col-major: S = K_h^T Q_h.
            let mut s = matmul(&kh, Trans::Yes, &qh, Trans::No, tokens, tokens, dh, pool);
            for val in s.iter_mut() {
                *val *= scale;
            }
            let ph = &mut probs[hd * tokens * tokens..(hd + 1) * tokens * tokens];
            softmax::softmax_cols(tokens, tokens, &s, tokens, ph, tokens);
            // ctx_h = V_h P (dh x tokens).
            let ch = matmul(&vh, Trans::No, ph, Trans::No, dh, tokens, tokens, pool);
            write_head(&mut ctx, &ch, h, dh, hd, tokens);
        }

        // Bert-SelfOutput: Wo ctx + bias, residual, layernorm.
        let mut attn_res = linear(3, &ctx);
        pl_tpp::binary::add(h, tokens, &attn_res.clone(), h, x, h, &mut attn_res, h);
        let mut h1 = vec![0.0f32; h * tokens];
        let mut ln1_mean = vec![0.0f32; tokens];
        let mut ln1_rstd = vec![0.0f32; tokens];
        norm::layernorm(
            h,
            tokens,
            &attn_res,
            h,
            &self.ln1_g,
            &self.ln1_b,
            1e-5,
            &mut h1,
            h,
            &mut ln1_mean,
            &mut ln1_rstd,
        );

        // Bert-Intermediate: W1 h1 + b1, GELU.
        let inter_pre = linear(4, &h1);
        let mut inter = vec![0.0f32; i * tokens];
        unary::gelu(i, tokens, &inter_pre, i, &mut inter, i);

        // Bert-Output: W2 inter + b2, residual (h1), layernorm.
        let mut ffn_res = linear(5, &inter);
        pl_tpp::binary::add(h, tokens, &ffn_res.clone(), h, &h1, h, &mut ffn_res, h);
        let mut out = vec![0.0f32; h * tokens];
        let mut ln2_mean = vec![0.0f32; tokens];
        let mut ln2_rstd = vec![0.0f32; tokens];
        norm::layernorm(
            h,
            tokens,
            &ffn_res,
            h,
            &self.ln2_g,
            &self.ln2_b,
            1e-5,
            &mut out,
            h,
            &mut ln2_mean,
            &mut ln2_rstd,
        );

        let tape = keep_tape.then(|| BertLayerTape {
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
            ln1_mean,
            ln1_rstd,
            ln2_mean,
            ln2_rstd,
            tokens,
        });
        (out, tape)
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

    /// Forward over `x` (`hidden x tokens`, column-major). Returns the
    /// output and the tape for backward.
    pub fn forward(
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
            let (out, tape) = layer.forward(&cur, tokens, pool);
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
        let (y, t) = layer.forward(&x, tokens, &pool);
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
    fn attention_probs_are_distributions() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig::tiny();
        let layer = BertLayer::new(cfg, &mut Xorshift::new(3));
        let tokens = 8;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut x, &mut Xorshift::new(4), -1.0, 1.0);
        let (_, tape) = layer.forward(&x, tokens, &pool);
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

        let (_, tape) = layer.forward(&x, tokens, &pool);
        let (dx, _) = layer.backward(&dy, &tape, &pool);

        let loss = |xv: &[f32]| -> f32 {
            let (y, _) = layer.forward(xv, tokens, &pool);
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
        let (y0, tape) = layer.forward(&x, tokens, &pool);
        let mut dy = vec![0.0f32; cfg.hidden * tokens];
        fill_uniform(&mut dy, &mut Xorshift::new(79), -0.5, 0.5);
        let (_, grads) = layer.backward(&dy, &tape, &pool);
        layer.sgd_step(&grads, 0.5);
        let (y1, _) = layer.forward(&x, tokens, &pool);
        assert_ne!(y0, y1, "forward must see the updated weights");
    }
}
