//! Unstructured block-sparse BERT inference (paper §IV-B, Fig. 10).
//!
//! A dense layer's weights are magnitude-pruned at `block x block`
//! granularity (the paper prunes to 80 % with 8x8 blocks via knowledge
//! distillation; our synthetic stand-in keeps the largest-norm blocks, which
//! produces the same *structure* the kernels see). The six weight
//! contractions then run through the Block-SpMM PARLOOPER kernel instead of
//! dense BRGEMM.

use crate::bert::{BertConfig, BertLayer, DenseWeights};
use crate::prepared::{build_spmm_kernel, SpmmPlan};
use pl_runtime::ThreadPool;
use pl_tensor::{BcscMatrix, VnniMatrix, Xorshift};
use pl_tpp::{softmax, unary};

/// Magnitude-based block pruning: keeps the `(1 - sparsity)` fraction of
/// `block x block` blocks with the largest Frobenius norms.
fn prune_to_block_sparse(
    w: &[f32],
    rows: usize,
    cols: usize,
    block: usize,
    sparsity: f64,
) -> BcscMatrix<f32> {
    assert_eq!(rows % block, 0);
    assert_eq!(cols % block, 0);
    let (mb, kb) = (rows / block, cols / block);
    let mut norms: Vec<(f64, usize)> = Vec::with_capacity(mb * kb);
    for bi in 0..mb * kb {
        let (im, ik) = (bi / kb, bi % kb);
        let mut n = 0.0f64;
        for c in 0..block {
            for r in 0..block {
                let v = w[(ik * block + c) * rows + im * block + r] as f64;
                n += v * v;
            }
        }
        norms.push((n, bi));
    }
    norms.sort_by(|a, b| b.0.total_cmp(&a.0));
    let keep = (((1.0 - sparsity) * (mb * kb) as f64).round() as usize).min(mb * kb);
    let mut dense = vec![0.0f32; rows * cols];
    for &(_, bi) in norms.iter().take(keep) {
        let (im, ik) = (bi / kb, bi % kb);
        for c in 0..block {
            for r in 0..block {
                let idx = (ik * block + c) * rows + im * block + r;
                dense[idx] = w[idx];
            }
        }
    }
    BcscMatrix::from_dense_colmajor(&dense, rows, cols, block, block).expect("bcsc")
}

/// One sparse contraction: `y (m x t) = A_sparse (m x k) * x (k x t)` —
/// the **pack-per-call** compatibility bridge: it re-constructs the
/// kernel (`SpmmTuning::default_parallel`) every call. Layers that own
/// their sparse weight should hold a [`SpmmPlan`] instead (what
/// [`SparseBertLayer`] does); this wrapper remains for one-shot
/// contractions.
pub fn spmm_matmul(a: &BcscMatrix<f32>, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
    let (m, k) = (a.rows(), a.cols());
    let (bn, kernel) = build_spmm_kernel(m, k, a.bm(), a.bk(), tokens);
    let mut b = VnniMatrix::<f32>::new(k, tokens, bn, 1).expect("b vnni");
    b.pack_from_colmajor(x);
    let mut c = VnniMatrix::<f32>::new(m, tokens, bn, 1).expect("c vnni");
    kernel.execute(a, &b, &mut c, pool).expect("spmm exec");
    c.unpack_to_colmajor()
}

/// Block-sparse weights of one encoder layer, held as prepared
/// [`SpmmPlan`]s: the BCSC compression happens once at pruning time and
/// the constructed kernels are cached per token width, so forwards pay
/// neither weight re-compression nor kernel re-construction.
pub struct SparseBertLayer {
    cfg: BertConfig,
    sw: Vec<SpmmPlan>, // wq, wk, wv, wo, w1, w2
    biases: Vec<Vec<f32>>,
    ln1_g: Vec<f32>,
    ln1_b: Vec<f32>,
    ln2_g: Vec<f32>,
    ln2_b: Vec<f32>,
}

impl SparseBertLayer {
    /// Prunes a dense layer's weights to the target block sparsity.
    fn from_dense(dense: &DenseWeights<'_>, block: usize, sparsity: f64) -> Self {
        let cfg = *dense.cfg;
        let (h, i) = (cfg.hidden, cfg.intermediate);
        let dims = [(h, h), (h, h), (h, h), (h, h), (i, h), (h, i)];
        let sw = dense
            .weights
            .iter()
            .zip(dims)
            .map(|(w, (r, c))| SpmmPlan::new(prune_to_block_sparse(w, r, c, block, sparsity)))
            .collect();
        SparseBertLayer {
            cfg,
            sw,
            biases: dense.biases.iter().map(|b| b.to_vec()).collect(),
            ln1_g: dense.ln1_g.to_vec(),
            ln1_b: dense.ln1_b.to_vec(),
            ln2_g: dense.ln2_g.to_vec(),
            ln2_b: dense.ln2_b.to_vec(),
        }
    }

    /// Effective sparsity actually achieved across the six weights.
    pub fn sparsity(&self) -> f64 {
        self.sw.iter().map(|m| m.weight().sparsity()).sum::<f64>() / self.sw.len() as f64
    }

    /// Compressed weight footprint in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.sw.iter().map(|m| m.weight().compressed_bytes()).sum()
    }

    /// Forward (inference only; mirrors `BertLayer::forward` with sparse
    /// contractions).
    pub fn forward(&self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        let h = self.cfg.hidden;
        let nh = self.cfg.heads;
        let dh = h / nh;
        let i = self.cfg.intermediate;
        let lin = |w: &SpmmPlan, b: &[f32], x: &[f32], out_f: usize| -> Vec<f32> {
            let mut y = w.execute(x, tokens, pool);
            pl_tpp::binary::bias_add(out_f, tokens, b, &mut y, out_f);
            y
        };
        let q = lin(&self.sw[0], &self.biases[0], x, h);
        let k = lin(&self.sw[1], &self.biases[1], x, h);
        let v = lin(&self.sw[2], &self.biases[2], x, h);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = vec![0.0f32; h * tokens];
        for hd in 0..nh {
            let qh = head(&q, h, dh, hd, tokens);
            let kh = head(&k, h, dh, hd, tokens);
            let vh = head(&v, h, dh, hd, tokens);
            let mut s = crate::matmul::matmul(
                &kh,
                crate::matmul::Trans::Yes,
                &qh,
                crate::matmul::Trans::No,
                tokens,
                tokens,
                dh,
                pool,
            );
            s.iter_mut().for_each(|v| *v *= scale);
            let mut p = vec![0.0f32; tokens * tokens];
            softmax::softmax_cols(tokens, tokens, &s, tokens, &mut p, tokens);
            let ch = crate::matmul::matmul(
                &vh,
                crate::matmul::Trans::No,
                &p,
                crate::matmul::Trans::No,
                dh,
                tokens,
                tokens,
                pool,
            );
            for t in 0..tokens {
                ctx[t * h + hd * dh..t * h + (hd + 1) * dh]
                    .copy_from_slice(&ch[t * dh..(t + 1) * dh]);
            }
        }
        let mut attn = lin(&self.sw[3], &self.biases[3], &ctx, h);
        pl_tpp::binary::add(h, tokens, &attn.clone(), h, x, h, &mut attn, h);
        let mut h1 = vec![0.0f32; h * tokens];
        let (mut mean, mut rstd) = (vec![0.0; tokens], vec![0.0; tokens]);
        pl_tpp::norm::layernorm(
            h,
            tokens,
            &attn,
            h,
            &self.ln1_g,
            &self.ln1_b,
            1e-5,
            &mut h1,
            h,
            &mut mean,
            &mut rstd,
        );
        let pre = lin(&self.sw[4], &self.biases[4], &h1, i);
        let mut act = vec![0.0f32; i * tokens];
        unary::gelu(i, tokens, &pre, i, &mut act, i);
        let mut out = lin(&self.sw[5], &self.biases[5], &act, h);
        pl_tpp::binary::add(h, tokens, &out.clone(), h, &h1, h, &mut out, h);
        let mut y = vec![0.0f32; h * tokens];
        pl_tpp::norm::layernorm(
            h,
            tokens,
            &out,
            h,
            &self.ln2_g,
            &self.ln2_b,
            1e-5,
            &mut y,
            h,
            &mut mean,
            &mut rstd,
        );
        y
    }
}

/// Builds a sparse layer directly from random weights (test/bench helper).
pub fn random_sparse_layer(
    cfg: BertConfig,
    block: usize,
    sparsity: f64,
    seed: u64,
) -> (BertLayer, SparseBertLayer) {
    let dense = BertLayer::new(cfg, &mut Xorshift::new(seed));
    let sparse = SparseBertLayer::from_dense(&dense.as_weight_view(), block, sparsity);
    (dense, sparse)
}

fn head(x: &[f32], h: usize, dh: usize, hd: usize, tokens: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dh * tokens];
    for t in 0..tokens {
        out[t * dh..(t + 1) * dh].copy_from_slice(&x[t * h + hd * dh..t * h + (hd + 1) * dh]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sparsity_matches_dense_layer() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 1, seq: 8 };
        let (dense, sparse) = random_sparse_layer(cfg, 8, 0.0, 21);
        let tokens = 8;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        pl_tensor::fill_uniform(&mut x, &mut Xorshift::new(22), -0.5, 0.5);
        let (yd, _) = dense.forward(&x, tokens, &pool);
        let ys = sparse.forward(&x, tokens, &pool);
        for i in 0..yd.len() {
            assert!((yd[i] - ys[i]).abs() < 1e-3, "i={i}: {} vs {}", yd[i], ys[i]);
        }
    }

    #[test]
    fn pruning_hits_target_and_shrinks_footprint() {
        let cfg = BertConfig { hidden: 32, heads: 4, intermediate: 64, layers: 1, seq: 8 };
        let (_, sparse80) = random_sparse_layer(cfg, 8, 0.8, 5);
        let (_, sparse0) = random_sparse_layer(cfg, 8, 0.0, 5);
        assert!((sparse80.sparsity() - 0.8).abs() < 0.05, "{}", sparse80.sparsity());
        assert!(sparse80.compressed_bytes() < sparse0.compressed_bytes() / 3);
    }

    #[test]
    fn pruning_keeps_largest_blocks() {
        // A matrix with one dominant block: pruning to 75% must keep it.
        let (rows, cols, block) = (16, 16, 8);
        let mut w = vec![0.01f32; rows * cols];
        for c in 0..block {
            for r in 0..block {
                w[c * rows + r] = 10.0; // block (0, 0) dominant
            }
        }
        let s = prune_to_block_sparse(&w, rows, cols, block, 0.75);
        let dense = s.to_dense_colmajor();
        assert_eq!(dense[0], 10.0);
        assert_eq!(s.nnz_blocks(), 1);
    }

    #[test]
    fn sparse_forward_runs_at_high_sparsity() {
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 1, seq: 8 };
        let (_, sparse) = random_sparse_layer(cfg, 8, 0.9, 31);
        let x = vec![0.1f32; cfg.hidden * 8];
        let y = sparse.forward(&x, 8, &pool);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
