//! Unstructured block-sparse BERT inference (paper §IV-B, Fig. 10).
//!
//! A dense layer's weights are magnitude-pruned at `block x block`
//! granularity (the paper prunes to 80 % with 8x8 blocks via knowledge
//! distillation; our synthetic stand-in keeps the largest-norm blocks, which
//! produces the same *structure* the kernels see). The layer then runs the
//! dense layer's one forward body ([`crate::bert`]) over six block-sparse
//! plans ([`MatmulPlan::block_sparse`]): the same GEMM nest, its BRGEMM
//! tile reading the BCSC weight (Block-SpMM, Listing 5) — the TPP contract
//! lets the computational core change under unchanged loops.

use crate::bert::{BertConfig, BertLayer, EncoderBody};
use crate::prepared::MatmulPlan;
use pl_runtime::ThreadPool;
use pl_tensor::{BcscMatrix, Xorshift};

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

/// Block-sparse weights of one encoder layer, held as prepared plans: the
/// BCSC compression happens once at pruning time and the constructed
/// kernels are cached per token width, so forwards pay neither weight
/// re-compression nor kernel re-construction.
pub struct SparseBertLayer {
    body: EncoderBody,
    /// The mean block sparsity of the six weights.
    sparsity: f64,
}

impl SparseBertLayer {
    /// Prunes a dense layer's weights to the target block sparsity; the
    /// biases and LayerNorm parameters carry over unchanged.
    fn from_dense(dense: &BertLayer, block: usize, sparsity: f64) -> Self {
        let mut achieved = 0.0;
        let body = dense.map_weights(|w, rows, cols| {
            let pruned = prune_to_block_sparse(w, rows, cols, block, sparsity);
            achieved += pruned.sparsity();
            MatmulPlan::block_sparse(pruned)
        });
        SparseBertLayer { body, sparsity: achieved / 6.0 }
    }

    /// Effective sparsity actually achieved across the six weights.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// Compressed weight footprint in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.body.weights().iter().map(MatmulPlan::weight_stream_bytes).sum()
    }

    /// Forward (inference only): the dense layer's body over the sparse
    /// plans.
    pub fn forward(&self, x: &[f32], tokens: usize, pool: &ThreadPool) -> Vec<f32> {
        self.body.forward(x, tokens, pool, false).0
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
    let sparse = SparseBertLayer::from_dense(&dense, block, sparsity);
    (dense, sparse)
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
    fn sparse_forward_bits_are_pinned() {
        // Recorded while the block-sparse layer still had its own copy of
        // the dense layer's forward body.
        let pool = ThreadPool::new(2);
        let cfg = BertConfig { hidden: 32, heads: 4, intermediate: 64, layers: 1, seq: 16 };
        let (_, sparse) = random_sparse_layer(cfg, 8, 0.8, 43);
        let tokens = 12;
        let mut x = vec![0.0f32; cfg.hidden * tokens];
        pl_tensor::fill_uniform(&mut x, &mut Xorshift::new(44), -1.0, 1.0);
        let y = sparse.forward(&x, tokens, &pool);
        let fnv = crate::bert::tests::fnv(&[&y]);
        assert_eq!(fnv, 0xd4c4_3888_12c5_dd60, "{fnv:#018x}");
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
