//! Multi-Layer Perceptron (paper §III-A1): each layer is the one GEMM nest
//! ([`Gemm`]) with its bias + ReLU epilogue.
//!
//! Each layer computes `O_l = relu(W_l x I_l + bias_l)`. The nest folds a
//! C block's whole K extent into one BRGEMM call and fires the activation
//! TPP on that block right after it (`if (i_k == Kb - k_step)
//! relu_tpp(...)` in the paper), while the block is still in cache. The
//! cascading layers feed `O_l` in as `B` of layer `l+1`: the `C` and `B`
//! layouts match, so the tensors stay blocked throughout.

use crate::{Gemm, GemmShape, GemmTuning, KernelError};
use pl_runtime::ThreadPool;
use pl_tensor::{BlockedMatrix, Element};

/// A whole MLP: cascading bias + ReLU layers of equal minibatch.
pub struct Mlp<T: Element> {
    layers: Vec<Gemm<T, T, T>>,
    /// Per-layer weights in `A` layout.
    pub weights: Vec<BlockedMatrix<T>>,
    /// Per-layer biases.
    pub biases: Vec<Vec<f32>>,
}

impl<T: Element> Mlp<T> {
    /// Builds an MLP with `sizes = [in, h1, h2, ..., out]` feature extents,
    /// minibatch `n`, feature blocking `bk`, minibatch blocking `bn` and
    /// one spec for all layers. A spec [`Gemm`] rejects as racy is
    /// rejected here too.
    pub fn new(
        sizes: &[usize],
        n: usize,
        bk: usize,
        bn: usize,
        spec: &str,
        seed: u64,
    ) -> Result<Self, KernelError> {
        if sizes.len() < 2 {
            return Err(KernelError::BadShape("MLP needs at least two sizes".into()));
        }
        let mut rng = pl_tensor::Xorshift::new(seed);
        let mut layers = Vec::new();
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in sizes.windows(2) {
            let (fin, fout) = (w[0], w[1]);
            let shape = GemmShape { m: fout, n, k: fin, bm: bk, bn, bk };
            // One BRGEMM call reduces a C block's whole K extent.
            let tuning = GemmTuning { k_step: fin / bk.max(1), ..GemmTuning::simple(spec) };
            layers.push(Gemm::new(shape, tuning)?);
            let std = (2.0 / fin as f32).sqrt();
            let mut wm = BlockedMatrix::<T>::a_layout(fout, fin, bk, bk)
                .map_err(|e| KernelError::BadShape(e.to_string()))?;
            let mut buf = vec![0.0f32; fout * fin];
            pl_tensor::fill_normal(&mut buf, &mut rng, 0.0, std);
            wm.pack_from_colmajor(&buf);
            weights.push(wm);
            biases.push(vec![0.01f32; fout]);
        }
        Ok(Mlp { layers, weights, biases })
    }

    /// Total flops of one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|l| l.shape().flops()).sum()
    }

    /// Runs the cascade; returns the final activation.
    pub fn forward(
        &self,
        input: &BlockedMatrix<T>,
        pool: &ThreadPool,
    ) -> Result<BlockedMatrix<T>, KernelError> {
        let mut cur: Option<BlockedMatrix<T>> = None;
        for ((layer, w), bias) in self.layers.iter().zip(&self.weights).zip(&self.biases) {
            let sh = layer.shape();
            let mut out = BlockedMatrix::<T>::c_layout(sh.m, sh.n, sh.bm, sh.bn)
                .map_err(|e| KernelError::BadShape(e.to_string()))?;
            // The first layer reads `input` itself.
            layer.execute_on(w, cur.as_ref().unwrap_or(input), &mut out, (), Some(bias), pool)?;
            cur = Some(out);
        }
        Ok(cur.expect("an MLP has at least one layer"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use pl_tensor::{fill_uniform, Xorshift};

    /// A one-layer `fin -> fout` MLP over column-major weight `w_cm`.
    fn one_layer(
        w_cm: &[f32],
        bias: Vec<f32>,
        fin: usize,
        n: usize,
        bk: usize,
        bn: usize,
    ) -> Mlp<f32> {
        let mut mlp = Mlp::<f32>::new(&[fin, bias.len()], n, bk, bn, "aBC", 0).unwrap();
        mlp.weights[0].pack_from_colmajor(w_cm);
        mlp.biases[0] = bias;
        mlp
    }

    #[test]
    fn fused_layer_matches_unfused_reference() {
        let pool = ThreadPool::new(2);
        let (fout, fin, n, bk, bn) = (16, 24, 8, 8, 4);
        let mut rng = Xorshift::new(11);
        let mut w_cm = vec![0.0f32; fout * fin];
        let mut x_cm = vec![0.0f32; fin * n];
        fill_uniform(&mut w_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut x_cm, &mut rng, -0.5, 0.5);
        let bias: Vec<f32> = (0..fout).map(|i| i as f32 * 0.1 - 0.5).collect();

        let mut x = BlockedMatrix::<f32>::b_layout(fin, n, bk, bn).unwrap();
        x.pack_from_colmajor(&x_cm);
        let mlp = one_layer(&w_cm, bias.clone(), fin, n, bk, bn);
        let out = mlp.forward(&x, &pool).unwrap();

        let mut expect = reference_gemm(&w_cm, &x_cm, fout, n, fin);
        for col in 0..n {
            for r in 0..fout {
                expect[col * fout + r] = (expect[col * fout + r] + bias[r]).max(0.0);
            }
        }
        let got = out.unpack_to_colmajor();
        for i in 0..got.len() {
            assert!((got[i] - expect[i]).abs() < 1e-4, "{} vs {}", got[i], expect[i]);
        }
    }

    #[test]
    fn relu_actually_clamps() {
        let pool = ThreadPool::new(1);
        let (fout, fin, n, bk, bn) = (8, 8, 4, 8, 4);
        let mut x = BlockedMatrix::<f32>::b_layout(fin, n, bk, bn).unwrap();
        x.pack_from_colmajor(&vec![1.0; fin * n]);
        // Negative weights guarantee negative pre-activations.
        let mlp = one_layer(&vec![-1.0; fout * fin], vec![0.0; fout], fin, n, bk, bn);
        let out = mlp.forward(&x, &pool).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    /// A 16-32-8 cascade over 8 columns and its input.
    fn cascade() -> (Mlp<f32>, BlockedMatrix<f32>) {
        let mlp = Mlp::<f32>::new(&[16, 32, 8], 8, 8, 4, "aBC", 5).unwrap();
        let mut x = BlockedMatrix::<f32>::b_layout(16, 8, 8, 4).unwrap();
        let mut rng = Xorshift::new(2);
        let mut x_cm = vec![0.0f32; 16 * 8];
        fill_uniform(&mut x_cm, &mut rng, 0.0, 1.0);
        x.pack_from_colmajor(&x_cm);
        (mlp, x)
    }

    #[test]
    fn cascade_dimensions_flow() {
        let pool = ThreadPool::new(2);
        let (mlp, x) = cascade();
        let y = mlp.forward(&x, &pool).unwrap();
        assert_eq!(y.rows(), 8);
        assert_eq!(y.cols(), 8);
        // ReLU output is non-negative.
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cascade_output_bits_are_pinned() {
        // FNV-1a over the output's bit patterns, recorded from the
        // hand-written fused-layer nest the MLP ran before it became the
        // GEMM nest with a bias + ReLU epilogue.
        let pool = ThreadPool::new(2);
        let (mlp, x) = cascade();
        let y = mlp.forward(&x, &pool).unwrap();
        let fnv = y
            .data()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3));
        assert_eq!(fnv, 0x02ba_7cdb_0095_4b5c, "{fnv:#018x}");
    }

    #[test]
    fn flops_accounting() {
        let mlp = Mlp::<f32>::new(&[512, 512, 512], 512, 64, 64, "aBC", 1).unwrap();
        assert_eq!(mlp.flops(), 2 * 2 * 512u64.pow(3));
    }
}
