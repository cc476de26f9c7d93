//! Multi-Layer Perceptron built from the GEMM kernel with fused bias add
//! and ReLU (paper §III-A1).
//!
//! Each layer computes `O_l = act(W_l x I_l + bias_l)`; the activation TPP
//! fires inside the GEMM body on the just-computed `C` block when the last
//! K-step completes (`if (i_k == Kb - k_step) relu_tpp(...)` in the paper),
//! maximizing cache reuse of the output block. The cascading layers feed
//! `O_l` in as `B` of layer `l+1` — the tensors stay in blocked layout
//! throughout.

use crate::shared::SharedSlice;
use crate::KernelError;
use parlooper::{LoopSpecs, ThreadedLoop};
use pl_runtime::ThreadPool;
use pl_tensor::{BlockedMatrix, Element};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc};

/// Activation fused at the tail of each layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation (plain fully-connected layer).
    None,
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
}

/// One MLP layer: a fully-connected kernel with fused bias + activation.
pub struct FusedFcLayer<T: Element> {
    /// Output features.
    pub out_features: usize,
    /// Input features.
    pub in_features: usize,
    /// Feature blockings.
    pub bk_out: usize,
    /// Input feature blocking.
    pub bk_in: usize,
    /// Minibatch blocking.
    pub bn: usize,
    tl: ThreadedLoop,
    brgemm: Brgemm<T, T, T>,
    k_step: usize,
    activation: Activation,
}

impl<T: Element> FusedFcLayer<T> {
    /// Builds a layer kernel; `n` is the minibatch extent.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        out_features: usize,
        in_features: usize,
        n: usize,
        bk_out: usize,
        bk_in: usize,
        bn: usize,
        spec: &str,
        activation: Activation,
    ) -> Result<Self, KernelError> {
        for (d, b, name) in [
            (out_features, bk_out, "out_features"),
            (in_features, bk_in, "in_features"),
            (n, bn, "N"),
        ] {
            if b == 0 || d % b != 0 {
                return Err(KernelError::BadShape(format!("{name}={d} %% {b} != 0")));
            }
        }
        let kb = in_features / bk_in;
        let specs = vec![
            LoopSpecs::new(0, kb, kb), // K folded into one BRGEMM per block
            LoopSpecs::new(0, out_features / bk_out, 1),
            LoopSpecs::new(0, n / bn, 1),
        ];
        let tl = ThreadedLoop::new(&specs, spec).map_err(KernelError::Spec)?;
        let brgemm = Brgemm::new(BrgemmDesc::blocked(bk_out, bn, bk_in));
        Ok(FusedFcLayer {
            out_features,
            in_features,
            bk_out,
            bk_in,
            bn,
            tl,
            brgemm,
            k_step: kb,
            activation,
        })
    }

    /// `out = act(weights x input + bias)`.
    ///
    /// `weights` is `out_features x in_features` in `A` layout, `input` is
    /// `in_features x n` in `B` layout, `out` is `out_features x n` in `C`
    /// layout (which is the `B` layout of the next layer, as both are
    /// column-block-major with matching blocks — see the cascade test).
    pub fn forward(
        &self,
        weights: &BlockedMatrix<T>,
        bias: &[f32],
        input: &BlockedMatrix<T>,
        out: &mut BlockedMatrix<T>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        if weights.rows() != self.out_features
            || weights.cols() != self.in_features
            || input.rows() != self.in_features
            || out.rows() != self.out_features
            || input.cols() != out.cols()
            || bias.len() < self.out_features
        {
            return Err(KernelError::BadShape("MLP layer operand mismatch".into()));
        }
        let (bm, bn, bk) = (self.bk_out, self.bn, self.bk_in);
        let kb = self.in_features / bk;
        let mb = self.out_features / bm;
        let k_step = self.k_step;
        let activation = self.activation;
        let c_shared = SharedSlice::new(out.data_mut());
        let w_data = weights.data();
        let i_data = input.data();
        let brgemm = &self.brgemm;

        self.tl
            .try_run_on(pool, |ind| {
                let (ik, im, i_n) = (ind[0], ind[1], ind[2]);
                let brcount = k_step.min(kb - ik);
                let c_off = (i_n * mb + im) * bm * bn;
                // SAFETY: disjoint (im, i_n) blocks per the spec contract.
                let c_block = unsafe { c_shared.slice_mut(c_off, bm * bn) };
                if ik == 0 {
                    pl_tpp::unary::zero(bm, bn, c_block, bm);
                }
                let a_off = (im * kb + ik) * bm * bk;
                let b_off = (i_n * kb + ik) * bk * bn;
                brgemm.execute_stride(
                    &w_data[a_off..],
                    bm * bk,
                    &i_data[b_off..],
                    bk * bn,
                    c_block,
                    brcount,
                );
                if ik + brcount >= kb {
                    // Last K-step for this block: fuse bias + activation.
                    let bias_slice = &bias[im * bm..(im + 1) * bm];
                    match activation {
                        Activation::None => {
                            pl_tpp::binary::bias_add(bm, bn, bias_slice, c_block, bm)
                        }
                        Activation::Relu => {
                            pl_tpp::binary::bias_add(bm, bn, bias_slice, c_block, bm);
                            let tmp: &mut [T] = c_block;
                            for col in 0..bn {
                                for r in 0..bm {
                                    let v = tmp[col * bm + r].to_f32().max(0.0);
                                    tmp[col * bm + r] = T::from_f32(v);
                                }
                            }
                        }
                        Activation::Gelu => {
                            pl_tpp::binary::bias_add(bm, bn, bias_slice, c_block, bm);
                            for col in 0..bn {
                                for r in 0..bm {
                                    let v =
                                        pl_tpp::unary::gelu_scalar(c_block[col * bm + r].to_f32());
                                    c_block[col * bm + r] = T::from_f32(v);
                                }
                            }
                        }
                    }
                }
            })
            .map_err(KernelError::Spec)
    }
}

/// A whole MLP: cascading fused FC layers of equal minibatch.
pub struct Mlp<T: Element> {
    layers: Vec<FusedFcLayer<T>>,
    /// Per-layer weights in `A` layout.
    pub weights: Vec<BlockedMatrix<T>>,
    /// Per-layer biases.
    pub biases: Vec<Vec<f32>>,
    n: usize,
    bn: usize,
}

impl<T: Element> Mlp<T> {
    /// Builds an MLP with `sizes = [in, h1, h2, ..., out]` feature extents,
    /// shared blockings and one spec for all layers.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sizes: &[usize],
        n: usize,
        bk: usize,
        bn: usize,
        spec: &str,
        activation: Activation,
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
            layers.push(FusedFcLayer::new(fout, fin, n, bk, bk, bn, spec, activation)?);
            let std = (2.0 / fin as f32).sqrt();
            let mut wm = BlockedMatrix::<T>::a_layout(fout, fin, bk, bk)
                .map_err(|e| KernelError::BadShape(e.to_string()))?;
            let mut buf = vec![0.0f32; fout * fin];
            pl_tensor::fill_normal(&mut buf, &mut rng, 0.0, std);
            wm.pack_from_colmajor(&buf);
            weights.push(wm);
            biases.push(vec![0.01f32; fout]);
        }
        Ok(Mlp { layers, weights, biases, n, bn })
    }

    /// Total flops of one forward pass.
    pub fn flops(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| 2 * l.out_features as u64 * l.in_features as u64 * self.n as u64)
            .sum()
    }

    /// Runs the cascade; returns the final activation.
    pub fn forward(
        &self,
        input: &BlockedMatrix<T>,
        pool: &ThreadPool,
    ) -> Result<BlockedMatrix<T>, KernelError> {
        let mut cur = input.clone();
        for (l, layer) in self.layers.iter().enumerate() {
            let mut out =
                BlockedMatrix::<T>::c_layout(layer.out_features, self.n, layer.bk_out, self.bn)
                    .map_err(|e| KernelError::BadShape(e.to_string()))?;
            layer.forward(&self.weights[l], &self.biases[l], &cur, &mut out, pool)?;
            cur = out;
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference_gemm;
    use pl_tensor::{fill_uniform, Xorshift};

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

        let mut w = BlockedMatrix::<f32>::a_layout(fout, fin, bk, bk).unwrap();
        w.pack_from_colmajor(&w_cm);
        let mut x = BlockedMatrix::<f32>::b_layout(fin, n, bk, bn).unwrap();
        x.pack_from_colmajor(&x_cm);
        let mut out = BlockedMatrix::<f32>::c_layout(fout, n, bk, bn).unwrap();

        let layer = FusedFcLayer::new(fout, fin, n, bk, bk, bn, "aBC", Activation::Relu).unwrap();
        layer.forward(&w, &bias, &x, &mut out, &pool).unwrap();

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
        let mut w = BlockedMatrix::<f32>::a_layout(fout, fin, bk, bk).unwrap();
        // Negative weights guarantee negative pre-activations.
        w.pack_from_colmajor(&vec![-1.0; fout * fin]);
        let mut x = BlockedMatrix::<f32>::b_layout(fin, n, bk, bn).unwrap();
        x.pack_from_colmajor(&vec![1.0; fin * n]);
        let mut out = BlockedMatrix::<f32>::c_layout(fout, n, bk, bn).unwrap();
        let layer = FusedFcLayer::new(fout, fin, n, bk, bk, bn, "aBC", Activation::Relu).unwrap();
        layer.forward(&w, &vec![0.0; fout], &x, &mut out, &pool).unwrap();
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn cascade_dimensions_flow() {
        let pool = ThreadPool::new(2);
        let mlp = Mlp::<f32>::new(&[16, 32, 8], 8, 8, 4, "aBC", Activation::Relu, 5).unwrap();
        let mut x = BlockedMatrix::<f32>::b_layout(16, 8, 8, 4).unwrap();
        let mut rng = Xorshift::new(2);
        let mut x_cm = vec![0.0f32; 16 * 8];
        fill_uniform(&mut x_cm, &mut rng, 0.0, 1.0);
        x.pack_from_colmajor(&x_cm);
        let y = mlp.forward(&x, &pool).unwrap();
        assert_eq!(y.rows(), 8);
        assert_eq!(y.cols(), 8);
        // ReLU output is non-negative.
        assert!(y.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn flops_accounting() {
        let mlp =
            Mlp::<f32>::new(&[512, 512, 512], 512, 64, 64, "aBC", Activation::Relu, 1).unwrap();
        assert_eq!(mlp.flops(), 2 * 2 * 512u64.pow(3));
    }
}
