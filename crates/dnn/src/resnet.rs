//! ResNet-50 components (paper §IV-C, Fig. 7, Table II): the exact
//! convolution shape table of Fig. 7, batch normalization (fwd/bwd) and
//! the dense classifier head ([`FcHead`]) — the layers that,
//! together with `pl_kernels::conv`, make up the training pipeline. The
//! classifier is the network's one dense weight contraction and runs as a
//! prepared plan ([`crate::prepared::MatmulPlan`]): the `classes x
//! features` weight is packed into its blocked kernel layout once at
//! construction, so per-minibatch forwards only pack the pooled
//! activations.

use crate::matmul::Trans;
use crate::prepared::MatmulPlan;
use parlooper::{LoopSpecs, ThreadedLoop};
use pl_runtime::ThreadPool;
use pl_tensor::{ActTensor, ConvShape, Element, Xorshift};

/// One row of the Fig. 7 shape table.
#[derive(Debug, Clone, Copy)]
pub struct ConvLayerSpec {
    /// Layer ID as in Fig. 7 (1..=20).
    pub id: usize,
    /// The convolution shape (minibatch filled in by the caller).
    pub shape: ConvShape,
    /// How many times this shape occurs in ResNet-50.
    pub count: usize,
}

/// The 20 unique ResNet-50 convolution shapes of Fig. 7 with their
/// occurrence counts, for minibatch `n` and feature blockings `bc`/`bk`
/// (clamped to the layer's channel counts).
pub fn resnet50_conv_shapes(n: usize, bc: usize, bk: usize) -> Vec<ConvLayerSpec> {
    // (id, stride, S, R, W, H, K, C, pad, count)
    type Row = (usize, usize, usize, usize, usize, usize, usize, usize, usize, usize);
    let rows: [Row; 20] = [
        (1, 2, 7, 7, 224, 224, 64, 3, 3, 1),
        (2, 1, 1, 1, 56, 56, 256, 64, 0, 4),
        (3, 1, 1, 1, 56, 56, 64, 64, 0, 1),
        (4, 1, 3, 3, 56, 56, 64, 64, 1, 3),
        (5, 1, 1, 1, 56, 56, 64, 256, 0, 2),
        (6, 2, 1, 1, 56, 56, 512, 256, 0, 1),
        (7, 2, 1, 1, 56, 56, 128, 256, 0, 1),
        (8, 1, 3, 3, 28, 28, 128, 128, 1, 4),
        (9, 1, 1, 1, 28, 28, 512, 128, 0, 4),
        (10, 1, 1, 1, 28, 28, 128, 512, 0, 3),
        (11, 2, 1, 1, 28, 28, 1024, 512, 0, 1),
        (12, 2, 1, 1, 28, 28, 256, 512, 0, 1),
        (13, 1, 3, 3, 14, 14, 256, 256, 1, 6),
        (14, 1, 1, 1, 14, 14, 1024, 256, 0, 6),
        (15, 1, 1, 1, 14, 14, 256, 1024, 0, 5),
        (16, 2, 1, 1, 14, 14, 2048, 1024, 0, 1),
        (17, 2, 1, 1, 14, 14, 512, 1024, 0, 1),
        (18, 1, 3, 3, 7, 7, 512, 512, 1, 3),
        (19, 1, 1, 1, 7, 7, 2048, 512, 0, 3),
        (20, 1, 1, 1, 7, 7, 512, 2048, 0, 2),
    ];
    rows.iter()
        .map(|&(id, stride, s, r, w, h, k, c, pad, count)| {
            let pick = |channels: usize, pref: usize| {
                let mut b = pref.min(channels);
                while !channels.is_multiple_of(b) {
                    b -= 1;
                }
                b.max(1)
            };
            ConvLayerSpec {
                id,
                shape: ConvShape {
                    n,
                    c,
                    k,
                    h,
                    w,
                    r,
                    s,
                    stride,
                    pad,
                    bc: pick(c, bc),
                    bk: pick(k, bk),
                },
                count,
            }
        })
        .collect()
}

/// Batch-normalization statistics + affine parameters for `c` channels.
#[derive(Debug, Clone)]
pub struct BatchNorm {
    /// Scale.
    pub gamma: Vec<f32>,
    /// Shift.
    pub beta: Vec<f32>,
    /// Numerical floor.
    pub eps: f32,
}

/// Saved forward statistics for the backward pass.
pub struct BnTape {
    mean: Vec<f32>,
    rstd: Vec<f32>,
}

impl BatchNorm {
    /// Identity-initialized BN over `c` channels.
    pub fn new(c: usize) -> Self {
        BatchNorm { gamma: vec![1.0; c], beta: vec![0.0; c], eps: 1e-5 }
    }

    /// Forward: per-channel normalization over (N, H, W), parallelized
    /// over channel blocks with PARLOOPER.
    pub fn forward<T: Element>(
        &self,
        x: &ActTensor<T>,
        y: &mut ActTensor<T>,
        pool: &ThreadPool,
    ) -> BnTape {
        let (n, c, h, w, bc) = (x.n(), x.c(), x.h(), x.w(), x.bc());
        let count = (n * h * w) as f32;
        let mut mean = vec![0.0f32; c];
        let mut rstd = vec![0.0f32; c];
        // Stats pass (sequential over channels; cheap relative to convs).
        for ch in 0..c {
            let mut s = 0.0f64;
            let mut s2 = 0.0f64;
            for ni in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        let v = x.get(ni, ch, yy, xx).to_f32() as f64;
                        s += v;
                        s2 += v * v;
                    }
                }
            }
            let mu = (s / count as f64) as f32;
            let var = ((s2 / count as f64) as f32 - mu * mu).max(0.0);
            mean[ch] = mu;
            rstd[ch] = 1.0 / (var + self.eps).sqrt();
        }
        // Normalize pass, parallel over (n, cb).
        let cb = c / bc;
        let specs = vec![LoopSpecs::new(0, n, 1), LoopSpecs::new(0, cb, 1)];
        let tl = ThreadedLoop::new(&specs, "AB").expect("bn spec");
        let y_shared = pl_kernels::SharedSlice::new(y.data_mut());
        let plane = y_plane_len(x);
        tl.try_run_on(pool, |ind| {
            let (ni, icb) = (ind[0], ind[1]);
            // SAFETY: disjoint (n, cb) planes.
            let dst = unsafe { y_shared.slice_mut((ni * cb + icb) * plane, plane) };
            // Recompute offsets via logical loops (padding-aware).
            let mut idx = 0usize;
            let hp = x.hp();
            let wp = x.wp();
            let pad = x.pad();
            for yy in 0..hp {
                for xx in 0..wp {
                    for ci in 0..bc {
                        let ch = icb * bc + ci;
                        let v = if yy >= pad && yy < hp - pad && xx >= pad && xx < wp - pad {
                            let raw = x.get(ni, ch, yy - pad, xx - pad).to_f32();
                            self.gamma[ch] * (raw - mean[ch]) * rstd[ch] + self.beta[ch]
                        } else {
                            0.0
                        };
                        dst[idx] = T::from_f32(v);
                        idx += 1;
                    }
                }
            }
        })
        .expect("bn run");
        BnTape { mean, rstd }
    }

    /// Backward: `dx`, accumulating `dgamma`/`dbeta`.
    #[allow(clippy::too_many_arguments)]
    pub fn backward<T: Element>(
        &self,
        x: &ActTensor<T>,
        dy: &ActTensor<T>,
        tape: &BnTape,
        dx: &mut ActTensor<T>,
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let (n, c, h, w) = (x.n(), x.c(), x.h(), x.w());
        let count = (n * h * w) as f32;
        for ch in 0..c {
            let mu = tape.mean[ch];
            let rs = tape.rstd[ch];
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for ni in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        let g = dy.get(ni, ch, yy, xx).to_f32();
                        let xhat = (x.get(ni, ch, yy, xx).to_f32() - mu) * rs;
                        sum_g += g;
                        sum_gx += g * xhat;
                    }
                }
            }
            dgamma[ch] += sum_gx;
            dbeta[ch] += sum_g;
            let gam = self.gamma[ch];
            for ni in 0..n {
                for yy in 0..h {
                    for xx in 0..w {
                        let g = dy.get(ni, ch, yy, xx).to_f32();
                        let xhat = (x.get(ni, ch, yy, xx).to_f32() - mu) * rs;
                        let v = gam * rs * (g - (sum_g + xhat * sum_gx) / count);
                        dx.set(ni, ch, yy, xx, T::from_f32(v));
                    }
                }
            }
        }
    }
}

fn y_plane_len<T: Element>(x: &ActTensor<T>) -> usize {
    x.hp() * x.wp() * x.bc()
}

/// The dense classifier head: globally pooled features (`features x n`
/// column-major) → class logits (`classes x n`), through a pack-once
/// prepared plan.
pub struct FcHead {
    features: usize,
    classes: usize,
    plan: MatmulPlan,
    bias: Vec<f32>,
}

impl FcHead {
    /// Random-initialized head (ResNet-50: `features = 2048`,
    /// `classes = 1000`).
    pub fn new(features: usize, classes: usize, seed: u64) -> Self {
        let mut rng = Xorshift::new(seed);
        let std = (1.0 / features as f32).sqrt();
        let mut w = vec![0.0f32; classes * features];
        pl_tensor::fill_normal(&mut w, &mut rng, 0.0, std);
        let bias = vec![0.0f32; classes];
        Self::from_weights(&w, &bias, features, classes)
    }

    /// Builds from explicit weights (`classes x features`, column-major)
    /// and bias — the weight is packed here, exactly once.
    fn from_weights(w: &[f32], bias: &[f32], features: usize, classes: usize) -> Self {
        assert_eq!(bias.len(), classes, "bias size mismatch");
        FcHead {
            features,
            classes,
            plan: MatmulPlan::new(w, Trans::No, classes, features),
            bias: bias.to_vec(),
        }
    }

    /// Logits (`classes x n`, column-major) for a `features x n` pooled
    /// activation matrix.
    pub fn forward(&self, feats: &[f32], n: usize, pool: &ThreadPool) -> Vec<f32> {
        assert_eq!(feats.len(), self.features * n, "pooled feature size mismatch");
        let mut y = self.plan.execute(feats, n, pool);
        pl_tpp::binary::bias_add(self.classes, n, &self.bias, &mut y, self.classes);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_table_matches_fig7() {
        let shapes = resnet50_conv_shapes(56, 64, 64);
        assert_eq!(shapes.len(), 20);
        // ID1: 7x7 stride 2 pad 3 on 224x224 -> 112x112.
        assert_eq!(shapes[0].shape.p(), 112);
        // ID4: 3x3 s1 p1 keeps 56x56.
        assert_eq!(shapes[3].shape.p(), 56);
        // ID6: stride-2 1x1 halves 56 -> 28.
        assert_eq!(shapes[5].shape.p(), 28);
        // 53 conv layers total in ResNet-50 (incl. downsample branches).
        let total: usize = shapes.iter().map(|l| l.count).sum();
        assert_eq!(total, 53);
        // All blockings divide.
        for l in &shapes {
            assert_eq!(l.shape.c % l.shape.bc, 0, "id {}", l.id);
            assert_eq!(l.shape.k % l.shape.bk, 0, "id {}", l.id);
        }
    }

    #[test]
    fn batchnorm_normalizes() {
        let pool = ThreadPool::new(2);
        let mut rng = pl_tensor::Xorshift::new(3);
        let x =
            ActTensor::<f32>::from_fn(2, 8, 6, 6, 4, 0, |_, _, _, _| rng.next_f32() * 3.0 + 1.0)
                .unwrap();
        let bn = BatchNorm::new(8);
        let mut y = ActTensor::<f32>::new(2, 8, 6, 6, 4, 0).unwrap();
        let _tape = bn.forward(&x, &mut y, &pool);
        for ch in 0..8 {
            let mut s = 0.0f32;
            let mut s2 = 0.0f32;
            for ni in 0..2 {
                for yy in 0..6 {
                    for xx in 0..6 {
                        let v = y.get(ni, ch, yy, xx);
                        s += v;
                        s2 += v * v;
                    }
                }
            }
            let count = 72.0;
            let mu = s / count;
            let var = s2 / count - mu * mu;
            assert!(mu.abs() < 1e-4, "ch {ch} mean {mu}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ch} var {var}");
        }
    }

    #[test]
    fn batchnorm_backward_finite_difference() {
        let pool = ThreadPool::new(1);
        let mut rng = pl_tensor::Xorshift::new(5);
        let x =
            ActTensor::<f32>::from_fn(1, 4, 3, 3, 4, 0, |_, _, _, _| rng.next_f32() - 0.5).unwrap();
        let g =
            ActTensor::<f32>::from_fn(1, 4, 3, 3, 4, 0, |_, _, _, _| rng.next_f32() - 0.5).unwrap();
        let bn = BatchNorm::new(4);
        let mut y = ActTensor::<f32>::new(1, 4, 3, 3, 4, 0).unwrap();
        let tape = bn.forward(&x, &mut y, &pool);
        let mut dx = ActTensor::<f32>::new(1, 4, 3, 3, 4, 0).unwrap();
        let mut dgamma = vec![0.0f32; 4];
        let mut dbeta = vec![0.0f32; 4];
        bn.backward(&x, &g, &tape, &mut dx, &mut dgamma, &mut dbeta);

        let loss = |xv: &ActTensor<f32>| -> f32 {
            let mut yv = ActTensor::<f32>::new(1, 4, 3, 3, 4, 0).unwrap();
            bn.forward(xv, &mut yv, &pool);
            let mut s = 0.0;
            for ch in 0..4 {
                for yy in 0..3 {
                    for xx in 0..3 {
                        s += yv.get(0, ch, yy, xx) * g.get(0, ch, yy, xx);
                    }
                }
            }
            s
        };
        let h = 1e-2;
        for &(ch, yy, xx) in &[(0usize, 0usize, 0usize), (2, 1, 2), (3, 2, 1)] {
            let mut xp = x.clone();
            xp.set(0, ch, yy, xx, x.get(0, ch, yy, xx) + h);
            let mut xm = x.clone();
            xm.set(0, ch, yy, xx, x.get(0, ch, yy, xx) - h);
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            let got = dx.get(0, ch, yy, xx);
            assert!((got - fd).abs() < 2e-2, "({ch},{yy},{xx}): {got} vs {fd}");
        }
    }

    #[test]
    fn fc_head_matches_reference_and_packs_once() {
        let pool = ThreadPool::new(2);
        let (features, classes, n) = (32, 10, 4);
        let mut rng = pl_tensor::Xorshift::new(12);
        let mut w = vec![0.0f32; classes * features];
        let mut bias = vec![0.0f32; classes];
        let mut feats = vec![0.0f32; features * n];
        pl_tensor::fill_uniform(&mut w, &mut rng, -0.5, 0.5);
        pl_tensor::fill_uniform(&mut bias, &mut rng, -0.5, 0.5);
        pl_tensor::fill_uniform(&mut feats, &mut rng, -0.5, 0.5);
        let head = FcHead::from_weights(&w, &bias, features, classes);
        let got = head.forward(&feats, n, &pool);
        assert_eq!(got, head.forward(&feats, n, &pool), "cached-kernel forward is stable");
        let mut want = pl_kernels::gemm::reference_gemm(&w, &feats, classes, n, features);
        for col in 0..n {
            for r in 0..classes {
                want[col * classes + r] += bias[r];
            }
        }
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
        }
    }
}
