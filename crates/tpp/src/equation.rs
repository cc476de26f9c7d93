//! TPP *equations*: fused multi-operator primitives over blocked layouts
//! (the paper's `layernorm_tpp_eqn` in Listing 6 line 18, and friends).
//!
//! The end-to-end BERT modules keep activations in blocked form
//! `[S1][Nk][S2][bk]` (token blocks x feature blocks x tokens x features).
//! Operators that reduce over the *full* feature dimension must therefore
//! span all `Nk` feature blocks of one token block at once — that is what
//! these equations do.

use pl_tensor::Element;

/// Layernorm over the blocked activation slice of one token block:
/// `x` is `[Nk][S2][bk]` (contiguous), normalization is per token `s2`
/// across all `(nk, bk)` features. `gamma`/`beta` are `[Nk][bk]`.
/// Saves `mean[s2]` and `rstd[s2]`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_blocked<TI: Element, TO: Element>(
    nk: usize,
    s2: usize,
    bk: usize,
    x: &[TI],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [TO],
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    debug_assert!(x.len() >= nk * s2 * bk && out.len() >= nk * s2 * bk);
    debug_assert!(gamma.len() >= nk * bk && beta.len() >= nk * bk);
    let features = (nk * bk) as f32;
    for t in 0..s2 {
        let mut sum = 0.0f32;
        let mut sumsq = 0.0f32;
        for nkb in 0..nk {
            let base = (nkb * s2 + t) * bk;
            for v in &x[base..base + bk] {
                let f = v.to_f32();
                sum += f;
                sumsq += f * f;
            }
        }
        let mu = sum / features;
        let var = (sumsq / features - mu * mu).max(0.0);
        let rs = 1.0 / (var + eps).sqrt();
        mean[t] = mu;
        rstd[t] = rs;
        for nkb in 0..nk {
            let base = (nkb * s2 + t) * bk;
            let gslice = &gamma[nkb * bk..(nkb + 1) * bk];
            let bslice = &beta[nkb * bk..(nkb + 1) * bk];
            for i in 0..bk {
                let xhat = (x[base + i].to_f32() - mu) * rs;
                out[base + i] = TO::from_f32(gslice[i] * xhat + bslice[i]);
            }
        }
    }
}

/// Fused bias + GELU over a `bk x s2` feature-major block
/// (Bert-Intermediate, §IV-A): `out = gelu(x + bias)`.
pub fn bias_gelu<TI: Element, TO: Element>(
    bk: usize,
    s2: usize,
    x: &[TI],
    bias: &[f32],
    out: &mut [TO],
) {
    for t in 0..s2 {
        for i in 0..bk {
            let v = x[t * bk + i].to_f32() + bias[i];
            out[t * bk + i] = TO::from_f32(crate::unary::gelu_scalar(v));
        }
    }
}

/// Fused bias + ReLU in place over an `m x n` column-major block with
/// leading dimension `ldc`: `c = max(c + bias, 0)`, one bias per row. The
/// MLP's epilogue (§III-A1), fired by the GEMM nest on an output block
/// right after its last K step.
pub fn bias_relu<T: Element>(m: usize, n: usize, bias: &[f32], c: &mut [T], ldc: usize) {
    debug_assert!(bias.len() >= m);
    for col in 0..n {
        for (v, b) in c[col * ldc..][..m].iter_mut().zip(bias) {
            *v = T::from_f32((v.to_f32() + b).max(0.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_layernorm_matches_flat() {
        // nk=2, s2=3, bk=4 -> 8 features per token, 3 tokens.
        let (nk, s2, bk) = (2usize, 3usize, 4usize);
        let total = nk * s2 * bk;
        let x: Vec<f32> = (0..total).map(|i| (i as f32 * 0.7).sin() * 2.0).collect();
        let gamma: Vec<f32> = (0..nk * bk).map(|i| 1.0 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..nk * bk).map(|i| 0.05 * i as f32).collect();
        let mut y = vec![0.0f32; total];
        let mut mean = vec![0.0f32; s2];
        let mut rstd = vec![0.0f32; s2];
        layernorm_blocked(nk, s2, bk, &x, &gamma, &beta, 1e-5, &mut y, &mut mean, &mut rstd);

        // Flat reference per token.
        for t in 0..s2 {
            let feats: Vec<f32> =
                (0..nk * bk).map(|f| x[((f / bk) * s2 + t) * bk + f % bk]).collect();
            let mu: f32 = feats.iter().sum::<f32>() / feats.len() as f32;
            let var: f32 =
                feats.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / feats.len() as f32;
            let rs = 1.0 / (var + 1e-5).sqrt();
            for f in 0..nk * bk {
                let expect = gamma[f] * (feats[f] - mu) * rs + beta[f];
                let got = y[((f / bk) * s2 + t) * bk + f % bk];
                assert!((got - expect).abs() < 1e-4, "t={t} f={f}: {got} vs {expect}");
            }
            assert!((mean[t] - mu).abs() < 1e-5);
        }
    }

    #[test]
    fn bias_activations() {
        let x = vec![-1.0f32, 0.5, 2.0, -0.25];
        let bias = vec![0.5f32, 0.5];
        let mut r = x.clone();
        bias_relu(2, 2, &bias, &mut r, 2);
        assert_eq!(r, vec![0.0, 1.0, 2.5, 0.25]);
        let mut g = vec![0.0f32; 4];
        bias_gelu(2, 2, &x, &bias, &mut g);
        assert!((g[0] - crate::unary::gelu_scalar(-0.5)).abs() < 1e-6);
    }
}
