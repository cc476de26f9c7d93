//! Layer normalization TPPs (forward + backward).
//!
//! Orientation: a "token" is one *column* of an `m x n` column-major view
//! (`m` = features being normalized over, `n` = tokens), so a layer that
//! holds `features x tokens` activations normalizes one token per call.

use crate::reduce::col_mean_var;
use pl_tensor::Element;

/// Layernorm forward over each column: `y = gamma * (x - mu) / sqrt(var +
/// eps) + beta`. Saves per-column `mean` and inverse-std `rstd` for the
/// backward pass (the paper's `&mean[s1], &var[s1]` outputs in Listing 6).
#[allow(clippy::too_many_arguments)]
pub fn layernorm<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [TO],
    ldo: usize,
    mean: &mut [f32],
    rstd: &mut [f32],
) {
    debug_assert!(gamma.len() >= m && beta.len() >= m);
    col_mean_var(m, n, input, ldi, mean, rstd);
    for c in 0..n {
        let rs = 1.0 / (rstd[c] + eps).sqrt();
        rstd[c] = rs;
        let mu = mean[c];
        for r in 0..m {
            let xhat = (input[c * ldi + r].to_f32() - mu) * rs;
            out[c * ldo + r] = TO::from_f32(gamma[r] * xhat + beta[r]);
        }
    }
}

/// Layernorm backward. Given upstream `dy`, the saved `mean`/`rstd`, and the
/// forward input `x`, produces `dx` and accumulates `dgamma`/`dbeta`.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_backward<TI: Element, TG: Element, TO: Element>(
    m: usize,
    n: usize,
    x: &[TI],
    ldx: usize,
    dy: &[TG],
    ldg: usize,
    gamma: &[f32],
    mean: &[f32],
    rstd: &[f32],
    dx: &mut [TO],
    ldo: usize,
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let inv_m = 1.0 / m as f32;
    for c in 0..n {
        let mu = mean[c];
        let rs = rstd[c];
        // Two reductions per column.
        let mut sum_g = 0.0f32; // sum of gamma-scaled grads
        let mut sum_gx = 0.0f32; // sum of gamma-scaled grads * xhat
        for r in 0..m {
            let xhat = (x[c * ldx + r].to_f32() - mu) * rs;
            let g = dy[c * ldg + r].to_f32();
            let gg = g * gamma[r];
            sum_g += gg;
            sum_gx += gg * xhat;
            dgamma[r] += g * xhat;
            dbeta[r] += g;
        }
        for r in 0..m {
            let xhat = (x[c * ldx + r].to_f32() - mu) * rs;
            let gg = dy[c * ldg + r].to_f32() * gamma[r];
            let v = rs * (gg - inv_m * (sum_g + xhat * sum_gx));
            dx[c * ldo + r] = TO::from_f32(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_fwd(
        x: &[f32],
        m: usize,
        n: usize,
        gamma: &[f32],
        beta: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut y = vec![0.0f32; m * n];
        let mut mean = vec![0.0f32; n];
        let mut rstd = vec![0.0f32; n];
        layernorm(m, n, x, m, gamma, beta, 1e-5, &mut y, m, &mut mean, &mut rstd);
        (y, mean, rstd)
    }

    #[test]
    fn output_is_normalized() {
        let x: Vec<f32> = (0..32).map(|i| (i as f32) * 0.37 - 3.0).collect();
        let gamma = vec![1.0f32; 16];
        let beta = vec![0.0f32; 16];
        let (y, _, _) = run_fwd(&x, 16, 2, &gamma, &beta);
        for c in 0..2 {
            let col = &y[c * 16..(c + 1) * 16];
            let mu: f32 = col.iter().sum::<f32>() / 16.0;
            let var: f32 = col.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / 16.0;
            assert!(mu.abs() < 1e-5, "mean {mu}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_affine() {
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let gamma = vec![2.0f32; 8];
        let beta = vec![3.0f32; 8];
        let (y, _, _) = run_fwd(&x, 8, 1, &gamma, &beta);
        let mu: f32 = y.iter().sum::<f32>() / 8.0;
        assert!((mu - 3.0).abs() < 1e-5); // beta shifts the mean
        let var: f32 = y.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / 8.0;
        assert!((var - 4.0).abs() < 1e-2); // gamma^2 scales the variance
    }

    #[test]
    fn constant_column_is_stable() {
        let x = vec![5.0f32; 8];
        let gamma = vec![1.0f32; 8];
        let beta = vec![0.0f32; 8];
        let (y, _, _) = run_fwd(&x, 8, 1, &gamma, &beta);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(y.iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let m = 6;
        let x: Vec<f32> = vec![0.3, -1.2, 0.8, 2.0, -0.5, 0.1];
        let dy: Vec<f32> = vec![0.1, -0.2, 0.3, 0.05, -0.15, 0.25];
        let gamma: Vec<f32> = vec![1.2, 0.8, 1.0, 0.9, 1.1, 1.05];
        let beta = vec![0.0f32; m];

        let loss = |xv: &[f32]| -> f32 {
            let mut y = vec![0.0f32; m];
            let mut mean = vec![0.0f32; 1];
            let mut rstd = vec![0.0f32; 1];
            layernorm(m, 1, xv, m, &gamma, &beta, 1e-5, &mut y, m, &mut mean, &mut rstd);
            y.iter().zip(&dy).map(|(a, b)| a * b).sum()
        };

        let mut y = vec![0.0f32; m];
        let mut mean = vec![0.0f32; 1];
        let mut rstd = vec![0.0f32; 1];
        layernorm(m, 1, &x, m, &gamma, &beta, 1e-5, &mut y, m, &mut mean, &mut rstd);
        let mut dx = vec![0.0f32; m];
        let mut dgamma = vec![0.0f32; m];
        let mut dbeta = vec![0.0f32; m];
        layernorm_backward(
            m,
            1,
            &x,
            m,
            &dy,
            m,
            &gamma,
            &mean,
            &rstd,
            &mut dx,
            m,
            &mut dgamma,
            &mut dbeta,
        );
        let h = 1e-2;
        for i in 0..m {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let fd = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!((dx[i] - fd).abs() < 2e-3, "i={i}: {} vs {}", dx[i], fd);
        }
        // dbeta is just the grad sum; dgamma = grad . xhat.
        assert!((dbeta.iter().sum::<f32>() - dy.iter().sum::<f32>()).abs() < 1e-6);
    }
}
