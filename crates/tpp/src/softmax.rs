//! Softmax TPPs (forward and backward), numerically stabilized by
//! max-subtraction. Used by the Bert-Self-Attention fused blocks
//! (paper §IV-A).

use pl_tensor::Element;

/// Softmax over each *column* of an `m x n` column-major view.
pub fn softmax_cols<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
    ldo: usize,
) {
    for c in 0..n {
        let icol = &input[c * ldi..c * ldi + m];
        let max = icol.iter().map(|v| v.to_f32()).fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        let ocol = &mut out[c * ldo..c * ldo + m];
        for (o, v) in ocol.iter_mut().zip(icol) {
            let e = (v.to_f32() - max).exp();
            denom += e;
            *o = TO::from_f32(e);
        }
        let inv = 1.0 / denom;
        for o in ocol.iter_mut() {
            *o = TO::from_f32(o.to_f32() * inv);
        }
    }
}

/// Backward of [`softmax_cols`]: given `y = softmax(x)` and upstream `dy`,
/// computes `dx = y * (dy - <dy, y>)` per column.
pub fn softmax_cols_backward<TY: Element, TG: Element, TO: Element>(
    m: usize,
    n: usize,
    y: &[TY],
    ldy: usize,
    dy: &[TG],
    ldg: usize,
    dx: &mut [TO],
    ldo: usize,
) {
    for c in 0..n {
        let ycol = &y[c * ldy..c * ldy + m];
        let gcol = &dy[c * ldg..c * ldg + m];
        let dot: f32 = ycol.iter().zip(gcol).map(|(a, b)| a.to_f32() * b.to_f32()).sum();
        for r in 0..m {
            let v = ycol[r].to_f32() * (gcol[r].to_f32() - dot);
            dx[c * ldo + r] = TO::from_f32(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_sum_to_one() {
        let x = vec![1.0f32, 2.0, 3.0, -1.0, 0.0, 1.0]; // 3x2
        let mut y = vec![0.0f32; 6];
        softmax_cols(3, 2, &x, 3, &mut y, 3);
        for c in 0..2 {
            let s: f32 = y[c * 3..c * 3 + 3].iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        // Monotone: bigger logits get bigger mass.
        assert!(y[2] > y[1] && y[1] > y[0]);
    }

    #[test]
    fn shift_invariance() {
        let x = vec![1.0f32, 2.0, 3.0];
        let shifted: Vec<f32> = x.iter().map(|v| v + 100.0).collect();
        let mut y1 = vec![0.0f32; 3];
        let mut y2 = vec![0.0f32; 3];
        softmax_cols(3, 1, &x, 3, &mut y1, 3);
        softmax_cols(3, 1, &shifted, 3, &mut y2, 3);
        for i in 0..3 {
            assert!((y1[i] - y2[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn handles_extreme_logits() {
        let x = vec![1000.0f32, -1000.0, 0.0];
        let mut y = vec![0.0f32; 3];
        softmax_cols(3, 1, &x, 3, &mut y, 3);
        assert!((y[0] - 1.0).abs() < 1e-6);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backward_matches_finite_difference() {
        let x = vec![0.5f32, -0.3, 1.2, 0.1];
        let dy = vec![0.2f32, -0.1, 0.4, 0.3];
        let mut y = vec![0.0f32; 4];
        softmax_cols(4, 1, &x, 4, &mut y, 4);
        let mut dx = vec![0.0f32; 4];
        softmax_cols_backward(4, 1, &y, 4, &dy, 4, &mut dx, 4);
        // Finite differences of L = <dy, softmax(x)>.
        let h = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let mut yp = vec![0.0f32; 4];
            let mut ym = vec![0.0f32; 4];
            softmax_cols(4, 1, &xp, 4, &mut yp, 4);
            softmax_cols(4, 1, &xm, 4, &mut ym, 4);
            let lp: f32 = yp.iter().zip(&dy).map(|(a, b)| a * b).sum();
            let lm: f32 = ym.iter().zip(&dy).map(|(a, b)| a * b).sum();
            let fd = (lp - lm) / (2.0 * h);
            assert!((dx[i] - fd).abs() < 1e-3, "i={i}: {} vs {}", dx[i], fd);
        }
    }
}
