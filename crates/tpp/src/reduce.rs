//! Reduction TPPs over 2-D views: row sums, and the column mean/variance
//! pairs layernorm ([`crate::norm`]) normalizes with.

use pl_tensor::Element;

/// Sums each row of an `m x n` column-major view into `out[0..m]`.
pub fn row_sum<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
) {
    debug_assert!(out.len() >= m);
    let mut acc = vec![0.0f32; m];
    for c in 0..n {
        for (a, v) in acc.iter_mut().zip(&input[c * ldi..c * ldi + m]) {
            *a += v.to_f32();
        }
    }
    for (o, a) in out.iter_mut().take(m).zip(&acc) {
        *o = TO::from_f32(*a);
    }
}

/// Column-wise mean and (population) variance — the layernorm statistics.
pub fn col_mean_var<TI: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    mean: &mut [f32],
    var: &mut [f32],
) {
    debug_assert!(mean.len() >= n && var.len() >= n);
    let inv_m = 1.0 / m as f32;
    for c in 0..n {
        let col = &input[c * ldi..c * ldi + m];
        let mu: f32 = col.iter().map(|v| v.to_f32()).sum::<f32>() * inv_m;
        let v: f32 = col
            .iter()
            .map(|x| {
                let d = x.to_f32() - mu;
                d * d
            })
            .sum::<f32>()
            * inv_m;
        mean[c] = mu;
        var[c] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // 3x2 col-major: col0 = [1,2,3], col1 = [4,5,6].
    const X: [f32; 6] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];

    #[test]
    fn row_sums() {
        let mut rs = vec![0.0f32; 3];
        row_sum(3, 2, &X, 3, &mut rs);
        assert_eq!(rs, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn mean_var() {
        let mut mean = vec![0.0f32; 2];
        let mut var = vec![0.0f32; 2];
        col_mean_var(3, 2, &X, 3, &mut mean, &mut var);
        assert_eq!(mean, vec![2.0, 5.0]);
        assert!((var[0] - 2.0 / 3.0).abs() < 1e-6);
        assert!((var[1] - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn respects_leading_dim() {
        // 2x2 view of a 3-ld buffer.
        let buf = [1.0f32, 2.0, 99.0, 3.0, 4.0, 99.0];
        let mut rs = vec![0.0f32; 2];
        row_sum(2, 2, &buf, 3, &mut rs);
        assert_eq!(rs, vec![4.0, 6.0]);
    }
}
