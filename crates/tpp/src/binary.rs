//! Binary TPPs: elementwise combination of two 2-D views, plus the
//! broadcast variants the fused DL modules rely on (bias add over rows,
//! residual add — paper Listing 6 `copy_bias_tpp` / `add_tpp`).

use pl_tensor::Element;

/// Elementwise addition (`add_tpp` — residual connections).
pub fn add<TA: Element, TB: Element, TO: Element>(
    m: usize,
    n: usize,
    a: &[TA],
    lda: usize,
    b: &[TB],
    ldb: usize,
    out: &mut [TO],
    ldo: usize,
) {
    debug_assert!(lda >= m && ldb >= m && ldo >= m);
    for c in 0..n {
        let acol = &a[c * lda..c * lda + m];
        let bcol = &b[c * ldb..c * ldb + m];
        let ocol = &mut out[c * ldo..c * ldo + m];
        for ((o, x), y) in ocol.iter_mut().zip(acol).zip(bcol) {
            *o = TO::from_f32(x.to_f32() + y.to_f32());
        }
    }
}

/// Adds a length-`m` bias vector to every column of an `m x n` view.
pub fn bias_add<TB: Element, TO: Element>(
    m: usize,
    n: usize,
    bias: &[TB],
    out: &mut [TO],
    ldo: usize,
) {
    debug_assert!(bias.len() >= m);
    for c in 0..n {
        for r in 0..m {
            let cur = out[c * ldo + r].to_f32();
            out[c * ldo + r] = TO::from_f32(cur + bias[r].to_f32());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::Bf16;

    #[test]
    fn add_is_elementwise() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b = vec![10.0f32, 20.0, 30.0, 40.0];
        let mut o = vec![0.0f32; 4];
        add(2, 2, &a, 2, &b, 2, &mut o, 2);
        assert_eq!(o, vec![11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn mixed_precision_add() {
        let a = vec![Bf16::from(1.5f32), Bf16::from(2.5f32)];
        let b = vec![0.5f32, 0.25];
        let mut o = vec![Bf16::ZERO; 2];
        add(2, 1, &a, 2, &b, 2, &mut o, 2);
        assert_eq!(o[0].to_f32(), 2.0);
        assert_eq!(o[1].to_f32(), 2.75);
    }

    #[test]
    fn bias_add_accumulates_per_row() {
        let bias = vec![1.0f32, -1.0];
        let mut o = vec![10.0f32, 20.0, 30.0, 40.0]; // 2x2
        bias_add(2, 2, &bias, &mut o, 2);
        assert_eq!(o, vec![11.0, 19.0, 31.0, 39.0]);
    }

    #[test]
    fn views_with_strides() {
        // 2x2 views inside ld-4 buffers.
        let a = vec![1.0f32, 2.0, 9.0, 9.0, 3.0, 4.0, 9.0, 9.0];
        let b = vec![5.0f32, 6.0, 9.0, 9.0, 7.0, 8.0, 9.0, 9.0];
        let mut o = vec![0.0f32; 8];
        add(2, 2, &a, 4, &b, 4, &mut o, 4);
        assert_eq!(&o[0..2], &[6.0, 8.0]);
        assert_eq!(&o[4..6], &[10.0, 12.0]);
        assert_eq!(o[2], 0.0); // untouched past the view
    }
}
