//! Unary TPPs over 2-D sub-tensors: `zero` and the activations (with
//! GELU's backward pass).
//!
//! Every operator takes column-major `(m, n, ldi, ldo)` views so it can act
//! on a sub-tensor of a larger blocked tensor — the defining property of
//! TPPs (they operate "at the sub-tensor granularity", paper §I).
//!
//! All computation widens to f32 (precision-aware semantics; see
//! [`crate::Element`]).

use pl_tensor::Element;

/// Iterates column-major over an input and an output view in lockstep.
#[inline(always)]
fn map2<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
    ldo: usize,
    f: impl Fn(f32) -> f32,
) {
    debug_assert!(ldi >= m && ldo >= m, "leading dims must cover rows");
    for c in 0..n {
        let icol = &input[c * ldi..c * ldi + m];
        let ocol = &mut out[c * ldo..c * ldo + m];
        for (o, i) in ocol.iter_mut().zip(icol) {
            *o = TO::from_f32(f(i.to_f32()));
        }
    }
}

/// `zero_tpp`: sets an `m x n` view to zero (paper Listing 1, line 15).
pub fn zero<T: Element>(m: usize, n: usize, out: &mut [T], ldo: usize) {
    for c in 0..n {
        out[c * ldo..c * ldo + m].iter_mut().for_each(|v| *v = T::default());
    }
}

/// ReLU forward (paper §III-A1).
pub fn relu<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
    ldo: usize,
) {
    map2(m, n, input, ldi, out, ldo, |x| x.max(0.0));
}

/// The tanh-based GELU approximation used throughout BERT-era models.
#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044715 * x * x * x)).tanh())
}

/// Derivative of [`gelu_scalar`].
#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044715 * x3);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * x * x)
}

/// GELU forward (paper §IV-A, Bert-Intermediate layer).
pub fn gelu<TI: Element, TO: Element>(
    m: usize,
    n: usize,
    input: &[TI],
    ldi: usize,
    out: &mut [TO],
    ldo: usize,
) {
    map2(m, n, input, ldi, out, ldo, gelu_scalar);
}

/// GELU backward: `dx = dy * gelu'(x)` (needs the forward input).
pub fn gelu_backward<TI: Element, TG: Element, TO: Element>(
    m: usize,
    n: usize,
    x: &[TI],
    ldx: usize,
    dy: &[TG],
    ldg: usize,
    dx: &mut [TO],
    ldo: usize,
) {
    for c in 0..n {
        for r in 0..m {
            let g = dy[c * ldg + r].to_f32() * gelu_grad_scalar(x[c * ldx + r].to_f32());
            dx[c * ldo + r] = TO::from_f32(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::Bf16;

    fn colmajor(m: usize, n: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
        let mut v = vec![0.0; m * n];
        for c in 0..n {
            for r in 0..m {
                v[c * m + r] = f(r, c);
            }
        }
        v
    }

    #[test]
    fn zero_respects_ld_and_view() {
        let mut buf = vec![1.0f32; 6 * 4]; // ld 6, view 4x4
        zero(4, 4, &mut buf, 6);
        for c in 0..4 {
            for r in 0..6 {
                let expect = if r < 4 { 0.0 } else { 1.0 };
                assert_eq!(buf[c * 6 + r], expect, "r={r} c={c}");
            }
        }
    }

    #[test]
    fn relu_converts_precision() {
        let src = colmajor(3, 3, |r, c| (r + 10 * c) as f32 + 0.25);
        let mut dst = vec![Bf16::ZERO; 9];
        relu(3, 3, &src, 3, &mut dst, 3);
        // 0.25 is exactly representable in bf16 for these magnitudes.
        for i in 0..9 {
            assert_eq!(dst[i].to_f32(), src[i]);
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let src = colmajor(4, 2, |r, c| r as f32 - 1.5 + c as f32);
        let mut dst = vec![0.0f32; 8];
        relu(4, 2, &src, 4, &mut dst, 4);
        for i in 0..8 {
            assert_eq!(dst[i], src[i].max(0.0));
        }
    }

    #[test]
    fn gelu_reference_points() {
        // GELU(0) = 0, GELU is odd-ish: gelu(x) + gelu(-x) = x... actually
        // gelu(x) - x/2 is odd; check a few known values of the tanh approx.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu_scalar(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive ~ identity, large negative ~ 0.
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu_scalar(-10.0).abs() < 1e-4);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0] {
            let h = 1e-3;
            let fd = (gelu_scalar(x + h) - gelu_scalar(x - h)) / (2.0 * h);
            assert!((gelu_grad_scalar(x) - fd).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn different_input_output_lds() {
        let src = colmajor(8, 2, |r, c| (r + c) as f32); // ld 8
        let mut dst = vec![0.0f32; 5 * 2]; // ld 5
        relu(4, 2, &src, 8, &mut dst, 5);
        for c in 0..2 {
            for r in 0..4 {
                assert_eq!(dst[c * 5 + r], (r + c) as f32);
            }
        }
    }
}
