//! TPP *equations*: fused multi-operator primitives (the paper's
//! `layernorm_tpp_eqn` in Listing 6 line 18, and friends).
//!
//! What is left here is the MLP's GEMM epilogue. BERT's Listing-6
//! epilogues (bias, residual and layernorm after SelfOutput / Output, bias
//! and GELU after Intermediate) are column phases of its layer runner over
//! the per-column TPPs ([`crate::binary`], [`crate::norm`],
//! [`crate::unary`]).

use pl_tensor::Element;

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
    fn bias_activations() {
        let x = vec![-1.0f32, 0.5, 2.0, -0.25];
        let bias = vec![0.5f32, 0.5];
        let mut r = x.clone();
        bias_relu(2, 2, &bias, &mut r, 2);
        assert_eq!(r, vec![0.0, 1.0, 2.5, 0.25]);
    }
}
