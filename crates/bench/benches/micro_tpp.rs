//! Micro-benchmarks of the elementwise/normalization TPPs.

use pl_bench::{f1, header, ns_per_iter, row};
use pl_tensor::Xorshift;
use std::hint::black_box;

fn main() {
    let (m, n) = (64usize, 64usize);
    let mut rng = Xorshift::new(2);
    let x: Vec<f32> = (0..m * n).map(|_| rng.next_f32() - 0.5).collect();
    let mut y = vec![0.0f32; m * n];
    let gamma = vec![1.0f32; m];
    let beta = vec![0.0f32; m];
    let mut mean = vec![0.0f32; n];
    let mut rstd = vec![0.0f32; n];
    let elems = (m * n) as f64;
    let report = |name: &str, ns: f64| row(&[name.into(), f1(ns), f1(elems / ns * 1e3)]);

    header("tpp", &["kernel", "ns/iter", "Melem/s"]);
    report(
        "relu_64x64",
        ns_per_iter(100, || pl_tpp::unary::relu(m, n, black_box(&x), m, &mut y, m)),
    );
    report(
        "gelu_64x64",
        ns_per_iter(100, || pl_tpp::unary::gelu(m, n, black_box(&x), m, &mut y, m)),
    );
    report(
        "softmax_cols_64x64",
        ns_per_iter(100, || pl_tpp::softmax::softmax_cols(m, n, black_box(&x), m, &mut y, m)),
    );
    report(
        "layernorm_64x64",
        ns_per_iter(100, || {
            pl_tpp::norm::layernorm(
                m,
                n,
                black_box(&x),
                m,
                &gamma,
                &beta,
                1e-5,
                &mut y,
                m,
                &mut mean,
                &mut rstd,
            )
        }),
    );
    report(
        "transpose_64x64",
        ns_per_iter(100, || pl_tpp::transform::transpose(m, n, black_box(&x), m, &mut y, n)),
    );
}
