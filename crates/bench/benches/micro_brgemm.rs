//! Micro-benchmarks of the BRGEMM TPP microkernels.

use pl_bench::{f1, header, ns_per_iter, row};
use pl_tensor::{Bf16, Xorshift};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc};
use std::hint::black_box;

fn main() {
    header("brgemm", &["kernel", "ns/iter", "Melem/s"]);
    for &(m, n, k, br, iters) in
        &[(32usize, 32usize, 32usize, 1usize, 200usize), (64, 64, 64, 4, 10)]
    {
        let flops = (2 * m * n * k * br) as f64;
        let mut rng = Xorshift::new(1);
        let a: Vec<f32> = (0..m * k * br).map(|_| rng.next_f32()).collect();
        let b: Vec<f32> = (0..k * n * br).map(|_| rng.next_f32()).collect();
        let mut cbuf = vec![0.0f32; m * n];
        let kernel = Brgemm::<f32, f32, f32>::new(BrgemmDesc::blocked(m, n, k));
        let ns = ns_per_iter(iters, || {
            kernel.execute_stride(black_box(&a), m * k, black_box(&b), k * n, &mut cbuf, br);
        });
        row(&[format!("f32_{m}x{n}x{k}_br{br}"), f1(ns), f1(flops / ns * 1e3)]);

        let ab: Vec<Bf16> = a.iter().map(|&v| Bf16::from(v)).collect();
        let bb: Vec<Bf16> = b.iter().map(|&v| Bf16::from(v)).collect();
        let kernel_bf = Brgemm::<Bf16, Bf16, f32>::new(BrgemmDesc::blocked(m, n, k));
        let ns = ns_per_iter(iters, || {
            kernel_bf.execute_stride(black_box(&ab), m * k, black_box(&bb), k * n, &mut cbuf, br);
        });
        row(&[format!("bf16_{m}x{n}x{k}_br{br}"), f1(ns), f1(flops / ns * 1e3)]);
    }
}
