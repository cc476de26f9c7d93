//! Micro-benchmarks of the BRGEMM TPP microkernel: full column panels, a
//! width-1 call (the shape of every decode projection) and the int8
//! kernel. The rate column counts `2 * m * n * k * brcount` operations per
//! call (integer operations in the `i8` rows). A last table times building
//! a kernel handle, which `Gemm` does for every ragged last block.

use pl_bench::{f1, header, ns_per_iter, row};
use pl_tensor::{Bf16, Xorshift};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc, BrgemmI8};
use std::hint::black_box;

fn main() {
    header("brgemm", &["kernel", "ns/iter", "MFLOP/s"]);
    for &(m, n, k, br, iters) in
        &[(32usize, 32usize, 32usize, 1usize, 200usize), (64, 64, 64, 4, 10), (64, 1, 64, 4, 400)]
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

        // The layout of the A bytes does not change the work, so the
        // unpacked draw stands in for a VNNI-packed weight.
        let aq: Vec<i8> = a.iter().map(|&v| (v * 254.0 - 127.0) as i8).collect();
        let bq: Vec<i8> = b.iter().map(|&v| (v * 254.0 - 127.0) as i8).collect();
        let (row_scales, col_scales) = (vec![0.01f32; m], vec![0.01f32; n]);
        let kernel_i8 = BrgemmI8::new(BrgemmDesc::blocked(m, n, k), 4);
        let ns = ns_per_iter(iters, || {
            kernel_i8.execute_stride(
                black_box(&aq),
                m * k,
                black_box(&bq),
                k * n,
                &mut cbuf,
                br,
                &row_scales,
                &col_scales,
            );
        });
        row(&[format!("i8_{m}x{n}x{k}_br{br}"), f1(ns), f1(flops / ns * 1e3)]);
    }

    header("brgemm handle", &["kernel", "ns/new"]);
    let desc = BrgemmDesc::blocked(64, 3, 64);
    let ns = ns_per_iter(100_000, || {
        black_box(Brgemm::<f32, f32, f32>::new(black_box(desc)));
    });
    row(&["f32_64x3x64".to_string(), f1(ns)]);
    let ns = ns_per_iter(100_000, || {
        black_box(BrgemmI8::new(black_box(desc), 4));
    });
    row(&["i8_64x3x64".to_string(), f1(ns)]);
}
