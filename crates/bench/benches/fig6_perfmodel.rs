//! Figure 6: performance-model validation — modeled vs measured GFLOPS
//! across loop_spec_strings on the *host* machine.
//!
//! Paper shape: the model captures the trends; the top-5 modeled schedules
//! always contain the most performant measured instantiation.

use pl_autotuner::{blocks_for_spec, generate, Constraints, GemmModelSpec, GemmProblem, Platform};
use pl_bench::{f1, header, row};
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, BlockedMatrix, DType, Xorshift};

fn main() {
    let pool = global_pool();
    let threads = pool.nthreads();
    let host = Platform::generic_host(threads);

    for &(m, n, k) in &[(256usize, 256usize, 256usize), (512, 128, 256)] {
        let shape = GemmShape::with_default_blocks(m, n, k);
        let problem =
            GemmProblem { m, n, k, bm: shape.bm, bn: shape.bn, bk: shape.bk, dtype: DType::F32 };

        // Candidate schedules (parallel-only to keep measurement
        // meaningful on the host team).
        let specs: Vec<String> = generate(3, &Constraints::gemm(1, 1, 1, 400))
            .into_iter()
            .filter(|s| s.chars().any(|c| c.is_ascii_uppercase()))
            .take(16)
            .collect();

        // Data.
        let mut rng = Xorshift::new(7);
        let mut a_cm = vec![0.0f32; m * k];
        let mut b_cm = vec![0.0f32; k * n];
        fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
        fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
        let mut a = BlockedMatrix::<f32>::a_layout(m, k, shape.bm, shape.bk).unwrap();
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::<f32>::b_layout(k, n, shape.bk, shape.bn).unwrap();
        b.pack_from_colmajor(&b_cm);

        header(
            &format!("Fig.6 model vs measured, {m}x{n}x{k} on host ({threads} threads)"),
            &["spec", "measured GF", "modeled GF"],
        );
        let mut measured: Vec<(String, f64)> = Vec::new();
        let mut modeled: Vec<(String, f64)> = Vec::new();
        for spec in &specs {
            let Some(blocks) = blocks_for_spec(&problem, spec) else { continue };
            let tuning = GemmTuning {
                spec: spec.clone(),
                k_step: 1,
                a_blocks: blocks[0].clone(),
                b_blocks: blocks[1].clone(),
                c_blocks: blocks[2].clone(),
            };
            let Ok(kernel) = Gemm::<f32, f32, f32>::new(shape, tuning) else { continue };
            let mut c = BlockedMatrix::<f32>::c_layout(m, n, shape.bm, shape.bn).unwrap();
            let t = pl_bench::time_it(3, || kernel.execute(&a, &b, &mut c, pool).unwrap());
            let meas = pl_bench::gflops(shape.flops() as f64, t);

            let model = GemmModelSpec {
                m,
                n,
                k,
                bm: shape.bm,
                bn: shape.bn,
                bk: shape.bk,
                k_step: 1,
                spec: spec.clone(),
                blocks,
                dtype: DType::F32,
            };
            let pred = model.predict(&host, threads).map(|p| p.gflops).unwrap_or(0.0);
            row(&[spec.clone(), f1(meas), f1(pred)]);
            measured.push((spec.clone(), meas));
            modeled.push((spec.clone(), pred));
        }

        // Top-5 check.
        measured.sort_by(|x, y| y.1.total_cmp(&x.1));
        modeled.sort_by(|x, y| y.1.total_cmp(&x.1));
        let best_measured = &measured[0].0;
        let top5: Vec<&String> = modeled.iter().take(5).map(|(s, _)| s).collect();
        let hit = top5.contains(&best_measured);
        println!("\nBest measured: {best_measured}; top-5 modeled: {:?}; contained: {hit}", top5);
    }
}
