//! Auto-tuning a GEMM (paper §II-D + Fig. 1): generate candidate
//! loop_spec_strings under constraints, score them with the offline
//! performance model, and verify the top candidates by measurement.
//!
//! ```sh
//! cargo run --release --example autotune_gemm
//! ```

use pl_autotuner::{blocks_for_spec, tune_gemm_modeled, Constraints, GemmProblem, Platform};
use pl_kernels::{Gemm, GemmShape, GemmTuning};
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, BlockedMatrix, DType, Xorshift};

fn main() {
    let (m, n, k) = (384usize, 256usize, 384usize);
    let shape = GemmShape::with_default_blocks(m, n, k);
    let pool = global_pool();
    let host = Platform::generic_host(pool.nthreads());
    let problem =
        GemmProblem { m, n, k, bm: shape.bm, bn: shape.bn, bk: shape.bk, dtype: DType::F32 };

    // Phase 1: offline, model-based search (cross-platform capable).
    let constraints = Constraints::gemm(1, 2, 2, 200);
    let modeled = tune_gemm_modeled(&problem, &constraints, &host, pool.nthreads());
    println!(
        "modeled {} candidates in {:.2}s; top-5:",
        modeled.evaluated.len(),
        modeled.search_seconds
    );
    for c in modeled.evaluated.iter().take(5) {
        println!("  {:<12} {:>8.1} GF (modeled)", c.spec, c.score);
    }

    // Phase 2: measure the top-5 on the real kernel, pick the winner.
    let mut rng = Xorshift::new(1);
    let mut a_cm = vec![0.0f32; m * k];
    let mut b_cm = vec![0.0f32; k * n];
    fill_uniform(&mut a_cm, &mut rng, -0.5, 0.5);
    fill_uniform(&mut b_cm, &mut rng, -0.5, 0.5);
    let mut a = BlockedMatrix::<f32>::a_layout(m, k, shape.bm, shape.bk).unwrap();
    a.pack_from_colmajor(&a_cm);
    let mut b = BlockedMatrix::<f32>::b_layout(k, n, shape.bk, shape.bn).unwrap();
    b.pack_from_colmajor(&b_cm);

    let mut best: Option<(String, f64)> = None;
    for cand in modeled.evaluated.iter().take(5) {
        let Some(blocks) = blocks_for_spec(&problem, &cand.spec) else { continue };
        let tuning = GemmTuning {
            spec: cand.spec.clone(),
            k_step: 1,
            a_blocks: blocks[0].clone(),
            b_blocks: blocks[1].clone(),
            c_blocks: blocks[2].clone(),
        };
        let Ok(kernel) = Gemm::<f32, f32, f32>::new(shape, tuning) else { continue };
        let mut c = BlockedMatrix::<f32>::c_layout(m, n, shape.bm, shape.bn).unwrap();
        kernel.execute(&a, &b, &mut c, pool).unwrap(); // warm-up
        let t0 = std::time::Instant::now();
        for _ in 0..5 {
            kernel.execute(&a, &b, &mut c, pool).unwrap();
        }
        let gf = shape.flops() as f64 / (t0.elapsed().as_secs_f64() / 5.0) / 1e9;
        println!("  {:<12} {gf:>8.1} GF (measured)", cand.spec);
        if best.as_ref().is_none_or(|(_, g)| gf > *g) {
            best = Some((cand.spec.clone(), gf));
        }
    }

    let (spec, gf) = best.expect("at least one candidate measured");
    println!("\nwinner: {spec} at {gf:.1} GF");
}
