//! Micro-benchmarking one GEMM problem on **real packed buffers**: the
//! measured half of the retune loop. Operands are packed (and, for int8,
//! quantized) exactly once per problem — the same pack-once discipline as
//! `pl_dnn::prepared::MatmulPlan` — and every candidate `loop_spec_string`
//! then runs against them, so a measurement prices only what differs
//! between candidates: the loop order and parallelization.

use pl_autotuner::GemmProblem;
use pl_kernels::{Gemm, GemmInt8, GemmShape, GemmTuning};
use pl_runtime::ThreadPool;
use pl_tensor::{
    fill_uniform, quantize_cols_blocked, quantize_weight_a_vnni, BlockedMatrix, DType, Xorshift,
};
use std::time::Instant;

/// The VNNI factor the int8 measurement uses — degraded by halving until
/// it divides the K blocking, mirroring the fit `MatmulPlan` applies when
/// it builds its kernels, so the measured kernel is the served kernel.
fn vnni_fit(v: usize, bk: usize) -> usize {
    let mut f = v.max(1);
    while f > 1 && !bk.is_multiple_of(f) {
        f /= 2;
    }
    f
}

enum Operands {
    F32 {
        weight: BlockedMatrix<f32>,
        act: BlockedMatrix<f32>,
    },
    Int8 {
        qweight: BlockedMatrix<i8>,
        wscales: Vec<f32>,
        qact: BlockedMatrix<i8>,
        ascales: Vec<f32>,
        v: usize,
    },
}

/// Pre-packed operands for one [`GemmProblem`], reusable across every
/// candidate spec measured for it.
pub struct GemmMeasurer {
    problem: GemmProblem,
    operands: Operands,
    out: BlockedMatrix<f32>,
}

impl GemmMeasurer {
    /// Packs (and for [`DType::I8`] quantizes) seeded pseudo-random
    /// operands at the problem's exact blockings (N may be ragged, as
    /// plan activations are: storage is padded to whole column blocks).
    /// Returns `None` for dtypes the serving path has no kernel for, or
    /// when the M/K blockings do not divide the problem (nothing to
    /// measure either way).
    pub fn new(problem: &GemmProblem) -> Option<Self> {
        let (m, n, k) = (problem.m, problem.n, problem.k);
        let (bm, bn, bk) = (problem.bm, problem.bn, problem.bk);
        if bm == 0 || bn == 0 || bk == 0 || n == 0 || m % bm != 0 || k % bk != 0 {
            return None;
        }
        // Blocked B/C storage spans whole column blocks; the kernel never
        // reads the pad columns of a ragged last block.
        let n = n.div_ceil(bn) * bn;
        let mut rng = Xorshift::new(0x5eed ^ (m * 31 + n * 7 + k) as u64);
        let mut wflat = vec![0.0f32; m * k];
        fill_uniform(&mut wflat, &mut rng, -1.0, 1.0);
        let mut aflat = vec![0.0f32; k * n];
        fill_uniform(&mut aflat, &mut rng, -1.0, 1.0);
        let mut act = BlockedMatrix::<f32>::b_layout(k, n, bk, bn).ok()?;
        act.pack_from_colmajor(&aflat);
        let operands = match problem.dtype {
            DType::F32 => {
                let mut weight = BlockedMatrix::<f32>::a_layout(m, k, bm, bk).ok()?;
                weight.pack_from_colmajor(&wflat);
                Operands::F32 { weight, act }
            }
            DType::I8 => {
                let v = vnni_fit(DType::I8.vnni_factor(), bk);
                let (qweight, wscales) = quantize_weight_a_vnni(&wflat, m, k, bm, bk, v).ok()?;
                let mut qact = BlockedMatrix::<i8>::b_layout(k, n, bk, bn).ok()?;
                let mut ascales = vec![0.0f32; n];
                quantize_cols_blocked(&act, &mut qact, &mut ascales);
                Operands::Int8 { qweight, wscales, qact, ascales, v }
            }
            _ => return None,
        };
        let out = BlockedMatrix::<f32>::c_layout(m, n, bm, bn).ok()?;
        Some(GemmMeasurer { problem: *problem, operands, out })
    }

    /// Measures one candidate: builds the kernel for `(spec, blocks)`,
    /// runs one untimed warm-up execution, then takes the best of `reps`
    /// timed executions on `pool`. Returns measured GFLOPS, or `None`
    /// when the kernel rejects the spec (infeasible nest — the candidate
    /// is simply not installable).
    pub fn measure(
        &mut self,
        spec: &str,
        blocks: &[Vec<usize>; 3],
        reps: usize,
        pool: &ThreadPool,
    ) -> Option<f64> {
        let p = &self.problem;
        let shape = GemmShape { m: p.m, n: p.n, k: p.k, bm: p.bm, bn: p.bn, bk: p.bk };
        let tuning = GemmTuning {
            spec: spec.to_string(),
            k_step: 1,
            a_blocks: blocks[0].clone(),
            b_blocks: blocks[1].clone(),
            c_blocks: blocks[2].clone(),
        };
        let c = &mut self.out;
        let mut best = f64::INFINITY;
        match &self.operands {
            Operands::F32 { weight, act } => {
                let g = Gemm::<f32, f32, f32>::new(shape, tuning).ok()?;
                g.execute(weight, act, c, pool).ok()?;
                for _ in 0..reps.max(1) {
                    let t0 = Instant::now();
                    g.execute(weight, act, c, pool).ok()?;
                    best = best.min(t0.elapsed().as_secs_f64());
                }
            }
            Operands::Int8 { qweight, wscales, qact, ascales, v } => {
                let g = GemmInt8::new(shape, tuning, *v).ok()?;
                g.execute(qweight, wscales, qact, ascales, c, pool).ok()?;
                for _ in 0..reps.max(1) {
                    let t0 = Instant::now();
                    g.execute(qweight, wscales, qact, ascales, c, pool).ok()?;
                    best = best.min(t0.elapsed().as_secs_f64());
                }
            }
        }
        let flops = 2.0 * p.m as f64 * p.n as f64 * p.k as f64;
        Some(flops / best.max(1e-12) / 1e9)
    }

    /// The problem being measured.
    pub fn problem(&self) -> &GemmProblem {
        &self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(2)
    }

    #[test]
    fn f32_measurement_scores_legal_specs_and_rejects_garbage() {
        let p = GemmProblem { m: 64, n: 8, k: 64, bm: 32, bn: 8, bk: 32, dtype: DType::F32 };
        let mut m = GemmMeasurer::new(&p).expect("packable problem");
        let pool = pool();
        let empty = [Vec::new(), Vec::new(), Vec::new()];
        let g = m.measure("aBC", &empty, 2, &pool).expect("legal spec measures");
        assert!(g > 0.0 && g.is_finite());
        assert!(m.measure("azq", &empty, 1, &pool).is_none(), "bad spec must not score");
    }

    #[test]
    fn i8_measurement_runs_the_quantized_kernel() {
        let p = GemmProblem { m: 32, n: 4, k: 32, bm: 32, bn: 4, bk: 32, dtype: DType::I8 };
        let mut m = GemmMeasurer::new(&p).expect("quantizable problem");
        let g = m.measure("abC", &[Vec::new(), Vec::new(), Vec::new()], 1, &pool());
        assert!(g.expect("i8 spec measures") > 0.0);
    }

    #[test]
    fn ragged_widths_measure_at_both_precisions() {
        // 7 columns blocked by 4: a full block and a 3-column tail.
        for dtype in [DType::F32, DType::I8] {
            let p = GemmProblem { m: 32, n: 7, k: 32, bm: 32, bn: 4, bk: 32, dtype };
            let mut m = GemmMeasurer::new(&p).expect("ragged N is packable");
            let g = m.measure("aBC", &[Vec::new(), Vec::new(), Vec::new()], 1, &pool());
            assert!(g.expect("ragged spec measures") > 0.0, "{dtype:?}");
        }
    }

    #[test]
    fn indivisible_blockings_and_unsupported_dtypes_are_unmeasurable() {
        let bad = GemmProblem { m: 60, n: 8, k: 64, bm: 32, bn: 8, bk: 32, dtype: DType::F32 };
        assert!(GemmMeasurer::new(&bad).is_none());
        let bf16 = GemmProblem { m: 64, n: 8, k: 64, bm: 32, bn: 8, bk: 32, dtype: DType::Bf16 };
        assert!(GemmMeasurer::new(&bf16).is_none());
    }
}
