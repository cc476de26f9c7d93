//! Baseline emulations (see DESIGN.md substitution table).
//!
//! Every comparator of the paper's evaluation is closed-source or
//! unavailable in this environment, so each is re-expressed through the
//! same performance model with the *characteristics the paper attributes
//! to it*: oneDNN's flat-B layout and fixed heuristics, TVM's deeper
//! search space without low-precision codegen, Mojo's static
//! tiling/parallelization hints, DeepSparse's element-wise unstructured
//! sparsity, HuggingFace/IPEX's unfused padded execution.

use pl_autotuner::{tune_gemm_modeled, Constraints, GemmProblem};
use pl_perfmodel::{GemmModelSpec, Platform};
use pl_tensor::DType;

/// Model-space block size: the largest divisor of `d` up to 256. Coarser
/// slices keep the trace simulation cheap for 4096-scale problems without
/// changing who wins (both sides use the same granularity).
pub fn model_block(d: usize) -> usize {
    for cand in [256, 192, 128, 96, 64, 48, 32, 16, 8, 4, 2, 1] {
        if d.is_multiple_of(cand) {
            return cand;
        }
    }
    1
}

/// Candidate budget scaled to problem size (trace cost grows cubically).
fn candidate_budget(m: usize, n: usize, k: usize) -> usize {
    match m.max(n).max(k) {
        0..=1024 => 48,
        1025..=2048 => 16,
        _ => 8,
    }
}

/// PARLOOPER: best modeled schedule from the §II-D candidate space, with
/// the batch reduction fully folded.
pub fn parlooper_gemm_gflops(
    platform: &Platform,
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    dtype: DType,
) -> f64 {
    let (bm, bn, bk) = (model_block(m), model_block(n), model_block(k));
    let problem = GemmProblem { m, n, k, bm, bn, bk, dtype };
    let constraints = Constraints::gemm(1, 2, 2, candidate_budget(m, n, k));
    let tuned = tune_gemm_modeled(&problem, &constraints, platform, threads);
    // Also consider folding all K blocks into one BRGEMM (k_step = Kb),
    // which the generator's k_step=1 candidates miss.
    let folded = GemmModelSpec {
        m,
        n,
        k,
        bm,
        bn,
        bk,
        k_step: k / bk,
        spec: "BCa".into(),
        blocks: [vec![], vec![], vec![]],
        dtype,
    }
    .predict(platform, threads)
    .map(|p| p.gflops)
    .unwrap_or(0.0);
    tuned.best.score.max(folded)
}

/// oneDNN-like: blocked A but *flat* B (the paper attributes oneDNN's
/// large-leading-dimension glass jaw to the non-blocked B layout) and one
/// fixed heuristic schedule for every shape.
pub fn onednn_gemm_gflops(
    platform: &Platform,
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    dtype: DType,
) -> f64 {
    let (bm, bn) = (model_block(m), model_block(n));
    // Flat B: the whole K-extent of a column panel is one slice (bk = k),
    // so B panels stream through the hierarchy instead of tiling into it.
    let spec = GemmModelSpec {
        m,
        n,
        k,
        bm,
        bn,
        bk: k,
        k_step: 1,
        spec: "BCa".into(),
        blocks: [vec![], vec![], vec![]],
        dtype,
    };
    spec.predict(platform, threads).map(|p| p.gflops).unwrap_or(0.0)
}

/// TVM-Autoscheduler-like: searches a far deeper space (down to register
/// blocking), emulated as (i) final performance from a restricted outer
/// space without batch-reduce folding, (ii) **no low-precision codegen**
/// (the paper: TVM "generated slow replacement instruction sequences" for
/// BF16 — modeled as FP32 execution), (iii) per-candidate costs dominated
/// by compilation.
pub fn tvm_gemm_gflops(
    platform: &Platform,
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    dtype: DType,
) -> f64 {
    let eff_dtype = DType::F32; // no usable BF16 path
    let _ = dtype;
    let problem = GemmProblem {
        m,
        n,
        k,
        bm: model_block(m),
        bn: model_block(n),
        bk: model_block(k),
        dtype: eff_dtype,
    };
    // No multi-level cache blocking in the candidate set (TVM spends its
    // budget on the microkernel dimensions our TPP backend already owns).
    let constraints = Constraints::gemm(0, 0, 0, candidate_budget(m, n, k).min(12));
    let tuned = tune_gemm_modeled(&problem, &constraints, platform, threads);
    tuned.best.score
}

/// Autotuning wall-clock estimate: `candidates x per-candidate seconds`.
/// PARLOOPER candidates cost a kernel run (JIT cached); TVM candidates pay
/// compilation + measurement (paper: 1000 schedules in 17-50 min).
pub fn autotune_seconds(candidates: usize, per_candidate_s: f64) -> f64 {
    candidates as f64 * per_candidate_s
}

/// Mojo-like: one static tiling + parallelization for every shape
/// (the blog's hand-set hints), no per-shape schedule search, no batch
/// reduce.
pub fn mojo_gemm_gflops(platform: &Platform, threads: usize, m: usize, n: usize, k: usize) -> f64 {
    let spec = GemmModelSpec {
        m,
        n,
        k,
        bm: model_block(m),
        bn: model_block(n),
        bk: model_block(k),
        k_step: 1,
        spec: "CBa".into(), // fixed order, single-loop parallelism
        blocks: [vec![], vec![], vec![]],
        dtype: DType::F32,
    };
    spec.predict(platform, threads).map(|p| p.gflops).unwrap_or(0.0)
}

/// DeepSparse-like unstructured sparse inference: element-wise sparsity
/// cannot use register-blocked microkernels; effective element efficiency
/// relative to a dense FP32 kernel (paper Fig. 10 right: ours is 1.56x
/// faster at equal sparsity/F1).
pub const DEEPSPARSE_ELEMENT_EFFICIENCY: f64 = 0.45;

/// Fraction of a transformer layer that is *not* weight contractions
/// (softmax/layernorm/bias/dropout) — the part sparsity cannot speed up;
/// used for Fig. 10's roofline exactly as the paper builds it.
pub const BERT_NON_CONTRACTION_FRACTION: f64 = 0.12;

/// End-to-end efficiency factors for the transformer stacks (Fig. 9/11):
/// fraction of GEMM-peak each software stack sustains, encoding what the
/// paper attributes to each (padding waste, missing fusion, fixed loop
/// orders).
pub mod stack_eff {
    /// HuggingFace eager FP32 (padded, unfused).
    pub const HF: f64 = 0.22;
    /// IPEX + oneDNN (fused ops, padded tensors).
    pub const IPEX: f64 = 0.45;
    /// TPP with fixed loop orders (prior work \[12\], unpadded + fused).
    pub const TPP_FIXED: f64 = 0.62;
    /// PARLOOPER-tuned TPP (this work): +22% over fixed loops on SPR.
    pub const PARLOOPER: f64 = 0.76;
    /// Padding waste factor of padded stacks (SQuAD: ~2x tokens).
    pub const PAD_WASTE: f64 = 2.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parlooper_beats_or_matches_onednn() {
        let p = Platform::spr();
        for &(m, n, k) in &[(512, 512, 512), (1024, 1024, 1024)] {
            let ours = parlooper_gemm_gflops(&p, 56, m, n, k, DType::F32);
            let theirs = onednn_gemm_gflops(&p, 56, m, n, k, DType::F32);
            assert!(ours >= 0.95 * theirs, "{m}: {ours} vs {theirs}");
        }
    }

    #[test]
    fn tvm_has_no_bf16_path() {
        let p = Platform::spr();
        let tvm_bf16 = tvm_gemm_gflops(&p, 56, 512, 512, 512, DType::Bf16);
        let ours_bf16 = parlooper_gemm_gflops(&p, 56, 512, 512, 512, DType::Bf16);
        assert!(ours_bf16 > 1.5 * tvm_bf16, "{ours_bf16} vs {tvm_bf16}");
    }

    #[test]
    fn autotune_cost_model() {
        // PARLOOPER: ~1000 configs at ~100ms; TVM: 1000 at ~1.5s+.
        let ours = autotune_seconds(1000, 0.1);
        let tvm = autotune_seconds(1000, 1.5);
        assert!(tvm / ours > 10.0);
    }
}
