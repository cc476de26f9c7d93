//! Search drivers: evaluate candidate spec strings by measurement or by
//! the performance model (paper Fig. 1, boxes B2/B3), keep the best.

use crate::gen::{blocking_ladder, generate, Constraints};
use crate::model::{rank_gemm_candidates, GemmModelSpec};
use crate::platform::Platform;
use pl_tensor::DType;
use std::time::Instant;

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The spec string.
    pub spec: String,
    /// Blocking-step lists used for loops a/b/c.
    pub blocks: [Vec<usize>; 3],
    /// Score (GFLOPS — higher is better).
    pub score: f64,
}

/// Search outcome.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// Best candidate found.
    pub best: Candidate,
    /// Everything evaluated, sorted best-first.
    pub evaluated: Vec<Candidate>,
    /// Wall time of the search in seconds.
    pub search_seconds: f64,
}

/// A GEMM tuning problem (block sizes already fixed; the search explores
/// outer-loop structure only — the paper's key search-space reduction
/// versus full tensor compilers, §V-A2).
#[derive(Debug, Clone, Copy)]
pub struct GemmProblem {
    /// GEMM M.
    pub m: usize,
    /// GEMM N.
    pub n: usize,
    /// GEMM K.
    pub k: usize,
    /// M block.
    pub bm: usize,
    /// N block.
    pub bn: usize,
    /// K block.
    pub bk: usize,
    /// Datatype.
    pub dtype: DType,
}

impl GemmProblem {
    fn model_spec(&self, spec: &str, blocks: [Vec<usize>; 3], k_step: usize) -> GemmModelSpec {
        GemmModelSpec {
            m: self.m,
            n: self.n,
            k: self.k,
            bm: self.bm,
            bn: self.bn,
            bk: self.bk,
            k_step,
            spec: spec.to_string(),
            blocks,
            dtype: self.dtype,
        }
    }
}

/// Derives the per-loop blocking lists a candidate spec needs: the first
/// `occurrences - 1` rungs of the loop's prime-factor ladder. Returns
/// `None` when the ladder is too short (spec infeasible for this problem).
pub fn blocks_for_spec(problem: &GemmProblem, spec: &str) -> Option<[Vec<usize>; 3]> {
    // N may be ragged (activation operands block by the register tile).
    let trips = [problem.k / problem.bk, problem.m / problem.bm, problem.n.div_ceil(problem.bn)];
    let mut out: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (l, t) in trips.iter().enumerate() {
        let occ = spec.chars().filter(|c| c.to_ascii_lowercase() as u8 == b'a' + l as u8).count();
        if occ == 0 {
            return None;
        }
        let ladder = blocking_ladder(*t, 1);
        if occ - 1 > ladder.len() {
            return None;
        }
        out[l] = ladder[..occ - 1].to_vec();
    }
    Some(out)
}

/// Model-based (offline, cross-platform) tuning of a GEMM problem.
pub fn tune_gemm_modeled(
    problem: &GemmProblem,
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
) -> TuneResult {
    let t0 = Instant::now();
    let mut candidates: Vec<(String, [Vec<usize>; 3])> = Vec::new();
    for spec in generate(3, constraints) {
        let Some(blocks) = blocks_for_spec(problem, &spec) else {
            continue;
        };
        candidates.push((spec, blocks));
    }
    let template = problem.model_spec("abc", [Vec::new(), Vec::new(), Vec::new()], 1);
    let ranked = rank_gemm_candidates(&template, &candidates, platform, threads);
    let evaluated = ranked
        .into_iter()
        .map(|(i, pred)| Candidate {
            spec: candidates[i].0.clone(),
            blocks: candidates[i].1.clone(),
            score: pred.gflops,
        })
        .collect();
    finish(evaluated, t0)
}

fn finish(mut evaluated: Vec<Candidate>, t0: Instant) -> TuneResult {
    evaluated.sort_by(|a, b| b.score.total_cmp(&a.score));
    let best = evaluated.first().cloned().unwrap_or(Candidate {
        spec: "abc".into(),
        blocks: [Vec::new(), Vec::new(), Vec::new()],
        score: 0.0,
    });
    TuneResult { best, evaluated, search_seconds: t0.elapsed().as_secs_f64() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> GemmProblem {
        GemmProblem { m: 256, n: 256, k: 256, bm: 32, bn: 32, bk: 32, dtype: DType::F32 }
    }

    #[test]
    fn modeled_search_prefers_parallel_specs() {
        let c = Constraints::gemm(0, 1, 1, 300);
        let r = tune_gemm_modeled(&problem(), &c, &Platform::zen4(), 16);
        assert!(!r.evaluated.is_empty());
        assert!(
            r.best.spec.chars().any(|ch| ch.is_ascii_uppercase()),
            "best spec {} should be parallel",
            r.best.spec
        );
        // Sorted best-first.
        for w in r.evaluated.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn blocks_follow_ladders() {
        let p = problem(); // 8 blocks per dim -> ladder [4, 2]
        let blocks = blocks_for_spec(&p, "aabbc").unwrap();
        assert_eq!(blocks[0], vec![4]);
        assert_eq!(blocks[1], vec![4]);
        assert!(blocks[2].is_empty());
        // Too many occurrences for the ladder (8 = 2^3 -> at most 2 rungs
        // below the extent, so 4 occurrences are infeasible).
        assert!(blocks_for_spec(&p, "aaaabc").is_none());
    }

    #[test]
    fn search_reports_wall_time() {
        let c = Constraints::gemm(0, 0, 0, 10);
        let r = tune_gemm_modeled(&problem(), &c, &Platform::zen4(), 4);
        assert!(r.search_seconds >= 0.0);
    }
}
