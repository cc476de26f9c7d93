//! Search drivers: evaluate candidate spec strings by measurement or by
//! the performance model (paper Fig. 1, boxes B2/B3), keep the best.

use crate::gen::{blocking_ladder, generate, Constraints};
use pl_perfmodel::{GemmModelSpec, Platform};
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
    tune_modeled_filtered(problem, constraints, platform, threads, |_| true)
}

/// Model-based tuning of a Block-SpMM problem: the same constraint-driven
/// candidate space as the GEMM search, restricted to specs feasible for
/// `SpmmTuning` (exactly one K-loop occurrence — the Block-SpMM kernel's K
/// loop supports no extra blocking), scored with the dense-equivalent GEMM
/// model. A measured SpMM search would refine the scores; the *structural*
/// winner (loop order + parallelization) is what the `spmm/...` registry
/// keys need so `lookup_spmm` stops falling through.
pub fn tune_spmm_modeled(
    problem: &GemmProblem,
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
) -> TuneResult {
    tune_modeled_filtered(problem, constraints, platform, threads, |spec| {
        spec.chars().filter(|c| c.eq_ignore_ascii_case(&'a')).count() == 1
    })
}

fn tune_modeled_filtered(
    problem: &GemmProblem,
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
    feasible: impl Fn(&str) -> bool,
) -> TuneResult {
    let t0 = Instant::now();
    let mut candidates: Vec<(String, [Vec<usize>; 3])> = Vec::new();
    for spec in generate(3, constraints) {
        if !feasible(&spec) {
            continue;
        }
        let Some(blocks) = blocks_for_spec(problem, &spec) else {
            continue;
        };
        candidates.push((spec, blocks));
    }
    let template = problem.model_spec("abc", [Vec::new(), Vec::new(), Vec::new()], 1);
    let ranked = pl_perfmodel::rank_gemm_candidates(&template, &candidates, platform, threads);
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

/// Measured tuning: the caller provides the evaluation function
/// (e.g. running the real kernel and reporting GFLOPS).
pub fn tune_gemm_measured(
    problem: &GemmProblem,
    constraints: &Constraints,
    mut run: impl FnMut(&str, &[Vec<usize>; 3]) -> Option<f64>,
) -> TuneResult {
    let t0 = Instant::now();
    let mut evaluated = Vec::new();
    for spec in generate(3, constraints) {
        let Some(blocks) = blocks_for_spec(problem, &spec) else {
            continue;
        };
        if let Some(score) = run(&spec, &blocks) {
            evaluated.push(Candidate { spec, blocks, score });
        }
    }
    finish(evaluated, t0)
}

/// Ranked measured tuning — the retune loop's search driver. The
/// analytical model ranks the full constraint-generated candidate space
/// (via [`pl_perfmodel::rank_gemm_candidates`]); only the `top_k`
/// survivors are handed to the caller's measurement function, plus any
/// `extra_specs` (typically the incumbent spec, so a planted or stale
/// winner is re-scored against the challengers rather than surviving by
/// default). The returned [`TuneResult`] is sorted by *measured* score;
/// candidates whose measurement returns `None` (kernel build failure,
/// budget exhausted) are dropped.
pub fn tune_gemm_ranked_measured(
    problem: &GemmProblem,
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
    top_k: usize,
    extra_specs: &[String],
    mut run: impl FnMut(&str, &[Vec<usize>; 3]) -> Option<f64>,
) -> TuneResult {
    let t0 = Instant::now();
    let ranked = tune_gemm_modeled(problem, constraints, platform, threads).evaluated;
    let mut to_measure: Vec<(String, [Vec<usize>; 3])> = Vec::new();
    for cand in ranked.into_iter().take(top_k) {
        to_measure.push((cand.spec, cand.blocks));
    }
    for spec in extra_specs {
        if to_measure.iter().any(|(s, _)| s == spec) {
            continue;
        }
        if let Some(blocks) = blocks_for_spec(problem, spec) {
            to_measure.push((spec.clone(), blocks));
        }
    }
    let mut evaluated = Vec::new();
    for (spec, blocks) in to_measure {
        if let Some(score) = run(&spec, &blocks) {
            evaluated.push(Candidate { spec, blocks, score });
        }
    }
    finish(evaluated, t0)
}

/// A power-of-two width ladder: `1, 2, 4, ...` up to `max`, plus `max`
/// itself when it is not a power of two. Serving runtimes warm the
/// N-dimension variants of their per-layer GEMMs on this schedule for
/// widths too numerous to enumerate (prompt lengths); consumers round a
/// missed width up to the next rung to reuse the nearest warmed spec.
pub fn batch_ladder(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = 1usize;
    while b <= max {
        out.push(b);
        b *= 2;
    }
    if *out.last().unwrap_or(&0) != max && max > 0 {
        out.push(max);
    }
    out
}

/// Warms a [`crate::TuningDb`] with the model-based winners for a set of GEMM
/// problems on one platform — the serving runtime calls this at startup for
/// every shape its batcher can produce, so steady-state traffic never pays
/// search latency. Problems already present in the DB (same key) are
/// skipped; returns the number of entries added.
pub fn warm_gemm_db(
    db: &mut crate::db::TuningDb,
    problems: &[GemmProblem],
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
) -> usize {
    let mut added = 0;
    for p in problems {
        let key = crate::db::TuningDb::gemm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
        if db.get(&key).is_some() {
            continue;
        }
        let result = tune_gemm_modeled(p, constraints, platform, threads);
        db.put(&key, crate::db::DbEntry { spec: result.best.spec, score: result.best.score });
        added += 1;
    }
    added
}

/// SpMM companion of [`warm_gemm_db`] — warms the `spmm/...` keys for a
/// set of problems via [`tune_spmm_modeled`], so a serving runtime's
/// startup warm-up leaves the Block-SpMM bridge's registry lookups hitting
/// instead of always falling through to `default_parallel`. Problems whose
/// key is already present are skipped; returns the number of entries
/// added.
pub fn warm_spmm_db(
    db: &mut crate::db::TuningDb,
    problems: &[GemmProblem],
    constraints: &Constraints,
    platform: &Platform,
    threads: usize,
) -> usize {
    let mut added = 0;
    for p in problems {
        let key = crate::db::TuningDb::spmm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
        if db.get(&key).is_some() {
            continue;
        }
        let result = tune_spmm_modeled(p, constraints, platform, threads);
        db.put(&key, crate::db::DbEntry { spec: result.best.spec, score: result.best.score });
        added += 1;
    }
    added
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
    fn measured_search_uses_caller_scores() {
        let c = Constraints::gemm(0, 0, 0, 50);
        // Score "cab" artificially highest.
        let r = tune_gemm_measured(&problem(), &c, |spec, _| {
            Some(if spec == "cab" { 100.0 } else { 1.0 })
        });
        assert_eq!(r.best.spec, "cab");
        assert_eq!(r.best.score, 100.0);
    }

    #[test]
    fn ranked_measured_limits_measurements_and_keeps_incumbent() {
        let c = Constraints::gemm(0, 1, 1, 300);
        let mut measured = Vec::new();
        let r = tune_gemm_ranked_measured(
            &problem(),
            &c,
            &Platform::zen4(),
            8,
            4,
            &["abc".to_string()],
            |spec, _| {
                measured.push(spec.to_string());
                // The sequential incumbent "wins" the measurement: measured
                // score overrides the model ranking.
                Some(if spec == "abc" { 1000.0 } else { 10.0 })
            },
        );
        // top_k model picks + the incumbent (which the model would never
        // rank into the top 4 — it is sequential).
        assert_eq!(measured.len(), 5, "measured {measured:?}");
        assert!(measured.contains(&"abc".to_string()));
        assert_eq!(r.best.spec, "abc");
        assert_eq!(r.evaluated.len(), 5);
    }

    #[test]
    fn ranked_measured_dedups_incumbent_already_in_top_k() {
        let c = Constraints::gemm(0, 1, 1, 300);
        let model_best = tune_gemm_modeled(&problem(), &c, &Platform::zen4(), 8).best.spec.clone();
        let mut count = 0usize;
        tune_gemm_ranked_measured(
            &problem(),
            &c,
            &Platform::zen4(),
            8,
            3,
            &[model_best],
            |_, _| {
                count += 1;
                Some(1.0)
            },
        );
        assert_eq!(count, 3, "incumbent inside top_k must not be measured twice");
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
    fn warm_gemm_db_records_winners_and_skips_known_shapes() {
        let mut db = crate::db::TuningDb::new();
        let c = Constraints::gemm(0, 1, 1, 100);
        let platform = Platform::zen4();
        let p = problem();
        let added = warm_gemm_db(&mut db, &[p, p], &c, &platform, 8);
        assert_eq!(added, 1, "duplicate shape must be tuned once");
        let key = crate::db::TuningDb::gemm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
        let entry = db.get(&key).expect("warmed entry present");
        assert!(entry.score > 0.0);
        // Re-warming is a no-op.
        assert_eq!(warm_gemm_db(&mut db, &[p], &c, &platform, 8), 0);
    }

    #[test]
    fn spmm_search_is_single_k_feasible_and_warms_db() {
        // Even with K blocking allowed in the candidate space, every spmm
        // candidate must keep exactly one K-loop occurrence (the kernel's
        // K loop supports no extra blocking).
        let c = Constraints::gemm(2, 1, 1, 300);
        let platform = Platform::zen4();
        let r = tune_spmm_modeled(&problem(), &c, &platform, 8);
        assert!(!r.evaluated.is_empty());
        for cand in &r.evaluated {
            assert_eq!(
                cand.spec.chars().filter(|ch| ch.eq_ignore_ascii_case(&'a')).count(),
                1,
                "spec {} infeasible for SpmmTuning",
                cand.spec
            );
        }
        let mut db = crate::db::TuningDb::new();
        let p = problem();
        assert_eq!(warm_spmm_db(&mut db, &[p, p], &c, &platform, 8), 1, "duplicate tuned once");
        let key = crate::db::TuningDb::spmm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
        assert!(db.get(&key).expect("spmm key warmed").score > 0.0);
        // Re-warming is a no-op, and the gemm keys are untouched.
        assert_eq!(warm_spmm_db(&mut db, &[p], &c, &platform, 8), 0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn batch_ladder_covers_powers_and_ragged_max() {
        assert_eq!(batch_ladder(0), Vec::<usize>::new());
        assert_eq!(batch_ladder(1), vec![1]);
        assert_eq!(batch_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(batch_ladder(6), vec![1, 2, 4, 6]);
        assert_eq!(batch_ladder(13), vec![1, 2, 4, 8, 13]);
    }

    #[test]
    fn batch_ladder_boundary_widths() {
        // Width 1: the degenerate ladder is exactly the decode width.
        assert_eq!(batch_ladder(1), vec![1]);
        assert_eq!(batch_ladder(2), vec![1, 2]);
        // Exact power-of-two max: no ragged tail rung is appended.
        for exp in 0..=10u32 {
            let max = 1usize << exp;
            let ladder = batch_ladder(max);
            assert_eq!(*ladder.last().unwrap(), max);
            assert_eq!(ladder.len(), exp as usize + 1, "pure power ladder for {max}");
            assert!(ladder.iter().all(|w| w.is_power_of_two()));
        }
        // kv_capacity-shaped maxima (the serving warm-up's upper bound):
        // the capacity itself is always a rung, whether ragged or not.
        for kv in [16usize, 64, 100, 128, 129, 1000] {
            let ladder = batch_ladder(kv);
            assert_eq!(*ladder.last().unwrap(), kv, "kv_capacity {kv} must be warmed");
            assert!(ladder.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
            assert!(ladder.iter().all(|&w| w <= kv), "no rung beyond capacity");
        }
        // Round-up contract for missed widths: for every width w <= max,
        // the consumer rounds up to the next rung — which must exist and
        // be `next_power_of_two(w)` (or `max` itself when that power
        // overshoots the ragged tail).
        for max in [6usize, 8, 13, 100] {
            let ladder = batch_ladder(max);
            for w in 1..=max {
                let rung = *ladder.iter().find(|&&r| r >= w).unwrap_or_else(|| {
                    panic!("width {w} has no rung to round up to in ladder({max})")
                });
                let expect = if w.next_power_of_two() <= max { w.next_power_of_two() } else { max };
                assert_eq!(rung, expect, "width {w} in ladder({max})");
            }
        }
    }

    #[test]
    fn search_reports_wall_time() {
        let c = Constraints::gemm(0, 0, 0, 10);
        let r = tune_gemm_modeled(&problem(), &c, &Platform::zen4(), 4);
        assert!(r.search_seconds >= 0.0);
    }
}
