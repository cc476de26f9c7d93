//! The loop-schedule performance predictor (paper §II-E).
//!
//! For every virtual thread, [`predict`] replays the schedule produced by
//! [`parlooper::ThreadedLoop::simulate`], generating the chronological
//! trace of tensor-slice accesses of each body invocation, feeding them
//! through the per-thread [`CacheHierarchy`], and charging
//! `max(compute cycles, sum of transfer cycles)` per BRGEMM invocation.
//! The kernel time is the slowest thread's time — which automatically
//! penalizes schedules with poor concurrency (idle or imbalanced
//! members), as the paper notes.

use crate::cachesim::{CacheHierarchy, HitLevel, SliceId};
use crate::platform::Platform;
use parlooper::ThreadedLoop;
use pl_tensor::DType;

/// One slice access of a body invocation.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    /// Which slice.
    pub id: SliceId,
    /// Slice footprint in bytes.
    pub bytes: usize,
}

/// Flop count of one body invocation at the given logical indices.
pub type FlopsFn<'a> = Box<dyn Fn(&[usize]) -> f64 + 'a>;

/// Slice accesses of one invocation (appended to the scratch vec).
pub type AccessesFn<'a> = Box<dyn Fn(&[usize], &mut Vec<Access>) + 'a>;

/// Per-invocation behaviour of the kernel body.
pub struct BodyModel<'a> {
    /// Flops performed by one body invocation.
    pub flops: FlopsFn<'a>,
    /// Slice accesses of one invocation (appended to the scratch vec).
    pub accesses: AccessesFn<'a>,
}

/// Prediction result.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Wall time in seconds (slowest thread).
    pub seconds: f64,
    /// Useful throughput: problem flops / wall time. Idle or imbalanced
    /// members in poorly parallelized schedules cost time without adding
    /// flops — exactly how the paper's tool assigns low scores to
    /// low-concurrency schedules (a sequential nest runs on member 0
    /// alone).
    pub gflops: f64,
    /// Flops executed across all threads (the problem flops: every legal
    /// schedule runs each body index on exactly one member).
    pub executed_gflop: f64,
    /// Per-thread busy seconds.
    pub per_thread_seconds: Vec<f64>,
}

/// Predicts the execution of `tl` with the given body model on `threads`
/// virtual threads of `platform`.
pub fn predict(
    platform: &Platform,
    threads: usize,
    tl: &ThreadedLoop,
    body: &BodyModel<'_>,
    dtype: DType,
    useful_flops: f64,
) -> Prediction {
    let capacities: Vec<usize> = platform
        .caches
        .iter()
        .map(|c| if c.shared { (c.size / threads.max(1)).max(1) } else { c.size })
        .collect();
    let mut per_thread_seconds = Vec::with_capacity(threads);
    let mut total_flops = 0.0f64;
    let mut scratch: Vec<Access> = Vec::with_capacity(16);
    for tid in 0..threads {
        let class = platform.class_of(tid);
        let fpc = match dtype {
            DType::Bf16 => class.bf16_flops_per_cycle,
            _ => class.fp32_flops_per_cycle,
        };
        let dram_bpc = platform.dram_bytes_per_cycle_per_thread(threads, tid);
        let mut caches = CacheHierarchy::new(&capacities);
        let trace = tl.plan().simulate_member(tid, threads);
        let mut cycles = 0.0f64;
        for ind in &trace {
            let flops = (body.flops)(ind);
            total_flops += flops;
            scratch.clear();
            (body.accesses)(ind, &mut scratch);
            let mut transfer = 0.0f64;
            for a in &scratch {
                let bw = match caches.access(a.id, a.bytes) {
                    HitLevel::Cache(l) => platform.caches[l].bw_bytes_per_cycle,
                    HitLevel::Memory => dram_bpc,
                };
                transfer += a.bytes as f64 / bw;
            }
            let compute = flops / fpc;
            cycles += compute.max(transfer);
        }
        per_thread_seconds.push(cycles / (class.freq_ghz * 1e9));
    }
    let seconds = per_thread_seconds.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    Prediction {
        seconds,
        gflops: useful_flops / seconds / 1e9,
        executed_gflop: total_flops / 1e9,
        per_thread_seconds,
    }
}

/// A GEMM problem in model space — mirrors `pl_kernels::Gemm` exactly
/// (same logical loops, same slice identities) without executing anything.
#[derive(Debug, Clone)]
pub struct GemmModelSpec {
    /// Logical sizes.
    pub m: usize,
    /// Columns of C.
    pub n: usize,
    /// Reduction dim.
    pub k: usize,
    /// Block sizes.
    pub bm: usize,
    /// N blocking.
    pub bn: usize,
    /// K blocking.
    pub bk: usize,
    /// K-blocks per BRGEMM.
    pub k_step: usize,
    /// The `loop_spec_string`.
    pub spec: String,
    /// Blocking-step lists for loops a/b/c (block units).
    pub blocks: [Vec<usize>; 3],
    /// Input datatype (drives both peak and operand footprints).
    pub dtype: DType,
}

impl GemmModelSpec {
    /// Total flops.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Builds the loop nest of this spec.
    pub fn threaded_loop(&self) -> Result<ThreadedLoop, parlooper::SpecError> {
        let specs = vec![
            parlooper::LoopSpecs::blocked(0, self.k / self.bk, self.k_step, self.blocks[0].clone()),
            parlooper::LoopSpecs::blocked(0, self.m / self.bm, 1, self.blocks[1].clone()),
            parlooper::LoopSpecs::blocked(0, self.n.div_ceil(self.bn), 1, self.blocks[2].clone()),
        ];
        ThreadedLoop::new(&specs, &self.spec)
    }

    /// The body model of Listing 1: `k_step` A and B blocks plus one C
    /// block per invocation.
    fn body_model(&self) -> BodyModel<'_> {
        let ds = self.dtype.size_of();
        let cs = 4; // C accumulates in f32
        let (bm, bn, bk, k_step) = (self.bm, self.bn, self.bk, self.k_step);
        let kb = self.k / self.bk;
        let mb = self.m / self.bm;
        let flops = move |ind: &[usize]| {
            let brcount = k_step.min(kb - ind[0]);
            2.0 * bm as f64 * bn as f64 * (bk * brcount) as f64
        };
        let accesses = move |ind: &[usize], out: &mut Vec<Access>| {
            let (ik, im, inn) = (ind[0], ind[1], ind[2]);
            let brcount = k_step.min(kb - ik);
            for j in 0..brcount {
                out.push(Access { id: (0, (im * kb + ik + j) as u64), bytes: bm * bk * ds });
                out.push(Access { id: (1, (inn * kb + ik + j) as u64), bytes: bk * bn * ds });
            }
            out.push(Access { id: (2, (inn * mb + im) as u64), bytes: bm * bn * cs });
        };
        BodyModel { flops: Box::new(flops), accesses: Box::new(accesses) }
    }

    /// Predicts GFLOPS of this spec on a platform.
    pub fn predict(
        &self,
        platform: &Platform,
        threads: usize,
    ) -> Result<Prediction, parlooper::SpecError> {
        let tl = self.threaded_loop()?;
        Ok(predict(platform, threads, &tl, &self.body_model(), self.dtype, self.flops()))
    }
}

/// Ranks candidate `(spec, blocks)` pairs for one GEMM problem by
/// predicted GFLOPS, best first — the model-as-*ranker* API (PolyDL's
/// usage of analytical models: the model orders the candidate space, a
/// measured pass decides among the survivors). `template` fixes the
/// problem (sizes, blockings, `k_step`, dtype); each candidate overrides
/// only `spec`/`blocks`. Candidates the model rejects (infeasible nest)
/// are dropped. Returns `(index into candidates, prediction)` pairs.
pub fn rank_gemm_candidates(
    template: &GemmModelSpec,
    candidates: &[(String, [Vec<usize>; 3])],
    platform: &Platform,
    threads: usize,
) -> Vec<(usize, Prediction)> {
    let mut ranked = Vec::new();
    for (i, (spec, blocks)) in candidates.iter().enumerate() {
        let model =
            GemmModelSpec { spec: spec.clone(), blocks: blocks.clone(), ..template.clone() };
        if let Ok(pred) = model.predict(platform, threads) {
            ranked.push((i, pred));
        }
    }
    ranked.sort_by(|a, b| b.1.gflops.total_cmp(&a.1.gflops));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(spec: &str, m: usize, k_step: usize) -> GemmModelSpec {
        GemmModelSpec {
            m,
            n: m,
            k: m,
            bm: 32,
            bn: 32,
            bk: 32,
            k_step,
            spec: spec.into(),
            blocks: [vec![], vec![], vec![]],
            dtype: DType::F32,
        }
    }

    #[test]
    fn parallel_beats_sequential() {
        let p = Platform::zen4();
        let seq = spec("abc", 512, 1).predict(&p, 16).unwrap();
        let par = spec("aBC", 512, 1).predict(&p, 16).unwrap();
        // A sequential nest runs on one of the 16 threads: ~16x slower.
        assert!(par.gflops > 8.0 * seq.gflops, "par {} vs seq {}", par.gflops, seq.gflops);
    }

    #[test]
    fn prediction_under_peak() {
        let p = Platform::zen4();
        let pred = spec("BCa", 1024, 32).predict(&p, 16).unwrap();
        let peak = p.peak_gflops(DType::F32, 16);
        assert!(pred.gflops <= peak + 1.0, "{} > peak {}", pred.gflops, peak);
        assert!(pred.gflops > 0.05 * peak, "unreasonably slow: {}", pred.gflops);
    }

    #[test]
    fn schedules_are_distinguished() {
        // The whole point of the tool: different loop_spec_strings get
        // different scores, all positive, finite and below peak.
        let p = Platform::zen4();
        let preds: Vec<f64> = ["BCa", "aBC", "bcaBC", "CBa"]
            .iter()
            .map(|s| {
                let mut g = spec(s, 512, 4);
                if s.contains("bca") {
                    g.blocks = [vec![], vec![8], vec![8]];
                }
                g.predict(&p, 16).unwrap().gflops
            })
            .collect();
        let peak = p.peak_gflops(DType::F32, 16);
        for &g in &preds {
            assert!(g.is_finite() && g > 0.0 && g <= peak + 1.0, "pred {g}");
        }
        // At least two distinct scores (the model is not constant).
        let min = preds.iter().cloned().fold(f64::MAX, f64::min);
        let max = preds.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.001, "model cannot rank schedules: {preds:?}");
    }

    #[test]
    fn bf16_predicts_faster_than_fp32_on_spr() {
        let p = Platform::spr();
        let mut s = spec("BCa", 1024, 8);
        let f32_pred = s.predict(&p, 56).unwrap();
        s.dtype = DType::Bf16;
        let bf16_pred = s.predict(&p, 56).unwrap();
        // AMX peak is 16x; cache-bandwidth-bound reality keeps the modeled
        // gain well below that, but BF16 must clearly win.
        assert!(
            bf16_pred.gflops > 1.5 * f32_pred.gflops,
            "bf16 {} vs f32 {}",
            bf16_pred.gflops,
            f32_pred.gflops
        );
    }

    #[test]
    fn ranker_orders_candidates_and_drops_infeasible() {
        let p = Platform::zen4();
        let template = spec("abc", 512, 1);
        let candidates = vec![
            ("abc".to_string(), [vec![], vec![], vec![]]),
            ("aBC".to_string(), [vec![], vec![], vec![]]),
            ("azq".to_string(), [vec![], vec![], vec![]]), // rejected by the nest builder
        ];
        let ranked = rank_gemm_candidates(&template, &candidates, &p, 16);
        assert_eq!(ranked.len(), 2, "infeasible spec must be dropped");
        // Best-first, and the parallel spec must outrank the sequential one.
        assert_eq!(ranked[0].0, 1);
        assert!(ranked[0].1.gflops >= ranked[1].1.gflops);
    }

    #[test]
    fn imbalance_is_penalized() {
        // 3 M-blocks over 2 threads force one thread to do double work;
        // 4 blocks balance perfectly.
        let p = Platform::zen4();
        let balanced = GemmModelSpec { m: 128, n: 32, bn: 32, ..spec("Bca", 128, 4) };
        let q = balanced.predict(&p, 2).unwrap();
        let spread = q.per_thread_seconds.iter().cloned().fold(0.0f64, f64::max)
            / q.per_thread_seconds.iter().cloned().fold(f64::MAX, f64::min);
        let odd = GemmModelSpec { m: 96, n: 32, bn: 32, ..spec("Bca", 96, 4) };
        let q2 = odd.predict(&p, 2).unwrap();
        let spread2 = q2.per_thread_seconds.iter().cloned().fold(0.0f64, f64::max)
            / q2.per_thread_seconds.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread2 > spread * 1.5, "{spread2} vs {spread}");
    }
}
