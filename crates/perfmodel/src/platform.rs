//! Platform descriptions: two of the paper's evaluation machines (§V) and
//! a generic host.
//!
//! Each description carries per-core compute peaks per datatype, up to
//! three cache levels (size + bandwidth) and the DRAM bandwidth — exactly
//! the "few parameters modeling the target CPU" the performance-modeling
//! tool of §II-E consumes. The numbers are published figures (ISA width x
//! FMA pipes x frequency; memory channels x transfer rate); we reproduce
//! performance *shapes*, not the authors' exact measurements.

use pl_tensor::DType;

/// One cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Capacity in bytes (per core for private levels, total for shared).
    pub size: usize,
    /// Bandwidth in bytes/cycle/core.
    pub bw_bytes_per_cycle: f64,
    /// Shared across cores (capacity is divided among threads in the
    /// per-thread simulation, matching the paper's simplification).
    pub shared: bool,
}

/// A class of cores (homogeneous platforms have one; hybrid parts list
/// each class, fastest first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreClass {
    /// Number of cores of this class.
    pub count: usize,
    /// Sustained all-core frequency in GHz.
    pub freq_ghz: f64,
    /// FP32 flops/cycle/core (FMA counted as 2).
    pub fp32_flops_per_cycle: f64,
    /// BF16 flops/cycle/core (AMX / MMLA / AVX512-BF16 accelerated).
    pub bf16_flops_per_cycle: f64,
}

/// A modeled CPU platform.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Short name used in benchmark output.
    pub name: &'static str,
    /// Core classes (fastest first).
    pub cores: Vec<CoreClass>,
    /// Cache hierarchy, L1 first (up to 3 levels, paper §II-E).
    pub caches: Vec<CacheLevel>,
    /// Socket DRAM bandwidth in GB/s.
    pub dram_gbs: f64,
}

impl Platform {
    /// Intel Xeon 8480+ "Sapphire Rapids", one socket: 56 Golden Cove
    /// cores, AVX-512 + AMX, 8ch DDR5-4800.
    pub fn spr() -> Self {
        Platform {
            name: "SPR",
            cores: vec![CoreClass {
                count: 56,
                freq_ghz: 2.0,
                fp32_flops_per_cycle: 64.0,   // 2x 512-bit FMA
                bf16_flops_per_cycle: 1024.0, // AMX: 16x FP32 (paper §V-A1)
            }],
            caches: vec![
                CacheLevel { size: 48 << 10, bw_bytes_per_cycle: 128.0, shared: false },
                CacheLevel { size: 2 << 20, bw_bytes_per_cycle: 64.0, shared: false },
                CacheLevel { size: 105 << 20, bw_bytes_per_cycle: 16.0, shared: true },
            ],
            dram_gbs: 307.0, // 8 x DDR5-4800
        }
    }

    /// AMD Ryzen 9 7950X "Zen 4": 16 cores, AVX-512 (double-pumped) with
    /// AVX512-BF16, 2ch DDR5-6000.
    pub fn zen4() -> Self {
        Platform {
            name: "Zen4",
            cores: vec![CoreClass {
                count: 16,
                freq_ghz: 4.5,
                fp32_flops_per_cycle: 32.0, // 2x 256-bit FMA datapaths
                bf16_flops_per_cycle: 64.0, // AVX512-BF16: 2x (paper: 2x)
            }],
            caches: vec![
                CacheLevel { size: 32 << 10, bw_bytes_per_cycle: 96.0, shared: false },
                CacheLevel { size: 1 << 20, bw_bytes_per_cycle: 48.0, shared: false },
                CacheLevel { size: 64 << 20, bw_bytes_per_cycle: 14.0, shared: true },
            ],
            dram_gbs: 96.0, // 2 x DDR5-6000
        }
    }

    /// A description of the machine the test-suite runs on: generic x86
    /// with AVX2-class width. Used by Fig. 6 to correlate model vs host
    /// measurements.
    pub fn generic_host(cores: usize) -> Self {
        Platform {
            name: "host",
            cores: vec![CoreClass {
                count: cores.max(1),
                freq_ghz: 3.0,
                fp32_flops_per_cycle: 32.0,
                bf16_flops_per_cycle: 8.0, // software widening, no HW
            }],
            caches: vec![
                CacheLevel { size: 32 << 10, bw_bytes_per_cycle: 96.0, shared: false },
                CacheLevel { size: 1 << 20, bw_bytes_per_cycle: 48.0, shared: false },
                CacheLevel { size: 16 << 20, bw_bytes_per_cycle: 12.0, shared: true },
            ],
            dram_gbs: 40.0,
        }
    }

    /// The core class executing virtual thread `tid` (threads fill classes
    /// in order, the scheduler pinning fast cores first).
    pub fn class_of(&self, tid: usize) -> &CoreClass {
        let mut t = tid;
        for c in &self.cores {
            if t < c.count {
                return c;
            }
            t -= c.count;
        }
        self.cores.last().expect("platform without cores")
    }

    /// Peak GFLOPS of `threads` cores for the datatype.
    pub fn peak_gflops(&self, dtype: DType, threads: usize) -> f64 {
        let mut total = 0.0;
        let mut remaining = threads;
        for c in &self.cores {
            let used = remaining.min(c.count);
            let per_core = match dtype {
                DType::Bf16 => c.bf16_flops_per_cycle,
                _ => c.fp32_flops_per_cycle,
            };
            total += used as f64 * per_core * c.freq_ghz;
            remaining -= used;
            if remaining == 0 {
                break;
            }
        }
        total
    }

    /// DRAM bandwidth available per participating thread, bytes/cycle,
    /// relative to that thread's frequency.
    pub fn dram_bytes_per_cycle_per_thread(&self, threads: usize, tid: usize) -> f64 {
        let freq = self.class_of(tid).freq_ghz;
        (self.dram_gbs / threads.max(1) as f64) / freq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spr_amx_ratio_matches_paper() {
        let spr = Platform::spr();
        let fp32 = spr.peak_gflops(DType::F32, 56);
        let bf16 = spr.peak_gflops(DType::Bf16, 56);
        // "AMX ... up to 16x more peak flops than the FP32 execution".
        assert!((bf16 / fp32 - 16.0).abs() < 0.01);
        // ~7.2 TF FP32 on one socket.
        assert!((fp32 - 7168.0).abs() < 1.0);
    }

    #[test]
    fn zen4_bf16_is_2x() {
        let z = Platform::zen4();
        let r = z.peak_gflops(DType::Bf16, 16) / z.peak_gflops(DType::F32, 16);
        assert!((r - 2.0).abs() < 0.01);
    }

    #[test]
    fn platform_ranking_matches_paper_fig3() {
        // SPR >> Zen4 in BF16 peak (paper: SPR up to 6.6x Zen4 on MLP).
        let spr = Platform::spr().peak_gflops(DType::Bf16, 56);
        let zen = Platform::zen4().peak_gflops(DType::Bf16, 16);
        assert!(spr > 6.6 * zen);
    }

    #[test]
    fn dram_share_scales_down_with_threads() {
        let p = Platform::spr();
        assert!(p.dram_bytes_per_cycle_per_thread(56, 0) < p.dram_bytes_per_cycle_per_thread(1, 0));
    }
}
