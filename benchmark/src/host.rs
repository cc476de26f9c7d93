//! What this host can do, measured by the benchmark's own code: a peak-FMA
//! probe and a stream triad (the roofline denominators), and the process's
//! peak resident memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Vector features the host reports at run time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isa {
    pub avx2: bool,
    pub fma: bool,
    pub avx512f: bool,
    pub avx512_vnni: bool,
}

pub fn detect_isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    {
        Isa {
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
            avx512f: is_x86_feature_detected!("avx512f"),
            avx512_vnni: is_x86_feature_detected!("avx512vnni"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    Isa::default()
}

/// Independent accumulator chains per loop trip: enough to cover a 4-cycle
/// FMA on two ports with room to spare.
const CHAINS: usize = 12;
/// Loop trips between clock reads.
const TRIPS: u64 = 20_000;

// `x <- x * A + B` has the fixed point 1, so the chains stay finite and
// normal for any trip count.
const A: f32 = 0.999;
const B: f32 = 0.001;

/// Runs `TRIPS` trips of `CHAINS` 16-lane FMAs and returns the flop count.
///
/// # Safety
/// The caller must have checked that the CPU supports `avx512f`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_block_avx512() -> u64 {
    use std::arch::x86_64::*;
    let (a, b) = (_mm512_set1_ps(A), _mm512_set1_ps(B));
    let mut acc = [_mm512_set1_ps(1.5); CHAINS];
    for _ in 0..TRIPS {
        for x in &mut acc {
            *x = _mm512_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = acc[0];
    for x in &acc[1..] {
        sum = _mm512_add_ps(sum, *x);
    }
    black_box(_mm512_reduce_add_ps(sum));
    TRIPS * CHAINS as u64 * 16 * 2
}

/// Runs `TRIPS` trips of `CHAINS` 8-lane FMAs and returns the flop count.
///
/// # Safety
/// The caller must have checked that the CPU supports `avx2` and `fma`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_block_avx2() -> u64 {
    use std::arch::x86_64::*;
    let (a, b) = (_mm256_set1_ps(A), _mm256_set1_ps(B));
    let mut acc = [_mm256_set1_ps(1.5); CHAINS];
    for _ in 0..TRIPS {
        for x in &mut acc {
            *x = _mm256_fmadd_ps(*x, a, b);
        }
    }
    let mut sum = acc[0];
    for x in &acc[1..] {
        sum = _mm256_add_ps(sum, *x);
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    black_box(lanes);
    TRIPS * CHAINS as u64 * 8 * 2
}

/// Portable fallback: separate multiply and add over 8-lane arrays, which
/// the compiler vectorizes with whatever the build flags allow.
fn fma_block_portable() -> u64 {
    let mut acc = [[1.5f32; 8]; CHAINS];
    for _ in 0..TRIPS {
        for chain in &mut acc {
            for x in chain.iter_mut() {
                *x = *x * A + B;
            }
        }
    }
    black_box(acc);
    TRIPS * CHAINS as u64 * 8 * 2
}

fn fma_block(isa: Isa) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        if isa.avx512f {
            // SAFETY: `isa.avx512f` comes from `is_x86_feature_detected!`.
            return unsafe { fma_block_avx512() };
        }
        if isa.avx2 && isa.fma {
            // SAFETY: both features come from `is_x86_feature_detected!`.
            return unsafe { fma_block_avx2() };
        }
    }
    let _ = isa;
    fma_block_portable()
}

/// Peak single-precision FMA rate over `threads` concurrent threads, in
/// GFLOP/s, measured for about `dur`. The code path is chosen by run-time
/// detection, so it reports the host and not the build flags. Each thread
/// reports the median of its ~40 us blocks, so a thread that is descheduled
/// for part of the probe does not halve the answer.
pub fn peak_gflops(threads: usize, dur: Duration) -> f64 {
    let isa = detect_isa();
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(move || {
                    let start = Instant::now();
                    let mut rates = Vec::new();
                    while rates.is_empty() || start.elapsed() < dur {
                        let t = Instant::now();
                        let flops = fma_block(isa);
                        rates.push(flops as f64 / t.elapsed().as_secs_f64() / 1e9);
                    }
                    crate::stats::median(rates)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("FMA probe thread panicked")).collect()
    });
    per_thread.iter().sum()
}

/// Last-level cache size in bytes as the kernel reports it for cpu0, or a
/// 32 MiB guess where that is not readable.
pub fn llc_bytes() -> u64 {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 =
                std::fs::read_to_string(format!("{dir}/level")).ok()?.trim().parse().ok()?;
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            let size = size.trim();
            let (digits, unit) = size.split_at(size.find(|c: char| !c.is_ascii_digit())?);
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                _ => return None,
            };
            Some((level, digits.parse::<u64>().ok()? * scale))
        })
        .max()
        .map_or(32 << 20, |(_, bytes)| bytes)
}

/// Stream triad `a = b + s * c` over `threads` threads; returns GB/s (the
/// three streams' bytes over the best of `passes` timed passes).
pub fn triad_gbs(threads: usize, array_bytes: u64, passes: usize) -> f64 {
    let n = (array_bytes / 4) as usize;
    let mut a = vec![0.0f32; n];
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let chunk = n.div_ceil(threads);
    let mut best = f64::INFINITY;
    // Pass 0 touches every page of `a` and is not timed.
    for pass in 0..=passes {
        let start = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        if pass > 0 {
            best = best.min(start.elapsed().as_secs_f64());
        }
    }
    black_box(&a);
    3.0 * n as f64 * 4.0 / best / 1e9
}

/// Peak resident set of this process so far in MB (`VmHWM`), 0 where the
/// kernel does not report it.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fma_path_counts_the_same_work_per_lane() {
        assert_eq!(fma_block_portable(), TRIPS * CHAINS as u64 * 16);
        assert!(fma_block(detect_isa()) >= fma_block_portable());
        assert!(peak_gflops(1, Duration::from_millis(5)) > 0.0);
    }

    #[test]
    fn triad_moves_three_streams() {
        assert!(triad_gbs(2, 1 << 20, 1) > 0.0);
        assert!(llc_bytes() >= 1 << 20);
    }
}
