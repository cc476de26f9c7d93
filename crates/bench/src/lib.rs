//! # pl-bench — the evaluation harness
//!
//! One mode: **measured**. Each paper harness runs the figure's or
//! table's workload through the real kernels on the host (small shapes,
//! host core count) and prints what it measured; the `micro_*` harnesses
//! time single kernels and loop nests. Fig. 6 sets the `pl-perfmodel`
//! prediction of each candidate schedule next to its measured rate.
//! Nothing here emulates the paper's machines or its competitors.
//! Serving and the paper-shaped kernel rows (`kernels.standalone`,
//! `decode.single`) are measured by the repo's one benchmark, `plbench`
//! (`benchmark/`).

use std::time::Instant;

/// Median-of-runs wall time of `f` in seconds.
pub fn time_it(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median nanoseconds per call of `f`, timed over 20 batches of `iters`
/// calls (for operations too short to time one call at a time).
pub fn ns_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    time_it(20, || (0..iters).for_each(|_| f())) * 1e9 / iters as f64
}

/// GFLOPS from flops and seconds.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Prints a header row plus separator.
pub fn header(title: &str, cells: &[&str]) {
    println!("\n=== {title} ===");
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(cells.len() * 15));
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_positive() {
        let t = time_it(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t >= 0.0);
    }
}
