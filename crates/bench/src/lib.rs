//! # pl-bench — the evaluation harness
//!
//! One bench target per table and figure of the paper (see `DESIGN.md`
//! §4 for the index). Each harness prints the same rows/series the paper
//! reports, in up to two modes:
//!
//! * **simulated** — the platform performance model of `pl-perfmodel`
//!   parameterized as the paper's machines (SPR / GVT3 / Zen4 / ADL). This
//!   regenerates the cross-platform *shape* of each figure: who wins, by
//!   roughly what factor, where crossovers fall.
//! * **measured** — real kernel executions on the host (small shapes,
//!   host core count), used where measurement is essential (Fig. 6's
//!   model-vs-measured correlation) or as sanity checks.
//!
//! Baselines (oneDNN, TVM-Autoscheduler, Mojo, DeepSparse, HuggingFace,
//! IPEX) are emulated per the substitution table in `DESIGN.md`; the
//! emulation parameters live in [`baseline`].

pub mod artifact;
pub mod baseline;
pub mod driver;
pub mod json;
pub mod trace_artifact;

pub use artifact::{compare, workspace_path, BenchArtifact, BenchRow, RowDelta};
pub use driver::{
    measure_router_steps_per_s, RouterLoad, RouterMeasurement, ROUTER_MODE, SERVE_ARTIFACT,
};
pub use trace_artifact::{trace_shapes_json, TRACE_SHAPES_ARTIFACT};

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

/// GFLOPS from flops and seconds.
pub fn gflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
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
    fn geomean_of_constants() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn time_it_positive() {
        let t = time_it(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t >= 0.0);
    }
}
