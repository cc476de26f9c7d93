//! # pl-autotuner — offline tuning of `loop_spec_string` knobs
//!
//! Reproduces the paper's auto-tuning infrastructure (§II-D, Fig. 1 boxes
//! B2/B3): exhaustive candidate generation under constraints ([`gen`]),
//! measured or model-based search ([`search`]) and a persistent tuning
//! database ([`db`]). The search space deliberately stops at the TPP
//! boundary — only cache blocking and parallelization are explored, which
//! is why tuning here is orders of magnitude faster than full tensor
//! compilers (paper §V-A2).

pub mod db;
pub mod gen;
pub mod search;

pub use db::{DbEntry, TuningDb};
pub use gen::{blocking_ladder, generate, prime_factors, Constraints};
pub use search::{
    blocks_for_spec, tune_gemm_measured, tune_gemm_modeled, Candidate, GemmProblem, TuneResult,
};
