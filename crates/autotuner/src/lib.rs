//! # pl-autotuner — offline tuning of `loop_spec_string` knobs
//!
//! Reproduces the paper's auto-tuning loop (§II-D/E, Fig. 1 boxes B2/B3):
//! the generator emits candidate spec strings and the performance model
//! ranks them.
//!
//! * [`gen`] — exhaustive candidate generation under constraints.
//! * [`platform`] — SPR / Zen4 / generic-host descriptions (per-core peaks
//!   per dtype, 3 cache levels, DRAM bandwidth).
//! * [`cachesim`] — tensor-slice-granular multi-level LRU simulation.
//! * [`model`] — the "lightweight, high-level performance modeling tool"
//!   of §II-E: per-thread trace replay + BRGEMM cycle prediction +
//!   schedule scoring ([`model::GemmModelSpec`]).
//! * [`search`] — model-based search.
//!
//! A winning spec is not persisted: serving builds every plan at the
//! built-in default spec, and `examples/autotune_gemm.rs` prints the
//! modeled ranking and the measured pick.
//!
//! The search space deliberately stops at the TPP boundary — only cache
//! blocking and parallelization are explored, which is why tuning here is
//! orders of magnitude faster than full tensor compilers (paper §V-A2).

pub mod cachesim;
pub mod gen;
pub mod model;
pub mod platform;
pub mod search;

pub use gen::{generate, Constraints};
pub use model::GemmModelSpec;
pub use platform::Platform;
pub use search::{blocks_for_spec, tune_gemm_modeled, GemmProblem};
