//! # pl-perfmodel — the high-level loop/tensor performance model
//!
//! Reproduces the paper's "lightweight, high-level performance modeling
//! tool" (§II-E) used for offline, cross-architecture loop tuning:
//!
//! * [`platform`] — SPR / Zen4 / generic-host descriptions (per-core peaks
//!   per dtype, 3 cache levels, DRAM bandwidth).
//! * [`cachesim`] — tensor-slice-granular multi-level LRU simulation.
//! * [`model`] — per-thread trace replay + BRGEMM cycle prediction +
//!   schedule scoring ([`model::GemmModelSpec`]).

pub mod cachesim;
pub mod model;
pub mod platform;

pub use cachesim::{CacheHierarchy, HitLevel, SliceId};
pub use model::{predict, rank_gemm_candidates, Access, BodyModel, GemmModelSpec, Prediction};
pub use platform::{CacheLevel, CoreClass, Platform};
