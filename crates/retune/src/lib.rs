//! pl-retune: a background retuning service that closes the
//! tune-measure-install loop against **live serving statistics**.
//!
//! The modeled autotuner (`pl_autotuner` + `pl_perfmodel`) picks loop
//! specs without ever running a kernel — fast, but wrong exactly where
//! the model is wrong. This crate feeds the model's ranking back through
//! reality:
//!
//! 1. **Harvest** hot GEMM shapes from a running [`pl_serve::Server`]
//!    (or a whole [`pl_router::Router`] fleet) via the per-shape
//!    statistics the serving path already collects.
//! 2. **Rank** candidate loop specs per hot shape with the existing
//!    perfmodel scorer ([`pl_perfmodel::rank_gemm_candidates`]).
//! 3. **Measure** the top-k candidates (plus the incumbent) on real
//!    packed — and for int8, quantized — buffers ([`GemmMeasurer`]),
//!    off the serving threads, under a bounded time budget.
//! 4. **Install** winners through the `pl_dnn::tuning` registry epoch,
//!    so prepared plans re-resolve their kernels with zero downtime
//!    and bit-identical outputs ([`Retuner::run_cycle`]).
//! 5. **Persist** the measured DB keyed by a host/topology fingerprint
//!    ([`save_measured_db`] / [`warm_or_load`]), so the next process
//!    start on the same host skips straight to measured state.

pub mod measure;
pub mod persist;
pub mod retuner;

pub use measure::GemmMeasurer;
pub use persist::{
    host_fingerprint, load_measured_db, save_measured_db, warm_or_load, PersistError, WarmSource,
    PERSIST_VERSION,
};
pub use retuner::{RetuneConfig, RetuneReport, Retuner, ShapeOutcome};
