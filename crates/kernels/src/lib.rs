//! # pl-kernels — DL/HPC kernels via PARLOOPER + TPP
//!
//! The kernels of paper §III, each a direct transcription of the listing it
//! reproduces:
//!
//! * [`gemm`] — GEMM over blocked operands (Listing 1).
//! * [`mlp`] — fully-connected layers / MLP with fused bias + activation
//!   (§III-A1).
//! * [`conv`] — direct convolution forward (Listing 4) plus backward-data /
//!   backward-weights for training.
//! * [`spmm`] — block-sparse x dense matmul over BCSC (Listing 5).
//!
//! Every kernel is *declarative*: the loop order, blocking and
//! parallelization live in a `loop_spec_string` tuning knob, and changing
//! the knob changes zero lines of kernel code.

pub mod conv;
pub mod gemm;
pub mod mlp;
pub mod shared;
pub mod spmm;

pub use conv::{conv_backward_data, conv_backward_weights, ConvForward, ConvTuning};
pub use gemm::{Gemm, GemmInt8, GemmShape, GemmTuning};
pub use mlp::{Activation, FusedFcLayer, Mlp};
pub use shared::SharedSlice;
pub use spmm::{BlockSpmm, SpmmTuning};

/// Errors reported by kernel constructors and executors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Dimension/blocking mismatch.
    BadShape(String),
    /// Invalid `loop_spec_string` for this kernel.
    Spec(parlooper::SpecError),
    /// A legal nest this kernel cannot run race-free (see
    /// [`Gemm::new`]).
    RacySpec(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::BadShape(s) => write!(f, "bad shape: {s}"),
            KernelError::Spec(e) => write!(f, "spec error: {e}"),
            KernelError::RacySpec(spec) => write!(f, "spec {spec:?} races on C"),
        }
    }
}

impl std::error::Error for KernelError {}
