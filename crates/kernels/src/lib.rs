//! # pl-kernels — DL/HPC kernels via PARLOOPER + TPP
//!
//! The kernels of paper §III, each a direct transcription of the listing it
//! reproduces:
//!
//! * [`gemm`] — GEMM over blocked operands (Listing 1): one loop nest,
//!   [`GemmKernel`], whose BRGEMM [`Tile`] chooses the arithmetic — f32
//!   FMA ([`Gemm`]) or exact int8 with dequantize-on-store ([`GemmInt8`]).
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
pub use gemm::{Gemm, GemmInt8, GemmKernel, GemmShape, GemmTuning, Tile};
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
    /// [`GemmKernel::build`] and [`BlockSpmm::new`]).
    RacySpec(String),
}

/// Rejects a spec over the GEMM-shaped nest (`a` = K, then the C-block
/// loops) that lets two team members accumulate into one C block at once:
/// one that splits the K loop over the team (`A`), or that deals the C
/// blocks out dynamically below a sequential K level
/// (`caB @ schedule(dynamic,1)`: afresh at every K step).
pub(crate) fn check_c_blocks_owned(spec: &str) -> Result<(), KernelError> {
    let (nest, schedule) = spec.split_once('@').unwrap_or((spec, ""));
    let group = nest.find(|c: char| c.is_ascii_uppercase());
    let k_outside = nest.find('a').zip(group).is_some_and(|(k, group)| k < group);
    if nest.contains('A') || schedule.contains("dynamic") && k_outside {
        return Err(KernelError::RacySpec(spec.to_string()));
    }
    Ok(())
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
