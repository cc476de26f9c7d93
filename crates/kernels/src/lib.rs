//! # pl-kernels — DL/HPC kernels via PARLOOPER + TPP
//!
//! The kernels of paper §III, each a direct transcription of the listing it
//! reproduces:
//!
//! * [`gemm`] — GEMM over blocked operands (Listing 1): one loop nest,
//!   [`GemmKernel`], whose BRGEMM [`Tile`] chooses the arithmetic — f32
//!   FMA ([`Gemm`]) or exact int8 with dequantize-on-store ([`GemmInt8`])
//!   — and addresses the `A` operand.
//! * [`mlp`] — the MLP (§III-A1): each layer is [`Gemm`] with its fused
//!   bias + ReLU epilogue.
//! * [`conv`] — direct convolution forward (Listing 4) plus backward-data /
//!   backward-weights for training, each pass BRGEMM calls in a nest.
//! * [`spmm`] — block-sparse x dense matmul over BCSC (Listing 5): the
//!   same nest over a block-sparse tile, [`BlockSpmm`].
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
pub use mlp::Mlp;
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
    /// [`GemmKernel::build`] and [`ConvForward::new`]).
    RacySpec(String),
}

/// Maximum batch-reduce length of one BRGEMM call whose offsets a kernel
/// lists on the stack.
pub(crate) const MAX_BR: usize = 1024;

/// Rejects a spec that lets two team members accumulate into one output
/// block at once. `reductions` names the nest's reduction loops (`a` = K
/// for the GEMM-shaped nests; `b`, `f`, `g` = Cb, R, S for the
/// convolution). A spec is racy if it puts one of them in the parallel
/// group (`A`), or deals the output blocks out dynamically below a
/// sequential reduction level (`caB @ schedule(dynamic,1)`: afresh at
/// every K step).
pub(crate) fn check_outputs_owned(spec: &str, reductions: &str) -> Result<(), KernelError> {
    let (nest, schedule) = spec.split_once('@').unwrap_or((spec, ""));
    let group = nest.find(|c: char| c.is_ascii_uppercase());
    let outside = |r: char| nest.find(r).zip(group).is_some_and(|(at, group)| at < group);
    let racy = |r: char| {
        nest.contains(r.to_ascii_uppercase()) || schedule.contains("dynamic") && outside(r)
    };
    if reductions.chars().any(racy) {
        return Err(KernelError::RacySpec(spec.to_string()));
    }
    Ok(())
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::BadShape(s) => write!(f, "bad shape: {s}"),
            KernelError::Spec(e) => write!(f, "spec error: {e}"),
            KernelError::RacySpec(spec) => write!(f, "spec {spec:?} races on an output block"),
        }
    }
}

impl std::error::Error for KernelError {}
