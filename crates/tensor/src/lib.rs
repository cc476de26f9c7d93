//! # pl-tensor — tensor substrate for the PARLOOPER/TPP reproduction
//!
//! This crate provides everything the TPP back-end and the kernel layer need
//! to describe data: element types (including a software [`Bf16`]), 64-byte
//! aligned buffers, the blocked matrix/activation/weight layouts used by the
//! paper (Listings 1, 4 and 5), the VNNI packed layout used by low-precision
//! contractions, and the BCSC block-sparse format used by the Block-SpMM TPP.
//!
//! Layout conventions follow the paper exactly:
//!
//! * GEMM operands are logically **column-major** 2-D matrices; blocking the
//!   `M`/`K`/`N` dimensions by `bm`/`bk`/`bn` yields
//!   `A[Mb][Kb][bk][bm]`, `B[Nb][Kb][bn][bk]`, `C[Nb][Mb][bn][bm]`
//!   (innermost index contiguous).
//! * Convolution activations are `[N][Cb][H][W][bc]`, weights are
//!   `[Kb][Cb][R][S][bc][bk]`, outputs are `[N][Kb][P][Q][bk]`.
//! * VNNI packing groups `v` consecutive rows (the reduction dimension) so a
//!   `K x N` matrix becomes `[Nb][K/v][bn][v]` — the layout consumed by
//!   AVX512-BF16 / AMX / SVE-MMLA style accumulation.

// Seed layout keeps private helpers below each file's test module.
#![allow(clippy::items_after_test_module)]

pub mod bcsc;
pub mod blocked;
pub mod buffer;
pub mod conv;
pub mod dtype;
pub mod fill;
pub mod quant;
pub mod vnni;

pub use bcsc::BcscMatrix;
pub use blocked::{BlockedMatrix, GridOrder, InnerLayout};
pub use buffer::AlignedVec;
pub use conv::{ActTensor, ConvShape, ConvWeights};
pub use dtype::{Bf16, DType, Element};
pub use fill::{fill_normal, fill_uniform, Xorshift};
pub use quant::{quantize_cols_blocked, quantize_weight_a_vnni, symmetric_scale};
pub use vnni::VnniMatrix;

/// Errors produced by layout constructors and converters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A dimension is not divisible by its requested blocking factor.
    NotDivisible {
        /// Human-readable dimension name (e.g. `"M"`).
        dim: &'static str,
        /// The dimension extent.
        extent: usize,
        /// The requested blocking factor.
        block: usize,
    },
    /// Two tensors that must agree on a dimension do not.
    ShapeMismatch {
        /// Description of the mismatch.
        what: &'static str,
        /// Left-hand extent.
        lhs: usize,
        /// Right-hand extent.
        rhs: usize,
    },
    /// A zero-sized dimension or block was requested.
    ZeroDim(&'static str),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::NotDivisible { dim, extent, block } => {
                write!(f, "dimension {dim}={extent} is not divisible by block {block}")
            }
            TensorError::ShapeMismatch { what, lhs, rhs } => {
                write!(f, "shape mismatch for {what}: {lhs} vs {rhs}")
            }
            TensorError::ZeroDim(dim) => write!(f, "dimension {dim} must be non-zero"),
        }
    }
}

impl std::error::Error for TensorError {}

/// Checks `extent % block == 0` and both non-zero, the common constructor guard.
pub(crate) fn check_block(
    dim: &'static str,
    extent: usize,
    block: usize,
) -> Result<(), TensorError> {
    if extent == 0 || block == 0 {
        return Err(TensorError::ZeroDim(dim));
    }
    if !extent.is_multiple_of(block) {
        return Err(TensorError::NotDivisible { dim, extent, block });
    }
    Ok(())
}
