//! # pl-tpp — Tensor Processing Primitives
//!
//! A Rust reimplementation of the TPP collection the paper builds on
//! (Georganas et al. 2021) and extends: a compact, versatile, *precision
//! aware* set of 2-D tensor operators from which higher-level DL/HPC
//! operators are composed.
//!
//! ## Orientation conventions
//!
//! Tensor-contraction TPPs ([`brgemm`], [`transform`]) follow the paper's
//! column-major convention: an `m x n` operand has element `(r, c)` at
//! `c * ld + r`. BRGEMM is the one contraction body: the block-sparse
//! matmul is a BRGEMM tile in `pl_kernels`, and [`spmm`] keeps only its
//! dense test oracle. Row-wise DL operators ([`softmax`], [`norm`], bias
//! add) state their own orientation in their docs — in the
//! end-to-end workloads they act on `(rows = features, cols = tokens)`
//! blocks exactly as the fused modules of paper Listing 6 do.
//!
//! ## The "JIT" substitution
//!
//! libxsmm emits machine code per kernel descriptor at run time and caches
//! it. Here a descriptor selects a Rust tile body monomorphized at compile
//! time (one body, instantiated per element types and tile width), so
//! nothing is generated at run time and a kernel handle is a plain value:
//! its descriptor, validated by `new`. No handle is cached; the caching
//! scheme of paper §I is PARLOOPER's plan cache (`parlooper::cache`).
//! Nothing is vectorized for the host ISA: the crate has no `std::arch` or
//! `#[target_feature]` code, and in a default build (baseline x86-64, no
//! `fma` target feature) every f32 `mul_add` in a tile is a call to libm's
//! `fmaf`.

// TPP entry points mirror libxsmm descriptor signatures (m, n, in, ldi,
// out, ldo, ...), so the argument-count lint is noise here.
#![allow(clippy::too_many_arguments)]

pub mod binary;
pub mod brgemm;
pub mod equation;
pub mod norm;
pub mod reduce;
pub mod softmax;
pub mod spmm;
pub mod transform;
pub mod unary;

pub use brgemm::{Brgemm, BrgemmDesc, BrgemmI8};

/// Convenience re-export: every TPP works over these element types.
pub use pl_tensor::{Bf16, DType, Element};
