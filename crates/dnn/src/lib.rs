//! # pl-dnn — end-to-end DL workloads on PARLOOPER/TPP
//!
//! The paper's §IV workloads, rebuilt on the kernel layer:
//!
//! * [`bert`] — BERT encoder with the four fused modules (Self-Attention,
//!   SelfOutput/Output per Listing 6, Intermediate), forward *and* backward
//!   (Fig. 9 fine-tuning).
//! * [`sparse_bert`] — magnitude block-pruned BERT inference on the
//!   Block-SpMM kernel (Fig. 10).
//! * [`llm`] — decoder-only LLM (GPT-J / Llama2 architectures) with KV
//!   cache: prefill (first token) and autoregressive steps (next tokens)
//!   (Fig. 11), plus exact flop/byte accounting of the full-size models.
//! * [`kvpool`] — paged KV storage behind the decoder: fixed-size pages
//!   from a shared block allocator ([`KvPagePool`]), a cache of computed
//!   prompt pages so shared prefixes are not recomputed ([`PrefixCache`]) and dense
//!   spill/migration snapshots ([`KvSnapshot`]).
//! * [`resnet`] — the Fig. 7 convolution shape table, batchnorm (fwd/bwd)
//!   and pooling for ResNet-50 training (Table II).
//! * [`prepared`] — the **prepared-op execution API**: pack-once compiled
//!   plans ([`prepared::MatmulPlan`], [`prepared::SpmmPlan`]) that own
//!   their blocked weight, cached per-width kernels and reusable scratch.
//!   The model types above hold plans, so steady-state inference packs
//!   **zero** weight bytes per step (observable via
//!   [`prepared::pack_events`]).
//! * [`matmul`] — the flat-matrix pack-per-call bridge, kept as a thin
//!   compatibility wrapper (a throwaway plan per call) for one-shot
//!   contractions; prefer plans for weights.
//! * [`tuning`] — process-wide consumption of the offline tuning DB: plans
//!   and the flat bridges resolve their `loop_spec_string` through an
//!   installed [`pl_autotuner::TuningDb`] snapshot, falling back to the
//!   built-in `default_parallel` specs. Installs advance a registry
//!   [`tuning::epoch`] that makes existing plans re-resolve their cached
//!   kernels.
//!
//! ## The prepared-op lifecycle
//!
//! 1. **build** — constructing a model packs every weight into its blocked
//!    kernel layout exactly once (`MatmulPlan::new`);
//! 2. **warm** — a serving runtime asks the model for the exact GEMM
//!    shapes its plans will execute ([`DecoderModel::plan_problems`]),
//!    tunes/install a DB snapshot, then pre-constructs the kernels
//!    ([`DecoderModel::warm_plans`]);
//! 3. **execute** — decode/forward paths only gather and pack
//!    *activations*; weights are never touched again.

pub mod bert;
pub mod kvpool;
pub mod llm;
pub mod matmul;
pub mod prepared;
pub mod resnet;
pub mod sparse_bert;
pub mod tuning;

pub use bert::{BertConfig, BertEncoder, BertLayer};
pub use kvpool::{
    KvPage, KvPagePool, KvPoolExhausted, KvSeq, KvSnapshot, PrefixCache, PrefixHit,
    DEFAULT_PAGE_TOKENS,
};
pub use llm::{prefill_chunk_widths, Decoder, DecoderConfig, DecoderModel, DecoderState};
pub use prepared::{ActMatrix, MatmulPlan, PlanRun, Precision, SpmmPlan};
pub use resnet::{resnet50_conv_flops, resnet50_conv_shapes, BatchNorm, ConvLayerSpec, FcHead};
pub use sparse_bert::{prune_to_block_sparse, SparseBertLayer};
