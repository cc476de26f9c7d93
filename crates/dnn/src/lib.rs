//! # pl-dnn — end-to-end DL workloads on PARLOOPER/TPP
//!
//! The paper's §IV workloads, rebuilt on the kernel layer:
//!
//! * [`bert`] — BERT encoder with the paper's four modules (Self-Attention,
//!   SelfOutput/Output, Intermediate), a layer's forward one parallel
//!   region whose column phases are Listing 6's epilogues, and its backward
//!   (Fig. 9 fine-tuning).
//! * [`sparse_bert`] — magnitude block-pruned BERT inference (Fig. 10): the
//!   dense layer's one forward body over block-sparse plans.
//! * [`llm`] — decoder-only LLM (GPT-J / Llama2 architectures) with KV
//!   cache: prefill (first token) and autoregressive steps (next tokens)
//!   (Fig. 11), plus exact flop/byte accounting of the full-size models.
//! * [`kvpool`] — paged KV storage behind the decoder: fixed-size pages
//!   from a shared block allocator ([`KvPagePool`]), a cache of computed
//!   prompt pages so shared prefixes are not recomputed ([`PrefixCache`]) and
//!   dense snapshots a session moves between servers in ([`KvSnapshot`]).
//! * [`resnet`] — the Fig. 7 convolution shape table, batchnorm (fwd/bwd)
//!   and pooling for ResNet-50 training (Table II).
//! * [`prepared`] — the **prepared-op execution API**: pack-once compiled
//!   plans ([`prepared::MatmulPlan`]) that own their blocked weight — or a
//!   block-sparse one, run by the same GEMM nest over a block-sparse tile —
//!   cached per-width kernels and reusable scratch.
//!   The model types above hold plans, so steady-state inference packs
//!   **zero** weight bytes per step (observable via
//!   [`prepared::pack_events`]). It also holds the in-team runner that
//!   executes a layer's declared phase list (the tables in [`llm`]'s and
//!   [`bert`]'s docs): every phase a PARLOOPER nest, every barrier and
//!   every column or row hand-off placed by the runner, so ownership is
//!   argued in that one module.
//! * [`matmul`] — the flat-matrix pack-per-call bridge, kept as a thin
//!   compatibility wrapper (a throwaway plan per call) for one-shot
//!   contractions; prefer plans for weights.
//!
//! ## The prepared-op lifecycle
//!
//! 1. **build** — constructing a model packs every weight into its blocked
//!    kernel layout exactly once (`MatmulPlan::new`);
//! 2. **warm** — optionally, pre-construct the kernels for the widths a
//!    caller will execute ([`DecoderModel::warm_plans`]); otherwise each
//!    width's kernel is built on first use. Every kernel runs the
//!    built-in `default_parallel` spec;
//! 3. **execute** — decode/forward paths only gather and pack
//!    *activations*; weights are never touched again.

pub mod bert;
pub mod kvpool;
pub mod llm;
pub mod matmul;
pub mod prepared;
pub mod resnet;
pub mod sparse_bert;

pub use bert::{BertConfig, BertEncoder, BertLayer};
pub use kvpool::{
    KvPage, KvPagePool, KvPoolExhausted, KvSeq, KvSnapshot, PrefixCache, PrefixHit,
    DEFAULT_PAGE_TOKENS,
};
pub use llm::{prefill_chunk_widths, Decoder, DecoderConfig, DecoderModel, DecoderState};
pub use prepared::{MatmulPlan, Precision};
pub use resnet::{resnet50_conv_shapes, BatchNorm, ConvLayerSpec, FcHead};
pub use sparse_bert::SparseBertLayer;
