//! # pl-serve — batched inference serving on the PARLOOPER/TPP stack
//!
//! The paper proves the kernels (BRGEMM, fused TPPs, KV-cached decoding,
//! §IV-A/Fig. 11); this crate turns them into a *system*: a multi-tenant
//! serving runtime that drives [`pl_dnn::DecoderModel`] under concurrent,
//! bursty load.
//!
//! Architecture (see `crates/serve/README.md` for the full picture):
//!
//! * `Session` — one decode stream: a per-session KV cache
//!   ([`pl_dnn::DecoderState`]) over the server's single shared weight
//!   copy, with a prefill → step lifecycle.
//! * `SessionTable` (`batcher.rs`) — every live session with its queued
//!   work in its own slot, under one mutex: admission (session cap,
//!   per-tenant queue bound = backpressure), program order (one FIFO per
//!   session, one item of a session per batch) and round-robin batch
//!   formation with checkout, all one module's decision.
//! * [`Server`] — execution (one parallel region per batch), reply
//!   delivery, and the blocking client API.
//! * [`ServerStats`] — the one telemetry plane: every serving fact is
//!   recorded once into a [`MetricsRegistry`]; [`StatsSnapshot`] is the
//!   typed view (throughput, p50/p99 step latency, batch-size
//!   distribution) of the same series Prometheus scrapes.
//! * The metrics modules (`registry`, `buckets`, `render`, `promtext`) —
//!   a std-only labeled registry of counters, gauges and log2-bucket
//!   histograms with lock-free handles and mergeable snapshots, its
//!   Prometheus text renderer ([`render_prometheus`]) and the in-repo
//!   conformance checker for that text ([`parse_prometheus`]).
//!
//! Every batch — decode lanes plus at most one prefill chunk — executes
//! as **one** ragged forward ([`pl_dnn::DecoderModel::forward_batch`]):
//! the items' token columns are gathered into one `hidden x Σwidth`
//! activation matrix, every layer's projections run once over all of it
//! (each weight element loaded once serves every lane), attention runs per
//! item against its own paged KV, and the whole thing is a single
//! parallel region with team barriers between phases. Each item's output
//! is **bit-identical** to running it alone — at f32 and int8 — which the
//! integration tests and `examples/serve_llm.rs` assert exactly.

mod batcher;
mod buckets;
mod prefill;
mod promtext;
mod registry;
mod render;
pub mod server;
mod session;
pub mod stats;

pub use promtext::{parse_prometheus, PromReport};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricsRegistry, MetricsSnapshot,
};
pub use render::render_prometheus;
pub use server::{Server, ServerConfig, SessionExport};
pub use session::{SessionId, TenantId};
pub use stats::{ServerStats, StatsSnapshot};

/// What a decode step resolves to.
pub type StepResult = Result<Vec<f32>, ServeError>;

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The session id is not live on this server.
    UnknownSession(SessionId),
    /// The tenant index is outside `ServerConfig::tenants`.
    UnknownTenant(TenantId),
    /// The tenant already has `ServerConfig::queue_capacity` work items
    /// queued — retry later (backpressure).
    Backpressure {
        /// The tenant whose queue bound refused the request.
        tenant: TenantId,
    },
    /// The server-wide session cap is reached.
    TooManySessions {
        /// The configured cap.
        limit: usize,
    },
    /// The session's KV cache cannot hold the requested tokens.
    KvExhausted {
        /// Tokens currently cached.
        context: usize,
        /// The session's KV capacity.
        capacity: usize,
    },
    /// Input length does not match the model's hidden size.
    BadInput {
        /// Expected element count.
        expected: usize,
        /// Provided element count.
        got: usize,
    },
    /// The server is shutting down.
    ShuttingDown,
    /// The batch this request rode in failed while executing: a region
    /// member panicked (e.g. the shard's bounded KV page pool ran dry
    /// mid-forward). The batch's sessions are closed — their KV may be
    /// partially appended — and the server keeps serving.
    BatchFailed {
        /// The panic message.
        reason: String,
    },
    /// The session is momentarily checked out by an executing batch —
    /// retry shortly ([`crate::Server::export_session`]; batches re-insert their
    /// sessions before delivering replies, so the window is microseconds
    /// wide).
    SessionBusy {
        /// The session that was checked out.
        session: SessionId,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant {t}"),
            ServeError::Backpressure { tenant } => {
                write!(f, "backpressure: tenant {tenant}'s queue is full")
            }
            ServeError::TooManySessions { limit } => {
                write!(f, "session limit {limit} reached")
            }
            ServeError::KvExhausted { context, capacity } => {
                write!(f, "KV cache exhausted ({context}/{capacity} tokens)")
            }
            ServeError::BadInput { expected, got } => {
                write!(f, "bad input: expected {expected} values, got {got}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BatchFailed { reason } => write!(f, "batch failed: {reason}"),
            ServeError::SessionBusy { session } => {
                write!(f, "session {session} is checked out by an executing batch — retry")
            }
        }
    }
}

impl std::error::Error for ServeError {}
