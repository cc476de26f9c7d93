//! # pl-serve — batched inference serving on the PARLOOPER/TPP stack
//!
//! The paper proves the kernels (BRGEMM, fused TPPs, KV-cached decoding,
//! §IV-A/Fig. 11); this crate turns them into a *system*: a multi-tenant
//! serving runtime that drives [`pl_dnn::DecoderModel`] under concurrent,
//! bursty load.
//!
//! Architecture (see `crates/serve/README.md` for the full picture):
//!
//! * [`Session`] — one decode stream: a per-session KV cache
//!   ([`pl_dnn::DecoderState`]) over the server's single shared weight
//!   copy, with a prefill → step lifecycle.
//! * [`DynamicBatcher`] — lock-light per-tenant submission rings
//!   ([`BoundedQueue`], Vyukov-style atomic tickets in the spirit of
//!   `pl_runtime::DynamicQueue`) plus round-robin batch formation.
//! * [`Server`] — admission control (session caps, bounded rings =
//!   backpressure), the batch execution path (one parallel region per
//!   batch), and the blocking client API.
//! * [`ServerStats`] — the one telemetry plane: every serving fact is
//!   recorded once into a `pl_metrics` registry; [`StatsSnapshot`] is the
//!   typed view (throughput, p50/p99 step latency, batch-size
//!   distribution) of the same series Prometheus scrapes.
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

pub mod batcher;
pub mod prefill;
pub mod queue;
pub mod server;
pub mod session;
pub mod stats;

pub use batcher::{ChunkItem, DynamicBatcher, StepRequest, WorkItem};
pub use prefill::PrefillJob;
pub use queue::BoundedQueue;
pub use server::{Server, ServerConfig, SessionExport};
pub use session::{Session, SessionId, TenantId};
pub use stats::{ServerStats, StatsSnapshot};
// The health/SLO vocabulary servers speak — re-exported so consumers
// (router, examples) need not depend on pl_metrics directly.
pub use pl_metrics::{Health, MetricsRegistry, MetricsSnapshot, SloWindow, Watchdog};

/// What a decode step resolves to.
pub type StepResult = Result<Vec<f32>, ServeError>;

/// Errors surfaced by the serving runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The session id is not live on this server.
    UnknownSession(SessionId),
    /// The tenant index is outside `ServerConfig::tenants`.
    UnknownTenant(TenantId),
    /// The tenant's submission ring is full — retry later (backpressure).
    Backpressure {
        /// The tenant whose ring rejected the request.
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
    /// The work item carried a program-order ticket the session has
    /// already executed past. Possible only when the one-submitter-per-
    /// session protocol was violated (two threads raced submits and a
    /// backpressure rollback duplicated a ticket); rejected loudly
    /// instead of deferred forever.
    StaleTicket {
        /// The session whose ticket was stale.
        session: SessionId,
    },
    /// The batch this request rode in failed while executing: a region
    /// member panicked (e.g. the shard's bounded KV page pool ran dry
    /// mid-forward). The batch's sessions are closed — their KV may be
    /// partially appended — and the server keeps serving.
    BatchFailed {
        /// The panic message.
        reason: String,
    },
    /// The session is momentarily checked out by an executing batch —
    /// retry shortly (export/migration path; batches re-insert their
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
            ServeError::StaleTicket { session } => {
                write!(f, "stale program-order ticket for session {session} (duplicate submit?)")
            }
            ServeError::BatchFailed { reason } => write!(f, "batch failed: {reason}"),
            ServeError::SessionBusy { session } => {
                write!(f, "session {session} is checked out by an executing batch — retry")
            }
        }
    }
}

impl std::error::Error for ServeError {}
