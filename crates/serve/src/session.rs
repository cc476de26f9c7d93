//! Sessions: one decode stream per connected client.

use pl_dnn::DecoderState;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Server-assigned session identifier.
pub type SessionId = u64;

/// Tenant index (`0..ServerConfig::tenants`).
pub type TenantId = usize;

/// One decode stream: the per-session KV cache plus bookkeeping. Weights
/// are *not* here — every session shares the server's `Arc<DecoderModel>`,
/// so N sessions cost N KV caches and one copy of the model.
pub struct Session {
    /// Server-assigned id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// KV cache and decode position.
    pub state: DecoderState,
    /// Tokens decoded through the step path.
    pub generated: u64,
    /// Monotonic ticket dispenser for submitted decode steps. Shared
    /// (`Arc`) with the session's `CheckedOut` marker so a step submitted
    /// during an execution window still draws an ordered ticket.
    pub submit_seq: Arc<AtomicU64>,
    /// The next decode-step ticket to execute — the program-order cursor
    /// batch checkout enforces (a step whose ticket is ahead of this is
    /// deferred, so concurrent pumps cannot reorder a pipelined stream).
    pub exec_seq: u64,
}

impl Session {
    /// Fresh session around an empty KV state.
    pub fn new(id: SessionId, tenant: TenantId, state: DecoderState) -> Self {
        Session {
            id,
            tenant,
            state,
            generated: 0,
            submit_seq: Arc::new(AtomicU64::new(0)),
            exec_seq: 0,
        }
    }

    /// Tokens currently held in the KV cache.
    pub fn context_len(&self) -> usize {
        self.state.cached_tokens()
    }

    /// Whether another `tokens`-token forward fits in the KV cache.
    pub fn fits(&self, tokens: usize) -> bool {
        self.state.cached_tokens() + tokens <= self.state.capacity()
    }
}
