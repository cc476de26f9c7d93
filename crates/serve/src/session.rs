//! Sessions: one decode stream per connected client.

use pl_dnn::DecoderState;

/// Server-assigned session identifier.
pub type SessionId = u64;

/// Tenant index (`0..ServerConfig::tenants`).
pub type TenantId = usize;

/// One decode stream: the per-session KV cache plus bookkeeping. Weights
/// are *not* here — every session shares the server's `Arc<DecoderModel>`,
/// so N sessions cost N KV caches and one copy of the model.
pub(crate) struct Session {
    /// Server-assigned id.
    pub id: SessionId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// KV cache and decode position.
    pub state: DecoderState,
    /// Tokens decoded through the step path.
    pub generated: u64,
}

impl Session {
    /// Fresh session around an empty KV state.
    pub fn new(id: SessionId, tenant: TenantId, state: DecoderState) -> Self {
        Session { id, tenant, state, generated: 0 }
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
