//! # pl-router — sharded scale-out serving across core-partitioned shards
//!
//! `pl_serve::Server` scales a decoder across the threads of **one** pool;
//! this crate scales serving across **several** servers. A [`Router`] owns
//! N [`Shard`]s — each a `Server` backed by its *own* `ThreadPool` over a
//! disjoint slice of the machine's cores (e.g. 8 threads split 2×4, one
//! shard per NUMA domain in the deployment this models) — and fronts them
//! with:
//!
//! * **session affinity** ([`router`]): a session is placed on exactly one
//!   shard at creation and every subsequent prefill/step routes there, so
//!   its KV cache never moves on the hot path and decode stays bit-identical
//!   to a single-server run of the same stream;
//! * **least-loaded placement** ([`placement`]): new sessions go to the
//!   shard with the smallest live-session + queue-depth load;
//! * **graceful close** ([`Router::close_session`]): a session's own
//!   queued work completes before its KV cache is freed;
//! * **aggregated observability** ([`Router::metrics_snapshot`]): the
//!   shards' registries merge into one `shard`-labelled fleet snapshot —
//!   counters add, latency quantiles recompute from summed histogram
//!   buckets — and [`Router::stats`] is the typed view of that merge.
//!
//! The TPP thesis — a small set of composable primitives scaling from
//! single-core kernels to cluster workloads — is the design argument
//! here: the router composes unmodified `Server` instances exactly the
//! way `Server` composes unmodified kernels.

pub mod placement;
pub mod router;
pub mod shard;

pub use placement::{placement_order, ShardLoad};
pub use router::{Router, RouterConfig, RouterSessionId};
pub use shard::{partition_threads, Shard};

use pl_serve::ServeError;

/// Errors surfaced by the routing tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterError {
    /// The session id is not live on this router.
    UnknownSession(RouterSessionId),
    /// No shard could accept the new session: every shard is at its
    /// session cap.
    NoShardAvailable,
    /// The configuration is unusable (e.g. fewer threads than shards).
    BadConfig(String),
    /// An error from the owning shard's server.
    Serve(ServeError),
}

impl From<ServeError> for RouterError {
    fn from(e: ServeError) -> Self {
        RouterError::Serve(e)
    }
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::UnknownSession(id) => write!(f, "unknown router session {id}"),
            RouterError::NoShardAvailable => write!(f, "no shard can accept a new session"),
            RouterError::BadConfig(why) => write!(f, "bad router config: {why}"),
            RouterError::Serve(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouterError::Serve(e) => Some(e),
            _ => None,
        }
    }
}
