//! A shard: one `pl_serve::Server` on its own core-count partition.

use pl_dnn::DecoderModel;
use pl_runtime::ThreadPool;
use pl_serve::{Server, ServerConfig};
use std::sync::Arc;

/// Splits `total` threads over `shards` disjoint partitions, each at least
/// 1 thread, remainder to the lowest-indexed shards (8 over 2 → `[4, 4]`;
/// 7 over 2 → `[4, 3]`). The partitions are *counts*, not pinned core
/// masks — each shard builds its own [`ThreadPool`] of that size, and the
/// sum never exceeds `max(total, shards)`, so co-resident shards do not
/// oversubscribe the machine.
pub fn partition_threads(total: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let total = total.max(shards);
    let base = total / shards;
    let extra = total % shards;
    (0..shards).map(|i| base + usize::from(i < extra)).collect()
}

/// One serving shard: a [`Server`] over its own disjoint [`ThreadPool`].
///
/// The model is shared (`Arc<DecoderModel>` — one weight copy per
/// process; in the multi-machine deployment this models, each shard would
/// hold its own replica), but *everything stateful* is per-shard: the
/// pool, the session table, the KV caches, the submission rings, the
/// stats. A session placed here never sees another shard's state — the
/// no-cross-shard-KV-leakage property is structural.
pub struct Shard {
    index: usize,
    threads: usize,
    server: Server,
}

impl Shard {
    /// Builds shard `index` with `threads` pool threads over `model`.
    pub fn new(index: usize, threads: usize, model: Arc<DecoderModel>, cfg: ServerConfig) -> Self {
        let pool = Arc::new(ThreadPool::new(threads.max(1)));
        Shard { index, threads: threads.max(1), server: Server::new(model, pool, cfg) }
    }

    /// Shard index within the router.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Pool threads this shard owns.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The underlying server.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable access (start/shutdown need it).
    pub(crate) fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_disjoint_exhaustive_and_balanced() {
        assert_eq!(partition_threads(8, 2), vec![4, 4]);
        assert_eq!(partition_threads(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(partition_threads(7, 2), vec![4, 3]);
        assert_eq!(partition_threads(9, 4), vec![3, 2, 2, 2]);
        // Every shard gets at least one thread even when oversubscribed.
        assert_eq!(partition_threads(2, 3), vec![1, 1, 1]);
        assert_eq!(partition_threads(0, 2), vec![1, 1]);
        for (total, shards) in [(8, 2), (13, 5), (6, 6), (1, 1)] {
            let parts = partition_threads(total, shards);
            assert_eq!(parts.len(), shards);
            assert_eq!(parts.iter().sum::<usize>(), total.max(shards));
            assert!(parts.iter().all(|&p| p >= 1));
            // Balanced to within one thread.
            let (min, max) = (parts.iter().min().unwrap(), parts.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }
}
