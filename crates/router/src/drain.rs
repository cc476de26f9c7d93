//! Graceful drains: retiring work without dropping it.
//!
//! Two granularities:
//!
//! * **session** — [`Router::close_session`] waits for the session's own
//!   accepted work first, so a step still sitting in the submission
//!   rings executes before the session's KV cache is freed;
//! * **shard** — [`Router::begin_drain`] removes a shard from placement
//!   (existing sessions keep their affinity and keep being served),
//!   [`Router::drain_shard`] additionally pumps its queues dry, and its
//!   [`DrainReport::is_empty`] reports when the shard holds no work at
//!   all — the point where it could be torn down or rebalanced.

use crate::router::Router;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Upper bound on quiesce iterations — a safety valve so a shard under
/// sustained concurrent load (pending never observed at 0) cannot wedge a
/// close forever. One iteration is one pump (manual mode) or one short
/// wait (started mode).
const QUIESCE_LIMIT: usize = 4096;

/// Progress report of a shard drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// The shard being drained.
    pub shard: usize,
    /// Steps executed while draining (manual mode only).
    pub executed: usize,
    /// Steps still unfinished (ring-queued or executing in a batch) when
    /// the drain call returned.
    pub pending: usize,
    /// Sessions still live (clients own their lifecycle; a drain does not
    /// force-close them).
    pub live_sessions: usize,
}

impl DrainReport {
    /// Whether the shard holds no queued work.
    pub fn is_quiesced(&self) -> bool {
        self.pending == 0
    }

    /// Whether the shard is fully evacuated (no queue, no sessions) and
    /// could be removed from the fleet.
    pub fn is_empty(&self) -> bool {
        self.pending == 0 && self.live_sessions == 0
    }
}

impl Router {
    /// Removes `shard` from new-session placement. Sessions already
    /// placed there keep their affinity and keep being served — a drain
    /// stops *growth*, not service.
    pub fn begin_drain(&self, shard: usize) {
        self.shards[shard].set_draining(true);
    }

    /// Returns `shard` to the placement pool.
    pub fn cancel_drain(&self, shard: usize) {
        self.shards[shard].set_draining(false);
    }

    /// Whether `shard` is currently excluded from placement.
    pub fn is_draining(&self, shard: usize) -> bool {
        self.shards[shard].is_draining()
    }

    /// Lets `shard`'s accepted steps complete: pumps on the calling
    /// thread when the router is in manual-drive mode, otherwise briefly
    /// yields to the shard's background batcher, until the shard holds
    /// **no unfinished step** — neither ring-queued
    /// ([`pl_serve::Server::pending`]) nor executing inside a batch
    /// ([`pl_serve::Server::in_flight`], which covers the window where a
    /// batch has the sessions checked out of the table) — or the safety
    /// bound trips under sustained load from other sessions. Used by the
    /// graceful [`Router::close_session`] path: the quiesce is exact in
    /// manual mode and for clients that close after receiving their last
    /// reply; under continuous concurrent traffic it is best-effort
    /// (bounded).
    pub(crate) fn quiesce_shard(&self, shard: usize) -> usize {
        let server = self.shards[shard].server();
        let started = self.started.load(Ordering::Acquire);
        let mut executed = 0usize;
        let mut spins = 0usize;
        // `in_flight` counts every accepted-but-unreplied step, whether
        // still ring-queued or already executing — one signal suffices.
        while server.in_flight() > 0 && spins < QUIESCE_LIMIT {
            if started {
                std::thread::sleep(Duration::from_micros(50));
            } else {
                executed += server.pump();
            }
            spins += 1;
        }
        executed
    }

    /// Marks `shard` draining and quiesces it, reporting what remains.
    /// Idempotent; call repeatedly until [`DrainReport::is_empty`] once
    /// clients have closed their sessions.
    pub fn drain_shard(&self, shard: usize) -> DrainReport {
        self.begin_drain(shard);
        let executed = self.quiesce_shard(shard);
        let server = self.shards[shard].server();
        DrainReport {
            shard,
            executed,
            pending: server.in_flight(),
            live_sessions: server.session_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::router::{Router, RouterConfig};
    use pl_dnn::{DecoderConfig, DecoderModel};
    use pl_serve::ServerConfig;
    use pl_tensor::{fill_uniform, Xorshift};
    use std::sync::Arc;

    fn router(shards: usize) -> Router {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 99));
        Router::new(
            model,
            RouterConfig { shards, total_threads: 4, server: ServerConfig::default() },
        )
        .unwrap()
    }

    fn token(seed: u64, hidden: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
        x
    }

    #[test]
    fn draining_shard_takes_no_new_sessions_but_serves_existing() {
        let r = router(2);
        let hidden = r.shard(0).server().model().config().hidden;
        let on_zero = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(on_zero), Some(0));
        r.begin_drain(0);
        assert!(r.is_draining(0));
        // All new placements avoid the draining shard.
        for _ in 0..3 {
            let id = r.create_session(0).unwrap();
            assert_eq!(r.placement_of(id), Some(1));
        }
        // The resident session still decodes on its shard.
        let rx = r.submit_step(on_zero, &token(1, hidden)).unwrap();
        while r.pump_all() == 0 {}
        assert!(rx.recv().unwrap().is_ok());
        // Cancelling restores placement eligibility.
        r.cancel_drain(0);
        let back = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(back), Some(0), "shard 0 is least-loaded again");
    }

    #[test]
    fn drain_during_chunked_prefill_observes_and_finishes_the_chunks() {
        // Satellite regression: prefill used to run inline, invisible to
        // `in_flight`, so a drain begun mid-prefill reported the shard
        // quiesced while a forward was still executing. Chunked prefill
        // counts every chunk in `in_flight`, so the drain both *sees* the
        // prefill and pumps it to completion.
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 99));
        let r = Router::new(
            model,
            crate::router::RouterConfig {
                shards: 2,
                total_threads: 4,
                server: ServerConfig { prefill_chunk: 2, kv_capacity: 32, ..Default::default() },
            },
        )
        .unwrap();
        let hidden = r.shard(0).server().model().config().hidden;
        let id = r.create_session(0).unwrap();
        let shard = r.placement_of(id).unwrap();
        let tokens = 8; // 4 chunks of 2
        let rx = r.submit_prefill(id, &token(7, hidden * tokens), tokens).unwrap();
        assert_eq!(
            r.shard(shard).server().in_flight(),
            1,
            "prefill work is visible to the drain before any chunk ran"
        );
        let report = r.drain_shard(shard);
        assert!(report.is_quiesced(), "drain runs the prefill to completion");
        assert_eq!(report.executed, 4, "all four chunks executed by the drain");
        assert_eq!(report.live_sessions, 1);
        assert_eq!(rx.recv().unwrap().unwrap().len(), hidden * tokens);
        assert_eq!(r.shard(shard).server().stats().snapshot().prefill_chunks, 4);
        r.close_session(id).unwrap();
        assert!(r.drain_shard(shard).is_empty());
    }

    #[test]
    fn drain_shard_pumps_queues_dry_and_reports_emptiness() {
        let r = router(2);
        let hidden = r.shard(0).server().model().config().hidden;
        let id = r.create_session(0).unwrap();
        let shard = r.placement_of(id).unwrap();
        let rx = r.submit_step(id, &token(2, hidden)).unwrap();
        let report = r.drain_shard(shard);
        assert_eq!(report.shard, shard);
        assert!(report.is_quiesced(), "queued step executed by the drain");
        assert_eq!(report.executed, 1);
        assert_eq!(report.live_sessions, 1, "drain does not force-close sessions");
        assert!(!report.is_empty());
        assert!(rx.recv().unwrap().is_ok());
        // After the client closes, the shard is fully evacuated.
        r.close_session(id).unwrap();
        let report = r.drain_shard(shard);
        assert!(report.is_empty());
    }
}
