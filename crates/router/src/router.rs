//! The front door: session-affine routing over N core-partitioned shards.

use crate::placement::{placement_order, ShardLoad};
use crate::shard::{partition_threads, Shard};
use crate::RouterError;
use pl_dnn::DecoderModel;
use pl_serve::{
    MetricsSnapshot, ServeError, ServerConfig, SessionId, StatsSnapshot, StepResult, TenantId,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Router-assigned session identifier — a distinct namespace from the
/// per-shard [`SessionId`]s (two shards can both hold a local session 1;
/// the router id disambiguates, so there is no cross-shard aliasing).
pub type RouterSessionId = u64;

/// Where a router session lives. Written once at placement: the session
/// and its KV cache stay on that shard until it closes.
#[derive(Debug, Clone, Copy)]
struct Placement {
    shard: usize,
    local: SessionId,
}

/// Scale-out knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of `Server` shards to build.
    pub shards: usize,
    /// Total pool threads split disjointly over the shards
    /// ([`partition_threads`]; e.g. 8 threads over 2 shards → 2×4), so
    /// co-resident shards never oversubscribe the machine.
    pub total_threads: usize,
    /// Per-shard server configuration (every shard gets a copy).
    pub server: ServerConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: 2,
            total_threads: pl_runtime::default_threads(),
            server: ServerConfig::default(),
        }
    }
}

/// The sharded serving tier: N [`Shard`]s behind session-affine routing.
///
/// Lifecycle: [`Router::new`] → either [`Router::start`] (every shard's
/// background batcher) or manual drive ([`Router::pump_all`], or the
/// blocking calls, which pump the session's shard on the calling thread)
/// → [`Router::shutdown`] (or drop: each shard's server shuts down).
pub struct Router {
    shards: Vec<Shard>,
    cfg: RouterConfig,
    sessions: Mutex<HashMap<RouterSessionId, Placement>>,
    next_session: AtomicU64,
}

impl Router {
    /// Builds the shard fleet over one shared `model`. Thread partitions
    /// come from [`partition_threads`]; every shard gets at least one
    /// thread.
    pub fn new(model: Arc<DecoderModel>, cfg: RouterConfig) -> Result<Self, RouterError> {
        if cfg.shards == 0 {
            return Err(RouterError::BadConfig("shards must be >= 1".into()));
        }
        let parts = partition_threads(cfg.total_threads, cfg.shards);
        let shards = parts
            .iter()
            .enumerate()
            .map(|(i, &t)| Shard::new(i, t, Arc::clone(&model), cfg.server.clone()))
            .collect();
        Ok(Router {
            shards,
            cfg,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
        })
    }

    /// Number of shards.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard.
    pub fn shard(&self, index: usize) -> &Shard {
        &self.shards[index]
    }

    /// All shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Live sessions across the fleet.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|s| s.server().session_count()).sum()
    }

    /// Current placement loads (the inputs to [`placement_order`]).
    fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| ShardLoad {
                shard: s.index(),
                live_sessions: s.server().session_count(),
                queue_depth: s.server().pending(),
            })
            .collect()
    }

    /// Fleet-wide metrics: every shard's snapshot stamped with its
    /// `shard` label, then merged (counters and histogram buckets sum;
    /// gauges such as `pl_in_flight` stay per-shard thanks to the label).
    /// Render with [`pl_serve::render_prometheus`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut fleet = MetricsSnapshot::default();
        for shard in &self.shards {
            let idx = shard.index().to_string();
            fleet.merge(&shard.server().metrics_snapshot().with_label("shard", &idx));
        }
        fleet
    }

    /// Admits a new session: least-loaded shard first, then the next
    /// candidates if it is full ([`placement_order`]). The session is
    /// *affine* to the chosen shard for its whole life.
    pub fn create_session(&self, tenant: TenantId) -> Result<RouterSessionId, RouterError> {
        if tenant >= self.cfg.server.tenants {
            return Err(RouterError::Serve(ServeError::UnknownTenant(tenant)));
        }
        for shard_idx in placement_order(&self.loads()) {
            match self.shards[shard_idx].server().create_session(tenant) {
                Ok(local) => {
                    let id = self.next_session.fetch_add(1, Ordering::Relaxed);
                    let mut sessions = self.sessions.lock().expect("placement table poisoned");
                    sessions.insert(id, Placement { shard: shard_idx, local });
                    return Ok(id);
                }
                // A full shard is not fatal — spill to the next candidate.
                Err(ServeError::TooManySessions { .. }) => continue,
                Err(e) => return Err(RouterError::Serve(e)),
            }
        }
        Err(RouterError::NoShardAvailable)
    }

    /// The shard a session lives on (None when unknown/closed).
    pub fn placement_of(&self, id: RouterSessionId) -> Option<usize> {
        self.sessions.lock().expect("placement table poisoned").get(&id).map(|p| p.shard)
    }

    fn lookup(&self, id: RouterSessionId) -> Result<Placement, RouterError> {
        let sessions = self.sessions.lock().expect("placement table poisoned");
        sessions.get(&id).copied().ok_or(RouterError::UnknownSession(id))
    }

    /// Routes a blocking prefill to the session's shard. Under the hood
    /// this is the chunked path ([`Router::submit_prefill`]): the prompt
    /// is split into `prefill_chunk`-bounded chunks that interleave with
    /// the shard's decode batches, so a long prompt does not monopolize
    /// the shard's pool.
    pub fn prefill(
        &self,
        id: RouterSessionId,
        x: &[f32],
        tokens: usize,
    ) -> Result<Vec<f32>, RouterError> {
        let p = self.lookup(id)?;
        Ok(self.shards[p.shard].server().prefill(p.local, x, tokens)?)
    }

    /// Routes a non-blocking chunked prefill to the session's shard
    /// (session affinity: the chunks — and the KV cache they fill — stay
    /// on the shard the session was placed on). The full `hidden x
    /// tokens` output arrives on the returned channel after the final
    /// chunk; every chunk counts toward the shard's
    /// [`pl_serve::Server::in_flight`], and [`Router::close_session`]
    /// returns after the last one.
    pub fn submit_prefill(
        &self,
        id: RouterSessionId,
        x: &[f32],
        tokens: usize,
    ) -> Result<mpsc::Receiver<StepResult>, RouterError> {
        let p = self.lookup(id)?;
        Ok(self.shards[p.shard].server().submit_prefill(p.local, x, tokens)?)
    }

    /// Routes a non-blocking decode step to the session's shard.
    pub fn submit_step(
        &self,
        id: RouterSessionId,
        x: &[f32],
    ) -> Result<mpsc::Receiver<StepResult>, RouterError> {
        let p = self.lookup(id)?;
        Ok(self.shards[p.shard].server().submit_step(p.local, x)?)
    }

    /// Blocking decode step on the session's shard ([`pl_serve::Server::step`]):
    /// in manual-drive mode it pumps that shard on the calling thread.
    pub fn step(&self, id: RouterSessionId, x: &[f32]) -> Result<Vec<f32>, RouterError> {
        let p = self.lookup(id)?;
        Ok(self.shards[p.shard].server().step(p.local, x)?)
    }

    /// Ends a session on its shard ([`pl_serve::Server::close_session`]:
    /// its own queued work completes first) and forgets its placement,
    /// whatever the shard answers. Returns tokens decoded.
    pub fn close_session(&self, id: RouterSessionId) -> Result<u64, RouterError> {
        let p = self.lookup(id)?;
        let closed = self.shards[p.shard].server().close_session(p.local);
        self.sessions.lock().expect("placement table poisoned").remove(&id);
        Ok(closed?)
    }

    /// Pumps every shard once on the calling thread; returns the total
    /// steps executed. The manual drive loop for tests and
    /// single-threaded embedders — the same code path each shard's
    /// background batcher runs.
    pub fn pump_all(&self) -> usize {
        self.shards.iter().map(|s| s.server().pump()).sum()
    }

    /// Starts every shard's background batcher thread. Idempotent.
    pub fn start(&mut self) {
        for shard in &mut self.shards {
            shard.server_mut().start();
        }
    }

    /// Stops admissions, drains every shard's queues, joins the batchers.
    pub fn shutdown(&mut self) {
        for shard in &mut self.shards {
            shard.server_mut().shutdown();
        }
    }

    /// Per-shard stats snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.server().stats().snapshot()).collect()
    }

    /// The fleet-wide snapshot: the typed view of
    /// [`Router::metrics_snapshot`], summed over shards.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::from_metrics(&self.metrics_snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_dnn::DecoderConfig;
    use pl_runtime::ThreadPool;
    use pl_serve::Server;
    use pl_tensor::{fill_uniform, Xorshift};

    fn tiny_router(shards: usize, server: ServerConfig) -> Router {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 4242));
        Router::new(model, RouterConfig { shards, total_threads: 4, server }).unwrap()
    }

    fn token(seed: u64, hidden: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
        x
    }

    #[test]
    fn config_validation_and_partitioning() {
        assert!(matches!(
            Router::new(
                Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 1)),
                RouterConfig { shards: 0, ..Default::default() }
            ),
            Err(RouterError::BadConfig(_))
        ));
        let r = tiny_router(2, ServerConfig::default());
        assert_eq!(r.shard_count(), 2);
        assert_eq!(r.shard(0).threads(), 2);
        assert_eq!(r.shard(1).threads(), 2);
        assert_eq!(r.shard(0).threads() + r.shard(1).threads(), 4, "disjoint partition");
    }

    #[test]
    fn least_loaded_placement_balances_and_is_affine() {
        let r = tiny_router(2, ServerConfig::default());
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        let placements: Vec<_> = ids.iter().map(|&id| r.placement_of(id).unwrap()).collect();
        // 4 sessions over 2 empty shards: 2 per shard, alternating.
        assert_eq!(placements, vec![0, 1, 0, 1]);
        assert_eq!(r.session_count(), 4);
        // Affinity: placements never change as traffic flows.
        let hidden = r.shard(0).server().model().config().hidden;
        for (i, &id) in ids.iter().enumerate() {
            let rx = r.submit_step(id, &token(10 + i as u64, hidden)).unwrap();
            while r.pump_all() == 0 {}
            rx.recv().unwrap().unwrap();
            assert_eq!(r.placement_of(id).unwrap(), placements[i], "session {i} migrated");
        }
        // Each shard executed exactly its own sessions' steps.
        let per_shard = r.shard_stats();
        assert_eq!(per_shard[0].completed, 2);
        assert_eq!(per_shard[1].completed, 2);
        // The fleet view is the fold of the one merged metrics snapshot
        // (only the uptime clock moves between two reads).
        let fleet = r.stats();
        assert_eq!(fleet.completed, 4);
        assert_eq!(fleet.batches, per_shard[0].batches + per_shard[1].batches);
        let again = StatsSnapshot::from_metrics(&r.metrics_snapshot());
        let uptime = (fleet.elapsed_s, fleet.tokens_per_s);
        assert_eq!(StatsSnapshot { elapsed_s: uptime.0, tokens_per_s: uptime.1, ..again }, fleet);
    }

    #[test]
    fn full_shard_spills_then_fleet_exhausts() {
        let r = tiny_router(2, ServerConfig { max_sessions: 1, ..Default::default() });
        let a = r.create_session(0).unwrap();
        let b = r.create_session(0).unwrap();
        assert_ne!(r.placement_of(a), r.placement_of(b), "second session spills");
        assert!(matches!(r.create_session(0), Err(RouterError::NoShardAvailable)));
        r.close_session(a).unwrap();
        let c = r.create_session(0).unwrap();
        assert!(r.placement_of(c).is_some(), "freed capacity is reusable");
        assert!(matches!(
            r.create_session(99),
            Err(RouterError::Serve(ServeError::UnknownTenant(99)))
        ));
    }

    #[test]
    fn routed_streams_match_single_server_bit_identical() {
        // The affinity + no-KV-leakage correctness story in miniature:
        // every session's routed stream must equal an unbatched forward
        // over the same shared weights, regardless of which shard ran it.
        let r = tiny_router(2, ServerConfig::default());
        let model = Arc::clone(r.shard(0).server().model());
        let hidden = model.config().hidden;
        let n = 4;
        let ids: Vec<_> = (0..n).map(|_| r.create_session(0).unwrap()).collect();
        let steps = 3usize;
        let mut streams: Vec<Vec<Vec<f32>>> = vec![Vec::new(); n];
        for t in 0..steps {
            let rxs: Vec<_> = ids
                .iter()
                .enumerate()
                .map(|(s, &id)| {
                    let x = if t == 0 {
                        token(800 + s as u64, hidden)
                    } else {
                        streams[s].last().unwrap().clone()
                    };
                    r.submit_step(id, &x).unwrap()
                })
                .collect();
            while r.pump_all() > 0 {}
            for (s, rx) in rxs.into_iter().enumerate() {
                streams[s].push(rx.recv().unwrap().unwrap());
            }
        }
        let pool = ThreadPool::new(2);
        for (s, stream) in streams.iter().enumerate() {
            let mut st = model.new_state(16);
            let mut x = token(800 + s as u64, hidden);
            for (t, got) in stream.iter().enumerate() {
                let want = model.forward(&mut st, &x, 1, &pool);
                assert_eq!(got, &want, "session {s} step {t} diverged");
                x = want;
            }
        }
    }

    #[test]
    fn close_session_drains_queued_steps_first() {
        let r = tiny_router(2, ServerConfig::default());
        let hidden = r.shard(0).server().model().config().hidden;
        let id = r.create_session(0).unwrap();
        let rx = r.submit_step(id, &token(5, hidden)).unwrap();
        // Close with the step still queued: the graceful drain must let it
        // complete (not bounce it as UnknownSession).
        let generated = r.close_session(id).unwrap();
        assert_eq!(generated, 1);
        assert!(rx.recv().unwrap().is_ok(), "queued step completed before close");
        assert!(r.placement_of(id).is_none());
        assert!(matches!(r.close_session(id), Err(RouterError::UnknownSession(_))));
    }

    #[test]
    fn close_session_waits_on_its_own_work_only() {
        // Manual-pump mode, one shard: a peer has a 4-chunk prefill
        // queued. Closing an idle session must not execute any of the
        // peer's chunks nor touch its in-flight accounting.
        let r = tiny_router(
            1,
            ServerConfig { prefill_chunk: 4, kv_capacity: 32, ..Default::default() },
        );
        let server = r.shard(0).server();
        let hidden = server.model().config().hidden;
        let idle = r.create_session(0).unwrap();
        let peer = r.create_session(0).unwrap();
        let peer_rx = r.submit_prefill(peer, &token(6, hidden * 16), 16).unwrap();
        let in_flight = server.in_flight();
        assert_eq!(in_flight, 1, "one chunk of the peer's prefill is queued at a time");
        assert_eq!(r.close_session(idle).unwrap(), 0);
        assert_eq!(server.in_flight(), in_flight, "the peer's work is untouched");
        assert_eq!(server.stats().snapshot().prefill_chunks, 0, "none of its chunks ran");
        assert!(peer_rx.try_recv().is_err());
        // Closing the peer itself waits for all four of *its* chunks.
        assert_eq!(r.close_session(peer).unwrap(), 0);
        assert_eq!(server.stats().snapshot().prefill_chunks, 4);
        assert!(peer_rx.recv().unwrap().is_ok(), "queued prefill completed before close");
    }

    #[test]
    fn int8_router_records_i8_spans_and_tracks_f32() {
        // A sharded int8 deployment serves decode traffic whose outputs
        // track a same-seed f32 model within the quantization budget, and
        // records the dtype-tagged `gemm.i8.execute` spans instead of
        // `gemm.execute`.
        let cfg = DecoderConfig::scaled_for_tests();
        let i8_model =
            Arc::new(DecoderModel::new_with_precision(cfg, 4242, pl_dnn::Precision::Int8));
        let r = Router::new(
            Arc::clone(&i8_model),
            RouterConfig {
                shards: 2,
                total_threads: 4,
                server: ServerConfig { kv_capacity: 8, ..Default::default() },
            },
        )
        .unwrap();
        let hidden = cfg.hidden;
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        let since = pl_trace::now_ns();
        pl_trace::enable();
        let rxs: Vec<_> = (0..4)
            .map(|s| r.submit_step(ids[s], &token(900 + s as u64, hidden)).unwrap())
            .collect();
        while r.pump_all() > 0 {}
        pl_trace::disable();
        let outs: Vec<Vec<f32>> = rxs.into_iter().map(|rx| rx.recv().unwrap().unwrap()).collect();
        // Only this test serves an int8 model, so the lanes carrying i8
        // spans are this router's (sibling tests trace f32 models on their
        // own lanes): those lanes must carry no f32 GEMM span.
        let events = pl_trace::snapshot_since(since);
        let i8_lanes: std::collections::BTreeSet<u32> =
            events.iter().filter(|e| e.name == "gemm.i8.execute").map(|e| e.lane).collect();
        assert!(!i8_lanes.is_empty(), "i8 plans record i8 spans");
        assert!(
            !events.iter().any(|e| e.name == "gemm.execute" && i8_lanes.contains(&e.lane)),
            "no f32 spans on the int8 path"
        );
        // Same seed => the f32 model these weights quantized from; routed
        // int8 outputs stay within the quantization budget of it (bound:
        // crates/serve/README.md, "Precision").
        let f32_model = DecoderModel::new(cfg, 4242);
        let pool = ThreadPool::new(2);
        for (s, got) in outs.iter().enumerate() {
            let mut st = f32_model.new_state(8);
            let want = f32_model.forward(&mut st, &token(900 + s as u64, hidden), 1, &pool);
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                let rel = (a - b).abs() / b.abs().max(1.0);
                assert!(rel < 0.25, "session {s} idx {i}: i8 {a} vs f32 {b}");
            }
        }
    }

    #[test]
    fn manual_drive_step_pumps_and_matches_the_server() {
        // A router that was never started has no batcher, so its blocking
        // step must pump the session's shard on the calling thread.
        let r = tiny_router(2, ServerConfig::default());
        let model = Arc::clone(r.shard(0).server().model());
        let hidden = model.config().hidden;
        let server =
            Server::new(Arc::clone(&model), Arc::new(ThreadPool::new(2)), ServerConfig::default());
        let (id, sid) = (r.create_session(0).unwrap(), server.create_session(0).unwrap());
        let (mut routed, mut served) = (token(900, hidden), token(900, hidden));
        for t in 0..3 {
            routed = r.step(id, &routed).unwrap();
            served = server.step(sid, &served).unwrap();
            assert_eq!(routed, served, "step {t}");
        }
    }

    #[test]
    fn blocking_steps_through_started_shards() {
        let mut r = tiny_router(2, ServerConfig::default());
        r.start();
        let hidden = r.shard(0).server().model().config().hidden;
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        std::thread::scope(|scope| {
            for (s, &id) in ids.iter().enumerate() {
                let r = &r;
                scope.spawn(move || {
                    let mut x = token(300 + s as u64, hidden);
                    for _ in 0..3 {
                        x = r.step(id, &x).unwrap();
                    }
                    r.close_session(id).unwrap();
                });
            }
        });
        let agg = r.stats();
        r.shutdown();
        assert_eq!(agg.completed, 12);
        assert_eq!(r.session_count(), 0);
        assert!(matches!(
            r.create_session(0),
            Err(RouterError::Serve(ServeError::ShuttingDown)) | Err(RouterError::NoShardAvailable)
        ));
    }

    #[test]
    fn a_step_over_the_objective_leaves_placement_least_loaded() {
        // Placement reads load and nothing else: a shard whose one step
        // took longer than `slo_p99_us` still takes the next session when
        // it is tied for least loaded (lowest index wins the tie).
        let r = tiny_router(2, ServerConfig { slo_p99_us: 1, ..Default::default() });
        let hidden = r.shard(0).server().model().config().hidden;
        let s0 = r.create_session(0).unwrap();
        let s1 = r.create_session(0).unwrap();
        assert_eq!((r.placement_of(s0), r.placement_of(s1)), (Some(0), Some(1)));
        let rx = r.submit_step(s0, &token(5, hidden)).unwrap();
        while r.pump_all() == 0 {}
        rx.recv().unwrap().unwrap();
        let s2 = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(s2), Some(0), "equal load places on shard 0");
    }
}
