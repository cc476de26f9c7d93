//! The front door: session-affine routing over N core-partitioned shards.

use crate::placement::{placement_order, ShardLoad};
use crate::shard::{partition_threads, Shard};
use crate::RouterError;
use parking_lot::Mutex;
use pl_autotuner::TuningDb;
use pl_dnn::DecoderModel;
use pl_perfmodel::Platform;
use pl_serve::{
    Health, MetricsSnapshot, ServeError, ServerConfig, SessionId, StatsSnapshot, StepResult,
    TenantId,
};
use pl_trace::TraceSummary;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

/// Router-assigned session identifier — a distinct namespace from the
/// per-shard [`SessionId`]s (two shards can both hold a local session 1;
/// the router id disambiguates, so there is no cross-shard aliasing).
pub type RouterSessionId = u64;

/// Where a router session lives. Written at placement and thereafter
/// only by [`Router::migrate_session`] — the explicit, quiesced KV move;
/// the hot path treats affinity as invariant, so the KV cache never
/// moves as a side effect of routing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub(crate) shard: usize,
    pub(crate) local: SessionId,
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
/// Lifecycle: [`Router::new`] → [`Router::warm_tuning`] (one shard
/// searches, the rest adopt) → either [`Router::start`] (every shard's
/// background batcher; clients call the blocking [`Router::step`]) or a
/// manual [`Router::pump_all`] drive loop → [`Router::shutdown`]. Drains
/// ([`Router::begin_drain`]) can retire shards from placement at any
/// point in between.
pub struct Router {
    pub(crate) shards: Vec<Shard>,
    pub(crate) cfg: RouterConfig,
    pub(crate) sessions: Mutex<HashMap<RouterSessionId, Placement>>,
    next_session: AtomicU64,
    pub(crate) started: AtomicBool,
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
            started: AtomicBool::new(false),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
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

    /// Warms the tuning database **once** and shares it fleet-wide: shard
    /// 0 runs the full offline search ([`pl_serve::Server::warm_tuning`] —
    /// decode widths, prefill ladder, GEMM + SpMM keys, registry install,
    /// plan warm-up), then every other shard copies the snapshot into its
    /// local slot ([`pl_serve::Server::set_tuning_db`]). The registry
    /// install and the plan warm-up are process-wide / shared-model
    /// effects shard 0 already performed, so the peers must not repeat
    /// them (each repeat would bump the registry epoch and rebuild the
    /// identical kernel set). N shards, one search, one warm. Returns the
    /// entries the search added.
    pub fn warm_tuning(&self, platform: &Platform) -> usize {
        let first = &self.shards[0];
        let added = first.server().warm_tuning(platform, first.threads());
        let snapshot: TuningDb = first.server().tuning_db().clone();
        for shard in &self.shards[1..] {
            shard.server().set_tuning_db(&snapshot);
        }
        added
    }

    /// Fleet-wide adoption of a retuned snapshot: shard 0 installs `db`
    /// into the process registry and re-warms the shared model's plans
    /// ([`pl_serve::Server::adopt_tuning`] — one epoch bump, one kernel
    /// rebuild), then the peers copy the snapshot into their local slots.
    /// This is the retune loop's install path: measure on one shard,
    /// adopt everywhere. Returns the number of entries adopted.
    pub fn adopt_tuning(&self, platform_name: &str, db: &TuningDb) -> usize {
        let adopted = self.shards[0].server().adopt_tuning(platform_name, db);
        for shard in &self.shards[1..] {
            shard.server().set_tuning_db(db);
        }
        adopted
    }

    /// Current placement loads (the inputs to [`placement_order`]),
    /// health included: each shard's server evaluates its own SLO burn
    /// and stall watchdog ([`pl_serve::Server::health`]); a draining
    /// shard reports [`Health::Draining`] regardless (administrative
    /// intent overrides the measured state for placement purposes).
    pub fn loads(&self) -> Vec<ShardLoad> {
        self.shards
            .iter()
            .map(|s| {
                let draining = s.is_draining();
                ShardLoad {
                    shard: s.index(),
                    live_sessions: s.server().session_count(),
                    queue_depth: s.server().pending(),
                    draining,
                    health: if draining { Health::Draining } else { s.server().health() },
                }
            })
            .collect()
    }

    /// The current health of every shard (index = shard), with the
    /// draining overlay applied — the fleet view `pl_shard_health`
    /// exports.
    pub fn shard_health(&self) -> Vec<Health> {
        self.loads().into_iter().map(|l| l.health).collect()
    }

    /// Fleet-wide metrics: every shard's snapshot stamped with its
    /// `shard` label, then merged (counters and histogram buckets sum;
    /// the `pl_shard_health` gauge stays per-shard thanks to the label,
    /// and carries the draining overlay). Render with
    /// [`pl_metrics::render_prometheus`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let healths = self.shard_health();
        let mut fleet = MetricsSnapshot::default();
        for (shard, health) in self.shards.iter().zip(healths) {
            let snap = shard.server().metrics_snapshot();
            let idx = shard.index().to_string();
            let mut snap = snap.with_label("shard", &idx);
            // Overlay draining onto the exported health gauge — the
            // server itself cannot know the router marked it.
            let key = ("pl_shard_health".to_string(), vec![("shard".to_string(), idx)]);
            snap.gauges.insert(key, health.as_f64());
            fleet.merge(&snap);
        }
        fleet
    }

    /// Admits a new session: least-loaded placeable shard first, then
    /// the next candidates if it is full ([`placement_order`]) — shards
    /// that are draining, degraded (SLO burn through the hysteresis
    /// band) or stalled (watchdog) take no new sessions, while their
    /// existing sessions keep stepping untouched. The session is
    /// *affine* to the chosen shard for its whole life.
    pub fn create_session(&self, tenant: TenantId) -> Result<RouterSessionId, RouterError> {
        if tenant >= self.cfg.server.tenants {
            return Err(RouterError::Serve(ServeError::UnknownTenant(tenant)));
        }
        let order = placement_order(&self.loads());
        if order.is_empty() {
            return Err(RouterError::NoShardAvailable);
        }
        for shard_idx in order {
            match self.shards[shard_idx].server().create_session(tenant) {
                Ok(local) => {
                    let id = self.next_session.fetch_add(1, Ordering::Relaxed);
                    self.sessions.lock().insert(id, Placement { shard: shard_idx, local });
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
        self.sessions.lock().get(&id).map(|p| p.shard)
    }

    pub(crate) fn lookup(&self, id: RouterSessionId) -> Result<Placement, RouterError> {
        self.sessions.lock().get(&id).copied().ok_or(RouterError::UnknownSession(id))
    }

    /// Routes a blocking prefill to the session's shard. Under the hood
    /// this is the chunked path ([`Router::submit_prefill`]): the prompt
    /// is split into `prefill_chunk`-bounded chunks that interleave with
    /// the shard's decode batches, so a long prompt no longer monopolizes
    /// the shard's pool — and the work is visible to the shard's
    /// `in_flight`, so drains observe it.
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
    /// [`pl_serve::Server::in_flight`], which is what
    /// [`Router::drain_shard`] and [`Router::close_session`] quiesce on.
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

    /// Blocking decode step. Requires [`Router::start`] (or a concurrent
    /// [`Router::pump_all`] driver on another thread).
    pub fn step(&self, id: RouterSessionId, x: &[f32]) -> Result<Vec<f32>, RouterError> {
        let rx = self.submit_step(id, x)?;
        match rx.recv() {
            Ok(res) => Ok(res?),
            Err(_) => Err(RouterError::Serve(ServeError::ShuttingDown)),
        }
    }

    /// Gracefully ends a session: its **own** accepted work is allowed to
    /// finish first (a step still sitting in the shard's rings completes
    /// instead of erroring `UnknownSession`), then the session is closed
    /// and its KV cache freed. Only this session's program-order tickets
    /// are waited on ([`pl_serve::Server::session_idle`]) — peers' queued
    /// work on the same shard is neither awaited nor, for an idle session,
    /// pumped — and a session checked out by an executing batch is
    /// handled by the shard itself (the close parks on the checked-out
    /// slot). In manual-drive mode the wait pumps the shard on the
    /// calling thread. Returns tokens decoded.
    pub fn close_session(&self, id: RouterSessionId) -> Result<u64, RouterError> {
        let p = self.lookup(id)?;
        let server = self.shards[p.shard].server();
        let started = self.started.load(Ordering::Acquire);
        // `in_flight() == 0` ends the wait when the session's queued work
        // was bounced (shutdown) rather than executed.
        while !server.session_idle(p.local)? && server.in_flight() > 0 {
            if started {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else if server.pump() == 0 {
                break;
            }
        }
        let generated = server.close_session(p.local)?;
        self.sessions.lock().remove(&id);
        Ok(generated)
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
        self.started.store(true, Ordering::Release);
    }

    /// Stops admissions, drains every shard's queues, joins the batchers.
    pub fn shutdown(&mut self) {
        for shard in &mut self.shards {
            shard.server_mut().shutdown();
        }
        self.started.store(false, Ordering::Release);
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

    /// The fleet-wide trace summary since trace time `since_ns`
    /// ([`pl_trace::now_ns`]): every shard's pump and pool threads record
    /// into the process recorder on their own lanes, and this folds one
    /// per-lane [`TraceSummary`] at a time through
    /// [`TraceSummary::merge`] — the same summed-buckets aggregation
    /// discipline as [`MetricsSnapshot::merge`], so fleet quantiles come
    /// from merged histograms, never from averaged per-lane quantiles.
    /// Returns an empty summary when tracing was off.
    pub fn trace_summary(&self, since_ns: u64) -> TraceSummary {
        let events = pl_trace::snapshot_since(since_ns);
        let mut by_lane: BTreeMap<u32, Vec<pl_trace::Event>> = BTreeMap::new();
        for e in events {
            by_lane.entry(e.lane).or_default().push(e);
        }
        let mut agg = TraceSummary::empty();
        for evs in by_lane.values() {
            agg.merge(&TraceSummary::from_events(evs));
        }
        agg
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.started.load(Ordering::Acquire) {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_dnn::DecoderConfig;
    use pl_runtime::ThreadPool;
    use pl_tensor::{fill_uniform, Xorshift};

    /// The trace recorder's on/off switch is process-wide: tests that
    /// toggle it hold this for their enable..disable window, so one
    /// test's `disable` cannot cut another's recording short.
    static TRACE_SWITCH: Mutex<()> = Mutex::new(());

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
    fn trace_summary_aggregates_spans_across_shards() {
        // Both shards' batch execution records into the process recorder;
        // the router folds the per-lane summaries into one fleet view.
        let r = tiny_router(2, ServerConfig::default());
        let hidden = r.shard(0).server().model().config().hidden;
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        let _switch = TRACE_SWITCH.lock();
        let since = pl_trace::now_ns();
        pl_trace::enable();
        let rxs: Vec<_> = (0..4)
            .map(|s| r.submit_step(ids[s], &token(600 + s as u64, hidden)).unwrap())
            .collect();
        while r.pump_all() > 0 {}
        pl_trace::disable();
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        let summary = r.trace_summary(since);
        // Every shard executed ≥ 1 batch, so the fleet summary carries
        // batch spans, per-shape GEMM spans, and per-step queue waits.
        assert!(summary.count_for("batch.execute") >= 2, "{summary:?}");
        assert!(summary.count_for("gemm.execute") > 0);
        assert!(summary.count_for("step.queue_wait") >= 4);
        assert!(summary.total_ns_for("gemm.execute") > 0, "GEMM spans carry wall time");
        // Scoping by `since` excludes the pre-enable traffic of other
        // tests' routers on these lanes… and re-summarizing later traffic
        // only grows counts, never shrinks them (merge is additive).
        let again = r.trace_summary(since);
        assert!(again.count_for("gemm.execute") >= summary.count_for("gemm.execute"));
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
    fn warm_once_adopt_everywhere() {
        let r = tiny_router(2, ServerConfig { kv_capacity: 8, ..Default::default() });
        let added = r.warm_tuning(&Platform::zen4());
        assert!(added > 0, "first warm runs the search");
        let len0 = r.shard(0).server().tuning_db().len();
        let len1 = r.shard(1).server().tuning_db().len();
        assert_eq!(len0, len1, "peers adopt the full snapshot");
        assert_eq!(len0, added);
        assert!(pl_dnn::tuning::is_installed());
        // Re-warming is a no-op search (everything already in the DB).
        assert_eq!(r.warm_tuning(&Platform::zen4()), 0);
    }

    #[test]
    fn int8_router_scopes_tuning_keys_and_trace_spans() {
        // A sharded int8 deployment: the fleet warms i8-scoped tuning keys
        // (never f32 ones — the dtype rides in every plan-reported
        // problem), serves decode traffic whose outputs track a same-seed
        // f32 model within the quantization budget, and records the
        // dtype-tagged `gemm.i8.execute` spans instead of `gemm.execute`.
        use pl_autotuner::TuningDb;
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
        let platform = Platform::zen4();
        let added = r.warm_tuning(&platform);
        assert!(added > 0, "int8 warm-up runs the search");
        {
            let db = r.shard(0).server().tuning_db();
            let h = cfg.hidden;
            let i8_key = TuningDb::gemm_key(platform.name, h, 1, h, "i8");
            let f32_key = TuningDb::gemm_key(platform.name, h, 1, h, "f32");
            assert!(db.get(&i8_key).is_some(), "decode shape warmed under the i8 key");
            assert!(db.get(&f32_key).is_none(), "no f32 keys for an int8 deployment");
        }
        let hidden = cfg.hidden;
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        let _switch = TRACE_SWITCH.lock();
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
    fn degraded_shard_excluded_until_burn_recovers() {
        let r = tiny_router(2, ServerConfig::default());
        let model = Arc::clone(r.shard(0).server().model());
        let hidden = model.config().hidden;
        let s0 = r.create_session(0).unwrap();
        let s1 = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(s0), Some(0));
        assert_eq!(r.placement_of(s1), Some(1));
        // Inject SLO violations on shard 0: every observation blows the
        // target, so the burn rate saturates at 100x the error budget
        // and the health tracker latches Degraded.
        let slo = r.shard(0).server().slo();
        for _ in 0..200 {
            slo.record(9_999_999);
        }
        assert_eq!(r.shard_health(), vec![Health::Degraded, Health::Healthy]);
        // New sessions skip the degraded shard even though both shards
        // hold one session (and shard 1 only grows more loaded)...
        for i in 0..3 {
            let id = r.create_session(0).unwrap();
            assert_eq!(r.placement_of(id), Some(1), "new session {i} hit the degraded shard");
        }
        // ...while the existing shard-0 session keeps stepping,
        // bit-identical to unbatched decode over the same weights.
        let mut outs = Vec::new();
        let mut x = token(77, hidden);
        for _ in 0..3 {
            let rx = r.submit_step(s0, &x).unwrap();
            while r.pump_all() == 0 {}
            x = rx.recv().unwrap().unwrap();
            outs.push(x.clone());
        }
        let pool = ThreadPool::new(2);
        let mut st = model.new_state(16);
        let mut want = token(77, hidden);
        for (t, got) in outs.iter().enumerate() {
            want = model.forward(&mut st, &want, 1, &pool);
            assert_eq!(got, &want, "degraded-shard step {t} diverged");
        }
        // Hysteresis: dilute the violations with in-target traffic until
        // burn sits inside the (exit, enter) band — the shard must STAY
        // out of placement, not flap back at the first dip below enter.
        while slo.burn_rate() >= 1.0 {
            for _ in 0..500 {
                slo.record(10);
            }
        }
        let burn = slo.burn_rate();
        assert!((0.5..1.0).contains(&burn), "burn {burn} should sit inside the band");
        assert_eq!(r.shard_health()[0], Health::Degraded, "in-band burn keeps the latch");
        assert_eq!(r.placement_of(r.create_session(0).unwrap()), Some(1));
        // Recovery: only once burn falls through the exit threshold does
        // the shard rejoin the candidate list (and, holding 1 session to
        // shard 1's 5, it is immediately the least-loaded pick).
        while slo.burn_rate() > 0.5 {
            for _ in 0..2000 {
                slo.record(10);
            }
        }
        assert_eq!(r.shard_health(), vec![Health::Healthy, Health::Healthy]);
        assert_eq!(r.placement_of(r.create_session(0).unwrap()), Some(0));
    }
}
