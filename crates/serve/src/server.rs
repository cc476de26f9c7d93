//! The serving runtime: admission control, the batcher loop, and the
//! request lifecycle.
//!
//! ## Continuous batching
//!
//! Decode steps and **prefill chunks** flow through the same
//! [`DynamicBatcher`]. A prompt submitted via [`Server::submit_prefill`]
//! is split into bounded, power-of-two-ladder-aligned chunks
//! ([`pl_dnn::prefill_chunk_widths`] under [`ServerConfig::prefill_chunk`])
//! and admitted one chunk at a time: each batch packs **at most one**
//! prefill chunk next to its decode lanes, and a chunk's successor is
//! enqueued only after it executed. A 2048-token prompt therefore
//! interleaves with live decode traffic — decode steps complete between
//! (and alongside) its chunks — instead of monopolizing the pool for the
//! whole forward, and every chunk is visible to [`Server::in_flight`], so
//! drains and shutdown observe prefill work exactly like decode work.
//! The blocking [`Server::prefill`] is a wrapper over this path; a prompt
//! that fits in one chunk executes as a single forward and stays
//! **bit-identical** to the pre-chunking inline prefill.
//!
//! ## The checked-out-session interlock
//!
//! Executing a batch *checks sessions out* of the table so the parallel
//! region holds no lock while computing. A checked-out session leaves a
//! `Slot::CheckedOut` marker behind rather than vanishing: concurrent
//! submitters still resolve the tenant, a concurrent batch defers (rather
//! than bounces) work for it, and — the part that closes a real race — a
//! concurrent [`Server::close_session`] does not get `UnknownSession` for
//! a live session. The close instead parks a completion channel in the
//! marker and waits; when the executing batch checks the session back in
//! it sees the parked closer, frees the session (KV cache and all) and
//! hands over the generated-token count. Without the marker, a close
//! racing the execution window failed spuriously and the batch then
//! re-inserted the session as an untracked zombie.

use crate::batcher::{ChunkItem, DynamicBatcher, StepRequest, WorkItem};
use crate::prefill::PrefillJob;
use crate::session::{Session, SessionId, TenantId};
use crate::stats::ServerStats;
use crate::{ServeError, StepResult};
use parking_lot::Mutex;
use pl_autotuner::{batch_ladder, warm_gemm_db, warm_spmm_db, Constraints, GemmProblem, TuningDb};
use pl_dnn::{
    DecoderModel, DecoderState, KvPagePool, KvSnapshot, PrefixCache, PrefixHit, DEFAULT_PAGE_TOKENS,
};
use pl_metrics::{Health, HealthTracker, MetricsRegistry, MetricsSnapshot, SloWindow, Watchdog};
use pl_perfmodel::Platform;
use pl_runtime::ThreadPool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Serving runtime knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of tenants (rings) admitted.
    pub tenants: usize,
    /// Upper bound on a batch (clamped to at least 1).
    pub max_batch: usize,
    /// Per-tenant submission-ring capacity (the backpressure bound).
    pub queue_capacity: usize,
    /// Concurrent-session cap across all tenants.
    pub max_sessions: usize,
    /// KV capacity (tokens) given to every new session.
    pub kv_capacity: usize,
    /// Upper bound on a prefill chunk admitted through the batcher, in
    /// tokens (normalized up to a power of two so non-final chunks hit
    /// the warmed prefill ladder exactly). Prompts longer than this are
    /// split and interleave with decode traffic; prompts that fit execute
    /// as a single chunk, bit-identical to an unchunked forward.
    pub prefill_chunk: usize,
    /// SLO target for decode step latency (µs): the p99 objective the
    /// per-tenant and shard-wide [`SloWindow`]s track violations
    /// against. Feeds the burn-rate gauges and [`Server::health`].
    pub slo_p99_us: u64,
    /// Stall-watchdog deadline: with work pending and no batch collected
    /// for this long, [`Server::health`] reports [`Health::Stalled`].
    pub watchdog_deadline: Duration,
    /// KV page size in tokens: the allocation granularity of the shard's
    /// shared [`KvPagePool`] every session's cache draws from. Paging is
    /// **bit-identical** to a contiguous cache — pages only change where
    /// KV rows live, never the arithmetic over them.
    pub kv_page_tokens: usize,
    /// Page budget for the shard's KV pool (`0` = unbounded). A bounded
    /// pool makes KV memory a hard resource: size it to the working set
    /// (`max_sessions * ceil(kv_capacity / kv_page_tokens)` covers the
    /// worst case with no sharing; prefix sharing and idle spill reduce
    /// the real demand, which is what the density benchmark measures).
    pub kv_pool_pages: usize,
    /// Keep completed prompts' pages in the shard's [`PrefixCache`] and
    /// look every new prompt up in it **before** its prefill is planned:
    /// a session opening with pages some earlier prompt already computed
    /// adopts their KV by reference, takes their cached outputs, and
    /// forwards only the tokens after them. On by default — a hit never
    /// changes outputs (position `t` depends on tokens `0..=t` only).
    /// `false` disables lookup and registration together.
    pub share_prefix: bool,
    /// Upper bound on the **sum of token widths** queued across all
    /// tenant rings (a decode step counts 1, a prefill chunk its width);
    /// `0` = unlimited. Bounds the KV/compute debt admission can take on
    /// ahead of execution — a submission that would exceed it bounces
    /// with [`ServeError::Backpressure`], same as a full ring.
    pub max_queued_tokens: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            tenants: 1,
            max_batch: 8,
            queue_capacity: 64,
            max_sessions: 64,
            kv_capacity: 128,
            prefill_chunk: 16,
            slo_p99_us: 50_000,
            watchdog_deadline: Duration::from_secs(1),
            kv_page_tokens: DEFAULT_PAGE_TOKENS,
            kv_pool_pages: 0,
            share_prefix: true,
            max_queued_tokens: 0,
        }
    }
}

/// Longest the idle background batcher stays parked without a wake-up.
/// `publish` and `shutdown` unpark it, so this only bounds how late it
/// notices work a concurrent manual `pump` deferred.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Capacity of the shard prefix cache, in prompt pages (each pins one KV
/// page per layer); least-recently-hit leaf pages are evicted beyond this.
const PREFIX_CACHE_ENTRIES: usize = 64;

/// A serialized session: everything another shard needs to re-admit it
/// ([`Server::import_session`]) and continue decoding **bit-identically**
/// — the dense, page-layout-independent KV snapshot plus the decode
/// counters. Produced by [`Server::export_session`]; the router's
/// `migrate_session` wraps the export → import handshake with the
/// quiesce/retry discipline it needs.
#[derive(Debug, Clone)]
pub struct SessionExport {
    /// Owning tenant — the importer places the session in the same ring.
    pub tenant: TenantId,
    /// Tokens decoded so far (carried so accounting survives the move).
    pub generated: u64,
    /// The dense KV snapshot.
    pub kv: KvSnapshot,
}

/// A session-table slot: either the live session, or the marker left
/// behind while an executing batch holds the session (see the module docs
/// on the checked-out interlock).
enum Slot {
    /// Resident and claimable.
    Live(Session),
    /// Checked out by an executing batch/prefill chunk.
    CheckedOut {
        /// Owning tenant (submitters still need to resolve the ring).
        tenant: TenantId,
        /// The session's ticket dispenser (shared with the live
        /// [`Session`]), so steps submitted during the window still draw
        /// ordered tickets.
        submit_seq: Arc<AtomicU64>,
        /// Parked by a concurrent `close_session`: at check-in the session
        /// is freed instead of re-inserted and the generated-token count
        /// is sent here.
        closer: Option<mpsc::Sender<u64>>,
    },
}

/// One checked-out batch entry: the work item plus its claimed session.
enum ReadyItem {
    Decode(StepRequest, Session),
    Chunk(ChunkItem, Session),
}

impl ReadyItem {
    fn session_id(&self) -> SessionId {
        match self {
            ReadyItem::Decode(req, _) => req.session,
            ReadyItem::Chunk(c, _) => c.job.session(),
        }
    }
}

struct ServerInner {
    model: Arc<DecoderModel>,
    pool: Arc<ThreadPool>,
    cfg: ServerConfig,
    sessions: Mutex<HashMap<SessionId, Slot>>,
    session_count: AtomicU64,
    next_session: AtomicU64,
    batcher: DynamicBatcher,
    /// The one telemetry plane: the metrics registry and every
    /// pre-created recording handle into it.
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Whether a background batcher thread is driving [`Server::pump`] —
    /// the blocking wrappers pump on the calling thread when it is not.
    running: AtomicBool,
    tuning: Mutex<TuningDb>,
    /// Live prefill-chunk bound in tokens — initialized from
    /// [`ServerConfig::prefill_chunk`], adjustable at runtime
    /// ([`Server::set_prefill_chunk`]) so a retune cycle can shrink
    /// chunks under decode load without restarting the server. Read once
    /// per prefill submission; in-flight jobs keep their chunking.
    prefill_chunk: AtomicUsize,
    /// Accepted work items (decode steps *and* prefill chunks) not yet
    /// retired — incremented before an item is published to the batcher,
    /// decremented at reply delivery ([`ServerInner::deliver`]); a
    /// non-final prefill chunk's unit is **carried over** to its
    /// successor (nothing is delivered for it), so accepted work is
    /// counted even while its batch holds the session checked out of the
    /// table and across chunk boundaries of one prefill. This is the
    /// quiescence signal drains rely on.
    in_flight: AtomicU64,
    /// Shard-wide SLO window over decode step latency — what
    /// [`Server::health`] derives its burn rate from.
    slo: SloWindow,
    /// Degraded/healthy state machine with hysteresis.
    health: HealthTracker,
    /// Stalled-pump detector over `(pending, batches)`.
    watchdog: Watchdog,
    /// The shard's shared KV page pool: every session's cache is a page
    /// table over this ([`DecoderModel::new_state_in`]), so free pages,
    /// prefix-shared pages and spilled sessions are shard-level facts.
    kv_pool: Arc<KvPagePool>,
    /// Completed prompts' pages, for later prompts to adopt.
    prefix: PrefixCache,
    /// The background batcher's thread, set by that thread before its
    /// first pump, so `publish` and `shutdown` can unpark it.
    batcher_waker: OnceLock<Thread>,
}

impl ServerInner {
    /// Delivers a reply and retires its in-flight count. Every accepted
    /// item's terminal reply must go through here exactly once.
    fn deliver(&self, reply: &mpsc::Sender<StepResult>, result: StepResult) {
        let _ = reply.send(result);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Answers an accepted item with `err`; a decode step so answered is
    /// a failed step (`pl_steps_failed_total`).
    fn reject(&self, item: &WorkItem, err: ServeError) {
        if let WorkItem::Decode(req) = item {
            self.stats.tenants[req.tenant].failed.inc();
        }
        self.deliver(item.reply(), Err(err));
    }

    /// Unparks the background batcher, if one runs. Called after work is
    /// published: `park`'s token makes a wake-up that lands before the
    /// batcher parks cut that park short, so none is lost.
    fn wake_batcher(&self) {
        if let Some(batcher) = self.batcher_waker.get() {
            batcher.unpark();
        }
    }

    /// Checks `sess` back into the table after its batch window. If a
    /// closer parked on the slot meanwhile, the session is freed here and
    /// the closer receives its generated-token count; otherwise the slot
    /// goes back to [`Slot::Live`].
    fn check_in(&self, sessions: &mut HashMap<SessionId, Slot>, id: SessionId, sess: Session) {
        match sessions.remove(&id) {
            Some(Slot::CheckedOut { closer: Some(done), .. }) => {
                self.session_count.fetch_sub(1, Ordering::AcqRel);
                let _ = done.send(sess.generated);
            }
            _ => {
                sessions.insert(id, Slot::Live(sess));
            }
        }
    }
}

/// The multi-tenant batched serving runtime over one shared
/// [`DecoderModel`].
///
/// Lifecycle: [`Server::new`] → optionally [`Server::warm_tuning`] →
/// either [`Server::start`] (background batcher thread; clients call the
/// blocking [`Server::step`] / [`Server::prefill`]) or manual
/// [`Server::pump`] (tests, single-threaded drivers). Protocol: **one
/// submitter per session** — a session's submits are issued from one
/// thread at a time (pipelining several in-flight steps from that thread
/// is fine; program-order tickets keep them ordered). The blocking API
/// upholds this by construction; racing submits to one session from two
/// threads can duplicate a ticket across a backpressure rollback, which
/// batch checkout rejects with [`ServeError::StaleTicket`].
pub struct Server {
    inner: Arc<ServerInner>,
    batcher_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// A server over `model`, executing on `pool`. The model owns the
    /// serving precision ([`DecoderModel::precision`]): tuning-DB keys,
    /// kernel caches and trace spans are precision-scoped through its
    /// plans.
    pub fn new(model: Arc<DecoderModel>, pool: Arc<ThreadPool>, mut cfg: ServerConfig) -> Self {
        cfg.max_batch = cfg.max_batch.max(1);
        let page_tokens = cfg.kv_page_tokens.max(1);
        let kv_pool = if cfg.kv_pool_pages > 0 {
            KvPagePool::bounded(model.config().hidden, page_tokens, cfg.kv_pool_pages)
        } else {
            KvPagePool::new(model.config().hidden, page_tokens)
        };
        let inner = Arc::new(ServerInner {
            batcher: DynamicBatcher::bounded(
                cfg.tenants,
                cfg.queue_capacity,
                cfg.max_queued_tokens,
            ),
            prefix: PrefixCache::new(&kv_pool, PREFIX_CACHE_ENTRIES),
            kv_pool,
            batcher_waker: OnceLock::new(),
            stats: ServerStats::new(cfg.tenants, cfg.max_batch, cfg.slo_p99_us),
            prefill_chunk: AtomicUsize::new(cfg.prefill_chunk.max(1)),
            slo: SloWindow::new(cfg.slo_p99_us, pl_metrics::slo::SLO_WINDOW_S),
            health: HealthTracker::default(),
            watchdog: Watchdog::new(cfg.watchdog_deadline),
            model,
            pool,
            cfg,
            sessions: Mutex::new(HashMap::new()),
            session_count: AtomicU64::new(0),
            next_session: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            running: AtomicBool::new(false),
            tuning: Mutex::new(TuningDb::new()),
            in_flight: AtomicU64::new(0),
        });
        Server { inner, batcher_thread: None }
    }

    /// The metrics surface: [`ServerStats::snapshot`] is the typed view
    /// of what [`Server::metrics_snapshot`] exports.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// The labeled metrics registry every serving fact is recorded in;
    /// scrape through [`Server::metrics_snapshot`] +
    /// [`pl_metrics::render_prometheus`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.stats.registry
    }

    /// The shard-wide SLO window over decode step latency. Public so
    /// operators (and tests) can inspect the burn rate — or inject
    /// observations via [`SloWindow::record`] to drive
    /// [`Server::health`] deterministically.
    pub fn slo(&self) -> &SloWindow {
        &self.inner.slo
    }

    /// Per-tenant SLO window (`None` for an out-of-range tenant).
    pub fn tenant_slo(&self, tenant: TenantId) -> Option<&SloWindow> {
        self.inner.stats.tenants.get(tenant).map(|tm| &tm.slo)
    }

    /// Current health of this server: feeds one `(pending, batches)`
    /// observation to the stall watchdog, folds the shard-wide SLO burn
    /// rate through the hysteresis tracker, and reports
    /// `Healthy | Degraded | Stalled` (a router overlays `Draining` on
    /// top — administrative intent lives above the server). Degraded
    /// entry/exit uses the [`pl_metrics::HealthTracker`] hysteresis band
    /// so a shard hovering at the threshold does not flap in and out of
    /// placement.
    pub fn health(&self) -> Health {
        let stalled =
            self.inner.watchdog.check(self.pending() as u64, self.inner.stats.batches.get());
        self.inner.health.evaluate(self.inner.slo.burn_rate(), stalled)
    }

    /// Point-in-time metrics snapshot: samples the liveness gauges
    /// (sessions, queue depths, per-tenant burn rates, shard health) and
    /// returns a copy of every series. Render with
    /// [`pl_metrics::render_prometheus`] or
    /// [`pl_metrics::snapshot_to_json`]; merge shard snapshots with
    /// [`MetricsSnapshot::merge`] after
    /// [`MetricsSnapshot::with_label`]-stamping them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics();
        m.gauge("pl_sessions_live", &[]).set(self.session_count() as f64);
        m.gauge("pl_pending", &[]).set(self.pending() as f64);
        m.gauge("pl_in_flight", &[]).set(self.in_flight() as f64);
        for tm in &self.inner.stats.tenants {
            tm.burn.set(tm.slo.burn_rate());
        }
        m.gauge("pl_shard_health", &[]).set(self.health().as_f64());
        m.gauge("pl_kv_pages_free", &[]).set(self.inner.kv_pool.free_pages() as f64);
        m.gauge("pl_kv_pages_shared", &[]).set(self.inner.prefix.shared_pages() as f64);
        m.gauge("pl_kv_sessions_spilled", &[]).set(self.spilled_sessions() as f64);
        self.inner.stats.registry_snapshot()
    }

    /// The shared model.
    pub fn model(&self) -> &Arc<DecoderModel> {
        &self.inner.model
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner.session_count.load(Ordering::Relaxed) as usize
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Work items queued but not yet executed — decode steps and prefill
    /// chunks, across all tenant rings plus the deferred side-queue
    /// (approximate — rings are concurrent). This is the queue-depth
    /// signal a fronting router uses for least-loaded placement and for
    /// graceful drains.
    pub fn pending(&self) -> usize {
        self.inner.batcher.pending()
    }

    /// Accepted work whose terminal reply has **not yet been delivered** —
    /// decode steps and prefill chunks, queued in a ring *or* executing
    /// inside a batch (where the session is checked out of the table and
    /// [`Server::pending`] no longer sees it). The counter moves at
    /// submit, at reply delivery, and across prefill chunk hand-offs
    /// (successor enqueued before the completed chunk retires), so there
    /// is no window where accepted work is invisible: this is the
    /// quiescence signal for graceful drains (`pending() == 0` alone
    /// races the batch-execution window — and, before chunked prefill,
    /// missed in-progress prefills entirely).
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire) as usize
    }

    /// Every activation width worth warming: each batch width
    /// `1..=max_batch` (a batch's projections run at whatever ragged
    /// width was pending) plus the power-of-two prompt-width ladder up to
    /// `kv_capacity`. Prefill is cut to that ladder
    /// ([`pl_dnn::prefill_chunk_widths`]), so a lone non-final chunk is
    /// an **exact** hit; any other width (a chunk sharing its batch with
    /// decode lanes, a ragged final chunk) rounds its tuning lookup up to
    /// the next rung and builds its kernel on first use.
    fn plan_widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = (1..=self.inner.cfg.max_batch).collect();
        for t in batch_ladder(self.inner.cfg.kv_capacity) {
            if !widths.contains(&t) {
                widths.push(t);
            }
        }
        widths
    }

    /// The GEMM problems warm-up covers: every per-layer weight GEMM at
    /// every width of `plan_widths`, reported **by the model's prepared
    /// plans themselves** ([`DecoderModel::plan_problems`]) — each plan
    /// names the exact `(m, n, k)` + blocking its kernel will execute, so
    /// there is no hand-maintained shape list to drift out of sync with
    /// the execution layer.
    pub fn gemm_problems(&self) -> Vec<GemmProblem> {
        let mut out = Vec::new();
        for n in self.plan_widths() {
            self.inner.model.plan_problems(n, &mut out);
        }
        out
    }

    /// Warms the tuning database for the GEMM shapes the server executes
    /// ([`Server::gemm_problems`]) on `platform`: the paper's offline
    /// search (Fig. 1 boxes B2/B3) runs at server startup
    /// so results are ready before traffic arrives. The same geometry is
    /// also warmed under the `spmm/...` keys ([`warm_spmm_db`], the
    /// minimal model-based SpMM warm-up), so a block-sparse variant served
    /// over this model resolves warmed specs instead of always falling
    /// through to `default_parallel`.
    ///
    /// The warmed snapshot is then **installed** into [`pl_dnn::tuning`]
    /// and the model's prepared plans are warmed *through* it
    /// ([`DecoderModel::warm_plans`] at every width the batcher can
    /// produce): every kernel a steady-state step can hit is constructed
    /// here, against the freshly tuned specs, before traffic arrives.
    /// Returns the number of database entries added (GEMM + SpMM keys).
    pub fn warm_tuning(&self, platform: &Platform, threads: usize) -> usize {
        let problems = self.gemm_problems();
        let constraints = Constraints::gemm(0, 1, 1, 200);
        let added = {
            let mut db = self.inner.tuning.lock();
            let gemm_added = warm_gemm_db(&mut db, &problems, &constraints, platform, threads);
            let spmm_added = warm_spmm_db(&mut db, &problems, &constraints, platform, threads);
            pl_dnn::tuning::install(platform.name, db.clone());
            gemm_added + spmm_added
        };
        self.inner.model.warm_plans(&self.plan_widths());
        added
    }

    /// Read access to the warmed tuning database.
    pub fn tuning_db(&self) -> parking_lot::MutexGuard<'_, TuningDb> {
        self.inner.tuning.lock()
    }

    /// Adopts an already-warmed tuning snapshot instead of re-running the
    /// search — the multi-shard path: a router warms **one** shard with
    /// [`Server::warm_tuning`] and hands the resulting snapshot to its
    /// peers, so N shards pay one offline search, not N. The snapshot
    /// replaces this server's local DB and is **unconditionally**
    /// installed into the process-wide [`pl_dnn::tuning`] registry
    /// (kernels resolve from the registry, so skipping the install when
    /// some other snapshot is live would silently leave stale tuning in
    /// effect); the install bumps the registry epoch, and the model's
    /// plans are warmed through the new snapshot before returning.
    /// Returns the number of entries adopted.
    pub fn adopt_tuning(&self, platform_name: &str, db: &TuningDb) -> usize {
        pl_dnn::tuning::install(platform_name, db.clone());
        self.inner.model.warm_plans(&self.plan_widths());
        self.set_tuning_db(db)
    }

    /// Copies `db` into this server's local tuning slot **only** — no
    /// registry install, no plan warm-up. This is the peer-shard fast
    /// path: when another server over the *same shared model* already
    /// installed this snapshot and warmed the plans (both process-wide
    /// effects), repeating them per shard would only bump the registry
    /// epoch and rebuild identical kernels N times. Use
    /// [`Server::adopt_tuning`] when the snapshot is *not* already live
    /// (e.g. loaded from disk). Returns the number of entries copied.
    pub fn set_tuning_db(&self, db: &TuningDb) -> usize {
        *self.inner.tuning.lock() = db.clone();
        db.len()
    }

    /// Adjusts the live prefill-chunk bound (tokens, clamped to ≥ 1).
    /// Prefills submitted after this call chunk at the new bound;
    /// in-flight jobs keep the chunking they were admitted with.
    pub fn set_prefill_chunk(&self, tokens: usize) {
        self.inner.prefill_chunk.store(tokens.max(1), Ordering::Release);
    }

    /// The live prefill-chunk bound (tokens).
    pub fn prefill_chunk(&self) -> usize {
        self.inner.prefill_chunk.load(Ordering::Acquire)
    }

    /// The GEMM problems that dominated traffic so far, hottest first —
    /// the retune loop's harvest hook. Weights come from the
    /// `pl_gemm_total{m,n,k}` series (per-shape execution counts at the
    /// ragged width every batch actually ran at), and each shape is
    /// rebuilt through the model's own prepared plans
    /// ([`DecoderModel::plan_problems`]), so every returned problem
    /// carries the **exact blocking** its kernel runs at, precision
    /// included — measurable as-is.
    pub fn hot_gemm_problems(&self) -> Vec<(GemmProblem, u64)> {
        let mut out: Vec<(GemmProblem, u64)> = Vec::new();
        let mut at_width = Vec::new();
        for ((m, n, k), count) in self.inner.stats.snapshot().gemm_shapes {
            at_width.clear();
            self.inner.model.plan_problems(n, &mut at_width);
            if let Some(p) = at_width.iter().find(|p| (p.m, p.k) == (m, k)) {
                out.push((*p, count));
            }
        }
        out.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        out
    }

    /// Admits a new session for `tenant`. Rejects when the session cap is
    /// reached or the tenant id is out of range.
    pub fn create_session(&self, tenant: TenantId) -> Result<SessionId, ServeError> {
        if tenant >= self.inner.cfg.tenants {
            return Err(ServeError::UnknownTenant(tenant));
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        // Optimistic admission: bump, then verify the cap.
        let live = self.inner.session_count.fetch_add(1, Ordering::AcqRel) + 1;
        if live as usize > self.inner.cfg.max_sessions {
            self.inner.session_count.fetch_sub(1, Ordering::AcqRel);
            self.inner.stats.tenants[tenant].rejected_sessions.inc();
            return Err(ServeError::TooManySessions { limit: self.inner.cfg.max_sessions });
        }
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let state = self.inner.model.new_state_in(&self.inner.kv_pool, self.inner.cfg.kv_capacity);
        self.inner.sessions.lock().insert(id, Slot::Live(Session::new(id, tenant, state)));
        Ok(id)
    }

    /// The shard's shared KV page pool — paged-KV observability: resident
    /// vs free pages, the peak, and how many COW splits sharing caused.
    pub fn kv_pool(&self) -> &Arc<KvPagePool> {
        &self.inner.kv_pool
    }

    /// The shard's prompt prefix cache.
    pub fn prefix_cache(&self) -> &PrefixCache {
        &self.inner.prefix
    }

    /// Spills a live session's KV cache into a dense snapshot, returning
    /// its pages to the pool. `Ok(true)` if the session spilled now;
    /// `Ok(false)` if it already was, held no tokens, or is momentarily
    /// checked out by an executing batch. The session stays live — its
    /// next work item restores the pages transparently (bit-identically:
    /// the snapshot preserves every KV row).
    pub fn spill_session(&self, id: SessionId) -> Result<bool, ServeError> {
        let mut sessions = self.inner.sessions.lock();
        match sessions.get_mut(&id) {
            None => Err(ServeError::UnknownSession(id)),
            Some(Slot::Live(sess)) => Ok(sess.state.spill()),
            Some(Slot::CheckedOut { .. }) => Ok(false),
        }
    }

    /// Spills every live session that has executed no work for at least
    /// `min_idle` (see [`Session::last_active`]). Returns how many
    /// sessions spilled. The pool-level effect is what matters: an idle
    /// session's pages become reusable by active sessions, so a shard
    /// over-committed on sessions keeps serving as long as the *active*
    /// working set fits.
    pub fn spill_idle(&self, min_idle: Duration) -> usize {
        let now = Instant::now();
        let mut sessions = self.inner.sessions.lock();
        let mut spilled = 0;
        for slot in sessions.values_mut() {
            if let Slot::Live(sess) = slot {
                if now.duration_since(sess.last_active) >= min_idle && sess.state.spill() {
                    spilled += 1;
                }
            }
        }
        spilled
    }

    /// Live sessions currently holding their KV as a spilled snapshot.
    pub fn spilled_sessions(&self) -> usize {
        let sessions = self.inner.sessions.lock();
        sessions
            .values()
            .filter(|s| matches!(s, Slot::Live(sess) if sess.state.is_spilled()))
            .count()
    }

    /// Removes a live session and serializes it for re-admission
    /// elsewhere ([`Server::import_session`]). Fails with
    /// [`ServeError::SessionBusy`] while an executing batch holds the
    /// session checked out (retry — the window is one batch execution);
    /// callers should quiesce the shard first so no queued work is
    /// orphaned (work submitted after the export errors
    /// `UnknownSession`, exactly like work after a close).
    pub fn export_session(&self, id: SessionId) -> Result<SessionExport, ServeError> {
        let mut sessions = self.inner.sessions.lock();
        match sessions.get(&id) {
            None => return Err(ServeError::UnknownSession(id)),
            Some(Slot::CheckedOut { .. }) => return Err(ServeError::SessionBusy { session: id }),
            Some(Slot::Live(_)) => {}
        }
        let Some(Slot::Live(sess)) = sessions.remove(&id) else { unreachable!() };
        self.inner.session_count.fetch_sub(1, Ordering::AcqRel);
        Ok(SessionExport {
            tenant: sess.tenant,
            generated: sess.generated,
            kv: sess.state.snapshot(),
        })
    }

    /// Admits an exported session on this shard: same admission checks as
    /// [`Server::create_session`], then the KV snapshot is rehydrated
    /// into this shard's page pool — decoding continues bit-identically
    /// from where the source shard stopped. Returns the session's **new**
    /// id (ids are shard-local; the router rebinds its global id).
    /// Counts toward `pl_migrations_total`.
    pub fn import_session(&self, export: &SessionExport) -> Result<SessionId, ServeError> {
        if export.tenant >= self.inner.cfg.tenants {
            return Err(ServeError::UnknownTenant(export.tenant));
        }
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let live = self.inner.session_count.fetch_add(1, Ordering::AcqRel) + 1;
        if live as usize > self.inner.cfg.max_sessions {
            self.inner.session_count.fetch_sub(1, Ordering::AcqRel);
            self.inner.stats.tenants[export.tenant].rejected_sessions.inc();
            return Err(ServeError::TooManySessions { limit: self.inner.cfg.max_sessions });
        }
        let state = match self.inner.model.state_from_snapshot(&self.inner.kv_pool, &export.kv) {
            Ok(state) => state,
            Err(_) => {
                self.inner.session_count.fetch_sub(1, Ordering::AcqRel);
                return Err(ServeError::KvExhausted {
                    context: export.kv.len(),
                    capacity: export.kv.capacity(),
                });
            }
        };
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let mut sess = Session::new(id, export.tenant, state);
        sess.generated = export.generated;
        self.inner.sessions.lock().insert(id, Slot::Live(sess));
        self.inner.stats.migrations.inc();
        Ok(id)
    }

    /// Whether session `id` has no accepted work outstanding: it is
    /// resident (not checked out by an executing batch) and every
    /// program-order ticket it drew has executed. What a graceful close
    /// waits on — this session's own work, not the shard's.
    pub fn session_idle(&self, id: SessionId) -> Result<bool, ServeError> {
        match self.inner.sessions.lock().get(&id) {
            None => Err(ServeError::UnknownSession(id)),
            Some(Slot::Live(sess)) => Ok(sess.submit_seq.load(Ordering::Acquire) == sess.exec_seq),
            Some(Slot::CheckedOut { .. }) => Ok(false),
        }
    }

    /// Ends a session, freeing its KV cache. Returns how many tokens it
    /// decoded.
    ///
    /// If the session is momentarily **checked out** by an executing batch
    /// or prefill chunk, the close interlocks with that window instead of
    /// failing: it parks a completion channel in the slot and waits for
    /// the batch to check the session back in (microseconds — one batch
    /// execution), at which point the session is freed on the batcher's
    /// side and the token count handed over. Work still queued for the
    /// session afterwards errors `UnknownSession` through its reply
    /// channel, exactly as if the close had happened first.
    pub fn close_session(&self, id: SessionId) -> Result<u64, ServeError> {
        let done = {
            let mut sessions = self.inner.sessions.lock();
            match sessions.get_mut(&id) {
                None => return Err(ServeError::UnknownSession(id)),
                Some(Slot::Live(_)) => {
                    let Some(Slot::Live(sess)) = sessions.remove(&id) else { unreachable!() };
                    self.inner.session_count.fetch_sub(1, Ordering::AcqRel);
                    return Ok(sess.generated);
                }
                Some(Slot::CheckedOut { closer, .. }) => {
                    if closer.is_some() {
                        // A concurrent close already parked; first one wins.
                        return Err(ServeError::UnknownSession(id));
                    }
                    let (tx, rx) = mpsc::channel();
                    *closer = Some(tx);
                    rx
                }
            }
        };
        done.recv().map_err(|_| ServeError::UnknownSession(id))
    }

    /// Submits a prefill without blocking: the prompt (`hidden x tokens`,
    /// column-major) is split into ladder-aligned chunks of at most
    /// [`ServerConfig::prefill_chunk`] tokens and admitted through the
    /// batcher one chunk at a time, interleaving with decode traffic. The
    /// full `hidden x tokens` output arrives on the returned channel once
    /// the final chunk executes (or the error that aborted the prefill —
    /// e.g. the session was closed mid-prefill). Every chunk counts
    /// toward [`Server::in_flight`] from submission to completion.
    ///
    /// With [`ServerConfig::share_prefix`] the prompt is first looked up
    /// in the shard's [`PrefixCache`]: if its leading pages are cached and
    /// the session is still empty when chunk 0 checks out, the session
    /// adopts them and only the remaining tokens are chunked and
    /// forwarded — none at all for a fully cached prompt. The output is
    /// bit-identical either way.
    pub fn submit_prefill(
        &self,
        id: SessionId,
        x: &[f32],
        tokens: usize,
    ) -> Result<mpsc::Receiver<StepResult>, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let hidden = self.inner.model.config().hidden;
        if x.len() != hidden * tokens || tokens == 0 {
            return Err(ServeError::BadInput { expected: hidden * tokens.max(1), got: x.len() });
        }
        let (tenant, tickets) = self.admit(id, tokens)?;
        // Hash the prompt's pages once, here on the caller's thread with
        // no server lock held, and find its cached leading pages; the job
        // carries the result to chunk-0 checkout (adoption) and to
        // completion (registration). A prompt shorter than a page costs
        // neither a hash nor a lookup.
        let hit = if self.inner.cfg.share_prefix {
            self.inner.prefix.lookup(x)
        } else {
            PrefixHit::default()
        };
        // The whole job draws ONE program-order ticket: its chunks check
        // out under it and the cursor advances only when the job finishes,
        // so a decode step pipelined behind the prefill waits for every
        // chunk instead of slipping in between two of them.
        let seq = tickets.fetch_add(1, Ordering::AcqRel);
        let (job, rx) = PrefillJob::new(
            id,
            tenant,
            seq,
            x.to_vec(),
            tokens,
            self.inner.prefill_chunk.load(Ordering::Acquire),
            hit,
        );
        let item = WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, enqueued: Instant::now() });
        self.publish(&tickets, item)?;
        Ok(rx)
    }

    /// Shared admission lookup for [`Server::submit_step`] and
    /// [`Server::submit_prefill`]: resolves the session's tenant and
    /// program-order ticket dispenser. A `Live` session is validated for
    /// `need` tokens of KV capacity (decode passes 0 — its one token is
    /// checked at batch checkout, preserving the delivered-error path). A
    /// `CheckedOut` session is still live — the marker shares the ticket
    /// dispenser — but its state is with the executing batch, so the
    /// capacity check is deferred to checkout, which validates a
    /// prefill's **whole remaining prompt** atomically: an oversized
    /// prompt is rejected before any token appends, never leaving a
    /// partial prefill behind.
    fn admit(&self, id: SessionId, need: usize) -> Result<(TenantId, Arc<AtomicU64>), ServeError> {
        let sessions = self.inner.sessions.lock();
        match sessions.get(&id) {
            None => Err(ServeError::UnknownSession(id)),
            Some(Slot::Live(sess)) => {
                if !sess.fits(need) {
                    return Err(ServeError::KvExhausted {
                        context: sess.context_len(),
                        capacity: self.inner.cfg.kv_capacity,
                    });
                }
                Ok((sess.tenant, Arc::clone(&sess.submit_seq)))
            }
            Some(Slot::CheckedOut { tenant, submit_seq, .. }) => {
                Ok((*tenant, Arc::clone(submit_seq)))
            }
        }
    }

    /// Shared publication tail for admitted work: counts the item
    /// in-flight **before** the ring push (a concurrent batcher may
    /// execute and deliver it — retiring the count — at any moment;
    /// incrementing afterwards could transiently wrap the counter below
    /// zero), closes the check-then-push race with `shutdown()` (if the
    /// flag flipped while enqueueing, the batcher and shutdown's drain may
    /// already be gone — bounce whatever is pending so no caller blocks
    /// forever), and on a full ring rolls back the drawn ticket and the
    /// in-flight unit. The ticket rollback is safe under the documented
    /// **one-submitter-per-session** protocol: the same thread observes
    /// the backpressure error before its next submit, so no later ticket
    /// for this session can have been drawn concurrently. If the protocol
    /// is violated and the rollback duplicates a published ticket, batch
    /// checkout rejects the duplicate with [`ServeError::StaleTicket`]
    /// rather than deferring it forever.
    fn publish(&self, tickets: &AtomicU64, item: WorkItem) -> Result<(), ServeError> {
        self.inner.in_flight.fetch_add(1, Ordering::AcqRel);
        match self.inner.batcher.submit(item) {
            Ok(()) => {
                if self.inner.shutdown.load(Ordering::Acquire) {
                    self.bounce_pending();
                }
                self.inner.wake_batcher();
                Ok(())
            }
            Err(item) => {
                tickets.fetch_sub(1, Ordering::AcqRel);
                self.inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                self.inner.stats.tenants[item.tenant()].rejected_backpressure.inc();
                Err(ServeError::Backpressure { tenant: item.tenant() })
            }
        }
    }

    /// Blocking whole-prompt prefill (`hidden x tokens`, column-major) for
    /// `id`: a wrapper over the chunked [`Server::submit_prefill`] path.
    /// With a background batcher ([`Server::start`]) the call simply waits
    /// for completion while the chunks interleave with other traffic; in
    /// manual-drive mode it pumps on the calling thread until its own
    /// chunks (and whatever decode work shares their batches) have
    /// executed. A prompt of at most [`ServerConfig::prefill_chunk`]
    /// tokens runs as a single chunk and is bit-identical to an unchunked
    /// forward.
    pub fn prefill(&self, id: SessionId, x: &[f32], tokens: usize) -> Result<Vec<f32>, ServeError> {
        let rx = self.submit_prefill(id, x, tokens)?;
        loop {
            match rx.try_recv() {
                Ok(res) => return res,
                Err(mpsc::TryRecvError::Disconnected) => return Err(ServeError::ShuttingDown),
                Err(mpsc::TryRecvError::Empty) => {
                    if self.inner.running.load(Ordering::Acquire) {
                        // A background batcher owns execution; just wait.
                        return match rx.recv() {
                            Ok(res) => res,
                            Err(_) => Err(ServeError::ShuttingDown),
                        };
                    }
                    if self.pump() == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Submits one decode step without blocking; the result arrives on the
    /// returned channel once a batch containing it executes.
    pub fn submit_step(
        &self,
        id: SessionId,
        x: &[f32],
    ) -> Result<mpsc::Receiver<StepResult>, ServeError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let hidden = self.inner.model.config().hidden;
        if x.len() != hidden {
            return Err(ServeError::BadInput { expected: hidden, got: x.len() });
        }
        let (tenant, tickets) = self.admit(id, 0)?;
        let (tx, rx) = mpsc::channel();
        // Draw the program-order ticket: batch checkout executes this
        // session's steps strictly in ticket order, so concurrent pumps
        // cannot reorder a pipelined stream.
        let seq = tickets.fetch_add(1, Ordering::AcqRel);
        let req = StepRequest {
            session: id,
            tenant,
            seq,
            x: x.to_vec(),
            enqueued: Instant::now(),
            reply: tx,
        };
        self.publish(&tickets, WorkItem::Decode(req))?;
        self.inner.stats.tenants[tenant].submitted.inc();
        Ok(rx)
    }

    /// Drains the submission rings and the deferred side-queue, replying
    /// `ShuttingDown` to every queued item (a prefill job's completion
    /// channel receives the bounce of whichever chunk was pending).
    fn bounce_pending(&self) {
        loop {
            let left = self.inner.batcher.collect(usize::MAX);
            if left.is_empty() {
                break;
            }
            for item in left {
                self.inner.reject(&item, ServeError::ShuttingDown);
            }
        }
    }

    /// Blocking decode step: submit, then wait for the batcher. Requires
    /// [`Server::start`] (or a concurrent [`Server::pump`] driver).
    pub fn step(&self, id: SessionId, x: &[f32]) -> Result<Vec<f32>, ServeError> {
        let rx = self.submit_step(id, x)?;
        match rx.recv() {
            Ok(res) => res,
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Collects and executes one batch on the calling thread: whatever is
    /// queued right now, up to [`ServerConfig::max_batch`] — work arriving
    /// while it executes forms the next batch. Returns how
    /// many work items it finished with — the executed batch size, plus
    /// prefills answered entirely from the prefix cache (0 when nothing
    /// was pending or everything collected had to wait). This is the same
    /// code path the background batcher runs; it is safe to call from
    /// several threads concurrently (work for a session another pump holds
    /// checked out is deferred, not lost or double-executed).
    pub fn pump(&self) -> usize {
        let batch = self.inner.batcher.collect(self.inner.cfg.max_batch);
        if batch.is_empty() {
            return 0;
        }
        self.run_batch(batch)
    }

    /// Executes `batch` in one parallel region and delivers replies. At
    /// most one prefill chunk rides per batch, next to the decode lanes;
    /// surplus chunks, duplicate-session items and items whose session is
    /// checked out by a concurrent batch are deferred (FIFO, ahead of the
    /// rings) to the next batch in program order.
    fn run_batch(&self, batch: Vec<WorkItem>) -> usize {
        let inner = &self.inner;
        // The collect boundary for the queue-wait/execute latency split:
        // submit→here is queue wait, here→reply is execute.
        let collected = Instant::now();
        // Phase 1 — checkout: pull the target sessions out of the table so
        // the region holds no lock while computing, leaving CheckedOut
        // markers behind (see the module docs).
        let checkout_span = pl_trace::span("batch.checkout", [batch.len() as u64, 0, 0]);
        let mut ready: Vec<ReadyItem> = Vec::with_capacity(batch.len());
        let mut cached: Vec<Arc<PrefillJob>> = Vec::new();
        let mut has_chunk = false;
        {
            let mut sessions = inner.sessions.lock();
            for item in batch {
                let sid = item.session();
                let second_chunk = has_chunk && matches!(item, WorkItem::PrefillChunk(_));
                if second_chunk || ready.iter().any(|r| r.session_id() == sid) {
                    inner.batcher.defer(item);
                    continue;
                }
                match sessions.get_mut(&sid) {
                    None => inner.reject(&item, ServeError::UnknownSession(sid)),
                    Some(Slot::CheckedOut { .. }) => {
                        // A concurrent pump's batch holds this session;
                        // replay the item next batch, in program order.
                        inner.batcher.defer(item);
                    }
                    Some(slot) => {
                        let Slot::Live(sess) = &mut *slot else { unreachable!() };
                        // Program-order guard: a concurrent pump may have
                        // collected a *later* pipelined item of this
                        // session and reached checkout first — and a
                        // decode step queued behind a multi-chunk prefill
                        // replays through the side-queue ahead of the
                        // prefill's continuation chunks. Only the item
                        // holding the session's next ticket runs (every
                        // chunk of a prefill job carries the job's one
                        // ticket); later tickets are deferred.
                        let item_seq = match &item {
                            WorkItem::Decode(req) => req.seq,
                            WorkItem::PrefillChunk(c) => c.job.seq(),
                        };
                        if item_seq > sess.exec_seq {
                            inner.batcher.defer(item);
                            continue;
                        }
                        if item_seq < sess.exec_seq {
                            // A ticket behind the cursor can only be a
                            // duplicate: every legitimate ticket advances
                            // `exec_seq` exactly once when it executes or
                            // errors. Duplicates arise when the one-
                            // submitter-per-session protocol is violated
                            // (a backpressure rollback raced another
                            // submit's draw). Deferring would replay it
                            // forever — a silent livelock where the caller
                            // hangs and `in_flight` never drains; reject
                            // it loudly instead.
                            inner.reject(&item, ServeError::StaleTicket { session: sid });
                            continue;
                        }
                        // Capacity: a decode step needs one token; a
                        // prefill chunk is validated against the job's
                        // **whole remaining prompt**, so an oversized
                        // prefill (admitted while the session was checked
                        // out and unverifiable) fails atomically at its
                        // first chunk instead of leaving a partial prompt
                        // in the KV cache.
                        let need = match &item {
                            WorkItem::Decode(_) => 1,
                            WorkItem::PrefillChunk(c) => c.job.remaining_tokens(c.chunk),
                        };
                        if !sess.fits(need) {
                            let err = ServeError::KvExhausted {
                                context: sess.context_len(),
                                capacity: inner.cfg.kv_capacity,
                            };
                            // The errored step — or aborted prefill job —
                            // consumed its ticket; advance the cursor so
                            // later pipelined items are not deferred
                            // forever.
                            sess.exec_seq += 1;
                            inner.reject(&item, err);
                            continue;
                        }
                        if let WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, .. }) = &item {
                            // The session is in hand and its ticket is up:
                            // the one moment the cached prefix the job
                            // found at submission can be adopted (only
                            // into an empty, resident session — anything
                            // else runs the whole-prompt plan).
                            let adopted = job.adopt(&mut sess.state);
                            inner.stats.tenants[sess.tenant].prefix_hit_tokens.add(adopted as u64);
                            if job.chunks() == 0 {
                                // Every token came from the cache: nothing
                                // to forward, so the session never leaves
                                // the table. The reply goes out once the
                                // lock is released.
                                sess.exec_seq += 1;
                                sess.last_active = collected;
                                cached.push(Arc::clone(job));
                                continue;
                            }
                        }
                        let marker = Slot::CheckedOut {
                            tenant: sess.tenant,
                            submit_seq: Arc::clone(&sess.submit_seq),
                            closer: None,
                        };
                        let Slot::Live(sess) = std::mem::replace(slot, marker) else {
                            unreachable!()
                        };
                        ready.push(match item {
                            WorkItem::Decode(req) => ReadyItem::Decode(req, sess),
                            WorkItem::PrefillChunk(c) => {
                                has_chunk = true;
                                ReadyItem::Chunk(c, sess)
                            }
                        });
                    }
                }
            }
        }
        drop(checkout_span);
        let from_cache = cached.len();
        for job in cached {
            inner.stats.tenants[job.tenant()].prefills.inc();
            inner.deliver(job.reply(), Ok(job.take_output()));
        }
        if ready.is_empty() {
            return from_cache;
        }
        let size = ready.len();
        let decode_lanes = size - usize::from(has_chunk);

        // Phase 2 — execute, no lock held: decode lanes and the chunk are
        // one ragged batch, one parallel region, sharing every projection.
        let width: usize = ready
            .iter()
            .map(|r| match r {
                ReadyItem::Decode(..) => 1,
                ReadyItem::Chunk(c, _) => c.job.chunk_tokens(c.chunk),
            })
            .sum();
        let execute_span =
            pl_trace::span("batch.execute", [size as u64, decode_lanes as u64, width as u64]);
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let items: Vec<(&mut DecoderState, &[f32], usize)> = ready
                .iter_mut()
                .map(|r| match r {
                    ReadyItem::Decode(req, sess) => (&mut sess.state, req.x.as_slice(), 1),
                    ReadyItem::Chunk(c, sess) => {
                        (&mut sess.state, c.job.chunk_input(c.chunk), c.job.chunk_tokens(c.chunk))
                    }
                })
                .collect();
            inner.model.forward_batch(items, &inner.pool)
        }));
        drop(execute_span);
        let outputs = match executed {
            Ok(outputs) => outputs,
            Err(panic) => {
                self.fail_batch(ready, panic.as_ref());
                return 0;
            }
        };
        let cfg = inner.model.config();
        let (h, f, l) = (cfg.hidden, cfg.ffn, cfg.layers as u64);
        // Per layer: 4 h x h GEMMs (QKV + output) and one of each FFN
        // shape, all at the batch's ragged width.
        let stats = &inner.stats;
        stats.record_gemm_shapes(&[((h, width, h), 4 * l), ((f, width, h), l), ((h, width, f), l)]);

        // Phase 3 — check-in and delivery.
        let _deliver_span = pl_trace::span("batch.deliver", [size as u64, 0, 0]);
        stats.batches.inc();
        stats.record_batch_size(size);
        if decode_lanes > 0 {
            stats.decode_batches.inc();
        }
        if has_chunk && decode_lanes > 0 {
            stats.mixed_batches.inc();
        }
        // A chunk's output joins its job, and a completed prompt's pages
        // and outputs go to the prefix cache, while the session is still
        // checked out — before the table lock is taken.
        let mut outputs = outputs;
        for (r, y) in ready.iter().zip(&mut outputs) {
            if let ReadyItem::Chunk(c, sess) = r {
                c.job.push_output(std::mem::take(y));
                if c.chunk + 1 == c.job.chunks() {
                    c.job.register(&sess.state, &inner.prefix);
                }
            }
        }
        let mut sessions = inner.sessions.lock();
        for (r, y) in ready.into_iter().zip(outputs) {
            match r {
                ReadyItem::Decode(req, mut sess) => {
                    sess.generated += 1;
                    sess.last_active = collected;
                    // The step's ticket is spent: advance the
                    // program-order cursor so the session's next
                    // pipelined step becomes executable.
                    sess.exec_seq += 1;
                    inner.check_in(&mut sessions, req.session, sess);
                    // Combined latency plus its split at the collect
                    // boundary: ring wait vs batch compute.
                    let us = req.enqueued.elapsed().as_micros() as u64;
                    let queue_wait = collected.saturating_duration_since(req.enqueued);
                    // Pre-created handles: atomics and one short mutex
                    // per SLO window, no registry lock.
                    let tm = &stats.tenants[req.tenant];
                    tm.steps.inc();
                    tm.step_latency.observe(us);
                    tm.queue_wait.observe(queue_wait.as_micros() as u64);
                    tm.execute.observe(collected.elapsed().as_micros() as u64);
                    tm.slo.record(us);
                    inner.slo.record(us);
                    if pl_trace::enabled() {
                        // The per-item submit→collect span, placed on the
                        // trace timebase so it lines up under this batch's
                        // checkout/execute spans.
                        let q_ns = queue_wait.as_nanos() as u64;
                        let since_collect = collected.elapsed().as_nanos() as u64;
                        let start = pl_trace::now_ns().saturating_sub(since_collect + q_ns);
                        pl_trace::complete("step.queue_wait", start, q_ns, [req.session, 0, 0]);
                    }
                    inner.deliver(&req.reply, Ok(y));
                }
                ReadyItem::Chunk(c, mut sess) => {
                    let tm = &stats.tenants[c.job.tenant()];
                    tm.prefill_chunks.inc();
                    tm.prefill_tokens.add(c.job.chunk_tokens(c.chunk) as u64);
                    tm.chunk_latency.observe(c.enqueued.elapsed().as_micros() as u64);
                    if pl_trace::enabled() {
                        let q_ns =
                            collected.saturating_duration_since(c.enqueued).as_nanos() as u64;
                        let since_collect = collected.elapsed().as_nanos() as u64;
                        let start = pl_trace::now_ns().saturating_sub(since_collect + q_ns);
                        pl_trace::complete(
                            "chunk.queue_wait",
                            start,
                            q_ns,
                            [c.job.session(), c.chunk as u64, 0],
                        );
                    }
                    sess.last_active = collected;
                    if c.chunk + 1 == c.job.chunks() {
                        // The job's single ticket is spent only when its
                        // final chunk lands: items pipelined behind the
                        // prefill become executable now, never between
                        // chunks.
                        sess.exec_seq += 1;
                    }
                    inner.check_in(&mut sessions, c.job.session(), sess);
                    let next = c.chunk + 1;
                    if next < c.job.chunks() {
                        // The completed chunk's in-flight unit transfers
                        // to the successor: nothing is delivered for a
                        // non-final chunk, so the counter stays raised
                        // across the hand-off and a drain polling
                        // `in_flight` never sees a mid-prefill gap.
                        inner.batcher.defer(WorkItem::PrefillChunk(ChunkItem {
                            job: Arc::clone(&c.job),
                            chunk: next,
                            enqueued: Instant::now(),
                        }));
                    } else {
                        tm.prefills.inc();
                        inner.deliver(c.job.reply(), Ok(c.job.take_output()));
                    }
                }
            }
        }
        size + from_cache
    }

    /// A region member panicked mid-forward (e.g. the bounded KV page
    /// pool ran dry inside attention): the batch's sessions hold partially
    /// appended KV and cannot continue, so they are closed — parked closers
    /// are answered — and every request of the batch is failed with
    /// [`ServeError::BatchFailed`]. The pump itself carries on.
    fn fail_batch(&self, ready: Vec<ReadyItem>, panic: &(dyn std::any::Any + Send)) {
        let inner = &self.inner;
        let reason = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("region member panicked")
            .to_string();
        let mut sessions = inner.sessions.lock();
        for r in ready {
            let sid = r.session_id();
            let (reply, sess) = match &r {
                ReadyItem::Decode(req, sess) => {
                    inner.stats.tenants[req.tenant].failed.inc();
                    (&req.reply, sess)
                }
                ReadyItem::Chunk(c, sess) => (c.job.reply(), sess),
            };
            if let Some(Slot::CheckedOut { closer: Some(done), .. }) = sessions.remove(&sid) {
                let _ = done.send(sess.generated);
            }
            inner.session_count.fetch_sub(1, Ordering::AcqRel);
            inner.deliver(reply, Err(ServeError::BatchFailed { reason: reason.clone() }));
        }
    }

    /// Spawns the background batcher thread. Idempotent.
    pub fn start(&mut self) {
        if self.batcher_thread.is_some() {
            return;
        }
        self.inner.running.store(true, Ordering::Release);
        let inner = Arc::clone(&self.inner);
        let server = Server { inner, batcher_thread: None };
        self.batcher_thread = Some(
            std::thread::Builder::new()
                .name("pl-serve-batcher".into())
                .spawn(move || {
                    let _ = server.inner.batcher_waker.set(std::thread::current());
                    loop {
                        let ran = server.pump();
                        if ran == 0 {
                            if server.inner.shutdown.load(Ordering::Acquire)
                                && server.inner.batcher.pending() == 0
                            {
                                break;
                            }
                            // `pump` returns the *executed* count: a batch
                            // whose items were all deferred (out-of-order
                            // ticket at the side-queue head, session checked
                            // out by a concurrent pump) executes nothing yet
                            // work is still pending and becomes runnable as
                            // soon as the blocking item checks in — yield and
                            // re-collect instead of parking.
                            if server.inner.batcher.pending() > 0 {
                                std::thread::yield_now();
                            } else {
                                std::thread::park_timeout(IDLE_PARK);
                            }
                        }
                    }
                })
                .expect("failed to spawn batcher thread"),
        );
    }

    /// Stops admitting work, drains the queues, and joins the batcher.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake_batcher();
        if let Some(h) = self.batcher_thread.take() {
            let _ = h.join();
        }
        self.inner.running.store(false, Ordering::Release);
        // Without a batcher thread, bounce whatever is still queued.
        self.bounce_pending();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.batcher_thread.is_some() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StatsSnapshot;
    use pl_dnn::{DecoderConfig, Precision};
    use pl_tensor::{fill_uniform, Xorshift};

    fn tiny_server(cfg: ServerConfig) -> Server {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 77));
        let pool = Arc::new(ThreadPool::new(4));
        Server::new(model, pool, cfg)
    }

    fn token(seed: u64, hidden: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
        x
    }

    #[test]
    fn session_lifecycle_and_caps() {
        let server = tiny_server(ServerConfig { max_sessions: 2, ..Default::default() });
        let a = server.create_session(0).unwrap();
        let b = server.create_session(0).unwrap();
        assert_ne!(a, b);
        assert!(matches!(server.create_session(0), Err(ServeError::TooManySessions { limit: 2 })));
        assert_eq!(server.stats().snapshot().rejected_sessions, 1);
        assert_eq!(server.close_session(a).unwrap(), 0);
        // Freed capacity is reusable.
        let c = server.create_session(0).unwrap();
        assert!(matches!(server.close_session(a), Err(ServeError::UnknownSession(_))));
        assert!(matches!(server.create_session(9), Err(ServeError::UnknownTenant(9))));
        let _ = (b, c);
    }

    #[test]
    fn pump_executes_submitted_steps_and_matches_unbatched() {
        // A batch is what is queued when `pump` collects: `k` queued steps
        // make one batch of `k` for every `k` up to `max_batch`, and a
        // surplus beyond `max_batch` makes the next batch.
        let server = tiny_server(ServerConfig::default());
        let model = Arc::clone(server.model());
        let hidden = model.config().hidden;
        let max_batch = server.config().max_batch;
        let ids: Vec<SessionId> =
            (0..max_batch + 3).map(|_| server.create_session(0).unwrap()).collect();
        // Baseline: independent unbatched decoders over the same weights.
        let pool = ThreadPool::new(2);
        let mut states: Vec<DecoderState> =
            ids.iter().map(|_| model.new_state(server.config().kv_capacity)).collect();
        let mut round = |k: usize, pumps: &[usize]| {
            let xs: Vec<Vec<f32>> =
                (0..k).map(|s| token((500 + 31 * k + s) as u64, hidden)).collect();
            let rxs: Vec<_> =
                ids.iter().zip(&xs).map(|(&id, x)| server.submit_step(id, x).unwrap()).collect();
            for &want in pumps {
                assert_eq!(server.pump(), want, "{k} queued");
            }
            assert_eq!(server.pump(), 0);
            for ((rx, x), st) in rxs.into_iter().zip(&xs).zip(&mut states) {
                let want = model.forward(st, x, 1, &pool);
                assert_eq!(rx.recv().unwrap().unwrap(), want, "batched step must be bit-identical");
            }
        };
        let batches_of = |size: usize| {
            server
                .metrics_snapshot()
                .counter_value("pl_batch_size_total", &[("size", &size.to_string())])
        };
        for k in 1..=max_batch {
            round(k, &[k]);
            assert_eq!(batches_of(k), 1);
        }
        round(max_batch + 3, &[max_batch, 3]);
        assert_eq!((batches_of(max_batch), batches_of(3)), (2, 2));
        let snap = server.stats().snapshot();
        assert_eq!(snap.completed as usize, (1..=max_batch).sum::<usize>() + max_batch + 3);
        assert_eq!(snap.max_batch_observed, max_batch);
        assert_eq!(snap.batches as usize, max_batch + 2);
        assert_eq!(snap.decode_batches, snap.batches);
    }

    #[test]
    fn int8_server_serves_within_tolerance_of_f32() {
        // Same seed: the int8 model is the quantization of the f32 one.
        // Serve a prefill + decode steps at both precisions; the int8
        // outputs must track the f32 ones within the quantization budget
        // (bound derivation in crates/serve/README.md, "Precision"), and
        // int8 serving must stay bit-identical to an unbatched forward
        // over the same int8 model.
        let f32_server = tiny_server(ServerConfig::default());
        let i8_model = Arc::new(DecoderModel::new_with_precision(
            DecoderConfig::scaled_for_tests(),
            77,
            Precision::Int8,
        ));
        let i8_server = Server::new(
            Arc::clone(&i8_model),
            Arc::new(ThreadPool::new(4)),
            ServerConfig::default(),
        );
        let hidden = i8_model.config().hidden;
        let fid = f32_server.create_session(0).unwrap();
        let qid = i8_server.create_session(0).unwrap();
        let prompt = token(55, hidden * 3);
        let yf = f32_server.prefill(fid, &prompt, 3).unwrap();
        let yq = i8_server.prefill(qid, &prompt, 3).unwrap();
        for (i, (a, b)) in yq.iter().zip(&yf).enumerate() {
            let rel = (a - b).abs() / b.abs().max(1.0);
            assert!(rel < 0.25, "prefill idx {i}: i8 {a} vs f32 {b}");
        }
        let x = token(56, hidden);
        let rxf = f32_server.submit_step(fid, &x).unwrap();
        let rxq = i8_server.submit_step(qid, &x).unwrap();
        assert_eq!(f32_server.pump(), 1);
        assert_eq!(i8_server.pump(), 1);
        let sf = rxf.recv().unwrap().unwrap();
        let sq = rxq.recv().unwrap().unwrap();
        for (i, (a, b)) in sq.iter().zip(&sf).enumerate() {
            let rel = (a - b).abs() / b.abs().max(1.0);
            assert!(rel < 0.25, "step idx {i}: i8 {a} vs f32 {b}");
        }
        // Int8 serving is bit-identical to unbatched int8 decode.
        let mut st = i8_model.new_state(8);
        let pool = ThreadPool::new(2);
        let _ = i8_model.forward(&mut st, &prompt, 3, &pool);
        let want = i8_model.forward(&mut st, &x, 1, &pool);
        assert_eq!(sq, want, "int8 serving must be bit-identical to unbatched");
    }

    #[test]
    fn prefill_then_step_continues_the_stream() {
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let prompt = token(1, hidden * 3);
        let y = server.prefill(id, &prompt, 3).unwrap();
        assert_eq!(y.len(), hidden * 3);
        let rx = server.submit_step(id, &token(2, hidden)).unwrap();
        assert_eq!(server.pump(), 1);
        let stepped = rx.recv().unwrap().unwrap();
        // Baseline continues from the same 3-token context.
        let mut st = server.model().new_state(server.model().config().hidden * 4);
        let pool = ThreadPool::new(2);
        let _ = server.model().forward(&mut st, &prompt, 3, &pool);
        let want = server.model().forward(&mut st, &token(2, hidden), 1, &pool);
        assert_eq!(stepped, want);
    }

    #[test]
    fn single_chunk_prefill_is_bit_identical_to_unchunked_forward() {
        // The chunked admission path must not change single-chunk prompts:
        // a prompt of <= prefill_chunk tokens executes as exactly one
        // forward, bitwise equal to the pre-chunking inline prefill.
        let server = tiny_server(ServerConfig { prefill_chunk: 16, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let prompt = token(77, hidden * 5);
        let y = server.prefill(id, &prompt, 5).unwrap();
        let mut st = server.model().new_state(16);
        let want = server.model().forward(&mut st, &prompt, 5, &ThreadPool::new(2));
        assert_eq!(y, want, "single-chunk prefill must be bit-identical");
        let snap = server.stats().snapshot();
        assert_eq!(snap.prefills, 1);
        assert_eq!(snap.prefill_chunks, 1);
    }

    #[test]
    fn multi_chunk_prefill_matches_whole_prompt_bitwise() {
        let server =
            tiny_server(ServerConfig { prefill_chunk: 4, kv_capacity: 32, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let tokens = 11; // chunks of 4, 4, 3
        let prompt = token(78, hidden * tokens);
        let y = server.prefill(id, &prompt, tokens).unwrap();
        assert_eq!(y.len(), hidden * tokens);
        assert_eq!(server.stats().snapshot().prefill_chunks, 3);
        // Chunking changes the projections' widths, never a column's bits.
        let pool = ThreadPool::new(2);
        let mut st = server.model().new_state(32);
        let whole = server.model().forward(&mut st, &prompt, tokens, &pool);
        assert_eq!(y, whole, "served chunks must equal the whole-prompt forward bitwise");
    }

    #[test]
    fn stale_ticket_is_rejected_not_deferred_forever() {
        // A ticket behind the session's exec_seq cursor can only exist if
        // the one-submitter-per-session protocol was violated: a
        // backpressure rollback raced a concurrent same-session submit
        // and the dispenser re-issued a published ticket. Checkout used
        // to re-defer such an item on every batch — a silent livelock
        // (the caller hangs on recv, in_flight never drains, drains and
        // shutdown never quiesce). It must fail loudly instead.
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let rx1 = server.submit_step(id, &token(91, hidden)).unwrap();
        assert_eq!(server.pump(), 1);
        // Ticket 0 is spent and exec_seq is now 1. Forge the duplicate: a
        // second item carrying the spent ticket 0, published exactly as
        // submit_step would have.
        rx1.recv().unwrap().unwrap();
        let (tx, rx) = mpsc::channel();
        server.inner.in_flight.fetch_add(1, Ordering::AcqRel);
        server
            .inner
            .batcher
            .submit(WorkItem::Decode(StepRequest {
                session: id,
                tenant: 0,
                seq: 0,
                x: token(92, hidden),
                enqueued: Instant::now(),
                reply: tx,
            }))
            .unwrap_or_else(|_| panic!("ring full"));
        server.pump();
        match rx.try_recv() {
            Ok(Err(ServeError::StaleTicket { session })) => assert_eq!(session, id),
            other => panic!("stale ticket must be rejected loudly, got {other:?}"),
        }
        assert_eq!(server.in_flight(), 0, "the rejected duplicate must retire its count");
        assert_eq!(server.inner.batcher.pending(), 0, "nothing may stay parked in the queues");
        // The session itself is unharmed: a fresh step still executes.
        let rx2 = server.submit_step(id, &token(93, hidden)).unwrap();
        assert_eq!(server.pump(), 1);
        rx2.recv().unwrap().unwrap();
    }

    #[test]
    fn decode_is_not_starved_by_concurrent_multi_chunk_prefills() {
        // Regression: with `max_batch` (or more) concurrent prefill jobs,
        // the side-queue held that many chunks, every collect filled the
        // whole batch from it (one chunk executing, the rest re-deferred),
        // and a ring-queued decode step waited for ALL remaining prefill
        // work — cross-session head-of-line blocking. The one-chunk-per-
        // collect cap leaves the other lanes for decode.
        let server = tiny_server(ServerConfig {
            max_batch: 2,
            prefill_chunk: 4,
            kv_capacity: 32,
            ..Default::default()
        });
        let hidden = server.model().config().hidden;
        let a = server.create_session(0).unwrap();
        let b = server.create_session(0).unwrap();
        let c = server.create_session(0).unwrap();
        let tokens = 16; // 4 chunks of 4 under prefill_chunk = 4
        let rx_a = server.submit_prefill(a, &token(41, hidden * tokens), tokens).unwrap();
        let rx_b = server.submit_prefill(b, &token(42, hidden * tokens), tokens).unwrap();
        let rx_c = server.submit_step(c, &token(43, hidden)).unwrap();
        // Pump until the decode step completes; both prefills (8 chunks
        // total) must still be in flight at that point.
        let mut pumps = 0;
        loop {
            assert!(pumps < 16, "decode step starved behind concurrent prefills");
            server.pump();
            pumps += 1;
            match rx_c.try_recv() {
                Ok(res) => {
                    res.unwrap();
                    break;
                }
                Err(mpsc::TryRecvError::Empty) => {}
                Err(e) => panic!("decode reply channel died: {e:?}"),
            }
        }
        assert!(
            matches!(rx_a.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "decode must complete before prefill A finishes"
        );
        assert!(
            matches!(rx_b.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "decode must complete before prefill B finishes"
        );
        // Both prefills still run to completion afterwards.
        let (mut done_a, mut done_b) = (false, false);
        for _ in 0..32 {
            server.pump();
            if let Ok(r) = rx_a.try_recv() {
                r.unwrap();
                done_a = true;
            }
            if let Ok(r) = rx_b.try_recv() {
                r.unwrap();
                done_b = true;
            }
            if done_a && done_b {
                break;
            }
        }
        assert!(done_a && done_b, "prefills must complete after the decode interleave");
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.stats().snapshot().prefill_chunks, 8);
    }

    #[test]
    fn pipelined_steps_on_one_session_defer_not_error() {
        // Two queued steps for the same session must both complete (the
        // second rides the next batch), not error with UnknownSession.
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let x1 = token(21, hidden);
        let rx1 = server.submit_step(id, &x1).unwrap();
        let rx2 = server.submit_step(id, &token(22, hidden)).unwrap();
        assert_eq!(server.pump(), 1, "first batch runs only the first step");
        let y1 = rx1.recv().unwrap().unwrap();
        assert_eq!(server.pump(), 1, "deferred step rides the next batch");
        let y2 = rx2.recv().unwrap().unwrap();
        assert_ne!(y1, y2);
        // Both steps landed in the KV cache, in order.
        let mut st = server.model().new_state(8);
        let pool = ThreadPool::new(2);
        let w1 = server.model().forward(&mut st, &x1, 1, &pool);
        let w2 = server.model().forward(&mut st, &token(22, hidden), 1, &pool);
        assert_eq!(y1, w1);
        assert_eq!(y2, w2);
    }

    #[test]
    fn deferred_steps_execute_in_submission_order_ahead_of_ring_queued_ones() {
        // Satellite regression: three pipelined steps of one session,
        // batch window of two. The old code re-submitted the deferred
        // step 2 to the *back* of the ring — behind step 3 — so step 3
        // executed first and corrupted the KV stream. The FIFO side-queue
        // replays step 2 ahead of the ring.
        let server = tiny_server(ServerConfig { max_batch: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let xs: Vec<Vec<f32>> = (0..3).map(|t| token(50 + t as u64, hidden)).collect();
        let rxs: Vec<_> = xs.iter().map(|x| server.submit_step(id, x).unwrap()).collect();
        // Batch 1 collects steps 1+2, executes 1, defers 2 (step 3 still
        // ring-queued). Batch 2 must run step 2, NOT step 3.
        assert_eq!(server.pump(), 1);
        assert_eq!(server.pump(), 1);
        assert_eq!(server.pump(), 1);
        let got: Vec<Vec<f32>> = rxs.into_iter().map(|rx| rx.recv().unwrap().unwrap()).collect();
        // Delivery order == submission order == KV order: the outputs
        // must match a sequential 3-step baseline bitwise.
        let mut st = server.model().new_state(8);
        let pool = ThreadPool::new(2);
        for (t, (x, y)) in xs.iter().zip(&got).enumerate() {
            let want = server.model().forward(&mut st, x, 1, &pool);
            assert_eq!(y, &want, "step {t} executed out of order");
        }
        assert_eq!(st.cached_tokens(), 3);
        assert_eq!(server.close_session(id).unwrap(), 3, "all three steps landed in KV order");
    }

    #[test]
    fn concurrent_pumps_preserve_same_session_program_order() {
        // Review regression: two pumps could each collect one of a
        // session's pipelined steps, and whichever reached checkout first
        // executed — even if it held the *later* step — corrupting the KV
        // stream. The per-session ticket (`StepRequest::seq` vs
        // `Session::exec_seq`) defers out-of-order steps, so the stream
        // must stay bitwise-sequential under two concurrent pumpers.
        let server = Arc::new(tiny_server(ServerConfig {
            // One item per batch maximizes pump interleavings.
            max_batch: 1,
            queue_capacity: 256,
            kv_capacity: 256,
            ..Default::default()
        }));
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        const STEPS: usize = 200;
        let xs: Vec<Vec<f32>> = (0..STEPS).map(|t| token(8000 + t as u64, hidden)).collect();
        let rxs: Vec<_> = xs.iter().map(|x| server.submit_step(id, x).unwrap()).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let server = Arc::clone(&server);
                let barrier = &barrier;
                scope.spawn(move || {
                    // Both pumpers start together so they actually contend.
                    barrier.wait();
                    while server.in_flight() > 0 {
                        if server.pump() == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let got: Vec<Vec<f32>> = rxs.into_iter().map(|rx| rx.recv().unwrap().unwrap()).collect();
        let mut st = server.model().new_state(STEPS + 1);
        let pool = ThreadPool::new(2);
        for (t, (x, y)) in xs.iter().zip(&got).enumerate() {
            let want = server.model().forward(&mut st, x, 1, &pool);
            assert_eq!(y, &want, "step {t} executed out of program order");
        }
        assert_eq!(server.close_session(id).unwrap(), STEPS as u64);
    }

    #[test]
    fn out_of_order_checkout_is_deferred_not_executed() {
        // Deterministic white-box form of the concurrent-pump race: pump A
        // collects step N, pump B collects step N+1, and B reaches
        // checkout FIRST. Simulated by collecting both items by hand and
        // running B's batch before A's: the program-order guard must
        // defer step N+1 (not execute it against a KV cache missing step
        // N), then execute it after step N in a later pump.
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let xs: Vec<Vec<f32>> = (0..2).map(|t| token(70 + t as u64, hidden)).collect();
        let rx0 = server.submit_step(id, &xs[0]).unwrap();
        let rx1 = server.submit_step(id, &xs[1]).unwrap();
        // Pump A's collect takes step 0; pump B's takes step 1.
        let step0 = server.inner.batcher.collect(1);
        let step1 = server.inner.batcher.collect(1);
        assert_eq!(step0.len(), 1);
        assert_eq!(step1.len(), 1);
        // B wins the checkout race with the LATER step: it must not run.
        assert_eq!(server.run_batch(step1), 0, "out-of-order step must be deferred");
        assert!(rx1.try_recv().is_err(), "no reply for the deferred step");
        // A's batch executes step 0; the deferred step 1 rides the next
        // pump from the side-queue.
        assert_eq!(server.run_batch(step0), 1);
        assert_eq!(server.pump(), 1);
        let y0 = rx0.recv().unwrap().unwrap();
        let y1 = rx1.recv().unwrap().unwrap();
        let mut st = server.model().new_state(8);
        let pool = ThreadPool::new(2);
        assert_eq!(y0, server.model().forward(&mut st, &xs[0], 1, &pool));
        assert_eq!(y1, server.model().forward(&mut st, &xs[1], 1, &pool), "KV order preserved");
        assert_eq!(server.close_session(id).unwrap(), 2);
    }

    #[test]
    fn decode_step_pipelined_behind_a_prefill_waits_for_every_chunk() {
        // Review regression: a decode step submitted after a multi-chunk
        // prefill replays through the side-queue *ahead of* the prefill's
        // continuation chunks (the same-session dedup defers the step
        // before phase 3 defers the next chunk). Without the job ticket it
        // executed between two chunks, splicing a decode token into the
        // middle of the prompt's KV — silently. The job-wide ticket
        // defers it until the final chunk has landed.
        let server =
            tiny_server(ServerConfig { prefill_chunk: 2, kv_capacity: 32, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let tokens = 8; // 4 chunks of 2
        let prompt = token(96, hidden * tokens);
        let prefill_rx = server.submit_prefill(id, &prompt, tokens).unwrap();
        let x = token(97, hidden);
        let step_rx = server.submit_step(id, &x).unwrap();
        // Drive to completion; the step must resolve after the prefill.
        let mut prefill_out = None;
        let mut step_out = None;
        let mut pumps = 0;
        while prefill_out.is_none() || step_out.is_none() {
            server.pump();
            pumps += 1;
            assert!(pumps < 64, "no livelock");
            if let Ok(res) = prefill_rx.try_recv() {
                prefill_out = Some(res.unwrap());
            }
            if let Ok(res) = step_rx.try_recv() {
                assert!(
                    prefill_out.is_some(),
                    "step must not complete before the prefill it was pipelined behind"
                );
                step_out = Some(res.unwrap());
            }
        }
        // Outputs in program order: whole chunked prompt first, then the
        // step on top of the full 8-token context — bitwise.
        let pool = ThreadPool::new(2);
        let mut st = server.model().new_state(32);
        let chunked = server.model().forward_chunked(&mut st, &prompt, tokens, 2, &pool);
        let want_step = server.model().forward(&mut st, &x, 1, &pool);
        assert_eq!(prefill_out.unwrap(), chunked);
        assert_eq!(step_out.unwrap(), want_step, "step spliced into the prompt's KV");
        // The session's KV really holds prompt-then-step: one more step
        // continues bit-identically from the 9-token baseline context.
        let x2 = token(98, hidden);
        let rx2 = server.submit_step(id, &x2).unwrap();
        while server.pump() == 0 {}
        assert_eq!(rx2.recv().unwrap().unwrap(), server.model().forward(&mut st, &x2, 1, &pool));
        assert_eq!(server.close_session(id).unwrap(), 2);
    }

    #[test]
    fn oversized_prefill_fails_atomically_without_partial_kv_append() {
        // Review regression: a prefill admitted without an up-front
        // capacity check (the session can be checked out at submit, or —
        // as here — grow between admission and execution) must fail at
        // its FIRST chunk, before any tokens append, never leaving a
        // partial prompt in the KV cache.
        let server =
            tiny_server(ServerConfig { kv_capacity: 8, prefill_chunk: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        // A decode step queued ahead of the prefill grows the context to 1
        // before any chunk runs, so the 8-token prompt (admitted at
        // context 0, where it fit exactly) no longer fits.
        let x0 = token(60, hidden);
        let step_rx = server.submit_step(id, &x0).unwrap();
        let prompt = token(61, hidden * 8);
        let prefill_rx = server.submit_prefill(id, &prompt, 8).unwrap();
        assert_eq!(server.pump(), 1, "the step runs first; the same-session chunk defers");
        let y0 = step_rx.recv().unwrap().unwrap();
        assert_eq!(server.pump(), 0, "chunk 0 is rejected at checkout, nothing executes");
        assert!(matches!(
            prefill_rx.recv().unwrap(),
            Err(ServeError::KvExhausted { context: 1, capacity: 8 })
        ));
        assert_eq!(server.in_flight(), 0);
        // No partial prompt landed: the next step continues bit-identically
        // from the 1-token context.
        let x1 = token(62, hidden);
        let rx = server.submit_step(id, &x1).unwrap();
        assert_eq!(server.pump(), 1);
        let y1 = rx.recv().unwrap().unwrap();
        let mut st = server.model().new_state(8);
        let pool = ThreadPool::new(2);
        assert_eq!(y0, server.model().forward(&mut st, &x0, 1, &pool));
        assert_eq!(y1, server.model().forward(&mut st, &x1, 1, &pool));
    }

    #[test]
    fn in_flight_tracks_accepted_steps_until_reply() {
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        assert_eq!(server.in_flight(), 0);
        let id = server.create_session(0).unwrap();
        let rx1 = server.submit_step(id, &token(41, hidden)).unwrap();
        let rx2 = server.submit_step(id, &token(42, hidden)).unwrap();
        assert_eq!(server.in_flight(), 2);
        assert_eq!(server.pending(), 2);
        // One pump executes one step (same-session pipelining defers the
        // second): exactly one reply retired.
        assert_eq!(server.pump(), 1);
        assert_eq!(server.in_flight(), 1);
        assert_eq!(server.pump(), 1);
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.pending(), 0);
        rx1.recv().unwrap().unwrap();
        rx2.recv().unwrap().unwrap();
        // Error replies retire the count too (KV-exhausted session).
        let tiny = tiny_server(ServerConfig { kv_capacity: 0, ..Default::default() });
        let id = tiny.create_session(0).unwrap();
        let rx = tiny.submit_step(id, &token(43, tiny.model().config().hidden)).unwrap();
        assert_eq!(tiny.in_flight(), 1);
        tiny.pump();
        assert_eq!(tiny.in_flight(), 0);
        assert!(matches!(rx.recv().unwrap(), Err(ServeError::KvExhausted { .. })));
    }

    #[test]
    fn in_flight_covers_every_prefill_chunk_without_gaps() {
        // Satellite regression: prefill work used to be invisible to
        // in_flight (and unchecked against shutdown), so drains could
        // report a shard quiesced mid-prefill. Now every chunk counts,
        // including across chunk hand-offs.
        let server =
            tiny_server(ServerConfig { prefill_chunk: 2, kv_capacity: 16, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let tokens = 7; // chunks of 2, 2, 2, 1
        let rx = server.submit_prefill(id, &token(90, hidden * tokens), tokens).unwrap();
        assert_eq!(server.in_flight(), 1, "prefill visible before any pump");
        // Every intermediate chunk leaves the successor in flight.
        for chunk in 0..4 {
            assert_eq!(server.in_flight(), 1, "no mid-prefill gap before chunk {chunk}");
            assert_eq!(server.pump(), 1);
        }
        assert_eq!(server.in_flight(), 0);
        assert_eq!(server.pump(), 0, "no chunks left");
        assert_eq!(rx.recv().unwrap().unwrap().len(), hidden * tokens);
        assert_eq!(server.stats().snapshot().prefill_chunks, 4);
    }

    #[test]
    fn shutdown_rejects_new_prefills_and_bounces_queued_chunks() {
        let mut server = tiny_server(ServerConfig { prefill_chunk: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let rx = server.submit_prefill(id, &token(91, hidden * 6), 6).unwrap();
        server.shutdown();
        // The queued first chunk was bounced through the job's channel…
        assert!(matches!(rx.recv().unwrap(), Err(ServeError::ShuttingDown)));
        assert_eq!(server.in_flight(), 0);
        // …and new prefills are rejected outright.
        assert!(matches!(
            server.submit_prefill(id, &token(92, hidden), 1),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn close_session_interlocks_with_the_checked_out_window() {
        // Satellite regression: a close racing the batch-execution window
        // used to get UnknownSession for a live session, and the window
        // then re-inserted the session as an untracked zombie. The
        // CheckedOut marker makes the close wait for the window and free
        // the session at check-in.
        let server = Arc::new(tiny_server(ServerConfig {
            prefill_chunk: 64,
            kv_capacity: 64,
            ..Default::default()
        }));
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        // A single 48-token chunk: a long execution window.
        let _rx = server.submit_prefill(id, &token(93, hidden * 48), 48).unwrap();
        std::thread::scope(|scope| {
            let pumper = {
                let server = Arc::clone(&server);
                scope.spawn(move || server.pump())
            };
            // Wait for the checked-out window itself (not merely for the
            // collect: a close landing between collect and checkout would
            // take the plain Live path and test nothing).
            while !matches!(server.inner.sessions.lock().get(&id), Some(Slot::CheckedOut { .. })) {
                std::hint::spin_loop();
            }
            // Close mid-window: must succeed (waiting for the window),
            // never report a live session as unknown.
            let generated = server.close_session(id).unwrap();
            assert_eq!(generated, 0, "prefill decodes no tokens");
            assert_eq!(pumper.join().unwrap(), 1);
        });
        assert_eq!(server.session_count(), 0, "no zombie session survives the race");
        assert!(matches!(server.close_session(id), Err(ServeError::UnknownSession(_))));
        // The freed id is really gone from the table: new work bounces.
        assert!(matches!(
            server.submit_prefill(id, &token(94, hidden), 1),
            Err(ServeError::UnknownSession(_))
        ));
    }

    #[test]
    fn close_session_mid_multi_chunk_prefill_frees_the_session_and_aborts_the_job() {
        // Closing between chunks of a longer prefill: the close wins, the
        // session's KV cache is freed, and the orphaned continuation chunk
        // errors through the prefill's completion channel instead of
        // resurrecting the session.
        let server =
            tiny_server(ServerConfig { prefill_chunk: 2, kv_capacity: 16, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let rx = server.submit_prefill(id, &token(95, hidden * 6), 6).unwrap();
        assert_eq!(server.pump(), 1, "first chunk executes");
        assert_eq!(server.close_session(id).unwrap(), 0, "close between chunks succeeds");
        assert_eq!(server.session_count(), 0);
        // The continuation chunk finds the session gone and aborts the job.
        assert_eq!(server.pump(), 0);
        assert!(matches!(rx.recv().unwrap(), Err(ServeError::UnknownSession(_))));
        assert_eq!(server.in_flight(), 0, "aborted chunk retired its in-flight count");
    }

    #[test]
    fn backpressure_surfaces_to_submitter() {
        let server = tiny_server(ServerConfig { queue_capacity: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let x = token(3, hidden);
        let _r1 = server.submit_step(id, &x).unwrap();
        let _r2 = server.submit_step(id, &x).unwrap();
        assert!(matches!(server.submit_step(id, &x), Err(ServeError::Backpressure { tenant: 0 })));
        assert_eq!(server.stats().snapshot().rejected_backpressure, 1);
        // Prefills ride the same bounded rings: a full ring bounces them
        // too (and releases their in-flight count).
        let before = server.in_flight();
        assert!(matches!(
            server.submit_prefill(id, &x, 1),
            Err(ServeError::Backpressure { tenant: 0 })
        ));
        assert_eq!(server.in_flight(), before);
    }

    #[test]
    fn kv_exhaustion_is_an_error_not_a_crash() {
        let server = tiny_server(ServerConfig { kv_capacity: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let _ = server.prefill(id, &token(4, hidden * 2), 2).unwrap();
        // Prefill beyond capacity rejected up front.
        assert!(matches!(
            server.prefill(id, &token(5, hidden), 1),
            Err(ServeError::KvExhausted { context: 2, capacity: 2 })
        ));
        // A queued step on a full session errors through the reply channel.
        let rx = server.submit_step(id, &token(6, hidden)).unwrap();
        server.pump();
        assert!(matches!(rx.recv().unwrap(), Err(ServeError::KvExhausted { .. })));
        // The session survives for inspection/closing.
        assert_eq!(server.close_session(id).unwrap(), 0);
    }

    #[test]
    fn bad_input_length_is_rejected() {
        let server = tiny_server(ServerConfig::default());
        let id = server.create_session(0).unwrap();
        assert!(matches!(server.submit_step(id, &[1.0, 2.0]), Err(ServeError::BadInput { .. })));
        assert!(matches!(server.prefill(id, &[1.0], 1), Err(ServeError::BadInput { .. })));
    }

    #[test]
    fn background_batcher_serves_blocking_steps() {
        let mut server = tiny_server(ServerConfig { tenants: 2, ..Default::default() });
        server.start();
        let hidden = server.model().config().hidden;
        let ids: Vec<SessionId> = (0..4).map(|s| server.create_session(s % 2).unwrap()).collect();
        std::thread::scope(|scope| {
            for (s, &id) in ids.iter().enumerate() {
                let server = &server;
                scope.spawn(move || {
                    let x = token(900 + s as u64, hidden);
                    for _ in 0..3 {
                        let y = server.step(id, &x).unwrap();
                        assert_eq!(y.len(), hidden);
                    }
                });
            }
        });
        server.shutdown();
        let snap = server.stats().snapshot();
        assert_eq!(snap.completed, 12);
        assert!(matches!(
            server.submit_step(ids[0], &token(1, hidden)),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn max_batch_zero_is_clamped_to_one() {
        // Unclamped, `collect(0)` returns nothing: accepted steps never
        // run and `shutdown` never sees the queue drain.
        let mut server = tiny_server(ServerConfig { max_batch: 0, ..Default::default() });
        assert_eq!(server.config().max_batch, 1);
        server.start();
        let id = server.create_session(0).unwrap();
        let x = token(7, server.model().config().hidden);
        let rx = server.submit_step(id, &x).unwrap();
        let y = rx.recv_timeout(Duration::from_secs(30)).expect("the step never ran");
        assert_eq!(y.unwrap().len(), x.len());
        server.shutdown();
    }

    fn median(mut v: Vec<Duration>) -> Duration {
        v.sort();
        v[v.len() / 2]
    }

    #[test]
    fn idle_batcher_wakes_on_submit_not_on_a_timer() {
        // One closed-loop session: every submit finds the batcher idle.
        // A batcher that polls on a timer adds its period (1 ms before
        // the park/unpark wake) to every step; an unparked one adds a
        // thread wake-up. Compared against the same steps hand-pumped on
        // the calling thread, so a slow build moves both sides.
        let cfg = ServerConfig { kv_capacity: 1024, ..Default::default() };
        let time_steps = |server: &Server, started: bool| {
            let hidden = server.model().config().hidden;
            let id = server.create_session(0).unwrap();
            let mut x = token(31, hidden);
            let mut took = Vec::with_capacity(500);
            for _ in 0..500 {
                let t0 = Instant::now();
                let rx = server.submit_step(id, &x).unwrap();
                if !started {
                    assert_eq!(server.pump(), 1);
                }
                x = rx.recv().unwrap().unwrap();
                took.push(t0.elapsed());
            }
            median(took)
        };
        let manual = time_steps(&tiny_server(cfg.clone()), false);
        let mut server = tiny_server(cfg);
        server.start();
        let served = time_steps(&server, true);
        server.shutdown();
        assert!(
            served < manual + Duration::from_micros(500),
            "median step {served:?} through an idle batcher vs {manual:?} hand-pumped"
        );
    }

    #[test]
    fn shutdown_of_an_idle_started_server_does_not_wait_out_the_park() {
        let took: Vec<Duration> = (0..5)
            .map(|_| {
                let mut server = tiny_server(ServerConfig::default());
                server.start();
                // Let the batcher find the rings empty and park.
                std::thread::sleep(Duration::from_millis(2));
                let t0 = Instant::now();
                server.shutdown();
                t0.elapsed()
            })
            .collect();
        let m = median(took);
        assert!(m < IDLE_PARK / 2, "shutdown took {m:?} of a {IDLE_PARK:?} park");
    }

    #[test]
    fn warm_tuning_covers_every_batch_width_and_the_prompt_ladder() {
        let server = tiny_server(ServerConfig { kv_capacity: 16, ..Default::default() });
        let problems = server.gemm_problems();
        // Every width 1..=max_batch (8) plus the kv-capacity rung (16) x
        // the three per-layer GEMMs: a batch runs its projections at
        // whatever ragged width was pending, so all of them are warmed.
        assert_eq!(problems.len(), 27);
        for n in (1..=8).chain([16]) {
            assert!(problems.iter().any(|p| p.n == n), "width {n} warmed");
        }
        // Warm count = distinct (m, n, k), once under the gemm keys and
        // once under the spmm keys (the SpMM warm-up rides the same
        // geometry).
        let distinct: std::collections::BTreeSet<(usize, usize, usize)> =
            problems.iter().map(|p| (p.m, p.n, p.k)).collect();
        let tuned = server.warm_tuning(&Platform::zen4(), 4);
        assert_eq!(tuned, 2 * distinct.len());
        assert_eq!(server.tuning_db().len(), 2 * distinct.len());
        // The warmed snapshot is live in the kernel-selection registry —
        // and the spmm keys now *hit* instead of falling through.
        assert!(pl_dnn::tuning::is_installed());
        let p = &problems[0];
        let shape = pl_kernels::GemmShape::with_default_blocks(p.m, p.n, p.k);
        assert!(
            pl_dnn::tuning::lookup_spmm(&shape).is_some(),
            "spmm lookup must hit after warm_tuning"
        );
        // Idempotent.
        assert_eq!(server.warm_tuning(&Platform::zen4(), 4), 0);
    }

    #[test]
    fn batched_pump_matches_unbatched_bitwise_and_records_shapes() {
        for precision in [Precision::F32, Precision::Int8] {
            let model = Arc::new(DecoderModel::new_with_precision(
                DecoderConfig::scaled_for_tests(),
                77,
                precision,
            ));
            let server = Server::new(
                Arc::clone(&model),
                Arc::new(ThreadPool::new(4)),
                ServerConfig::default(),
            );
            let cfg = *model.config();
            let (h, f) = (cfg.hidden, cfg.ffn);
            let n = 4;
            let xs: Vec<Vec<f32>> = (0..n).map(|s| token(700 + s as u64, h)).collect();
            let ids: Vec<SessionId> = (0..n).map(|_| server.create_session(0).unwrap()).collect();
            let rxs: Vec<_> =
                ids.iter().zip(&xs).map(|(&id, x)| server.submit_step(id, x).unwrap()).collect();
            assert_eq!(server.pump(), n);
            let pool = ThreadPool::new(2);
            for (s, (rx, x)) in rxs.into_iter().zip(&xs).enumerate() {
                let want = model.forward(&mut model.new_state(8), x, 1, &pool);
                assert_eq!(rx.recv().unwrap().unwrap(), want, "{precision:?} session {s}");
            }
            let layers = cfg.layers as u64;
            assert_eq!(
                server.stats().snapshot().gemm_shapes,
                vec![((h, n, h), 4 * layers), ((h, n, f), layers), ((f, n, h), layers)],
                "the hidden x B GEMM executions are observable"
            );
        }
    }

    /// `pool.region` spans begun on the calling thread since `since_ns`
    /// (other tests of this binary trace concurrently, on other lanes).
    fn regions_on_this_thread(since_ns: u64, marker: u64) -> usize {
        pl_trace::instant("test.lane_marker", [marker, 0, 0]);
        let events = pl_trace::snapshot_since(since_ns);
        let lane = events
            .iter()
            .find(|e| e.name == "test.lane_marker" && e.args[0] == marker)
            .expect("marker recorded")
            .lane;
        events
            .iter()
            .filter(|e| {
                e.lane == lane && e.name == "pool.region" && e.kind == pl_trace::EventKind::Begin
            })
            .count()
    }

    #[test]
    fn mixed_batch_is_one_region_shares_its_gemms_and_is_bitwise() {
        // Decode lanes *and* a prefill chunk in one batch: one parallel
        // region whatever the layer count, projections at the summed
        // width (3 lanes + 4 chunk tokens = 7), every item bit-identical
        // to running alone.
        pl_trace::enable();
        for (layers, marker) in [(2usize, 0x51u64), (5, 0x52)] {
            let cfg = DecoderConfig { layers, ..DecoderConfig::scaled_for_tests() };
            let model = Arc::new(DecoderModel::new(cfg, 77));
            let server = Server::new(
                Arc::clone(&model),
                Arc::new(ThreadPool::new(4)),
                ServerConfig { prefill_chunk: 4, kv_capacity: 32, ..Default::default() },
            );
            let hidden = cfg.hidden;
            let decode_ids: Vec<SessionId> =
                (0..3).map(|_| server.create_session(0).unwrap()).collect();
            let prefill_id = server.create_session(0).unwrap();
            let xs: Vec<Vec<f32>> = (0..3).map(|s| token(30 + s as u64, hidden)).collect();
            let rxs: Vec<_> = decode_ids
                .iter()
                .zip(&xs)
                .map(|(&id, x)| server.submit_step(id, x).unwrap())
                .collect();
            let prompt = token(40, hidden * 8);
            let prx = server.submit_prefill(prefill_id, &prompt, 8).unwrap();
            let t0 = pl_trace::now_ns();
            assert_eq!(server.pump(), 4, "3 decode lanes + 1 chunk in one batch");
            assert_eq!(regions_on_this_thread(t0, marker), 1, "{layers} layers, one region");
            assert_eq!(server.pump(), 1, "continuation chunk");
            let pool = ThreadPool::new(2);
            for (rx, x) in rxs.into_iter().zip(&xs) {
                let want = model.forward(&mut model.new_state(32), x, 1, &pool);
                assert_eq!(rx.recv().unwrap().unwrap(), want);
            }
            let whole = model.forward(&mut model.new_state(32), &prompt, 8, &pool);
            assert_eq!(prx.recv().unwrap().unwrap(), whole);
            let snap = server.stats().snapshot();
            assert_eq!(snap.mixed_batches, 1);
            assert_eq!(snap.prefill_chunks, 2);
            let widths: Vec<usize> = snap.gemm_shapes.iter().map(|&((_, n, _), _)| n).collect();
            assert!(
                widths.iter().all(|&n| n == 7 || n == 4) && widths.contains(&7),
                "lanes and chunk share GEMMs at the summed width: {:?}",
                snap.gemm_shapes
            );
        }
    }

    #[test]
    fn panic_inside_the_region_fails_the_batch_not_the_pump() {
        // A bounded pool that holds exactly one 4-token context: the 5th
        // token's page allocation panics inside the attention phase,
        // between two team barriers. The pump must come back, fail that
        // batch's request, close its session (KV half-appended) and keep
        // serving.
        let server = tiny_server(ServerConfig {
            kv_page_tokens: 2,
            kv_pool_pages: 2 * DecoderConfig::scaled_for_tests().layers,
            kv_capacity: 16,
            share_prefix: false,
            ..Default::default()
        });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let y = server.prefill(id, &token(4, hidden * 4), 4).unwrap();
        let rx = server.submit_step(id, &y[3 * hidden..]).unwrap();
        assert_eq!(server.pump(), 0, "the failed batch executed nothing");
        match rx.recv().unwrap() {
            Err(ServeError::BatchFailed { reason }) => {
                assert!(reason.contains("KV page pool exhausted"), "{reason}")
            }
            other => panic!("expected BatchFailed, got {other:?}"),
        }
        assert_eq!(server.in_flight(), 0);
        // The failed step is accounted for: every accepted step is
        // completed, failed or still in flight.
        let snap = server.stats().snapshot();
        assert_eq!((snap.submitted, snap.completed, snap.failed), (1, 0, 1));
        assert_eq!(snap.submitted, snap.completed + snap.failed + server.in_flight() as u64);
        assert_eq!(server.session_count(), 0, "the session is gone with its pages");
        assert!(matches!(server.close_session(id), Err(ServeError::UnknownSession(_))));
        // The freed pages serve the next tenant.
        let id2 = server.create_session(0).unwrap();
        server.prefill(id2, &token(5, hidden * 3), 3).unwrap();
        assert_eq!(server.close_session(id2).unwrap(), 0);
    }

    #[test]
    fn prefill_chunk_is_a_live_knob() {
        let server =
            tiny_server(ServerConfig { prefill_chunk: 4, kv_capacity: 32, ..Default::default() });
        assert_eq!(server.prefill_chunk(), 4);
        server.set_prefill_chunk(8);
        assert_eq!(server.prefill_chunk(), 8);
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let rx = server.submit_prefill(id, &token(77, hidden * 8), 8).unwrap();
        assert_eq!(server.pump(), 1, "8 tokens fit a single 8-token chunk");
        assert_eq!(server.in_flight(), 0);
        rx.recv().unwrap().unwrap();
        assert_eq!(server.stats().snapshot().prefill_chunks, 1);
        server.set_prefill_chunk(0);
        assert_eq!(server.prefill_chunk(), 1, "chunk size clamps to at least one token");
    }

    #[test]
    fn hot_gemm_problems_harvests_the_ragged_width_histogram() {
        let server = tiny_server(ServerConfig::default());
        assert!(server.hot_gemm_problems().is_empty(), "no traffic, no hot shapes");
        let hidden = server.model().config().hidden;
        let n = 3;
        let ids: Vec<SessionId> = (0..n).map(|_| server.create_session(0).unwrap()).collect();
        let rxs: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(s, &id)| server.submit_step(id, &token(60 + s as u64, hidden)).unwrap())
            .collect();
        assert_eq!(server.pump(), n);
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
        let hot = server.hot_gemm_problems();
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|(p, _)| p.n == n), "the harvest carries the batch width");
        assert!(hot.iter().all(|(p, _)| p.bn == 3), "with the blocking the plans run at");
        assert!(hot.windows(2).all(|w| w[0].1 >= w[1].1), "sorted hottest-first");
        // The 4-per-layer hidden x hidden shape outweighs the FFN shapes.
        let layers = server.model().config().layers as u64;
        assert_eq!(hot[0].1, 4 * layers);
    }

    #[test]
    fn watchdog_detects_stalled_pump_but_never_fires_idle() {
        // A huge SLO target isolates the watchdog: the deliberate stall
        // below would otherwise also blow the burn rate and the test
        // could not tell Stalled from Degraded recovery.
        let server = tiny_server(ServerConfig {
            slo_p99_us: 60_000_000,
            watchdog_deadline: Duration::from_millis(50),
            ..Default::default()
        });
        // Idle-but-empty: nothing pending, so no amount of inactivity
        // counts as a stall.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(server.health(), Health::Healthy, "idle server must not stall");
        // Deliberately stall a manual pump: submit a step, never pump.
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let rx = server.submit_step(id, &token(9, hidden)).unwrap();
        assert_eq!(server.health(), Health::Healthy, "first pending observation arms");
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(server.health(), Health::Stalled, "pending work, no batch for the deadline");
        // Progress clears the stall: one pump retires the backlog.
        assert_eq!(server.pump(), 1);
        rx.recv().unwrap().unwrap();
        assert_eq!(server.health(), Health::Healthy, "progress + empty queue recovers");
    }

    #[test]
    fn stats_view_equals_its_recomputation_from_the_registry() {
        let server = tiny_server(ServerConfig {
            tenants: 2,
            max_sessions: 2,
            queue_capacity: 2,
            prefill_chunk: 4,
            ..Default::default()
        });
        let hidden = server.model().config().hidden;
        let a = server.create_session(0).unwrap();
        let b = server.create_session(1).unwrap();
        assert!(matches!(server.create_session(1), Err(ServeError::TooManySessions { .. })));
        // Tenant 0: two steps fill the ring, the third bounces.
        let rx0 = server.submit_step(a, &token(1, hidden)).unwrap();
        let rx1 = server.submit_step(a, &token(2, hidden)).unwrap();
        assert!(matches!(
            server.submit_step(a, &token(3, hidden)),
            Err(ServeError::Backpressure { tenant: 0 })
        ));
        while server.pump() > 0 {}
        rx0.recv().unwrap().unwrap();
        rx1.recv().unwrap().unwrap();
        // Tenant 1: an 8-token prompt through 4-token chunks = 2 chunks,
        // the first sharing its batch with a tenant-0 decode lane.
        let rxp = server.submit_prefill(b, &token(4, hidden * 8), 8).unwrap();
        let rx2 = server.submit_step(a, &token(5, hidden)).unwrap();
        while server.pump() > 0 {}
        rxp.recv().unwrap().unwrap();
        rx2.recv().unwrap().unwrap();

        let m = server.metrics_snapshot();
        let per_tenant =
            |name: &str| [0, 1].map(|t| m.counter_value(name, &[("tenant", &t.to_string())]));
        assert_eq!(per_tenant("pl_steps_submitted_total"), [3, 0]);
        assert_eq!(per_tenant("pl_steps_total"), [3, 0]);
        assert_eq!(per_tenant("pl_steps_failed_total"), [0, 0]);
        assert_eq!(per_tenant("pl_prefill_chunks_total"), [0, 2]);
        assert_eq!(per_tenant("pl_prefills_total"), [0, 1]);
        assert_eq!(per_tenant("pl_rejected_backpressure_total"), [1, 0]);
        assert_eq!(per_tenant("pl_rejected_sessions_total"), [0, 1]);
        assert_eq!(m.gauge_value("pl_sessions_live", &[]), Some(2.0));
        assert_eq!(m.gauge_value("pl_pending", &[]), Some(0.0));
        // SLO windows are per-tenant too: tenant 0 saw the traffic.
        assert_eq!(server.tenant_slo(0).unwrap().observations(), 3);
        assert_eq!(server.tenant_slo(1).unwrap().observations(), 0);
        assert!(server.tenant_slo(2).is_none());

        // Every field of the typed view, recomputed by hand from the
        // exported series.
        let view = StatsSnapshot::from_metrics(&m);
        let total = |name: &str| per_tenant(name).iter().sum::<u64>();
        let hist = |name: &str| {
            let mut h = pl_metrics::HistogramSnapshot::default();
            for t in ["0", "1"] {
                h.merge(m.histogram_series(name, &[("tenant", t)]).unwrap());
            }
            h
        };
        let sizes: Vec<(usize, u64)> = (1..=server.config().max_batch)
            .map(|n| (n, m.counter_value("pl_batch_size_total", &[("size", &n.to_string())])))
            .filter(|&(_, count)| count > 0)
            .collect();
        let cfg = server.model().config();
        let (h, f) = (cfg.hidden.to_string(), cfg.ffn.to_string());
        let gemms = |mm: &str, n: usize, k: &str| {
            m.counter_value("pl_gemm_total", &[("m", mm), ("n", &n.to_string()), ("k", k)])
        };
        let batches = m.counter_value("pl_batches_total", &[]);
        let lanes: u64 = sizes.iter().map(|&(n, count)| n as u64 * count).sum();
        let (step, qw, ex, ch) = (
            hist("pl_step_latency_us"),
            hist("pl_queue_wait_us"),
            hist("pl_execute_us"),
            hist("pl_prefill_chunk_latency_us"),
        );
        assert_eq!((step.count, qw.count, ex.count, ch.count), (3, 3, 3, 2));
        let elapsed_s = m.gauge_value("pl_uptime_seconds", &[]).unwrap();
        let want = StatsSnapshot {
            elapsed_s,
            submitted: total("pl_steps_submitted_total"),
            completed: total("pl_steps_total"),
            failed: 0,
            rejected_backpressure: 1,
            rejected_sessions: 1,
            batches,
            decode_batches: m.counter_value("pl_decode_batches_total", &[]),
            prefills: 1,
            prefill_chunks: 2,
            prefill_tokens: 8,
            prefix_hit_tokens: 0,
            mixed_batches: m.counter_value("pl_mixed_batches_total", &[]),
            gemm_shapes: view
                .gemm_shapes
                .iter()
                .map(|&((mm, n, k), _)| ((mm, n, k), gemms(&mm.to_string(), n, &k.to_string())))
                .collect(),
            tokens_per_s: 3.0 / elapsed_s,
            mean_batch: lanes as f64 / batches as f64,
            max_batch_observed: sizes.last().unwrap().0,
            batch_distribution: sizes,
            p50_us: step.quantile(0.50),
            p99_us: step.quantile(0.99),
            mean_us: step.sum as f64 / 3.0,
            queue_wait_p50_us: qw.quantile(0.50),
            queue_wait_p99_us: qw.quantile(0.99),
            execute_p50_us: ex.quantile(0.50),
            execute_p99_us: ex.quantile(0.99),
            chunk_p50_us: ch.quantile(0.50),
            chunk_p99_us: ch.quantile(0.99),
        };
        assert_eq!(view, want);
        // Batches: [a, a] deferred into two singles, then chunk+lane,
        // then the lone second chunk.
        assert_eq!((view.batches, view.decode_batches, view.mixed_batches), (4, 3, 1));
        assert_eq!(view.batch_distribution, vec![(1, 3), (2, 1)]);
        // Widths 1 (twice), 5 (chunk + lane) and 4 (lone chunk): per
        // layer, 4 h x h GEMMs and one of each FFN shape at each.
        let l = cfg.layers as u64;
        assert_eq!(gemms(&h, 1, &h), 2 * 4 * l);
        assert_eq!((gemms(&f, 5, &h), gemms(&h, 4, &f)), (l, l));
        assert_eq!(view.gemm_shapes.len(), 9);
        // The handle-side read is the same fold, without the liveness
        // gauges `metrics_snapshot` samples.
        let own = server.stats().snapshot();
        assert_eq!(StatsSnapshot { elapsed_s, tokens_per_s: want.tokens_per_s, ..own }, view);
    }

    #[test]
    fn prometheus_exposition_is_conformant() {
        let server = tiny_server(ServerConfig { tenants: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        for t in 0..2 {
            let id = server.create_session(t).unwrap();
            let rx = server.submit_step(id, &token(20 + t as u64, hidden)).unwrap();
            while server.pump() > 0 {}
            rx.recv().unwrap().unwrap();
        }
        let text = pl_metrics::render_prometheus(&server.metrics_snapshot());
        // The in-repo conformance parser: family/type/label/bucket
        // well-formedness, monotone cumulative buckets, no orphan TYPEs.
        let report = pl_metrics::parse_prometheus(&text)
            .unwrap_or_else(|e| panic!("non-conformant exposition: {e}\n{text}"));
        for fam in [
            "pl_steps_total",
            "pl_prefill_chunks_total",
            "pl_rejected_backpressure_total",
            "pl_queue_wait_us",
            "pl_execute_us",
            "pl_batches_total",
            "pl_slo_burn_rate",
            "pl_sessions_live",
            "pl_pending",
            "pl_in_flight",
            "pl_shard_health",
            "pl_kv_pages_free",
            "pl_kv_pages_shared",
            "pl_kv_sessions_spilled",
            "pl_migrations_total",
        ] {
            assert!(report.families.contains_key(fam), "family {fam} missing from exposition");
        }
        assert!(report.histogram_series >= 4, "2 tenants x 2 latency histograms");
        assert!(text.contains("pl_steps_total{tenant=\"0\"} 1"));
        assert!(text.contains("pl_queue_wait_us_bucket{"));
        assert!(text.contains("le=\"+Inf\""));
    }

    #[test]
    fn prefix_sharing_across_sessions_dedups_pages_and_stays_bitwise() {
        // Two sessions prefill the same 6-token prompt over 4-token pages
        // (one full + one partial page per layer). The second session must
        // adopt the first's cached full page — its only marginal resident
        // page per layer is its private partial tail — and each stream's
        // divergent decode step appends into that tail in place (nothing
        // to COW-split) without perturbing either output.
        let server =
            tiny_server(ServerConfig { kv_page_tokens: 4, kv_capacity: 32, ..Default::default() });
        let hidden = server.model().config().hidden;
        let tokens = 6;
        let prompt = token(91, hidden * tokens);
        let a = server.create_session(0).unwrap();
        let ya = server.prefill(a, &prompt, tokens).unwrap();
        let resident = server.kv_pool().allocated_pages();
        assert!(resident > 0);
        let b = server.create_session(0).unwrap();
        let yb = server.prefill(b, &prompt, tokens).unwrap();
        assert_eq!(ya, yb, "identical prompts must produce identical outputs");
        let layers = server.model().config().layers;
        assert_eq!(
            server.kv_pool().allocated_pages(),
            resident + layers,
            "second session must adopt the cached full page and keep only its tail"
        );
        assert!(server.prefix_cache().shared_pages() > 0);
        let xa = token(92, hidden);
        let xb = token(93, hidden);
        for (id, x) in [(a, &xa), (b, &xb)] {
            let rx = server.submit_step(id, x).unwrap();
            while server.pump() > 0 {}
            let got = rx.recv().unwrap().unwrap();
            let pool = ThreadPool::new(2);
            let mut st = server.model().new_state(32);
            let _ = server.model().forward(&mut st, &prompt, tokens, &pool);
            let want = server.model().forward(&mut st, x, 1, &pool);
            assert_eq!(got, want, "decode after sharing must stay bit-identical");
        }
        assert_eq!(server.kv_pool().cow_splits(), 0, "private tail pages never need a split");
        let snap = server.metrics_snapshot();
        assert!(snap.gauge_value("pl_kv_pages_shared", &[]).unwrap() > 0.0);
    }

    #[test]
    fn idle_spill_returns_pages_and_restores_bitwise_on_next_step() {
        let server = tiny_server(ServerConfig {
            kv_page_tokens: 4,
            kv_capacity: 32,
            share_prefix: false,
            ..Default::default()
        });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let prompt = token(95, hidden * 5);
        let _ = server.prefill(id, &prompt, 5).unwrap();
        assert!(server.kv_pool().allocated_pages() > 0);
        // Nothing is idle at a generous threshold; everything is at zero.
        assert_eq!(server.spill_idle(Duration::from_secs(3600)), 0);
        assert_eq!(server.spill_idle(Duration::ZERO), 1);
        assert_eq!(server.spilled_sessions(), 1);
        assert_eq!(server.kv_pool().allocated_pages(), 0, "spill must return every page");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.gauge_value("pl_kv_sessions_spilled", &[]), Some(1.0));
        assert!(snap.gauge_value("pl_kv_pages_free", &[]).unwrap() > 0.0);
        // The next step transparently restores and stays bit-identical.
        let x = token(96, hidden);
        let rx = server.submit_step(id, &x).unwrap();
        while server.pump() > 0 {}
        let got = rx.recv().unwrap().unwrap();
        assert_eq!(server.spilled_sessions(), 0);
        let pool = ThreadPool::new(2);
        let mut st = server.model().new_state(32);
        let _ = server.model().forward(&mut st, &prompt, 5, &pool);
        let want = server.model().forward(&mut st, &x, 1, &pool);
        assert_eq!(got, want, "restore-from-spill must be bit-identical");
    }

    #[test]
    fn export_import_migrates_a_session_bit_identically() {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 77));
        let pool = Arc::new(ThreadPool::new(4));
        let cfg = ServerConfig::default();
        let src = Server::new(Arc::clone(&model), Arc::clone(&pool), cfg.clone());
        // The destination even uses a different page geometry: the dense
        // snapshot is page-layout-independent.
        let dst = Server::new(
            Arc::clone(&model),
            pool,
            ServerConfig { kv_page_tokens: 8, ..cfg.clone() },
        );
        let hidden = model.config().hidden;
        let id = src.create_session(0).unwrap();
        let prompt = token(70, hidden * 4);
        let _ = src.prefill(id, &prompt, 4).unwrap();
        let mut xs = Vec::new();
        for s in 0..3u64 {
            let x = token(71 + s, hidden);
            let rx = src.submit_step(id, &x).unwrap();
            while src.pump() > 0 {}
            rx.recv().unwrap().unwrap();
            xs.push(x);
        }
        let export = src.export_session(id).unwrap();
        assert_eq!(export.generated, 3);
        assert_eq!(src.session_count(), 0);
        assert!(matches!(src.submit_step(id, &xs[0]), Err(ServeError::UnknownSession(_))));
        let new_id = dst.import_session(&export).unwrap();
        assert_eq!(dst.session_count(), 1);
        let mut got = Vec::new();
        for s in 0..3u64 {
            let x = token(81 + s, hidden);
            let rx = dst.submit_step(new_id, &x).unwrap();
            while dst.pump() > 0 {}
            got.push(rx.recv().unwrap().unwrap());
            xs.push(x);
        }
        // Baseline: the uninterrupted stream on one decoder.
        let tpool = ThreadPool::new(2);
        let mut st = model.new_state(cfg.kv_capacity);
        let _ = model.forward(&mut st, &prompt, 4, &tpool);
        let want: Vec<Vec<f32>> = xs.iter().map(|x| model.forward(&mut st, x, 1, &tpool)).collect();
        assert_eq!(&got[..], &want[3..], "migrated continuation must be bit-identical");
        assert_eq!(dst.close_session(new_id).unwrap(), 6, "generated count carries the move");
        let snap = dst.metrics_snapshot();
        assert_eq!(snap.counter_value("pl_migrations_total", &[]), 1);
    }

    #[test]
    fn max_queued_tokens_applies_backpressure_through_the_config() {
        let server = tiny_server(ServerConfig { max_queued_tokens: 1, ..Default::default() });
        let hidden = server.model().config().hidden;
        let a = server.create_session(0).unwrap();
        let b = server.create_session(0).unwrap();
        let rx = server.submit_step(a, &token(1, hidden)).unwrap();
        // The 1-token budget is spent: the next step bounces even though
        // the ring has plenty of room.
        assert!(matches!(
            server.submit_step(b, &token(2, hidden)),
            Err(ServeError::Backpressure { tenant: 0 })
        ));
        assert_eq!(server.stats().snapshot().rejected_backpressure, 1);
        while server.pump() > 0 {}
        rx.recv().unwrap().unwrap();
        // Executed work released its budget; admission resumes.
        let rx = server.submit_step(b, &token(3, hidden)).unwrap();
        while server.pump() > 0 {}
        rx.recv().unwrap().unwrap();
    }
}
