//! The serving runtime: the batch execution path, reply delivery, and the
//! blocking client API over the session table (`batcher.rs`), which
//! decides admission, program order and checkout.
//!
//! ## Continuous batching
//!
//! Decode steps and **prefill chunks** wait in the same per-session FIFOs
//! and ride the same batches. A prompt submitted via
//! [`Server::submit_prefill`] is split into bounded,
//! power-of-two-ladder-aligned chunks ([`pl_dnn::prefill_chunk_widths`]
//! under [`ServerConfig::prefill_chunk`]) and admitted one chunk at a
//! time: each batch packs **at most one** prefill chunk next to its decode
//! lanes, and a chunk's successor is queued only after it executed. A
//! 2048-token prompt therefore interleaves with live decode traffic —
//! decode steps complete between (and alongside) its chunks — instead of
//! monopolizing the pool for the whole forward, and every chunk is visible
//! to [`Server::in_flight`], so a graceful close and shutdown observe
//! prefill work exactly like decode work.
//! The blocking [`Server::prefill`] is a wrapper over this path; a prompt
//! that fits in one chunk executes as a single forward and stays
//! **bit-identical** to the pre-chunking inline prefill.
//!
//! ## The checked-out-session interlock
//!
//! Executing a batch *checks sessions out* of the table so the parallel
//! region holds no lock while computing. A checked-out session keeps its
//! slot: concurrent submitters still queue work for it, and — the part
//! that closes a real race — a concurrent [`Server::close_session`] does
//! not get `UnknownSession` for a live session. The close instead parks a
//! completion channel in the slot and waits; when the executing batch
//! checks the session back in it sees the parked closer, frees the session
//! (KV cache and all) and hands over the generated-token count. Without
//! this interlock, a close racing the execution window failed spuriously and
//! the batch then re-inserted the session as an untracked zombie.

use crate::batcher::{Batch, ChunkItem, Close, Refused, SessionTable, StepRequest, WorkItem};
use crate::prefill::PrefillJob;
use crate::registry::{MetricsRegistry, MetricsSnapshot};
use crate::session::{Session, SessionId, TenantId};
use crate::stats::ServerStats;
use crate::{ServeError, StepResult};
use pl_dnn::{
    DecoderModel, DecoderState, KvPagePool, KvSnapshot, PrefixCache, PrefixHit, DEFAULT_PAGE_TOKENS,
};
use pl_runtime::ThreadPool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Serving runtime knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of tenants admitted.
    pub tenants: usize,
    /// Upper bound on a batch (clamped to at least 1).
    pub max_batch: usize,
    /// Per-tenant bound on queued work items (the backpressure bound;
    /// clamped to at least 1).
    pub queue_capacity: usize,
    /// Concurrent-session cap across all tenants.
    pub max_sessions: usize,
    /// KV capacity (tokens) given to every new session.
    pub kv_capacity: usize,
    /// Upper bound on a prefill chunk admitted through the batcher, in
    /// tokens (clamped to at least 1, normalized up to a power of two:
    /// see [`pl_dnn::prefill_chunk_widths`]). Prompts longer than this are
    /// split and interleave with decode traffic; prompts that fit execute
    /// as a single chunk, bit-identical to an unchunked forward.
    pub prefill_chunk: usize,
    /// Decode step latency objective (µs). Nothing reads it (placement is
    /// least-loaded and no objective gates it); the benchmark package
    /// still names it in its server config, and the next change to that
    /// package drops it.
    pub slo_p99_us: u64,
    /// Stall deadline. Nothing reads it; the benchmark package still
    /// names it in its server config, and the next change to that
    /// package drops it.
    pub watchdog_deadline: Duration,
    /// KV page size in tokens: the allocation granularity of the shard's
    /// shared [`KvPagePool`] every session's cache draws from. Paging is
    /// **bit-identical** to a contiguous cache — pages only change where
    /// KV rows live, never the arithmetic over them.
    pub kv_page_tokens: usize,
    /// Page budget for the shard's KV pool (`0` = unbounded). A bounded
    /// pool makes KV memory a hard resource: size it to the working set
    /// (`max_sessions * ceil(kv_capacity / kv_page_tokens)` covers the
    /// worst case with no sharing; prefix sharing reduces the real
    /// demand).
    pub kv_pool_pages: usize,
    /// Keep completed prompts' pages in the shard's [`PrefixCache`] and
    /// look every new prompt up in it **before** its prefill is planned:
    /// a session opening with pages some earlier prompt already computed
    /// adopts their KV by reference, takes their cached outputs, and
    /// forwards only the tokens after them. On by default — a hit never
    /// changes outputs (position `t` depends on tokens `0..=t` only).
    /// `false` disables lookup and registration together.
    pub share_prefix: bool,
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
        }
    }
}

/// Longest the idle background batcher stays parked without a wake-up.
/// A submit and `shutdown` unpark it, so this only bounds how late it
/// notices work a concurrent manual `pump` checked back in.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Capacity of the shard prefix cache, in prompt pages (each pins one KV
/// page per layer); least-recently-hit leaf pages are evicted beyond this.
const PREFIX_CACHE_ENTRIES: usize = 64;

/// A serialized session: everything another shard needs to re-admit it
/// ([`Server::import_session`]) and continue decoding **bit-identically**
/// — the dense, page-layout-independent KV snapshot plus the decode
/// counters. Produced by [`Server::export_session`].
#[derive(Debug, Clone)]
pub struct SessionExport {
    /// Owning tenant — the importer admits the session under it.
    pub tenant: TenantId,
    /// Tokens decoded so far (carried so accounting survives the move).
    pub generated: u64,
    /// The dense KV snapshot.
    pub kv: KvSnapshot,
}

struct ServerInner {
    model: Arc<DecoderModel>,
    pool: Arc<ThreadPool>,
    cfg: ServerConfig,
    /// Every live session and its queued work (see `batcher.rs`).
    table: Mutex<SessionTable>,
    /// The one telemetry plane: the metrics registry and every
    /// pre-created recording handle into it.
    stats: ServerStats,
    /// Set once by [`Server::shutdown`]; read under the table lock by
    /// every admission, so no work is queued after the final drain.
    shutdown: AtomicBool,
    /// Whether a background batcher thread is driving [`Server::pump`] —
    /// the blocking wrappers pump on the calling thread when it is not.
    running: AtomicBool,
    /// Accepted work items (decode steps *and* prefill chunks) not yet
    /// retired — incremented in the critical section that queues an item,
    /// decremented at reply delivery ([`ServerInner::deliver`]); a
    /// non-final prefill chunk's unit is **carried over** to its
    /// successor (nothing is delivered for it), so accepted work is
    /// counted even while its batch holds the session checked out of the
    /// table and across chunk boundaries of one prefill. This is the
    /// quiescence signal a graceful close relies on.
    in_flight: AtomicU64,
    /// The shard's shared KV page pool: every session's cache is a page
    /// table over this ([`DecoderModel::new_state_in`]), so free and
    /// prefix-shared pages are shard-level facts.
    kv_pool: Arc<KvPagePool>,
    /// Completed prompts' pages, for later prompts to adopt.
    prefix: PrefixCache,
    /// The background batcher's thread, set by that thread before its
    /// first pump, so a submit and `shutdown` can unpark it.
    batcher_waker: OnceLock<Thread>,
    /// Set by [`ServerInner::wake_batcher`], cleared as a park ends.
    wake_requested: AtomicBool,
    /// How the background batcher's parks ended: `[timed out, woken]`,
    /// woken meaning a wake was requested before the park ended.
    park_ends: [AtomicU64; 2],
}

impl ServerInner {
    fn table(&self) -> MutexGuard<'_, SessionTable> {
        self.table.lock().expect("session table poisoned")
    }

    /// Delivers a reply and retires its in-flight count. Every accepted
    /// item's terminal reply must go through here exactly once.
    fn deliver(&self, reply: &mpsc::Sender<StepResult>, result: StepResult) {
        let _ = reply.send(result);
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    /// Answers queued work the table handed back; a decode step so
    /// answered is a failed step (`pl_steps_failed_total`).
    fn refuse(&self, refused: Vec<Refused>) {
        for Refused { tenant, item, err } in refused {
            if let WorkItem::Decode(_) = item {
                self.stats.tenants[tenant].failed.inc();
            }
            self.deliver(item.reply(), Err(err));
        }
    }

    /// Unparks the background batcher, if one runs. Called after work is
    /// queued: `park`'s token makes a wake-up that lands before the
    /// batcher parks cut that park short, so none is lost.
    fn wake_batcher(&self) {
        if let Some(batcher) = self.batcher_waker.get() {
            self.wake_requested.store(true, Ordering::SeqCst);
            batcher.unpark();
        }
    }
}

/// The multi-tenant batched serving runtime over one shared
/// [`DecoderModel`].
///
/// Lifecycle: [`Server::new`] → either [`Server::start`] (background
/// batcher thread; clients call the blocking [`Server::step`] /
/// [`Server::prefill`]) or manual [`Server::pump`] (tests,
/// single-threaded drivers). Any number of threads may submit to one
/// session, and pipeline several items on it: its work runs one item at
/// a time, in the order the submits were accepted.
pub struct Server {
    inner: Arc<ServerInner>,
    batcher_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// A server over `model`, executing on `pool`. The model owns the
    /// serving precision ([`DecoderModel::precision`]): kernel caches and
    /// trace spans are precision-scoped through its plans.
    pub fn new(model: Arc<DecoderModel>, pool: Arc<ThreadPool>, mut cfg: ServerConfig) -> Self {
        cfg.max_batch = cfg.max_batch.max(1);
        cfg.prefill_chunk = cfg.prefill_chunk.max(1);
        let page_tokens = cfg.kv_page_tokens.max(1);
        let kv_pool = if cfg.kv_pool_pages > 0 {
            KvPagePool::bounded(model.config().hidden, page_tokens, cfg.kv_pool_pages)
        } else {
            KvPagePool::new(model.config().hidden, page_tokens)
        };
        let inner = Arc::new(ServerInner {
            table: Mutex::new(SessionTable::new(cfg.tenants, cfg.queue_capacity, cfg.max_sessions)),
            prefix: PrefixCache::new(&kv_pool, PREFIX_CACHE_ENTRIES),
            kv_pool,
            batcher_waker: OnceLock::new(),
            wake_requested: AtomicBool::new(false),
            park_ends: Default::default(),
            stats: ServerStats::new(cfg.tenants, cfg.max_batch),
            model,
            pool,
            cfg,
            shutdown: AtomicBool::new(false),
            running: AtomicBool::new(false),
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
    /// [`crate::render_prometheus`].
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.stats.registry
    }

    /// Point-in-time metrics snapshot: samples the liveness gauges
    /// (sessions, queue depth, in-flight work, KV pages) and returns a
    /// copy of every series. Render with
    /// [`crate::render_prometheus`]; merge shard snapshots with
    /// [`MetricsSnapshot::merge`] after
    /// [`MetricsSnapshot::with_label`]-stamping them.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics();
        m.gauge("pl_sessions_live", &[]).set(self.session_count() as f64);
        m.gauge("pl_pending", &[]).set(self.pending() as f64);
        m.gauge("pl_in_flight", &[]).set(self.in_flight() as f64);
        m.gauge("pl_kv_pages_free", &[]).set(self.inner.kv_pool.free_pages() as f64);
        m.gauge("pl_kv_pages_shared", &[]).set(self.inner.prefix.shared_pages() as f64);
        self.inner.stats.registry_snapshot()
    }

    /// The shared model.
    pub fn model(&self) -> &Arc<DecoderModel> {
        &self.inner.model
    }

    /// Live session count.
    pub fn session_count(&self) -> usize {
        self.inner.table().len()
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Work items queued but not yet executed — decode steps and prefill
    /// chunks, across every session. This is the queue-depth signal a
    /// fronting router uses for least-loaded placement.
    pub fn pending(&self) -> usize {
        self.inner.table().pending()
    }

    /// Accepted work whose terminal reply has **not yet been delivered** —
    /// decode steps and prefill chunks, queued *or* executing inside a
    /// batch (where [`Server::pending`] no longer sees it). The counter
    /// moves at submit, at reply delivery, and across prefill chunk
    /// hand-offs (successor queued before the completed chunk retires),
    /// so there is no window where accepted work is invisible: this is the
    /// quiescence signal for a graceful close (`pending() == 0` alone
    /// races the batch-execution window).
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight.load(Ordering::Acquire) as usize
    }

    /// The prefill-chunk bound in tokens ([`ServerConfig::prefill_chunk`],
    /// clamped to ≥ 1).
    pub fn prefill_chunk(&self) -> usize {
        self.inner.cfg.prefill_chunk
    }

    /// Admits a new session for `tenant`. Rejects when the session cap is
    /// reached or the tenant id is out of range.
    pub fn create_session(&self, tenant: TenantId) -> Result<SessionId, ServeError> {
        let state = self.inner.model.new_state_in(&self.inner.kv_pool, self.inner.cfg.kv_capacity);
        self.admit(tenant, state, 0)
    }

    /// Session admission shared by [`Server::create_session`] and
    /// [`Server::import_session`].
    fn admit(
        &self,
        tenant: TenantId,
        state: DecoderState,
        generated: u64,
    ) -> Result<SessionId, ServeError> {
        let admitted = {
            let mut table = self.inner.table();
            if self.inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            table.insert(tenant, state, generated)
        };
        if let Err(ServeError::TooManySessions { .. }) = admitted {
            self.inner.stats.tenants[tenant].rejected_sessions.inc();
        }
        admitted
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

    /// Removes a live session and serializes it for re-admission
    /// elsewhere ([`Server::import_session`]). Fails with
    /// [`ServeError::SessionBusy`] while an executing batch holds the
    /// session checked out (retry — the window is one batch execution);
    /// callers should quiesce the shard first: work still queued for the
    /// session errors `UnknownSession`, exactly like work queued at a
    /// close.
    pub fn export_session(&self, id: SessionId) -> Result<SessionExport, ServeError> {
        let (sess, refused) = self.inner.table().take(id)?;
        self.inner.refuse(refused);
        Ok(SessionExport {
            tenant: sess.tenant,
            generated: sess.generated,
            kv: sess.state.snapshot(),
        })
    }

    /// Admits an exported session on this shard: the KV snapshot is
    /// rehydrated into this shard's page pool, then the same admission
    /// checks as [`Server::create_session`] apply — decoding continues
    /// bit-identically from where the source shard stopped. Returns the
    /// session's **new** id (ids are shard-local; the router rebinds its
    /// global id). Counts toward `pl_sessions_imported_total`. A snapshot
    /// of another model's geometry (a `KvSnapshot::from_bytes` off the
    /// wire is outside input) fails with [`ServeError::BadInput`] on its
    /// hidden width, then on its layer count, before anything is admitted.
    pub fn import_session(&self, export: &SessionExport) -> Result<SessionId, ServeError> {
        let cfg = self.inner.model.config();
        for (expected, got) in
            [(cfg.hidden, export.kv.hidden()), (cfg.layers, export.kv.layer_count())]
        {
            if got != expected {
                return Err(ServeError::BadInput { expected, got });
            }
        }
        let state = self.inner.model.state_from_snapshot(&self.inner.kv_pool, &export.kv).map_err(
            |_| ServeError::KvExhausted {
                context: export.kv.len(),
                capacity: export.kv.capacity(),
            },
        )?;
        let id = self.admit(export.tenant, state, export.generated)?;
        self.inner.stats.sessions_imported.inc();
        Ok(id)
    }

    /// Whether session `id` has no accepted work outstanding: it is
    /// resident (not checked out by an executing batch) with nothing
    /// queued. What a graceful close waits on — this session's own work,
    /// not the shard's.
    pub fn session_idle(&self, id: SessionId) -> Result<bool, ServeError> {
        self.inner.table().idle(id)
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
    /// session is answered `UnknownSession` through its reply channel.
    pub fn close_session(&self, id: SessionId) -> Result<u64, ServeError> {
        let close = self.inner.table().close(id)?;
        match close {
            Close::Now(generated, refused) => {
                self.inner.refuse(refused);
                Ok(generated)
            }
            Close::AtCheckIn(done) => done.recv().map_err(|_| ServeError::UnknownSession(id)),
        }
    }

    /// Submits a prefill without blocking: the prompt (`hidden x tokens`,
    /// column-major) is split into ladder-aligned chunks of at most
    /// [`ServerConfig::prefill_chunk`] tokens and admitted one chunk at a
    /// time, interleaving with decode traffic. The full `hidden x tokens`
    /// output arrives on the returned channel once the final chunk
    /// executes (or the error that aborted the prefill — e.g. the session
    /// was closed mid-prefill). Every chunk counts toward
    /// [`Server::in_flight`] from submission to completion.
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
        let hidden = self.inner.model.config().hidden;
        if x.len() != hidden * tokens || tokens == 0 {
            return Err(ServeError::BadInput { expected: hidden * tokens.max(1), got: x.len() });
        }
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
        let (job, rx) = PrefillJob::new(x.to_vec(), tokens, self.inner.cfg.prefill_chunk, hit);
        let item = WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, enqueued: Instant::now() });
        self.enqueue(id, tokens, item)?;
        Ok(rx)
    }

    /// Submits one decode step without blocking; the result arrives on the
    /// returned channel once a batch containing it executes.
    pub fn submit_step(
        &self,
        id: SessionId,
        x: &[f32],
    ) -> Result<mpsc::Receiver<StepResult>, ServeError> {
        let hidden = self.inner.model.config().hidden;
        if x.len() != hidden {
            return Err(ServeError::BadInput { expected: hidden, got: x.len() });
        }
        let (reply, rx) = mpsc::channel();
        let req = StepRequest { x: x.to_vec(), enqueued: Instant::now(), reply };
        let tenant = self.enqueue(id, 0, WorkItem::Decode(req))?;
        self.inner.stats.tenants[tenant].submitted.inc();
        Ok(rx)
    }

    /// Queues `item` on session `id` in one critical section — the
    /// shutdown check, the table's admission (`need` tokens of KV capacity
    /// for a resident session, the tenant's queue bound) and the in-flight
    /// count — and wakes the batcher. Returns the session's tenant.
    fn enqueue(&self, id: SessionId, need: usize, item: WorkItem) -> Result<TenantId, ServeError> {
        let inner = &self.inner;
        let queued = {
            let mut table = inner.table();
            if inner.shutdown.load(Ordering::Acquire) {
                return Err(ServeError::ShuttingDown);
            }
            let queued = table.submit(id, need, item);
            if queued.is_ok() {
                inner.in_flight.fetch_add(1, Ordering::AcqRel);
            }
            queued
        };
        match queued {
            Ok(_) => inner.wake_batcher(),
            Err(ServeError::Backpressure { tenant }) => {
                inner.stats.tenants[tenant].rejected_backpressure.inc();
            }
            Err(_) => {}
        }
        queued
    }

    /// Blocking whole-prompt prefill (`hidden x tokens`, column-major) for
    /// `id`: the chunked [`Server::submit_prefill`] path, then a wait
    /// for the reply — a plain wait with a background batcher
    /// ([`Server::start`]), else pumping on the calling thread until the
    /// reply arrives. A prompt of at most
    /// [`ServerConfig::prefill_chunk`] tokens runs as a single chunk and
    /// is bit-identical to an unchunked forward.
    pub fn prefill(&self, id: SessionId, x: &[f32], tokens: usize) -> Result<Vec<f32>, ServeError> {
        self.wait(self.submit_prefill(id, x, tokens)?)
    }

    /// Blocking decode step: [`Server::submit_step`], then the same wait
    /// as [`Server::prefill`] — so it also completes in manual-drive
    /// mode, pumping on the calling thread.
    pub fn step(&self, id: SessionId, x: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.wait(self.submit_step(id, x)?)
    }

    /// Waits for the reply on `rx`. With a background batcher
    /// ([`Server::start`]) the call simply blocks; in manual-drive mode it
    /// pumps on the calling thread until the reply arrives (its own work
    /// and whatever shares its batches executes here).
    fn wait(&self, rx: mpsc::Receiver<StepResult>) -> StepResult {
        loop {
            if self.inner.running.load(Ordering::Acquire) {
                return rx.recv().unwrap_or(Err(ServeError::ShuttingDown));
            }
            match rx.try_recv() {
                Ok(res) => return res,
                Err(mpsc::TryRecvError::Disconnected) => return Err(ServeError::ShuttingDown),
                Err(mpsc::TryRecvError::Empty) => {
                    if self.pump() == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Collects and executes one batch on the calling thread: whatever is
    /// queued right now, up to [`ServerConfig::max_batch`] items, one per
    /// session — work arriving while it executes forms the next batch.
    /// Returns how many work items it finished with — the executed batch
    /// size, plus prefills answered entirely from the prefix cache (0 when
    /// nothing was runnable). This is the same code path the background
    /// batcher runs; it is safe to call from several threads concurrently
    /// (a session one pump holds checked out is not runnable for another).
    pub fn pump(&self) -> usize {
        let inner = &self.inner;
        let checkout_ns = pl_trace::now_ns();
        let Batch { mut ready, cached, refused } = inner.table().collect(inner.cfg.max_batch);
        // The collect boundary for the queue-wait/execute latency split:
        // submit→here is queue wait, here→reply is execute.
        let collected = Instant::now();
        if !ready.is_empty() {
            let dur = pl_trace::now_ns().saturating_sub(checkout_ns);
            pl_trace::complete("batch.checkout", checkout_ns, dur, [ready.len() as u64, 0, 0]);
        }
        inner.refuse(refused);
        let from_cache = cached.len();
        for (tenant, job) in cached {
            let tm = &inner.stats.tenants[tenant];
            tm.prefix_hit_tokens.add(job.cached_tokens() as u64);
            tm.prefills.inc();
            inner.deliver(job.reply(), Ok(job.take_output()));
        }
        if ready.is_empty() {
            return from_cache;
        }
        let size = ready.len();
        let has_chunk = ready.iter().any(|(item, _)| matches!(item, WorkItem::PrefillChunk(_)));
        let decode_lanes = size - usize::from(has_chunk);

        // Execute, no lock held: decode lanes and the chunk are one ragged
        // batch, one parallel region, sharing every projection.
        let mut width = 0;
        for (item, sess) in &ready {
            width += match item {
                WorkItem::Decode(_) => 1,
                WorkItem::PrefillChunk(c) => {
                    if c.chunk == 0 {
                        // What chunk-0 checkout adopted from the prefix cache.
                        let adopted = c.job.cached_tokens() as u64;
                        inner.stats.tenants[sess.tenant].prefix_hit_tokens.add(adopted);
                    }
                    c.job.chunk_tokens(c.chunk)
                }
            };
        }
        let execute_span =
            pl_trace::span("batch.execute", [size as u64, decode_lanes as u64, width as u64]);
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let items: Vec<(&mut DecoderState, &[f32], usize)> = ready
                .iter_mut()
                .map(|(item, sess)| match item {
                    WorkItem::Decode(req) => (&mut sess.state, req.x.as_slice(), 1),
                    WorkItem::PrefillChunk(c) => {
                        (&mut sess.state, c.job.chunk_input(c.chunk), c.job.chunk_tokens(c.chunk))
                    }
                })
                .collect();
            inner.model.forward_batch(items, &inner.pool)
        }));
        drop(execute_span);
        let mut outputs = match executed {
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

        // Check-in and delivery.
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
        for ((item, sess), y) in ready.iter().zip(&mut outputs) {
            if let WorkItem::PrefillChunk(c) = item {
                c.job.push_output(std::mem::take(y));
                if c.chunk + 1 == c.job.chunks() {
                    c.job.register(&sess.state, &inner.prefix);
                }
            }
        }
        let mut orphans = Vec::new();
        let mut table = inner.table();
        for ((item, mut sess), y) in ready.into_iter().zip(outputs) {
            let tm = &stats.tenants[sess.tenant];
            let id = sess.id;
            match item {
                WorkItem::Decode(req) => {
                    sess.generated += 1;
                    orphans.extend(table.check_in(sess, None).into_iter().flatten());
                    // Combined latency plus its split at the collect
                    // boundary: queue wait vs batch compute.
                    let us = req.enqueued.elapsed().as_micros() as u64;
                    let queue_wait = collected.saturating_duration_since(req.enqueued);
                    // Pre-created handles: atomics only, no registry lock.
                    tm.steps.inc();
                    tm.step_latency.observe(us);
                    tm.queue_wait.observe(queue_wait.as_micros() as u64);
                    tm.execute.observe(collected.elapsed().as_micros() as u64);
                    if pl_trace::enabled() {
                        // The per-item submit→collect span, placed on the
                        // trace timebase so it lines up under this batch's
                        // checkout/execute spans.
                        let q_ns = queue_wait.as_nanos() as u64;
                        let since_collect = collected.elapsed().as_nanos() as u64;
                        let start = pl_trace::now_ns().saturating_sub(since_collect + q_ns);
                        pl_trace::complete("step.queue_wait", start, q_ns, [id, 0, 0]);
                    }
                    inner.deliver(&req.reply, Ok(y));
                }
                WorkItem::PrefillChunk(c) => {
                    tm.prefill_chunks.inc();
                    tm.prefill_tokens.add(c.job.chunk_tokens(c.chunk) as u64);
                    tm.chunk_latency.observe(c.enqueued.elapsed().as_micros() as u64);
                    if pl_trace::enabled() {
                        let q_ns =
                            collected.saturating_duration_since(c.enqueued).as_nanos() as u64;
                        let since_collect = collected.elapsed().as_nanos() as u64;
                        let start = pl_trace::now_ns().saturating_sub(since_collect + q_ns);
                        let args = [id, c.chunk as u64, 0];
                        pl_trace::complete("chunk.queue_wait", start, q_ns, args);
                    }
                    // The successor goes to the front of the session's
                    // FIFO, ahead of anything queued behind the prefill;
                    // the completed chunk's in-flight unit transfers to it
                    // (nothing is delivered for a non-final chunk), so a
                    // close polling `in_flight` never sees a mid-prefill
                    // gap.
                    let next = c.chunk + 1;
                    let successor = (next < c.job.chunks()).then(|| {
                        let job = Arc::clone(&c.job);
                        WorkItem::PrefillChunk(ChunkItem {
                            job,
                            chunk: next,
                            enqueued: Instant::now(),
                        })
                    });
                    let last = successor.is_none();
                    orphans.extend(table.check_in(sess, successor).into_iter().flatten());
                    if last {
                        tm.prefills.inc();
                        inner.deliver(c.job.reply(), Ok(c.job.take_output()));
                    }
                }
            }
        }
        drop(table);
        inner.refuse(orphans);
        size + from_cache
    }

    /// A region member panicked mid-forward (e.g. the bounded KV page
    /// pool ran dry inside attention): the batch's sessions hold partially
    /// appended KV and cannot continue, so they are closed — parked closers
    /// are answered, queued work refused — and every request of the batch
    /// is failed with [`ServeError::BatchFailed`]. The pump itself carries
    /// on.
    fn fail_batch(&self, ready: Vec<(WorkItem, Session)>, panic: &(dyn std::any::Any + Send)) {
        let inner = &self.inner;
        let reason = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("region member panicked")
            .to_string();
        let mut orphans = Vec::new();
        let mut table = inner.table();
        for (item, sess) in ready {
            orphans.extend(table.discard(&sess));
            let err = ServeError::BatchFailed { reason: reason.clone() };
            orphans.push(Refused { tenant: sess.tenant, item, err });
        }
        drop(table);
        inner.refuse(orphans);
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
                    let inner = &server.inner;
                    let _ = inner.batcher_waker.set(std::thread::current());
                    loop {
                        if server.pump() > 0 {
                            continue;
                        }
                        if inner.shutdown.load(Ordering::Acquire) && server.pending() == 0 {
                            break;
                        }
                        // Work queued yet nothing runnable: a concurrent
                        // manual pump holds those sessions checked out and
                        // frees them within one batch — yield and re-collect
                        // instead of parking.
                        if server.pending() > 0 {
                            std::thread::yield_now();
                        } else {
                            std::thread::park_timeout(IDLE_PARK);
                            let woken = inner.wake_requested.swap(false, Ordering::SeqCst);
                            inner.park_ends[woken as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
                .expect("failed to spawn batcher thread"),
        );
    }

    /// Stops admitting work, drains the queues, and joins the batcher;
    /// without one, whatever is still queued is answered `ShuttingDown`.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.wake_batcher();
        if let Some(h) = self.batcher_thread.take() {
            let _ = h.join();
        }
        self.inner.running.store(false, Ordering::Release);
        let refused = self.inner.table().drain();
        self.inner.refuse(refused);
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
    fn decode_is_not_starved_by_concurrent_multi_chunk_prefills() {
        // Regression: with `max_batch` (or more) concurrent prefill jobs,
        // a collect that filled the whole batch with their chunks (one
        // executing, the rest put back) made a queued decode step wait for
        // ALL remaining prefill work — cross-session head-of-line
        // blocking. The one-chunk-per-collect cap leaves the other lanes
        // for decode.
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
        // Regression: three pipelined steps of one session, batch window
        // of two. Re-queueing a step that could not run in its batch
        // behind the session's later steps once let step 3 execute before
        // step 2 and corrupted the KV stream. A session gives one item to
        // a batch, the head of its FIFO, so step 2 runs next.
        let server = tiny_server(ServerConfig { max_batch: 2, ..Default::default() });
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let xs: Vec<Vec<f32>> = (0..3).map(|t| token(50 + t as u64, hidden)).collect();
        let rxs: Vec<_> = xs.iter().map(|x| server.submit_step(id, x).unwrap()).collect();
        // Batch 1 runs step 1 only; batch 2 must run step 2, NOT step 3.
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
        // Regression: two pumps could each collect one of a session's
        // pipelined steps, and whichever reached checkout first executed
        // — even if it held the *later* step — corrupting the KV stream.
        // A collect checks the session out as it takes the head of its
        // FIFO, so the stream must stay bitwise-sequential under two
        // concurrent pumpers.
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
    fn concurrent_submitters_to_one_session_are_each_answered_once() {
        // Two threads submit to one session at once, each until it has
        // `ACCEPTED` steps accepted, while a third pumps. Every accepted
        // submit gets exactly one `Ok` reply, every refused one
        // `Backpressure`, the session decodes exactly the accepted steps,
        // and the tenant never holds more than `queue_capacity` items
        // queued — at capacity 1, one item at a time.
        const ACCEPTED: usize = 10;
        for capacity in [2, 1] {
            let server =
                tiny_server(ServerConfig { queue_capacity: capacity, ..Default::default() });
            let hidden = server.model().config().hidden;
            let id = server.create_session(0).unwrap();
            let submitting = AtomicBool::new(true);
            let (accepted, refused) = std::thread::scope(|scope| {
                let (server, submitting) = (&server, &submitting);
                scope.spawn(move || {
                    while submitting.load(Ordering::Acquire) || server.in_flight() > 0 {
                        if server.pump() == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
                let submitters: Vec<_> = (0..2u64)
                    .map(|t| {
                        scope.spawn(move || {
                            let (mut accepted, mut refused) = (Vec::new(), 0u64);
                            while accepted.len() < ACCEPTED {
                                let x = token(1000 * t + accepted.len() as u64, hidden);
                                match server.submit_step(id, &x) {
                                    Ok(rx) => accepted.push(rx),
                                    Err(ServeError::Backpressure { tenant: 0 }) => {
                                        refused += 1;
                                        std::thread::yield_now();
                                    }
                                    Err(e) => panic!("thread {t}: {e}"),
                                }
                                assert!(server.pending() <= capacity, "capacity {capacity}");
                            }
                            (accepted, refused)
                        })
                    })
                    .collect();
                let mut all = (Vec::new(), 0);
                for h in submitters {
                    let (accepted, refused) = h.join().unwrap();
                    all.0.extend(accepted);
                    all.1 += refused;
                }
                submitting.store(false, Ordering::Release);
                all
            });
            for rx in &accepted {
                assert_eq!(rx.recv().unwrap().unwrap().len(), hidden);
                assert!(matches!(rx.try_recv(), Err(mpsc::TryRecvError::Disconnected)));
            }
            let snap = server.stats().snapshot();
            assert_eq!(
                (snap.completed, snap.rejected_backpressure),
                (2 * ACCEPTED as u64, refused)
            );
            assert_eq!((server.in_flight(), server.pending()), (0, 0));
            assert_eq!(server.close_session(id).unwrap(), 2 * ACCEPTED as u64);
        }
    }

    #[test]
    fn out_of_order_checkout_is_deferred_not_executed() {
        // Deterministic white-box form of the concurrent-pump race: pump A
        // collects step N and pump B collects next, while A's batch still
        // holds the session. B must take nothing from that session — step
        // N+1 cannot run against a KV cache missing step N — and step N+1
        // runs after A checks the session back in.
        let server = tiny_server(ServerConfig::default());
        let hidden = server.model().config().hidden;
        let id = server.create_session(0).unwrap();
        let xs: Vec<Vec<f32>> = (0..2).map(|t| token(70 + t as u64, hidden)).collect();
        let rx0 = server.submit_step(id, &xs[0]).unwrap();
        let rx1 = server.submit_step(id, &xs[1]).unwrap();
        let first = server.inner.table().collect(8);
        assert_eq!(first.ready.len(), 1, "one item of a session per batch");
        assert!(server.inner.table().checked_out(id));
        let second = server.inner.table().collect(8);
        assert!(second.ready.is_empty(), "a checked-out session gives nothing to a second collect");
        assert_eq!(server.pending(), 1, "step 1 stays queued in the session's slot");
        assert_eq!(server.pump(), 0, "nor to a concurrent pump");
        assert!(rx1.try_recv().is_err(), "no reply for the later step");
        // A's batch executes step 0 and checks the session in; step 1
        // rides the next pump.
        let (item, mut sess) = first.ready.into_iter().next().unwrap();
        let WorkItem::Decode(req) = item else { panic!("a decode step") };
        let y0 = server.model().forward(&mut sess.state, &req.x, 1, &server.inner.pool);
        sess.generated += 1;
        assert!(server.inner.table().check_in(sess, None).is_none());
        server.inner.deliver(&req.reply, Ok(y0));
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
        // Regression: a decode step submitted after a multi-chunk prefill
        // once ran ahead of the prefill's continuation chunks, splicing a
        // decode token into the middle of the prompt's KV — silently. A
        // chunk's successor goes back to the front of the session's FIFO,
        // so the step waits until the final chunk has landed.
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
        assert_eq!(server.pump(), 1, "the step runs first; the chunk waits behind it");
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
        // One pump executes one step (a session gives one item to a
        // batch): exactly one reply retired.
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
        // in_flight (and unchecked against shutdown), so a close could
        // see a shard quiesced mid-prefill. Now every chunk counts,
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
            while !server.inner.table().checked_out(id) {
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
        // Prefills count toward the same bound: a full tenant queue
        // bounces them too (and leaves the in-flight count alone).
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
        let mut server =
            tiny_server(ServerConfig { max_batch: 0, prefill_chunk: 0, ..Default::default() });
        assert_eq!(server.config().max_batch, 1);
        assert_eq!(server.prefill_chunk(), 1, "chunk size clamps to at least one token");
        server.start();
        let id = server.create_session(0).unwrap();
        let x = token(7, server.model().config().hidden);
        let rx = server.submit_step(id, &x).unwrap();
        let y = rx.recv_timeout(Duration::from_secs(30)).expect("the step never ran");
        assert_eq!(y.unwrap().len(), x.len());
        server.shutdown();
    }

    /// How the started batcher's parks have ended: `(timed out, woken)`.
    fn park_ends(server: &Server) -> (u64, u64) {
        let ends = &server.inner.park_ends;
        (ends[0].load(Ordering::SeqCst), ends[1].load(Ordering::SeqCst))
    }

    /// Waits until the started batcher has found nothing queued, parked
    /// and timed out once: from then on it is registered for wakes.
    fn await_first_park(server: &Server) {
        while park_ends(server).0 == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn idle_batcher_wakes_on_submit_not_on_a_timer() {
        // One closed-loop session: every submit finds the batcher idle. A
        // batcher that polled on its timer would serve the steps too, so
        // each step must instead end one park by the wake it requested —
        // no later than the park after it, which cannot time out first.
        let mut server = tiny_server(ServerConfig { kv_capacity: 1024, ..Default::default() });
        server.start();
        await_first_park(&server);
        let id = server.create_session(0).unwrap();
        let mut x = token(31, server.model().config().hidden);
        for step in 0..20 {
            let (_, woken) = park_ends(&server);
            x = server.step(id, &x).unwrap();
            let before = (park_ends(&server).0, woken);
            while park_ends(&server) == before {
                std::thread::yield_now();
            }
            assert_eq!(park_ends(&server).1, woken + 1, "step {step} never woke the batcher");
        }
        server.shutdown();
    }

    #[test]
    fn shutdown_of_an_idle_started_server_does_not_wait_out_the_park() {
        let mut server = tiny_server(ServerConfig::default());
        server.start();
        await_first_park(&server);
        server.shutdown();
        // Shutdown's wake ended the park in progress, or is still pending
        // because the batcher saw the shutdown flag before it parked again.
        let pending = server.inner.wake_requested.load(Ordering::SeqCst);
        assert_eq!(park_ends(&server).1 + pending as u64, 1, "shutdown never woke the batcher");
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
    fn gemm_shapes_count_the_ragged_width_a_batch_ran_at() {
        let server = tiny_server(ServerConfig::default());
        assert!(server.stats().snapshot().gemm_shapes.is_empty(), "no traffic, no shapes");
        let cfg = *server.model().config();
        let hidden = cfg.hidden;
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
        // Three lanes run every projection at width 3, a ragged tile.
        let (h, f, layers) = (hidden, cfg.ffn, cfg.layers as u64);
        assert_eq!(
            server.stats().snapshot().gemm_shapes,
            vec![((h, n, h), 4 * layers), ((h, n, f), layers), ((f, n, h), layers)]
        );
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
        // Tenant 0: two steps fill its queue bound, the third bounces.
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

        // Every field of the typed view, recomputed by hand from the
        // exported series.
        let view = StatsSnapshot::from_metrics(&m);
        let total = |name: &str| per_tenant(name).iter().sum::<u64>();
        let hist = |name: &str| {
            let mut h = crate::HistogramSnapshot::default();
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
        let text = crate::render_prometheus(&server.metrics_snapshot());
        // The in-repo conformance parser: family/type/label/bucket
        // well-formedness, monotone cumulative buckets, no orphan TYPEs.
        let report = crate::parse_prometheus(&text)
            .unwrap_or_else(|e| panic!("non-conformant exposition: {e}\n{text}"));
        for fam in [
            "pl_steps_total",
            "pl_prefill_chunks_total",
            "pl_rejected_backpressure_total",
            "pl_queue_wait_us",
            "pl_execute_us",
            "pl_batches_total",
            "pl_sessions_live",
            "pl_pending",
            "pl_in_flight",
            "pl_kv_pages_free",
            "pl_kv_pages_shared",
            "pl_sessions_imported_total",
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
        // `sessions` sessions prefill the same `tokens`-token prompt, then
        // each decodes one divergent token. With sharing on, later sessions
        // adopt the first's cached full pages; their only marginal resident
        // pages per layer are their private partial tails, and a divergent
        // step appends into such a tail in place (nothing to COW-split) or
        // opens a fresh private page. The last case is the same traffic in
        // the pre-paging layout: one capacity-sized page per layer per
        // session, sharing off. The 64-token cases hold 24 x 4 KiB = 98304
        // bytes paged+shared vs 16 x 32 KiB = 524288 bytes contiguous.
        for (sessions, tokens, page_tokens, kv_capacity, share_prefix) in
            [(2, 6, 4, 32, true), (8, 64, DEFAULT_PAGE_TOKENS, 128, true), (8, 64, 128, 128, false)]
        {
            let server = tiny_server(ServerConfig {
                kv_page_tokens: page_tokens,
                kv_capacity,
                share_prefix,
                ..Default::default()
            });
            let hidden = server.model().config().hidden;
            let layers = server.model().config().layers;
            let full = tokens / page_tokens;
            let prompt = token(91, hidden * tokens);
            let mut ids = Vec::new();
            let mut first = None;
            for s in 0..sessions {
                let id = server.create_session(0).unwrap();
                let y = server.prefill(id, &prompt, tokens).unwrap();
                let ya = first.get_or_insert_with(|| y.clone());
                assert_eq!(*ya, y, "identical prompts must produce identical outputs");
                // Every session after the first adds only its tail pages.
                let held = if share_prefix {
                    full + (s + 1) * (tokens.div_ceil(page_tokens) - full)
                } else {
                    (s + 1) * tokens.div_ceil(page_tokens)
                };
                assert_eq!(
                    server.kv_pool().allocated_pages(),
                    layers * held,
                    "session {s} must adopt the cached full pages and keep only its tail"
                );
                ids.push(id);
            }
            assert_eq!(server.prefix_cache().shared_pages() > 0, share_prefix);
            let pool = ThreadPool::new(2);
            for (s, &id) in ids.iter().enumerate() {
                let x = token(92 + s as u64, hidden);
                let rx = server.submit_step(id, &x).unwrap();
                while server.pump() > 0 {}
                let got = rx.recv().unwrap().unwrap();
                let mut st = server.model().new_state(kv_capacity);
                let _ = server.model().forward(&mut st, &prompt, tokens, &pool);
                let want = server.model().forward(&mut st, &x, 1, &pool);
                assert_eq!(got, want, "decode after sharing must stay bit-identical");
            }
            let private = (tokens + 1).div_ceil(page_tokens);
            let pages =
                if share_prefix { full + sessions * (private - full) } else { sessions * private };
            assert_eq!(server.kv_pool().allocated_pages(), layers * pages);
            assert_eq!(server.kv_pool().cow_splits(), 0, "private tail pages never need a split");
            let snap = server.metrics_snapshot();
            assert_eq!(snap.gauge_value("pl_kv_pages_shared", &[]).unwrap() > 0.0, share_prefix);
        }
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
        assert_eq!(snap.counter_value("pl_sessions_imported_total", &[]), 1);
    }

    #[test]
    fn import_of_another_models_geometry_is_refused_without_admitting() {
        let server = tiny_server(ServerConfig::default());
        let own = *server.model().config();
        let pool = Arc::new(ThreadPool::new(2));
        for other in [
            DecoderConfig { hidden: 2 * own.hidden, ffn: 2 * own.ffn, ..own },
            DecoderConfig { layers: own.layers + 1, ..own },
        ] {
            let src = Server::new(
                Arc::new(DecoderModel::new(other, 5)),
                Arc::clone(&pool),
                Default::default(),
            );
            let id = src.create_session(0).unwrap();
            src.prefill(id, &token(9, other.hidden * 3), 3).unwrap();
            let mut export = src.export_session(id).unwrap();
            // Off the wire, as a migration would receive it.
            export.kv = KvSnapshot::from_bytes(&export.kv.to_bytes()).unwrap();
            let refused = server.import_session(&export);
            assert!(matches!(refused, Err(ServeError::BadInput { .. })), "{other:?}: {refused:?}");
            assert_eq!(server.session_count(), 0, "{other:?}: nothing admitted");
        }
        // The shard still serves.
        let id = server.create_session(0).unwrap();
        let rx = server.submit_step(id, &token(10, own.hidden)).unwrap();
        while server.pump() > 0 {}
        assert_eq!(rx.recv().unwrap().unwrap().len(), own.hidden);
        assert_eq!(server.session_count(), 1);
    }
}
