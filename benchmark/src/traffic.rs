//! The model workloads: a closed-loop load generator over one of three
//! targets (`DecoderModel::forward` directly, a `Server`, a `Router`), and
//! the replay that checks what the target answered.
//!
//! Closed loop because every caller of this stack blocks on a reply: a
//! session's next op is sent when the previous one is answered, so a slower
//! program is offered less load and nothing queues without bound.

use crate::rng::{self, Fnv};
use crate::stats::{self, SessionOps};
use crate::trace::{Recorder, Span};
use pl_dnn::{prefill_chunk_widths, DecoderConfig, DecoderModel, DecoderState};
use pl_router::{Router, RouterConfig};
use pl_runtime::ThreadPool;
use pl_serve::{Server, ServerConfig, StatsSnapshot, StepResult};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Arithmetic dominates: 50 MB of f32 weights, more than the cache a
/// thread team can count on, so a decode step streams the weights.
pub const MID: DecoderConfig =
    DecoderConfig { layers: 4, hidden: 512, heads: 8, ffn: 2048, vocab: 1024, ffn_mats: 2 };
/// Dispatch and batching dominate: the kernels are close to free.
pub const SMALL: DecoderConfig =
    DecoderConfig { layers: 2, hidden: 64, heads: 4, ffn: 256, vocab: 128, ffn_mats: 2 };
/// Weights are the same on every run; only the traffic follows `--seed`.
pub const WEIGHT_SEED: u64 = 0x0070_6c62_656e_6368;
/// Team size of every pool the benchmark builds (a router splits it).
pub const POOL_THREADS: usize = 2;
/// KV capacity of a directly driven state: the servers' default.
const DIRECT_KV_TOKENS: usize = 128;
/// Decode steps of the untimed warm-up request.
const WARM_STEPS: usize = 2;
/// Prompt cap of the warm-up request: two default prefill chunks, so every
/// chunk width the measured prompts use has run once.
const WARM_PROMPT: usize = 32;
/// Tokens of a shared system prefix: four default KV pages.
const PREFIX_TOKENS: usize = 64;

/// The servers' configuration: the defaults, except the two health
/// objectives. The default 50 ms step objective is below what today's
/// build reaches on the mid model; a shard that burns its error budget (or
/// trips the 1 s stall watchdog during a one-thread prefill chunk) is
/// marked unhealthy and the router then refuses it new sessions. The
/// benchmark measures speed, not admission under a missed objective, so
/// both are set where no workload can trip them.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        slo_p99_us: 60_000_000,
        watchdog_deadline: Duration::from_secs(60),
        ..Default::default()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// `DecoderModel::forward` on the caller's thread; `pl_serve` bypassed.
    Direct,
    /// One `Server` with a background batcher over a two-thread pool.
    Server,
    /// A `Router` over two one-thread shards.
    Router,
}

/// A traffic mix. `prompt` and `steps` are fixed per workload so that
/// tokens per second compares across runs.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub model: DecoderConfig,
    pub target: TargetKind,
    /// Concurrent closed-loop sessions (client count).
    pub sessions: usize,
    pub prompt: usize,
    pub steps: usize,
    /// Every second request of a session opens with one of two fixed
    /// `PREFIX_TOKENS`-token system prefixes.
    pub shared_prefix: bool,
    /// The second half of the slots runs half a request out of phase with
    /// the first, so prefill chunks and decode lanes share batches. (Halves,
    /// not odd and even: a router places sessions on its two shards
    /// alternately, and each shard should get one slot of either phase.)
    pub staggered: bool,
}

/// Everything built before the first request; building it is `setup_s`.
pub struct Stack {
    pub model: Arc<DecoderModel>,
    target: Target,
}

enum Target {
    Direct(Arc<ThreadPool>),
    Server(Server),
    Router(Box<Router>),
}

/// Two shards over the pool's threads: one thread each.
pub fn router_config() -> RouterConfig {
    RouterConfig {
        shards: 2,
        total_threads: POOL_THREADS,
        server: server_config(),
        ..Default::default()
    }
}

impl Stack {
    pub fn build(model: DecoderConfig, kind: TargetKind) -> Stack {
        let model = Arc::new(DecoderModel::new(model, WEIGHT_SEED));
        let target = match kind {
            TargetKind::Direct => Target::Direct(Arc::new(ThreadPool::new(POOL_THREADS))),
            TargetKind::Server => {
                let pool = Arc::new(ThreadPool::new(POOL_THREADS));
                let mut server = Server::new(Arc::clone(&model), pool, server_config());
                server.start();
                Target::Server(server)
            }
            TargetKind::Router => {
                let mut router = Router::new(Arc::clone(&model), router_config()).expect("config");
                router.start();
                Target::Router(Box::new(router))
            }
        };
        Stack { model, target }
    }

    /// The chunk widths the target splits a `tokens`-token prompt into; the
    /// replay must use the same ones to be bit-identical.
    fn chunk_widths(&self, tokens: usize) -> Vec<usize> {
        match &self.target {
            Target::Direct(_) => vec![tokens],
            Target::Server(s) => prefill_chunk_widths(tokens, s.prefill_chunk()),
            Target::Router(r) => prefill_chunk_widths(tokens, r.shard(0).server().prefill_chunk()),
        }
    }

    fn servers(&self) -> Vec<&Server> {
        match &self.target {
            Target::Direct(_) => Vec::new(),
            Target::Server(s) => vec![s],
            Target::Router(r) => r.shards().iter().map(|s| s.server()).collect(),
        }
    }

    /// Program-reported batching counters, summed over shards; all zero
    /// for a target without a server.
    fn stats(&self) -> StatsSnapshot {
        match &self.target {
            Target::Direct(_) => StatsSnapshot::empty(),
            Target::Server(s) => s.stats().snapshot(),
            Target::Router(r) => r.stats(),
        }
    }

    fn span_names(&self) -> SpanNames {
        match &self.target {
            Target::Direct(_) => SpanNames {
                create: "dnn.new_state",
                prefill: "dnn.forward.prefill",
                step: "dnn.forward.step",
                recv: "dnn.forward.return",
                close: "dnn.drop_state",
            },
            Target::Server(_) => SpanNames {
                create: "serve.create_session",
                prefill: "serve.submit_prefill",
                step: "serve.submit_step",
                recv: "serve.recv",
                close: "serve.close_session",
            },
            Target::Router(_) => SpanNames {
                create: "router.create_session",
                prefill: "router.submit_prefill",
                step: "router.submit_step",
                recv: "router.recv",
                close: "router.close_session",
            },
        }
    }

    fn open(&self) -> Result<Sess, String> {
        match &self.target {
            Target::Direct(_) => Ok(Sess::Direct(Box::new(self.model.new_state(DIRECT_KV_TOKENS)))),
            Target::Server(s) => s.create_session(0).map(Sess::Remote).map_err(|e| e.to_string()),
            Target::Router(r) => r.create_session(0).map(Sess::Remote).map_err(|e| e.to_string()),
        }
    }

    /// Sends `tokens` new positions of one session; a prompt when `prefill`.
    fn submit(&self, sess: &mut Sess, x: &[f32], tokens: usize, prefill: bool) -> Pending {
        let sent = match (&self.target, sess) {
            (Target::Direct(pool), Sess::Direct(state)) => {
                return Pending::Ready(self.model.forward(state, x, tokens, pool));
            }
            (Target::Server(s), Sess::Remote(id)) if prefill => {
                s.submit_prefill(*id, x, tokens).map_err(|e| e.to_string())
            }
            (Target::Server(s), Sess::Remote(id)) => {
                s.submit_step(*id, x).map_err(|e| e.to_string())
            }
            (Target::Router(r), Sess::Remote(id)) if prefill => {
                r.submit_prefill(*id, x, tokens).map_err(|e| e.to_string())
            }
            (Target::Router(r), Sess::Remote(id)) => {
                r.submit_step(*id, x).map_err(|e| e.to_string())
            }
            _ => unreachable!("a session is only used with the target that opened it"),
        };
        match sent {
            Ok(rx) => Pending::Wait(rx),
            Err(e) => Pending::Refused(e),
        }
    }

    fn close(&self, sess: Sess) -> Result<(), String> {
        match (&self.target, sess) {
            (_, Sess::Direct(_)) => Ok(()),
            (Target::Server(s), Sess::Remote(id)) => {
                s.close_session(id).map(drop).map_err(|e| e.to_string())
            }
            (Target::Router(r), Sess::Remote(id)) => {
                r.close_session(id).map(drop).map_err(|e| e.to_string())
            }
            (Target::Direct(_), Sess::Remote(_)) => unreachable!("direct targets open no ids"),
        }
    }
}

enum Sess {
    Direct(Box<DecoderState>),
    Remote(u64),
}

enum Pending {
    Ready(Vec<f32>),
    Wait(mpsc::Receiver<StepResult>),
    Refused(String),
}

impl Pending {
    fn wait(self) -> Result<Vec<f32>, String> {
        match self {
            Pending::Ready(out) => Ok(out),
            Pending::Refused(e) => Err(e),
            Pending::Wait(rx) => match rx.recv() {
                Ok(Ok(out)) => Ok(out),
                Ok(Err(e)) => Err(e.to_string()),
                Err(_) => Err("reply channel closed".into()),
            },
        }
    }
}

struct SpanNames {
    create: &'static str,
    prefill: &'static str,
    step: &'static str,
    recv: &'static str,
    close: &'static str,
}

/// One operation as the client saw it. `step == 0` is the prefill.
struct OpRec {
    slot: usize,
    req: usize,
    step: usize,
    tokens: usize,
    submit_ns: u64,
    done_ns: u64,
    ok: bool,
}

/// A session's first measured request, kept whole for the output check.
struct FirstRequest {
    slot: usize,
    prompt: Vec<f32>,
    prompt_tokens: usize,
    /// The prefill output, then each step's output, as answered.
    outputs: Vec<Vec<f32>>,
}

/// One closed-loop client: a session slot working through its requests.
#[derive(Default)]
struct Slot {
    sess: Option<Sess>,
    /// Requests started so far; request 0 is the warm-up.
    req: usize,
    /// The request's next op: 0 is the prefill, `i` the `i`-th step.
    next: usize,
    steps: usize,
    prompt_tokens: usize,
    input: Vec<f32>,
    /// Span id, request id and start time of the request in flight.
    span: u64,
    rid: u64,
    started_ns: u64,
}

/// What one run of a traffic mix measured.
#[derive(Default)]
pub struct TrafficResult {
    pub warmup_s: f64,
    pub tok_s: f64,
    /// In a traced run, the median length in ms of the decode-only rounds
    /// that recorded per-op spans and of those that did not, as `(traced,
    /// untraced)`. Rounds with a prefill are left out: a window holds only
    /// a handful, and they are several times longer.
    pub round_ms_by_tracing: Option<(f64, f64)>,
    /// Sorted time-to-first-token samples.
    pub ttft_ms: Vec<f64>,
    /// Sorted inter-token gaps.
    pub itl_ms: Vec<f64>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Ops whose answer was compared with the replay.
    pub ops_checked: u64,
    pub inputs_fnv: u64,
    pub outputs_fnv: u64,
    pub errors: Vec<String>,
    pub kv_peak_mb: f64,
    /// Program-reported counters over the window, by per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// The load generator: every session slot is driven from this one thread in
/// lock-step rounds. A round sends one op for every slot (`submit_prefill`
/// or `submit_step`), then blocks on each reply in turn: no polling, no
/// thread per session, and between rounds the target is idle. That makes a
/// round's composition, and with it batch formation and shard placement,
/// the same on every run, which two free-running generator threads did not
/// (they phase-locked differently from run to run).
struct Generator<'a> {
    traffic: &'a Traffic,
    stack: &'a Stack,
    seed: u64,
    names: SpanNames,
    rec: Recorder,
    slots: Vec<Slot>,
    ops: Vec<OpRec>,
    first: Vec<FirstRequest>,
    errors: Vec<String>,
    /// Whether this run records spans at all. Request-level spans are then
    /// always recorded; per-op spans in every second round only, so that
    /// traced and untraced rounds see the same op mix over the window.
    trace: bool,
    /// Measured rounds as `(milliseconds, decode-only, per-op spans on)`.
    rounds: Vec<(f64, bool, bool)>,
}

impl Generator<'_> {
    /// Opens a session for `slot` and draws its next request.
    fn begin_request(&mut self, i: usize) {
        let t = self.traffic;
        let slot = &mut self.slots[i];
        let req = slot.req;
        (slot.prompt_tokens, slot.steps) = match req {
            0 => (t.prompt.min(WARM_PROMPT), WARM_STEPS.min(t.steps)),
            // The second half of the slots starts with a half-length
            // request, so from then on its prefills land among the first
            // half's decode steps.
            1 if t.staggered && i >= t.sessions / 2 => (t.prompt, (t.steps / 2).max(1)),
            _ => (t.prompt, t.steps),
        };
        slot.next = 0;
        slot.span = self.rec.alloc();
        slot.rid = ((i as u64) << 32) | req as u64;
        slot.started_ns = self.rec.now_ns();
        let (span, rid) = (slot.span, slot.rid);
        match self.rec.time(span, rid, self.names.create, || self.stack.open()) {
            Ok(sess) => self.slots[i].sess = Some(sess),
            Err(e) => self.errors.push(format!("slot {i} request {req}: create: {e}")),
        }
        let prefix =
            (t.shared_prefix && req % 2 == 1).then_some(((req / 2 + i) % 2, PREFIX_TOKENS));
        let slot = &mut self.slots[i];
        slot.input = rng::prompt(self.seed, t.model.hidden, slot.prompt_tokens, i, req, prefix);
        if req == 1 {
            self.first.push(FirstRequest {
                slot: i,
                prompt: slot.input.clone(),
                prompt_tokens: slot.prompt_tokens,
                outputs: Vec::new(),
            });
        }
    }

    /// Closes `slot`'s session and counts the request as done.
    fn end_request(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let (span, rid, req, started_ns) = (slot.span, slot.rid, slot.req, slot.started_ns);
        slot.req += 1;
        if let Some(sess) = slot.sess.take() {
            if let Err(e) = self.rec.time(span, rid, self.names.close, || self.stack.close(sess)) {
                self.errors.push(format!("slot {i} request {req}: close: {e}"));
            }
        }
        let now = self.rec.now_ns();
        self.rec.record(Some(span), 0, rid, "request", started_ns, now);
    }

    /// One lock-step round. Returns false when no slot could send anything.
    fn round(&mut self) -> bool {
        let hidden = self.traffic.model.hidden;
        // Warm-up requests are all of one length, so a round is either all
        // warm-up or all measured.
        let measured = self.slots.iter().all(|s| s.req > 0);
        let op_spans = self.trace && self.rounds.len() % 2 == 1;
        self.rec.on = self.trace;
        for i in 0..self.slots.len() {
            if self.slots[i].sess.is_none() {
                self.begin_request(i);
            }
        }
        self.rec.on = op_spans;
        let round_start = self.rec.now_ns();
        let mut decode_only = true;
        let mut pending = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(sess) = &mut slot.sess else { continue };
            let prefill = slot.next == 0;
            let tokens = if prefill { slot.prompt_tokens } else { 1 };
            decode_only &= !prefill;
            let submit_ns = self.rec.now_ns();
            let p = self.stack.submit(sess, &slot.input, tokens, prefill);
            let name = if prefill { self.names.prefill } else { self.names.step };
            let now = self.rec.now_ns();
            self.rec.record(None, slot.span, slot.rid, name, submit_ns, now);
            pending.push((i, tokens, submit_ns, p));
        }
        if pending.is_empty() {
            return false;
        }
        // Requests that end this round are closed after the last reply, so
        // sessions open and close while the target is idle.
        let mut ended = Vec::new();
        let mut round_end = round_start;
        for (i, tokens, submit_ns, p) in pending {
            let wait_ns = self.rec.now_ns();
            let reply = p.wait();
            let done_ns = self.rec.now_ns();
            round_end = done_ns;
            let slot = &mut self.slots[i];
            self.rec.record(None, slot.span, slot.rid, self.names.recv, wait_ns, done_ns);
            let (req, step) = (slot.req, slot.next);
            if req > 0 {
                let ok = reply.is_ok();
                self.ops.push(OpRec { slot: i, req, step, tokens, submit_ns, done_ns, ok });
            }
            match reply {
                Ok(y) => {
                    // The last position's hidden state is the next input.
                    slot.input = y[y.len() - hidden..].to_vec();
                    slot.next += 1;
                    if slot.next > slot.steps {
                        ended.push(i);
                    }
                    if req == 1 {
                        let first = self.first.iter_mut().find(|f| f.slot == i);
                        first.expect("request 1 was registered when it began").outputs.push(y);
                    }
                }
                Err(e) => {
                    // A refused or failed op is not retried: the request
                    // ends here and the slot goes on to its next one.
                    self.errors.push(format!("slot {i} request {req} step {step}: {e}"));
                    ended.push(i);
                }
            }
        }
        if measured {
            let ms = (round_end - round_start) as f64 / 1e6;
            self.rounds.push((ms, decode_only, op_spans));
        }
        self.rec.on = self.trace;
        ended.into_iter().for_each(|i| self.end_request(i));
        true
    }
}

/// Runs `traffic` against `stack` for `window` after an untimed warm-up
/// request per session. With `trace`, every second round records per-op
/// spans, and the two kinds of round give the tracing overhead.
/// `check_steps` bounds how many decode steps of each first request the
/// replay covers.
pub fn run(
    traffic: &Traffic,
    stack: &Stack,
    seed: u64,
    window: Duration,
    trace: bool,
    check_steps: usize,
) -> TrafficResult {
    let origin = Instant::now();
    let mut g = Generator {
        traffic,
        stack,
        seed,
        names: stack.span_names(),
        rec: Recorder::new(origin, 1),
        slots: (0..traffic.sessions).map(|_| Slot::default()).collect(),
        ops: Vec::new(),
        first: Vec::new(),
        errors: Vec::new(),
        trace,
        rounds: Vec::new(),
    };
    let mut res = TrafficResult::default();

    // Warm-up: every slot's request 0, all of one length, so they end on
    // the same round and the window opens on an idle target.
    while g.slots.iter().any(|s| s.req == 0) {
        if !g.round() {
            break;
        }
    }
    let start_ns = g.rec.now_ns();
    res.warmup_s = start_ns as f64 / 1e9;
    let at_start = stack.stats();
    let pack_start = pl_dnn::prepared::pack_events();

    // The window closes at the first round boundary after `window`, and
    // never before every slot has finished its first measured request: that
    // is the one the output check and the fingerprints cover.
    let window_ns = window.as_nanos() as u64;
    loop {
        let elapsed = g.rec.now_ns() - start_ns;
        if elapsed >= window_ns && g.slots.iter().all(|s| s.req > 1) {
            break;
        }
        if !g.round() {
            g.errors.push("no session could be opened; run abandoned".into());
            break;
        }
    }

    // Sessions in flight are still live here; they are closed right after.
    let servers = stack.servers();
    let shared: usize = servers.iter().map(|s| s.prefix_cache().shared_pages()).sum();
    let busiest = match &stack.target {
        Target::Router(_) => servers.iter().map(|s| s.session_count()).max().unwrap_or(0),
        _ => 0,
    };
    res.counters.push(("kv.shared_pages", shared as f64));
    res.counters.push(("router.sessions_per_shard", busiest as f64));
    g.rec.on = trace;
    for i in 0..g.slots.len() {
        if g.slots[i].sess.is_some() {
            g.end_request(i);
        }
    }

    let pack_delta = pl_dnn::prepared::pack_events() - pack_start;
    res.counters.push(("dnn.pack_events", pack_delta as f64));
    res.counters.push((
        "kv.cow_splits",
        servers.iter().map(|s| s.kv_pool().cow_splits()).sum::<u64>() as f64,
    ));
    let kv_peak_bytes: usize =
        servers.iter().map(|s| s.kv_pool().peak_pages() * s.kv_pool().page_bytes()).sum();
    res.kv_peak_mb = kv_peak_bytes as f64 / 1e6;
    batching_counters(&at_start, &stack.stats(), &mut res.counters);

    // Token rates, per session over its own reply-to-reply span.
    let mut sessions: Vec<SessionOps> = vec![Vec::new(); traffic.sessions];
    for op in g.ops.iter().filter(|op| op.ok) {
        sessions[op.slot].push((op.done_ns as f64 / 1e9, op.tokens as u64));
    }
    res.tok_s = stats::token_rate(&sessions, start_ns as f64 / 1e9);
    let round_ms = |spans_on: bool| {
        let of_kind = g.rounds.iter().filter(|r| r.1 && r.2 == spans_on);
        stats::median(of_kind.map(|r| r.0).collect())
    };
    res.round_ms_by_tracing = trace.then(|| (round_ms(true), round_ms(false)));

    let mut ttft = Vec::new();
    let mut itl = Vec::new();
    // The previous successful step reply of each slot's current request.
    let mut last_step: Vec<Option<(usize, usize, u64)>> = vec![None; traffic.sessions];
    for op in &g.ops {
        res.ops_attempted += 1;
        res.ops_failed += u64::from(!op.ok);
        if !op.ok {
            continue;
        }
        if op.step == 0 {
            ttft.push((op.done_ns - op.submit_ns) as f64 / 1e6);
            continue;
        }
        if let Some((req, step, done_ns)) = last_step[op.slot] {
            if req == op.req && step + 1 == op.step {
                itl.push((op.done_ns - done_ns) as f64 / 1e6);
            }
        }
        last_step[op.slot] = Some((op.req, op.step, op.done_ns));
    }
    res.ttft_ms = stats::sorted(ttft);
    res.itl_ms = stats::sorted(itl);

    g.first.sort_by_key(|f| f.slot);
    res.errors = g.errors;
    res.spans = g.rec.spans;
    check_outputs(stack, &g.first, check_steps, &mut res);
    res
}

/// Deltas of the program's own batching counters over the window.
fn batching_counters(
    a: &StatsSnapshot,
    b: &StatsSnapshot,
    counters: &mut Vec<(&'static str, f64)>,
) {
    let lanes = |s: &StatsSnapshot| {
        s.batch_distribution.iter().map(|&(size, n)| size as u64 * n).sum::<u64>()
    };
    let batches = b.batches - a.batches;
    counters.push(("serve.batches", batches as f64));
    counters.push(("serve.mean_batch", (lanes(b) - lanes(a)) as f64 / batches.max(1) as f64));
    counters.push(("serve.mixed_batches", (b.mixed_batches - a.mixed_batches) as f64));
    counters.push(("serve.prefill_chunks", (b.prefill_chunks - a.prefill_chunks) as f64));
    let rejected = |s: &StatsSnapshot| s.rejected_backpressure + s.rejected_sessions;
    counters.push(("serve.rejected", (rejected(b) - rejected(a)) as f64));
    // The program's own histogram: a log2 bucket's upper edge, since start.
    counters.push(("serve.queue_wait_us_bucket", b.queue_wait_p50_us as f64));
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Replays each session's first request on a fresh state through plain
/// unbatched `DecoderModel::forward` calls and requires the answers to be
/// bit-identical. Every op is checked on its own: the replay is fed what
/// the target was fed, so one wrong answer does not fail the ops after it.
fn check_outputs(
    stack: &Stack,
    first: &[FirstRequest],
    check_steps: usize,
    res: &mut TrafficResult,
) {
    let pool = ThreadPool::new(POOL_THREADS);
    let hidden = stack.model.config().hidden;
    let (mut fin, mut fout) = (Fnv::default(), Fnv::default());
    for f in first {
        fin.add(&f.prompt);
        f.outputs.iter().for_each(|y| fout.add(y));
        let Some(served_prefill) = f.outputs.first() else { continue };
        let mut state = stack.model.new_state(DIRECT_KV_TOKENS);
        let mut replayed = Vec::with_capacity(f.prompt.len());
        let mut at = 0;
        for w in stack.chunk_widths(f.prompt_tokens) {
            let chunk = &f.prompt[at * hidden..(at + w) * hidden];
            replayed.extend(stack.model.forward(&mut state, chunk, w, &pool));
            at += w;
        }
        let mut mismatches = u64::from(!same_bits(&replayed, served_prefill));
        res.ops_checked += 1;
        for pair in f.outputs.windows(2).take(check_steps) {
            let x = &pair[0][pair[0].len() - hidden..];
            let y = stack.model.forward(&mut state, x, 1, &pool);
            mismatches += u64::from(!same_bits(&y, &pair[1]));
            res.ops_checked += 1;
        }
        if mismatches > 0 {
            res.errors
                .push(format!("slot {}: {mismatches} answers differ from the replay", f.slot));
            res.ops_failed += mismatches;
        }
    }
    res.inputs_fnv = fin.0;
    res.outputs_fnv = fout.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short run of each target on the small model: answers
    /// must match the replay, and the same seed must give the same
    /// fingerprints whatever the timing was.
    #[test]
    fn every_target_answers_bit_identically_and_deterministically() {
        for target in [TargetKind::Direct, TargetKind::Server, TargetKind::Router] {
            let traffic = Traffic {
                model: SMALL,
                target,
                sessions: if target == TargetKind::Direct { 1 } else { 4 },
                prompt: 40,
                steps: 6,
                shared_prefix: true,
                staggered: true,
            };
            let window = Duration::from_millis(150);
            let a = run(&traffic, &Stack::build(SMALL, target), 11, window, false, 6);
            let b = run(&traffic, &Stack::build(SMALL, target), 11, window, true, 6);
            let c = run(&traffic, &Stack::build(SMALL, target), 12, window, false, 6);
            for r in [&a, &b, &c] {
                assert!(r.errors.is_empty(), "{target:?}: {:?}", r.errors);
                assert_eq!(r.ops_failed, 0);
                assert!(r.ops_attempted > 0 && r.ops_checked > 0);
                assert!(r.tok_s > 0.0, "{target:?}: tok_s {}", r.tok_s);
                assert!(
                    !r.ttft_ms.is_empty() && !r.itl_ms.is_empty(),
                    "{target:?}: {} ttft, {} itl samples",
                    r.ttft_ms.len(),
                    r.itl_ms.len()
                );
            }
            assert_eq!((a.inputs_fnv, a.outputs_fnv), (b.inputs_fnv, b.outputs_fnv));
            assert_ne!(a.inputs_fnv, c.inputs_fnv);
            assert_ne!(a.outputs_fnv, c.outputs_fnv);
            assert!(a.spans.is_empty() && a.round_ms_by_tracing.is_none());
            assert!(
                !b.spans.is_empty()
                    && b.round_ms_by_tracing.is_some_and(|(t, u)| t > 0.0 && u > 0.0)
            );
            let pack = a.counters.iter().find(|(n, _)| *n == "dnn.pack_events").unwrap();
            assert_eq!(pack.1, 0.0);
        }
    }

    #[test]
    fn a_wrong_answer_is_counted_as_a_failed_op() {
        let stack = Stack::build(SMALL, TargetKind::Direct);
        let pool = ThreadPool::new(1);
        let prompt = rng::prompt(1, SMALL.hidden, 4, 0, 1, None);
        let mut state = stack.model.new_state(16);
        let y0 = stack.model.forward(&mut state, &prompt, 4, &pool);
        let y1 = stack.model.forward(&mut state, &y0[y0.len() - SMALL.hidden..], 1, &pool);
        let mut wrong = y1.clone();
        wrong[3] += 1.0;
        let request = |step_out: Vec<f32>| FirstRequest {
            slot: 0,
            prompt: prompt.clone(),
            prompt_tokens: 4,
            outputs: vec![y0.clone(), step_out],
        };
        let mut good = TrafficResult::default();
        check_outputs(&stack, &[request(y1)], 8, &mut good);
        assert_eq!((good.ops_checked, good.ops_failed), (2, 0));
        let mut bad = TrafficResult::default();
        check_outputs(&stack, &[request(wrong)], 8, &mut bad);
        assert_eq!((bad.ops_checked, bad.ops_failed), (2, 1));
        assert_eq!(good.inputs_fnv, bad.inputs_fnv);
        assert_ne!(good.outputs_fnv, bad.outputs_fnv);
    }
}
