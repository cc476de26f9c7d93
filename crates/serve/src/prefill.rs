//! Chunked prefill jobs: the unit of continuous batching.
//!
//! A prompt submitted through [`crate::Server::submit_prefill`] becomes one
//! [`PrefillJob`]: the whole prompt plus its ladder-aligned chunk widths
//! ([`pl_dnn::prefill_chunk_widths`]). The job itself never sits in a
//! queue — *chunks* do ([`crate::batcher::WorkItem::PrefillChunk`]), one at
//! a time: chunk `i + 1` is enqueued only after chunk `i` executed, so the
//! KV cache always extends in prompt order while decode batches run in
//! between. Outputs accumulate here and the completion channel fires once
//! with the full `hidden x tokens` result after the final chunk.
//!
//! A job also carries what the shard's prefix cache knew about its prompt
//! at submission ([`PrefixHit`]: the prompt's page keys and the cached
//! leading pages). When chunk 0 checks out into an empty session the
//! session adopts those pages and the job is **re-planned over the
//! remaining tokens only** ([`PrefillJob::adopt`]): fewer chunks, none at
//! all for a fully cached prompt, and the cached outputs stand in for the
//! positions that were never forwarded.

use crate::session::{SessionId, TenantId};
use crate::StepResult;
use pl_dnn::{prefill_chunk_widths, DecoderState, PrefixCache, PrefixHit};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// The chunks a job executes as: widths in execution order and the prompt
/// token each starts at.
struct Plan {
    widths: Vec<usize>,
    offsets: Vec<usize>,
}

impl Plan {
    /// Chunks of at most `chunk` tokens over prompt tokens `start..tokens`.
    fn new(start: usize, tokens: usize, chunk: usize) -> Self {
        let widths = prefill_chunk_widths(tokens - start, chunk);
        let mut offsets = Vec::with_capacity(widths.len());
        let mut at = start;
        for &w in &widths {
            offsets.push(at);
            at += w;
        }
        Plan { widths, offsets }
    }
}

/// One in-flight chunked prefill: the prompt, its chunk plan, the
/// accumulated outputs, and the completion channel.
pub struct PrefillJob {
    session: SessionId,
    tenant: TenantId,
    /// The session's program-order ticket for the **whole job** (drawn
    /// from `Session::submit_seq`, like a decode step's
    /// `StepRequest::seq`): every chunk checks out under this ticket and
    /// the cursor advances only when the job finishes (or aborts), so
    /// work pipelined behind the prefill cannot execute between chunks.
    seq: u64,
    hidden: usize,
    prompt: Vec<f32>,
    tokens: usize,
    chunk: usize,
    /// The prefix cache's view of the prompt at submission: its page keys
    /// (hashed once, there) and the cached leading pages. Knows nothing
    /// when sharing is off or the prompt is shorter than a page.
    hit: PrefixHit,
    /// The plan over the whole prompt.
    whole: Plan,
    /// The plan over the tokens after `hit`, once a session adopted it.
    suffix: OnceLock<Plan>,
    reply: Sender<StepResult>,
    /// Per-chunk outputs, appended in chunk order. At most one chunk of a
    /// job is ever in flight, so this lock is uncontended.
    out: Mutex<Vec<f32>>,
}

impl PrefillJob {
    /// Plans a prefill of `prompt` (`hidden x tokens`, column-major, at
    /// least one token) into chunks of at most `chunk` tokens; `hit` is
    /// the prefix cache's view of the prompt (`PrefixHit::default()` when
    /// it has none). Returns the job and the receiver its completion (or
    /// error) will be delivered on.
    pub fn new(
        session: SessionId,
        tenant: TenantId,
        seq: u64,
        prompt: Vec<f32>,
        tokens: usize,
        chunk: usize,
        hit: PrefixHit,
    ) -> (Arc<Self>, Receiver<StepResult>) {
        let (tx, rx) = mpsc::channel();
        let job = PrefillJob {
            session,
            tenant,
            seq,
            hidden: prompt.len() / tokens,
            out: Mutex::new(Vec::with_capacity(prompt.len())),
            prompt,
            tokens,
            chunk,
            hit,
            whole: Plan::new(0, tokens, chunk),
            suffix: OnceLock::new(),
            reply: tx,
        };
        (Arc::new(job), rx)
    }

    fn plan(&self) -> &Plan {
        self.suffix.get().unwrap_or(&self.whole)
    }

    /// Target session.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The job's program-order ticket (see the field docs).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Submitting tenant (selects the ring).
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Number of chunks this prefill executes as — 0 for a prompt whose
    /// every token was adopted from the prefix cache.
    pub fn chunks(&self) -> usize {
        self.plan().widths.len()
    }

    /// Total prompt tokens.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// Prompt tokens the session took from the prefix cache instead of
    /// forwarding (0 until [`PrefillJob::adopt`] succeeds).
    pub fn cached_tokens(&self) -> usize {
        self.suffix.get().map_or(0, |_| self.hit.tokens())
    }

    /// Token width of chunk `i`.
    pub fn chunk_tokens(&self, i: usize) -> usize {
        self.plan().widths[i]
    }

    /// Tokens the session still has to hold as of chunk `i` — this chunk
    /// and everything after it, and at chunk 0 the whole prompt (an
    /// adopted prefix occupies KV capacity like a computed one). Batch
    /// checkout validates KV capacity against this (not the single chunk
    /// width) so an oversized prefill fails **atomically at its first
    /// chunk**, before any tokens append, instead of leaving a partial
    /// prompt in the session's KV cache.
    pub fn remaining_tokens(&self, i: usize) -> usize {
        if i == 0 {
            self.tokens
        } else {
            self.tokens - self.plan().offsets[i]
        }
    }

    /// Chunk 0 is checking out into `state`: if the cached prefix found
    /// at submission can be adopted (the state is resident and empty),
    /// the state takes those KV pages by reference, their cached outputs
    /// become the head of the job's output, and the job is re-planned over
    /// the remaining tokens. Returns the tokens adopted; 0 leaves job and
    /// state exactly as they were.
    pub fn adopt(&self, state: &mut DecoderState) -> usize {
        if !state.adopt_prefix(&self.hit) {
            return 0;
        }
        let suffix = Plan::new(self.hit.tokens(), self.tokens, self.chunk);
        assert!(self.suffix.set(suffix).is_ok(), "a job checks out chunk 0 once");
        self.hit.write_outputs(&mut self.out.lock().expect("prefill output poisoned"));
        self.hit.tokens()
    }

    /// The `hidden x chunk_tokens(i)` input slice of chunk `i`.
    pub fn chunk_input(&self, i: usize) -> &[f32] {
        let start = self.plan().offsets[i] * self.hidden;
        &self.prompt[start..start + self.plan().widths[i] * self.hidden]
    }

    /// Appends chunk `i`'s output (called in chunk order by the executor).
    pub fn push_output(&self, y: Vec<f32>) {
        self.out.lock().expect("prefill output poisoned").extend(y);
    }

    /// The final chunk landed and `state` holds the prompt: registers its
    /// pages and outputs with `cache` for later prompts (a no-op without
    /// page keys, or when `state` held context before this prefill).
    pub fn register(&self, state: &DecoderState, cache: &PrefixCache) {
        let out = self.out.lock().expect("prefill output poisoned");
        state.register_prefix(cache, &self.prompt, &self.hit, &out);
    }

    /// Takes the accumulated `hidden x tokens` output (final-chunk path).
    pub fn take_output(&self) -> Vec<f32> {
        std::mem::take(&mut self.out.lock().expect("prefill output poisoned"))
    }

    /// The completion channel (one delivery per job: the full output after
    /// the final chunk, or the error that aborted it).
    pub fn reply(&self) -> &Sender<StepResult> {
        &self.reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncached(
        tokens: usize,
        prompt: Vec<f32>,
        chunk: usize,
    ) -> (Arc<PrefillJob>, Receiver<StepResult>) {
        PrefillJob::new(7, 1, 5, prompt, tokens, chunk, PrefixHit::default())
    }

    #[test]
    fn job_plans_ladder_aligned_chunks_and_accumulates() {
        let hidden = 2;
        let tokens = 11;
        let prompt: Vec<f32> = (0..hidden * tokens).map(|i| i as f32).collect();
        let (job, rx) = uncached(tokens, prompt.clone(), 4);
        assert_eq!(job.session(), 7);
        assert_eq!(job.tenant(), 1);
        assert_eq!(job.seq(), 5);
        assert_eq!(job.chunks(), 3);
        assert_eq!(job.tokens(), tokens);
        assert_eq!(
            (0..job.chunks()).map(|i| job.chunk_tokens(i)).collect::<Vec<_>>(),
            vec![4, 4, 3]
        );
        assert_eq!(
            (0..job.chunks()).map(|i| job.remaining_tokens(i)).collect::<Vec<_>>(),
            vec![11, 7, 3]
        );
        // Chunk inputs tile the prompt exactly, in order.
        let mut tiled = Vec::new();
        for i in 0..job.chunks() {
            tiled.extend_from_slice(job.chunk_input(i));
            job.push_output(job.chunk_input(i).to_vec());
        }
        assert_eq!(tiled, prompt);
        assert_eq!(job.take_output(), prompt);
        // Completion flows through the job's channel.
        job.reply().send(Ok(vec![1.0])).unwrap();
        assert_eq!(rx.recv().unwrap().unwrap(), vec![1.0]);
    }

    #[test]
    fn single_chunk_prompt_is_never_subdivided() {
        let (job, _rx) = uncached(3, vec![0.0; 4 * 3], 16);
        assert_eq!(job.chunks(), 1);
        assert_eq!(job.chunk_tokens(0), 3);
        assert_eq!(job.chunk_input(0).len(), 12);
    }

    #[test]
    fn an_adopted_prefix_replans_the_job_over_the_suffix() {
        use pl_dnn::{DecoderConfig, DecoderModel, KvPagePool};
        let cfg = DecoderConfig::scaled_for_tests();
        let model = DecoderModel::new(cfg, 3);
        let kvpool = KvPagePool::new(cfg.hidden, 4);
        let cache = PrefixCache::new(&kvpool, 16);
        let pool = pl_runtime::ThreadPool::new(1);
        let tokens = 11; // two full pages and a 3-token tail
        let prompt: Vec<f32> = (0..cfg.hidden * tokens).map(|i| (i % 13) as f32 / 13.0).collect();
        let mut first = model.new_state_in(&kvpool, 32);
        let want = model.forward(&mut first, &prompt, tokens, &pool);
        first.register_prefix(&cache, &prompt, &cache.lookup(&prompt), &want);

        let job = |chunk| {
            let hit = cache.lookup(&prompt);
            PrefillJob::new(1, 0, 0, prompt.clone(), tokens, chunk, hit).0
        };
        // A session with context refuses the prefix: the whole-prompt plan
        // stands and nothing counts as cached.
        let job_a = job(2);
        assert_eq!(job_a.adopt(&mut first), 0);
        assert_eq!((job_a.chunks(), job_a.cached_tokens()), (6, 0));
        // An empty one adopts 8 tokens; 3 remain: chunks of 2 and 1,
        // starting at token 8, and capacity is still checked for all 11.
        let mut state = model.new_state_in(&kvpool, 32);
        assert_eq!(job_a.adopt(&mut state), 8);
        assert_eq!((job_a.chunks(), job_a.cached_tokens()), (2, 8));
        assert_eq!((job_a.chunk_tokens(0), job_a.chunk_tokens(1)), (2, 1));
        assert_eq!((job_a.remaining_tokens(0), job_a.remaining_tokens(1)), (11, 1));
        assert_eq!(job_a.chunk_input(0), &prompt[8 * cfg.hidden..10 * cfg.hidden]);
        for i in 0..job_a.chunks() {
            let y = model.forward(&mut state, job_a.chunk_input(i), job_a.chunk_tokens(i), &pool);
            job_a.push_output(y);
        }
        job_a.register(&state, &cache);
        assert_eq!(job_a.take_output(), want, "cached outputs lead, computed ones follow");
    }
}
