//! The dynamic batcher: coalesces pending work items into
//! BRGEMM-friendly batches with per-tenant fairness.
//!
//! Work items — decode steps *and* prefill chunks ([`WorkItem`]) — land in
//! one bounded ring per tenant ([`BoundedQueue`]); batch formation
//! round-robins over the tenants starting from a cursor **claimed
//! atomically per collect** (`fetch_update`), taking one request per
//! tenant per lap until the batch is full or every ring is empty. Each
//! collect claims a distinct start, so under saturation every tenant gets
//! within one request of an equal share no matter how asymmetric the
//! offered load is — and no matter how many threads pump concurrently
//! (two pumpers reading the *same* cursor value would both start at the
//! same tenant and structurally favor it; the claimed cursor makes their
//! starts rotate) — the admission-control analogue of the paper's
//! PAR-MODE dynamic schedule (work is *pulled* fairly, never pushed to a
//! fixed owner).
//!
//! Ahead of the rings sits a FIFO **side-queue** ([`DynamicBatcher::defer`])
//! drained first by every collect. It carries work that was *already
//! admitted* but could not run in its batch — pipelined duplicate-session
//! steps and continuation prefill chunks. Deferring back to the ring tail
//! would let a session's step N+1 (still ring-queued) execute before its
//! deferred step N; the side-queue preserves program order. Collects take
//! at most **one** prefill chunk from it (surplus chunks are skipped in
//! place, order intact), so concurrent prefill jobs cannot fill every
//! batch with chunks and starve ring-queued decode steps.

use crate::prefill::PrefillJob;
use crate::queue::BoundedQueue;
use crate::session::{SessionId, TenantId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One pending decode step.
pub struct StepRequest {
    /// Target session.
    pub session: SessionId,
    /// Submitting tenant (also selects the ring).
    pub tenant: TenantId,
    /// Per-session program-order ticket (drawn from
    /// `Session::submit_seq` at submit): batch checkout only executes
    /// the step whose ticket matches the session's `exec_seq` cursor,
    /// deferring later tickets, so concurrent pumps cannot reorder a
    /// pipelined stream.
    pub seq: u64,
    /// The token's `hidden` input values.
    pub x: Vec<f32>,
    /// Submission time (latency accounting).
    pub enqueued: Instant,
    /// Completion channel back to the caller.
    pub reply: Sender<crate::StepResult>,
}

/// One pending prefill chunk: chunk `chunk` of `job` (the job holds the
/// prompt and accumulates outputs; see [`PrefillJob`]).
pub struct ChunkItem {
    /// The owning prefill job.
    pub job: Arc<PrefillJob>,
    /// Which chunk of the job this is (`0..job.chunks()`).
    pub chunk: usize,
    /// When this chunk was (re-)enqueued (chunk latency accounting).
    pub enqueued: Instant,
}

/// A unit of admitted work the batcher schedules: one decode step or one
/// prefill chunk. Both flow through the same rings and the same batch
/// formation, which is what lets a long prompt interleave with live
/// decode traffic instead of monopolizing the pool.
pub enum WorkItem {
    /// One session's next-token decode step.
    Decode(StepRequest),
    /// One bounded chunk of a session's prefill.
    PrefillChunk(ChunkItem),
}

impl WorkItem {
    /// Target session.
    pub fn session(&self) -> SessionId {
        match self {
            WorkItem::Decode(r) => r.session,
            WorkItem::PrefillChunk(c) => c.job.session(),
        }
    }

    /// Submitting tenant (selects the ring).
    pub fn tenant(&self) -> TenantId {
        match self {
            WorkItem::Decode(r) => r.tenant,
            WorkItem::PrefillChunk(c) => c.job.tenant(),
        }
    }

    /// The reply channel an error/bounce for this item is delivered on.
    pub fn reply(&self) -> &Sender<crate::StepResult> {
        match self {
            WorkItem::Decode(r) => &r.reply,
            WorkItem::PrefillChunk(c) => c.job.reply(),
        }
    }
}

/// Per-tenant rings plus the deferred side-queue and fairness cursor.
pub struct DynamicBatcher {
    queues: Vec<BoundedQueue<WorkItem>>,
    /// Already-admitted work replayed ahead of the rings (program-order
    /// deferred duplicates, continuation prefill chunks).
    deferred: Mutex<VecDeque<WorkItem>>,
    cursor: AtomicUsize,
}

impl DynamicBatcher {
    /// `tenants` rings of `capacity` requests each.
    pub fn new(tenants: usize, capacity: usize) -> Self {
        DynamicBatcher {
            queues: (0..tenants.max(1)).map(|_| BoundedQueue::new(capacity)).collect(),
            deferred: Mutex::new(VecDeque::new()),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of tenant rings.
    pub fn tenants(&self) -> usize {
        self.queues.len()
    }

    /// Pending items across all tenants plus the side-queue (approximate).
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum::<usize>()
            + self.deferred.lock().expect("deferred queue poisoned").len()
    }

    /// Pending items for one tenant, side-queue included (approximate).
    pub fn pending_for(&self, tenant: TenantId) -> usize {
        let ring = self.queues.get(tenant).map_or(0, |q| q.len());
        let deferred = self.deferred.lock().expect("deferred queue poisoned");
        ring + deferred.iter().filter(|i| i.tenant() == tenant).count()
    }

    /// Enqueues an item on its tenant's ring; a full ring returns the
    /// item back: the backpressure signal.
    pub fn submit(&self, item: WorkItem) -> Result<(), WorkItem> {
        match self.queues.get(item.tenant()) {
            Some(q) => q.push(item),
            None => Err(item),
        }
    }

    /// Re-queues already-admitted work onto the FIFO side-queue, which the
    /// next collect drains **ahead of the rings**: a deferred step never
    /// falls behind its session's later steps still sitting in a ring,
    /// and a continuation prefill chunk runs at the next opportunity.
    /// Unbounded by design — everything here was already admitted through
    /// a bounded ring, so this cannot grow past the rings' capacity plus
    /// one continuation chunk per live prefill.
    pub fn defer(&self, item: WorkItem) {
        self.deferred.lock().expect("deferred queue poisoned").push_back(item);
    }

    /// Forms the next batch: up to `max_batch` items — the side-queue
    /// first (FIFO), then round-robin across tenants from an atomically
    /// claimed cursor. Returns an empty vector when nothing is pending.
    /// Safe to call from multiple threads concurrently: rings are MPMC
    /// and each collect claims its own start tenant.
    pub fn collect(&self, max_batch: usize) -> Vec<WorkItem> {
        let mut batch = Vec::new();
        {
            let mut deferred = self.deferred.lock().expect("deferred queue poisoned");
            // At most one prefill chunk rides per batch (`run_batch`
            // admits no more), so surplus chunks are *skipped in place* —
            // relative order preserved — rather than collected and
            // re-deferred. Without the cap, `max_batch` or more concurrent
            // prefill jobs keep that many continuation chunks parked here,
            // every collect fills the whole batch from the side-queue, and
            // ring-queued decode steps starve until the prefills complete:
            // cross-session head-of-line blocking, the very thing chunked
            // admission exists to prevent. Skipped chunks stay at the
            // front, so prefill jobs still round-robin (an executed
            // chunk's continuation re-enters at the back).
            let mut skipped_chunks: Vec<WorkItem> = Vec::new();
            let mut has_chunk = false;
            while batch.len() < max_batch {
                match deferred.pop_front() {
                    Some(item) => {
                        if matches!(item, WorkItem::PrefillChunk(_)) {
                            if has_chunk {
                                skipped_chunks.push(item);
                                continue;
                            }
                            has_chunk = true;
                        }
                        batch.push(item);
                    }
                    None => break,
                }
            }
            for item in skipped_chunks.into_iter().rev() {
                deferred.push_front(item);
            }
        }
        if batch.len() >= max_batch {
            return batch;
        }
        let n = self.queues.len();
        // Claim-then-scan: each collect owns a distinct start tenant, so
        // concurrent pumpers rotate instead of double-starting on the
        // same ring (which would structurally favor it for a whole lap).
        let start = self
            .cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some((c + 1) % n))
            .unwrap_or(0);
        let mut exhausted = vec![false; n];
        let mut live = n;
        let mut offset = 0usize;
        while batch.len() < max_batch && live > 0 {
            let t = (start + offset) % n;
            offset = (offset + 1) % n;
            if exhausted[t] {
                continue;
            }
            match self.queues[t].pop() {
                Some(item) => batch.push(item),
                None => {
                    exhausted[t] = true;
                    live -= 1;
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn req(tenant: TenantId, session: SessionId) -> WorkItem {
        let (tx, _rx) = channel();
        // Keep the receiver alive via leak so sends in tests don't error.
        std::mem::forget(_rx);
        WorkItem::Decode(StepRequest {
            session,
            tenant,
            seq: 0,
            x: vec![0.0],
            enqueued: Instant::now(),
            reply: tx,
        })
    }

    #[test]
    fn coalesces_up_to_max_batch() {
        let b = DynamicBatcher::new(1, 16);
        for i in 0..6 {
            b.submit(req(0, i)).unwrap_or_else(|_| panic!("ring full"));
        }
        let batch = b.collect(4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.iter().map(|r| r.session()).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(b.collect(4).len(), 2);
        assert!(b.collect(4).is_empty());
    }

    #[test]
    fn round_robin_is_fair_under_asymmetric_load() {
        let b = DynamicBatcher::new(3, 32);
        // Tenant 0 floods; tenants 1 and 2 trickle.
        for i in 0..20 {
            b.submit(req(0, i)).unwrap_or_else(|_| panic!());
        }
        b.submit(req(1, 100)).unwrap_or_else(|_| panic!());
        b.submit(req(2, 200)).unwrap_or_else(|_| panic!());
        let batch = b.collect(6);
        assert_eq!(batch.len(), 6);
        let t1 = batch.iter().filter(|r| r.tenant() == 1).count();
        let t2 = batch.iter().filter(|r| r.tenant() == 2).count();
        let t0 = batch.iter().filter(|r| r.tenant() == 0).count();
        assert_eq!(t1, 1, "trickle tenant 1 must make the batch");
        assert_eq!(t2, 1, "trickle tenant 2 must make the batch");
        assert_eq!(t0, 4, "flooding tenant fills the remainder");
    }

    #[test]
    fn cursor_rotates_start_tenant_across_batches() {
        let b = DynamicBatcher::new(2, 8);
        for i in 0..4 {
            b.submit(req(0, i)).unwrap_or_else(|_| panic!());
            b.submit(req(1, 10 + i)).unwrap_or_else(|_| panic!());
        }
        let first = b.collect(2);
        let second = b.collect(2);
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        // Batch 1 starts at tenant 0, batch 2 at tenant 1.
        assert_eq!(first[0].tenant(), 0);
        assert_eq!(second[0].tenant(), 1);
    }

    #[test]
    fn deferred_side_queue_is_drained_ahead_of_the_rings_in_fifo_order() {
        let b = DynamicBatcher::new(1, 8);
        b.submit(req(0, 3)).unwrap_or_else(|_| panic!());
        // Steps 1 and 2 of some session were deferred out of an earlier
        // batch; step 3 is still ring-queued behind them in program order.
        b.defer(req(0, 1));
        b.defer(req(0, 2));
        let batch = b.collect(8);
        assert_eq!(
            batch.iter().map(|r| r.session()).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "deferred items replay first, in FIFO order, ahead of the ring"
        );
        // A partial drain leaves the remainder at the side-queue front.
        b.defer(req(0, 4));
        b.defer(req(0, 5));
        assert_eq!(b.pending(), 2);
        assert_eq!(b.collect(1)[0].session(), 4);
        assert_eq!(b.collect(1)[0].session(), 5);
    }

    #[test]
    fn concurrent_pumpers_stay_fair_across_tenants() {
        // Satellite regression: two threads collecting concurrently used
        // to read the *same* cursor value — both batches started at the
        // same tenant and the cursor advanced once for two batches, so one
        // ring was structurally favored for a whole lap. With the claimed
        // (`fetch_update`) cursor, 12 single-item collects over 3 equally
        // loaded tenants must take from each tenant within one request of
        // an equal share, no matter how the two pumpers interleave.
        let b = std::sync::Arc::new(DynamicBatcher::new(3, 32));
        for t in 0..3 {
            for i in 0..8 {
                b.submit(req(t, (t * 100 + i) as SessionId)).unwrap_or_else(|_| panic!());
            }
        }
        let counts = std::sync::Mutex::new([0usize; 3]);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let b = std::sync::Arc::clone(&b);
                let counts = &counts;
                scope.spawn(move || {
                    for _ in 0..6 {
                        let batch = b.collect(1);
                        assert_eq!(batch.len(), 1, "all rings non-empty");
                        counts.lock().unwrap()[batch[0].tenant()] += 1;
                    }
                });
            }
        });
        let counts = counts.into_inner().unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 12);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(
            max - min <= 1,
            "per-tenant share must be within one request under concurrent pumps: {counts:?}"
        );
    }

    fn chunk(tenant: TenantId, session: SessionId) -> WorkItem {
        let (job, rx) = PrefillJob::new(session, tenant, 0, vec![0.0; 8], 8, 4, Default::default());
        std::mem::forget(rx);
        WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, enqueued: Instant::now() })
    }

    #[test]
    fn side_queue_yields_at_most_one_chunk_per_collect_so_decode_cannot_starve() {
        // Regression: `max_batch` (or more) concurrent prefill jobs park
        // that many continuation chunks in the side-queue; collect used to
        // fill the whole batch from it — of which run_batch executes
        // exactly one, re-deferring the rest — so ring-queued decode steps
        // were never collected until every prefill finished:
        // cross-session head-of-line blocking.
        let b = DynamicBatcher::new(1, 8);
        b.defer(chunk(0, 10));
        b.defer(chunk(0, 11));
        b.defer(chunk(0, 12));
        b.submit(req(0, 1)).unwrap_or_else(|_| panic!());
        b.submit(req(0, 2)).unwrap_or_else(|_| panic!());
        let batch = b.collect(3);
        assert_eq!(batch.len(), 3, "decode steps fill the lanes the skipped chunks freed");
        let chunks = |items: &[WorkItem]| {
            items.iter().filter(|i| matches!(i, WorkItem::PrefillChunk(_))).count()
        };
        assert_eq!(chunks(&batch), 1, "at most one prefill chunk per batch");
        assert_eq!(
            batch.iter().map(|i| i.session()).collect::<Vec<_>>(),
            vec![10, 1, 2],
            "FIFO head chunk rides; ring decode steps take the remaining lanes"
        );
        // Skipped chunks stayed at the side-queue front, order intact,
        // still one per subsequent batch.
        let second = b.collect(3);
        assert_eq!(second.iter().map(|i| i.session()).collect::<Vec<_>>(), vec![11]);
        assert_eq!(chunks(&second), 1);
        assert_eq!(b.collect(3).iter().map(|i| i.session()).collect::<Vec<_>>(), vec![12]);
        assert!(b.collect(3).is_empty());
    }

    #[test]
    fn backpressure_rejects_when_ring_full() {
        let b = DynamicBatcher::new(1, 2);
        b.submit(req(0, 0)).unwrap_or_else(|_| panic!());
        b.submit(req(0, 1)).unwrap_or_else(|_| panic!());
        let rejected = b.submit(req(0, 2));
        assert!(rejected.is_err(), "third submit into capacity-2 ring must bounce");
        assert_eq!(rejected.err().unwrap().session(), 2);
        assert_eq!(b.pending_for(0), 2);
        // The side-queue is exempt from ring capacity: already-admitted
        // work is never dropped on re-queue.
        b.defer(req(0, 3));
        assert_eq!(b.pending_for(0), 3);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let b = DynamicBatcher::new(2, 4);
        assert!(b.submit(req(7, 0)).is_err());
    }
}
