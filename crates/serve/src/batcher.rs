//! The session table: every live session, the work queued for it, and
//! the batch formation over both — admission, ordering and checkout are
//! decided here, under the one mutex the server holds the table behind.
//!
//! Each session's admitted work — decode steps *and* prefill chunks
//! ([`WorkItem`]) — waits in a FIFO inside the session's own slot. A
//! collect ([`SessionTable::collect`]) round-robins over the tenants from
//! a start that rotates per collect, taking one session per tenant per
//! lap; within a tenant it takes sessions in the order their work became
//! runnable. It pops the **head** item of each session it takes and
//! checks that session out in the same critical section, so a session
//! contributes at most one item to a batch and runs one item at a time,
//! in submission order, by construction — there is nothing to reorder.
//! At most one prefill chunk rides per batch: a session whose head is a
//! second chunk keeps its place for the next collect, so concurrent
//! prefills cannot fill every batch with chunks and starve decode.
//!
//! A chunk's successor goes back to the **front** of its session's FIFO
//! when the chunk checks in ([`SessionTable::check_in`]), so work queued
//! behind a prefill runs only after the prompt's last chunk. Removing a
//! session is one more FIFO item ([`SessionTable::remove`]), performed by
//! the collect that finds it at the head. Work queued behind a removal or
//! on a session whose batch failed, and every step and chunk at shutdown,
//! comes back as [`Refused`] items for the server to answer.
//!
//! Backpressure is per tenant: a submit is refused once the tenant's
//! queued items reach `queue_capacity`. A removal counts as queued but is
//! never refused.

use crate::prefill::PrefillJob;
use crate::session::{Session, SessionId, TenantId};
use crate::{ServeError, StepResult};
use pl_dnn::DecoderState;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

/// One pending decode step.
pub(crate) struct StepRequest {
    /// The token's `hidden` input values.
    pub x: Vec<f32>,
    /// Submission time (latency accounting).
    pub enqueued: Instant,
    /// Completion channel back to the caller.
    pub reply: Sender<StepResult>,
}

/// One pending prefill chunk: chunk `chunk` of `job` (the job holds the
/// prompt and accumulates outputs; see [`PrefillJob`]).
pub(crate) struct ChunkItem {
    /// The owning prefill job.
    pub job: Arc<PrefillJob>,
    /// Which chunk of the job this is (`0..job.chunks()`).
    pub chunk: usize,
    /// When this chunk was queued (chunk latency accounting).
    pub enqueued: Instant,
}

/// What a removal resolves to: the session, out of the table.
pub(crate) type Removed = Result<Session, ServeError>;

/// A unit of admitted work. Steps and chunks wait in the same session
/// FIFOs and ride the same batches, which is what lets a long prompt
/// interleave with live decode traffic instead of monopolizing the pool;
/// a removal takes no batch lane.
pub(crate) enum WorkItem {
    /// One next-token decode step.
    Decode(StepRequest),
    /// One bounded chunk of a prefill.
    PrefillChunk(ChunkItem),
    /// Close or export: the session is handed over on this channel.
    Remove(Sender<Removed>),
}

/// Queued work handed back unexecuted, to be answered with `err`.
pub(crate) struct Refused {
    /// The tenant the work was queued under.
    pub tenant: TenantId,
    /// The work item.
    pub item: WorkItem,
    /// The answer.
    pub err: ServeError,
}

/// What one collect took out of the table.
#[derive(Default)]
pub(crate) struct Batch {
    /// Items to execute, each with its checked-out session; at most one
    /// is a prefill chunk, and none a removal.
    pub ready: Vec<(WorkItem, Session)>,
    /// Prefill jobs every token of which the session adopted from the
    /// prefix cache: answered without a forward, the session resident.
    pub cached: Vec<(TenantId, Arc<PrefillJob>)>,
    /// Items refused at checkout: those their session's KV cannot hold,
    /// and those queued behind a removal this collect performed.
    pub refused: Vec<Refused>,
}

/// Where a slot's session is.
enum Residence {
    /// In the table, claimable by a collect.
    Live(Session),
    /// Checked out by an executing batch.
    CheckedOut,
}

/// One session's entry: its tenant, its queued work, and the session.
struct Slot {
    tenant: TenantId,
    queue: VecDeque<WorkItem>,
    residence: Residence,
}

/// Every live session of a server, with its queued work.
pub(crate) struct SessionTable {
    slots: HashMap<SessionId, Slot>,
    /// Per tenant: the resident sessions with queued work, in the order
    /// their work became runnable.
    runnable: Vec<VecDeque<SessionId>>,
    /// Per tenant: queued items (the backpressure count).
    queued: Vec<usize>,
    queue_capacity: usize,
    max_sessions: usize,
    next_id: SessionId,
    /// The tenant the next collect starts from.
    cursor: TenantId,
}

impl SessionTable {
    /// An empty table for `tenants` tenants, each allowed `queue_capacity`
    /// queued items (at least 1), and at most `max_sessions` sessions.
    pub fn new(tenants: usize, queue_capacity: usize, max_sessions: usize) -> Self {
        SessionTable {
            slots: HashMap::new(),
            runnable: vec![VecDeque::new(); tenants],
            queued: vec![0; tenants],
            queue_capacity: queue_capacity.max(1),
            max_sessions,
            next_id: 1,
            cursor: 0,
        }
    }

    /// Live sessions, checked-out ones included.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Queued items across all tenants.
    pub fn pending(&self) -> usize {
        self.queued.iter().sum()
    }

    /// Admits a session of `tenant` over `state`, `generated` tokens into
    /// its stream, and returns its id.
    pub fn insert(
        &mut self,
        tenant: TenantId,
        state: DecoderState,
        generated: u64,
    ) -> Result<SessionId, ServeError> {
        if tenant >= self.queued.len() {
            return Err(ServeError::UnknownTenant(tenant));
        }
        if self.slots.len() >= self.max_sessions {
            return Err(ServeError::TooManySessions { limit: self.max_sessions });
        }
        let id = self.next_id;
        self.next_id += 1;
        let mut sess = Session::new(id, tenant, state);
        sess.generated = generated;
        let slot = Slot { tenant, queue: VecDeque::new(), residence: Residence::Live(sess) };
        self.slots.insert(id, slot);
        Ok(id)
    }

    /// Queues `item` at the back of session `id`'s FIFO and returns the
    /// session's tenant. A resident session is checked for `need` more
    /// tokens of KV capacity (a checked-out one is checked at checkout);
    /// a tenant with `queue_capacity` items queued refuses the item.
    pub fn submit(
        &mut self,
        id: SessionId,
        need: usize,
        item: WorkItem,
    ) -> Result<TenantId, ServeError> {
        let slot = self.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        let t = slot.tenant;
        let resident = match &slot.residence {
            Residence::Live(sess) if !sess.fits(need) => {
                let capacity = sess.state.capacity();
                return Err(ServeError::KvExhausted { context: sess.context_len(), capacity });
            }
            Residence::Live(_) => true,
            Residence::CheckedOut => false,
        };
        if self.queued[t] >= self.queue_capacity {
            return Err(ServeError::Backpressure { tenant: t });
        }
        if resident && slot.queue.is_empty() {
            self.runnable[t].push_back(id);
        }
        slot.queue.push_back(item);
        self.queued[t] += 1;
        Ok(t)
    }

    /// Forms the next batch: up to `max_batch` items, one per session,
    /// round-robin over the tenants from a start that rotates per
    /// collect. Every item taken checks its session out; items the
    /// session cannot hold are refused, fully cached prefills answered and
    /// removals at the head of their session performed on the way.
    pub fn collect(&mut self, max_batch: usize) -> Batch {
        let mut batch = Batch::default();
        if self.pending() == 0 {
            return batch;
        }
        let n = self.runnable.len();
        let start = self.cursor;
        self.cursor = (start + 1) % n;
        // Per tenant, where the walk of its runnable sessions resumes
        // (sessions a second chunk holds back keep their place before
        // it), or `None` once it has nothing more for this batch.
        let mut from = vec![Some(0); n];
        while batch.ready.len() < max_batch && from.iter().any(Option::is_some) {
            for t in (start..start + n).map(|t| t % n) {
                if batch.ready.len() == max_batch {
                    break;
                }
                if let Some(i) = from[t] {
                    from[t] = self.take_one(t, i, &mut batch);
                }
            }
        }
        batch
    }

    /// Walks tenant `t`'s runnable sessions from index `i` and checks out
    /// the first whose head item can join `batch`, performing the
    /// removals it finds at a head on the way. Returns the index to resume
    /// from, or `None` when no session of `t` could give one.
    fn take_one(&mut self, t: TenantId, mut i: usize, batch: &mut Batch) -> Option<usize> {
        let has_chunk =
            batch.ready.iter().any(|(item, _)| matches!(item, WorkItem::PrefillChunk(_)));
        while let Some(&id) = self.runnable[t].get(i) {
            let slot = self.slots.get_mut(&id).expect("a runnable session has a slot");
            let Residence::Live(mut sess) =
                std::mem::replace(&mut slot.residence, Residence::CheckedOut)
            else {
                unreachable!("a runnable session is resident")
            };
            let mut answered = false;
            let taken = loop {
                match slot.queue.front() {
                    Some(WorkItem::PrefillChunk(_)) if has_chunk => break None,
                    // Left to the next collect, which starts after the
                    // server answered this one's refusals and cached hits.
                    Some(WorkItem::Remove(_)) if answered => break None,
                    None => break None,
                    Some(_) => {}
                }
                let item = slot.queue.pop_front().expect("the head was just seen");
                self.queued[t] -= 1;
                answered = true;
                // A decode step needs one token; a chunk needs the job's
                // whole remaining prompt, so an oversized prefill (admitted
                // while the session was checked out) fails at its first
                // chunk, before any token appends.
                let need = match &item {
                    WorkItem::Remove(_) => break Some(item),
                    WorkItem::Decode(_) => 1,
                    WorkItem::PrefillChunk(c) => c.job.remaining_tokens(c.chunk),
                };
                if !sess.fits(need) {
                    let capacity = sess.state.capacity();
                    let err = ServeError::KvExhausted { context: sess.context_len(), capacity };
                    batch.refused.push(Refused { tenant: t, item, err });
                    continue;
                }
                if let WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, .. }) = &item {
                    // The one moment the cached prefix found at submission
                    // can be adopted: the session is in hand and this is
                    // its next work.
                    job.adopt(&mut sess.state);
                    if job.chunks() == 0 {
                        batch.cached.push((t, Arc::clone(job)));
                        continue;
                    }
                }
                break Some(item);
            };
            match taken {
                Some(WorkItem::Remove(reply)) => {
                    // The walk resumes at `i`, where the unlink moved the
                    // next runnable session.
                    let _ = reply.send(Ok(sess));
                    batch.refused.extend(self.discard(id));
                }
                Some(item) => {
                    batch.ready.push((item, sess));
                    self.runnable[t].remove(i);
                    return Some(i);
                }
                None => {
                    slot.residence = Residence::Live(sess);
                    if slot.queue.is_empty() {
                        self.runnable[t].remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        None
    }

    /// Checks `sess` back in after its batch, with `next` (a prefill's
    /// next chunk) at the front of its FIFO.
    pub fn check_in(&mut self, sess: Session, next: Option<WorkItem>) {
        let slot = self.slots.get_mut(&sess.id).expect("a checked-out session keeps its slot");
        if let Some(next) = next {
            slot.queue.push_front(next);
            self.queued[slot.tenant] += 1;
        }
        if !slot.queue.is_empty() {
            self.runnable[slot.tenant].push_back(sess.id);
        }
        slot.residence = Residence::Live(sess);
    }

    /// Removes session `id` in program order: a resident session with
    /// nothing queued is sent on `reply` at once; otherwise the removal
    /// waits at the back of the session's FIFO for a collect to perform.
    /// Neither the tenant's queue bound nor shutdown refuses it.
    pub fn remove(&mut self, id: SessionId, reply: Sender<Removed>) -> Result<(), ServeError> {
        let slot = self.slots.get_mut(&id).ok_or(ServeError::UnknownSession(id))?;
        if !slot.queue.is_empty() || matches!(slot.residence, Residence::CheckedOut) {
            slot.queue.push_back(WorkItem::Remove(reply));
            self.queued[slot.tenant] += 1;
        } else if let Some(Slot { residence: Residence::Live(sess), .. }) = self.slots.remove(&id) {
            let _ = reply.send(Ok(sess));
        }
        Ok(())
    }

    /// Answers every queued step and chunk `ShuttingDown`. Removals stay
    /// queued, in order, for the next collect to perform.
    pub fn drain(&mut self) -> Vec<Refused> {
        let mut refused = Vec::new();
        for slot in self.slots.values_mut() {
            let tenant = slot.tenant;
            for item in std::mem::take(&mut slot.queue) {
                match item {
                    WorkItem::Remove(_) => slot.queue.push_back(item),
                    item => {
                        self.queued[tenant] -= 1;
                        refused.push(Refused { tenant, item, err: ServeError::ShuttingDown });
                    }
                }
            }
        }
        let slots = &self.slots;
        for runnable in &mut self.runnable {
            runnable.retain(|id| !slots[id].queue.is_empty());
        }
        refused
    }

    /// Whether a batch holds session `id` checked out.
    #[cfg(test)]
    pub(crate) fn checked_out(&self, id: SessionId) -> bool {
        matches!(self.slots.get(&id), Some(Slot { residence: Residence::CheckedOut, .. }))
    }

    /// Drops session `id` from the table — removed, or checked out by a
    /// batch that failed with its KV half-appended — and hands back its
    /// queued work to be answered (`UnknownSession`).
    pub fn discard(&mut self, id: SessionId) -> Vec<Refused> {
        let slot = self.slots.remove(&id).expect("discarding a known session");
        let t = slot.tenant;
        self.runnable[t].retain(|&s| s != id);
        self.queued[t] -= slot.queue.len();
        let err = ServeError::UnknownSession(id);
        slot.queue.into_iter().map(|item| Refused { tenant: t, item, err: err.clone() }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_dnn::{DecoderConfig, DecoderModel};
    use std::sync::{mpsc, Mutex};

    fn model() -> DecoderModel {
        DecoderModel::new(DecoderConfig::scaled_for_tests(), 5)
    }

    /// A decode step whose input is `[tag]`, so a test can tell steps apart.
    fn step(tag: f32) -> WorkItem {
        let (reply, rx) = mpsc::channel();
        // Keep the receiver alive so answering the item cannot fail.
        std::mem::forget(rx);
        WorkItem::Decode(StepRequest { x: vec![tag], enqueued: Instant::now(), reply })
    }

    /// Chunk 0 of an 8-token prefill in chunks of 4.
    fn chunk() -> WorkItem {
        let (job, rx) = PrefillJob::new(vec![0.0; 8], 8, 4, Default::default());
        std::mem::forget(rx);
        WorkItem::PrefillChunk(ChunkItem { job, chunk: 0, enqueued: Instant::now() })
    }

    /// `n` sessions of `tenant`, each with `item()` queued.
    fn queued(
        table: &mut SessionTable,
        model: &DecoderModel,
        tenant: TenantId,
        n: usize,
        item: impl Fn() -> WorkItem,
    ) -> Vec<SessionId> {
        (0..n)
            .map(|_| {
                let id = table.insert(tenant, model.new_state(16), 0).unwrap();
                table.submit(id, 0, item()).unwrap_or_else(|e| panic!("{e}"));
                id
            })
            .collect()
    }

    fn sessions(batch: &Batch) -> Vec<SessionId> {
        batch.ready.iter().map(|(_, sess)| sess.id).collect()
    }

    fn tenants(batch: &Batch) -> Vec<TenantId> {
        batch.ready.iter().map(|(_, sess)| sess.tenant).collect()
    }

    fn chunks(batch: &Batch) -> usize {
        batch.ready.iter().filter(|(item, _)| matches!(item, WorkItem::PrefillChunk(_))).count()
    }

    #[test]
    fn coalesces_up_to_max_batch() {
        let model = model();
        let mut table = SessionTable::new(1, 16, 16);
        let ids = queued(&mut table, &model, 0, 6, || step(0.0));
        let batch = table.collect(4);
        assert_eq!(sessions(&batch), ids[..4], "sessions in the order their work arrived");
        assert_eq!(table.collect(4).ready.len(), 2);
        assert!(table.collect(4).ready.is_empty());
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn round_robin_is_fair_under_asymmetric_load() {
        let model = model();
        let mut table = SessionTable::new(3, 32, 32);
        // Tenant 0 floods; tenants 1 and 2 trickle.
        queued(&mut table, &model, 0, 20, || step(0.0));
        queued(&mut table, &model, 1, 1, || step(0.0));
        queued(&mut table, &model, 2, 1, || step(0.0));
        let batch = table.collect(6);
        let count = |t| tenants(&batch).iter().filter(|&&x| x == t).count();
        assert_eq!(count(1), 1, "trickle tenant 1 must make the batch");
        assert_eq!(count(2), 1, "trickle tenant 2 must make the batch");
        assert_eq!(count(0), 4, "flooding tenant fills the remainder");
    }

    #[test]
    fn cursor_rotates_start_tenant_across_batches() {
        let model = model();
        let mut table = SessionTable::new(2, 8, 8);
        queued(&mut table, &model, 0, 4, || step(0.0));
        queued(&mut table, &model, 1, 4, || step(0.0));
        // Batch 1 starts at tenant 0, batch 2 at tenant 1.
        assert_eq!(tenants(&table.collect(2)), [0, 1]);
        assert_eq!(tenants(&table.collect(2)), [1, 0]);
    }

    #[test]
    fn a_sessions_work_runs_in_fifo_order_with_a_prefills_chunks_first() {
        // A session's work drains in submission order, one item per
        // collect, and a prefill's next chunk, checked in at the front of
        // its FIFO, runs ahead of the steps queued behind the prefill.
        let model = model();
        let mut table = SessionTable::new(1, 8, 8);
        let id = queued(&mut table, &model, 0, 1, chunk)[0];
        table.submit(id, 0, step(1.0)).unwrap_or_else(|e| panic!("{e}"));
        table.submit(id, 0, step(2.0)).unwrap_or_else(|e| panic!("{e}"));
        let mut order = Vec::new();
        while table.pending() > 0 {
            let batch = table.collect(8);
            assert_eq!(batch.ready.len(), 1, "one item of a session per batch");
            let (item, sess) = batch.ready.into_iter().next().unwrap();
            let next = match &item {
                WorkItem::Decode(req) => {
                    order.push(format!("step {}", req.x[0]));
                    None
                }
                WorkItem::PrefillChunk(c) => {
                    order.push(format!("chunk {}", c.chunk));
                    let job = Arc::clone(&c.job);
                    (c.chunk + 1 < c.job.chunks()).then(|| {
                        WorkItem::PrefillChunk(ChunkItem {
                            job,
                            chunk: 1,
                            enqueued: Instant::now(),
                        })
                    })
                }
                WorkItem::Remove(_) => unreachable!("nothing is removed"),
            };
            table.check_in(sess, next);
        }
        assert_eq!(order, ["chunk 0", "chunk 1", "step 1", "step 2"]);
    }

    #[test]
    fn a_removal_runs_in_program_order_and_refuses_what_queued_behind_it() {
        // A resident session with nothing queued leaves at once. Otherwise
        // the removal waits at the back of the FIFO — accepted past the
        // tenant's queue bound, and while a batch holds the session — and
        // the collect that finds it at the head takes no lane, hands the
        // session over and refuses what was queued behind it.
        let model = model();
        let mut table = SessionTable::new(1, 2, 8);
        let idle = table.insert(0, model.new_state(16), 0).unwrap();
        let (tx, rx) = mpsc::channel();
        table.remove(idle, tx).unwrap();
        assert_eq!(rx.try_recv().unwrap().unwrap().id, idle, "an idle session leaves at once");
        let id = queued(&mut table, &model, 0, 1, || step(1.0))[0];
        table.submit(id, 0, step(2.0)).unwrap_or_else(|e| panic!("{e}"));
        let (item, sess) = table.collect(8).ready.pop().unwrap();
        assert!(matches!(item, WorkItem::Decode(_)));
        let (first, done) = mpsc::channel();
        table.remove(id, first).unwrap();
        let (second, refused) = mpsc::channel();
        table.remove(id, second).unwrap();
        assert!(matches!(table.submit(id, 0, step(3.0)), Err(ServeError::Backpressure { .. })));
        assert_eq!(table.pending(), 3, "step 2 and both removals");
        table.check_in(sess, None);
        let (item, sess) = table.collect(8).ready.pop().unwrap();
        let WorkItem::Decode(req) = item else { panic!("step 2 runs before the removal") };
        assert_eq!(req.x, [2.0]);
        assert!(done.try_recv().is_err());
        table.check_in(sess, None);
        let batch = table.collect(8);
        assert!(batch.ready.is_empty(), "a removal takes no lane");
        assert_eq!(done.try_recv().unwrap().unwrap().id, id);
        match &batch.refused[..] {
            [Refused { item: WorkItem::Remove(_), err: ServeError::UnknownSession(s), .. }] => {
                assert_eq!(*s, id)
            }
            _ => panic!("the second removal is refused"),
        }
        assert!(refused.try_recv().is_err(), "the server answers refused items");
        assert_eq!((table.len(), table.pending()), (0, 0));

        // A removal behind an item a collect answers (here refused: no KV
        // room) is left to the next collect, which starts after the server
        // answered it; behind a failed batch, the removal is refused.
        let id = table.insert(0, model.new_state(0), 0).unwrap();
        table.submit(id, 0, step(5.0)).unwrap_or_else(|e| panic!("{e}"));
        let (tx, rx) = mpsc::channel();
        table.remove(id, tx).unwrap();
        let batch = table.collect(8);
        assert!(matches!(
            &batch.refused[..],
            [Refused { err: ServeError::KvExhausted { .. }, .. }]
        ));
        assert!(rx.try_recv().is_err());
        assert!(table.collect(8).refused.is_empty());
        assert_eq!(rx.try_recv().unwrap().unwrap().id, id);
        let id = queued(&mut table, &model, 0, 1, || step(6.0))[0];
        let (_, sess) = table.collect(8).ready.pop().unwrap();
        let (tx, _rx) = mpsc::channel();
        table.remove(id, tx).unwrap();
        match &table.discard(sess.id)[..] {
            [Refused { item: WorkItem::Remove(_), err: ServeError::UnknownSession(_), .. }] => {}
            _ => panic!("a removal behind a failed batch is refused"),
        }
        assert_eq!((table.len(), table.pending()), (0, 0));

        // Shutdown refuses queued steps, not a removal: it stays queued for
        // the next collect.
        let id = queued(&mut table, &model, 0, 1, || step(4.0))[0];
        let (tx, rx) = mpsc::channel();
        table.remove(id, tx).unwrap();
        let drained = table.drain();
        assert!(matches!(&drained[..], [Refused { err: ServeError::ShuttingDown, .. }]));
        assert_eq!(table.pending(), 1);
        assert!(table.collect(8).ready.is_empty());
        assert_eq!(rx.try_recv().unwrap().unwrap().id, id);
        assert_eq!((table.len(), table.pending()), (0, 0));
    }

    #[test]
    fn concurrent_pumpers_stay_fair_across_tenants() {
        // Two threads collecting concurrently each start from a distinct
        // tenant (the cursor rotates under the table lock), so 12
        // single-item collects over 3 equally loaded tenants take from
        // each tenant within one request of an equal share, however the
        // two pumpers interleave.
        let model = model();
        let mut table = SessionTable::new(3, 32, 32);
        for t in 0..3 {
            queued(&mut table, &model, t, 8, || step(0.0));
        }
        let table = Mutex::new(table);
        let counts = Mutex::new([0usize; 3]);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..6 {
                        let batch = table.lock().unwrap().collect(1);
                        assert_eq!(batch.ready.len(), 1, "every tenant has work");
                        counts.lock().unwrap()[batch.ready[0].1.tenant] += 1;
                    }
                });
            }
        });
        let counts = counts.into_inner().unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 12);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(max - min <= 1, "per-tenant share must be within one request: {counts:?}");
    }

    #[test]
    fn a_collect_takes_at_most_one_chunk_so_decode_cannot_starve() {
        // Regression: with `max_batch` (or more) concurrent prefill jobs, a
        // collect that filled the whole batch with their chunks — of which
        // one executes — left queued decode steps waiting until every
        // prefill finished: cross-session head-of-line blocking.
        let model = model();
        let mut table = SessionTable::new(1, 8, 8);
        let prefills = queued(&mut table, &model, 0, 3, chunk);
        let decodes = queued(&mut table, &model, 0, 2, || step(0.0));
        let batch = table.collect(3);
        assert_eq!(chunks(&batch), 1, "at most one prefill chunk per batch");
        assert_eq!(
            sessions(&batch),
            [prefills[0], decodes[0], decodes[1]],
            "the first chunk rides; decode steps take the lanes the held-back chunks left"
        );
        // The held-back chunks kept their places: one per later batch.
        assert_eq!(sessions(&table.collect(3)), [prefills[1]]);
        assert_eq!(sessions(&table.collect(3)), [prefills[2]]);
        assert!(table.collect(3).ready.is_empty());
    }

    #[test]
    fn backpressure_rejects_past_the_tenants_queue_capacity() {
        // The tenant's queued items are bounded by `queue_capacity`,
        // whichever of its sessions they are queued on.
        let model = model();
        let mut table = SessionTable::new(1, 2, 8);
        let a = queued(&mut table, &model, 0, 1, chunk)[0];
        let b = queued(&mut table, &model, 0, 1, || step(0.0))[0];
        match table.submit(b, 0, step(1.0)) {
            Err(ServeError::Backpressure { tenant: 0 }) => {}
            other => panic!("a third item on a capacity-2 tenant must bounce: {other:?}"),
        }
        assert_eq!(table.pending(), 2);
        // Checked-in continuation chunks are exempt: already-admitted work
        // is never dropped on its way back.
        let batch = table.collect(1);
        assert_eq!(sessions(&batch), [a]);
        table.submit(b, 0, step(2.0)).unwrap_or_else(|e| panic!("{e}"));
        let (item, sess) = batch.ready.into_iter().next().unwrap();
        let WorkItem::PrefillChunk(c) = item else { panic!("the chunk") };
        let next = ChunkItem { job: c.job, chunk: 1, enqueued: Instant::now() };
        table.check_in(sess, Some(WorkItem::PrefillChunk(next)));
        assert_eq!(table.pending(), 3);
    }

    #[test]
    fn unknown_tenant_is_rejected() {
        let model = model();
        let mut table = SessionTable::new(2, 4, 4);
        match table.insert(7, model.new_state(16), 0) {
            Err(ServeError::UnknownTenant(7)) => {}
            other => panic!("tenant 7 of 2 must be refused: {other:?}"),
        }
        assert!(matches!(table.submit(1, 0, step(0.0)), Err(ServeError::UnknownSession(1))));
        assert_eq!((table.len(), table.pending()), (0, 0));
    }
}
