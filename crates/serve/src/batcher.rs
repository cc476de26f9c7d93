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
//! behind a prefill runs only after the prompt's last chunk. Closing,
//! exporting or failing a session, and shutdown, hand the slot's queued
//! work back as [`Refused`] items for the server to answer.
//!
//! Backpressure is per tenant: a submit is refused once the tenant's
//! queued items reach `queue_capacity`.

use crate::prefill::PrefillJob;
use crate::session::{Session, SessionId, TenantId};
use crate::{ServeError, StepResult};
use pl_dnn::DecoderState;
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{self, Sender};
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

/// A unit of admitted work: one decode step or one prefill chunk. Both
/// wait in the same session FIFOs and ride the same batches, which is
/// what lets a long prompt interleave with live decode traffic instead of
/// monopolizing the pool.
pub(crate) enum WorkItem {
    /// One next-token decode step.
    Decode(StepRequest),
    /// One bounded chunk of a prefill.
    PrefillChunk(ChunkItem),
}

impl WorkItem {
    /// The reply channel the item's result (or error) is delivered on.
    pub fn reply(&self) -> &Sender<StepResult> {
        match self {
            WorkItem::Decode(r) => &r.reply,
            WorkItem::PrefillChunk(c) => c.job.reply(),
        }
    }
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
    /// is a prefill chunk.
    pub ready: Vec<(WorkItem, Session)>,
    /// Prefill jobs every token of which the session adopted from the
    /// prefix cache: answered without a forward, the session resident.
    pub cached: Vec<(TenantId, Arc<PrefillJob>)>,
    /// Items whose session's KV cannot hold them, refused at checkout.
    pub refused: Vec<Refused>,
}

/// Where a slot's session is.
enum Residence {
    /// In the table, claimable by a collect.
    Live(Session),
    /// Checked out by an executing batch. A concurrent `close` parks a
    /// channel here: at check-in the session is freed instead and its
    /// generated-token count is sent on it.
    CheckedOut { closer: Option<Sender<u64>> },
}

/// One session's entry: its tenant, its queued work, and the session.
struct Slot {
    tenant: TenantId,
    queue: VecDeque<WorkItem>,
    residence: Residence,
}

/// How a close proceeds.
pub(crate) enum Close {
    /// The session was resident and is gone: its generated-token count,
    /// and its queued work to answer.
    Now(u64, Vec<Refused>),
    /// A batch holds the session: the count arrives here at check-in.
    AtCheckIn(mpsc::Receiver<u64>),
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
            Residence::CheckedOut { .. } => false,
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
    /// session cannot hold are refused and fully cached prefills answered
    /// on the way.
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
    /// the first whose head item can join `batch`. Returns the index to
    /// resume from, or `None` when no session of `t` could give one.
    fn take_one(&mut self, t: TenantId, mut i: usize, batch: &mut Batch) -> Option<usize> {
        let has_chunk =
            batch.ready.iter().any(|(item, _)| matches!(item, WorkItem::PrefillChunk(_)));
        while let Some(&id) = self.runnable[t].get(i) {
            let slot = self.slots.get_mut(&id).expect("a runnable session has a slot");
            let checked_out = Residence::CheckedOut { closer: None };
            let Residence::Live(mut sess) = std::mem::replace(&mut slot.residence, checked_out)
            else {
                unreachable!("a runnable session is resident")
            };
            let taken = loop {
                match slot.queue.front() {
                    Some(WorkItem::PrefillChunk(_)) if has_chunk => break None,
                    None => break None,
                    Some(_) => {}
                }
                let item = slot.queue.pop_front().expect("the head was just seen");
                self.queued[t] -= 1;
                // A decode step needs one token; a chunk needs the job's
                // whole remaining prompt, so an oversized prefill (admitted
                // while the session was checked out) fails at its first
                // chunk, before any token appends.
                let need = match &item {
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
    /// next chunk) at the front of its FIFO. Returns `None` when the
    /// session is resident again. If a close parked on the slot meanwhile
    /// the session is freed instead, the closer receives its
    /// generated-token count, and the slot's queued work comes back to be
    /// answered (`UnknownSession`).
    pub fn check_in(&mut self, sess: Session, next: Option<WorkItem>) -> Option<Vec<Refused>> {
        let id = sess.id;
        let slot = self.slots.get_mut(&id).expect("a checked-out session keeps its slot");
        if let Some(next) = next {
            slot.queue.push_front(next);
            self.queued[slot.tenant] += 1;
        }
        if let Residence::CheckedOut { closer: Some(done) } = &slot.residence {
            let _ = done.send(sess.generated);
            return Some(self.unlink(id).1);
        }
        if !slot.queue.is_empty() {
            self.runnable[slot.tenant].push_back(id);
        }
        slot.residence = Residence::Live(sess);
        None
    }

    /// Drops checked-out `sess`, whose batch failed with its KV
    /// half-appended: a parked closer receives its count, and its queued
    /// work comes back to be answered (`UnknownSession`).
    pub fn discard(&mut self, sess: &Session) -> Vec<Refused> {
        let (residence, refused) = self.unlink(sess.id);
        if let Residence::CheckedOut { closer: Some(done) } = residence {
            let _ = done.send(sess.generated);
        }
        refused
    }

    /// Removes resident session `id`; its queued work comes back to be
    /// answered (`UnknownSession`). `SessionBusy` while a batch holds it.
    pub fn take(&mut self, id: SessionId) -> Result<(Session, Vec<Refused>), ServeError> {
        match self.slots.get(&id).map(|slot| &slot.residence) {
            None => Err(ServeError::UnknownSession(id)),
            Some(Residence::CheckedOut { .. }) => Err(ServeError::SessionBusy { session: id }),
            Some(Residence::Live(_)) => match self.unlink(id) {
                (Residence::Live(sess), refused) => Ok((sess, refused)),
                _ => unreachable!("the slot was just seen resident"),
            },
        }
    }

    /// Closes session `id`: at once when resident, else at its batch's
    /// check-in. A second close of a checked-out session (or any close of
    /// an unknown one) is `UnknownSession`.
    pub fn close(&mut self, id: SessionId) -> Result<Close, ServeError> {
        match self.slots.get_mut(&id).map(|slot| &mut slot.residence) {
            Some(Residence::CheckedOut { closer }) => {
                if closer.is_some() {
                    return Err(ServeError::UnknownSession(id));
                }
                let (tx, rx) = mpsc::channel();
                *closer = Some(tx);
                Ok(Close::AtCheckIn(rx))
            }
            _ => self.take(id).map(|(sess, refused)| Close::Now(sess.generated, refused)),
        }
    }

    /// Empties every FIFO; the work comes back to be answered
    /// (`ShuttingDown`).
    pub fn drain(&mut self) -> Vec<Refused> {
        self.runnable.iter_mut().for_each(VecDeque::clear);
        self.queued.iter_mut().for_each(|q| *q = 0);
        let mut refused = Vec::new();
        for slot in self.slots.values_mut() {
            let tenant = slot.tenant;
            refused.extend(slot.queue.drain(..).map(|item| Refused {
                tenant,
                item,
                err: ServeError::ShuttingDown,
            }));
        }
        refused
    }

    /// Whether session `id` is resident with nothing queued.
    pub fn idle(&self, id: SessionId) -> Result<bool, ServeError> {
        let slot = self.slots.get(&id).ok_or(ServeError::UnknownSession(id))?;
        Ok(slot.queue.is_empty() && matches!(slot.residence, Residence::Live(_)))
    }

    /// Whether a batch holds session `id` checked out.
    #[cfg(test)]
    pub(crate) fn checked_out(&self, id: SessionId) -> bool {
        matches!(self.slots.get(&id), Some(Slot { residence: Residence::CheckedOut { .. }, .. }))
    }

    /// Removes slot `id` and hands back its residence and its queued work.
    fn unlink(&mut self, id: SessionId) -> (Residence, Vec<Refused>) {
        let slot = self.slots.remove(&id).expect("unlinking a known session");
        let t = slot.tenant;
        self.runnable[t].retain(|&s| s != id);
        self.queued[t] -= slot.queue.len();
        let err = ServeError::UnknownSession(id);
        let refused = slot
            .queue
            .into_iter()
            .map(|item| Refused { tenant: t, item, err: err.clone() })
            .collect();
        (slot.residence, refused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_dnn::{DecoderConfig, DecoderModel};
    use std::sync::Mutex;

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
    fn deferred_side_queue_is_drained_ahead_of_the_rings_in_fifo_order() {
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
            };
            assert!(table.check_in(sess, next).is_none());
        }
        assert_eq!(order, ["chunk 0", "chunk 1", "step 1", "step 2"]);
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
    fn side_queue_yields_at_most_one_chunk_per_collect_so_decode_cannot_starve() {
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
    fn backpressure_rejects_when_ring_full() {
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
        assert!(table.check_in(sess, Some(WorkItem::PrefillChunk(next))).is_none());
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
