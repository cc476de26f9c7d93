//! Session migration: moving a live session — KV cache and all —
//! between shards.
//!
//! Affinity is still the steady-state rule (the hot path never moves a
//! session), but it is now a *policy*, not a structural limit: the paged
//! KV layer serializes a session into a dense, page-layout-independent
//! snapshot ([`pl_serve::SessionExport`]), so the router can deliberately
//! re-home one when the fleet is unbalanced or a shard goes bad. The move
//! is **bit-identical**: the snapshot carries every KV row, the target
//! rehydrates them into its own page pool, and decoding continues as if
//! the session had never moved (asserted by the migration tests and
//! `examples/migrate_llm.rs`).
//!
//! Three entry points:
//!
//! * [`Router::migrate_session`] — one quiesced export → import move;
//! * [`Router::rebalance`] — evacuate unplaceable (degraded/stalled)
//!   shards, then even the session spread across the placeable ones;
//! * [`Router::recover_shard`] — re-home every session a
//!   [`DrainReport`] shows still living on a drained shard.

use crate::placement::placement_order;
use crate::router::{Placement, Router, RouterSessionId};
use crate::{DrainReport, RouterError};
use pl_serve::ServeError;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Retry bound on exporting a session whose shard keeps it momentarily
/// checked out — same discipline as `Router::close_session`: batches
/// re-insert their sessions before delivering replies, so each wait is
/// microseconds, and the bound only guards against a wedged shard.
const EXPORT_ATTEMPTS: usize = 256;

/// One completed session move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationRecord {
    /// The router session that moved.
    pub session: RouterSessionId,
    /// Source shard.
    pub from: usize,
    /// Destination shard.
    pub to: usize,
}

impl Router {
    /// Moves session `id` to shard `target`: quiesce the source shard
    /// (accepted work for the session completes first — the same
    /// interlock the graceful close uses), export the session's dense KV
    /// snapshot, re-admit it on the target, and rebind the router
    /// mapping. A same-shard "move" is a no-op. On an import failure
    /// (target full, snapshot larger than the target's page budget) the
    /// session is re-admitted on the **source** and the error returned —
    /// a failed migration never loses the session; only if that rollback
    /// also fails (the source shut down mid-move) is the session dropped
    /// from the routing table.
    pub fn migrate_session(&self, id: RouterSessionId, target: usize) -> Result<(), RouterError> {
        if target >= self.shards.len() {
            return Err(RouterError::BadConfig(format!(
                "migration target shard {target} out of range ({} shards)",
                self.shards.len()
            )));
        }
        let p = self.lookup(id)?;
        if p.shard == target {
            return Ok(());
        }
        // Quiesce: steps already accepted for this session (and everyone
        // else on the shard) execute before the KV snapshot is taken, so
        // the export captures the stream's true frontier.
        self.quiesce_shard(p.shard);
        let source = self.shards[p.shard].server();
        let started = self.started.load(Ordering::Acquire);
        let mut attempts = 0usize;
        let export = loop {
            match source.export_session(p.local) {
                Ok(e) => break e,
                Err(ServeError::SessionBusy { .. }) if attempts < EXPORT_ATTEMPTS => {
                    attempts += 1;
                    if started {
                        std::thread::sleep(Duration::from_micros(50));
                    } else {
                        source.pump();
                    }
                }
                Err(e) => return Err(RouterError::Serve(e)),
            }
        };
        match self.shards[target].server().import_session(&export) {
            Ok(local) => {
                self.sessions.lock().insert(id, Placement { shard: target, local });
                Ok(())
            }
            Err(e) => {
                match source.import_session(&export) {
                    Ok(local) => {
                        self.sessions.lock().insert(id, Placement { shard: p.shard, local });
                    }
                    Err(_) => {
                        self.sessions.lock().remove(&id);
                    }
                }
                Err(RouterError::Serve(e))
            }
        }
    }

    /// Rebalances live sessions across the fleet. Two passes, both built
    /// on [`Router::migrate_session`]:
    ///
    /// 1. **evacuate** — every session on a shard that is not placeable
    ///    for *health* reasons (degraded SLO burn, stalled watchdog;
    ///    draining is operator intent and handled by
    ///    [`Router::recover_shard`]) moves to the least-loaded placeable
    ///    shard, so a bad shard sheds its load instead of holding
    ///    sessions hostage while it recovers;
    /// 2. **spread** — while the most- and least-loaded placeable shards
    ///    differ by more than one session, one moves, so a fleet that
    ///    drained and refilled unevenly converges back to balance.
    ///
    /// Returns the moves performed. Every move is quiesced and
    /// bit-identical; a move that fails ends the pass with the moves made
    /// so far (the fleet is never left worse than before the call).
    pub fn rebalance(&self) -> Vec<MigrationRecord> {
        let mut moved = Vec::new();
        // Pass 1: evacuate unhealthy shards.
        loop {
            let loads = self.loads();
            let order = placement_order(&loads);
            let Some(bad) =
                loads.iter().find(|l| !l.placeable() && !l.draining && l.live_sessions > 0)
            else {
                break;
            };
            let Some(&target) = order.iter().find(|&&t| t != bad.shard) else { break };
            let Some(sess) = self.session_on(bad.shard) else { break };
            if self.migrate_session(sess, target).is_err() {
                break;
            }
            moved.push(MigrationRecord { session: sess, from: bad.shard, to: target });
        }
        // Pass 2: even the spread over placeable shards.
        loop {
            let loads = self.loads();
            let placeable: Vec<_> = loads.iter().filter(|l| l.placeable()).collect();
            if placeable.len() < 2 {
                break;
            }
            let max = placeable.iter().max_by_key(|l| (l.live_sessions, l.shard)).unwrap();
            let min = placeable.iter().min_by_key(|l| (l.live_sessions, l.shard)).unwrap();
            if max.live_sessions <= min.live_sessions + 1 {
                break;
            }
            let (from, to) = (max.shard, min.shard);
            let Some(sess) = self.session_on(from) else { break };
            if self.migrate_session(sess, to).is_err() {
                break;
            }
            moved.push(MigrationRecord { session: sess, from, to });
        }
        moved
    }

    /// Re-homes every session still placed on a drained shard: the
    /// dead-shard recovery path. Call with the [`DrainReport`] of
    /// [`Router::drain_shard`] — the drain already stopped placement and
    /// pumped the shard's queues dry, so each session's KV snapshot is at
    /// its true frontier; this moves the survivors to placeable peers so
    /// the shard can be torn down (or rebooted) without ending anyone's
    /// stream. Returns the moves performed; stops early if no placeable
    /// peer remains or a move fails.
    pub fn recover_shard(&self, report: &DrainReport) -> Vec<MigrationRecord> {
        let mut moved = Vec::new();
        while let Some(sess) = self.session_on(report.shard) {
            let loads = self.loads();
            let Some(&target) = placement_order(&loads).iter().find(|&&t| t != report.shard) else {
                break;
            };
            if self.migrate_session(sess, target).is_err() {
                break;
            }
            moved.push(MigrationRecord { session: sess, from: report.shard, to: target });
        }
        moved
    }

    /// The lowest-id session currently placed on `shard` (deterministic
    /// pick for the rebalance/recovery loops).
    fn session_on(&self, shard: usize) -> Option<RouterSessionId> {
        self.sessions.lock().iter().filter(|(_, p)| p.shard == shard).map(|(&id, _)| id).min()
    }
}

#[cfg(test)]
mod tests {
    use crate::router::{Router, RouterConfig};
    use crate::RouterError;
    use pl_dnn::{DecoderConfig, DecoderModel};
    use pl_metrics::Health;
    use pl_runtime::ThreadPool;
    use pl_serve::ServerConfig;
    use pl_tensor::{fill_uniform, Xorshift};
    use std::sync::Arc;

    fn tiny_router(shards: usize, server: ServerConfig) -> Router {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 4242));
        Router::new(model, RouterConfig { shards, total_threads: 4, server }).unwrap()
    }

    fn token(seed: u64, hidden: usize) -> Vec<f32> {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
        x
    }

    /// Drives `steps` chained decode steps for `id` starting from
    /// `start` (each step feeds the previous output), returning outputs.
    fn drive(r: &Router, id: u64, start: Vec<f32>, steps: usize) -> Vec<Vec<f32>> {
        let mut outs = Vec::new();
        let mut x = start;
        for _ in 0..steps {
            let rx = r.submit_step(id, &x).unwrap();
            while r.pump_all() == 0 {}
            x = rx.recv().unwrap().unwrap();
            outs.push(x.clone());
        }
        outs
    }

    #[test]
    fn migrate_session_continues_bit_identically() {
        let r = tiny_router(2, ServerConfig::default());
        let model = Arc::clone(r.shard(0).server().model());
        let hidden = model.config().hidden;
        let id = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(id), Some(0));
        let prompt = token(50, hidden * 4);
        r.prefill(id, &prompt, 4).unwrap();
        let mut outs = drive(&r, id, token(51, hidden), 3);
        // Mid-stream move, with a step still queued: the quiesce runs it
        // out before the snapshot is taken.
        let rx = r.submit_step(id, outs.last().unwrap()).unwrap();
        r.migrate_session(id, 1).unwrap();
        outs.push(rx.recv().unwrap().unwrap());
        assert_eq!(r.placement_of(id), Some(1));
        assert_eq!(r.shard(0).server().session_count(), 0);
        assert_eq!(r.shard(1).server().session_count(), 1);
        // Same shard: no-op. Bad target: loud error.
        r.migrate_session(id, 1).unwrap();
        assert!(matches!(r.migrate_session(id, 9), Err(RouterError::BadConfig(_))));
        // Continue on the new shard; the whole stream must equal an
        // unmoved replay bitwise.
        for _ in 0..3 {
            let rx = r.submit_step(id, outs.last().unwrap()).unwrap();
            while r.pump_all() == 0 {}
            outs.push(rx.recv().unwrap().unwrap());
        }
        let pool = ThreadPool::new(2);
        let mut st = model.new_state(32);
        let _ = model.forward(&mut st, &prompt, 4, &pool);
        let mut want = token(51, hidden);
        for (t, got) in outs.iter().enumerate() {
            want = model.forward(&mut st, &want, 1, &pool);
            assert_eq!(got, &want, "step {t} diverged across the migration");
        }
        // The generated count moved with the session.
        assert_eq!(r.close_session(id).unwrap(), outs.len() as u64);
        // The fleet counted the import.
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter_value("pl_migrations_total", &[("shard", "1")]), 1);
    }

    #[test]
    fn rebalance_moves_sessions_off_a_degraded_shard() {
        let r = tiny_router(2, ServerConfig::default());
        let s0 = r.create_session(0).unwrap();
        let s1 = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(s0), Some(0));
        assert_eq!(r.placement_of(s1), Some(1));
        let hidden = r.shard(0).server().model().config().hidden;
        r.prefill(s0, &token(60, hidden * 2), 2).unwrap();
        // Latch shard 0 Degraded (every observation blows the SLO target).
        let slo = r.shard(0).server().slo();
        for _ in 0..200 {
            slo.record(9_999_999);
        }
        assert_eq!(r.shard_health()[0], Health::Degraded);
        let moves = r.rebalance();
        assert_eq!(moves.len(), 1);
        assert_eq!((moves[0].session, moves[0].from, moves[0].to), (s0, 0, 1));
        assert_eq!(r.placement_of(s0), Some(1), "session evacuated the degraded shard");
        assert_eq!(r.shard(0).server().session_count(), 0);
        assert_eq!(r.shard(1).server().session_count(), 2);
        // The evacuated session still decodes, from its prefilled context.
        let model = Arc::clone(r.shard(0).server().model());
        let outs = drive(&r, s0, token(61, hidden), 2);
        let pool = ThreadPool::new(2);
        let mut st = model.new_state(32);
        let _ = model.forward(&mut st, &token(60, hidden * 2), 2, &pool);
        let mut want = token(61, hidden);
        for (t, got) in outs.iter().enumerate() {
            want = model.forward(&mut st, &want, 1, &pool);
            assert_eq!(got, &want, "post-evacuation step {t} diverged");
        }
        // Nothing further to do: the degraded shard is empty and only
        // one placeable shard remains.
        assert!(r.rebalance().is_empty());
    }

    #[test]
    fn rebalance_evens_a_lopsided_spread() {
        let r = tiny_router(2, ServerConfig::default());
        // 4 sessions land 0,1,0,1; closing shard 1's pair leaves 2 vs 0.
        let ids: Vec<_> = (0..4).map(|_| r.create_session(0).unwrap()).collect();
        r.close_session(ids[1]).unwrap();
        r.close_session(ids[3]).unwrap();
        assert_eq!(r.shard(0).server().session_count(), 2);
        assert_eq!(r.shard(1).server().session_count(), 0);
        let moves = r.rebalance();
        assert_eq!(moves.len(), 1, "a 2-vs-0 spread takes exactly one move");
        assert_eq!(r.shard(0).server().session_count(), 1);
        assert_eq!(r.shard(1).server().session_count(), 1);
        assert!(r.rebalance().is_empty(), "balanced fleet stays put");
    }

    #[test]
    fn recover_shard_rehomes_every_session_from_the_drain_report() {
        let r = tiny_router(2, ServerConfig { max_sessions: 8, ..Default::default() });
        let model = Arc::clone(r.shard(0).server().model());
        let hidden = model.config().hidden;
        // Two sessions on shard 0 (and one bystander on shard 1).
        let a = r.create_session(0).unwrap();
        let _bystander = r.create_session(0).unwrap();
        let b = r.create_session(0).unwrap();
        assert_eq!(r.placement_of(a), Some(0));
        assert_eq!(r.placement_of(b), Some(0));
        let a_outs = drive(&r, a, token(70, hidden), 2);
        // Shard 0 is going away: drain it (queues dry, no new placements),
        // then re-home the survivors off the report.
        let report = r.drain_shard(0);
        assert!(report.is_quiesced());
        assert_eq!(report.live_sessions, 2);
        let moves = r.recover_shard(&report);
        assert_eq!(moves.len(), 2);
        assert!(moves.iter().all(|m| m.from == 0 && m.to == 1));
        assert_eq!(r.shard(0).server().session_count(), 0, "shard 0 fully evacuated");
        assert!(r.drain_shard(0).is_empty(), "evacuated shard is ready for teardown");
        // The moved streams continue bit-identically on shard 1.
        let mut outs = a_outs;
        let next = outs.last().unwrap().clone();
        outs.extend(drive(&r, a, next, 2));
        let pool = ThreadPool::new(2);
        let mut st = model.new_state(32);
        let mut want = token(70, hidden);
        for (t, got) in outs.iter().enumerate() {
            want = model.forward(&mut st, &want, 1, &pool);
            assert_eq!(got, &want, "recovered stream step {t} diverged");
        }
    }
}
