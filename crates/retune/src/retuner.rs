//! The retune cycle: harvest hot shapes from live serving statistics,
//! rank candidates with the analytical model, **measure** the survivors
//! on real packed buffers, and install winners through the registry
//! epoch — zero serving downtime (prepared plans re-resolve their
//! kernels on the next execution after an epoch advance; decode values
//! are unchanged by spec choice, so in-flight streams stay bit-identical
//! across the install).

use crate::measure::GemmMeasurer;
use pl_autotuner::{tune_gemm_ranked_measured, Constraints, DbEntry, GemmProblem, TuningDb};
use pl_perfmodel::Platform;
use pl_router::Router;
use pl_runtime::ThreadPool;
use pl_serve::Server;
use std::time::{Duration, Instant};

/// Knobs bounding one retune cycle.
#[derive(Debug, Clone)]
pub struct RetuneConfig {
    /// Model-ranked candidates measured per shape (the incumbent spec is
    /// always measured on top of these).
    pub top_k: usize,
    /// Hottest shapes retuned per cycle; colder shapes wait for the next
    /// cycle.
    pub max_shapes: usize,
    /// Timed kernel executions per candidate (best-of — robust to a
    /// scheduling hiccup on a loaded host).
    pub reps: usize,
    /// Wall-clock budget for the measuring part of a cycle: once spent,
    /// remaining shapes are skipped (reported, not silently dropped).
    pub budget: Duration,
    /// Minimum relative measured gain over the incumbent required to
    /// replace it (hysteresis — don't churn the registry over noise).
    pub min_gain: f64,
    /// Candidate-space cap handed to the spec generator.
    pub max_candidates: usize,
}

impl Default for RetuneConfig {
    fn default() -> Self {
        RetuneConfig {
            top_k: 6,
            max_shapes: 8,
            reps: 3,
            budget: Duration::from_secs(5),
            min_gain: 0.02,
            max_candidates: 200,
        }
    }
}

/// What one retuned shape decided.
#[derive(Debug, Clone)]
pub struct ShapeOutcome {
    /// The tuning-DB key.
    pub key: String,
    /// The problem (exact plan blockings, precision included).
    pub problem: GemmProblem,
    /// Traffic weight from the harvest (execution count).
    pub weight: u64,
    /// Incumbent spec before the cycle (`None`: key was unwarmed).
    pub old_spec: Option<String>,
    /// The incumbent's **measured** GFLOPS (`None`: absent or
    /// unmeasurable — e.g. an infeasible planted spec).
    pub old_gflops: Option<f64>,
    /// The spec installed after the cycle (may equal `old_spec`).
    pub new_spec: String,
    /// Its measured GFLOPS.
    pub new_gflops: f64,
    /// Whether the installed spec differs from the incumbent.
    pub changed: bool,
    /// Candidates that returned a measurement.
    pub candidates_measured: usize,
}

/// One cycle's summary.
#[derive(Debug, Clone)]
pub struct RetuneReport {
    /// Per-shape outcomes, hottest first.
    pub outcomes: Vec<ShapeOutcome>,
    /// Hot shapes harvested (before the `max_shapes` cut).
    pub hot_shapes: usize,
    /// Shapes skipped: over `max_shapes`, over budget, or unmeasurable.
    pub shapes_skipped: usize,
    /// Outcomes whose installed spec changed.
    pub specs_changed: usize,
    /// Registry epoch before the cycle.
    pub epoch_before: u64,
    /// Registry epoch after — `epoch_before + 1` exactly when something
    /// changed (one install per cycle), unchanged otherwise.
    pub epoch_after: u64,
    /// Cycle wall time.
    pub cycle_seconds: f64,
}

impl RetuneReport {
    /// Whether the cycle installed any new spec.
    pub fn changed(&self) -> bool {
        self.specs_changed > 0
    }

    /// Folds this cycle into `metrics` (the serving registry the cycle
    /// ran against): cycles, epoch bumps, specs changed, shapes
    /// measured/skipped, and wall-clock budget spent. Counters only —
    /// retune activity is cumulative, and scrape-side `rate()` recovers
    /// per-cycle behavior. The router path publishes into shard 0's
    /// registry alone so a fleet-wide [`pl_serve::MetricsSnapshot`]
    /// merge counts each cycle once, not once per shard.
    pub fn publish(&self, metrics: &pl_serve::MetricsRegistry) {
        metrics.help("pl_retune_cycles_total", "Retune cycles run");
        metrics.help("pl_retune_epoch_bumps_total", "Registry epoch advances from retuning");
        metrics.help("pl_retune_specs_changed_total", "Kernel specs replaced by retuning");
        metrics.help("pl_retune_shapes_measured_total", "Hot shapes measured by retune cycles");
        metrics
            .help("pl_retune_shapes_skipped_total", "Hot shapes skipped (budget/cut/unmeasurable)");
        metrics.help("pl_retune_budget_spent_ms_total", "Wall-clock spent in retune cycles (ms)");
        metrics.counter("pl_retune_cycles_total", &[]).inc();
        metrics
            .counter("pl_retune_epoch_bumps_total", &[])
            .add(self.epoch_after.saturating_sub(self.epoch_before));
        metrics.counter("pl_retune_specs_changed_total", &[]).add(self.specs_changed as u64);
        metrics.counter("pl_retune_shapes_measured_total", &[]).add(self.outcomes.len() as u64);
        metrics.counter("pl_retune_shapes_skipped_total", &[]).add(self.shapes_skipped as u64);
        metrics
            .counter("pl_retune_budget_spent_ms_total", &[])
            .add((self.cycle_seconds * 1000.0) as u64);
    }
}

/// The retuning service: holds the platform identity measurements are
/// keyed under and the cycle bounds. Run cycles from a background (or
/// maintenance) thread with a **dedicated small pool** — measurements
/// must not execute on the serving threads.
pub struct Retuner {
    platform: Platform,
    threads: usize,
    cfg: RetuneConfig,
}

impl Retuner {
    /// A retuner measuring as `platform` at `threads` (the model-ranking
    /// thread count — use the serving pool's size so ranked candidates
    /// are ranked for the parallelism they will serve at).
    pub fn new(platform: Platform, threads: usize, cfg: RetuneConfig) -> Self {
        Retuner { platform, threads, cfg }
    }

    /// The platform measurements are keyed under.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// One retune cycle against a single [`Server`]: harvest its hot
    /// shapes, measure, and — when a winner beats an incumbent — install
    /// the updated snapshot via [`Server::adopt_tuning`] (exactly one
    /// registry-epoch bump per changing cycle). A cycle that changes
    /// nothing still refreshes the server's local DB with the measured
    /// scores, without bumping the epoch.
    pub fn run_cycle(&self, server: &Server, pool: &ThreadPool) -> RetuneReport {
        let t0 = Instant::now();
        let epoch_before = pl_dnn::tuning::epoch();
        let hot = server.hot_gemm_problems();
        let hot_shapes = hot.len();
        let mut db = server.tuning_db().clone();
        let (outcomes, skipped) = self.retune_into(&hot, &mut db, pool, t0);
        let specs_changed = outcomes.iter().filter(|o| o.changed).count();
        if specs_changed > 0 {
            server.adopt_tuning(self.platform.name, &db);
        } else {
            server.set_tuning_db(&db);
        }
        let report = RetuneReport {
            outcomes,
            hot_shapes,
            shapes_skipped: skipped,
            specs_changed,
            epoch_before,
            epoch_after: pl_dnn::tuning::epoch(),
            cycle_seconds: t0.elapsed().as_secs_f64(),
        };
        report.publish(server.metrics());
        report
    }

    /// Fleet-wide retune: harvest hot shapes from **every** shard
    /// (weights merged by shape), measure once, and adopt the winning
    /// snapshot everywhere via [`Router::adopt_tuning`] — measure on one
    /// host, one install, N shards updated.
    pub fn run_cycle_router(&self, router: &Router, pool: &ThreadPool) -> RetuneReport {
        let t0 = Instant::now();
        let epoch_before = pl_dnn::tuning::epoch();
        let mut hot: Vec<(GemmProblem, u64)> = Vec::new();
        for shard in router.shards() {
            for (p, w) in shard.server().hot_gemm_problems() {
                match hot
                    .iter_mut()
                    .find(|(q, _)| q.m == p.m && q.n == p.n && q.k == p.k && q.dtype == p.dtype)
                {
                    Some(entry) => entry.1 += w,
                    None => hot.push((p, w)),
                }
            }
        }
        hot.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
        let hot_shapes = hot.len();
        let mut db = router.shard(0).server().tuning_db().clone();
        let (outcomes, skipped) = self.retune_into(&hot, &mut db, pool, t0);
        let specs_changed = outcomes.iter().filter(|o| o.changed).count();
        if specs_changed > 0 {
            router.adopt_tuning(self.platform.name, &db);
        } else {
            for shard in router.shards() {
                shard.server().set_tuning_db(&db);
            }
        }
        let report = RetuneReport {
            outcomes,
            hot_shapes,
            shapes_skipped: skipped,
            specs_changed,
            epoch_before,
            epoch_after: pl_dnn::tuning::epoch(),
            cycle_seconds: t0.elapsed().as_secs_f64(),
        };
        // Shard 0 only: a fleet-wide snapshot merge must count each
        // cycle once, not once per shard.
        report.publish(router.shard(0).server().metrics());
        report
    }

    /// The measuring core: for each hot problem (bounded by `max_shapes`
    /// and the wall-clock budget), rank candidates with the model,
    /// measure the top-k plus the incumbent on real packed buffers, and
    /// update `db` with the measured winner. Returns the outcomes and
    /// how many harvested shapes were skipped.
    fn retune_into(
        &self,
        hot: &[(GemmProblem, u64)],
        db: &mut TuningDb,
        pool: &ThreadPool,
        t0: Instant,
    ) -> (Vec<ShapeOutcome>, usize) {
        let constraints = Constraints::gemm(0, 1, 1, self.cfg.max_candidates);
        let mut outcomes = Vec::new();
        let mut skipped = hot.len().saturating_sub(self.cfg.max_shapes);
        for (problem, weight) in hot.iter().take(self.cfg.max_shapes) {
            if t0.elapsed() > self.cfg.budget {
                skipped += 1;
                continue;
            }
            let key = TuningDb::gemm_key(
                self.platform.name,
                problem.m,
                problem.n,
                problem.k,
                &problem.dtype.to_string(),
            );
            let Some(mut measurer) = GemmMeasurer::new(problem) else {
                skipped += 1;
                continue;
            };
            let incumbent = db.get(&key).cloned();
            let extra: Vec<String> = incumbent.iter().map(|e| e.spec.clone()).collect();
            let result = tune_gemm_ranked_measured(
                problem,
                &constraints,
                &self.platform,
                self.threads,
                self.cfg.top_k,
                &extra,
                |spec, blocks| measurer.measure(spec, blocks, self.cfg.reps, pool),
            );
            if result.evaluated.is_empty() {
                skipped += 1;
                continue;
            }
            let best = result.best.clone();
            let old_gflops = incumbent
                .as_ref()
                .and_then(|e| result.evaluated.iter().find(|c| c.spec == e.spec))
                .map(|c| c.score);
            // Replace when there is no (measurable) incumbent, or when the
            // challenger's measured advantage clears the hysteresis bar.
            let replace = match (&incumbent, old_gflops) {
                (None, _) | (Some(_), None) => true,
                (Some(e), Some(inc)) => {
                    best.spec != e.spec && best.score > inc * (1.0 + self.cfg.min_gain)
                }
            };
            let (new_spec, new_gflops) = if replace {
                db.put(&key, DbEntry { spec: best.spec.clone(), score: best.score });
                (best.spec.clone(), best.score)
            } else {
                // The incumbent stands; refresh its score to the measured
                // value so the persisted DB carries measured numbers.
                let spec = incumbent.as_ref().expect("incumbent exists").spec.clone();
                let score = old_gflops.expect("incumbent measured");
                db.put(&key, DbEntry { spec: spec.clone(), score });
                (spec, score)
            };
            let changed = incumbent.as_ref().map(|e| &e.spec) != Some(&new_spec);
            outcomes.push(ShapeOutcome {
                key,
                problem: *problem,
                weight: *weight,
                old_spec: incumbent.map(|e| e.spec),
                old_gflops,
                new_spec,
                new_gflops,
                changed,
                candidates_measured: result.evaluated.len(),
            });
        }
        (outcomes, skipped)
    }
}

/// Measures the decode-under-prefill tradeoff for each candidate
/// prefill chunk size on a live (manually pumped) server, and installs
/// the winner via [`Server::set_prefill_chunk`]. For each candidate:
/// `width` decode sessions run `steps` closed-loop rounds while one
/// `prompt_tokens`-long prefill is in flight, chunked at the candidate
/// size; the score is decode steps/s (the quantity chunking protects —
/// a too-large chunk blocks decode lanes, a too-small one pays per-chunk
/// overhead). Returns `(chunk, decode_steps_per_s)` rows plus the
/// installed winner. Sessions need `steps` (decode) and `prompt_tokens`
/// (prefill) tokens of KV capacity.
pub fn tune_prefill_chunk(
    server: &Server,
    chunks: &[usize],
    prompt_tokens: usize,
    width: usize,
    steps: usize,
) -> (Vec<(usize, f64)>, usize) {
    let hidden = server.model().config().hidden;
    let prompt = vec![0.1f32; hidden * prompt_tokens];
    let rows: Vec<(usize, f64)> = chunks
        .iter()
        .map(|&chunk| {
            server.set_prefill_chunk(chunk);
            let decode: Vec<_> =
                (0..width).map(|_| server.create_session(0).expect("decode session")).collect();
            let prefill_id = server.create_session(0).expect("prefill session");
            let token = vec![0.1f32; hidden];
            let t0 = Instant::now();
            let prx =
                server.submit_prefill(prefill_id, &prompt, prompt_tokens).expect("submit prefill");
            for _ in 0..steps {
                let rxs: Vec<_> = decode
                    .iter()
                    .map(|&id| server.submit_step(id, &token).expect("submit"))
                    .collect();
                while server.in_flight() > 0 {
                    server.pump();
                }
                for rx in rxs {
                    rx.recv().expect("reply").expect("step ok");
                }
            }
            while server.in_flight() > 0 {
                server.pump();
            }
            prx.recv().expect("prefill reply").expect("prefill ok");
            let secs = t0.elapsed().as_secs_f64().max(1e-9);
            for id in decode {
                server.close_session(id).expect("close decode session");
            }
            server.close_session(prefill_id).expect("close prefill session");
            (chunk, (width * steps) as f64 / secs)
        })
        .collect();
    let (best, _) =
        rows.iter().fold(
            (server.prefill_chunk(), 0.0),
            |acc, &(c, s)| {
                if s > acc.1 {
                    (c, s)
                } else {
                    acc
                }
            },
        );
    server.set_prefill_chunk(best);
    (rows, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_dnn::{DecoderConfig, DecoderModel};
    use pl_serve::ServerConfig;
    use std::sync::Arc;

    /// Registry-safe: `tune_prefill_chunk` only touches server-local
    /// state (the prefill-chunk knob), never the global tuning registry.
    #[test]
    fn prefill_chunk_tuner_measures_and_installs_the_winner() {
        let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 11));
        let pool = Arc::new(ThreadPool::new(1));
        let server = Server::new(
            model,
            pool,
            ServerConfig { max_batch: 4, kv_capacity: 32, ..Default::default() },
        );
        let (rows, best) = tune_prefill_chunk(&server, &[4, 8], 8, 2, 4);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|&(_, sps)| sps > 0.0), "every candidate must measure: {rows:?}");
        assert!(rows.iter().any(|&(c, _)| c == best), "winner must come from the candidates");
        assert_eq!(server.prefill_chunk(), best, "the winner is installed on the live server");
    }
}
