//! End-to-end session-migration demo: live sessions move between shards
//! mid-stream with **bit-identical** continuations.
//!
//! Four client sessions prefill and decode through a 2-shard
//! [`pl_router::Router`]. Halfway through each stream the control plane
//! reshapes the fleet under them:
//!
//! 1. an explicit [`Router::migrate_session`] moves one session to the
//!    other shard (quiesce → export the dense KV snapshot → import →
//!    re-bind placement), with the per-move latency printed;
//! 2. shard 0 is then drained ([`Router::drain_shard`]) and
//!    [`Router::recover_shard`] re-homes its surviving sessions from the
//!    drain report — the dead-shard recovery path.
//!
//! Every stream then finishes its remaining steps. A second, identical
//! router runs the *same* traffic with **no** migrations, and a plain
//! `Decoder` replays every stream unbatched on one state: the migrated
//! streams must equal both **bitwise** — migration, like batching, must
//! be numerically invisible.
//!
//! The router's aggregated pl-metrics snapshot is rendered in Prometheus
//! text format at the end; CI greps it for the paged-KV families
//! (`pl_kv_pages_free`, `pl_kv_pages_shared`, `pl_kv_sessions_spilled`)
//! and the `pl_migrations_total` counter.
//!
//! Run: `cargo run --release --example migrate_llm`

use pl_dnn::{Decoder, DecoderConfig, DecoderModel};
use pl_router::{Router, RouterConfig};
use pl_runtime::{default_threads, ThreadPool};
use pl_serve::ServerConfig;
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 4;
const TENANTS: usize = 2;
const PROMPT: usize = 8;
const STEPS_BEFORE: usize = 12;
const STEPS_AFTER: usize = 12;
const KV: usize = 64;
const SHARDS: usize = 2;

fn prompt_for(session: usize, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden * PROMPT];
    fill_uniform(&mut x, &mut Xorshift::new(4200 + session as u64), -0.5, 0.5);
    x
}

fn last_token(y: &[f32], hidden: usize) -> Vec<f32> {
    y[y.len() - hidden..].to_vec()
}

fn make_router(model: &Arc<DecoderModel>, total_threads: usize) -> Router {
    Router::new(
        Arc::clone(model),
        RouterConfig {
            shards: SHARDS,
            total_threads,
            server: ServerConfig {
                tenants: TENANTS,
                max_batch: SESSIONS,
                kv_capacity: KV,
                ..Default::default()
            },
        },
    )
    .expect("router config")
}

/// (session ids, per-session last outputs, per-session streams).
type FirstHalf = (Vec<u64>, Vec<Vec<f32>>, Vec<Vec<Vec<f32>>>);

/// Admits the standard sessions and runs each stream up to the midpoint.
fn run_first_half(r: &Router, hidden: usize) -> FirstHalf {
    let mut ids = Vec::new();
    let mut xs = Vec::new();
    let mut streams = vec![Vec::new(); SESSIONS];
    for s in 0..SESSIONS {
        let id = r.create_session(s % TENANTS).expect("admitted");
        let y = r.prefill(id, &prompt_for(s, hidden), PROMPT).unwrap();
        ids.push(id);
        xs.push(last_token(&y, hidden));
    }
    // Round-robin, one step per session per round: deterministic order,
    // every batch one step wide — identical composition across runs.
    for _ in 0..STEPS_BEFORE {
        for s in 0..SESSIONS {
            let y = r.step(ids[s], &xs[s]).unwrap();
            xs[s] = y.clone();
            streams[s].push(y);
        }
    }
    (ids, xs, streams)
}

fn run_second_half(r: &Router, ids: &[u64], xs: &mut [Vec<f32>], streams: &mut [Vec<Vec<f32>>]) {
    for _ in 0..STEPS_AFTER {
        for s in 0..SESSIONS {
            let y = r.step(ids[s], &xs[s]).unwrap();
            xs[s] = y.clone();
            streams[s].push(y);
        }
    }
}

fn main() {
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 4242));
    let total_threads = default_threads().clamp(SHARDS, 8);
    println!(
        "pl-router migration demo: {SESSIONS} sessions / {TENANTS} tenants on \
         {SHARDS} shards, {PROMPT}-token prompts, {STEPS_BEFORE}+{STEPS_AFTER} decode steps \
         with mid-stream migration"
    );

    // --- Migrated run. ---------------------------------------------------
    let mut router = make_router(&model, total_threads);
    router.start();
    let (ids, mut xs, mut streams) = run_first_half(&router, hidden);

    // A balanced fleet has nothing to rebalance.
    let moves = router.rebalance();
    println!("\nrebalance on the balanced fleet: {} moves", moves.len());
    assert!(moves.is_empty(), "rebalance must be a no-op on a balanced fleet");

    // Placement is deterministic (least-loaded, ties to the lowest shard):
    // sessions alternate 0,1,0,1, so session 0 sits on shard 0. Move it.
    let t = Instant::now();
    router.migrate_session(ids[0], 1).expect("explicit migration");
    let move_us = t.elapsed().as_secs_f64() * 1e6;
    println!("migrate_session: session {} -> shard 1 in {move_us:.1} us", ids[0]);

    // The move left a 3-vs-1 spread; rebalance evens it back out.
    let moves = router.rebalance();
    for m in &moves {
        println!("rebalance: session {} shard {} -> shard {}", m.session, m.from, m.to);
    }
    assert_eq!(moves.len(), 1, "one move re-evens a 3-vs-1 spread");

    // Dead-shard recovery: drain shard 0 and re-home its survivors from
    // the drain report.
    let report = router.drain_shard(0);
    assert!(report.is_quiesced(), "drained shard still holds queued work");
    let recovered = router.recover_shard(&report);
    for m in &recovered {
        println!("recover_shard: session {} shard {} -> shard {}", m.session, m.from, m.to);
    }
    assert_eq!(recovered.len(), 2, "both shard-0 survivors needed re-homing");

    run_second_half(&router, &ids, &mut xs, &mut streams);
    let mut generated = 0u64;
    for id in &ids {
        generated += router.close_session(*id).unwrap();
    }
    let snap = router.metrics_snapshot();
    router.shutdown();

    // --- Baseline run: identical traffic, no migrations. -----------------
    let mut baseline_router = make_router(&model, total_threads);
    baseline_router.start();
    let (bids, mut bxs, mut baseline) = run_first_half(&baseline_router, hidden);
    run_second_half(&baseline_router, &bids, &mut bxs, &mut baseline);
    for id in &bids {
        baseline_router.close_session(*id).unwrap();
    }
    baseline_router.shutdown();

    let mut mismatches = 0usize;
    let pool = ThreadPool::new(2);
    for (s, (a, b)) in streams.iter().zip(&baseline).enumerate() {
        assert_eq!(a.len(), STEPS_BEFORE + STEPS_AFTER);
        // The unbatched oracle: one decoder, one state, no server.
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let mut x = last_token(&d.prefill(&prompt_for(s, hidden), PROMPT, &pool), hidden);
        for (t, (ya, yb)) in a.iter().zip(b).enumerate() {
            x = d.step(&x, &pool);
            if ya != yb || ya != &x {
                eprintln!("MISMATCH: session {s} step {t} differs from the unmigrated baselines");
                mismatches += 1;
            }
        }
    }

    // --- Metrics: the paged-KV + migration families, fleet-wide. ---------
    let text = pl_metrics::render_prometheus(&snap);
    println!("\n=== aggregated metrics (Prometheus text format) ===");
    for family in
        ["pl_kv_pages_free", "pl_kv_pages_shared", "pl_kv_sessions_spilled", "pl_migrations_total"]
    {
        for line in text.lines().filter(|l| l.contains(family)) {
            println!("{line}");
        }
        assert!(text.contains(family), "metrics dump is missing {family}");
    }
    let migrations: u64 = (0..SHARDS)
        .map(|s| snap.counter_value("pl_migrations_total", &[("shard", &s.to_string())]))
        .sum();

    // --- Assertions. -----------------------------------------------------
    assert_eq!(generated, (SESSIONS * (STEPS_BEFORE + STEPS_AFTER)) as u64);
    assert_eq!(migrations, 4, "explicit move + rebalance + two recovery re-homes");
    assert_eq!(mismatches, 0, "migrated streams must be bit-identical to the unmigrated baseline");
    println!(
        "\nOK: {SESSIONS} sessions, {migrations} migrations mid-stream (explicit + recovery), \
         all streams bit-identical to the unmigrated and unbatched baselines; explicit move \
         took {move_us:.1} us"
    );
}
