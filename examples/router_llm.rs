//! End-to-end pl-router demo: sharded scale-out serving over
//! core-partitioned `Server` instances.
//!
//! Phase 1 (correctness): N concurrent client sessions run prefill + a
//! closed decode loop through a 2-shard [`pl_router::Router`] (sessions
//! placed least-loaded, affine to their shard). The *same* per-session
//! traffic is then replayed through a single `pl_serve::Server` and
//! through a sequential unbatched `Decoder`, and every session's whole
//! output stream must be **bit-identical** to both — neither routing nor
//! whatever batch composition each shard happened to see is visible to
//! the numerics. Measured scale-out is plbench's `router.2x1` workload
//! (`benchmark/`), not this demo's job.
//!
//! The fleet's merged, `shard`-labelled metrics snapshot
//! ([`pl_router::Router::metrics_snapshot`]) is printed in Prometheus
//! text format.
//!
//! Run: `cargo run --release --example router_llm [-- --shards N]`

use pl_dnn::{Decoder, DecoderConfig, DecoderModel};
use pl_router::{Router, RouterConfig};
use pl_runtime::{default_threads, ThreadPool};
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;

const SESSIONS: usize = 6;
const TENANTS: usize = 2;
const PROMPT: usize = 4;
const STEPS: usize = 24;
const KV: usize = 64;

fn prompt_for(session: usize, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden * PROMPT];
    fill_uniform(&mut x, &mut Xorshift::new(9000 + session as u64), -0.5, 0.5);
    x
}

fn last_token(y: &[f32], hidden: usize) -> Vec<f32> {
    y[y.len() - hidden..].to_vec()
}

fn server_cfg() -> ServerConfig {
    ServerConfig { tenants: TENANTS, max_batch: SESSIONS, kv_capacity: KV, ..Default::default() }
}

/// Drives the standard closed-loop traffic through any `step`-shaped
/// endpoint; returns every session's full output stream.
fn drive_clients(
    hidden: usize,
    create: impl Fn(usize) -> u64 + Sync,
    prefill: impl Fn(u64, &[f32], usize) -> Vec<f32> + Sync,
    step: impl Fn(u64, &[f32]) -> Vec<f32> + Sync,
    close: impl Fn(u64) + Sync,
) -> Vec<Vec<Vec<f32>>> {
    let mut streams: Vec<Vec<Vec<f32>>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..SESSIONS {
            let (create, prefill, step, close) = (&create, &prefill, &step, &close);
            handles.push(scope.spawn(move || {
                let id = create(s);
                let y = prefill(id, &prompt_for(s, hidden), PROMPT);
                let mut x = last_token(&y, hidden);
                let mut outs = Vec::with_capacity(STEPS);
                for _ in 0..STEPS {
                    let y = step(id, &x);
                    x = y.clone();
                    outs.push(y);
                }
                close(id);
                outs
            }));
        }
        for h in handles {
            streams.push(h.join().unwrap());
        }
    });
    streams
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2usize)
        .max(1);
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 7777));
    let total_threads = default_threads().min(8).max(shards);
    println!(
        "pl-router demo: {shards} shards x {:?} threads, {SESSIONS} sessions / \
         {TENANTS} tenants, {PROMPT}-token prompts + {STEPS} decode steps each",
        pl_router::partition_threads(total_threads, shards),
    );

    // --- Correctness through the sharded tier. ---------------------------
    let mut router = Router::new(
        Arc::clone(&model),
        RouterConfig { shards, total_threads, server: server_cfg() },
    )
    .expect("router config");
    router.start();
    let routed = drive_clients(
        hidden,
        |s| router.create_session(s % TENANTS).expect("admitted"),
        |id, x, t| router.prefill(id, x, t).unwrap(),
        |id, x| router.step(id, x).unwrap(),
        |id| {
            router.close_session(id).unwrap();
        },
    );
    let per_shard = router.shard_stats();
    let agg = router.stats();
    let fleet_metrics = pl_metrics::render_prometheus(&router.metrics_snapshot());
    router.shutdown();

    println!("\n=== per-shard / aggregated stats ===");
    for (i, s) in per_shard.iter().enumerate() {
        println!(
            "shard {i}: completed {:>5}  batches {:>4}  mean batch {:>5.2}  p99 {:>6} us",
            s.completed, s.batches, s.mean_batch, s.p99_us
        );
    }
    println!(
        "fleet:   completed {:>5}  batches {:>4}  mean batch {:>5.2}  p99 {:>6} us",
        agg.completed, agg.batches, agg.mean_batch, agg.p99_us
    );
    println!("\n=== fleet metrics (Prometheus text format) ===\n{fleet_metrics}");

    let mut mismatches = 0usize;
    // The identical per-session traffic through a single Server must
    // produce bit-identical streams — sharding is numerically invisible…
    let single_pool = Arc::new(ThreadPool::new(total_threads));
    let mut single = Server::new(Arc::clone(&model), single_pool, server_cfg());
    single.start();
    let baseline = drive_clients(
        hidden,
        |s| single.create_session(s % TENANTS).expect("admitted"),
        |id, x, t| single.prefill(id, x, t).unwrap(),
        |id, x| single.step(id, x).unwrap(),
        |id| {
            single.close_session(id).unwrap();
        },
    );
    single.shutdown();
    // …and so is batching: a sequential unbatched replay of each stream.
    let pool = ThreadPool::new(2);
    for (s, (routed_s, single_s)) in routed.iter().zip(&baseline).enumerate() {
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let y = d.prefill(&prompt_for(s, hidden), PROMPT, &pool);
        let mut x = last_token(&y, hidden);
        for (t, (a, b)) in routed_s.iter().zip(single_s).enumerate() {
            x = d.step(&x, &pool);
            if a != b || a != &x {
                eprintln!("MISMATCH: session {s} step {t}");
                mismatches += 1;
            }
        }
    }

    // --- Assertions. -----------------------------------------------------
    assert_eq!(agg.completed, (SESSIONS * STEPS) as u64);
    assert_eq!(agg.prefills, SESSIONS as u64);
    for (i, s) in per_shard.iter().enumerate() {
        assert!(s.completed > 0, "shard {i} served no steps — placement is broken");
    }
    assert_eq!(mismatches, 0, "routed outputs must be bit-identical to both replays");
    println!(
        "\nOK: {SESSIONS} sessions across {shards} shards, all streams bit-identical to the \
         single-server and unbatched runs"
    );
}
