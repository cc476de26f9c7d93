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
//! the numerics.
//!
//! Phase 2 (scaling): the same closed-loop load is driven at 1 shard and
//! at N shards over the *same* total thread budget (split disjointly),
//! and the measured steps/s speedup is printed. Both rows land in the
//! machine-readable `BENCH_serve.json` trajectory artifact.
//!
//! Run: `cargo run --release --example router_llm [-- --shards N]`

use pl_bench::{
    measure_router_steps_per_s, BenchArtifact, BenchRow, RouterLoad, ROUTER_MODE, SERVE_ARTIFACT,
};
use pl_dnn::{Decoder, DecoderConfig, DecoderModel};
use pl_perfmodel::Platform;
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

    // --- Phase 1: correctness through the sharded tier. -----------------
    let mut router = Router::new(
        Arc::clone(&model),
        RouterConfig { shards, total_threads, server: server_cfg() },
    )
    .expect("router config");
    let warmed = router.warm_tuning(&Platform::zen4());
    println!("tuning DB warmed once on shard 0 ({warmed} entries), adopted by {shards} shards");
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

    // --- Phase 2: measured scale-out. -------------------------------------
    println!("\n=== scale-out: measured ===");
    println!("{:>7} {:>16} {:>12} {:>8}", "shards", "steps/s", "measured x", "p99 us");
    // Same host fingerprint the retune evidence DB keys on: rows from
    // different machines coexist in the artifact instead of clobbering.
    let fp = pl_retune::host_fingerprint(Platform::generic_host(total_threads).name, total_threads);
    let mut artifact = BenchArtifact::load(&pl_bench::workspace_path(SERVE_ARTIFACT));
    let load = RouterLoad {
        sessions: SESSIONS,
        steps: 2 * STEPS,
        tenants: TENANTS,
        kv_capacity: KV,
        seed: 40,
    };
    let mut single_sps = 0.0f64;
    let mut multi_speedup = 0.0f64;
    for n in [1usize, shards] {
        let m = measure_router_steps_per_s(&model, n, total_threads, &load);
        if n == 1 {
            single_sps = m.steps_per_s;
        }
        let measured_x = m.steps_per_s / single_sps.max(1e-9);
        if n == shards {
            multi_speedup = measured_x;
        }
        println!("{n:>7} {:>16.1} {measured_x:>11.2}x {:>8}", m.steps_per_s, m.p99_us);
        artifact.upsert(BenchRow {
            mode: ROUTER_MODE.to_string(),
            batch: SESSIONS,
            shards: n,
            steps_per_s: m.steps_per_s,
            p99_us: m.p99_us as f64,
            fingerprint: fp.clone(),
        });
        if n == shards && shards == 1 {
            break;
        }
    }
    artifact.save(&pl_bench::workspace_path(SERVE_ARTIFACT)).expect("write BENCH_serve.json");
    println!("wrote {} rows to {SERVE_ARTIFACT}", artifact.rows().len());

    // --- Assertions. -----------------------------------------------------
    assert_eq!(agg.completed, (SESSIONS * STEPS) as u64);
    assert_eq!(agg.prefills, SESSIONS as u64);
    for (i, s) in per_shard.iter().enumerate() {
        assert!(s.completed > 0, "shard {i} served no steps — placement is broken");
    }
    assert_eq!(mismatches, 0, "routed outputs must be bit-identical to both replays");
    let reloaded = BenchArtifact::load(&pl_bench::workspace_path(SERVE_ARTIFACT));
    assert!(!reloaded.rows_at_shards(1).is_empty(), "artifact has 1-shard rows");
    if shards > 1 {
        assert!(!reloaded.rows_at_shards(shards).is_empty(), "artifact has {shards}-shard rows");
        assert!(multi_speedup > 0.0);
    }
    println!(
        "\nOK: {SESSIONS} sessions across {shards} shards, all streams bit-identical to the \
         single-server and unbatched runs; measured {shards}-shard speedup {multi_speedup:.2}x"
    );
}
