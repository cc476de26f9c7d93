//! End-to-end pl-retune demo: the tune-measure-install loop closed
//! against a live server, with the stale-DB failure mode it exists for.
//!
//! The scenario:
//!
//! 1. **Warm or load**: the server's tuning state comes from
//!    [`pl_retune::warm_or_load`] — a fingerprinted measured DB on disk
//!    when one exists, the modeled warm-up search otherwise.
//! 2. **Serve**: eight concurrent closed-loop sessions decode through
//!    the batcher, populating the per-shape statistics (at the ragged
//!    widths the batches really ran at) the harvest reads.
//! 3. **Poison**: a deliberately bad loop spec is installed for the
//!    hottest harvested shape — standing in for a stale or corrupted
//!    tuning DB. Serving keeps working (plans degrade to the default
//!    schedule; spec choice never changes values).
//! 4. **Retune mid-stream**: with as many decode sessions in flight
//!    as the poisoned shape is wide, one [`Retuner::run_cycle`] measures
//!    model-ranked candidates on real packed buffers and installs the
//!    measured winner through the registry epoch. Every in-flight
//!    batched decode stream must be **bit-identical** to an unbatched
//!    replay across the install — zero downtime, zero divergence.
//! 5. **Persist**: the measured DB is saved, reloaded, verified entry
//!    for entry, and adopted by a second server via `warm_or_load`
//!    (the fast path a process restart takes). A garbage file then
//!    demonstrates the degrade path: logged warning, modeled warm-up,
//!    no panic.
//!
//! Run: `cargo run --release --example retune_llm`

use pl_autotuner::{DbEntry, TuningDb};
use pl_dnn::{Decoder, DecoderConfig, DecoderModel};
use pl_perfmodel::Platform;
use pl_retune::{
    host_fingerprint, load_measured_db, save_measured_db, warm_or_load, RetuneConfig, Retuner,
    WarmSource,
};
use pl_runtime::{default_threads, ThreadPool};
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;

const SESSIONS: usize = 8;
const STEPS: usize = 24;
const KV: usize = 64;
/// Decode steps in the across-the-install bit-identity stream; the
/// retune cycle fires halfway through.
const CHECK_STEPS: usize = 16;
const SEED: u64 = 2024;
/// The poison spec: not a valid loop string at all, so the registry's
/// degrade path (default schedule) serves it and the retuner finds it
/// unmeasurable — the install is then unconditional, which is exactly
/// what a stale entry deserves.
const POISON_SPEC: &str = "qqq";

fn token(seed: u64, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden];
    fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
    x
}

fn server_for(model: &Arc<DecoderModel>, pool: &Arc<ThreadPool>) -> Server {
    Server::new(
        Arc::clone(model),
        Arc::clone(pool),
        ServerConfig { tenants: 2, max_batch: SESSIONS, kv_capacity: KV, ..Default::default() },
    )
}

fn main() {
    let threads = default_threads().min(8);
    let platform = Platform::generic_host(threads);
    let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), SEED));
    let hidden = model.config().hidden;
    let pool = Arc::new(ThreadPool::new(threads));
    // Measurements run on their own pool, never the serving threads.
    let tune_pool = ThreadPool::new(threads);
    let retuner = Retuner::new(platform.clone(), threads, RetuneConfig::default());
    let db_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/retune_llm.db");
    println!(
        "pl-retune demo: {SESSIONS} sessions x {STEPS} steps, {threads} threads, persisted DB \
         at {}",
        db_path.display()
    );

    // --- 1. Warm or load. ------------------------------------------------
    let _ = std::fs::remove_file(&db_path); // each run starts cold
    let mut server = server_for(&model, &pool);
    match warm_or_load(&server, &platform, threads, &db_path) {
        WarmSource::Warmed(n, why) => {
            assert!(why.is_empty(), "cold start must be a clean miss, got: {why}");
            println!("cold start: modeled warm-up covered {n} shapes");
        }
        WarmSource::Loaded(n) => unreachable!("cold start loaded {n} entries"),
    }
    server.start();

    // --- 2. Serve: concurrent closed-loop decode traffic. ----------------
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let server = &server;
            scope.spawn(move || {
                let id = server.create_session(s % 2).expect("session admitted");
                let mut x = token(9000 + s as u64, hidden);
                for _ in 0..STEPS {
                    x = server.step(id, &x).unwrap();
                }
                server.close_session(id).unwrap();
            });
        }
    });
    let hot = server.hot_gemm_problems();
    assert!(!hot.is_empty(), "traffic must leave harvestable hot shapes");
    println!(
        "harvested {} hot GEMM shapes; hottest: {:?} (weight {})",
        hot.len(),
        hot[0].0,
        hot[0].1
    );

    // --- 3. Poison the hottest shape's tuning entry. ----------------------
    let p = hot[0].0;
    let poisoned_key = TuningDb::gemm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
    let mut db = server.tuning_db().clone();
    db.put(&poisoned_key, DbEntry { spec: POISON_SPEC.into(), score: 1.0e9 });
    server.adopt_tuning(platform.name, &db);
    println!("poisoned {poisoned_key} with spec {POISON_SPEC:?} (stale-DB stand-in)");

    // --- 4. Retune mid-stream, bit-identity across the install. ----------
    // As many lock-step streams as the poisoned shape is wide, so the
    // batches in flight run the poisoned kernel before the install and
    // the measured winner after it.
    let width = p.n.min(SESSIONS);
    let ids: Vec<_> =
        (0..width).map(|_| server.create_session(0).expect("check session")).collect();
    let x0: Vec<Vec<f32>> = (0..width).map(|s| token(4242 + s as u64, hidden)).collect();
    let mut xs = x0.clone();
    let mut served: Vec<Vec<Vec<f32>>> = vec![Vec::with_capacity(CHECK_STEPS); width];
    let mut report = None;
    for t in 0..CHECK_STEPS {
        if t == CHECK_STEPS / 2 {
            let r = retuner.run_cycle(&server, &tune_pool);
            assert_eq!(
                r.epoch_after,
                r.epoch_before + 1,
                "a changing cycle must bump the registry epoch exactly once"
            );
            report = Some(r);
        }
        let rxs: Vec<_> =
            ids.iter().zip(&xs).map(|(&id, x)| server.submit_step(id, x).unwrap()).collect();
        for (s, rx) in rxs.into_iter().enumerate() {
            xs[s] = rx.recv().unwrap().unwrap();
            served[s].push(xs[s].clone());
        }
    }
    for id in ids {
        server.close_session(id).unwrap();
    }
    let report = report.expect("cycle ran");
    let outcome = report
        .outcomes
        .iter()
        .find(|o| o.key == poisoned_key)
        .expect("the poisoned shape must be retuned");
    assert!(outcome.changed, "the poisoned spec must be replaced");
    assert!(outcome.old_gflops.is_none(), "the poison must be unmeasurable");
    assert_ne!(outcome.new_spec, POISON_SPEC);
    assert!(outcome.new_gflops > 0.0, "the winner is a real measurement");
    println!(
        "retuned {} shapes in {:.2}s: {poisoned_key} now {} ({:.1} GF/s measured), epoch {} -> {}",
        report.outcomes.len(),
        report.cycle_seconds,
        outcome.new_spec,
        outcome.new_gflops,
        report.epoch_before,
        report.epoch_after
    );
    // Replay every stream — spanning the poison and the install — on a
    // sequential unbatched decoder. Bitwise.
    for (s, stream) in served.iter().enumerate() {
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let mut x = x0[s].clone();
        for (t, served_y) in stream.iter().enumerate() {
            x = d.step(&x, &pool);
            assert_eq!(
                &x, served_y,
                "stream {s} step {t}: in-flight decode must be bit-identical across install"
            );
        }
    }
    println!(
        "{width} in-flight batched decode streams bit-identical to unbatched replays across \
         poison + retune install ({CHECK_STEPS} steps)"
    );

    // --- 5. Persist, reload, adopt; then the degrade path. ----------------
    let fingerprint = host_fingerprint(platform.name, threads);
    let snapshot = server.tuning_db().clone();
    save_measured_db(&db_path, &fingerprint, &snapshot).expect("save measured DB");
    let reloaded = load_measured_db(&db_path, &fingerprint).expect("reload measured DB");
    assert_eq!(reloaded.len(), snapshot.len(), "round-trip must preserve every entry");
    let entry = reloaded.get(&poisoned_key).expect("retuned key persisted");
    assert_eq!(entry.spec, outcome.new_spec, "persisted spec is the measured winner");
    println!(
        "persisted {} entries to {} and verified the round-trip",
        reloaded.len(),
        db_path.display()
    );

    let restarted = server_for(&model, &pool);
    match warm_or_load(&restarted, &platform, threads, &db_path) {
        WarmSource::Loaded(n) => println!("restart path: adopted {n} measured entries from disk"),
        WarmSource::Warmed(n, why) => unreachable!("restart fell back to warm-up ({n}): {why}"),
    }

    let corrupt_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/retune_llm_corrupt.db");
    std::fs::write(&corrupt_path, b"\x00\x01 this is not a tuning db").expect("write corrupt file");
    let degraded = server_for(&model, &pool);
    match warm_or_load(&degraded, &platform, threads, &corrupt_path) {
        WarmSource::Warmed(n, why) => {
            assert!(!why.is_empty(), "a corrupt file must carry a reason");
            println!(
                "degrade path: corrupt DB ignored ({why}); modeled warm-up covered {n} shapes"
            );
        }
        WarmSource::Loaded(n) => unreachable!("corrupt file loaded {n} entries"),
    }

    server.shutdown();
    println!(
        "\nOK: measured winner installed for {poisoned_key} with zero downtime, \
         persisted DB round-tripped, corrupt DB degraded to warm-up"
    );
}
