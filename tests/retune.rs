//! Cross-crate integration of the pl-retune loop: harvest → rank →
//! measure → install against a real server, plus the persistence
//! contract (round-trip, fingerprint gating, corruption tolerance).
//!
//! The tuning registry (`pl_dnn::tuning`) is process-global, so exactly
//! one test in this binary mutates it
//! ([`retune_cycle_end_to_end_with_persistence_and_fallback`]); the
//! others are pure file tests.

use pl_autotuner::{DbEntry, TuningDb};
use pl_dnn::{tuning, Decoder, DecoderConfig, DecoderModel};
use pl_perfmodel::Platform;
use pl_retune::{
    host_fingerprint, load_measured_db, save_measured_db, warm_or_load, PersistError, RetuneConfig,
    Retuner, WarmSource,
};
use pl_runtime::ThreadPool;
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pl_retune_e2e_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn sample_db() -> TuningDb {
    let mut db = TuningDb::new();
    db.put("gemm/host/32x1x32/f32", DbEntry { spec: "aCB".into(), score: 3.25 });
    db.put("gemm/host/64x8x32/f32", DbEntry { spec: "BCa".into(), score: 17.0 });
    db.put("gemm/host/32x8x64/f32", DbEntry { spec: "Cab".into(), score: 11.5 });
    db
}

#[test]
fn disk_roundtrip_yields_identical_lookups() {
    let path = tmp("roundtrip_lookups.db");
    let fp = host_fingerprint("host", 2);
    let db = sample_db();
    save_measured_db(&path, &fp, &db).unwrap();
    let loaded = load_measured_db(&path, &fp).unwrap();
    assert_eq!(loaded.len(), db.len());
    for (key, entry) in db.entries_sorted() {
        let got = loaded.get(key).unwrap_or_else(|| panic!("{key} lost in round-trip"));
        assert_eq!(got.spec, entry.spec, "{key}: spec drifted");
        assert!((got.score - entry.score).abs() < 1e-12, "{key}: score drifted");
    }
    // A second save of the loaded DB is byte-identical (sorted entries):
    // the file is a fixpoint, so repeated persist cycles never churn.
    let path2 = tmp("roundtrip_lookups2.db");
    save_measured_db(&path2, &fp, &loaded).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&path2).unwrap());
}

#[test]
fn corrupt_and_foreign_files_error_instead_of_panicking() {
    let fp = host_fingerprint("host", 2);
    // Truncated: a valid header then EOF mid-entry is still a valid
    // (possibly empty) DB — but a file cut inside the *header* is not.
    let trunc = tmp("cut_header.db");
    std::fs::write(&trunc, "#pl-retune-db v1").unwrap();
    assert!(matches!(load_measured_db(&trunc, &fp).unwrap_err(), PersistError::Malformed(_)));
    // Binary junk is rejected either at the read (invalid UTF-8 → Io)
    // or at the header parse — an error both ways, never a panic.
    let garbage = tmp("garbage.db");
    std::fs::write(&garbage, b"\xff\xfenonsense\x00").unwrap();
    assert!(matches!(
        load_measured_db(&garbage, &fp).unwrap_err(),
        PersistError::Malformed(_) | PersistError::Io(_)
    ));
    let foreign = tmp("foreign_host.db");
    save_measured_db(&foreign, "plan9/mips/ancient/64t", &sample_db()).unwrap();
    assert!(matches!(
        load_measured_db(&foreign, &fp).unwrap_err(),
        PersistError::FingerprintMismatch { .. }
    ));
}

/// The tentpole, end to end and deterministic: traffic → harvest → a
/// deliberately poisoned incumbent → one retune cycle installs a
/// measured winner through exactly one registry-epoch bump → the
/// in-flight decode stream is bit-identical across every install
/// → the measured DB round-trips through disk → a foreign-fingerprint
/// file falls back to the fresh modeled search.
#[test]
fn retune_cycle_end_to_end_with_persistence_and_fallback() {
    const STEPS_PER_PHASE: usize = 4;
    let threads = 2;
    let platform = Platform::generic_host(threads);
    let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 77));
    let pool = Arc::new(ThreadPool::new(threads));
    let server = Server::new(
        Arc::clone(&model),
        Arc::clone(&pool),
        ServerConfig { max_batch: 4, kv_capacity: 64, ..Default::default() },
    );
    server.warm_tuning(&platform, threads);
    let hidden = model.config().hidden;
    let id = server.create_session(0).unwrap();
    let mut x0 = vec![0.0f32; hidden];
    fill_uniform(&mut x0, &mut Xorshift::new(4242), -0.5, 0.5);
    let mut x = x0.clone();
    let mut served: Vec<Vec<f32>> = Vec::new();
    let step = |x: &Vec<f32>, server: &Server| -> Vec<f32> {
        let rx = server.submit_step(id, x).unwrap();
        assert_eq!(server.pump(), 1);
        rx.recv().unwrap().unwrap()
    };

    // Phase 1: clean traffic (populates the harvest's statistics).
    for _ in 0..STEPS_PER_PHASE {
        x = step(&x, &server);
        served.push(x.clone());
    }
    let hot = server.hot_gemm_problems();
    assert!(!hot.is_empty(), "completed steps must harvest hot shapes");
    assert!(hot.iter().all(|(p, _)| p.n == 1), "one lane per batch harvests width-1 shapes");

    // Phase 2: poison the hottest shape — an invalid spec with a huge
    // score, the stale-DB failure mode. Plans degrade (never panic) and
    // keep serving the same bits.
    let p = hot[0].0;
    let key = TuningDb::gemm_key(platform.name, p.m, p.n, p.k, &p.dtype.to_string());
    let mut poisoned = server.tuning_db().clone();
    poisoned.put(&key, DbEntry { spec: "zzz".into(), score: 1.0e9 });
    let epoch0 = tuning::epoch();
    server.adopt_tuning(platform.name, &poisoned);
    assert_eq!(tuning::epoch(), epoch0 + 1, "an install advances the epoch exactly once");
    for _ in 0..STEPS_PER_PHASE {
        x = step(&x, &server);
        served.push(x.clone());
    }

    // Phase 3: one retune cycle measures candidates off the serving
    // pool and installs the measured winner — one more epoch bump.
    let retuner = Retuner::new(
        platform.clone(),
        threads,
        RetuneConfig { budget: Duration::from_secs(30), ..Default::default() },
    );
    let report = retuner.run_cycle(&server, &ThreadPool::new(threads));
    assert!(report.changed(), "the poisoned incumbent must lose");
    assert_eq!(report.epoch_after, report.epoch_before + 1, "one install per changing cycle");
    let outcome = report.outcomes.iter().find(|o| o.key == key).expect("poisoned shape retuned");
    assert!(outcome.changed);
    assert_eq!(outcome.old_spec.as_deref(), Some("zzz"));
    assert!(outcome.old_gflops.is_none(), "an invalid spec is unmeasurable");
    assert_ne!(outcome.new_spec, "zzz");
    assert!(outcome.new_gflops > 0.0);
    assert!(outcome.candidates_measured > 0);
    // The cycle published its counters into the server's metrics plane.
    let metrics = server.metrics_snapshot();
    assert_eq!(metrics.counter_value("pl_retune_cycles_total", &[]), 1);
    assert!(metrics.counter_value("pl_retune_epoch_bumps_total", &[]) >= 1);
    assert!(metrics.counter_value("pl_retune_shapes_measured_total", &[]) >= 1);
    // Plans re-resolve from the installed snapshot: the server's DB now
    // carries the measured winner under the poisoned key.
    let installed = server.tuning_db().get(&key).expect("retuned key present").clone();
    assert_eq!(installed.spec, outcome.new_spec);
    for _ in 0..STEPS_PER_PHASE {
        x = step(&x, &server);
        served.push(x.clone());
    }
    server.close_session(id).unwrap();

    // The whole stream — spanning warm, poisoned, and retuned plans —
    // replayed against a sequential unbatched decoder, bitwise.
    let mut d = Decoder::from_model(Arc::clone(&model), 64);
    let mut x = x0;
    for (t, served_y) in served.iter().enumerate() {
        let y = d.step(&x, &pool);
        assert_eq!(&y, served_y, "step {t}: decode stream must be bit-identical across installs");
        x = y;
    }

    // Persistence: the measured DB round-trips and a matching
    // fingerprint loads it back verbatim...
    let fp = host_fingerprint(platform.name, threads);
    let snapshot = server.tuning_db().clone();
    let path = tmp("e2e_measured.db");
    save_measured_db(&path, &fp, &snapshot).unwrap();
    let loaded = load_measured_db(&path, &fp).unwrap();
    assert_eq!(loaded.len(), snapshot.len());
    assert_eq!(loaded.get(&key).unwrap().spec, outcome.new_spec);

    // ...while a foreign-fingerprint file makes warm_or_load fall back
    // to the fresh modeled search (with the reason surfaced).
    let foreign_path = tmp("e2e_foreign.db");
    save_measured_db(&foreign_path, "otheros/otherarch/other/64t", &snapshot).unwrap();
    let restarted = Server::new(
        Arc::clone(&model),
        Arc::clone(&pool),
        ServerConfig { max_batch: 4, kv_capacity: 64, ..Default::default() },
    );
    match warm_or_load(&restarted, &platform, threads, &foreign_path) {
        WarmSource::Warmed(n, why) => {
            assert!(n > 0, "fallback must run the fresh search");
            assert!(why.contains("fingerprint mismatch"), "reason must name the mismatch: {why}");
        }
        WarmSource::Loaded(n) => panic!("foreign DB must not be adopted ({n} entries)"),
    }
}
