//! Serving throughput: the pl-serve dynamic batcher vs unbatched decode.
//!
//! N closed-loop client sessions decode through the server at several
//! `max_batch` settings (1 disables coalescing — every step is its own
//! batch). Reported: decode steps/s, mean executed batch, p50/p99
//! queue-to-reply latency. A batch is one parallel region whose
//! projections run once over all of its lanes, so the batched rows both
//! amortize the region and raise decode arithmetic intensity from O(1)
//! to O(B) — the throughput lever the paper's BRGEMM design exists for.

use pl_bench::{
    f1, f2, header, measure_router_steps_per_s, row, time_it, trace_shapes_json, BenchArtifact,
    BenchRow, RouterLoad, ROUTER_MODE, SERVE_ARTIFACT, TRACE_SHAPES_ARTIFACT,
};
use pl_dnn::matmul::{matmul, Trans};
use pl_dnn::{DecoderConfig, DecoderModel, MatmulPlan, Precision};
use pl_perfmodel::Platform;
use pl_retune::{
    host_fingerprint, parse_summary, tune_prefill_chunk, RetuneConfig, Retuner, ServeRow,
    TuneArtifact, TUNE_DB_ARTIFACT,
};
use pl_runtime::{default_threads, ThreadPool};
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use pl_trace::TraceSummary;
use std::sync::Arc;

const SESSIONS: usize = 8;
const STEPS: usize = 32;
const KV: usize = 64;

/// Artifact mode string: suffixed with the precision when it is not the
/// f32 default so per-precision rows coexist under distinct
/// `{mode, batch, shards}` keys.
fn serve_mode_name(precision: Precision) -> &'static str {
    match precision {
        Precision::F32 => "serve",
        Precision::Int8 => "serve-i8",
    }
}

fn drive(max_batch: usize, model: &Arc<DecoderModel>, pool: &Arc<ThreadPool>) -> (f64, u64) {
    let cfg = model.config();
    let hidden = cfg.hidden;
    let mut server = Server::new(
        Arc::clone(model),
        Arc::clone(pool),
        ServerConfig { tenants: 2, max_batch, kv_capacity: KV, ..Default::default() },
    );
    server.start();
    std::thread::scope(|scope| {
        for s in 0..SESSIONS {
            let server = &server;
            scope.spawn(move || {
                let id = server.create_session(s % 2).unwrap();
                let mut x = vec![0.0f32; hidden];
                fill_uniform(&mut x, &mut Xorshift::new(60 + s as u64), -0.5, 0.5);
                for _ in 0..STEPS {
                    x = server.step(id, &x).unwrap();
                }
                server.close_session(id).unwrap();
            });
        }
    });
    let snap = server.stats().snapshot();
    server.shutdown();
    row(&[
        max_batch.to_string(),
        serve_mode_name(model.precision()).to_string(),
        f1(snap.tokens_per_s),
        f2(snap.mean_batch),
        snap.max_batch_observed.to_string(),
        snap.p50_us.to_string(),
        snap.p99_us.to_string(),
    ]);
    (snap.tokens_per_s, snap.p99_us)
}

const MIXED_PROMPT: usize = 64;
const MIXED_STEPS: usize = 64;
const MIXED_KV: usize = 128;

/// The continuous-batching payoff, measured: B = 8 closed-loop decode
/// sessions with one `MIXED_PROMPT`-token prefill arriving mid-run, once
/// with the prompt admitted as a single chunk (`prefill_chunk` >= prompt:
/// the old head-of-line-blocking behavior — the whole forward occupies one
/// batch while every decode step waits) and once chunked (8-token chunks
/// interleaving with the decode lanes). Reported decode p99 is the
/// queue-to-reply latency of the decode steps only; both rows land in the
/// trajectory artifact.
fn mixed_workload(
    model: &Arc<DecoderModel>,
    pool: &Arc<ThreadPool>,
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    header(
        &format!(
            "mixed workload: {SESSIONS} closed-loop decode sessions + one \
             {MIXED_PROMPT}-token prefill arriving mid-run [measured]"
        ),
        &["prefill admission", "decode steps/s", "decode p99 us", "chunks", "mixed batches"],
    );
    for &(label, mode, chunk) in &[
        ("blocking (1 chunk)", "mixed-blocking", MIXED_PROMPT),
        ("chunked (8 x 8)", "mixed-chunked", 8usize),
    ] {
        let hidden = model.config().hidden;
        let mut server = Server::new(
            Arc::clone(model),
            Arc::clone(pool),
            ServerConfig {
                tenants: 2,
                max_batch: SESSIONS,
                kv_capacity: MIXED_KV,
                prefill_chunk: chunk,
                ..Default::default()
            },
        );
        server.start();
        std::thread::scope(|scope| {
            for s in 0..SESSIONS {
                let server = &server;
                scope.spawn(move || {
                    let id = server.create_session(s % 2).unwrap();
                    let mut x = vec![0.0f32; hidden];
                    fill_uniform(&mut x, &mut Xorshift::new(80 + s as u64), -0.5, 0.5);
                    for _ in 0..MIXED_STEPS {
                        x = server.step(id, &x).unwrap();
                    }
                    server.close_session(id).unwrap();
                });
            }
            let server = &server;
            scope.spawn(move || {
                // Arrive mid-run: wait for the decode loop to be warm.
                while server.stats().snapshot().completed < (SESSIONS * 8) as u64 {
                    std::thread::yield_now();
                }
                let id = server.create_session(1).unwrap();
                let mut prompt = vec![0.0f32; hidden * MIXED_PROMPT];
                fill_uniform(&mut prompt, &mut Xorshift::new(99), -0.5, 0.5);
                let y = server.prefill(id, &prompt, MIXED_PROMPT).unwrap();
                assert_eq!(y.len(), hidden * MIXED_PROMPT);
                server.close_session(id).unwrap();
            });
        });
        let snap = server.stats().snapshot();
        server.shutdown();
        row(&[
            label.to_string(),
            f1(snap.tokens_per_s),
            snap.p99_us.to_string(),
            snap.prefill_chunks.to_string(),
            snap.mixed_batches.to_string(),
        ]);
        artifact.upsert(BenchRow {
            mode: mode.into(),
            batch: SESSIONS,
            shards: 1,
            steps_per_s: snap.tokens_per_s,
            p99_us: snap.p99_us as f64,
            fingerprint: fp.into(),
        });
    }
    println!();
}

const DENSITY_SESSIONS: usize = 8;
const DENSITY_PREFIX: usize = 64;

/// Session density at fixed KV memory: `DENSITY_SESSIONS` sessions open
/// with the same `DENSITY_PREFIX`-token prompt, then each decodes one
/// divergent token. The contiguous row runs with page size == capacity
/// (one capacity-sized allocation per layer at first write — the
/// pre-paging layout) and sharing off; the paged row uses the default
/// page size with the prefix cache on, so the prompt's pages are physical
/// copies held once and divergence allocates lazily. "resident sessions"
/// is how many such sessions fit in the KV memory the contiguous run
/// used — the density win the paged layout buys. A migration-latency
/// probe (quiesced export + import of a warm session between two servers)
/// rides along.
fn kv_density(
    model: &Arc<DecoderModel>,
    pool: &Arc<ThreadPool>,
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    let hidden = model.config().hidden;
    let mut prompt = vec![0.0f32; hidden * DENSITY_PREFIX];
    fill_uniform(&mut prompt, &mut Xorshift::new(44), -0.5, 0.5);

    let run = |page_tokens: usize, share: bool| -> (usize, Server) {
        let server = Server::new(
            Arc::clone(model),
            Arc::clone(pool),
            ServerConfig {
                tenants: 2,
                max_batch: DENSITY_SESSIONS,
                kv_capacity: MIXED_KV,
                kv_page_tokens: page_tokens,
                share_prefix: share,
                ..Default::default()
            },
        );
        let mut steps = Vec::new();
        for s in 0..DENSITY_SESSIONS {
            let id = server.create_session(s % 2).unwrap();
            server.prefill(id, &prompt, DENSITY_PREFIX).unwrap();
            let mut x = vec![0.0f32; hidden];
            fill_uniform(&mut x, &mut Xorshift::new(200 + s as u64), -0.5, 0.5);
            steps.push(server.submit_step(id, &x).unwrap());
        }
        while server.pump() > 0 {}
        for rx in steps {
            rx.recv().unwrap().unwrap();
        }
        let bytes = server.kv_pool().allocated_pages() * server.kv_pool().page_bytes();
        (bytes, server)
    };

    header(
        &format!(
            "KV session density: {DENSITY_SESSIONS} sessions sharing a \
             {DENSITY_PREFIX}-token prompt + 1 divergent token [measured]"
        ),
        &["layout", "KV bytes", "bytes/session", "resident @ fixed mem", "shared pages"],
    );
    let (contig_bytes, contig_server) = run(MIXED_KV, false);
    drop(contig_server);
    let (paged_bytes, paged_server) = run(pl_dnn::DEFAULT_PAGE_TOKENS, true);
    let shared = paged_server.prefix_cache().shared_pages();
    drop(paged_server);
    let per_paged = (paged_bytes / DENSITY_SESSIONS).max(1);
    let resident_paged = contig_bytes / per_paged;
    for (label, mode, bytes, resident, shared) in [
        ("contiguous", "kv-density-contig", contig_bytes, DENSITY_SESSIONS, 0usize),
        ("paged+shared", "kv-density-paged", paged_bytes, resident_paged, shared),
    ] {
        row(&[
            label.to_string(),
            bytes.to_string(),
            (bytes / DENSITY_SESSIONS).to_string(),
            resident.to_string(),
            shared.to_string(),
        ]);
        artifact.upsert(BenchRow {
            mode: mode.into(),
            batch: DENSITY_PREFIX,
            shards: 1,
            steps_per_s: resident as f64,
            p99_us: bytes as f64,
            fingerprint: fp.into(),
        });
    }
    println!(
        "density: {:.1}x resident sessions at the contiguous memory footprint",
        resident_paged as f64 / DENSITY_SESSIONS as f64
    );
    assert!(
        resident_paged >= 2 * DENSITY_SESSIONS,
        "paged+shared density below 2x: {resident_paged} vs {DENSITY_SESSIONS} contiguous"
    );

    // Migration latency: a warm session (full prompt in KV) round-trips
    // between two single-shard servers; each leg is one quiesced
    // export_session + import_session.
    let mk = || {
        Server::new(
            Arc::clone(model),
            Arc::clone(pool),
            ServerConfig {
                tenants: 2,
                max_batch: DENSITY_SESSIONS,
                kv_capacity: MIXED_KV,
                ..Default::default()
            },
        )
    };
    let (src, dst) = (mk(), mk());
    let mut id = src.create_session(0).unwrap();
    src.prefill(id, &prompt, DENSITY_PREFIX).unwrap();
    let kv_bytes = {
        let export = src.export_session(id).unwrap();
        let bytes = export.kv.kv_bytes();
        id = src.import_session(&export).unwrap();
        bytes
    };
    const REPS: usize = 32;
    let t = std::time::Instant::now();
    for _ in 0..REPS {
        let out = src.export_session(id).unwrap();
        let there = dst.import_session(&out).unwrap();
        let back = dst.export_session(there).unwrap();
        id = src.import_session(&back).unwrap();
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / (REPS * 2) as f64;
    println!(
        "migration latency ({DENSITY_PREFIX}-token context, {kv_bytes} KV bytes): \
         {us:.1} us per export+import\n"
    );
}

/// Pack-per-call vs prepared-plan execution of one layer-scale weight
/// GEMM (`m x B = (m x k) x (k x B)`): the free `matmul` re-packs the
/// weight and re-constructs the kernel every call (the pre-PR-3 execution
/// path); [`MatmulPlan`] packed the weight once at build and reuses the
/// cached kernel, paying only the activation pack per call.
fn pack_amortization(pool: &Arc<ThreadPool>) {
    const M: usize = 256; // layer-scale weight at host size
    const K: usize = 256;
    const REPS: usize = 200;
    header(
        &format!(
            "pack amortization: one {M} x B weight GEMM, pack-per-call vs prepared [measured]"
        ),
        &["B", "per-call exec/s", "plan exec/s", "plan speedup"],
    );
    let mut rng = Xorshift::new(90);
    let mut w = vec![0.0f32; M * K];
    fill_uniform(&mut w, &mut rng, -0.5, 0.5);
    let plan = MatmulPlan::new(&w, Trans::No, M, K);
    for b in [1usize, 8] {
        let mut x = vec![0.0f32; K * b];
        fill_uniform(&mut x, &mut rng, -0.5, 0.5);
        let per_call = time_it(REPS, || {
            std::hint::black_box(matmul(&w, Trans::No, &x, Trans::No, M, b, K, pool));
        });
        let prepared = time_it(REPS, || {
            std::hint::black_box(plan.execute(&x, b, pool));
        });
        row(&[
            b.to_string(),
            f1(1.0 / per_call),
            f1(1.0 / prepared),
            format!("{:.2}x", per_call / prepared),
        ]);
    }
    println!();
}

/// The quantized decode path: the same closed-loop workload served from
/// the int8 model (same seed, so its weights are the exact quantization
/// of the f32 model's) at B ∈ {1, 8}. The artifact gains `serve-i8` rows,
/// and the same-host comparison table prints the i8/f32 throughput ratio
/// against the f32 numbers measured *this run* (`f32_ref`) — decode is
/// weight-bandwidth bound, so the ~4x weight-stream reduction printed
/// above the table is the mechanism behind any i8 win.
fn int8_sweep(
    f32_model: &Arc<DecoderModel>,
    i8_model: &Arc<DecoderModel>,
    pool: &Arc<ThreadPool>,
    f32_ref: &[(usize, f64)],
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    header(
        &format!("quantized int8 decode ({SESSIONS} sessions x {STEPS} steps) [measured]"),
        &["max_batch", "mode", "steps/s", "mean batch", "max batch", "p50 us", "p99 us"],
    );
    let mut measured = Vec::new();
    for &batch in &[1usize, SESSIONS] {
        let (sps, p99) = drive(batch, i8_model, pool);
        artifact.upsert(BenchRow {
            mode: serve_mode_name(Precision::Int8).into(),
            batch,
            shards: 1,
            steps_per_s: sps,
            p99_us: p99 as f64,
            fingerprint: fp.into(),
        });
        measured.push((batch, sps));
    }
    let f32_bytes = f32_model.weight_stream_bytes_per_step();
    let i8_bytes = i8_model.weight_stream_bytes_per_step();
    println!(
        "\nweight bytes streamed per decode step: f32 {} vs int8 {} ({:.2}x reduction)",
        f32_bytes,
        i8_bytes,
        f32_bytes as f64 / i8_bytes as f64
    );
    header(
        "f32 vs int8, same host, this run [measured]",
        &["max_batch", "f32 steps/s", "i8 steps/s", "i8/f32"],
    );
    for (batch, i8_sps) in measured {
        let Some(&(_, f32_sps)) = f32_ref.iter().find(|&&(b, _)| b == batch) else {
            continue;
        };
        row(&[
            batch.to_string(),
            f1(f32_sps),
            f1(i8_sps),
            format!("{:.2}x", i8_sps / f32_sps.max(1e-9)),
        ]);
    }
    println!();
}

const ROUTER_SESSIONS: usize = 16;

/// Router scale-out: the same closed-loop traffic through a router at
/// 1/2/4 shards, the machine's threads split disjointly across the
/// shards (so every row uses the *same* total compute), driven by the
/// shared [`measure_router_steps_per_s`] harness.
fn router_scaling(
    model: &Arc<DecoderModel>,
    total_threads: usize,
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    let load = RouterLoad {
        sessions: ROUTER_SESSIONS,
        steps: STEPS,
        tenants: 2,
        kv_capacity: KV,
        seed: 70,
    };
    header(
        &format!(
            "pl-router scale-out ({ROUTER_SESSIONS} sessions x {STEPS} steps, \
             {total_threads} threads split across shards) [measured]"
        ),
        &["shards", "steps/s", "measured x", "p99 us"],
    );
    let mut single = 0.0f64;
    for shards in [1usize, 2, 4] {
        let m = measure_router_steps_per_s(model, shards, total_threads, &load);
        if shards == 1 {
            single = m.steps_per_s;
        }
        row(&[
            shards.to_string(),
            f1(m.steps_per_s),
            format!("{:.2}x", m.steps_per_s / single.max(1e-9)),
            m.p99_us.to_string(),
        ]);
        artifact.upsert(BenchRow {
            mode: ROUTER_MODE.to_string(),
            batch: ROUTER_SESSIONS,
            shards,
            steps_per_s: m.steps_per_s,
            p99_us: m.p99_us as f64,
            fingerprint: fp.into(),
        });
    }
}

/// The flight-recorder's disabled-path cost, as a bench row pair: the
/// same B = 8 drive with tracing compiled in but **off** (the
/// default everywhere else in this harness — one relaxed atomic load per
/// would-be span) vs **on** (every span recorded into the per-thread
/// rings). The off row must sit within noise of the on-row-free sweep
/// above; the on row prices full recording.
fn trace_overhead(
    model: &Arc<DecoderModel>,
    pool: &Arc<ThreadPool>,
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    header(
        &format!("pl-trace overhead (max_batch={SESSIONS}) [measured]"),
        &["max_batch", "mode", "steps/s", "mean batch", "max batch", "p50 us", "p99 us"],
    );
    assert!(!pl_trace::enabled(), "overhead baseline needs tracing off");
    // Each drive is a sub-second run, so single readings are noisy:
    // take the best of a few reps per mode (peak throughput is the
    // right statistic for an overhead comparison — interference only
    // ever subtracts).
    const REPS: usize = 3;
    let best = |rows: [(f64, u64); REPS]| {
        rows.into_iter().reduce(|a, b| if b.0 > a.0 { b } else { a }).unwrap()
    };
    let (off_sps, off_p99) = best(std::array::from_fn(|_| drive(SESSIONS, model, pool)));
    pl_trace::enable();
    let (on_sps, on_p99) = best(std::array::from_fn(|_| drive(SESSIONS, model, pool)));
    pl_trace::disable();
    println!("tracing on/off throughput ratio: {:.3}", on_sps / off_sps.max(1e-9));
    for (mode, sps, p99) in [("trace-off", off_sps, off_p99), ("trace-on", on_sps, on_p99)] {
        artifact.upsert(BenchRow {
            mode: mode.into(),
            batch: SESSIONS,
            shards: 1,
            steps_per_s: sps,
            p99_us: p99 as f64,
            fingerprint: fp.into(),
        });
    }
}

/// The span names the `--trace` breakdown reports, batcher-level down to
/// kernel-level. `step.queue_wait` is the submit→collect share of the
/// step latency; everything else is execute-side.
const BREAKDOWN_SPANS: [&str; 8] = [
    "batch.checkout",
    "batch.execute",
    "batch.deliver",
    "step.queue_wait",
    "decode.ln",
    "decode.qkv",
    "decode.attn",
    "decode.ffn",
];

/// `--trace`: re-drive the B = 8 workload with the flight recorder on and
/// print the per-phase time breakdown — where a batched step actually
/// spends its time, attributed to named spans instead of guessed at. The
/// int8 model is re-driven too, so the per-shape artifact carries
/// `gemm.i8.execute` rows next to the f32 rows of the same shapes. Writes
/// the full event stream to `trace_serve.json` (Chrome `chrome://tracing`
/// / Perfetto format) and the per-shape `gemm.execute` /
/// `gemm.i8.execute` / `spmm.execute` stats to `TRACE_shapes.json`.
fn trace_diagnose(model: &Arc<DecoderModel>, i8_model: &Arc<DecoderModel>, pool: &Arc<ThreadPool>) {
    pl_trace::enable();
    let since = pl_trace::now_ns();
    println!("\n--- traced re-run at max_batch={SESSIONS}: f32, then int8 ---");
    drive(SESSIONS, model, pool);
    let f32_events = pl_trace::snapshot_since(since);
    let i8_since = pl_trace::now_ns();
    drive(SESSIONS, i8_model, pool);
    let i8_events = pl_trace::snapshot_since(i8_since);
    pl_trace::disable();
    if pl_trace::total_dropped() > 0 {
        println!(
            "warning: {} events dropped to ring wraparound (raise PL_TRACE_EVENTS)",
            pl_trace::total_dropped()
        );
    }
    let f32_summary = TraceSummary::from_events(&f32_events);

    header(
        &format!("per-phase breakdown (f32, max_batch={SESSIONS}) [traced]"),
        &["span", "total ms", "count"],
    );
    for name in BREAKDOWN_SPANS {
        row(&[
            name.to_string(),
            f2(f32_summary.total_ns_for(name) as f64 / 1e6),
            f32_summary.count_for(name).to_string(),
        ]);
    }
    let gemm_ns =
        f32_summary.total_ns_for("gemm.execute") + f32_summary.total_ns_for("spmm.execute");
    row(&[
        "gemm+spmm".to_string(),
        f2(gemm_ns as f64 / 1e6),
        f32_summary.count_for("gemm.execute").to_string(),
    ]);

    // Both runs in one Chrome trace: the f32 events precede the int8
    // ones on the shared epoch clock, so concatenation stays sorted.
    let mut all = f32_events;
    all.extend(i8_events.iter().cloned());
    let trace_path = pl_bench::workspace_path("trace_serve.json");
    match std::fs::write(&trace_path, pl_trace::chrome_trace_json(&all)) {
        Ok(()) => println!("\nwrote {} events to {}", all.len(), trace_path.display()),
        Err(e) => eprintln!("\nfailed to write {}: {e}", trace_path.display()),
    }
    let mut shapes = f32_summary;
    shapes.merge(&TraceSummary::from_events(&i8_events));
    let shapes_path = pl_bench::workspace_path(TRACE_SHAPES_ARTIFACT);
    match std::fs::write(&shapes_path, trace_shapes_json(&shapes)) {
        Ok(()) => println!("wrote per-shape kernel timings to {}", shapes_path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", shapes_path.display()),
    }
}

/// Closed-loop decode throughput of `width` lock-step sessions on a
/// manually pumped server: `steps` rounds of submit-all / pump / receive.
/// The before/after instrument of [`retune_closed_loop`] (the threaded
/// client driver's scheduling puts a spec-level gap inside its
/// run-to-run noise on a loaded host).
fn pumped_steps_per_s(server: &Server, width: usize, steps: usize) -> f64 {
    let hidden = server.model().config().hidden;
    let sessions: Vec<_> = (0..width).map(|_| server.create_session(0).unwrap()).collect();
    let token = vec![0.1f32; hidden];
    let t0 = std::time::Instant::now();
    for _ in 0..steps {
        let rxs: Vec<_> =
            sessions.iter().map(|&id| server.submit_step(id, &token).unwrap()).collect();
        while server.in_flight() > 0 {
            server.pump();
        }
        for rx in rxs {
            rx.recv().unwrap().unwrap();
        }
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    for id in sessions {
        server.close_session(id).unwrap();
    }
    (width * steps) as f64 / secs
}

/// The pl-retune closed loop, run against this bench's own workload:
/// measure B = 8 decode throughput on a live server with the modeled
/// warm-up specs, run one retune cycle over the harvested hot shapes
/// (installing measured loop-spec winners through the registry epoch),
/// tune the prefill chunk, then **re-measure** with the retuned specs
/// live. Both rows come from the same manual-pump instrument; they land
/// in the artifact as `pre-retune`/`post-retune`, and the evidence chain
/// (shape winners, before/after serving rows) is written to
/// `TUNE_db.json`.
fn retune_closed_loop(
    model: &Arc<DecoderModel>,
    pool: &Arc<ThreadPool>,
    fp: &str,
    artifact: &mut BenchArtifact,
) {
    let threads = pool.nthreads();
    let retuner = Retuner::new(Platform::generic_host(threads), threads, RetuneConfig::default());
    let mut server = Server::new(
        Arc::clone(model),
        Arc::clone(pool),
        ServerConfig { tenants: 2, max_batch: SESSIONS, kv_capacity: KV, ..Default::default() },
    );
    server.warm_tuning(retuner.platform(), threads);
    let pre = pumped_steps_per_s(&server, SESSIONS, 32);
    let report = retuner.run_cycle(&server, pool);
    header(
        &format!(
            "pl-retune: one cycle over {} hot shapes ({} skipped) [measured]",
            report.hot_shapes, report.shapes_skipped
        ),
        &["key", "weight", "old spec", "old GF/s", "new spec", "new GF/s", "changed"],
    );
    for o in &report.outcomes {
        row(&[
            o.key.clone(),
            o.weight.to_string(),
            o.old_spec.clone().unwrap_or_else(|| "-".into()),
            o.old_gflops.map(f1).unwrap_or_else(|| "-".into()),
            o.new_spec.clone(),
            f1(o.new_gflops),
            o.changed.to_string(),
        ]);
    }
    println!(
        "registry epoch {} -> {}: {} spec(s) changed in {:.2}s",
        report.epoch_before, report.epoch_after, report.specs_changed, report.cycle_seconds
    );
    // The serve-level knob the measured loop learns: the prefill chunk
    // size that best protects decode latency with a prefill in flight.
    header(
        "pl-retune: prefill chunk under decode load (32-token prompt, 4 decode lanes) [measured]",
        &["chunk", "decode steps/s"],
    );
    let (chunk_rows, best_chunk) = tune_prefill_chunk(&server, &[4, 8, 16, 32], 32, 4, 16);
    for &(c, sps) in &chunk_rows {
        row(&[c.to_string(), f1(sps)]);
    }
    println!("installed prefill chunk: {best_chunk}");
    let post = pumped_steps_per_s(&server, SESSIONS, 32);
    server.shutdown();
    println!("B={SESSIONS} decode: pre-retune {} / post-retune {} steps/s", f1(pre), f1(post));
    // p99 is not part of this instrument — the latency rows above keep
    // that story.
    let mut tune = TuneArtifact {
        fingerprint: host_fingerprint(retuner.platform().name, threads),
        ..Default::default()
    };
    tune.add_report(&report);
    for (phase, sps) in [("pre-retune", pre), ("post-retune", post)] {
        artifact.upsert(BenchRow {
            mode: phase.into(),
            batch: SESSIONS,
            shards: 1,
            steps_per_s: sps,
            p99_us: 0.0,
            fingerprint: fp.into(),
        });
        tune.serve.push(ServeRow {
            phase: phase.into(),
            batch: SESSIONS,
            shards: 1,
            steps_per_s: sps,
        });
    }
    let json = tune.to_json();
    assert!(parse_summary(&json).is_some(), "tune artifact must validate");
    let path = pl_bench::workspace_path(TUNE_DB_ARTIFACT);
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote retune evidence to {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
    println!();
}

fn main() {
    let trace_mode = std::env::args().any(|a| a == "--trace");
    let model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), 11));
    // Same seed: the int8 model's weights are the exact quantization of
    // the f32 model's, so the comparison table isolates the execution
    // path (the workload is identical).
    let i8_model = Arc::new(DecoderModel::new_with_precision(
        DecoderConfig::scaled_for_tests(),
        11,
        Precision::Int8,
    ));
    let pool = Arc::new(ThreadPool::new(default_threads().min(8)));
    // Stamp every row this run writes with the measuring host's
    // fingerprint — the same string the retune evidence DB keys on — so
    // the trajectory file can hold numbers from several machines without
    // them overwriting each other.
    let threads = pool.nthreads();
    let fp = host_fingerprint(Platform::generic_host(threads).name, threads);
    let mut artifact = BenchArtifact::load(&pl_bench::workspace_path(SERVE_ARTIFACT));
    pack_amortization(&pool);
    header(
        &format!(
            "pl-serve decode throughput ({SESSIONS} sessions x {STEPS} steps, {} threads) [measured]",
            pool.nthreads()
        ),
        &["max_batch", "mode", "steps/s", "mean batch", "max batch", "p50 us", "p99 us"],
    );
    let mut f32_ref = Vec::new();
    for max_batch in [1usize, 2, 4, 8] {
        let (sps, p99) = drive(max_batch, &model, &pool);
        f32_ref.push((max_batch, sps));
        artifact.upsert(BenchRow {
            mode: serve_mode_name(Precision::F32).into(),
            batch: max_batch,
            shards: 1,
            steps_per_s: sps,
            p99_us: p99 as f64,
            fingerprint: fp.clone(),
        });
    }
    println!(
        "\nbatched/unbatched speedup (max_batch 8 vs 1): {:.2}x",
        f32_ref[3].1 / f32_ref[0].1.max(1e-9)
    );
    int8_sweep(&model, &i8_model, &pool, &f32_ref, &fp, &mut artifact);
    mixed_workload(&model, &pool, &fp, &mut artifact);
    kv_density(&model, &pool, &fp, &mut artifact);
    router_scaling(&model, pool.nthreads(), &fp, &mut artifact);
    retune_closed_loop(&model, &pool, &fp, &mut artifact);
    trace_overhead(&model, &pool, &fp, &mut artifact);
    if trace_mode {
        trace_diagnose(&model, &i8_model, &pool);
    }
    match artifact.save(&pl_bench::workspace_path(SERVE_ARTIFACT)) {
        Ok(()) => println!("\nwrote {} rows to {SERVE_ARTIFACT}", artifact.rows().len()),
        Err(e) => eprintln!("\nfailed to write {SERVE_ARTIFACT}: {e}"),
    }
}
