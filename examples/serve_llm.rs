//! End-to-end pl-serve demo: a multi-tenant batched inference server over
//! one shared scaled decoder, with a mixed prefill + decode scenario.
//!
//! Eight concurrent client sessions (two tenants) each run a prefill and
//! then a closed decode loop (the last token's transformed state feeds
//! back as the next input — a deterministic stand-in for sampling). A
//! ninth client arrives mid-run with a **long prompt** (8 x the server's
//! `prefill_chunk`): continuous batching splits it into power-of-two
//! chunks that interleave with the live decode batches instead of
//! blocking them. The batcher coalesces pending steps — and the chunk
//! riding along — into one ragged batch per parallel region; afterwards
//! every session's entire output stream is checked **bit for bit**
//! against a sequential, unbatched `Decoder` baseline over the same
//! weights, the chunked prefill against the whole-prompt forward, and the
//! `StatsSnapshot` view of the metrics plane is printed.
//!
//! A **shared-system-prompt phase** follows: two tenants send prompts that
//! open with the same two KV pages of system prompt, a third prompt shares
//! nothing. The second tenant's prefill finds those pages in the prefix
//! cache, adopts them and forwards only its own suffix — asserted through
//! the hit-token counter, bit-identity with the unbatched `Decoder`, and a
//! shorter prefill wall time than either miss.
//!
//! Two precisions (`--precision f32|int8`):
//! with `int8` the model holds VNNI-packed int8 weights and serves
//! through the quantized i32-accumulation path. The baseline replay uses
//! the *same* quantized model, so the check stays bit-identical
//! (per-column activation quantization and the exact i32 reduction are
//! both batch-invariant). A further cross-precision replay checks the
//! served int8 streams against a same-seed **f32** model within the
//! quantization-error envelope (<= 0.25 floored relative error, the bound
//! derived in `pl_dnn::llm`'s int8 test), open-loop on the served stream
//! so the bound is per-forward rather than compounding.
//!
//! With `--trace` the `pl-trace` flight recorder
//! runs for the serving phase: the captured events are validated in
//! process (balanced begin/end on every lane, nonzero GEMM spans) and
//! dumped to `trace_serve_llm.json` in Chrome `trace_event` format —
//! open it in `chrome://tracing` or `ui.perfetto.dev`.
//!
//! With `--metrics` the server's metrics
//! registry is exercised: the labeled snapshot is rendered to Prometheus
//! text exposition, validated in process by the in-repo conformance
//! parser (`pl_serve::parse_prometheus`), and dumped to
//! `metrics_serve_llm.prom`.
//!
//! Run: `cargo run --release --example serve_llm [-- --trace] [-- --metrics]
//! [-- --precision int8]`

use pl_dnn::{Decoder, DecoderConfig, DecoderModel, Precision};
use pl_runtime::{default_threads, ThreadPool};
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use pl_trace::EventKind;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 8;
const TENANTS: usize = 2;
const PROMPT: usize = 4;
const STEPS: usize = 24;
const KV: usize = 64;
/// Cross-precision envelope: served int8 outputs vs a same-seed f32
/// model, per forward (open-loop on the served stream). The bound and
/// its derivation live with `pl_dnn::llm`'s int8 equivalence test.
const INT8_VS_F32_TOL: f32 = 0.25;
/// Chunk cap for the continuous-batching path: the short session prompts
/// (4 tokens) stay single-chunk, the long prompt splits.
const PREFILL_CHUNK: usize = 4;
/// The mid-run long prompt: 8 chunks of `PREFILL_CHUNK`.
const LONG_PROMPT: usize = 32;
/// The shared system prompt: two default KV pages.
const SYSTEM_PROMPT: usize = 2 * pl_dnn::DEFAULT_PAGE_TOKENS;
/// What each tenant appends to it.
const USER_SUFFIX: usize = 8;

fn prompt_for(session: usize, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden * PROMPT];
    fill_uniform(&mut x, &mut Xorshift::new(7000 + session as u64), -0.5, 0.5);
    x
}

fn last_token(y: &[f32], hidden: usize) -> Vec<f32> {
    y[y.len() - hidden..].to_vec()
}

/// Relative error with the denominator floored at 1.0 — the metric the
/// int8 equivalence tests use: activations here are O(1), and a flat
/// floor keeps near-zero elements from turning quantization noise into
/// unbounded ratios.
fn rel_err_floored(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs() / x.abs().max(y.abs()).max(1.0)).fold(0.0, f32::max)
}

const SEED: u64 = 2024;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trace = args.iter().any(|a| a == "--trace");
    let metrics = args.iter().any(|a| a == "--metrics");
    let mut precision = Precision::F32;
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--precision=") {
            precision = v.parse().expect("--precision takes f32|int8");
        } else if a == "--precision" {
            let v = args.get(i + 1).expect("--precision takes f32|int8");
            precision = v.parse().expect("--precision takes f32|int8");
        }
    }
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new_with_precision(cfg, SEED, precision));
    let pool = Arc::new(ThreadPool::new(default_threads().min(8)));
    println!(
        "pl-serve demo [{precision}]: {SESSIONS} sessions / {TENANTS} tenants, \
         {} threads, {PROMPT}-token prompts + {STEPS} decode steps each",
        pool.nthreads()
    );

    let mut server = Server::new(
        Arc::clone(&model),
        Arc::clone(&pool),
        ServerConfig {
            tenants: TENANTS,
            max_batch: SESSIONS,
            kv_capacity: KV,
            prefill_chunk: PREFILL_CHUNK,
            ..Default::default()
        },
    );
    server.start();

    // Every weight was packed into its blocked kernel layout at model
    // construction; from here on, serving (and the baseline replay below)
    // must pack activations only.
    let packs_before_traffic = pl_dnn::prepared::pack_events();

    // --- Serve: concurrent clients through the batcher, plus one late
    // long-prompt client whose prefill chunks interleave with the live
    // decode traffic. --------------------------------------------------
    let long_prompt = {
        let mut p = vec![0.0f32; hidden * LONG_PROMPT];
        fill_uniform(&mut p, &mut Xorshift::new(31337), -0.5, 0.5);
        p
    };
    // Trace only the serving phase: everything recorded from here on is
    // live batched traffic, not warmup or baseline replay.
    let trace_since = pl_trace::now_ns();
    if trace {
        pl_trace::enable();
    }
    let t0 = Instant::now();
    // Per session: the served prefill's last token (the first decode
    // input — the cross-precision replay below needs it) and the served
    // decode stream.
    let mut served: Vec<(Vec<f32>, Vec<Vec<f32>>)> = Vec::new();
    let mut long_served: Vec<f32> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..SESSIONS {
            let server = &server;
            handles.push(scope.spawn(move || {
                let id = server.create_session(s % TENANTS).expect("session admitted");
                let y = server.prefill(id, &prompt_for(s, hidden), PROMPT).unwrap();
                let x0 = last_token(&y, hidden);
                let mut x = x0.clone();
                let mut outs = Vec::with_capacity(STEPS);
                for _ in 0..STEPS {
                    let y = server.step(id, &x).unwrap();
                    x = y.clone();
                    outs.push(y);
                }
                server.close_session(id).unwrap();
                (x0, outs)
            }));
        }
        let long_handle = {
            let server = &server;
            let long_prompt = &long_prompt;
            scope.spawn(move || {
                // Arrive mid-run, while decode traffic is live.
                while server.stats().snapshot().completed < (SESSIONS * STEPS / 4) as u64 {
                    std::thread::yield_now();
                }
                let id = server.create_session(1).expect("late session admitted");
                let y = server.prefill(id, long_prompt, LONG_PROMPT).unwrap();
                server.close_session(id).unwrap();
                y
            })
        };
        for h in handles {
            served.push(h.join().unwrap());
        }
        long_served = long_handle.join().unwrap();
    });
    let serve_s = t0.elapsed().as_secs_f64();
    let snap = server.stats().snapshot();
    // --- Shared system prompt: the second tenant's prefill is a prefix
    // hit and forwards its suffix only. -----------------------------------
    let shared_prompts: Vec<Vec<f32>> = {
        let draw = |seed: u64, tokens: usize| {
            let mut x = vec![0.0f32; hidden * tokens];
            fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
            x
        };
        let system = draw(555, SYSTEM_PROMPT);
        vec![
            [system.clone(), draw(556, USER_SUFFIX)].concat(),
            [system, draw(557, USER_SUFFIX)].concat(),
            draw(558, SYSTEM_PROMPT + USER_SUFFIX),
        ]
    };
    let shared_served: Vec<(Vec<f32>, Duration)> = shared_prompts
        .iter()
        .enumerate()
        .map(|(tenant, prompt)| {
            let id = server.create_session(tenant % TENANTS).expect("session admitted");
            let t = Instant::now();
            let y = server.prefill(id, prompt, SYSTEM_PROMPT + USER_SUFFIX).unwrap();
            let took = t.elapsed();
            server.close_session(id).unwrap();
            (y, took)
        })
        .collect();
    let shared_snap = server.stats().snapshot();
    // Snapshot the metrics plane while the server is live — the gauges
    // (`pl_sessions_live`, `pl_pending`, `pl_in_flight`) are sampled at
    // snapshot time.
    let metrics_snap = metrics.then(|| server.metrics_snapshot());
    server.shutdown();
    // Sampled here, before the baselines: the cross-precision replay
    // constructs a fresh f32 model, and model construction is *supposed*
    // to pack (once). Only the serving phase must be pack-free.
    let packs_after_traffic = pl_dnn::prepared::pack_events();
    let trace_events = trace.then(|| {
        pl_trace::disable();
        pl_trace::snapshot_since(trace_since)
    });

    // --- Baseline: the same streams, sequential and unbatched. ----------
    let t1 = Instant::now();
    let mut mismatches = 0usize;
    for (s, (_, served_steps)) in served.iter().enumerate() {
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let y = d.prefill(&prompt_for(s, hidden), PROMPT, &pool);
        let mut x = last_token(&y, hidden);
        for (t, served_y) in served_steps.iter().enumerate() {
            let y = d.step(&x, &pool);
            if &y != served_y {
                eprintln!("MISMATCH: session {s} step {t}");
                mismatches += 1;
            }
            x = y;
        }
    }
    // --- Cross-precision: the served int8 streams vs a same-seed f32
    // model. Same seed means the int8 model's weights are the exact
    // quantization of this model's, so every divergence is quantization
    // error. Replayed open-loop (each step's input pinned to the served
    // stream) the error is per-forward and the envelope bound applies.
    let mut worst_xprec = 0.0f32;
    if precision == Precision::Int8 {
        let f32_model = Arc::new(DecoderModel::new(DecoderConfig::scaled_for_tests(), SEED));
        for (s, (x0, served_steps)) in served.iter().enumerate() {
            let mut d = Decoder::from_model(Arc::clone(&f32_model), KV);
            let y = d.prefill(&prompt_for(s, hidden), PROMPT, &pool);
            let err = rel_err_floored(&last_token(&y, hidden), x0);
            worst_xprec = worst_xprec.max(err);
            if err > INT8_VS_F32_TOL {
                eprintln!("INT8 ENVELOPE EXCEEDED: session {s} prefill: rel err {err}");
                mismatches += 1;
            }
            let mut x = x0.clone();
            for (t, served_y) in served_steps.iter().enumerate() {
                let y = d.step(&x, &pool);
                let err = rel_err_floored(&y, served_y);
                worst_xprec = worst_xprec.max(err);
                if err > INT8_VS_F32_TOL {
                    eprintln!("INT8 ENVELOPE EXCEEDED: session {s} step {t}: rel err {err}");
                    mismatches += 1;
                }
                x = served_y.clone();
            }
        }
    }
    // The interleaved long prefill: its chunks shared GEMMs with whatever
    // decode lanes were live, at widths no standalone run would see — and
    // must still equal the whole-prompt forward bit for bit.
    let mut st = model.new_state(KV);
    if long_served != model.forward(&mut st, &long_prompt, LONG_PROMPT, &pool) {
        eprintln!("MISMATCH: interleaved long prefill vs whole-prompt forward");
        mismatches += 1;
    }
    for (i, (prompt, (served_y, _))) in shared_prompts.iter().zip(&shared_served).enumerate() {
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        if &d.prefill(prompt, SYSTEM_PROMPT + USER_SUFFIX, &pool) != served_y {
            eprintln!("MISMATCH: shared-system-prompt prefill {i}");
            mismatches += 1;
        }
    }
    let base_s = t1.elapsed().as_secs_f64();

    // --- Report. ---------------------------------------------------------
    println!("\n=== StatsSnapshot ===");
    println!("steps completed      {:>10}", snap.completed);
    println!("prefills             {:>10}", snap.prefills);
    println!("prefill chunks       {:>10}", snap.prefill_chunks);
    println!("mixed batches        {:>10}", snap.mixed_batches);
    println!("batches              {:>10}", snap.batches);
    println!("mean batch size      {:>10.2}", snap.mean_batch);
    println!("max batch observed   {:>10}", snap.max_batch_observed);
    println!("batch distribution   {:?}", snap.batch_distribution);
    println!("throughput           {:>10.1} steps/s", snap.tokens_per_s);
    println!("step latency p50     {:>10} us", snap.p50_us);
    println!("step latency p99     {:>10} us", snap.p99_us);
    println!("queue wait p50/p99   {:>6}/{} us", snap.queue_wait_p50_us, snap.queue_wait_p99_us);
    println!("execute p50/p99      {:>6}/{} us", snap.execute_p50_us, snap.execute_p99_us);
    println!(
        "rejected (backpressure/sessions) {}/{}",
        snap.rejected_backpressure, snap.rejected_sessions
    );
    println!("GEMM shapes (m x width x k -> GEMMs executed):");
    for ((m, n, k), count) in &snap.gemm_shapes {
        println!("  {m:>4} x {n:<2} x {k:>4}   {count:>6}");
    }
    let prompt_tokens = shared_snap.prefill_tokens + shared_snap.prefix_hit_tokens;
    println!(
        "prefix cache         {} of {prompt_tokens} prompt tokens from cache ({:.1}% hit ratio)",
        shared_snap.prefix_hit_tokens,
        100.0 * shared_snap.prefix_hit_tokens as f64 / prompt_tokens as f64
    );
    let [miss, hit, unrelated] = [0, 1, 2].map(|i| shared_served[i].1);
    println!("shared-prompt prefill miss {miss:?} / hit {hit:?} / unrelated miss {unrelated:?}");
    println!("\nserve wall time      {serve_s:>10.3} s");
    println!("baseline wall time   {base_s:>10.3} s (sequential unbatched)");

    // --- Flight recorder: validate and dump the serving-phase trace. -----
    if let Some(events) = trace_events {
        println!("\n=== flight recorder ===");
        assert!(!events.is_empty(), "tracing was on but captured nothing");
        assert_eq!(pl_trace::total_dropped(), 0, "ring too small for this workload");
        // Span guards are RAII and strictly nested per thread, so every
        // lane's End closes the innermost open Begin of the same name, and
        // after shutdown nothing is left open. Pairing them folds each span
        // name's (count, total ns).
        let mut open: BTreeMap<u32, Vec<(&str, u64)>> = BTreeMap::new();
        let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for e in &events {
            let stack = open.entry(e.lane).or_default();
            let ns = match e.kind {
                EventKind::Begin => {
                    stack.push((e.name, e.ts_ns));
                    continue;
                }
                EventKind::End => match stack.pop() {
                    Some((name, t0)) if name == e.name => e.ts_ns.saturating_sub(t0),
                    _ => panic!("lane {}: orphan End of {}", e.lane, e.name),
                },
                EventKind::Complete => e.dur_ns,
                EventKind::Instant => 0,
            };
            let span = spans.entry(e.name).or_default();
            *span = (span.0 + 1, span.1 + ns);
        }
        for (lane, stack) in &open {
            assert!(stack.is_empty(), "lane {lane}: unbalanced begin/end spans");
        }
        let span = |name: &str| spans.get(name).copied().unwrap_or_default();
        let ms = |name: &str| span(name).1 as f64 / 1e6;
        // Plans tag their execute span with the weight dtype, so the
        // span name to expect follows the serving precision.
        let gemm_span = match precision {
            Precision::F32 => "gemm.execute",
            Precision::Int8 => "gemm.i8.execute",
        };
        assert!(span(gemm_span).0 > 0, "no {gemm_span} spans recorded");
        assert!(span(gemm_span).1 > 0, "GEMM spans all zero-length");
        assert!(span("batch.execute").0 > 0, "no batch execute spans recorded");
        assert_eq!(
            span("step.queue_wait").0,
            (SESSIONS * STEPS) as u64,
            "every decode step must record its queue wait"
        );
        println!("events captured      {:>10}", events.len());
        println!("recorder lanes       {:>10}", open.len());
        println!("gemm spans           {:>10} ({:.2} ms total)", span(gemm_span).0, ms(gemm_span));
        println!(
            "decode phases (ms)   ln {:.2} / qkv {:.2} / attn {:.2} / ffn {:.2}",
            ms("decode.ln"),
            ms("decode.qkv"),
            ms("decode.attn"),
            ms("decode.ffn")
        );
        let json = pl_trace::chrome_trace_json(&events);
        assert!(json.contains("\"traceEvents\""), "chrome export malformed");
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("trace_serve_llm.json");
        match std::fs::write(&path, &json) {
            Ok(()) => {
                println!("wrote {} — open in chrome://tracing or ui.perfetto.dev", path.display())
            }
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
        println!("OK: trace balanced on every lane, GEMM spans nonzero");
    }

    // --- Metrics plane: conformance-check and dump the exposition. -------
    if let Some(msnap) = metrics_snap {
        println!("\n=== metrics exposition ===");
        let text = pl_serve::render_prometheus(&msnap);
        let report = pl_serve::parse_prometheus(&text)
            .expect("rendered exposition must pass the conformance parser");
        for (family, kind) in [
            ("pl_steps_total", "counter"),
            ("pl_prefill_chunks_total", "counter"),
            ("pl_prefill_tokens_total", "counter"),
            ("pl_prefix_hit_tokens_total", "counter"),
            ("pl_batches_total", "counter"),
            ("pl_batch_size_total", "counter"),
            ("pl_gemm_total", "counter"),
            ("pl_step_latency_us", "histogram"),
            ("pl_queue_wait_us", "histogram"),
            ("pl_execute_us", "histogram"),
            ("pl_sessions_live", "gauge"),
            ("pl_in_flight", "gauge"),
        ] {
            assert_eq!(
                report.families.get(family).map(String::as_str),
                Some(kind),
                "family {family} missing or mistyped in the exposition"
            );
        }
        assert!(text.contains("pl_queue_wait_us_bucket{"), "histogram buckets missing");
        assert!(text.contains("le=\"+Inf\""), "+Inf bucket missing");
        println!("families declared    {:>10}", report.families.len());
        println!("sample lines         {:>10}", report.samples);
        println!("histogram series     {:>10}", report.histogram_series);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("metrics_serve_llm.prom");
        match std::fs::write(&path, &text) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
        println!("OK: exposition conformant");
    }

    assert_eq!(
        packs_after_traffic, packs_before_traffic,
        "steady-state serving packed weight bytes (prepared-op discipline violated)"
    );
    assert_eq!(mismatches, 0, "batched outputs must be bit-identical to the baseline");
    if precision == Precision::Int8 {
        println!(
            "int8 vs same-seed f32 model: worst per-forward rel err {worst_xprec:.3} \
             (envelope {INT8_VS_F32_TOL})"
        );
    }
    assert!(
        snap.max_batch_observed > 1,
        "batcher never coalesced: max batch {}",
        snap.max_batch_observed
    );
    assert_eq!(snap.completed, (SESSIONS * STEPS) as u64);
    assert_eq!(snap.prefills, (SESSIONS + 1) as u64, "short prefills + the long one completed");
    assert_eq!(
        snap.prefill_chunks,
        (SESSIONS + LONG_PROMPT / PREFILL_CHUNK) as u64,
        "short prompts stay single-chunk; the long one splits into {} chunks",
        LONG_PROMPT / PREFILL_CHUNK
    );
    assert!(snap.gemm_shapes.iter().any(|&((_, n, _), _)| n > 1), "no batch shared a GEMM");
    assert_eq!(
        shared_snap.prefix_hit_tokens, SYSTEM_PROMPT as u64,
        "the second tenant must take the system prompt from the prefix cache"
    );
    assert_eq!(
        shared_snap.prefill_tokens - snap.prefill_tokens,
        (2 * (SYSTEM_PROMPT + USER_SUFFIX) + USER_SUFFIX) as u64,
        "two whole prompts and one suffix forwarded"
    );
    assert!(
        hit < miss.min(unrelated),
        "a prefix hit must prefill faster than a miss: hit {hit:?}, misses {miss:?} {unrelated:?}"
    );
    println!(
        "\nOK: {SESSIONS} concurrent sessions + 1 interleaved long prefill \
         ({} chunks, {} mixed batches), max batch {}, all outputs \
         bit-identical to the sequential baseline",
        LONG_PROMPT / PREFILL_CHUNK,
        snap.mixed_batches,
        snap.max_batch_observed
    );
}
