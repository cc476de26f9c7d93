//! Integration test of the pl-serve runtime: N concurrent sessions drive
//! prefill + decode steps through the batched server, and every session's
//! outputs must be bit-identical to a sequential, unbatched `Decoder`
//! baseline over the same shared weights — at f32 and at int8.

use pl_dnn::{Decoder, DecoderConfig, DecoderModel, Precision};
use pl_runtime::ThreadPool;
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;
use std::time::Duration;

const SESSIONS: usize = 6;
const PROMPT: usize = 3;
const STEPS: usize = 8;
const KV: usize = 32;

fn prompt_for(session: usize, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden * PROMPT];
    fill_uniform(&mut x, &mut Xorshift::new(4000 + session as u64), -0.5, 0.5);
    x
}

/// Feed the last token's transformed state back as the next input — a
/// deterministic stand-in for sampling that exercises the KV-cached loop.
fn last_token(y: &[f32], hidden: usize) -> Vec<f32> {
    y[y.len() - hidden..].to_vec()
}

#[test]
fn concurrent_batched_sessions_match_unbatched_decoder() {
    for precision in [Precision::F32, Precision::Int8] {
        concurrent_sessions_match_unbatched(precision);
    }
}

fn concurrent_sessions_match_unbatched(precision: Precision) {
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new_with_precision(cfg, 31337, precision));
    let pool = Arc::new(ThreadPool::new(4));
    let mut server = Server::new(
        Arc::clone(&model),
        Arc::clone(&pool),
        ServerConfig { tenants: 3, max_batch: SESSIONS, kv_capacity: KV, ..Default::default() },
    );
    server.start();

    // N concurrent clients: prefill, then STEPS closed-loop decode steps.
    let mut served: Vec<Vec<Vec<f32>>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..SESSIONS {
            let server = &server;
            handles.push(scope.spawn(move || {
                let id = server.create_session(s % 3).expect("admitted");
                let y = server.prefill(id, &prompt_for(s, hidden), PROMPT).unwrap();
                let mut x = last_token(&y, hidden);
                let mut outs = Vec::with_capacity(STEPS);
                for _ in 0..STEPS {
                    let y = server.step(id, &x).unwrap();
                    x = y.clone();
                    outs.push(y);
                }
                assert_eq!(server.close_session(id).unwrap(), STEPS as u64);
                outs
            }));
        }
        for h in handles {
            served.push(h.join().unwrap());
        }
    });

    let snap = server.stats().snapshot();
    server.shutdown();
    assert_eq!(snap.completed, (SESSIONS * STEPS) as u64);
    assert_eq!(snap.prefills, SESSIONS as u64);
    // The batches really shared their projections: shapes are recorded at
    // the ragged widths that ran (lanes + chunk tokens), and some batch
    // was wider than one lane.
    assert!(snap.max_batch_observed > 1, "the batcher never coalesced");
    for &((m, n, k), _) in &snap.gemm_shapes {
        assert!((1..=SESSIONS + PROMPT).contains(&n), "n is a batch width, got {n}");
        assert!(
            [(cfg.hidden, cfg.hidden), (cfg.ffn, cfg.hidden), (cfg.hidden, cfg.ffn)]
                .contains(&(m, k)),
            "unexpected shape {m}x{n}x{k}"
        );
    }
    assert!(snap.gemm_shapes.iter().any(|&((_, n, _), _)| n > 1));

    // Sequential unbatched baseline over the same weights.
    for (s, served_session) in served.iter().enumerate() {
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let y = d.prefill(&prompt_for(s, hidden), PROMPT, &pool);
        let mut x = last_token(&y, hidden);
        for (t, served_y) in served_session.iter().enumerate() {
            let y = d.step(&x, &pool);
            assert_eq!(&y, served_y, "{precision:?} session {s} step {t} diverged from baseline");
            x = y;
        }
    }
}

#[test]
fn ring_full_backpressure_is_an_error_and_the_session_recovers() {
    // Satellite coverage for the bounded-ring contract: filling a
    // tenant's ring must surface `Backpressure` to the submitter
    // *immediately* (no hang, no silent drop), every previously accepted
    // step must still execute, and after a `pump` drains the ring the
    // same session submits and decodes normally again.
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 555));
    let pool = Arc::new(ThreadPool::new(2));
    let capacity = 3usize;
    let server = Server::new(
        Arc::clone(&model),
        pool,
        ServerConfig { queue_capacity: capacity, kv_capacity: KV, ..Default::default() },
    );
    let id = server.create_session(0).unwrap();
    let xs: Vec<Vec<f32>> = (0..=capacity)
        .map(|t| {
            let mut x = vec![0.0f32; hidden];
            fill_uniform(&mut x, &mut Xorshift::new(6001 + t as u64), -0.5, 0.5);
            x
        })
        .collect();
    // Fill the ring exactly to capacity, then overflow it.
    let accepted: Vec<_> = (0..capacity).map(|t| server.submit_step(id, &xs[t]).unwrap()).collect();
    for attempt in 0..2 {
        match server.submit_step(id, &xs[capacity]) {
            Err(ServeError::Backpressure { tenant: 0 }) => {}
            other => panic!("overflow attempt {attempt} must bounce, got {other:?}"),
        }
    }
    assert_eq!(server.stats().snapshot().rejected_backpressure, 2);
    // Every accepted step still executes: pipelined steps of one session
    // ride consecutive batches (1 per pump), in submission order.
    for t in 0..capacity {
        assert_eq!(server.pump(), 1, "pump {t} must make progress");
    }
    let outs: Vec<Vec<f32>> = accepted.into_iter().map(|rx| rx.recv().unwrap().unwrap()).collect();
    // The session recovers: the post-backpressure submit is accepted and
    // continues the same KV stream.
    let rx = server.submit_step(id, &xs[capacity]).expect("ring drained, submit accepted");
    assert_eq!(server.pump(), 1);
    let recovered = rx.recv().unwrap().unwrap();
    // Baseline: the same 4-step stream, unbatched.
    let mut st = model.new_state(KV);
    let bpool = ThreadPool::new(2);
    for (t, out) in outs.iter().enumerate() {
        assert_eq!(out, &model.forward(&mut st, &xs[t], 1, &bpool), "step {t}");
    }
    assert_eq!(recovered, model.forward(&mut st, &xs[capacity], 1, &bpool));
    assert_eq!(server.close_session(id).unwrap(), capacity as u64 + 1);
}

use pl_serve::ServeError;

#[test]
fn chunked_prefill_interleaves_with_live_decode_traffic() {
    // The continuous-batching acceptance scenario: a 32-token prompt
    // (8 x prefill_chunk) submitted while B = 8 decode traffic is live
    // must not stall decode — every prefill chunk shares its batch with
    // decode lanes, decode steps complete between the chunks, and the
    // chunked output matches the whole-prompt forward.
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 20240731));
    let pool = Arc::new(ThreadPool::new(4));
    const DECODERS: usize = 8;
    const CHUNK: usize = 4;
    const PROMPT_TOKENS: usize = 8 * CHUNK; // 8 chunks
    let server = Server::new(
        Arc::clone(&model),
        pool,
        ServerConfig {
            tenants: 2,
            max_batch: DECODERS,
            kv_capacity: 64,
            prefill_chunk: CHUNK,
            ..Default::default()
        },
    );

    // B = 8 live decode sessions (tenant 0), closed loop.
    let decode_ids: Vec<_> = (0..DECODERS).map(|_| server.create_session(0).unwrap()).collect();
    let mut xs: Vec<Vec<f32>> = (0..DECODERS)
        .map(|s| {
            let mut x = vec![0.0f32; hidden];
            fill_uniform(&mut x, &mut Xorshift::new(8800 + s as u64), -0.5, 0.5);
            x
        })
        .collect();
    let mut rxs: Vec<_> =
        decode_ids.iter().zip(&xs).map(|(&id, x)| server.submit_step(id, x).unwrap()).collect();
    let mut decode_steps = [0usize; DECODERS];

    // The long prompt arrives on tenant 1 while decode traffic is live.
    let prefill_id = server.create_session(1).unwrap();
    let mut prompt = vec![0.0f32; hidden * PROMPT_TOKENS];
    fill_uniform(&mut prompt, &mut Xorshift::new(9900), -0.5, 0.5);
    let prefill_rx = server.submit_prefill(prefill_id, &prompt, PROMPT_TOKENS).unwrap();

    // Drive manually; keep every decode session's next step queued so the
    // batcher always has live decode work next to the prefill chunks.
    let mut decode_between_chunks = vec![0u64; PROMPT_TOKENS / CHUNK + 1];
    let mut prefill_out = None;
    while prefill_out.is_none() {
        assert!(server.pump() > 0, "work is always pending until the prefill completes");
        let chunks_done = server.stats().snapshot().prefill_chunks;
        for (s, rx) in rxs.iter_mut().enumerate() {
            if let Ok(res) = rx.try_recv() {
                let y = res.unwrap();
                decode_steps[s] += 1;
                decode_between_chunks[chunks_done as usize] += 1;
                xs[s] = y.clone();
                *rx = server.submit_step(decode_ids[s], &y).unwrap();
            }
        }
        if let Ok(res) = prefill_rx.try_recv() {
            prefill_out = Some(res.unwrap());
        }
    }
    let prefill_out = prefill_out.unwrap();
    // Let the tail decode steps finish (each session has exactly one
    // outstanding step).
    while server.pump() > 0 {}
    for (s, rx) in rxs.into_iter().enumerate() {
        xs[s] = rx.recv().unwrap().unwrap();
    }

    let snap = server.stats().snapshot();
    assert_eq!(snap.prefill_chunks, (PROMPT_TOKENS / CHUNK) as u64);
    assert_eq!(snap.prefills, 1);
    // Interleaving, counted two ways: (a) most chunk-bearing batches also
    // carried decode lanes; (b) decode steps completed *between* the
    // chunks (at several distinct chunk-progress points), not just before
    // the first or after the last.
    assert!(
        snap.mixed_batches >= 6,
        "prefill chunks must share batches with decode lanes: {} mixed of {} batches",
        snap.mixed_batches,
        snap.batches
    );
    let interleave_points =
        decode_between_chunks[1..PROMPT_TOKENS / CHUNK].iter().filter(|&&c| c > 0).count();
    assert!(
        interleave_points >= 4,
        "decode completions must land between prefill chunks: {decode_between_chunks:?}"
    );
    let mid_prefill_decode: u64 = decode_between_chunks[1..PROMPT_TOKENS / CHUNK].iter().sum();
    assert!(
        mid_prefill_decode >= DECODERS as u64,
        "decode must keep completing while the prefill is in flight"
    );

    // Correctness of the interleaved prefill: every chunk shared its
    // GEMMs with the decode lanes of its batch, and the result is still
    // the whole-prompt forward, bit for bit.
    let bpool = ThreadPool::new(2);
    let mut st = model.new_state(64);
    let whole = model.forward(&mut st, &prompt, PROMPT_TOKENS, &bpool);
    assert_eq!(prefill_out, whole, "served chunked prefill must match the whole-prompt forward");

    // The prefill session's KV context really holds all 32 tokens: its
    // next decode step must continue bit-identically from the chunked
    // baseline state.
    let x_next = last_token(&prefill_out, hidden);
    let rx = server.submit_step(prefill_id, &x_next).unwrap();
    while server.pump() == 0 {}
    let stepped = rx.recv().unwrap().unwrap();
    assert_eq!(stepped, model.forward(&mut st, &x_next, 1, &bpool));

    // The decode streams themselves stayed correct under the interleaving:
    // every session's final output equals a sequential closed-loop
    // baseline of the same length, bitwise.
    for (s, &id) in decode_ids.iter().enumerate() {
        let mut st = model.new_state(64);
        let mut x = {
            let mut x = vec![0.0f32; hidden];
            fill_uniform(&mut x, &mut Xorshift::new(8800 + s as u64), -0.5, 0.5);
            x
        };
        for _ in 0..=decode_steps[s] {
            x = model.forward(&mut st, &x, 1, &bpool);
        }
        assert_eq!(x, xs[s], "decode session {s} diverged under interleaved prefill");
        assert_eq!(server.close_session(id).unwrap(), decode_steps[s] as u64 + 1);
    }
}

#[test]
fn per_tenant_fairness_under_flood() {
    // One tenant floods its ring; another submits a single step. The
    // trickle tenant's request must ride the *first* batch.
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 7));
    let pool = Arc::new(ThreadPool::new(2));
    let server =
        Server::new(model, pool, ServerConfig { tenants: 2, max_batch: 4, ..Default::default() });
    let x = vec![0.1f32; hidden];
    let flood: Vec<_> = (0..6)
        .map(|_| {
            let id = server.create_session(0).unwrap();
            server.submit_step(id, &x).unwrap()
        })
        .collect();
    let trickle_id = server.create_session(1).unwrap();
    let trickle = server.submit_step(trickle_id, &x).unwrap();
    assert_eq!(server.pump(), 4);
    trickle
        .recv_timeout(Duration::from_secs(5))
        .expect("trickle tenant served in first batch")
        .unwrap();
    server.pump();
    for rx in flood {
        rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
    }
}
