//! Prefix-cache hits through the serving stack: a prompt that opens with
//! pages an earlier prompt computed adopts them *before* its forward and
//! prefills only the rest. Every output position — cached or computed —
//! and every decode step after it must carry the bits a server that never
//! saw the earlier prompt produces, and the token accounting must add up.

use pl_dnn::{DecoderConfig, DecoderModel, Precision};
use pl_router::{Router, RouterConfig};
use pl_runtime::ThreadPool;
use pl_serve::{ServeError, Server, ServerConfig, SessionId};
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;

const KV: usize = 128;

fn model(precision: Precision) -> Arc<DecoderModel> {
    Arc::new(DecoderModel::new_with_precision(DecoderConfig::scaled_for_tests(), 4242, precision))
}

fn config(page: usize, chunk: usize) -> ServerConfig {
    ServerConfig {
        kv_capacity: KV,
        kv_page_tokens: page,
        prefill_chunk: chunk,
        ..Default::default()
    }
}

fn server(model: &Arc<DecoderModel>, cfg: ServerConfig) -> Server {
    Server::new(Arc::clone(model), Arc::new(ThreadPool::new(2)), cfg)
}

fn random(seed: u64, len: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; len];
    fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
    x
}

/// `base` with everything from token `from` on redrawn from `seed`.
fn diverge(base: &[f32], hidden: usize, from: usize, seed: u64) -> Vec<f32> {
    let mut x = base.to_vec();
    fill_uniform(&mut x[from * hidden..], &mut Xorshift::new(seed), -0.5, 0.5);
    x
}

/// Prefills `prompt` into a new session (manual pump) and decodes `steps`
/// closed-loop tokens; returns the session and every output.
fn run(server: &Server, prompt: &[f32], steps: usize) -> (SessionId, Vec<Vec<f32>>) {
    let hidden = server.model().config().hidden;
    let id = server.create_session(0).unwrap();
    let mut outs = vec![server.prefill(id, prompt, prompt.len() / hidden).unwrap()];
    for _ in 0..steps {
        let last = outs.last().unwrap();
        let rx = server.submit_step(id, &last[last.len() - hidden..]).unwrap();
        while server.pump() > 0 {}
        outs.push(rx.recv().unwrap().unwrap());
    }
    (id, outs)
}

#[test]
fn a_hit_is_bit_identical_to_no_cache_and_every_prompt_token_is_accounted_for() {
    let hidden = DecoderConfig::scaled_for_tests().hidden;
    for precision in [Precision::F32, Precision::Int8] {
        let model = model(precision);
        for page in [4usize, 16] {
            // Three full pages and half a page of tail; and, for the
            // prompt that never forwards at all, exactly two pages.
            let ragged = random(1, hidden * (3 * page + page / 2));
            let aligned = random(2, hidden * 2 * page);
            // (first prompt, second prompt, pages the second finds cached)
            let cases = [
                (&ragged, diverge(&ragged, hidden, 0, 10), 0),
                (&ragged, diverge(&ragged, hidden, page, 11), 1),
                (&ragged, diverge(&ragged, hidden, 3 * page, 12), 3),
                (&ragged, ragged.clone(), 3),
                (&aligned, aligned.clone(), 2),
            ];
            for chunk in [4usize, 16, 64] {
                for (a, b, cached_pages) in &cases {
                    let what =
                        format!("{precision:?} page {page} chunk {chunk} hit {cached_pages}");
                    let tokens = b.len() / hidden;
                    let cached = cached_pages * page;
                    let with = server(&model, config(page, chunk));
                    run(&with, a, 0);
                    let before = with.stats().snapshot();
                    let (_, got) = run(&with, b, 8);
                    // A server that never saw the first prompt.
                    let without = server(&model, config(page, chunk));
                    let (_, want) = run(&without, b, 8);
                    assert_eq!(got, want, "{what}");

                    let after = with.stats().snapshot();
                    assert_eq!(after.prefix_hit_tokens, cached as u64, "{what}");
                    assert_eq!(
                        after.prefill_tokens + after.prefix_hit_tokens,
                        ((a.len() + b.len()) / hidden) as u64,
                        "{what}: forwarded + cached = submitted"
                    );
                    assert_eq!(after.prefills - before.prefills, 1, "{what}");
                    assert_eq!(
                        after.prefill_chunks - before.prefill_chunks,
                        (tokens - cached).div_ceil(chunk.next_power_of_two()) as u64,
                        "{what}: chunks cover the suffix only"
                    );
                    assert_eq!(with.kv_pool().cow_splits(), 0, "{what}");
                    let none = without.stats().snapshot();
                    assert_eq!((none.prefix_hit_tokens, none.prefill_tokens), (0, tokens as u64));
                    assert_eq!(
                        without.prefix_cache().entries(),
                        tokens / page,
                        "{what}: a miss registers"
                    );
                }
            }
        }
    }
}

#[test]
fn a_hit_rides_a_mixed_batch_next_to_other_sessions_decode_lanes() {
    let model = model(Precision::F32);
    let hidden = model.config().hidden;
    let a = random(20, hidden * 14);
    let b = diverge(&a, hidden, 8, 21); // two cached pages, six tokens to go
    let serve = |warm: bool| {
        // A warm server prefilled `a` first, so `b` hits.
        let srv = server(&model, config(4, 4));
        if warm {
            run(&srv, &a, 0);
        }
        // Two decoding sessions whose next steps are queued together with
        // the second prompt: its chunks share their batches with them.
        let lanes: Vec<(SessionId, Vec<f32>)> = (0..2)
            .map(|s| {
                let (id, outs) = run(&srv, &random(30 + s, hidden * 3), 0);
                (id, outs[0][2 * hidden..].to_vec())
            })
            .collect();
        let id = srv.create_session(0).unwrap();
        let mixed_before = srv.stats().snapshot().mixed_batches;
        let prefill = srv.submit_prefill(id, &b, 14).unwrap();
        let steps: Vec<_> = lanes.iter().map(|(l, x)| srv.submit_step(*l, x).unwrap()).collect();
        while srv.pump() > 0 {}
        let mut outs = vec![prefill.recv().unwrap().unwrap()];
        outs.extend(steps.into_iter().map(|rx| rx.recv().unwrap().unwrap()));
        let snap = srv.stats().snapshot();
        assert!(snap.mixed_batches > mixed_before, "a chunk rode with decode lanes");
        assert_eq!(srv.kv_pool().cow_splits(), 0);
        (outs, snap.prefix_hit_tokens)
    };
    let (got, hit_tokens) = serve(true);
    let (want, cold_hit_tokens) = serve(false);
    assert_eq!((hit_tokens, cold_hit_tokens), (8, 0));
    assert_eq!(got, want, "the hit and the lanes beside it");
}

#[test]
fn each_router_shard_hits_its_own_cache() {
    let model = model(Precision::F32);
    let hidden = model.config().hidden;
    let router = Router::new(
        Arc::clone(&model),
        RouterConfig { shards: 2, total_threads: 2, server: config(4, 4) },
    )
    .unwrap();
    let a = random(40, hidden * 10);
    let prefill = |prompt: &[f32]| {
        let id = router.create_session(0).unwrap();
        let rx = router.submit_prefill(id, prompt, 10).unwrap();
        while router.pump_all() > 0 {}
        (router.placement_of(id).unwrap(), rx.recv().unwrap().unwrap())
    };
    // Least-loaded placement alternates shards: the first two prompts
    // land one per shard and both miss — a cache is shard-local — and the
    // next two find their own shard's copy.
    let (first, second) = (prefill(&a), prefill(&a));
    assert_ne!(first.0, second.0);
    assert_eq!(router.stats().prefix_hit_tokens, 0, "the peer's cache is not consulted");
    let (third, fourth) = (prefill(&a), prefill(&a));
    assert_ne!(third.0, fourth.0);
    for shard in router.shard_stats() {
        assert_eq!((shard.prefix_hit_tokens, shard.prefill_tokens), (8, 12));
    }
    let mut alone = model.new_state(KV);
    let want = model.forward(&mut alone, &a, 10, &ThreadPool::new(1));
    for (_, got) in [first, second, third, fourth] {
        assert_eq!(got, want);
    }
}

#[test]
fn nothing_is_adopted_into_a_session_with_context() {
    let model = model(Precision::F32);
    let hidden = model.config().hidden;
    let with = server(&model, config(4, 16));
    // The no-cache oracle: it runs `a` after context (which registers
    // nothing) before it runs `a` alone, so that run misses.
    let without = server(&model, config(4, 16));
    let a = random(50, hidden * 9);
    run(&with, &a, 0);
    assert_eq!(with.prefix_cache().entries(), 2);

    // A session that already holds a token: the cached pages describe
    // positions 0.., so the prompt runs whole, after the context.
    let lead = random(51, hidden);
    let continue_after = |srv: &Server| {
        let (id, _) = run(srv, &lead, 0);
        srv.prefill(id, &a, 9).unwrap()
    };
    assert_eq!(continue_after(&with), continue_after(&without));
    let snap = with.stats().snapshot();
    assert_eq!(snap.prefix_hit_tokens, 0);
    assert_eq!(snap.prefill_tokens, 9 + (1 + 9));
    assert_eq!(with.prefix_cache().entries(), 2, "and it registered nothing");

    // A lookup that races an eviction: the job found the pages at submit
    // and owns them, so clearing the cache before its chunk 0 checks out
    // changes nothing.
    let (_, want) = run(&without, &a, 0);
    assert_eq!(without.stats().snapshot().prefix_hit_tokens, 0, "the oracle forwards `a`");
    let id = with.create_session(0).unwrap();
    let rx = with.submit_prefill(id, &a, 9).unwrap();
    with.prefix_cache().clear();
    while with.pump() > 0 {}
    assert_eq!(rx.recv().unwrap().unwrap(), want[0]);
    assert_eq!(with.stats().snapshot().prefix_hit_tokens, 8);
    assert_eq!(with.prefix_cache().entries(), 2, "registration put the pages back");
}

#[test]
fn pool_exhaustion_in_the_suffix_fails_the_job_and_leaves_the_cache_exact() {
    let model = model(Precision::F32);
    let (hidden, layers) = (model.config().hidden, model.config().layers);
    // Room for the first prompt (3 pages + tail, per layer) and no more.
    let bounded = ServerConfig { kv_pool_pages: 4 * layers, ..config(4, 4) };
    let with = server(&model, bounded);
    let a = random(60, hidden * 14);
    let (first, _) = run(&with, &a, 0);
    with.close_session(first).unwrap();
    let cache = with.prefix_cache();
    assert_eq!((cache.entries(), with.kv_pool().allocated_pages()), (3, 3 * layers));

    // Sharing three pages and running 12 tokens past them needs three
    // more pages per layer: the pool runs dry inside the second suffix
    // chunk. The job fails, its session is gone, and every page it
    // allocated or adopted is accounted for.
    let long = [a.as_slice(), random(61, hidden * 10).as_slice()].concat();
    let id = with.create_session(0).unwrap();
    let err = with.prefill(id, &long, 24).unwrap_err();
    assert!(matches!(err, ServeError::BatchFailed { .. }), "{err}");
    assert!(matches!(with.close_session(id), Err(ServeError::UnknownSession(_))));
    assert_eq!(with.kv_pool().allocated_pages(), 3 * layers, "only the cache's pages remain");
    assert_eq!((cache.entries(), cache.shared_pages()), (3, 0), "held by the cache alone");
    assert_eq!(with.in_flight(), 0);

    // A prompt too long for a session's KV capacity is refused before
    // anything is adopted.
    let too_long = [a.as_slice(), random(62, hidden * (KV - 13)).as_slice()].concat();
    let id = with.create_session(0).unwrap();
    assert!(matches!(
        with.submit_prefill(id, &too_long, KV + 1),
        Err(ServeError::KvExhausted { .. })
    ));
    assert_eq!(cache.shared_pages(), 0);

    // The cached pages were never written: the same prompt still hits
    // and still reads the right bits.
    let (_, got) = run(&with, &a, 0);
    let mut alone = model.new_state(KV);
    assert_eq!(got[0], model.forward(&mut alone, &a, 14, &ThreadPool::new(1)));
    assert_eq!(with.stats().snapshot().prefix_hit_tokens, 12 + 12);
}

#[test]
fn a_system_prompt_that_keeps_being_hit_outlives_any_number_of_one_off_prompts() {
    let model = model(Precision::F32);
    let hidden = model.config().hidden;
    let with = server(&model, config(4, 16));
    let system = random(70, hidden * 8);
    let ask = |prompt: &[f32]| {
        let (id, outs) = run(&with, prompt, 0);
        with.close_session(id).unwrap();
        outs
    };
    let want = ask(&system);
    // Well past the cache's page bound in one-off prompts (two pages
    // each), the system prompt hit every eighth: insertion-order eviction
    // would have dropped it long before the end.
    let mut hits = 0;
    for i in 0..80u64 {
        ask(&random(100 + i, hidden * 8));
        if i % 8 == 7 {
            let before = with.stats().snapshot().prefix_hit_tokens;
            assert_eq!(ask(&system), want);
            assert_eq!(with.stats().snapshot().prefix_hit_tokens - before, 8, "after {i}");
            hits += 1;
        }
    }
    assert_eq!(hits, 10);
    assert!(with.prefix_cache().entries() <= 64, "bounded by pages held");
    assert_eq!(with.kv_pool().allocated_pages(), with.prefix_cache().entries() * 2);
}
