//! Integration test of the pl-router scale-out tier: concurrent sessions
//! routed across core-partitioned shards must behave exactly like a
//! single server — bit-identical streams, no cross-shard
//! state leakage, stats that aggregate coherently, drains that never
//! drop queued work.

use pl_dnn::{Decoder, DecoderConfig, DecoderModel, Precision};
use pl_router::{Router, RouterConfig, RouterError};
use pl_runtime::ThreadPool;
use pl_serve::{Server, ServerConfig};
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::Arc;

const SESSIONS: usize = 6;
const TENANTS: usize = 2;
const PROMPT: usize = 3;
const STEPS: usize = 8;
const KV: usize = 32;

fn prompt_for(session: usize, hidden: usize) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden * PROMPT];
    fill_uniform(&mut x, &mut Xorshift::new(12000 + session as u64), -0.5, 0.5);
    x
}

fn last_token(y: &[f32], hidden: usize) -> Vec<f32> {
    y[y.len() - hidden..].to_vec()
}

fn server_cfg() -> ServerConfig {
    ServerConfig { tenants: TENANTS, max_batch: SESSIONS, kv_capacity: KV, ..Default::default() }
}

#[test]
fn two_shard_routing_is_bit_identical_to_a_single_server_and_to_unbatched_decode() {
    for precision in [Precision::F32, Precision::Int8] {
        routing_is_bit_identical(precision);
    }
}

fn routing_is_bit_identical(precision: Precision) {
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new_with_precision(cfg, 20261, precision));

    // The same per-session closed-loop traffic through both topologies.
    let drive = |step: &(dyn Fn(usize) -> Vec<Vec<f32>> + Sync)| -> Vec<Vec<Vec<f32>>> {
        let mut streams = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..SESSIONS).map(|s| scope.spawn(move || step(s))).collect();
            for h in handles {
                streams.push(h.join().unwrap());
            }
        });
        streams
    };

    let mut router = Router::new(
        Arc::clone(&model),
        RouterConfig { shards: 2, total_threads: 4, server: server_cfg() },
    )
    .unwrap();
    router.start();
    let routed = {
        let router = &router;
        drive(&|s| {
            let id = router.create_session(s % TENANTS).unwrap();
            let y = router.prefill(id, &prompt_for(s, hidden), PROMPT).unwrap();
            let mut x = last_token(&y, hidden);
            let mut outs = Vec::with_capacity(STEPS);
            for _ in 0..STEPS {
                let y = router.step(id, &x).unwrap();
                x = y.clone();
                outs.push(y);
            }
            assert_eq!(router.close_session(id).unwrap(), STEPS as u64);
            outs
        })
    };
    let per_shard = router.shard_stats();
    let agg = router.stats();
    router.shutdown();

    // Both shards participated, and the aggregate adds up exactly.
    assert_eq!(agg.completed, (SESSIONS * STEPS) as u64);
    assert_eq!(agg.prefills, SESSIONS as u64);
    assert_eq!(per_shard.len(), 2);
    for (i, s) in per_shard.iter().enumerate() {
        assert!(s.completed > 0, "shard {i} idle");
    }
    assert_eq!(per_shard.iter().map(|s| s.completed).sum::<u64>(), agg.completed);
    assert_eq!(per_shard.iter().map(|s| s.batches).sum::<u64>(), agg.batches);
    let lanes: u64 = agg.batch_distribution.iter().map(|&(size, n)| size as u64 * n).sum();
    assert_eq!(agg.mean_batch, lanes as f64 / agg.batches as f64);

    let mut single = Server::new(Arc::clone(&model), Arc::new(ThreadPool::new(4)), server_cfg());
    single.start();
    let baseline = {
        let single = &single;
        drive(&|s| {
            let id = single.create_session(s % TENANTS).unwrap();
            let y = single.prefill(id, &prompt_for(s, hidden), PROMPT).unwrap();
            let mut x = last_token(&y, hidden);
            let mut outs = Vec::with_capacity(STEPS);
            for _ in 0..STEPS {
                let y = single.step(id, &x).unwrap();
                x = y.clone();
                outs.push(y);
            }
            single.close_session(id).unwrap();
            outs
        })
    };
    single.shutdown();

    // Neither sharding nor batching is visible in the numbers: each
    // stream equals the single-server run and a sequential unbatched one.
    let pool = ThreadPool::new(2);
    for (s, (routed_s, single_s)) in routed.iter().zip(&baseline).enumerate() {
        assert_eq!(routed_s, single_s, "session {s}: routed stream diverged from single server");
        let mut d = Decoder::from_model(Arc::clone(&model), KV);
        let mut x = last_token(&d.prefill(&prompt_for(s, hidden), PROMPT, &pool), hidden);
        for (t, y) in routed_s.iter().enumerate() {
            x = d.step(&x, &pool);
            assert_eq!(&x, y, "{precision:?} session {s} step {t}: diverged from unbatched decode");
        }
    }
}

#[test]
fn sessions_are_isolated_across_shards() {
    // Two sessions with *identical local ids on different shards* (both
    // are each shard's first session) must produce independent streams:
    // the router namespace prevents cross-shard aliasing, and each
    // session's KV cache only ever sees its own tokens.
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 31));
    let r = Router::new(
        model.clone(),
        RouterConfig { shards: 2, total_threads: 2, server: ServerConfig { ..server_cfg() } },
    )
    .unwrap();
    let a = r.create_session(0).unwrap();
    let b = r.create_session(0).unwrap();
    assert_ne!(r.placement_of(a), r.placement_of(b));
    let xa = {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(71), -0.5, 0.5);
        x
    };
    let xb = {
        let mut x = vec![0.0f32; hidden];
        fill_uniform(&mut x, &mut Xorshift::new(72), -0.5, 0.5);
        x
    };
    // Interleave: a, b, a, b — then replay each in isolation.
    let mut got_a: Vec<Vec<f32>> = Vec::new();
    let mut got_b: Vec<Vec<f32>> = Vec::new();
    for t in 0..2 {
        let ra =
            r.submit_step(a, if t == 0 { xa.as_slice() } else { got_a[0].as_slice() }).unwrap();
        let rb =
            r.submit_step(b, if t == 0 { xb.as_slice() } else { got_b[0].as_slice() }).unwrap();
        while r.pump_all() > 0 {}
        got_a.push(ra.recv().unwrap().unwrap());
        got_b.push(rb.recv().unwrap().unwrap());
    }
    let pool = ThreadPool::new(2);
    for (x0, got) in [(&xa, &got_a), (&xb, &got_b)] {
        let mut st = model.new_state(KV);
        let w0 = model.forward(&mut st, x0, 1, &pool);
        let w1 = model.forward(&mut st, &w0, 1, &pool);
        assert_eq!(got[0], w0);
        assert_eq!(got[1], w1);
    }
    assert_ne!(got_a, got_b, "distinct streams stayed distinct");
}

#[test]
fn drain_rebalances_placement_without_dropping_work() {
    let cfg = DecoderConfig::scaled_for_tests();
    let hidden = cfg.hidden;
    let model = Arc::new(DecoderModel::new(cfg, 88));
    let r = Router::new(
        model,
        RouterConfig { shards: 3, total_threads: 3, server: ServerConfig { ..server_cfg() } },
    )
    .unwrap();
    // Fill all three shards, then drain shard 1.
    let ids: Vec<_> = (0..3).map(|_| r.create_session(0).unwrap()).collect();
    assert_eq!(r.placement_of(ids[1]), Some(1));
    let x = vec![0.25f32; hidden];
    let rx = r.submit_step(ids[1], &x).unwrap();
    let report = r.drain_shard(1);
    assert!(report.is_quiesced());
    assert!(rx.recv().unwrap().is_ok(), "queued step survived the drain");
    // New sessions skip the draining shard; the others keep balancing.
    let placements: Vec<_> =
        (0..4).map(|_| r.placement_of(r.create_session(0).unwrap()).unwrap()).collect();
    assert!(placements.iter().all(|&p| p != 1), "draining shard got {placements:?}");
    assert_eq!(placements.iter().filter(|&&p| p == 0).count(), 2);
    assert_eq!(placements.iter().filter(|&&p| p == 2).count(), 2);
    // Its resident closes; the shard is then empty and can come back.
    r.close_session(ids[1]).unwrap();
    assert!(r.drain_shard(1).is_empty());
    r.cancel_drain(1);
    let back = r.create_session(0).unwrap();
    assert_eq!(r.placement_of(back), Some(1), "recommissioned shard is least-loaded");
    // Sanity: a bad tenant still errors through the router.
    assert!(matches!(r.create_session(TENANTS + 1), Err(RouterError::Serve(_))));
}
