//! The prepared-op packing discipline, asserted through the
//! `pl_dnn::prepared::pack_events` counter: after a model is constructed
//! (its plans built, weights packed into their blocked kernel layouts),
//! the decode/forward hot paths must pack **zero** weight bytes — only
//! activations are gathered and blocked.
//!
//! Each test records the counter after construction and asserts an exact
//! delta of zero across the steady-state path it drives. The counter is
//! process-wide, so every test in this binary serializes on one mutex —
//! concurrent sibling tests building plans of their own would otherwise
//! make exact-delta assertions meaningless (which is why these live here
//! and not in the `pl_dnn` unit tests).

use pl_dnn::matmul::{matmul, Trans};
use pl_dnn::prepared::pack_events;
use pl_dnn::resnet::FcHead;
use pl_dnn::sparse_bert::random_sparse_layer;
use pl_dnn::{BertConfig, BertEncoder, Decoder, DecoderConfig, DecoderModel, Precision};
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, Xorshift};
use std::sync::{Arc, Mutex};

static SERIAL: Mutex<()> = Mutex::new(());

fn token(hidden: usize, seed: u64) -> Vec<f32> {
    let mut x = vec![0.0f32; hidden];
    fill_uniform(&mut x, &mut Xorshift::new(seed), -0.5, 0.5);
    x
}

/// One ragged batched forward: three decode lanes next to a 4-token
/// prefill chunk (7 columns: a full column block and a ragged one).
fn ragged_batch(model: &DecoderModel, pool: &ThreadPool) {
    let h = model.config().hidden;
    let widths = [1usize, 1, 4, 1];
    let mut states: Vec<_> = widths.iter().map(|_| model.new_state(16)).collect();
    let inputs: Vec<Vec<f32>> =
        widths.iter().enumerate().map(|(s, w)| token(h * w, 20 + s as u64)).collect();
    let batch: Vec<(&mut pl_dnn::DecoderState, &[f32], usize)> = states
        .iter_mut()
        .zip(&inputs)
        .zip(widths)
        .map(|((st, x), w)| (st, x.as_slice(), w))
        .collect();
    let _ = model.forward_batch(batch, pool);
}

#[test]
fn decoder_step_paths_pack_no_weight_bytes() {
    let _guard = SERIAL.lock().unwrap();
    let pool = ThreadPool::new(4);
    let cfg = DecoderConfig::scaled_for_tests();
    let model = Arc::new(DecoderModel::new(cfg, 9));
    let h = cfg.hidden;

    // Construction is where the packs happen — exactly one event per
    // weight plan (6 per layer, no transposes).
    let after_build = pack_events();

    // Prefill + decode through the single-stream wrapper.
    let mut d = Decoder::from_model(Arc::clone(&model), 32);
    let mut prompt = vec![0.0f32; h * 4];
    fill_uniform(&mut prompt, &mut Xorshift::new(10), -0.5, 0.5);
    let y = d.prefill(&prompt, 4, &pool);
    let mut x = y[y.len() - h..].to_vec();
    for _ in 0..4 {
        x = d.step(&x, &pool);
    }

    // Batched decode: three lanes next to a 4-token prefill chunk.
    ragged_batch(&model, &pool);

    // Warming is kernel construction, never packing.
    model.warm_plans(&[1, 3, 8]);

    assert_eq!(
        pack_events(),
        after_build,
        "decode paths packed weight bytes after model construction"
    );
}

#[test]
fn int8_decoder_quantizes_and_packs_weights_only_at_construction() {
    let _guard = SERIAL.lock().unwrap();
    let pool = ThreadPool::new(4);
    let cfg = DecoderConfig::scaled_for_tests();
    let model = Arc::new(DecoderModel::new_with_precision(cfg, 9, Precision::Int8));
    let h = cfg.hidden;

    // The quantized pack (VNNI blocking + per-row scales) is part of plan
    // construction — one pack event per weight plan, same as f32. From
    // here on the decode paths may quantize *activations* every step, but
    // weight bytes must never be touched again: no re-pack, no
    // re-quantization.
    let after_build = pack_events();

    // Prefill + decode.
    let mut d = Decoder::from_model(Arc::clone(&model), 32);
    let mut prompt = vec![0.0f32; h * 4];
    fill_uniform(&mut prompt, &mut Xorshift::new(10), -0.5, 0.5);
    let y = d.prefill(&prompt, 4, &pool);
    let mut x = y[y.len() - h..].to_vec();
    for _ in 0..4 {
        x = d.step(&x, &pool);
    }

    ragged_batch(&model, &pool);

    model.warm_plans(&[1, 3, 8]);

    assert_eq!(
        pack_events(),
        after_build,
        "int8 decode paths packed or re-quantized weight bytes after model construction"
    );
}

#[test]
fn fc_head_forward_packs_no_weight_bytes() {
    let _guard = SERIAL.lock().unwrap();
    let pool = ThreadPool::new(2);
    let head = FcHead::new(64, 10, 3);
    let after_build = pack_events();
    let mut feats = vec![0.0f32; 64 * 8];
    fill_uniform(&mut feats, &mut Xorshift::new(30), -0.5, 0.5);
    let _ = head.forward(&feats, 8, &pool);
    let _ = head.forward(&feats, 8, &pool);
    assert_eq!(pack_events(), after_build, "FcHead forward packed weight bytes");
}

#[test]
fn bert_forward_packs_no_weight_bytes() {
    let _guard = SERIAL.lock().unwrap();
    let cfg = BertConfig { hidden: 32, heads: 4, intermediate: 64, layers: 1, seq: 8 };
    let (dense, sparse) = random_sparse_layer(cfg, 8, 0.5, 50);
    let encoder = BertEncoder::new(cfg, 52);
    let (x, pool, after_build) = (token(cfg.hidden * 8, 51), ThreadPool::new(2), pack_events());
    // Inference, and the encoder's taped training forward: the per-head
    // products build no plan.
    let _ = (dense.forward(&x, 8, &pool), sparse.forward(&x, 8, &pool));
    let _ = encoder.forward(&x, 8, &pool);
    assert_eq!(pack_events(), after_build, "BERT forwards packed weight bytes");
}

#[test]
fn compat_matmul_is_pack_per_call() {
    let _guard = SERIAL.lock().unwrap();
    let pool = ThreadPool::new(2);
    let (m, n, k) = (16, 4, 16);
    let a = token(m * k, 40);
    let b = token(k * n, 41);
    // The compatibility wrapper builds a throwaway plan per call: one
    // pack event for a no-transpose A, two when A needs a transpose.
    let before = pack_events();
    let _ = matmul(&a, Trans::No, &b, Trans::No, m, n, k, &pool);
    assert_eq!(pack_events(), before + 1, "no-transpose matmul is one pack per call");
    let at = pl_dnn::matmul::transpose_cm(&a, m, k);
    let _ = matmul(&at, Trans::Yes, &b, Trans::No, m, n, k, &pool);
    assert_eq!(pack_events(), before + 3, "transposed matmul pays pack + transpose");
}
