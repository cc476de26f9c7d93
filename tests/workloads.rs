//! Cross-crate integration over the end-to-end workloads.

use pl_dnn::sparse_bert::random_sparse_layer;
use pl_dnn::{BertConfig, BertEncoder, Decoder, DecoderConfig};
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, Xorshift};

#[test]
fn bert_fine_tuning_converges() {
    let pool = ThreadPool::new(2);
    let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 2, seq: 8 };
    let mut enc = BertEncoder::new(cfg, 17);
    let tokens = 8;
    let mut rng = Xorshift::new(18);
    let mut x = vec![0.0f32; cfg.hidden * tokens];
    let mut target = vec![0.0f32; cfg.hidden * tokens];
    fill_uniform(&mut x, &mut rng, -0.5, 0.5);
    fill_uniform(&mut target, &mut rng, -0.5, 0.5);
    let first = enc.train_step(&x, &target, tokens, 0.1, &pool);
    let mut last = first;
    for _ in 0..40 {
        last = enc.train_step(&x, &target, tokens, 0.1, &pool);
    }
    // The output is layernormed and the LN affine params are frozen, so a
    // random target cannot be fit exactly; require a clear downward trend.
    assert!(last < 0.9 * first, "fine-tuning failed to converge: {first} -> {last}");
}

#[test]
fn sparse_bert_at_zero_sparsity_equals_dense() {
    let pool = ThreadPool::new(2);
    let cfg = BertConfig { hidden: 16, heads: 2, intermediate: 32, layers: 1, seq: 8 };
    let (dense, sparse) = random_sparse_layer(cfg, 8, 0.0, 23);
    let mut x = vec![0.0f32; cfg.hidden * 8];
    fill_uniform(&mut x, &mut Xorshift::new(24), -0.5, 0.5);
    let yd = dense.forward(&x, 8, &pool);
    let ys = sparse.forward(&x, 8, &pool);
    // Both layers run each projection element as one ascending-k FMA chain
    // in the one GEMM nest; unpruned, the sparse tile skips no block.
    assert_eq!(yd, ys);
}

#[test]
fn llm_kv_cache_equals_recompute() {
    let pool = ThreadPool::new(2);
    let cfg = DecoderConfig::scaled_for_tests();
    let tokens = 5;
    let mut x = vec![0.0f32; cfg.hidden * tokens];
    fill_uniform(&mut x, &mut Xorshift::new(25), -0.5, 0.5);
    let mut full = Decoder::new(cfg, 8, 3);
    let y_full = full.prefill(&x, tokens, &pool);
    let mut inc = Decoder::new(cfg, 8, 3);
    let mut last = Vec::new();
    for t in 0..tokens {
        last = inc.step(&x[t * cfg.hidden..(t + 1) * cfg.hidden], &pool);
    }
    let tail = &y_full[(tokens - 1) * cfg.hidden..];
    for (a, b) in tail.iter().zip(&last) {
        assert!((a - b).abs() < 1e-3);
    }
}

#[test]
fn resnet_conv_layer_through_kernels() {
    use pl_kernels::{ConvForward, ConvTuning};
    use pl_tensor::{ActTensor, ConvWeights};
    // ResNet-50 layer 18 (3x3 512->512 at 7x7), scaled channels.
    let shapes = pl_dnn::resnet50_conv_shapes(1, 16, 16);
    let mut shape = shapes[17].shape;
    assert_eq!(shape.r, 3);
    shape.c = 32;
    shape.k = 32;
    shape.bc = 16;
    shape.bk = 16;
    let pool = ThreadPool::new(2);
    let conv = ConvForward::<f32>::new(shape, ConvTuning::default_for(&shape)).unwrap();
    let mut rng = Xorshift::new(31);
    let input = ActTensor::<f32>::from_fn(
        shape.n,
        shape.c,
        shape.h,
        shape.w,
        shape.bc,
        shape.pad,
        |_, _, _, _| rng.next_f32() - 0.5,
    )
    .unwrap();
    let weights = ConvWeights::<f32>::from_fn(
        shape.c,
        shape.k,
        shape.r,
        shape.s,
        shape.bc,
        shape.bk,
        |_, _, _, _| rng.next_f32() - 0.5,
    )
    .unwrap();
    let mut out =
        ActTensor::<f32>::new(shape.n, shape.k, shape.p(), shape.q(), shape.bk, 0).unwrap();
    conv.execute(&input, &weights, &mut out, &pool).unwrap();
    let reference = pl_kernels::conv::reference_conv(&shape, &input, &weights);
    let (p, q) = (shape.p(), shape.q());
    for ko in 0..shape.k {
        for ph in 0..p {
            for pw in 0..q {
                let got = out.get(0, ko, ph, pw);
                let want = reference[(ko * p + ph) * q + pw];
                assert!((got - want).abs() < 1e-3, "({ko},{ph},{pw})");
            }
        }
    }
}

#[test]
fn batchnorm_composes_with_conv() {
    use pl_dnn::BatchNorm;
    use pl_tensor::ActTensor;
    let pool = ThreadPool::new(2);
    let mut rng = Xorshift::new(41);
    let x = ActTensor::<f32>::from_fn(2, 8, 6, 6, 4, 0, |_, _, _, _| rng.next_f32() * 2.0).unwrap();
    let bn = BatchNorm::new(8);
    let mut y = ActTensor::<f32>::new(2, 8, 6, 6, 4, 0).unwrap();
    let _ = bn.forward(&x, &mut y, &pool);
    // Post-BN activations are standardized per channel.
    for ch in 0..8 {
        let mut s = 0.0f32;
        for ni in 0..2 {
            for yy in 0..6 {
                for xx in 0..6 {
                    s += y.get(ni, ch, yy, xx);
                }
            }
        }
        assert!((s / 72.0).abs() < 1e-4);
    }
}
