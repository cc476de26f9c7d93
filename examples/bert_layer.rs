//! End-to-end workload example (paper §IV): a BERT encoder built from the
//! fused PARLOOPER/TPP modules — dense fine-tuning step, then block-sparse
//! inference on the Block-SpMM kernel.
//!
//! ```sh
//! cargo run --release --example bert_layer
//! ```

use pl_dnn::sparse_bert::random_sparse_layer;
use pl_dnn::{BertConfig, BertEncoder};
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, Xorshift};

fn main() {
    let pool = global_pool();
    let cfg = BertConfig { hidden: 128, heads: 4, intermediate: 256, layers: 2, seq: 64 };
    let tokens = cfg.seq;
    println!(
        "BERT encoder: {} layers, hidden {}, {} heads, {} tokens",
        cfg.layers, cfg.hidden, cfg.heads, tokens
    );

    // Dense fine-tuning (Fig. 9 regime): loss should fall.
    let mut enc = BertEncoder::new(cfg, 7);
    let mut rng = Xorshift::new(8);
    let mut x = vec![0.0f32; cfg.hidden * tokens];
    let mut target = vec![0.0f32; cfg.hidden * tokens];
    fill_uniform(&mut x, &mut rng, -0.5, 0.5);
    fill_uniform(&mut target, &mut rng, -0.5, 0.5);
    let mut last = f32::MAX;
    for step in 0..5 {
        let loss = enc.train_step(&x, &target, tokens, 0.02, pool);
        println!("  step {step}: loss {loss:.5}");
        assert!(loss <= last * 1.1, "loss diverged");
        last = loss;
    }

    // Block-sparse inference (Fig. 10 regime): prune to 80 % 8x8 blocks.
    let (dense, sparse) = random_sparse_layer(cfg, 8, 0.8, 11);
    println!(
        "\nblock-sparse layer: {:.0}% sparsity, compressed weights {} KiB",
        sparse.sparsity() * 100.0,
        sparse.compressed_bytes() / 1024
    );
    let t0 = std::time::Instant::now();
    let yd = dense.forward(&x, tokens, pool);
    let t_dense = t0.elapsed();
    let t0 = std::time::Instant::now();
    let ys = sparse.forward(&x, tokens, pool);
    let t_sparse = t0.elapsed();
    println!(
        "dense {:.2} ms vs sparse {:.2} ms ({:.2}x)",
        t_dense.as_secs_f64() * 1e3,
        t_sparse.as_secs_f64() * 1e3,
        t_dense.as_secs_f64() / t_sparse.as_secs_f64()
    );
    // The pruned model's output differs from dense, but stays finite and
    // normalized (layernorm at the tail).
    assert!(ys.iter().all(|v| v.is_finite()));
    assert!(yd.iter().all(|v| v.is_finite()));
}
