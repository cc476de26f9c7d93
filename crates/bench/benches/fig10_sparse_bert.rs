//! Figure 10: block-sparse BERT inference.
//!
//! The paper reports BERT-base at 80 % 8x8-block sparsity reaching
//! 1.75x / 1.95x / 2.79x over dense on SPR / GVT3 / Zen4. Measured here:
//! one tiny encoder layer, dense vs 80 % 8x8-block-sparse, on the host.

use pl_bench::{f2, header, row};
use pl_dnn::sparse_bert::random_sparse_layer;
use pl_dnn::BertConfig;
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, Xorshift};

fn main() {
    let pool = global_pool();
    let tiny = BertConfig { hidden: 128, heads: 4, intermediate: 256, layers: 1, seq: 32 };
    let (dense_l, sparse_l) = random_sparse_layer(tiny, 8, 0.8, 9);
    let tokens = 32;
    let mut x = vec![0.0f32; tiny.hidden * tokens];
    fill_uniform(&mut x, &mut Xorshift::new(10), -0.5, 0.5);
    let td = pl_bench::time_it(3, || {
        let _ = dense_l.forward(&x, tokens, pool);
    });
    let ts = pl_bench::time_it(3, || {
        let _ = sparse_l.forward(&x, tokens, pool);
    });
    header("Fig.10 measured on host (tiny layer, 80% 8x8 sparsity)", &["variant", "ms", "speedup"]);
    row(&["dense".into(), f2(td * 1e3), "1.00x".into()]);
    row(&["block-sparse".into(), f2(ts * 1e3), format!("{}x", f2(td / ts))]);
}
