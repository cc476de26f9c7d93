//! Figure 9: BERT SQuAD fine-tuning throughput.
//!
//! The paper reports BERT-Large sequences/sec on SPR (PARLOOPER 43.3 vs
//! fixed-loop TPP 35.3). Measured here: fine-tuning steps (forward,
//! backward, SGD) of a tiny BERT encoder on the host.

use pl_bench::{f1, header, row};
use pl_dnn::{BertConfig, BertEncoder};
use pl_runtime::global_pool;
use pl_tensor::{fill_uniform, Xorshift};

fn main() {
    let pool = global_pool();
    let tiny = BertConfig { hidden: 64, heads: 4, intermediate: 128, layers: 2, seq: 32 };
    let mut enc = BertEncoder::new(tiny, 3);
    let tokens = tiny.seq;
    let mut rng = Xorshift::new(4);
    let mut x = vec![0.0f32; tiny.hidden * tokens];
    let mut target = vec![0.0f32; tiny.hidden * tokens];
    fill_uniform(&mut x, &mut rng, -0.5, 0.5);
    fill_uniform(&mut target, &mut rng, -0.5, 0.5);
    let t = pl_bench::time_it(3, || {
        let _ = enc.train_step(&x, &target, tokens, 0.01, pool);
    });
    header("Fig.9 measured on host (tiny BERT, fwd+bwd+sgd)", &["config", "steps/s"]);
    row(&["2x64x4h/32tok".into(), f1(1.0 / t)]);
}
