//! Figure 3: MLP with bias add + ReLU activations.
//!
//! The paper reports efficiency (fraction of compute peak) rising with
//! weight size on SPR / GVT3 / Zen4 (BF16, N=512). Measured here: a small
//! FP32 MLP through the fused `pl_kernels::Mlp` on the host.

use pl_bench::{f1, header, row};
use pl_kernels::Mlp;
use pl_runtime::global_pool;
use pl_tensor::BlockedMatrix;

fn main() {
    let pool = global_pool();
    let mlp = Mlp::<f32>::new(&[256, 256, 256], 128, 32, 32, "aBC", 3).expect("mlp");
    let x = BlockedMatrix::<f32>::b_layout(256, 128, 32, 32).unwrap();
    let t = pl_bench::time_it(3, || {
        let _ = mlp.forward(&x, pool).unwrap();
    });
    header("Fig.3 MLP measured on host", &["MLP", "GFLOPS"]);
    row(&["256-256-256/N=128".into(), f1(pl_bench::gflops(mlp.flops() as f64, t))]);
}
