//! Table II: ResNet-50 training throughput.
//!
//! The paper reports 255 img/s on SPR (PARLOOPER+TPP, within 4 % of
//! IPEX+oneDNN) and 145 img/s on GVT3. Measured here: one convolution's
//! forward, backward-data and backward-weights passes through the real
//! kernels on the host.

use pl_bench::{f2, header, row};
use pl_kernels::{conv_backward_data, conv_backward_weights, ConvForward, ConvTuning};
use pl_runtime::global_pool;
use pl_tensor::{ActTensor, ConvShape, ConvWeights, Xorshift};

fn main() {
    let pool = global_pool();
    let shape = ConvShape {
        n: 2,
        c: 32,
        k: 32,
        h: 14,
        w: 14,
        r: 3,
        s: 3,
        stride: 1,
        pad: 1,
        bc: 16,
        bk: 16,
    };
    let conv = ConvForward::<f32>::new(shape, ConvTuning::default_for(&shape)).unwrap();
    // Random operands: a pass that skipped zero products would otherwise
    // time nothing.
    let mut rng = Xorshift::new(7);
    let mut random = |_: usize, _: usize, _: usize, _: usize| rng.next_f32() - 0.5;
    let (n, c, h, w, bc, pad) = (shape.n, shape.c, shape.h, shape.w, shape.bc, shape.pad);
    let input = ActTensor::<f32>::from_fn(n, c, h, w, bc, pad, &mut random).unwrap();
    let weights =
        ConvWeights::<f32>::from_fn(c, shape.k, shape.r, shape.s, bc, shape.bk, &mut random)
            .unwrap();
    let mut out =
        ActTensor::<f32>::new(shape.n, shape.k, shape.p(), shape.q(), shape.bk, 0).unwrap();
    let mut din =
        ActTensor::<f32>::new(shape.n, shape.c, shape.h, shape.w, shape.bc, shape.pad).unwrap();
    let mut dw =
        ConvWeights::<f32>::new(shape.c, shape.k, shape.r, shape.s, shape.bc, shape.bk).unwrap();
    let t = pl_bench::time_it(3, || {
        conv.execute(&input, &weights, &mut out, pool).unwrap();
        conv_backward_data(&shape, &out, &weights, &mut din, pool).unwrap();
        conv_backward_weights(&shape, &input, &out, &mut dw, pool).unwrap();
    });
    header("Table II measured on host (one conv fwd+bwd)", &["conv", "ms"]);
    row(&["3x3 32->32 @14x14 n=2".into(), f2(t * 1e3)]);
}
