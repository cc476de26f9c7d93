//! `kernels.standalone`: the `pl_kernels` handles on packed operands, with
//! no model and no server. The same cases are timed briefly by the ledger.

use crate::rng::SplitMix64;
use pl_kernels::conv::reference_conv;
use pl_kernels::gemm::reference_gemm;
use pl_kernels::{
    BlockSpmm, ConvForward, ConvTuning, Gemm, GemmInt8, GemmShape, GemmTuning, SpmmTuning,
};
use pl_runtime::ThreadPool;
use pl_tensor::{
    quantize_cols_blocked, quantize_weight_a_vnni, ActTensor, BcscMatrix, BlockedMatrix, ConvShape,
    ConvWeights, VnniMatrix,
};
use pl_tpp::spmm::reference_spmm;
use std::time::{Duration, Instant};

/// One kernel on one set of operands.
pub trait KernelCase {
    fn call(&mut self, pool: &ThreadPool);
    /// Largest output error as a share of the case's tolerance (`<= 1`
    /// passes), against a reference computed here from the same operands.
    fn error(&self) -> f64;
}

/// A kernel the workload times: the metric it reports, the shape as
/// printed, and the dense-equivalent operation count of one call.
pub struct KernelSpec {
    pub metric: &'static str,
    pub shape: &'static str,
    pub ops: f64,
    /// Packs operands drawn from the seed and builds the kernel handle.
    pub build: fn(u64) -> Box<dyn KernelCase>,
}

/// Output tolerance of the f32 kernels, relative to the largest reference
/// magnitude.
const F32_TOL: f64 = 1e-4;
/// The int8 kernel's documented envelope against the exact integer
/// reference: `1e-5 * max(|ref|, 1)` per element (its own test's bound).
const I8_TOL: f64 = 1e-5;

pub const KERNELS: [KernelSpec; 5] = [
    KernelSpec {
        metric: "gemm_gflops",
        shape: "f32 512x512x512",
        ops: 2.0 * 512.0 * 512.0 * 512.0,
        build: |seed| Box::new(GemmCase::new(seed, 512, 512, 512)),
    },
    // The shape of a decode batch's projection: the same kernel used skinny.
    KernelSpec {
        metric: "gemv_gflops",
        shape: "f32 2048x8x512",
        ops: 2.0 * 2048.0 * 8.0 * 512.0,
        build: |seed| Box::new(GemmCase::new(seed, 2048, 8, 512)),
    },
    KernelSpec {
        metric: "i8_gops",
        shape: "i8 2048x128x512",
        ops: 2.0 * 2048.0 * 128.0 * 512.0,
        build: |seed| Box::new(Int8Case::new(seed, 2048, 128, 512)),
    },
    KernelSpec {
        metric: "conv_gflops",
        shape: "f32 3x3 n2 c64 k64 14x14 pad1",
        ops: 2.0 * 2.0 * 64.0 * 64.0 * 14.0 * 14.0 * 9.0,
        build: |seed| Box::new(ConvCase::new(seed)),
    },
    KernelSpec {
        metric: "spmm_gflops",
        shape: "f32 512x512x512 32x32 blocks 80% sparse",
        ops: 2.0 * 512.0 * 512.0 * 512.0,
        build: |seed| Box::new(SpmmCase::new(seed, 512, 32, 0.8)),
    },
];

/// Times of back-to-back calls of `f` in seconds: after `warm` untimed
/// calls, at least `min_calls` and then as many as fit in `window`.
pub fn time_calls(
    mut f: impl FnMut(),
    warm: usize,
    min_calls: usize,
    window: Duration,
) -> Vec<f64> {
    for _ in 0..warm {
        f();
    }
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_calls || start.elapsed() < window {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

fn max_abs(xs: &[f32]) -> f64 {
    xs.iter().fold(0.0f64, |m, x| m.max(x.abs() as f64))
}

/// Largest `|got - want|` relative to the largest `|want|`, over `F32_TOL`.
fn f32_error(got: &[f32], want: &[f32]) -> f64 {
    assert_eq!(got.len(), want.len(), "reference has another shape");
    let diff = got.iter().zip(want).fold(0.0f64, |m, (g, w)| m.max((g - w).abs() as f64));
    diff / max_abs(want).max(f64::MIN_POSITIVE) / F32_TOL
}

struct GemmCase {
    gemm: Gemm<f32, f32, f32>,
    a: BlockedMatrix<f32>,
    b: BlockedMatrix<f32>,
    c: BlockedMatrix<f32>,
    a_cm: Vec<f32>,
    b_cm: Vec<f32>,
}

impl GemmCase {
    fn new(seed: u64, m: usize, n: usize, k: usize) -> Self {
        let sh = GemmShape::with_default_blocks(m, n, k);
        let mut rng = SplitMix64::stream(seed, &[m as u64, n as u64, k as u64]);
        let a_cm = rng.vec(m * k, -0.5, 0.5);
        let b_cm = rng.vec(k * n, -0.5, 0.5);
        let mut a = BlockedMatrix::a_layout(m, k, sh.bm, sh.bk).expect("A layout");
        a.pack_from_colmajor(&a_cm);
        let mut b = BlockedMatrix::b_layout(k, n, sh.bk, sh.bn).expect("B layout");
        b.pack_from_colmajor(&b_cm);
        let c = BlockedMatrix::c_layout(m, n, sh.bm, sh.bn).expect("C layout");
        let gemm = Gemm::new(sh, GemmTuning::default_parallel(sh.kb())).expect("gemm kernel");
        GemmCase { gemm, a, b, c, a_cm, b_cm }
    }
}

impl KernelCase for GemmCase {
    fn call(&mut self, pool: &ThreadPool) {
        self.gemm.execute(&self.a, &self.b, &mut self.c, pool).expect("gemm execute");
    }

    fn error(&self) -> f64 {
        let sh = self.gemm.shape();
        let want = reference_gemm(&self.a_cm, &self.b_cm, sh.m, sh.n, sh.k);
        f32_error(&self.c.unpack_to_colmajor(), &want)
    }
}

struct Int8Case {
    gemm: GemmInt8,
    qa: BlockedMatrix<i8>,
    row_scales: Vec<f32>,
    qb: BlockedMatrix<i8>,
    col_scales: Vec<f32>,
    c: BlockedMatrix<f32>,
}

impl Int8Case {
    fn new(seed: u64, m: usize, n: usize, k: usize) -> Self {
        const VNNI: usize = 4;
        let sh = GemmShape::with_default_blocks(m, n, k);
        let mut rng = SplitMix64::stream(seed, &[8, m as u64, n as u64, k as u64]);
        let w_cm = rng.vec(m * k, -0.5, 0.5);
        let act_cm = rng.vec(k * n, -2.0, 2.0);
        let (qa, row_scales) =
            quantize_weight_a_vnni(&w_cm, m, k, sh.bm, sh.bk, VNNI).expect("int8 A layout");
        let mut act = BlockedMatrix::<f32>::b_layout(k, n, sh.bk, sh.bn).expect("B layout");
        act.pack_from_colmajor(&act_cm);
        let mut qb = BlockedMatrix::<i8>::b_layout(k, n, sh.bk, sh.bn).expect("int8 B layout");
        let mut col_scales = vec![0.0f32; n];
        quantize_cols_blocked(&act, &mut qb, &mut col_scales);
        let c = BlockedMatrix::c_layout(m, n, sh.bm, sh.bn).expect("C layout");
        let gemm =
            GemmInt8::new(sh, GemmTuning::default_parallel(sh.kb()), VNNI).expect("int8 kernel");
        Int8Case { gemm, qa, row_scales, qb, col_scales, c }
    }
}

impl KernelCase for Int8Case {
    fn call(&mut self, pool: &ThreadPool) {
        self.gemm
            .execute(&self.qa, &self.row_scales, &self.qb, &self.col_scales, &mut self.c, pool)
            .expect("int8 execute");
    }

    /// Against the exact integer product of the quantized operands.
    fn error(&self) -> f64 {
        let sh = self.gemm.shape();
        let (m, n, k) = (sh.m, sh.n, sh.k);
        // Row-major A and column-major B make the inner product contiguous.
        let mut a = vec![0i32; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = self.qa.get(i, p) as i32;
            }
        }
        let mut b = vec![0i32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[j * k + p] = self.qb.get(p, j) as i32;
            }
        }
        let got = self.c.unpack_to_colmajor();
        let mut worst = 0.0f64;
        for j in 0..n {
            for i in 0..m {
                // |sum| <= 512 * 127 * 127 fits an i32.
                let acc: i32 =
                    a[i * k..][..k].iter().zip(&b[j * k..][..k]).map(|(x, y)| x * y).sum();
                let want = self.row_scales[i] * self.col_scales[j] * acc as f32;
                let tol = I8_TOL * (want.abs() as f64).max(1.0);
                worst = worst.max((got[j * m + i] - want).abs() as f64 / tol);
            }
        }
        worst
    }
}

struct ConvCase {
    conv: ConvForward<f32>,
    input: ActTensor<f32>,
    weights: ConvWeights<f32>,
    output: ActTensor<f32>,
}

impl ConvCase {
    fn new(seed: u64) -> Self {
        let sh = ConvShape {
            n: 2,
            c: 64,
            k: 64,
            h: 14,
            w: 14,
            r: 3,
            s: 3,
            stride: 1,
            pad: 1,
            bc: 32,
            bk: 32,
        };
        let mut rng = SplitMix64::stream(seed, &[9]);
        let input = ActTensor::from_fn(sh.n, sh.c, sh.h, sh.w, sh.bc, sh.pad, |_, _, _, _| {
            rng.uniform(-0.5, 0.5)
        })
        .expect("conv input");
        let weights = ConvWeights::from_fn(sh.c, sh.k, sh.r, sh.s, sh.bc, sh.bk, |_, _, _, _| {
            rng.uniform(-0.5, 0.5)
        })
        .expect("conv weights");
        let output = ActTensor::new(sh.n, sh.k, sh.p(), sh.q(), sh.bk, 0).expect("conv output");
        let conv = ConvForward::new(sh, ConvTuning::default_for(&sh)).expect("conv kernel");
        ConvCase { conv, input, weights, output }
    }
}

impl KernelCase for ConvCase {
    fn call(&mut self, pool: &ThreadPool) {
        self.conv
            .execute(&self.input, &self.weights, &mut self.output, pool)
            .expect("conv execute");
    }

    fn error(&self) -> f64 {
        let sh = self.conv.shape();
        let want = reference_conv(sh, &self.input, &self.weights);
        let (p, q) = (sh.p(), sh.q());
        let mut got = Vec::with_capacity(want.len());
        for ni in 0..sh.n {
            for ko in 0..sh.k {
                for y in 0..p {
                    for x in 0..q {
                        got.push(self.output.get(ni, ko, y, x));
                    }
                }
            }
        }
        f32_error(&got, &want)
    }
}

struct SpmmCase {
    spmm: BlockSpmm,
    a: BcscMatrix<f32>,
    b: VnniMatrix<f32>,
    c: VnniMatrix<f32>,
    b_cm: Vec<f32>,
}

impl SpmmCase {
    /// `dim`-cubed problem; exactly `sparsity` of A's `block`-square blocks
    /// are zero, placed by the seed.
    fn new(seed: u64, dim: usize, block: usize, sparsity: f64) -> Self {
        let mut rng = SplitMix64::stream(seed, &[10]);
        let grid = dim / block;
        let mut keep = vec![false; grid * grid];
        let kept = ((1.0 - sparsity) * keep.len() as f64).round() as usize;
        keep[..kept].fill(true);
        for i in (1..keep.len()).rev() {
            keep.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut a_cm = vec![0.0f32; dim * dim];
        for col in 0..dim {
            for row in 0..dim {
                if keep[(row / block) * grid + col / block] {
                    // Exact zeros would drop a kept block from the BCSC form.
                    a_cm[col * dim + row] =
                        rng.uniform(0.01, 0.5) * rng.uniform(-1.0, 1.0).signum();
                }
            }
        }
        let a = BcscMatrix::from_dense_colmajor(&a_cm, dim, dim, block, block).expect("BCSC A");
        let b_cm = rng.vec(dim * dim, -0.5, 0.5);
        let mut b = VnniMatrix::new(dim, dim, block, 1).expect("B layout");
        b.pack_from_colmajor(&b_cm);
        let c = VnniMatrix::new(dim, dim, block, 1).expect("C layout");
        let tuning = SpmmTuning::default_parallel(grid);
        let spmm = BlockSpmm::new(dim, dim, dim, block, block, block, tuning).expect("spmm kernel");
        SpmmCase { spmm, a, b, c, b_cm }
    }
}

impl KernelCase for SpmmCase {
    fn call(&mut self, pool: &ThreadPool) {
        self.spmm.execute(&self.a, &self.b, &mut self.c, pool).expect("spmm execute");
    }

    fn error(&self) -> f64 {
        let (m, k) = (self.a.rows(), self.a.cols());
        let want = reference_spmm(&self.a.to_dense_colmajor(), m, k, &self.b_cm, self.b.cols());
        f32_error(&self.c.unpack_to_colmajor(), &want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sparse_operand_has_the_stated_sparsity() {
        let case = SpmmCase::new(3, 256, 32, 0.8);
        assert_eq!(case.a.nnz_blocks(), 13); // round(0.2 * 64)
        let other = SpmmCase::new(4, 256, 32, 0.8);
        assert_ne!((case.a.ptr(), case.a.kidx()), (other.a.ptr(), other.a.kidx()));
    }

    #[test]
    fn small_cases_pass_their_own_check_and_a_wrong_output_fails_it() {
        let pool = ThreadPool::new(2);
        let mut gemm = GemmCase::new(1, 64, 8, 64);
        gemm.call(&pool);
        assert!(gemm.error() <= 1.0, "{}", gemm.error());
        gemm.c.set(0, 0, 1e3);
        assert!(gemm.error() > 1.0);

        let mut int8 = Int8Case::new(1, 64, 16, 64);
        int8.call(&pool);
        assert!(int8.error() <= 1.0, "{}", int8.error());

        let mut spmm = SpmmCase::new(1, 64, 32, 0.5);
        spmm.call(&pool);
        assert!(spmm.error() <= 1.0, "{}", spmm.error());
    }
}
