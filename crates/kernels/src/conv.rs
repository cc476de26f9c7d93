//! Direct convolutions with PARLOOPER and TPPs — paper Listing 4.
//!
//! Seven logical loops (`a`=N, `b`=Cb, `c`=Kb, `d`=P, `e`=Q, `f`=R, `g`=S)
//! traverse the iteration space; the body performs one offset-based BRGEMM
//! with `brcount = c_step * r_step * s_step` per `(n, kb, p, q-tile)`. The
//! GEMM view: `A` = the `bk x bc` weight sub-matrices, `B` = input pixels
//! (`ldb = stride * bc`), `C` = one row-segment of the output
//! (`m = bk`, `n = w_step` output pixels, `k = bc`).
//!
//! Backward-data and backward-weights passes (needed for ResNet-50
//! training, §IV-C) are PARLOOPER nests over the same tensors whose bodies
//! are BRGEMM calls too, as the TPP collection builds them: after a
//! once-per-call transpose (of the weight blocks, or of `dY`), each is a
//! stride- or offset-based batch reduction.

use crate::shared::SharedSlice;
use crate::{KernelError, MAX_BR};
use parlooper::{LoopSpecs, ThreadedLoop};
use pl_runtime::ThreadPool;
use pl_tensor::{ActTensor, ConvShape, ConvWeights, Element};
use pl_tpp::brgemm::{Brgemm, BrgemmDesc};
use pl_tpp::transform::transpose;

/// Tuning knobs of the forward convolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvTuning {
    /// The `loop_spec_string` over loops `a..g`.
    pub spec: String,
    /// Input-feature blocks folded per BRGEMM (loop `b` step).
    pub c_step: usize,
    /// Output pixels per BRGEMM call (loop `e` step).
    pub w_step: usize,
    /// Filter rows folded per BRGEMM (loop `f` step).
    pub r_step: usize,
    /// Filter cols folded per BRGEMM (loop `g` step).
    pub s_step: usize,
    /// Blocking steps for the P loop `d`.
    pub h_blocks: Vec<usize>,
    /// Blocking steps for the Kb loop `c`.
    pub k_blocks: Vec<usize>,
}

impl ConvTuning {
    /// Default: fold the whole reduction, one output row per call,
    /// parallelize over (N, Kb, P).
    pub fn default_for(shape: &ConvShape) -> Self {
        ConvTuning {
            spec: "ACDbefg".to_string(),
            c_step: shape.cb(),
            w_step: shape.q(),
            r_step: shape.r,
            s_step: shape.s,
            h_blocks: Vec::new(),
            k_blocks: Vec::new(),
        }
    }
}

/// Forward convolution kernel handle.
pub struct ConvForward<T: Element> {
    shape: ConvShape,
    tuning: ConvTuning,
    tl: ThreadedLoop,
    brgemm: Brgemm<T, T, T>,
}

impl<T: Element> ConvForward<T> {
    /// Builds the kernel (Listing 4 lines 5-13).
    ///
    /// Loops `b`, `f` and `g` (Cb, R, S) reduce into one output block, so
    /// a spec that puts any of them in the parallel group, or deals the
    /// output blocks out dynamically below one of them, is rejected with
    /// [`KernelError::RacySpec`], as [`crate::Gemm::new`] rejects a split K.
    pub fn new(shape: ConvShape, tuning: ConvTuning) -> Result<Self, KernelError> {
        shape.validate().map_err(|e| KernelError::BadShape(e.to_string()))?;
        if !shape.q().is_multiple_of(tuning.w_step) {
            return Err(KernelError::BadShape(format!(
                "Q={} not divisible by w_step={}",
                shape.q(),
                tuning.w_step
            )));
        }
        let br = tuning.c_step * tuning.r_step * tuning.s_step;
        if br > MAX_BR {
            return Err(KernelError::BadShape(format!("brcount {br} exceeds {MAX_BR}")));
        }
        let specs = vec![
            LoopSpecs::new(0, shape.n, 1),                                 // a: N
            LoopSpecs::new(0, shape.cb(), tuning.c_step),                  // b: Cb
            LoopSpecs::blocked(0, shape.kb(), 1, tuning.k_blocks.clone()), // c: Kb
            LoopSpecs::blocked(0, shape.p(), 1, tuning.h_blocks.clone()),  // d: P
            LoopSpecs::new(0, shape.q(), tuning.w_step),                   // e: Q
            LoopSpecs::new(0, shape.r, tuning.r_step),                     // f: R
            LoopSpecs::new(0, shape.s, tuning.s_step),                     // g: S
        ];
        let tl = ThreadedLoop::new(&specs, &tuning.spec).map_err(KernelError::Spec)?;
        crate::check_outputs_owned(&tuning.spec, "bfg")?;
        // GEMM view: m=bk output features, n=w_step pixels, k=bc.
        let desc = BrgemmDesc {
            m: shape.bk,
            n: tuning.w_step,
            k: shape.bc,
            lda: shape.bk,
            ldb: shape.bc * shape.stride,
            ldc: shape.bk,
            beta_one: true,
        };
        let brgemm = Brgemm::new(desc);
        Ok(ConvForward { shape, tuning, tl, brgemm })
    }

    /// Problem shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Active tuning.
    pub fn tuning(&self) -> &ConvTuning {
        &self.tuning
    }

    /// The loop nest (for schedule simulation).
    pub fn threaded_loop(&self) -> &ThreadedLoop {
        &self.tl
    }

    /// `output = conv(input, weights)`; `output` must be an un-padded
    /// activation tensor of shape `(N, K, P, Q)` blocked by `bk`.
    pub fn execute(
        &self,
        input: &ActTensor<T>,
        weights: &ConvWeights<T>,
        output: &mut ActTensor<T>,
        pool: &ThreadPool,
    ) -> Result<(), KernelError> {
        let sh = self.shape;
        if input.n() != sh.n
            || input.c() != sh.c
            || input.bc() != sh.bc
            || input.pad() != sh.pad
            || weights.c() != sh.c
            || weights.k() != sh.k
            || output.n() != sh.n
            || output.c() != sh.k
            || output.h() != sh.p()
            || output.w() != sh.q()
            || output.bc() != sh.bk
            || output.pad() != 0
        {
            return Err(KernelError::BadShape("conv operand mismatch".into()));
        }
        let (bc, bk) = (sh.bc, sh.bk);
        let (p, q, kb) = (sh.p(), sh.q(), sh.kb());
        let (c_step, w_step, r_step, s_step) =
            (self.tuning.c_step, self.tuning.w_step, self.tuning.r_step, self.tuning.s_step);
        let stride = sh.stride;
        let w_data = weights.data();
        let i_data = input.data();
        let i_hp = input.hp();
        let i_wp = input.wp();
        let cb_total = sh.cb();
        let out_shared = SharedSlice::new(output.data_mut());
        let brgemm = &self.brgemm;
        let wblock = bc * bk;

        self.tl
            .try_run_on(pool, |ind| {
                let (i_nb, ic, ik, ih, iw, ir, is) =
                    (ind[0], ind[1], ind[2], ind[3], ind[4], ind[5], ind[6]);
                let c_cnt = c_step.min(cb_total - ic);
                let r_cnt = r_step.min(sh.r - ir);
                let s_cnt = s_step.min(sh.s - is);
                // Output row segment (n, ik, ih, iw..iw+w_step).
                let o_off = (((i_nb * kb + ik) * p + ih) * q + iw) * bk;
                let o_len = w_step * bk;
                // SAFETY: concurrent iterations of any legal spec differ in
                // (n, kb, p, q-tile) and thus write disjoint output rows;
                // loops b/f/g must stay sequential (user contract §II-C).
                let o_block = unsafe { out_shared.slice_mut(o_off, o_len) };
                if ic == 0 && ir == 0 && is == 0 {
                    o_block.iter_mut().for_each(|v| *v = T::default());
                }
                let mut offs_a = [0usize; MAX_BR];
                let mut offs_b = [0usize; MAX_BR];
                let mut bi = 0usize;
                for cc in ic..ic + c_cnt {
                    for rr in ir..ir + r_cnt {
                        for ss in is..is + s_cnt {
                            // A: weight block (ik, cc, rr, ss).
                            offs_a[bi] = (((ik * cb_total + cc) * sh.r + rr) * sh.s + ss) * wblock;
                            // B: input pixel (n, cc, ih*stride+rr, iw*stride+ss)
                            // in padded coordinates.
                            let y = ih * stride + rr;
                            let x = iw * stride + ss;
                            offs_b[bi] = (((i_nb * cb_total + cc) * i_hp + y) * i_wp + x) * bc;
                            bi += 1;
                        }
                    }
                }
                brgemm.execute_offsets(w_data, &offs_a[..bi], i_data, &offs_b[..bi], o_block);
            })
            .map_err(KernelError::Spec)
    }
}

/// Backward-data: `d_input = conv_transpose(d_output, weights)`.
///
/// The weight's `bk x bc` blocks are transposed once per call into
/// `[Cb][R][S][Kb][bk][bc]`. Parallelized over (N, Cb): each task owns its
/// `d_input` plane and, per `(p, r, s)`, issues one stride-based BRGEMM
/// over the Kb blocks — `A` the transposed blocks (`m = bc`, `k = bk`),
/// `B` the `dY` row `(n, kb, p)` (`n = Q`, `ldb = bk`), `C` the `d_input`
/// row `p * stride + r` from column `s`, every `stride`-th pixel
/// (`ldc = stride * bc`).
pub fn conv_backward_data<T: Element>(
    shape: &ConvShape,
    d_output: &ActTensor<T>,
    weights: &ConvWeights<T>,
    d_input: &mut ActTensor<T>,
    pool: &ThreadPool,
) -> Result<(), KernelError> {
    let (p, q, r, s, stride) = (shape.p(), shape.q(), shape.r, shape.s, shape.stride);
    let (bc, bk, cb, kb) = (shape.bc, shape.bk, shape.cb(), shape.kb());
    let block = bc * bk;
    let w_data = weights.data();
    let mut wt = vec![T::default(); w_data.len()];
    for (i, w) in w_data.chunks_exact(block).enumerate() {
        // Block (kb, cb, r, s) of `[Kb][Cb][R][S]` goes to (cb, r, s, kb).
        let (ik, crs) = (i / (cb * r * s), i % (cb * r * s));
        transpose(bk, bc, w, bk, &mut wt[(crs * kb + ik) * block..][..block], bc);
    }
    d_input.data_mut().iter_mut().for_each(|v| *v = T::default());
    let wp = d_input.wp();
    let plane = d_input.hp() * wp * bc;
    let di_shared = SharedSlice::new(d_input.data_mut());
    let dy = d_output.data();
    let desc =
        BrgemmDesc { m: bc, n: q, k: bk, lda: bc, ldb: bk, ldc: stride * bc, beta_one: true };
    let brgemm = Brgemm::<T, T, T>::new(desc);

    let specs = vec![LoopSpecs::new(0, shape.n, 1), LoopSpecs::new(0, cb, 1)];
    let tl = ThreadedLoop::new(&specs, "AB").map_err(KernelError::Spec)?;
    tl.try_run_on(pool, |ind| {
        let (ni, ic) = (ind[0], ind[1]);
        // SAFETY: disjoint (n, cb) planes of d_input.
        let di_plane = unsafe { di_shared.slice_mut((ni * cb + ic) * plane, plane) };
        for ph in 0..p {
            let b = &dy[(ni * kb * p + ph) * q * bk..];
            for rr in 0..r {
                for ss in 0..s {
                    let a = &wt[((ic * r + rr) * s + ss) * kb * block..];
                    let c = &mut di_plane[((ph * stride + rr) * wp + ss) * bc..];
                    brgemm.execute_stride(a, block, b, p * q * bk, c, kb);
                }
            }
        }
    })
    .map_err(KernelError::Spec)?;
    // The halo of d_input accumulated gradients that fall outside the image;
    // they correspond to padding and are discarded.
    d_input.clear_padding();
    Ok(())
}

/// Backward-weights: `d_weights[c,k,r,s] = sum_{n,p,q} input * d_output`.
///
/// `dY` is transposed once per call into `[N][Kb][P][bk][Q]`. Parallelized
/// over (Kb, Cb) weight blocks, each task owning its block: per `(r, s)`,
/// one offset-based BRGEMM over the `(n, p)` pairs computes `dWᵀ` into the
/// task's scratch — `A` the input row `(n, cb, p * stride + r)` from column
/// `s`, every `stride`-th pixel (`m = bc`, `k = Q`, `lda = stride * bc`),
/// `B` the `dYᵀ` row `(n, kb, p)` (`n = bk`, `ldb = Q`) — and the scratch
/// is transposed into the `dW` block on store.
pub fn conv_backward_weights<T: Element>(
    shape: &ConvShape,
    input: &ActTensor<T>,
    d_output: &ActTensor<T>,
    d_weights: &mut ConvWeights<T>,
    pool: &ThreadPool,
) -> Result<(), KernelError> {
    let (p, q, r, s, stride) = (shape.p(), shape.q(), shape.r, shape.s, shape.stride);
    let (bc, bk, cb, kb) = (shape.bc, shape.bk, shape.cb(), shape.kb());
    let (block, row) = (bc * bk, q * bk);
    let mut dyt = vec![T::default(); d_output.data().len()];
    for (dy, t) in d_output.data().chunks_exact(row).zip(dyt.chunks_exact_mut(row)) {
        transpose(bk, q, dy, bk, t, q);
    }
    let (hp, wp) = (input.hp(), input.wp());
    let x = input.data();
    let dw_shared = SharedSlice::new(d_weights.data_mut());
    let desc = BrgemmDesc { m: bc, n: bk, k: q, lda: stride * bc, ldb: q, ldc: bc, beta_one: true };
    let brgemm = Brgemm::<T, T, f32>::new(desc);
    let pairs = shape.n * p;

    let specs = vec![LoopSpecs::new(0, kb, 1), LoopSpecs::new(0, cb, 1)];
    let tl = ThreadedLoop::new(&specs, "AB").map_err(KernelError::Spec)?;
    tl.try_run_on(pool, |ind| {
        let (ik, ic) = (ind[0], ind[1]);
        // SAFETY: disjoint (kb, cb) weight slabs.
        let dw = unsafe { dw_shared.slice_mut((ik * cb + ic) * r * s * block, r * s * block) };
        let mut dwt = vec![0.0f32; block];
        let (mut offs_x, mut offs_dy) = ([0usize; MAX_BR], [0usize; MAX_BR]);
        for (rs, dw_block) in dw.chunks_exact_mut(block).enumerate() {
            let (rr, ss) = (rs / s, rs % s);
            dwt.fill(0.0);
            // One call, unless there are more than `MAX_BR` (n, p) pairs.
            for lo in (0..pairs).step_by(MAX_BR) {
                let hi = pairs.min(lo + MAX_BR);
                for (i, (ni, ph)) in (lo..hi).map(|np| (np / p, np % p)).enumerate() {
                    offs_x[i] = (((ni * cb + ic) * hp + ph * stride + rr) * wp + ss) * bc;
                    offs_dy[i] = ((ni * kb + ik) * p + ph) * row;
                }
                let n = hi - lo;
                brgemm.execute_offsets(x, &offs_x[..n], &dyt, &offs_dy[..n], &mut dwt);
            }
            transpose(bc, bk, &dwt, bc, dw_block, bk);
        }
    })
    .map_err(KernelError::Spec)
}

/// Scalar reference convolution for tests (logical NCHW f32 views).
pub fn reference_conv(
    shape: &ConvShape,
    input: &ActTensor<f32>,
    weights: &ConvWeights<f32>,
) -> Vec<f32> {
    let (p, q) = (shape.p(), shape.q());
    let mut out = vec![0.0f32; shape.n * shape.k * p * q];
    for ni in 0..shape.n {
        for ko in 0..shape.k {
            for ph in 0..p {
                for pw in 0..q {
                    let mut acc = 0.0f64;
                    for ci in 0..shape.c {
                        for rr in 0..shape.r {
                            for ss in 0..shape.s {
                                let y = (ph * shape.stride + rr) as isize - shape.pad as isize;
                                let x = (pw * shape.stride + ss) as isize - shape.pad as isize;
                                if y < 0 || x < 0 || y >= shape.h as isize || x >= shape.w as isize
                                {
                                    continue;
                                }
                                acc += input.get(ni, ci, y as usize, x as usize) as f64
                                    * weights.get(ci, ko, rr, ss) as f64;
                            }
                        }
                    }
                    out[((ni * shape.k + ko) * p + ph) * q + pw] = acc as f32;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_tensor::Xorshift;

    fn small_shape() -> ConvShape {
        ConvShape { n: 2, c: 8, k: 8, h: 6, w: 6, r: 3, s: 3, stride: 1, pad: 1, bc: 4, bk: 4 }
    }

    fn random_inputs(shape: &ConvShape, seed: u64) -> (ActTensor<f32>, ConvWeights<f32>) {
        let mut rng = Xorshift::new(seed);
        let input = ActTensor::from_fn(
            shape.n,
            shape.c,
            shape.h,
            shape.w,
            shape.bc,
            shape.pad,
            |_, _, _, _| rng.next_f32() - 0.5,
        )
        .unwrap();
        let mut rng2 = Xorshift::new(seed + 1);
        let weights = ConvWeights::from_fn(
            shape.c,
            shape.k,
            shape.r,
            shape.s,
            shape.bc,
            shape.bk,
            |_, _, _, _| rng2.next_f32() - 0.5,
        )
        .unwrap();
        (input, weights)
    }

    fn run_forward(shape: &ConvShape, tuning: ConvTuning, seed: u64) {
        let pool = ThreadPool::new(2);
        let (input, weights) = random_inputs(shape, seed);
        let mut out =
            ActTensor::<f32>::new(shape.n, shape.k, shape.p(), shape.q(), shape.bk, 0).unwrap();
        let spec_str = tuning.spec.clone();
        let conv = ConvForward::new(*shape, tuning).unwrap();
        conv.execute(&input, &weights, &mut out, &pool).unwrap();
        let expect = reference_conv(shape, &input, &weights);
        let (p, q) = (shape.p(), shape.q());
        for ni in 0..shape.n {
            for ko in 0..shape.k {
                for ph in 0..p {
                    for pw in 0..q {
                        let got = out.get(ni, ko, ph, pw);
                        let want = expect[((ni * shape.k + ko) * p + ph) * q + pw];
                        assert!(
                            (got - want).abs() < 1e-3,
                            "spec {spec_str}: ({ni},{ko},{ph},{pw}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn forward_matches_reference_padded_3x3() {
        let shape = small_shape();
        run_forward(&shape, ConvTuning::default_for(&shape), 42);
    }

    #[test]
    fn forward_various_specs_and_steps() {
        let shape = small_shape();
        // Split reduction: c_step=1 (2 feature blocks), r/s stepped singly.
        run_forward(
            &shape,
            ConvTuning {
                spec: "Abcdefg".into(),
                c_step: 1,
                w_step: 3,
                r_step: 1,
                s_step: 3,
                h_blocks: vec![],
                k_blocks: vec![],
            },
            7,
        );
        run_forward(
            &shape,
            ConvTuning {
                spec: "bfgACDe".into(),
                c_step: 2,
                w_step: 2,
                r_step: 3,
                s_step: 1,
                h_blocks: vec![],
                k_blocks: vec![],
            },
            8,
        );
    }

    #[test]
    fn specs_that_reduce_over_the_team_are_rejected() {
        // n1 c64 k8 8x8 3x3, bc = 4: a parallel Cb loop (`B`) made 2-thread
        // runs write wrong outputs nearly every time.
        let shape = ConvShape {
            n: 1,
            c: 64,
            k: 8,
            h: 8,
            w: 8,
            r: 3,
            s: 3,
            stride: 1,
            pad: 1,
            bc: 4,
            bk: 4,
        };
        let build = |spec: &str| {
            let tuning =
                ConvTuning { spec: spec.into(), c_step: 1, ..ConvTuning::default_for(&shape) };
            ConvForward::<f32>::new(shape, tuning)
        };
        for racy in [
            "aBcdefg",
            "abcdeFg",
            "abcdefG",
            "bACDefg @ schedule(dynamic,1)",
            "fgACDbe @ schedule(dynamic,2)",
        ] {
            assert!(matches!(build(racy), Err(KernelError::RacySpec(_))), "{racy}");
        }
        for owned in ["ACDbefg", "Abcdefg", "bfgACDe", "ACDbefg @ schedule(dynamic,1)"] {
            assert!(build(owned).is_ok(), "{owned}");
        }
    }

    #[test]
    fn forward_strided_conv() {
        let shape =
            ConvShape { n: 1, c: 4, k: 8, h: 8, w: 8, r: 3, s: 3, stride: 2, pad: 1, bc: 4, bk: 8 };
        run_forward(&shape, ConvTuning::default_for(&shape), 3);
    }

    #[test]
    fn forward_1x1_conv() {
        let shape = ConvShape {
            n: 2,
            c: 8,
            k: 16,
            h: 4,
            w: 4,
            r: 1,
            s: 1,
            stride: 1,
            pad: 0,
            bc: 8,
            bk: 8,
        };
        run_forward(&shape, ConvTuning::default_for(&shape), 9);
    }

    /// The backward tests' shapes: stride 1, and stride 2 with two feature
    /// blocks each way and a padded row and column no output reads.
    fn backward_shapes() -> [ConvShape; 2] {
        [
            ConvShape { n: 1, c: 4, k: 4, h: 4, w: 4, r: 3, s: 3, stride: 1, pad: 1, bc: 4, bk: 4 },
            ConvShape { n: 1, c: 8, k: 8, h: 8, w: 8, r: 3, s: 3, stride: 2, pad: 1, bc: 4, bk: 4 },
        ]
    }

    /// A random upstream gradient over `shape`'s output.
    fn upstream(shape: &ConvShape, seed: u64) -> ActTensor<f32> {
        let (p, q) = (shape.p(), shape.q());
        let mut g = ActTensor::<f32>::new(1, shape.k, p, q, shape.bk, 0).unwrap();
        let mut rng = Xorshift::new(seed);
        for ko in 0..shape.k {
            for ph in 0..p {
                for pw in 0..q {
                    g.set(0, ko, ph, pw, rng.next_f32() - 0.5);
                }
            }
        }
        g
    }

    /// `<g, conv(input, w)>`.
    fn loss(
        shape: &ConvShape,
        input: &ActTensor<f32>,
        w: &ConvWeights<f32>,
        g: &ActTensor<f32>,
    ) -> f32 {
        let (p, q) = (shape.p(), shape.q());
        let r = reference_conv(shape, input, w);
        let mut s = 0.0f32;
        for ko in 0..shape.k {
            for ph in 0..p {
                for pw in 0..q {
                    s += r[(ko * p + ph) * q + pw] * g.get(0, ko, ph, pw);
                }
            }
        }
        s
    }

    #[test]
    fn backward_data_matches_numeric() {
        // d_input of conv(x)  with upstream gradient g equals, elementwise,
        // d/dx <g, conv(x)>; verify a handful of positions numerically.
        let probes: [&[(usize, usize, usize)]; 2] =
            [&[(0, 0, 0), (1, 2, 3), (3, 3, 1)], &[(0, 0, 0), (5, 3, 4), (7, 7, 6)]];
        let pool = ThreadPool::new(2);
        for (shape, probes) in backward_shapes().iter().zip(probes) {
            let (input, weights) = random_inputs(shape, 5);
            let g = upstream(shape, 17);
            let mut din =
                ActTensor::<f32>::new(1, shape.c, shape.h, shape.w, shape.bc, shape.pad).unwrap();
            conv_backward_data(shape, &g, &weights, &mut din, &pool).unwrap();

            let h = 1e-2;
            for &(ci, y, x) in probes {
                let mut ip = input.clone();
                ip.set(0, ci, y, x, input.get(0, ci, y, x) + h);
                let mut im = input.clone();
                im.set(0, ci, y, x, input.get(0, ci, y, x) - h);
                let fd =
                    (loss(shape, &ip, &weights, &g) - loss(shape, &im, &weights, &g)) / (2.0 * h);
                let got = din.get(0, ci, y, x);
                let stride = shape.stride;
                assert!((got - fd).abs() < 1e-2, "stride {stride} ({ci},{y},{x}): {got} vs {fd}");
            }
        }
    }

    #[test]
    fn backward_weights_matches_numeric() {
        let probes: [&[(usize, usize, usize, usize)]; 2] = [
            &[(0, 0, 1, 1), (2, 3, 0, 2), (3, 1, 2, 0)],
            &[(0, 0, 1, 1), (6, 5, 0, 2), (3, 7, 2, 0)],
        ];
        let pool = ThreadPool::new(2);
        for (shape, probes) in backward_shapes().iter().zip(probes) {
            let (input, weights) = random_inputs(shape, 6);
            let g = upstream(shape, 19);
            let mut dw =
                ConvWeights::<f32>::new(shape.c, shape.k, shape.r, shape.s, shape.bc, shape.bk)
                    .unwrap();
            conv_backward_weights(shape, &input, &g, &mut dw, &pool).unwrap();

            let h = 1e-2;
            for &(ci, ko, rr, ss) in probes {
                let mut wp = weights.clone();
                wp.set(ci, ko, rr, ss, weights.get(ci, ko, rr, ss) + h);
                let mut wm = weights.clone();
                wm.set(ci, ko, rr, ss, weights.get(ci, ko, rr, ss) - h);
                let fd = (loss(shape, &input, &wp, &g) - loss(shape, &input, &wm, &g)) / (2.0 * h);
                let got = dw.get(ci, ko, rr, ss);
                let stride = shape.stride;
                assert!(
                    (got - fd).abs() < 1e-2,
                    "stride {stride} ({ci},{ko},{rr},{ss}): {got} vs {fd}"
                );
            }
        }
    }
}
