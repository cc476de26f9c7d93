//! Integration tests of the prepared-op API (`pl_dnn::prepared`):
//! plan-vs-free-function bitwise equivalence across all operand
//! orientations, tuning-snapshot install semantics (a plan built before
//! `pl_dnn::tuning::install` re-resolves its kernels and keeps producing
//! identical values), and the column-invariance property batched =
//! unbatched decode rests on.

use pl_autotuner::{blocks_for_spec, Constraints, DbEntry, TuningDb};
use pl_dnn::matmul::{matmul, transpose_cm, Trans};
use pl_dnn::{tuning, MatmulPlan, Precision, SpmmPlan};
use std::sync::Mutex;

/// The tuning registry is process-wide: the tests that install into it
/// take turns.
static REGISTRY: Mutex<()> = Mutex::new(());
use pl_kernels::gemm::reference_gemm;
use pl_kernels::GemmShape;
use pl_runtime::ThreadPool;
use pl_tensor::{fill_uniform, BcscMatrix, Xorshift};

fn random(len: usize, seed: u64) -> Vec<f32> {
    let mut v = vec![0.0f32; len];
    fill_uniform(&mut v, &mut Xorshift::new(seed), -0.5, 0.5);
    v
}

#[test]
fn plan_is_bitwise_equal_to_free_matmul_for_all_orientations() {
    // The prepared plan packs the weight once and reuses a cached kernel;
    // the free function re-packs per call. Both must produce *bitwise*
    // identical outputs for every Trans combination — the plan migration
    // cannot move a single ulp.
    let pool = ThreadPool::new(4);
    let (m, n, k) = (48, 12, 36);
    let a = random(m * k, 1);
    let b = random(k * n, 2);
    let at = transpose_cm(&a, m, k); // (k x m) storing A^T
    let bt = transpose_cm(&b, k, n); // (n x k) storing B^T
    let want = reference_gemm(&a, &b, m, n, k);

    for (ta, a_buf) in [(Trans::No, &a), (Trans::Yes, &at)] {
        for (tb, b_buf) in [(Trans::No, &b), (Trans::Yes, &bt)] {
            let free = matmul(a_buf, ta, b_buf, tb, m, n, k, &pool);
            let plan = MatmulPlan::new(a_buf, ta, m, k);
            let act: Vec<f32> = match tb {
                Trans::No => b_buf.clone(),
                Trans::Yes => transpose_cm(b_buf, n, k),
            };
            let first = plan.execute(&act, n, &pool);
            let second = plan.execute(&act, n, &pool); // cached kernel
            assert_eq!(free, first, "plan != free function ({ta:?}, {tb:?})");
            assert_eq!(first, second, "cached-kernel re-execution drifted ({ta:?}, {tb:?})");
            for i in 0..m * n {
                assert!((first[i] - want[i]).abs() < 1e-3, "({ta:?}, {tb:?}) idx {i}");
            }
        }
    }
}

#[test]
fn every_output_column_is_independent_of_width_and_spec() {
    // THE invariant of the single decode path: column `j` of
    // `execute(n)` equals `execute(1)` on that column, bit for bit — for
    // f32 and int8 plans, at widths that block evenly (4, 8), raggedly
    // (2, 3, 5, 17, 19: a prime width is four full column blocks and a
    // tail) and not at all (1), under **every** loop spec the autotuner
    // can generate for the shape (K-blocked, reordered, M- or N-parallel,
    // sequential), not just `default_parallel`. Width 1 runs the default
    // spec (`k_step = kb`), the wide side the installed candidate
    // (`k_step = 1`), so the reduction's chunking differs too. A future
    // K-parallel spec or a SIMD k-split that reassociates the reduction
    // trips this test, which is where batched != unbatched would start.
    let _registry = REGISTRY.lock().unwrap();
    const WIDTHS: [usize; 8] = [1, 2, 3, 4, 5, 8, 17, 19];
    const DIMS: [usize; 8] = [8, 12, 16, 24, 32, 40, 48, 96];
    let platform = "ColumnInvariance";
    let specs = pl_autotuner::generate(3, &Constraints::gemm(1, 1, 1, 80));
    let pool3 = ThreadPool::new(3);
    let mut rng = Xorshift::new(0xC01);
    let mut checked = 0usize;
    for draw in 0..3u64 {
        let mut pick = || DIMS[(rng.next_f32() * DIMS.len() as f32) as usize % DIMS.len()];
        let (m, k) = (pick(), pick());
        let w = random(m * k, 100 + draw);
        let x = random(k * 19, 200 + draw);
        for precision in [Precision::F32, Precision::Int8] {
            let plan = MatmulPlan::with_precision(&w, Trans::No, m, k, precision);
            tuning::clear();
            let alone: Vec<Vec<f32>> =
                x.chunks_exact(k).map(|col| plan.execute(col, 1, &pool3)).collect();
            for n in WIDTHS {
                let problem = plan.problem(n);
                for spec in &specs {
                    if blocks_for_spec(&problem, spec).is_none() {
                        continue; // infeasible at this shape: never installable
                    }
                    let mut db = TuningDb::new();
                    let dtype = problem.dtype.to_string();
                    db.put(
                        &TuningDb::gemm_key(platform, m, n, k, &dtype),
                        DbEntry { spec: spec.clone(), score: 1.0 },
                    );
                    tuning::install(platform, db);
                    let got = plan.execute(&x[..k * n], n, &pool3);
                    for (j, col) in got.chunks_exact(m).enumerate() {
                        assert_eq!(
                            col, alone[j],
                            "{precision:?} {m}x{n}x{k} spec {spec}: column {j} depends on the batch"
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    tuning::clear();
    assert!(checked > 500, "only {checked} (shape, width, spec) cases ran");
}

// One test exercises the whole install -> execute -> clear lifecycle (for
// both the GEMM and SpMM plans) so registry mutation never races a
// concurrently running sibling test.
#[test]
fn plan_built_before_snapshot_install_still_executes_correctly() {
    let _registry = REGISTRY.lock().unwrap();
    // Registry re-resolution semantics: a plan caches kernels tagged with
    // the tuning epoch; installing a snapshot afterwards makes the next
    // execution re-resolve against it. Values must be bitwise unchanged —
    // specs only move work between threads, never reassociate the
    // reduction.
    let pool = ThreadPool::new(4);
    let (m, n, k) = (64, 8, 64);
    let w = random(m * k, 3);
    let x = random(k * n, 4);
    let want = reference_gemm(&w, &x, m, n, k);

    tuning::clear();
    let plan = MatmulPlan::new(&w, Trans::No, m, k);
    plan.warm(n); // kernel resolved under the *pre-install* epoch
    let before = plan.execute(&x, n, &pool);

    // Install a snapshot that covers this exact shape with a different
    // (but legal) spec, plus a corrupt entry for a sibling shape the plan
    // must degrade on rather than panic.
    let mut db = TuningDb::new();
    let platform = "PreparedTest";
    db.put(
        &TuningDb::gemm_key(platform, m, n, k, "f32"),
        DbEntry { spec: "aBC".into(), score: 9.0 },
    );
    db.put(
        &TuningDb::gemm_key(platform, m, 2 * n, k, "f32"),
        DbEntry { spec: "azbc".into(), score: 1.0 },
    );
    let epoch_before = tuning::epoch();
    tuning::install(platform, db);
    assert!(tuning::epoch() > epoch_before);

    // The pre-built plan picks the snapshot up on its next execution.
    let shape = GemmShape::with_default_blocks(m, n, k);
    assert_eq!(
        tuning::lookup_gemm(&shape, pl_tensor::DType::F32).expect("warmed shape resolves").spec,
        "aBC"
    );
    let after = plan.execute(&x, n, &pool);
    assert_eq!(before, after, "snapshot install changed values");
    for i in 0..m * n {
        assert!((after[i] - want[i]).abs() < 1e-3, "idx {i}");
    }

    // The corrupt entry degrades to the built-in spec, not a panic.
    let x2 = random(k * 2 * n, 5);
    let corrupt = plan.execute(&x2, 2 * n, &pool);
    let want2 = reference_gemm(&w, &x2, m, 2 * n, k);
    for i in 0..m * 2 * n {
        assert!((corrupt[i] - want2[i]).abs() < 1e-3, "idx {i}");
    }

    // Clearing the registry re-resolves again; still bitwise stable.
    tuning::clear();
    assert_eq!(plan.execute(&x, n, &pool), before);

    // --- The SpMM plan side of the same lifecycle. ----------------------
    let (m, k, tokens) = (32, 32, 8);
    let mut rng = Xorshift::new(6);
    let a = BcscMatrix::<f32>::random(m, k, 8, 8, 0.6, &mut rng).unwrap();
    let x = random(k * tokens, 7);

    let free = pl_dnn::sparse_bert::spmm_matmul(&a, &x, tokens, &pool);
    let plan = SpmmPlan::new(a);
    let got = plan.execute(&x, tokens, &pool);
    assert_eq!(free, got, "SpmmPlan != pack-per-call bridge");

    // The plan-reported problem warms a key that lookup_spmm then hits.
    let problem = plan.problem(tokens);
    let mut db = TuningDb::new();
    let platform = pl_perfmodel::Platform::zen4();
    let constraints = pl_autotuner::Constraints::gemm(0, 1, 1, 100);
    let added = pl_autotuner::warm_spmm_db(&mut db, &[problem], &constraints, &platform, 4);
    assert_eq!(added, 1);
    tuning::install(platform.name, db);
    let shape = GemmShape {
        m: problem.m,
        n: problem.n,
        k: problem.k,
        bm: problem.bm,
        bn: problem.bn,
        bk: problem.bk,
    };
    assert!(tuning::lookup_spmm(&shape).is_some(), "warmed spmm key must hit");
    // Executing through the tuned spec is value-identical.
    assert_eq!(plan.execute(&x, tokens, &pool), got);
    tuning::clear();
}
