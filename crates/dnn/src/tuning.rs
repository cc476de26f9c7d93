//! Consumption of the offline [`TuningDb`] by the kernel-selection layer
//! (closing the loop of paper Fig. 1: box B3's database feeds box B1's
//! execution).
//!
//! A process-wide **registry** holds one immutable snapshot of a warmed
//! tuning database plus the platform it was tuned for. [`crate::matmul`]
//! and the Block-SpMM bridge consult it on every kernel build: a hit
//! yields the search winner's `loop_spec_string` (with the per-loop
//! blocking ladders re-derived exactly as the search derived them), a
//! miss falls back to the built-in `default_parallel` spec. Installing a
//! registry is therefore purely a performance decision — *values are
//! unchanged*, because every legal spec produces each output block on
//! exactly one thread with the same ascending-K reduction order (the
//! determinism contract `pl-serve` relies on).
//!
//! The registry is global (not threaded through every layer's signature)
//! for the same reason BLAS thread counts are: kernel selection is a
//! process-level deployment decision, while the DL layer APIs stay
//! shape-only. A serving runtime installs its warmed DB at startup
//! (`pl_serve::Server::warm_tuning`); everything that runs afterwards —
//! batched or not — picks the tuned specs up automatically.

use pl_autotuner::{blocks_for_spec, GemmProblem, TuningDb};
use pl_kernels::{GemmShape, GemmTuning, SpmmTuning};
use pl_tensor::DType;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

struct Registry {
    platform: String,
    db: TuningDb,
}

static REGISTRY: RwLock<Option<Registry>> = RwLock::new(None);

/// Monotonic registry generation, bumped by every [`install`]/[`clear`].
/// Prepared plans ([`crate::prepared`]) tag cached kernels with the epoch
/// they resolved their spec under and re-resolve when it moves — so a plan
/// built *before* a snapshot install executes the tuned specs right after
/// it (numeric results are unchanged either way; see the module docs).
static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Current registry generation (see `EPOCH`'s invariants above).
pub fn epoch() -> u64 {
    EPOCH.load(Ordering::Acquire)
}

/// Installs `db` (a snapshot) as the process-wide tuning source for
/// `platform`. Replaces any previously installed registry and advances the
/// registry [`epoch`] so prepared plans re-resolve their cached kernels.
pub fn install(platform: &str, db: TuningDb) {
    *REGISTRY.write().unwrap() = Some(Registry { platform: platform.to_string(), db });
    EPOCH.fetch_add(1, Ordering::AcqRel);
}

/// Removes the installed registry; kernel selection reverts to the
/// built-in `default_parallel` specs (and the [`epoch`] advances).
pub fn clear() {
    *REGISTRY.write().unwrap() = None;
    EPOCH.fetch_add(1, Ordering::AcqRel);
}

/// Whether a registry is installed.
pub fn is_installed() -> bool {
    REGISTRY.read().unwrap().is_some()
}

/// The tuning the GEMM bridge should use for `shape` at `dtype`: the DB
/// winner when the installed registry has the shape, else
/// [`GemmTuning::default_parallel`]. Keys are dtype-scoped
/// ([`TuningDb::gemm_key`]), so an f32 winner never leaks onto the int8
/// kernel (whose cost profile differs) and vice versa.
pub fn gemm_tuning_for(shape: &GemmShape, dtype: DType) -> GemmTuning {
    lookup_gemm(shape, dtype).unwrap_or_else(|| GemmTuning::default_parallel(shape.kb()))
}

/// DB lookup only (no fallback): `Some(tuning)` when the installed
/// registry has a feasible entry for `shape`.
///
/// An exact `(m, n, k)` miss retries with `n` rounded up to the next
/// power of two: warmers cover N widths on a power-of-two ladder (prompt
/// lengths are arbitrary), and a spec is a *structural* choice — the
/// blocking ladders are re-derived below for the actual shape, and an
/// entry infeasible at this width degrades to `None` (then to the
/// caller's `default_parallel` fallback).
pub fn lookup_gemm(shape: &GemmShape, dtype: DType) -> Option<GemmTuning> {
    let guard = REGISTRY.read().unwrap();
    let reg = guard.as_ref()?;
    let dtype_key = dtype.to_string();
    let entry = [shape.n, shape.n.next_power_of_two()].iter().find_map(|&n| {
        reg.db.get(&TuningDb::gemm_key(&reg.platform, shape.m, n, shape.k, &dtype_key))
    });
    let spec = entry?.spec.clone();
    // Re-derive the blocking ladders the searcher paired with this spec.
    let problem = GemmProblem {
        m: shape.m,
        n: shape.n,
        k: shape.k,
        bm: shape.bm,
        bn: shape.bn,
        bk: shape.bk,
        dtype,
    };
    let [a_blocks, b_blocks, c_blocks] = blocks_for_spec(&problem, &spec)?;
    Some(GemmTuning { spec, k_step: 1, a_blocks, b_blocks, c_blocks })
}

/// The tuning the Block-SpMM bridge should use, with the same
/// lookup-or-`default_parallel` contract as [`gemm_tuning_for`].
pub fn spmm_tuning_for(shape: &GemmShape) -> SpmmTuning {
    lookup_spmm(shape).unwrap_or_else(|| SpmmTuning::default_parallel(shape.kb()))
}

/// DB lookup only (no fallback) for a Block-SpMM problem. The kernel's K
/// loop supports no extra blocking, so specs with more than one `a`
/// occurrence are infeasible and fall through to `None`.
pub fn lookup_spmm(shape: &GemmShape) -> Option<SpmmTuning> {
    let guard = REGISTRY.read().unwrap();
    let reg = guard.as_ref()?;
    let key = TuningDb::spmm_key(&reg.platform, shape.m, shape.n, shape.k, &DType::F32.to_string());
    let spec = reg.db.get(&key)?.spec.clone();
    if spec.chars().filter(|c| c.eq_ignore_ascii_case(&'a')).count() != 1 {
        return None;
    }
    let problem = GemmProblem {
        m: shape.m,
        n: shape.n,
        k: shape.k,
        bm: shape.bm,
        bn: shape.bn,
        bk: shape.bk,
        dtype: DType::F32,
    };
    let [_, b_blocks, c_blocks] = blocks_for_spec(&problem, &spec)?;
    Some(SpmmTuning { spec, k_step: 1, b_blocks, c_blocks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_autotuner::DbEntry;

    // One test exercises the whole install -> lookup -> clear lifecycle so
    // registry mutation never races a concurrently running sibling test.
    #[test]
    fn registry_lifecycle_and_lookups() {
        clear();
        let epoch0 = epoch();
        let shape = GemmShape::with_default_blocks(64, 8, 64);
        assert!(lookup_gemm(&shape, DType::F32).is_none(), "no registry -> no hit");
        assert_eq!(gemm_tuning_for(&shape, DType::F32), GemmTuning::default_parallel(shape.kb()));

        let mut db = TuningDb::new();
        db.put(
            &TuningDb::gemm_key("TestPlat", 64, 8, 64, "f32"),
            DbEntry { spec: "aBC".into(), score: 10.0 },
        );
        db.put(
            &TuningDb::spmm_key("TestPlat", 64, 8, 64, "f32"),
            DbEntry { spec: "Bca".into(), score: 5.0 },
        );
        // Infeasible spmm spec: K loop blocked twice.
        db.put(
            &TuningDb::spmm_key("TestPlat", 32, 8, 32, "f32"),
            DbEntry { spec: "aaBc".into(), score: 5.0 },
        );
        // Corrupted spec (stray letter): passes the occurrence check but
        // the loop layer rejects it — matmul must degrade, not panic.
        db.put(
            &TuningDb::gemm_key("TestPlat", 48, 8, 48, "f32"),
            DbEntry { spec: "azbc".into(), score: 1.0 },
        );
        install("TestPlat", db);
        assert!(is_installed());
        assert!(epoch() > epoch0, "install advances the registry epoch");

        let t = lookup_gemm(&shape, DType::F32).expect("warmed shape resolves");
        assert_eq!(t.spec, "aBC");
        assert_eq!(t.k_step, 1);
        assert_eq!(gemm_tuning_for(&shape, DType::F32).spec, "aBC");
        // Same shape at i8 has no entry: precision-scoped keys miss.
        assert!(lookup_gemm(&shape, DType::I8).is_none(), "f32 winner must not leak to i8");
        // Unknown shape still falls back.
        let other = GemmShape::with_default_blocks(96, 8, 96);
        assert_eq!(gemm_tuning_for(&other, DType::F32), GemmTuning::default_parallel(other.kb()));
        // A ragged width (n = 6) rounds up to the warmed power of two
        // (n = 8) and reuses its spec, with blocks re-derived for n = 6.
        let ragged = GemmShape::with_default_blocks(64, 6, 64);
        assert_eq!(lookup_gemm(&ragged, DType::F32).expect("rounds up to n=8").spec, "aBC");
        // But only one rung up: n = 9 probes 16, which is not warmed.
        let wide = GemmShape::with_default_blocks(64, 9, 64);
        assert!(lookup_gemm(&wide, DType::F32).is_none());
        // The corrupted 48x8x48 entry resolves at lookup time (occurrence
        // counts are fine) but must not panic the matmul bridge — it
        // degrades to the built-in spec and still computes correctly.
        {
            let pool = pl_runtime::ThreadPool::new(2);
            let a = vec![0.25f32; 48 * 48];
            let b = vec![0.5f32; 48 * 8];
            let got = crate::matmul::matmul(
                &a,
                crate::matmul::Trans::No,
                &b,
                crate::matmul::Trans::No,
                48,
                8,
                48,
                &pool,
            );
            let want = pl_kernels::gemm::reference_gemm(&a, &b, 48, 8, 48);
            for i in 0..got.len() {
                assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
            }
        }

        // The matmul bridge actually executes through the tuned spec — and
        // produces the same values as the reference (specs never change
        // the per-element reduction order).
        {
            let pool = pl_runtime::ThreadPool::new(2);
            let mut rng = pl_tensor::Xorshift::new(5);
            let mut a = vec![0.0f32; 64 * 64];
            let mut b = vec![0.0f32; 64 * 8];
            pl_tensor::fill_uniform(&mut a, &mut rng, -0.5, 0.5);
            pl_tensor::fill_uniform(&mut b, &mut rng, -0.5, 0.5);
            let got = crate::matmul::matmul(
                &a,
                crate::matmul::Trans::No,
                &b,
                crate::matmul::Trans::No,
                64,
                8,
                64,
                &pool,
            );
            let want = pl_kernels::gemm::reference_gemm(&a, &b, 64, 8, 64);
            for i in 0..got.len() {
                assert!((got[i] - want[i]).abs() < 1e-3, "idx {i}");
            }
        }

        let s = lookup_spmm(&shape).expect("warmed spmm shape resolves");
        assert_eq!(s.spec, "Bca");
        let small = GemmShape::with_default_blocks(32, 8, 32);
        assert!(lookup_spmm(&small).is_none(), "multi-`a` spec is infeasible for SpmmTuning");
        assert_eq!(spmm_tuning_for(&small), SpmmTuning::default_parallel(small.kb()));

        clear();
        assert!(!is_installed());
        assert!(lookup_gemm(&shape, DType::F32).is_none());
    }
}
