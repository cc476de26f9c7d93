//! Plan cache — "PARLOOPER uses internally caching schemes to avoid JIT
//! overheads whenever possible" (paper §I): requesting a loop nest with the
//! same `loop_spec_string` (and the same loop declarations) returns the
//! already-compiled plan.

use crate::plan::LoopPlan;
use crate::spec::{parse, LoopSpecs, SpecError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Cache hit/miss statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Plans served from the cache.
    pub hits: u64,
    /// Plans compiled.
    pub misses: u64,
    /// Live plans.
    pub entries: usize,
}

#[derive(PartialEq, Eq, Hash, Clone)]
struct Key {
    spec_string: String,
    specs: Vec<LoopSpecs>,
}

struct PlanCache {
    map: RwLock<HashMap<Key, Arc<LoopPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn cache() -> &'static PlanCache {
    static CACHE: OnceLock<PlanCache> = OnceLock::new();
    CACHE.get_or_init(|| PlanCache {
        map: RwLock::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Parses + builds (or fetches) the plan for a spec string.
pub fn get_or_build(specs: &[LoopSpecs], spec_string: &str) -> Result<Arc<LoopPlan>, SpecError> {
    let c = cache();
    let key = Key { spec_string: spec_string.to_string(), specs: specs.to_vec() };
    if let Some(hit) = c.map.read().expect("plan cache poisoned").get(&key) {
        c.hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(hit));
    }
    let parsed = parse(spec_string, specs.len())?;
    let plan = Arc::new(LoopPlan::build(&parsed, specs, spec_string)?);
    let mut map = c.map.write().expect("plan cache poisoned");
    let entry = map.entry(key).or_insert_with(|| Arc::clone(&plan));
    c.misses.fetch_add(1, Ordering::Relaxed);
    Ok(Arc::clone(entry))
}

/// Snapshot of the plan-cache statistics.
pub fn stats() -> PlanCacheStats {
    let c = cache();
    PlanCacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        entries: c.map.read().expect("plan cache poisoned").len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_specs() -> Vec<LoopSpecs> {
        vec![LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2), LoopSpecs::new(0, 8, 2)]
    }

    #[test]
    fn identical_requests_share_a_plan() {
        let s = gemm_specs();
        let p1 = get_or_build(&s, "abc").unwrap();
        let p2 = get_or_build(&s, "abc").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn different_specs_or_strings_get_new_plans() {
        let s = gemm_specs();
        let p1 = get_or_build(&s, "abc").unwrap();
        let p2 = get_or_build(&s, "acb").unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        let mut s2 = gemm_specs();
        s2[0].end = 16;
        let p3 = get_or_build(&s2, "abc").unwrap();
        assert!(!Arc::ptr_eq(&p1, &p3));
    }

    #[test]
    fn stats_move() {
        let before = stats();
        let s = vec![LoopSpecs::new(0, 4, 1)];
        let _ = get_or_build(&s, "a").unwrap();
        let _ = get_or_build(&s, "a").unwrap();
        let after = stats();
        assert!(after.hits > before.hits || after.misses > before.misses);
    }

    #[test]
    fn errors_are_not_cached() {
        let s = gemm_specs();
        assert!(get_or_build(&s, "abz").is_err());
        assert!(get_or_build(&s, "abz").is_err());
    }
}
