//! Kernel handle cache — the stand-in for libxsmm's JIT code cache.
//!
//! libxsmm generates machine code per kernel descriptor and memoizes it so
//! repeated requests return the cached code pointer. Our "code generation"
//! is the selection of a monomorphized microkernel in place of emitted
//! machine code, and
//! this module memoizes the resulting handles with the same observable
//! behaviour: one construction per distinct descriptor, cheap lookups after,
//! and introspectable hit/miss statistics (used by tests and by the JIT
//! overhead discussion of paper §II-B).

use parking_lot::RwLock;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Global cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that constructed a new kernel.
    pub misses: u64,
    /// Live entries.
    pub entries: usize,
}

struct CacheInner {
    map: RwLock<HashMap<u64, Arc<dyn Any + Send + Sync>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn cache() -> &'static CacheInner {
    static CACHE: OnceLock<CacheInner> = OnceLock::new();
    CACHE.get_or_init(|| CacheInner {
        map: RwLock::new(HashMap::new()),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
    })
}

/// Returns the cached kernel for `key`, constructing it with `make` on the
/// first request. `key` must already encode the element types (see
/// [`hash_key`]).
pub fn get_or_jit<K: Send + Sync + 'static>(key: u64, make: impl FnOnce() -> K) -> Arc<K> {
    let c = cache();
    if let Some(hit) = c.map.read().get(&key) {
        if let Ok(typed) = Arc::clone(hit).downcast::<K>() {
            c.hits.fetch_add(1, Ordering::Relaxed);
            return typed;
        }
    }
    let mut map = c.map.write();
    // Double-checked: another thread may have inserted meanwhile.
    if let Some(hit) = map.get(&key) {
        if let Ok(typed) = Arc::clone(hit).downcast::<K>() {
            c.hits.fetch_add(1, Ordering::Relaxed);
            return typed;
        }
    }
    c.misses.fetch_add(1, Ordering::Relaxed);
    let v = Arc::new(make());
    map.insert(key, Arc::clone(&v) as Arc<dyn Any + Send + Sync>);
    v
}

/// FNV-1a over descriptor bytes + a type tag; collisions across distinct
/// descriptors would only cost a redundant compile, never wrong code,
/// because the full descriptor is stored inside the handle and re-verified
/// by `Brgemm::new`.
pub fn hash_key(type_tag: u64, words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ type_tag.wrapping_mul(0x100000001b3);
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Snapshot of the global cache statistics.
pub fn stats() -> CacheStats {
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        entries: c.map.read().len(),
    }
}

/// Drops every cached kernel (tests only; running kernels keep their Arcs).
pub fn clear() {
    cache().map.write().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct FakeKernel(u32);

    #[test]
    fn second_lookup_hits() {
        let key = hash_key(998877, &[1, 2, 3]);
        let before = stats();
        let a = get_or_jit(key, || FakeKernel(7));
        let b = get_or_jit(key, || FakeKernel(99));
        assert_eq!(*a, FakeKernel(7));
        assert_eq!(*b, FakeKernel(7)); // second make() never ran
        assert!(Arc::ptr_eq(&a, &b));
        let after = stats();
        assert!(after.hits > before.hits);
        assert!(after.misses > before.misses);
    }

    #[test]
    fn distinct_keys_get_distinct_kernels() {
        let k1 = hash_key(5544, &[10]);
        let k2 = hash_key(5544, &[11]);
        let a = get_or_jit(k1, || FakeKernel(1));
        let b = get_or_jit(k2, || FakeKernel(2));
        assert_ne!(*a, *b);
    }

    #[test]
    fn concurrent_construction_is_single() {
        use std::sync::atomic::AtomicUsize;
        static MAKES: AtomicUsize = AtomicUsize::new(0);
        let key = hash_key(31337, &[42, 42]);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _ = get_or_jit(key, || {
                        MAKES.fetch_add(1, Ordering::SeqCst);
                        FakeKernel(0)
                    });
                });
            }
        });
        assert_eq!(MAKES.load(Ordering::SeqCst), 1);
    }
}
