//! Multi-level LRU cache simulation at tensor-slice granularity
//! (paper §II-E).
//!
//! "These traces are compact since they register accesses of full tensor
//! slices instead of individual cache-lines" — a cache level is a set of
//! slice ids with byte-accounted capacity and LRU replacement.

use std::collections::HashMap;

/// Identifies one tensor slice: `(tensor id, slice index)`.
pub type SliceId = (u8, u64);

/// Where an access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Cache level `i` (0 = L1).
    Cache(usize),
    /// Main memory.
    Memory,
}

/// One LRU set of slices with a byte capacity.
#[derive(Debug)]
struct SliceLru {
    capacity: usize,
    used: usize,
    /// slice -> (bytes, last-use stamp)
    entries: HashMap<SliceId, (usize, u64)>,
    clock: u64,
}

impl SliceLru {
    fn new(capacity: usize) -> Self {
        SliceLru { capacity, used: 0, entries: HashMap::new(), clock: 0 }
    }

    fn contains(&self, id: SliceId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Inserts/touches a slice, evicting LRU slices to fit. Slices larger
    /// than the capacity simply stream through (never resident).
    fn insert(&mut self, id: SliceId, bytes: usize) {
        self.clock += 1;
        if bytes > self.capacity {
            if let Some((b, _)) = self.entries.remove(&id) {
                self.used -= b;
            }
            return;
        }
        if let Some(e) = self.entries.get_mut(&id) {
            // Size change (shouldn't happen in practice) handled anyway.
            self.used = self.used - e.0 + bytes;
            *e = (bytes, self.clock);
            return;
        }
        while self.used + bytes > self.capacity && !self.entries.is_empty() {
            // Evict the least recently used slice.
            let victim = *self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
                .expect("non-empty");
            let (b, _) = self.entries.remove(&victim).expect("present");
            self.used -= b;
        }
        self.entries.insert(id, (bytes, self.clock));
        self.used += bytes;
    }
}

/// A per-thread cache hierarchy (up to 3 levels, inclusive).
#[derive(Debug)]
pub struct CacheHierarchy {
    levels: Vec<SliceLru>,
}

impl CacheHierarchy {
    /// Builds from per-level capacities in bytes (L1 first).
    pub fn new(capacities: &[usize]) -> Self {
        CacheHierarchy { levels: capacities.iter().map(|&c| SliceLru::new(c)).collect() }
    }

    /// Simulates one access; returns where the slice was found *before*
    /// the access, then makes it most-recently-used in every level.
    pub fn access(&mut self, id: SliceId, bytes: usize) -> HitLevel {
        let mut hit = HitLevel::Memory;
        for (i, lvl) in self.levels.iter().enumerate() {
            if lvl.contains(id) {
                hit = HitLevel::Cache(i);
                break;
            }
        }
        for lvl in self.levels.iter_mut() {
            lvl.insert(id, bytes);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_second_hits_l1() {
        let mut c = CacheHierarchy::new(&[1024, 4096, 16384]);
        assert_eq!(c.access((0, 1), 256), HitLevel::Memory);
        assert_eq!(c.access((0, 1), 256), HitLevel::Cache(0));
    }

    #[test]
    fn capacity_eviction_falls_back_to_l2() {
        let mut c = CacheHierarchy::new(&[512, 4096]);
        // Two 256B slices fill L1; the third evicts the LRU (slice 1).
        c.access((0, 1), 256);
        c.access((0, 2), 256);
        c.access((0, 3), 256);
        assert_eq!(c.access((0, 1), 256), HitLevel::Cache(1)); // still in L2
    }

    #[test]
    fn lru_order_respects_touches() {
        let mut c = CacheHierarchy::new(&[512]);
        c.access((0, 1), 256);
        c.access((0, 2), 256);
        c.access((0, 1), 256); // touch 1 -> 2 becomes LRU
        c.access((0, 3), 256); // evicts 2
        assert_eq!(c.access((0, 1), 256), HitLevel::Cache(0));
        // Re-access of 1 above evicted... verify 2 is gone by checking it
        // misses everywhere (single level).
        let mut c2 = CacheHierarchy::new(&[512]);
        c2.access((0, 1), 256);
        c2.access((0, 2), 256);
        c2.access((0, 1), 256);
        c2.access((0, 3), 256);
        assert_eq!(c2.access((0, 2), 256), HitLevel::Memory);
    }

    #[test]
    fn oversized_slices_stream_through() {
        let mut c = CacheHierarchy::new(&[512, 1024]);
        assert_eq!(c.access((0, 9), 4096), HitLevel::Memory);
        assert_eq!(c.access((0, 9), 4096), HitLevel::Memory);
        // Small slices still cache normally afterwards.
        c.access((0, 1), 128);
        assert_eq!(c.access((0, 1), 128), HitLevel::Cache(0));
    }

    #[test]
    fn distinct_tensors_do_not_collide() {
        let mut c = CacheHierarchy::new(&[1024]);
        c.access((0, 7), 256);
        assert_eq!(c.access((1, 7), 256), HitLevel::Memory);
    }
}
