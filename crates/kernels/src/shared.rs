//! Shared-mutable output views for PARLOOPER bodies.
//!
//! PARLOOPER bodies run concurrently on the team and write *disjoint*
//! output blocks; which blocks are disjoint is determined by the
//! `loop_spec_string`, and — exactly as in the paper (§II-C) — the
//! legality of a parallelization "is responsibility of the user entity",
//! equivalent to writing OpenMP code. [`SharedSlice`] is the narrow unsafe
//! escape hatch that encodes this contract.

/// A length-checked raw view over a mutable slice that can be shared with a
/// thread team.
pub struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the pointer refers to a caller-owned slice that outlives the
// parallel region (the region joins before `execute` returns); concurrent
// disjointness is the documented caller contract of `slice_mut`.
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T> SharedSlice<T> {
    /// Wraps a mutable slice for the duration of a parallel kernel.
    pub fn new(slice: &mut [T]) -> Self {
        SharedSlice { ptr: slice.as_mut_ptr(), len: slice.len() }
    }

    /// Total length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrows the sub-range `off..off + len` immutably.
    ///
    /// # Safety
    /// Callers must guarantee that no thread writes the range while the
    /// borrow is live (writers and readers of a range are separated by a
    /// team barrier or the end of the region).
    ///
    /// # Panics
    /// Panics if the range exceeds the wrapped slice.
    pub unsafe fn slice(&self, off: usize, len: usize) -> &[T] {
        assert!(off + len <= self.len, "SharedSlice range out of bounds");
        // SAFETY: bounds checked above; no concurrent writer is the
        // caller contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), len) }
    }

    /// Reborrows the sub-range `off..off + len` mutably.
    ///
    /// # Safety
    /// Callers must guarantee that concurrently outstanding ranges are
    /// disjoint — i.e. the `loop_spec_string` parallelizes only loops whose
    /// iterations write different blocks (the paper's legality contract).
    ///
    /// # Panics
    /// Panics if the range exceeds the wrapped slice.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [T] {
        assert!(off + len <= self.len, "SharedSlice range out of bounds");
        // SAFETY: bounds checked above; disjointness is the caller contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(off), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_runtime::ThreadPool;

    #[test]
    fn disjoint_parallel_writes() {
        let mut data = vec![0usize; 64];
        let shared = SharedSlice::new(&mut data);
        let pool = ThreadPool::new(4);
        pool.parallel(|ctx| {
            let chunk = 64 / ctx.nthreads();
            // SAFETY: each thread touches its own chunk.
            let view = unsafe { shared.slice_mut(ctx.tid() * chunk, chunk) };
            for (i, v) in view.iter_mut().enumerate() {
                *v = ctx.tid() * 100 + i;
            }
        });
        for tid in 0..4 {
            for i in 0..16 {
                assert_eq!(data[tid * 16 + i], tid * 100 + i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_is_caught() {
        let mut data = vec![0u8; 4];
        let shared = SharedSlice::new(&mut data);
        // SAFETY: intentionally out of bounds to exercise the check.
        let _ = unsafe { shared.slice_mut(2, 4) };
    }
}
