//! Cache-line aligned storage.
//!
//! DL kernels are sensitive to the alignment of tensor rows (vector loads,
//! split cache lines, false sharing of adjacent output tiles). All tensor
//! types in this crate store their elements in an [`AlignedVec`], which
//! guarantees 64-byte alignment — one x86/ARM cache line.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment for all tensor allocations (one cache line).
pub const TENSOR_ALIGN: usize = 64;

/// A fixed-length, 64-byte aligned, zero-initialized array of `T`.
///
/// Unlike `Vec<T>`, the length is fixed at construction: tensors never grow,
/// and a fixed length lets kernels rely on stable pointers.
pub struct AlignedVec<T> {
    ptr: NonNull<T>,
    len: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively; `T: Send/Sync` bounds
// make sharing references or moving the buffer across threads sound.
unsafe impl<T: Send> Send for AlignedVec<T> {}
unsafe impl<T: Sync> Sync for AlignedVec<T> {}

impl<T: Copy + Default> AlignedVec<T> {
    /// Allocates `len` zero-initialized elements aligned to 64 bytes.
    ///
    /// # Panics
    /// Panics on allocation failure or if `len * size_of::<T>()` overflows.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedVec { ptr: NonNull::dangling(), len: 0 };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw as *mut T) else {
            handle_alloc_error(layout);
        };
        AlignedVec { ptr, len }
    }

    /// Allocates and fills from a slice.
    fn from_slice(src: &[T]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    /// Allocates `len` elements, each produced by `f(i)`.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        let mut v = Self::zeroed(len);
        for (i, e) in v.as_mut_slice().iter_mut().enumerate() {
            *e = f(i);
        }
        v
    }

    fn layout(len: usize) -> Layout {
        let bytes = len.checked_mul(std::mem::size_of::<T>()).expect("AlignedVec: size overflow");
        Layout::from_size_align(bytes, TENSOR_ALIGN.max(std::mem::align_of::<T>()))
            .expect("AlignedVec: invalid layout")
    }
}

impl<T> AlignedVec<T> {
    /// Number of elements.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable view of the whole buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: ptr is valid for len elements for the lifetime of self.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the whole buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: exclusive borrow of self gives exclusive access to the data.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Raw const pointer to the first element.
    #[inline(always)]
    pub fn as_ptr(&self) -> *const T {
        self.ptr.as_ptr()
    }

    /// Raw mutable pointer to the first element.
    #[inline(always)]
    pub fn as_mut_ptr(&mut self) -> *mut T {
        self.ptr.as_ptr()
    }
}

impl<T> Drop for AlignedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        let bytes = self.len * std::mem::size_of::<T>();
        let layout =
            Layout::from_size_align(bytes, TENSOR_ALIGN.max(std::mem::align_of::<T>())).unwrap();
        // SAFETY: allocated with the identical layout in `zeroed`.
        unsafe { dealloc(self.ptr.as_ptr() as *mut u8, layout) }
    }
}

impl<T: Copy + Default> Clone for AlignedVec<T> {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl<T> Deref for AlignedVec<T> {
    type Target = [T];

    #[inline(always)]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> DerefMut for AlignedVec<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AlignedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedVec(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        let v = AlignedVec::<f32>::zeroed(1000);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.as_ptr() as usize % TENSOR_ALIGN, 0);
    }

    #[test]
    fn empty_buffer_is_fine() {
        let v = AlignedVec::<f32>::zeroed(0);
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f32]);
        let _c = v.clone();
    }

    #[test]
    fn from_fn_and_clone_preserve_contents() {
        let v = AlignedVec::from_fn(64, |i| i as u16);
        let c = v.clone();
        assert_eq!(v.as_slice(), c.as_slice());
        assert_eq!(c[63], 63);
    }

    #[test]
    fn mutation_through_deref() {
        let mut v = AlignedVec::<f32>::zeroed(8);
        v[3] = 7.0;
        v.as_mut_slice()[4] = 9.0;
        assert_eq!(v[3], 7.0);
        assert_eq!(v[4], 9.0);
        assert_eq!(v.iter().sum::<f32>(), 16.0);
    }

    #[test]
    fn many_small_allocations_drop_cleanly() {
        for len in 1..200 {
            let v = AlignedVec::<u8>::zeroed(len);
            assert_eq!(v.len(), len);
        }
    }
}
