//! Unsynchronized shared mutable slice for provably disjoint writes.
//!
//! Several GVE-Leiden phases write into preallocated arrays from many
//! threads at *disjoint* indices — e.g. compacting a holey CSR, where
//! each vertex owns a distinct destination range computed by prefix sum,
//! or scattering renumbered community ids. Atomics would impose needless
//! ordering; `SharedSlice` exposes raw writes and places the disjointness
//! obligation on the (unsafe) caller, exactly like the C++ original's
//! plain stores into `omp parallel for` partitions.

use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A `&mut [T]` that may be shared across threads for disjoint-index
/// writes.
///
/// All access is `unsafe`: the caller must guarantee that no index is
/// written by two threads concurrently and that reads do not race with
/// writes to the same index.
pub struct SharedSlice<'a, T> {
    data: *const UnsafeCell<T>,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: SharedSlice is a borrow of `&mut [T]` storage; moving it to
// another thread moves only the pointer, so `T: Send` suffices (as for
// `&mut [T]` itself).
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
// SAFETY: sharing `&SharedSlice` across threads exposes nothing by
// itself — every read/write is an `unsafe` method whose caller contract
// (disjoint indices, no read/write races) carries the synchronization
// obligation. `T: Send` (not `Sync`) is the right bound because
// distinct threads access *disjoint* elements, exactly as if each had
// been sent its own `&mut T`.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice. The borrow keeps the underlying storage
    /// exclusively reachable through this wrapper for `'a`.
    pub fn new(slice: &'a mut [T]) -> Self {
        let len = slice.len();
        // Cast through UnsafeCell to make later aliased writes defined.
        let data = slice.as_mut_ptr() as *const UnsafeCell<T>;
        Self {
            data,
            len,
            _marker: PhantomData,
        }
    }

    /// Length of the wrapped slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the wrapped slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds, and no other thread may access the same
    /// index concurrently.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        // SAFETY: caller guarantees bounds and exclusivity for this index.
        unsafe { *UnsafeCell::raw_get(self.data.add(index)) = value };
    }

    /// Borrows `range` mutably.
    ///
    /// # Safety
    /// While the returned slice lives, no other thread may access an
    /// index in `range`, nor may this thread through another borrow.
    ///
    /// # Panics
    /// Panics when `range` is not within the slice.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "range {range:?} out of bounds for length {}",
            self.len
        );
        // SAFETY: the range is in bounds (asserted above), the caller
        // guarantees exclusive access to it, and `UnsafeCell<T>` has the
        // layout of `T`.
        unsafe {
            std::slice::from_raw_parts_mut(
                UnsafeCell::raw_get(self.data.add(range.start)),
                range.end - range.start,
            )
        }
    }

    /// Reads the value at `index`.
    ///
    /// # Safety
    /// `index` must be in bounds, and no other thread may be writing the
    /// same index concurrently.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        // SAFETY: caller guarantees bounds and no concurrent writer.
        unsafe { *UnsafeCell::raw_get(self.data.add(index)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parfor::static_for;

    #[test]
    fn disjoint_parallel_writes_land() {
        let n = 100_000;
        let mut buf = vec![0u64; n];
        {
            let shared = SharedSlice::new(&mut buf);
            static_for(n, |i| {
                // SAFETY: each index written by exactly one task.
                unsafe { shared.write(i, i as u64 * 3) };
            });
        }
        assert!(buf.iter().enumerate().all(|(i, &v)| v == i as u64 * 3));
    }

    #[test]
    fn read_back_sequentially() {
        let mut buf = vec![1u32, 2, 3];
        let shared = SharedSlice::new(&mut buf);
        assert_eq!(shared.len(), 3);
        assert!(!shared.is_empty());
        // SAFETY: single-threaded access.
        unsafe {
            shared.write(1, 9);
            assert_eq!(shared.read(1), 9);
            assert_eq!(shared.read(0), 1);
        }
    }

    #[test]
    fn range_partitioned_writes() {
        // Mimics CSR compaction: each "vertex" owns a distinct range.
        let ranges = [(0usize, 3usize), (3, 4), (4, 9), (9, 10)];
        let mut buf = vec![0u8; 10];
        {
            let shared = SharedSlice::new(&mut buf);
            static_for(ranges.len(), |id| {
                let (lo, hi) = ranges[id];
                for i in lo..hi {
                    // SAFETY: ranges are disjoint.
                    unsafe { shared.write(i, id as u8) };
                }
            });
        }
        assert_eq!(buf, vec![0, 0, 0, 1, 2, 2, 2, 2, 2, 3]);
    }

    #[test]
    fn disjoint_slices_fill_in_parallel() {
        let mut buf = vec![0usize; 1000];
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        {
            let shared = SharedSlice::new(&mut buf);
            pool.install(|| {
                crate::parfor::static_blocks(shared.len(), |block, range| {
                    let start = range.start;
                    // SAFETY: static blocks are disjoint.
                    let slice = unsafe { shared.slice_mut(range) };
                    for (i, slot) in slice.iter_mut().enumerate() {
                        *slot = (start + i) * 10 + block;
                    }
                })
            });
        }
        for (i, &v) in buf.iter().enumerate() {
            assert_eq!(v / 10, i);
        }
        assert_eq!(buf[0] % 10, 0);
        assert_eq!(buf[999] % 10, 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let mut buf = vec![0u8; 4];
        let shared = SharedSlice::new(&mut buf);
        // SAFETY: single-threaded; the call panics before borrowing.
        let _ = unsafe { shared.slice_mut(2..5) };
    }
}
