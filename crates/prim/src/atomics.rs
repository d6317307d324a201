//! Atomic `f64` built on `AtomicU64` bit manipulation.
//!
//! GVE-Leiden updates the total edge weight of each community (`Σ'`)
//! *asynchronously* from many threads (Algorithm 2, line 12 and
//! Algorithm 3, lines 10–11). Rust has no `AtomicF64`, so we emulate one
//! with compare-and-swap loops over the IEEE-754 bit pattern, exactly as
//! the C++ original does with `#pragma omp atomic` / `atomicCAS`.
//!
//! [`atomic_into_plain`] and [`plain_into_atomic`] move a
//! `Vec<AtomicU32>`'s allocation to and from a `Vec<u32>`/`Vec<f32>`
//! without copying, so buffers filled concurrently can be handed on as
//! plain data. The slice recasts beside them ([`plain_u64_mut`],
//! [`plain_u32_mut`], [`plain_u32_pairs_mut`], [`f64_bits_mut`]) view
//! exclusively borrowed atomics as another type, so one buffer can host
//! a guest of a different type while its own data is dead.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A `f64` that can be read and updated atomically.
///
/// All operations use [`Ordering::Relaxed`] by default: the Leiden
/// local-moving phase is a heuristic that tolerates stale reads (this is
/// what the paper calls the *asynchronous* variant), so no cross-variable
/// ordering is required. Operations that need stronger guarantees (the
/// refinement phase's isolation CAS) take an explicit ordering.
///
/// Transparent over its [`AtomicU64`], so [`f64_bits_mut`] can lend a
/// `Σ'` buffer out as bit-pattern atomics.
#[derive(Debug, Default)]
#[repr(transparent)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// Creates a new atomic with the given initial value.
    #[inline]
    pub fn new(value: f64) -> Self {
        Self(AtomicU64::new(value.to_bits()))
    }

    /// Loads the current value (relaxed).
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Stores a new value (relaxed).
    #[inline]
    pub fn store(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Atomically adds `delta` and returns the previous value.
    ///
    /// Implemented as a CAS loop over the bit pattern; `fetch_update` with
    /// relaxed orderings compiles down to the same `lock cmpxchg` loop the
    /// OpenMP atomic add uses on x86-64.
    #[inline]
    pub fn fetch_add(&self, delta: f64) -> f64 {
        // Relaxed: only the add's atomicity matters — Σ' totals are
        // value-published, with phase joins ordering any readers.
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(observed) => current = observed,
            }
        }
    }

    /// Atomically subtracts `delta` and returns the previous value.
    #[inline]
    pub fn fetch_sub(&self, delta: f64) -> f64 {
        self.fetch_add(-delta)
    }

    /// Single-shot compare-and-swap on the exact bit pattern.
    ///
    /// This is the `atomicCAS(Σ'[c], K'[i], 0)` of Algorithm 3: the
    /// refinement phase claims an *isolated* vertex by swapping its
    /// community weight from exactly `K'[i]` to `0`. Returns `Ok(old)` on
    /// success and `Err(observed)` on failure, mirroring
    /// [`AtomicU64::compare_exchange`].
    ///
    /// Bit-pattern equality is what we want here: `Σ'[c]` was *stored* as
    /// the same `f64` it is compared against, so no epsilon is needed.
    #[inline]
    pub fn compare_exchange(&self, expected: f64, new: f64) -> Result<f64, f64> {
        match self.0.compare_exchange(
            expected.to_bits(),
            new.to_bits(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => Ok(f64::from_bits(prev)),
            Err(observed) => Err(f64::from_bits(observed)),
        }
    }

    /// Consumes the atomic and returns the inner value.
    #[inline]
    pub fn into_inner(self) -> f64 {
        f64::from_bits(self.0.into_inner())
    }
}

impl From<f64> for AtomicF64 {
    fn from(value: f64) -> Self {
        Self::new(value)
    }
}

impl Clone for AtomicF64 {
    fn clone(&self) -> Self {
        Self::new(self.load())
    }
}

/// Allocates a vector of `n` atomics, all initialized to `value`.
pub fn atomic_f64_vec(n: usize, value: f64) -> Vec<AtomicF64> {
    (0..n).map(|_| AtomicF64::new(value)).collect()
}

/// Copies a plain `f64` slice into a freshly allocated atomic vector.
pub fn atomic_f64_from_slice(values: &[f64]) -> Vec<AtomicF64> {
    values.iter().map(|&v| AtomicF64::new(v)).collect()
}

/// Snapshots an atomic vector back into a plain `Vec<f64>`.
pub fn atomic_f64_snapshot(values: &[AtomicF64]) -> Vec<f64> {
    values.iter().map(AtomicF64::load).collect()
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for f32 {}
}

/// A plain 32-bit type that an [`AtomicU32`] vector can hand its
/// allocation to: same size and alignment, and every bit pattern valid
/// both ways. Implemented for `u32` and `f32` only.
pub trait Bits32: Copy + sealed::Sealed {}
impl Bits32 for u32 {}
impl Bits32 for f32 {}

/// Turns an atomic vector into a plain one over the same allocation:
/// no copy, and length, contents and spare capacity are kept. The
/// aggregation scratch fills its arc slots through atomics and then
/// hands the very same buffers to a CSR graph.
pub fn atomic_into_plain<T: Bits32>(atomics: Vec<AtomicU32>) -> Vec<T> {
    // SAFETY: `T: Bits32` is `u32` or `f32`, for which every bit
    // pattern of an `AtomicU32` is valid.
    unsafe { recast_vec(atomics) }
}

/// The inverse of [`atomic_into_plain`]: hands a plain vector's
/// allocation back to atomics, again without copying.
pub fn plain_into_atomic<T: Bits32>(plain: Vec<T>) -> Vec<AtomicU32> {
    // SAFETY: every `u32`/`f32` bit pattern is a valid `AtomicU32`.
    unsafe { recast_vec(plain) }
}

/// Plain view of exclusively borrowed `u64` atomics: the slice form of
/// [`AtomicU64::get_mut`].
pub fn plain_u64_mut(atomics: &mut [AtomicU64]) -> &mut [u64] {
    // SAFETY: `AtomicU64` has the size and bit validity of `u64` and at
    // least its alignment, and the exclusive borrow rules out any atomic
    // access while the view lives.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u64>(), atomics.len()) }
}

/// Plain view of exclusively borrowed `u32` atomics: the slice form of
/// [`AtomicU32::get_mut`].
pub fn plain_u32_mut(atomics: &mut [AtomicU32]) -> &mut [u32] {
    // SAFETY: `AtomicU32` has the size and bit validity of `u32` and at
    // least its alignment, and the exclusive borrow rules out any atomic
    // access while the view lives.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u32>(), atomics.len()) }
}

/// Exclusively borrowed `u64` atomics viewed as twice as many plain
/// `u32`s (in memory order).
pub fn plain_u32_pairs_mut(atomics: &mut [AtomicU64]) -> &mut [u32] {
    // SAFETY: every `u64` bit pattern is two valid `u32`s, the alignment
    // of `AtomicU64` covers that of `u32`, the view spans the same bytes,
    // and the exclusive borrow rules out any atomic access while it lives.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u32>(), 2 * atomics.len()) }
}

/// Exclusively borrowed [`AtomicF64`]s viewed as the [`AtomicU64`]s of
/// their bit patterns, so an idle `Σ'` buffer can host `u64` data.
pub fn f64_bits_mut(atomics: &mut [AtomicF64]) -> &mut [AtomicU64] {
    // SAFETY: `AtomicF64` is `#[repr(transparent)]` over `AtomicU64`, and
    // the exclusive borrow hands the view the only access to the slots.
    unsafe {
        std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<AtomicU64>(), atomics.len())
    }
}

/// Reinterprets a vector's allocation as elements of another type.
///
/// # Safety
/// Every bit pattern of `A` must be a valid `B`. Size and alignment
/// equality are checked at compile time.
unsafe fn recast_vec<A, B>(v: Vec<A>) -> Vec<B> {
    const {
        assert!(std::mem::size_of::<A>() == std::mem::size_of::<B>());
        assert!(std::mem::align_of::<A>() == std::mem::align_of::<B>());
    }
    let mut v = std::mem::ManuallyDrop::new(v);
    let (ptr, len, capacity) = (v.as_mut_ptr(), v.len(), v.capacity());
    // SAFETY: the allocation came from a `Vec<A>` whose ownership the
    // `ManuallyDrop` gives up; `B` has `A`'s size and alignment, so the
    // allocation's layout for `capacity` elements is unchanged, and the
    // caller guarantees the `len` initialized elements are valid `B`s.
    unsafe { Vec::from_raw_parts(ptr.cast::<B>(), len, capacity) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn new_load_store_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF64::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
        assert_eq!(a.fetch_sub(0.5), 3.0);
        assert_eq!(a.load(), 2.5);
    }

    #[test]
    fn compare_exchange_succeeds_on_exact_bits() {
        let a = AtomicF64::new(4.25);
        assert_eq!(a.compare_exchange(4.25, 0.0), Ok(4.25));
        assert_eq!(a.load(), 0.0);
    }

    #[test]
    fn compare_exchange_fails_on_mismatch() {
        let a = AtomicF64::new(4.25);
        assert_eq!(a.compare_exchange(4.0, 0.0), Err(4.25));
        assert_eq!(a.load(), 4.25);
    }

    #[test]
    fn compare_exchange_distinguishes_zero_signs() {
        // Bit-pattern CAS treats +0.0 and -0.0 as different, which is the
        // conservative behaviour we rely on: weights are stored, not
        // computed, so the expected pattern always matches exactly.
        let a = AtomicF64::new(0.0);
        assert!(a.compare_exchange(-0.0, 1.0).is_err());
        assert!(a.compare_exchange(0.0, 1.0).is_ok());
    }

    #[test]
    fn concurrent_adds_sum_exactly_with_integral_values() {
        let a = Arc::new(AtomicF64::new(0.0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        a.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Integral doubles up to 2^53 add associatively, so the result is exact.
        assert_eq!(a.load(), 80_000.0);
    }

    #[test]
    fn into_inner_and_clone() {
        let a = AtomicF64::new(7.0);
        let b = a.clone();
        assert_eq!(b.into_inner(), 7.0);
        assert_eq!(a.into_inner(), 7.0);
    }

    #[test]
    fn recast_roundtrip_keeps_allocation_and_bits() {
        let mut plain: Vec<u32> = Vec::with_capacity(16);
        plain.extend([1, 2, u32::MAX]);
        let ptr = plain.as_ptr() as usize;
        let atomics = plain_into_atomic(plain);
        assert_eq!((atomics.len(), atomics.capacity()), (3, 16));
        assert_eq!(atomics.as_ptr() as usize, ptr);
        // Relaxed: single-threaded test read-back.
        assert_eq!(atomics[2].load(Ordering::Relaxed), u32::MAX);
        atomics[0].store(1.5f32.to_bits(), Ordering::Relaxed);
        let weights: Vec<f32> = atomic_into_plain(atomics);
        assert_eq!(weights.as_ptr() as usize, ptr);
        assert_eq!(weights.capacity(), 16);
        assert_eq!(weights[0], 1.5);
        assert_eq!(weights[1].to_bits(), 2);
        // Spare capacity is usable in place after the round trip.
        let mut back: Vec<u32> = atomic_into_plain(plain_into_atomic(weights));
        back.resize(16, 7);
        assert_eq!(back.as_ptr() as usize, ptr);
        assert_eq!(back[0], 1.5f32.to_bits());
        assert_eq!(&back[3..], &[7; 13]);
    }

    #[test]
    fn recast_empty_vectors() {
        let empty: Vec<f32> = atomic_into_plain(Vec::new());
        assert!(empty.is_empty());
        let atomics = plain_into_atomic(Vec::<u32>::with_capacity(5));
        assert!(atomics.is_empty());
        assert_eq!(atomics.capacity(), 5);
        let plain: Vec<u32> = atomic_into_plain(atomics);
        assert_eq!(plain.capacity(), 5);
    }

    #[test]
    fn plain_u64_view_writes_through() {
        let mut atomics: Vec<AtomicU64> = (0..3).map(AtomicU64::new).collect();
        plain_u64_mut(&mut atomics)[1] = u64::MAX;
        // Relaxed: single-threaded test read-back.
        assert_eq!(atomics[1].load(Ordering::Relaxed), u64::MAX);
        assert_eq!(plain_u64_mut(&mut atomics), &[0, u64::MAX, 2]);
    }

    #[test]
    fn plain_u32_view_writes_through() {
        let mut atomics: Vec<AtomicU32> = (0..3).map(AtomicU32::new).collect();
        plain_u32_mut(&mut atomics[1..])[0] = 7;
        // Relaxed: single-threaded test read-back.
        assert_eq!(atomics[1].load(Ordering::Relaxed), 7);
        assert_eq!(plain_u32_mut(&mut atomics), &[0, 7, 2]);
    }

    #[test]
    fn plain_u32_pairs_view_spans_both_halves() {
        let mut atomics: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
        let halves = plain_u32_pairs_mut(&mut atomics);
        assert_eq!(halves.len(), 4);
        halves.copy_from_slice(&[1, 2, 3, 4]);
        // Relaxed: single-threaded test read-back.
        let words: Vec<u64> = atomics.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let expected = |lo: u32, hi: u32| {
            let mut bytes = [0u8; 8];
            bytes[..4].copy_from_slice(&lo.to_ne_bytes());
            bytes[4..].copy_from_slice(&hi.to_ne_bytes());
            u64::from_ne_bytes(bytes)
        };
        assert_eq!(words, vec![expected(1, 2), expected(3, 4)]);
    }

    #[test]
    fn f64_bits_view_hosts_u64_data_and_back() {
        let mut sigma = atomic_f64_vec(3, 1.5);
        let bits = f64_bits_mut(&mut sigma);
        assert_eq!(bits.len(), 3);
        // Relaxed: single-threaded test stores and read-backs.
        assert_eq!(bits[0].load(Ordering::Relaxed), 1.5f64.to_bits());
        bits[2].store(42, Ordering::Relaxed);
        plain_u64_mut(bits)[1] = (-0.25f64).to_bits();
        assert_eq!(sigma[1].load(), -0.25);
        assert_eq!(sigma[2].load().to_bits(), 42);
    }

    #[test]
    fn vector_helpers_roundtrip() {
        let v = atomic_f64_vec(4, 2.0);
        assert_eq!(atomic_f64_snapshot(&v), vec![2.0; 4]);
        let w = atomic_f64_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(atomic_f64_snapshot(&w), vec![1.0, 2.0, 3.0]);
    }
}
