//! Sequential and parallel prefix sums.
//!
//! The aggregation phase builds two CSR offset arrays per pass with
//! exclusive scans over per-community counts (Algorithm 4, lines 3–4 and
//! 8–9). The parallel scan is the classic two-pass blocked algorithm:
//! per-block sums over one static block per worker, a small sequential
//! scan of the block totals, then a local scan of each block from its
//! offset — the same structure as `__parallel_scan` in GCC's libstdc++
//! parallel mode that the original C++ implementation relies on.

use crate::parfor::static_blocks;
use crate::SharedSlice;
use std::ops::Add;

/// Below this length the sequential scan is used outright.
const PARALLEL_THRESHOLD: usize = 64 * 1024;

/// In-place exclusive prefix sum starting from `running`; returns the
/// running total after the last value.
fn exclusive_scan_from<T>(values: &mut [T], mut running: T) -> T
where
    T: Copy + Add<Output = T>,
{
    for v in values.iter_mut() {
        let next = running + *v;
        *v = running;
        running = next;
    }
    running
}

/// In-place exclusive prefix sum; returns the total of all input values.
/// Generic over the element type so `u32` ranks scan in their own
/// buffer; callers pick a type the total cannot overflow.
///
/// `[3, 1, 4]` becomes `[0, 3, 4]` and `8` is returned.
pub fn exclusive_scan_in_place<T>(values: &mut [T]) -> T
where
    T: Copy + Default + Add<Output = T>,
{
    exclusive_scan_from(values, T::default())
}

/// In-place inclusive prefix sum; returns the total.
pub fn inclusive_scan_in_place(values: &mut [u64]) -> u64 {
    let mut running = 0u64;
    for v in values.iter_mut() {
        running += *v;
        *v = running;
    }
    running
}

/// Parallel in-place exclusive prefix sum; returns the total.
///
/// Falls back to the sequential scan for small inputs where the
/// fork/join overhead would dominate.
pub fn parallel_exclusive_scan<T>(values: &mut [T]) -> T
where
    T: Copy + Default + Add<Output = T> + Send + Sync,
{
    if values.len() < PARALLEL_THRESHOLD || rayon::current_num_threads() == 1 {
        return exclusive_scan_in_place(values);
    }
    let len = values.len();
    let values = SharedSlice::new(values);
    // Pass 1: per-block totals.
    let mut block_totals: Vec<T> = static_blocks(len, |_, range| {
        // SAFETY: the blocks of one static split are disjoint.
        let block = unsafe { values.slice_mut(range) };
        block.iter().fold(T::default(), |sum, &v| sum + v)
    });
    // Small sequential scan over the totals.
    let grand_total = exclusive_scan_in_place(&mut block_totals);
    // Pass 2: local exclusive scan from the block's offset, over the
    // same blocks (same length, same pool).
    static_blocks(len, |block, range| {
        // SAFETY: as above.
        exclusive_scan_from(unsafe { values.slice_mut(range) }, block_totals[block]);
    });
    grand_total
}

/// Exclusive scan from a borrowed count slice into a fresh offsets array
/// with one extra trailing slot holding the total — the exact shape CSR
/// `offsets` arrays want.
///
/// `[3, 1, 4]` yields `[0, 3, 4, 8]`.
pub fn offsets_from_counts(counts: &[u64]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut running = 0u64;
    for &c in counts {
        offsets.push(running);
        running += c;
    }
    offsets.push(running);
    offsets
}

/// Parallel variant of [`offsets_from_counts`].
pub fn parallel_offsets_from_counts(counts: &[u64]) -> Vec<u64> {
    if counts.len() < PARALLEL_THRESHOLD {
        return offsets_from_counts(counts);
    }
    let mut offsets = vec![0u64; counts.len() + 1];
    offsets[..counts.len()].copy_from_slice(counts);
    let total = parallel_exclusive_scan(&mut offsets[..counts.len()]);
    offsets[counts.len()] = total;
    offsets
}

/// Allocation-free variant of [`parallel_offsets_from_counts`]: writes
/// the `counts.len() + 1` offsets into `offsets`, reusing its capacity.
/// Returns the total. Grow-only: the vector is resized, never shrunk
/// below the required length, so a workspace-owned buffer reaches a
/// steady state after the first pass.
pub fn parallel_offsets_from_counts_into(counts: &[u64], offsets: &mut Vec<u64>) -> u64 {
    offsets.clear();
    offsets.resize(counts.len() + 1, 0);
    if counts.len() < PARALLEL_THRESHOLD {
        let mut running = 0u64;
        for (slot, &c) in offsets.iter_mut().zip(counts) {
            *slot = running;
            running += c;
        }
        offsets[counts.len()] = running;
        return running;
    }
    offsets[..counts.len()].copy_from_slice(counts);
    let total = parallel_exclusive_scan(&mut offsets[..counts.len()]);
    offsets[counts.len()] = total;
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_scan_basic() {
        let mut v = vec![3, 1, 4, 1, 5];
        let total = exclusive_scan_in_place(&mut v);
        assert_eq!(v, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
    }

    #[test]
    fn exclusive_scan_empty_and_single() {
        let mut empty: Vec<u64> = vec![];
        assert_eq!(exclusive_scan_in_place(&mut empty), 0);
        let mut one = vec![7];
        assert_eq!(exclusive_scan_in_place(&mut one), 7);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn inclusive_scan_basic() {
        let mut v = vec![3, 1, 4];
        let total = inclusive_scan_in_place(&mut v);
        assert_eq!(v, vec![3, 4, 8]);
        assert_eq!(total, 8);
    }

    #[test]
    fn parallel_matches_sequential_small() {
        let mut a = vec![5, 0, 2, 9];
        let mut b = a.clone();
        let ta = exclusive_scan_in_place(&mut a);
        let tb = parallel_exclusive_scan(&mut b);
        assert_eq!(a, b);
        assert_eq!(ta, tb);
    }

    #[test]
    fn parallel_matches_sequential_large_at_every_thread_count() {
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for len in [PARALLEL_THRESHOLD, PARALLEL_THRESHOLD + 1, 300_001] {
                let input: Vec<u64> = (0..len as u64).map(|i| (i * 2_654_435_761) % 97).collect();
                let mut a = input.clone();
                let mut b = input;
                let ta = exclusive_scan_in_place(&mut a);
                let tb = pool.install(|| parallel_exclusive_scan(&mut b));
                assert_eq!(ta, tb, "{threads} threads, {len} values");
                assert_eq!(a, b, "{threads} threads, {len} values");
            }
        }
    }

    #[test]
    fn parallel_scan_of_u32_matches_u64() {
        let wide: Vec<u64> = (0..300_000u64).map(|i| i % 2).collect();
        let mut narrow: Vec<u32> = wide.iter().map(|&v| v as u32).collect();
        let mut expected = wide;
        let total = parallel_exclusive_scan(&mut expected);
        assert_eq!(u64::from(parallel_exclusive_scan(&mut narrow)), total);
        assert!(narrow
            .iter()
            .zip(&expected)
            .all(|(&n, &e)| u64::from(n) == e));
    }

    #[test]
    fn offsets_from_counts_shape() {
        assert_eq!(offsets_from_counts(&[3, 1, 4]), vec![0, 3, 4, 8]);
        assert_eq!(offsets_from_counts(&[]), vec![0]);
    }

    #[test]
    fn parallel_offsets_match_large() {
        let counts: Vec<u64> = (0..200_000u64).map(|i| i % 13).collect();
        assert_eq!(
            parallel_offsets_from_counts(&counts),
            offsets_from_counts(&counts)
        );
    }

    #[test]
    fn offsets_into_reuses_buffer_and_matches() {
        let mut buf = Vec::new();
        for counts in [
            vec![3u64, 1, 4],
            vec![],
            (0..200_000u64).map(|i| i % 13).collect(),
        ] {
            let total = parallel_offsets_from_counts_into(&counts, &mut buf);
            assert_eq!(buf, offsets_from_counts(&counts));
            assert_eq!(total, counts.iter().sum::<u64>());
        }
        // Shrinking input reuses the larger capacity without reallocating.
        let cap = buf.capacity();
        parallel_offsets_from_counts_into(&[1, 2], &mut buf);
        assert_eq!(buf, vec![0, 1, 3]);
        assert_eq!(buf.capacity(), cap);
    }
}
