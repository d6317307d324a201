//! OpenMP-style parallel loops on the workspace's one runtime.
//!
//! Every loop here is one [`rayon::broadcast`] on the current pool: the
//! calling thread runs worker 0 and the pool's persistent, parked
//! workers run the rest, so a loop costs a wake-up, not a thread spawn.
//! These are the only parallel loops in the workspace; anything else is
//! a plain sequential `std` iterator.
//!
//! The paper attributes part of GVE-Leiden's load balance to OpenMP's
//! *dynamic* loop schedule: workers repeatedly grab fixed-size chunks of
//! the iteration space from a shared counter, so a worker stuck on a hub
//! vertex does not stall the rest of its static share. [`dynamic_workers`]
//! reproduces that exactly with an atomic cursor, and is the only claim
//! policy of the local-moving and refinement phases (at
//! [`DEFAULT_CHUNK`], the paper's `schedule(dynamic, 2048)`) and of
//! aggregation. Every claim starts on a chunk boundary, so a loop over
//! `len` indices makes exactly `len.div_ceil(chunk)` claims whatever the
//! thread count.
//!
//! [`static_blocks`] is the `schedule(static)` counterpart: one
//! contiguous block of the iteration space per worker, results in block
//! order. Its blocks are a pure function of the length and the worker
//! count, so a later loop over the same length sees the same blocks,
//! and at one thread the single block runs in index order, exactly as a
//! sequential loop would. Graph construction, the prefix scan, and the
//! pass loop's fills, copies, renumbering and aggregation set-up run on
//! it; [`static_for`] and [`static_for_mut`] are its per-index forms.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default chunk size, matching the grain the GVE C++ code uses for its
/// `schedule(dynamic, 2048)` loops.
pub const DEFAULT_CHUNK: usize = 2048;

/// Iterator over the chunks a single worker claims from the shared cursor.
pub struct ChunkClaims<'a> {
    cursor: &'a AtomicUsize,
    len: usize,
    chunk: usize,
}

impl Iterator for ChunkClaims<'_> {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        // Saturating claim: an unconditional `fetch_add` would let the
        // shared cursor run arbitrarily far past `len` while workers
        // spin down a long tail (every exhausted worker still bumps it
        // by `chunk` once per poll). The compare-exchange claims
        // `start..end` only while `start` is in range, so the cursor
        // never exceeds `len`. Relaxed everywhere: the cursor carries no
        // payload — ranges index pre-published data, and the broadcast
        // fork/join provides the cross-thread ordering.
        let mut start = self.cursor.load(Ordering::Relaxed);
        loop {
            if start >= self.len {
                return None;
            }
            let end = (start + self.chunk).min(self.len);
            // Relaxed CX: see the ordering note above.
            match self.cursor.compare_exchange_weak(
                start,
                end,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(start..end),
                Err(observed) => start = observed,
            }
        }
    }
}

/// Runs `worker` once on every pool worker; each invocation pulls
/// dynamic chunks of `0..len` from a shared cursor until the range is
/// exhausted. Returns each worker's result.
///
/// The worker closure receives the claims iterator, so per-worker state
/// (hashtables, RNGs) is naturally created once per thread:
///
/// ```
/// use gve_prim::parfor::dynamic_workers;
/// let hits: Vec<u64> = dynamic_workers(10_000, 256, |claims| {
///     let mut local = 0u64; // per-worker state
///     for range in claims {
///         local += range.len() as u64;
///     }
///     local
/// });
/// assert_eq!(hits.iter().sum::<u64>(), 10_000);
/// ```
pub fn dynamic_workers<R, F>(len: usize, chunk: usize, worker: F) -> Vec<R>
where
    F: Fn(ChunkClaims<'_>) -> R + Sync,
    R: Send,
{
    assert!(chunk > 0, "chunk size must be positive");
    let cursor = AtomicUsize::new(0);
    rayon::broadcast(|_| {
        worker(ChunkClaims {
            cursor: &cursor,
            len,
            chunk,
        })
    })
}

/// Dynamic-scheduled parallel for over `0..len`.
pub fn par_for_dynamic<F>(len: usize, chunk: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    dynamic_workers(len, chunk, |claims| {
        for range in claims {
            for i in range {
                body(i);
            }
        }
    });
}

/// Dynamic-scheduled parallel for that sums a per-element `f64`
/// contribution (used for the per-iteration total delta-modularity `ΔQ`).
pub fn par_for_dynamic_sum<F>(len: usize, chunk: usize, body: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    dynamic_workers(len, chunk, |claims| {
        let mut acc = 0.0;
        for range in claims {
            for i in range {
                acc += body(i);
            }
        }
        acc
    })
    .into_iter()
    .sum()
}

/// Number of workers of a loop started now on this thread, which is
/// also the number of blocks [`static_blocks`] splits a range into.
pub fn workers() -> usize {
    rayon::current_num_threads()
}

/// Block `block` of `0..len` split into `blocks` contiguous near-equal
/// blocks: the first `len % blocks` blocks hold one index more.
///
/// # Panics
/// Panics when `blocks` is zero.
pub fn block_range(len: usize, blocks: usize, block: usize) -> Range<usize> {
    assert!(blocks > 0, "need at least one block");
    let base = len / blocks;
    let extra = len % blocks;
    let start = block * base + block.min(extra);
    start..start + base + usize::from(block < extra)
}

/// Static-scheduled parallel loop over `0..len`: runs `body(block,
/// range)` once per pool worker, where `range` is
/// [`block_range`]`(len, workers, block)`, and returns the results in
/// block order.
///
/// ```
/// use gve_prim::parfor::static_blocks;
/// let sums: Vec<usize> = static_blocks(1000, |_, range| range.sum());
/// assert_eq!(sums.iter().sum::<usize>(), 999 * 1000 / 2);
/// ```
pub fn static_blocks<R, F>(len: usize, body: F) -> Vec<R>
where
    F: Fn(usize, Range<usize>) -> R + Sync,
    R: Send,
{
    rayon::broadcast(|ctx| {
        let block = ctx.index();
        body(block, block_range(len, ctx.num_threads(), block))
    })
}

/// Static-scheduled `for i in 0..len { body(i) }`, for bodies that
/// write through shared state (atomics, disjoint [`crate::SharedSlice`]
/// indices).
pub fn static_for<F>(len: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    static_blocks(len, |_, range| range.for_each(&body));
}

/// [`static_blocks`] over the elements of `slice`: runs `body(start,
/// block)` once per pool worker, where `block` is that worker's block
/// of `slice`, held exclusively, and `start` its first index; returns
/// the results in block order.
pub fn static_blocks_mut<T, R, F>(slice: &mut [T], body: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let shared = crate::SharedSlice::new(slice);
    static_blocks(shared.len(), |_, range| {
        let start = range.start;
        // SAFETY: the blocks of one static split are disjoint.
        body(start, unsafe { shared.slice_mut(range) })
    })
}

/// Static-scheduled `for (i, x) in slice.iter_mut().enumerate() {
/// body(i, x) }`: each worker gets its block of `slice` exclusively.
pub fn static_for_mut<T, F>(slice: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    static_blocks_mut(slice, |start, block| {
        for (offset, item) in block.iter_mut().enumerate() {
            body(start + offset, item);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn static_for_forms_visit_every_index_once() {
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let counts: Vec<AtomicU64> = (0..1001).map(|_| AtomicU64::new(0)).collect();
            let mut squares = vec![0usize; 1001];
            pool.install(|| {
                static_for(counts.len(), |i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
                static_for_mut(&mut squares, |i, x| *x = i * i);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            assert!(squares.iter().enumerate().all(|(i, &x)| x == i * i));
        }
    }

    #[test]
    fn blocks_tile_the_range_in_order() {
        for len in [0usize, 1, 2, 3, 7, 64, 1001] {
            for blocks in 1..6 {
                let mut next = 0;
                for block in 0..blocks {
                    let range = block_range(len, blocks, block);
                    assert_eq!(range.start, next);
                    assert!(range.len().abs_diff(len / blocks) <= 1);
                    next = range.end;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn static_blocks_cover_each_index_once_in_block_order() {
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let ranges = pool.install(|| static_blocks(10, |block, range| (block, range)));
            assert_eq!(ranges.len(), threads);
            let mut next = 0;
            for (i, (block, range)) in ranges.into_iter().enumerate() {
                assert_eq!(block, i);
                assert_eq!(range, block_range(10, threads, i));
                assert_eq!(range.start, next);
                next = range.end;
            }
            assert_eq!(next, 10);
        }
    }

    #[test]
    fn every_index_visited_exactly_once() {
        let n = 100_000;
        let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for_dynamic(n, 97, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_length_runs_nothing() {
        let touched = AtomicUsize::new(0);
        par_for_dynamic(0, 8, |_| {
            touched.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(touched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn chunk_larger_than_len_still_covers() {
        let sum = par_for_dynamic_sum(5, 1000, |i| i as f64);
        assert_eq!(sum, 10.0);
    }

    #[test]
    fn sum_matches_closed_form() {
        let n = 50_000usize;
        let sum = par_for_dynamic_sum(n, 64, |i| i as f64);
        assert_eq!(sum, (n as f64 - 1.0) * n as f64 / 2.0);
    }

    #[test]
    fn workers_results_are_collected() {
        let results = dynamic_workers(1000, 10, |claims| claims.map(|r| r.len()).sum::<usize>());
        assert_eq!(results.len(), rayon::current_num_threads());
        assert_eq!(results.iter().sum::<usize>(), 1000);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        par_for_dynamic(10, 0, |_| {});
    }

    /// Regression: many workers hammering a tiny range must not push the
    /// shared cursor past `len` (the old `fetch_add` claim advanced it
    /// by `chunk` on every exhausted poll).
    #[test]
    fn cursor_never_runs_past_len() {
        let len = 3usize;
        let cursor = AtomicUsize::new(0);
        let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    let claims = ChunkClaims {
                        cursor: &cursor,
                        len,
                        chunk: 1,
                    };
                    for range in claims {
                        for i in range {
                            counts[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            cursor.load(Ordering::Relaxed),
            len,
            "cursor must saturate exactly at len"
        );
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    /// The same bound holds through the public entry point with a chunk
    /// that overshoots the range end.
    #[test]
    fn tiny_range_many_claims_covered_exactly_once() {
        for _ in 0..50 {
            let n = 5;
            let counts: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            par_for_dynamic(n, 3, |i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }
}
