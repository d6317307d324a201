//! Arc-aware loop scheduling: static, guided, and work-stealing claims.
//!
//! [`crate::parfor::dynamic_workers`] hands out fixed-size *vertex*
//! chunks from one shared cursor. On power-law graphs that is unfair in
//! the dimension that matters: a 2048-vertex chunk of hubs can carry
//! orders of magnitude more arcs than a chunk of leaves, and whoever
//! draws it finishes last while the cursor sits exhausted. This module
//! schedules by *arc mass* instead, using the CSR offset array (a
//! degree prefix sum) that every caller already has:
//!
//! * [`Schedule::Static`] — the parfor behaviour (fixed vertex chunks,
//!   one shared cursor), kept here so all policies share one entry
//!   point and report the same [`SchedStats`];
//! * [`Schedule::Guided`] — OpenMP `schedule(guided)`: each claim takes
//!   `remaining_arcs / (2·workers)` arcs (floored at
//!   [`GUIDED_MIN_ARCS`]), so chunks shrink as the range drains and the
//!   tail self-balances without per-claim tuning;
//! * [`Schedule::Stealing`] — the range is pre-split into one
//!   arc-balanced contiguous segment per worker ([`arc_balanced_bounds`]);
//!   each worker drains its own segment through a private cursor and,
//!   when empty, steals chunks from the victim with the most arcs left.
//!
//! All claim protocols are the saturating compare-exchange of
//! `ChunkClaims` (never advance a cursor past its limit), so every index
//! in `0..len` is claimed exactly once — the property the loom model in
//! `tests/loom.rs` checks under adversarial interleavings.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Floor on the arc mass of one guided claim. Keeps the tail of the
/// schedule from degenerating into per-vertex cursor traffic once
/// `remaining / (2·workers)` underflows useful sizes.
pub const GUIDED_MIN_ARCS: u64 = 4096;

/// Maximum workers the stealing policy tracks. Cursor state is a
/// stack-resident array (no heap in the phase hot path), so the bound
/// is a compile-time constant; extra pool threads beyond it share
/// segments, which the claim protocol tolerates.
pub const MAX_WORKERS: usize = 64;

/// Scheduling behaviour for one parallel region.
#[derive(Debug, Clone, Copy)]
pub enum Schedule<'a> {
    /// Fixed-size vertex chunks off one shared cursor.
    Static {
        /// Vertices per claim (clamped to ≥ 1).
        chunk: usize,
    },
    /// Arc-proportional shrinking chunks (OpenMP guided).
    Guided {
        /// CSR offsets: `offsets[v]` = arcs before vertex `v`, length
        /// `len + 1` for a region over `0..len`.
        offsets: &'a [u64],
    },
    /// Arc-balanced per-worker segments with steal-on-empty.
    Stealing {
        /// CSR offsets, as for `Guided`.
        offsets: &'a [u64],
        /// Vertices per claim within a segment (clamped to ≥ 1).
        chunk: usize,
    },
}

/// Counters describing how a scheduled region executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Chunks claimed (all policies).
    pub chunks: u64,
    /// Chunks claimed from another worker's segment (stealing only).
    pub steals: u64,
}

impl SchedStats {
    /// Element-wise accumulation, for folding per-iteration stats into a
    /// per-pass total.
    pub fn merge(&mut self, other: SchedStats) {
        self.chunks += other.chunks;
        self.steals += other.steals;
    }
}

/// Cache-line-padded cursor: each stealing segment's cursor lives on
/// its own line so owners don't false-share with thieves.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedCursor(AtomicUsize);

/// Saturating chunk claim on `cursor`, bounded by `hi`: claims
/// `start..end` only while `start < hi`, so the cursor never exceeds
/// the limit (same protocol as `ChunkClaims` in `parfor`).
#[inline]
fn claim_chunk(cursor: &AtomicUsize, hi: usize, chunk: usize) -> Option<Range<usize>> {
    // Relaxed: the cursor carries no payload — claimed ranges index
    // data published before the broadcast fork, and the fork/join
    // provides all cross-thread ordering.
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= hi {
            return None;
        }
        let end = (start + chunk).min(hi);
        // Relaxed CX: see the ordering note above.
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(start..end),
            Err(observed) => start = observed,
        }
    }
}

/// Splits `0..len` into `workers` contiguous segments of approximately
/// equal arc mass, computed from the degree prefix sum `offsets`
/// (length `len + 1`). Returns the `workers + 1` boundary array (only
/// the first `workers + 1` entries are meaningful) and the effective
/// worker count after clamping to `[1, MAX_WORKERS]`.
///
/// The boundaries partition the range exactly: `bounds[0] == 0`,
/// `bounds[workers] == len`, and the sequence is non-decreasing — the
/// property the adversarial-degree proptest in `tests/` checks.
pub fn arc_balanced_bounds(
    offsets: &[u64],
    len: usize,
    workers: usize,
) -> ([usize; MAX_WORKERS + 1], usize) {
    debug_assert!(
        offsets.len() == len + 1,
        "offsets must be a len+1 prefix sum"
    );
    let w = workers.clamp(1, MAX_WORKERS);
    let mut bounds = [0usize; MAX_WORKERS + 1];
    let base = offsets.first().copied().unwrap_or(0);
    let total = offsets.get(len).copied().unwrap_or(base) - base;
    for (i, bound) in bounds.iter_mut().enumerate().take(w + 1).skip(1) {
        // Target arc prefix for worker i's start, with u128 math so
        // total · i cannot overflow.
        let goal = base + ((total as u128 * i as u128) / w as u128) as u64;
        // First vertex whose prefix reaches the goal.
        *bound = offsets[..=len].partition_point(|&o| o < goal).min(len);
        if i == w {
            *bound = len;
        }
    }
    // Zero-degree runs can make partition points collapse; restore
    // monotonicity so segments never overlap.
    for i in 1..=w {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }
    (bounds, w)
}

enum ClaimsInner<'a> {
    Static {
        cursor: &'a AtomicUsize,
        len: usize,
        chunk: usize,
    },
    Guided {
        cursor: &'a AtomicUsize,
        len: usize,
        offsets: &'a [u64],
        workers: usize,
    },
    Stealing {
        cursors: &'a [PaddedCursor],
        bounds: &'a [usize],
        offsets: &'a [u64],
        me: usize,
        chunk: usize,
    },
}

/// Iterator over the index ranges one worker claims from a scheduled
/// region. Yielded ranges across all workers partition `0..len`.
pub struct Claims<'a> {
    inner: ClaimsInner<'a>,
    chunks: &'a AtomicU64,
    steals: &'a AtomicU64,
}

impl Claims<'_> {
    fn next_range(&mut self) -> Option<(Range<usize>, bool)> {
        match &mut self.inner {
            ClaimsInner::Static { cursor, len, chunk } => {
                claim_chunk(cursor, *len, *chunk).map(|r| (r, false))
            }
            ClaimsInner::Guided {
                cursor,
                len,
                offsets,
                workers,
            } => {
                let len = *len;
                // Relaxed: cursor ordering note in `claim_chunk`.
                let mut start = cursor.load(Ordering::Relaxed);
                loop {
                    if start >= len {
                        return None;
                    }
                    // Guided sizing: half the remaining arc mass shared
                    // across workers, floored so the tail stays coarse.
                    let remaining = offsets[len] - offsets[start];
                    let target = (remaining / (2 * *workers as u64)).max(GUIDED_MIN_ARCS);
                    let goal = offsets[start].saturating_add(target);
                    // Smallest end > start whose prefix reaches the
                    // goal; a hub vertex alone may overshoot, which the
                    // `start + 1` base turns into guaranteed progress.
                    let rel = offsets[start + 1..=len].partition_point(|&o| o < goal);
                    let end = (start + 1 + rel).min(len);
                    // Relaxed CX: cursor ordering note in `claim_chunk`.
                    match cursor.compare_exchange_weak(
                        start,
                        end,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some((start..end, false)),
                        Err(observed) => start = observed,
                    }
                }
            }
            ClaimsInner::Stealing {
                cursors,
                bounds,
                offsets,
                me,
                chunk,
            } => {
                let me = *me;
                // Own segment first.
                if let Some(r) = claim_chunk(&cursors[me].0, bounds[me + 1], *chunk) {
                    return Some((r, false));
                }
                // Steal from the victim with the most arcs left.
                loop {
                    let mut victim = None;
                    let mut richest = 0u64;
                    for v in 0..cursors.len() {
                        if v == me {
                            continue;
                        }
                        let hi = bounds[v + 1];
                        // Relaxed: advisory richness estimate only; the
                        // claim itself re-validates via the CX protocol.
                        let pos = cursors[v].0.load(Ordering::Relaxed).min(hi);
                        let left = offsets[hi] - offsets[pos];
                        if left > richest || (left > 0 && victim.is_none()) {
                            richest = left;
                            victim = Some(v);
                        }
                    }
                    let v = victim?;
                    if let Some(r) = claim_chunk(&cursors[v].0, bounds[v + 1], *chunk) {
                        return Some((r, true));
                    }
                    // Lost the race to the owner or another thief:
                    // re-scan for the next-richest victim.
                }
            }
        }
    }
}

impl Iterator for Claims<'_> {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        let (range, stolen) = self.next_range()?;
        // Relaxed: advisory telemetry counters, read after the join.
        self.chunks.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        Some(range)
    }
}

/// Runs `worker` once on every pool worker, each pulling claims
/// of `0..len` under the given schedule until the range is exhausted.
/// Returns each worker's result plus the region's scheduling counters.
///
/// The arc-aware policies require `offsets.len() == len + 1` (the CSR
/// prefix-sum contract); `Static` ignores offsets entirely and matches
/// [`crate::parfor::dynamic_workers`] claim-for-claim.
pub fn scheduled_workers<R, F>(
    len: usize,
    schedule: Schedule<'_>,
    worker: F,
) -> (Vec<R>, SchedStats)
where
    F: Fn(Claims<'_>) -> R + Sync,
    R: Send,
{
    let chunks = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let results = match schedule {
        Schedule::Static { chunk } => {
            let chunk = chunk.max(1);
            let cursor = AtomicUsize::new(0);
            rayon::broadcast(|_| {
                worker(Claims {
                    inner: ClaimsInner::Static {
                        cursor: &cursor,
                        len,
                        chunk,
                    },
                    chunks: &chunks,
                    steals: &steals,
                })
            })
        }
        Schedule::Guided { offsets } => {
            debug_assert!(
                offsets.len() == len + 1,
                "offsets must be a len+1 prefix sum"
            );
            let workers = rayon::current_num_threads().max(1);
            let cursor = AtomicUsize::new(0);
            rayon::broadcast(|_| {
                worker(Claims {
                    inner: ClaimsInner::Guided {
                        cursor: &cursor,
                        len,
                        offsets,
                        workers,
                    },
                    chunks: &chunks,
                    steals: &steals,
                })
            })
        }
        Schedule::Stealing { offsets, chunk } => {
            let chunk = chunk.max(1);
            let (bounds, w) = arc_balanced_bounds(offsets, len, rayon::current_num_threads());
            // Segment cursors start at their segment's lower bound;
            // stack-resident so the phase loop stays allocation-free.
            let cursors: [PaddedCursor; MAX_WORKERS] = std::array::from_fn(|v| {
                PaddedCursor(AtomicUsize::new(if v < w { bounds[v] } else { len }))
            });
            rayon::broadcast(|ctx| {
                worker(Claims {
                    inner: ClaimsInner::Stealing {
                        cursors: &cursors[..w],
                        bounds: &bounds[..=w],
                        offsets,
                        me: ctx.index() % w,
                        chunk,
                    },
                    chunks: &chunks,
                    steals: &steals,
                })
            })
        }
    };
    (
        results,
        SchedStats {
            // Relaxed: post-join read-back — the broadcast/scope above
            // already published every worker's counter increments.
            chunks: chunks.load(Ordering::Relaxed),
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Degree sequence → CSR-style prefix sum (len + 1 entries).
    fn prefix(degrees: &[u64]) -> Vec<u64> {
        let mut offsets = Vec::with_capacity(degrees.len() + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &d in degrees {
            acc += d;
            offsets.push(acc);
        }
        offsets
    }

    fn assert_exactly_once(len: usize, schedule: Schedule<'_>) -> SchedStats {
        let counts: Vec<AtomicU64> = (0..len).map(|_| AtomicU64::new(0)).collect();
        let (_, stats) = scheduled_workers(len, schedule, |claims| {
            for range in claims {
                for i in range {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
        stats
    }

    #[test]
    fn static_policy_covers_exactly_once() {
        let stats = assert_exactly_once(10_007, Schedule::Static { chunk: 97 });
        assert!(stats.chunks >= 103, "10_007/97 chunks minimum");
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn guided_policy_covers_exactly_once() {
        let degrees: Vec<u64> = (0u64..5_000).map(|i| (i % 17) + 1).collect();
        let offsets = prefix(&degrees);
        let stats = assert_exactly_once(5_000, Schedule::Guided { offsets: &offsets });
        assert!(stats.chunks > 0);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn stealing_policy_covers_exactly_once() {
        // Heavy hub head: the first worker's segment is tiny in
        // vertices, so everyone else's segments get stolen from under
        // multi-thread pools.
        let mut degrees = vec![1u64; 8_000];
        degrees[0] = 100_000;
        degrees[1] = 50_000;
        let offsets = prefix(&degrees);
        let stats = assert_exactly_once(
            8_000,
            Schedule::Stealing {
                offsets: &offsets,
                chunk: 64,
            },
        );
        assert!(stats.chunks > 0);
    }

    #[test]
    fn zero_length_regions_run_nothing() {
        let offsets = [0u64];
        for schedule in [
            Schedule::Static { chunk: 8 },
            Schedule::Guided { offsets: &offsets },
            Schedule::Stealing {
                offsets: &offsets,
                chunk: 8,
            },
        ] {
            let touched = AtomicU64::new(0);
            let (_, stats) = scheduled_workers(0, schedule, |claims| {
                for range in claims {
                    touched.fetch_add(range.len() as u64, Ordering::Relaxed);
                }
            });
            assert_eq!(touched.load(Ordering::Relaxed), 0);
            assert_eq!(stats.chunks, 0);
        }
    }

    #[test]
    fn guided_chunks_shrink_with_remaining_arcs() {
        // Uniform degrees, arcs ≫ GUIDED_MIN_ARCS: the first claim must
        // be strictly larger than a late claim.
        let degrees = vec![64u64; 100_000];
        let offsets = prefix(&degrees);
        let sizes = std::sync::Mutex::new(Vec::new());
        scheduled_workers(100_000, Schedule::Guided { offsets: &offsets }, |claims| {
            for range in claims {
                sizes.lock().unwrap().push(range.len());
            }
        });
        let sizes = sizes.into_inner().unwrap();
        assert!(sizes.len() > 2, "expected a multi-chunk schedule");
        let first = sizes[0];
        let last = *sizes.last().unwrap();
        assert!(
            first > last,
            "guided chunks should shrink: first={first} last={last}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), 100_000);
    }

    #[test]
    fn guided_single_hub_claim_still_progresses() {
        // One vertex owning more arcs than the whole guided target must
        // be claimable on its own.
        let degrees = [1_000_000u64, 1, 1, 1];
        let offsets = prefix(&degrees);
        assert_exactly_once(4, Schedule::Guided { offsets: &offsets });
    }

    #[test]
    fn bounds_partition_the_range() {
        let degrees: Vec<u64> = (0..1_000)
            .map(|i| if i % 100 == 0 { 5_000 } else { 2 })
            .collect();
        let offsets = prefix(&degrees);
        for workers in [1, 2, 3, 7, 16, 64, 200] {
            let (bounds, w) = arc_balanced_bounds(&offsets, 1_000, workers);
            assert_eq!(bounds[0], 0);
            assert_eq!(bounds[w], 1_000);
            for i in 1..=w {
                assert!(bounds[i] >= bounds[i - 1], "workers={workers} i={i}");
            }
        }
    }

    #[test]
    fn bounds_balance_arcs_not_vertices() {
        // 10 hubs of degree 10_000 then 10_000 leaves of degree 1: with
        // two workers the split point must fall just after the hubs,
        // not at the vertex midpoint.
        let mut degrees = vec![10_000u64; 10];
        degrees.extend(vec![1u64; 10_000]);
        let offsets = prefix(&degrees);
        let (bounds, w) = arc_balanced_bounds(&offsets, degrees.len(), 2);
        assert_eq!(w, 2);
        assert!(
            bounds[1] < 100,
            "split {} should sit in the hub head",
            bounds[1]
        );
    }

    #[test]
    fn stealing_two_worker_sequential_run_has_exact_counts() {
        // Drive the claim protocol deterministically: two workers over
        // eight uniform vertices, worker 0 drained to exhaustion before
        // worker 1 starts. Worker 0 takes its own segment in two chunks,
        // then steals worker 1's segment in two more; worker 1 finds
        // nothing left. Exact counts, not bounds.
        let degrees = vec![1u64; 8];
        let offsets = prefix(&degrees);
        let (bounds, w) = arc_balanced_bounds(&offsets, 8, 2);
        assert_eq!(w, 2);
        assert_eq!(&bounds[..=2], &[0, 4, 8]);
        let cursors = [
            PaddedCursor(AtomicUsize::new(bounds[0])),
            PaddedCursor(AtomicUsize::new(bounds[1])),
        ];
        let chunks = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        let claims_for = |me: usize| Claims {
            inner: ClaimsInner::Stealing {
                cursors: &cursors,
                bounds: &bounds[..=2],
                offsets: &offsets,
                me,
                chunk: 2,
            },
            chunks: &chunks,
            steals: &steals,
        };
        let first: Vec<Range<usize>> = claims_for(0).collect();
        assert_eq!(first, vec![0..2, 2..4, 4..6, 6..8]);
        let second: Vec<Range<usize>> = claims_for(1).collect();
        assert!(second.is_empty(), "{second:?}");
        assert_eq!(chunks.load(Ordering::Relaxed), 4);
        assert_eq!(steals.load(Ordering::Relaxed), 2, "both 4..6 and 6..8");
    }

    #[test]
    fn guided_chunk_sizes_are_monotonically_nonincreasing() {
        // A single sequential driver sees the pure guided shrink curve:
        // each claim takes remaining/(2·workers) arcs, so with uniform
        // degrees sizes never grow, bottoming out at the
        // GUIDED_MIN_ARCS floor.
        let degrees = vec![64u64; 50_000];
        let offsets = prefix(&degrees);
        let cursor = AtomicUsize::new(0);
        let chunks = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        let claims = Claims {
            inner: ClaimsInner::Guided {
                cursor: &cursor,
                len: 50_000,
                offsets: &offsets,
                workers: 2,
            },
            chunks: &chunks,
            steals: &steals,
        };
        let sizes: Vec<usize> = claims.map(|r| r.len()).collect();
        assert!(sizes.len() > 3, "expected a multi-chunk schedule");
        for pair in sizes.windows(2) {
            assert!(
                pair[0] >= pair[1],
                "guided sizes grew: {} then {} in {sizes:?}",
                pair[0],
                pair[1]
            );
        }
        // The floor: every mid-schedule chunk carries at least
        // GUIDED_MIN_ARCS arcs (64 arcs per vertex here).
        for &size in &sizes[..sizes.len() - 1] {
            assert!(size as u64 * 64 >= GUIDED_MIN_ARCS, "{sizes:?}");
        }
        assert_eq!(sizes.iter().sum::<usize>(), 50_000);
        assert_eq!(chunks.load(Ordering::Relaxed), sizes.len() as u64);
        assert_eq!(steals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_degree_tail_is_still_owned() {
        // Trailing isolated vertices have flat prefix sums; they must
        // still land inside the final segment.
        let degrees = [5u64, 5, 0, 0, 0];
        let offsets = prefix(&degrees);
        let (bounds, w) = arc_balanced_bounds(&offsets, 5, 4);
        assert_eq!(bounds[w], 5);
        assert_exactly_once(
            5,
            Schedule::Stealing {
                offsets: &offsets,
                chunk: 2,
            },
        );
    }
}
