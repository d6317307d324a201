//! Holey CSR and group-by CSR — the aggregation-phase data structures.
//!
//! Algorithm 4 of the paper builds two CSRs per pass:
//!
//! 1. `G'_{C'}` — *community vertices*: for each community, the list of
//!    its member vertices. Counts are exact, so the CSR is dense
//!    ([`GroupedCsr`]).
//! 2. `G''` — the *super-vertex graph*: per-community degree is
//!    **overestimated** by the community's total degree, the offsets are
//!    prefix-summed over the overestimate, and edges are written into the
//!    gap-containing ("holey") slot arrays as they are discovered.
//!    Avoiding an exact counting pass is the optimization.
//!
//! [`AggregateScratch`] holds both in one grow-only arena. Its holey
//! slot arrays become the super-vertex [`CsrGraph`] itself: the holes
//! are squeezed out in place, and a retired graph's buffers come back
//! as the slot arrays of a later pass.

use crate::{CsrGraph, EdgeWeight, VertexId};
use gve_prim::atomics::{atomic_into_plain, plain_into_atomic};
use gve_prim::parfor::{static_blocks, static_for, static_for_mut, workers};
use gve_prim::scan::{exclusive_scan_in_place, parallel_exclusive_scan};
use gve_prim::workspace::resize_exact;
use gve_prim::SharedSlice;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Exact-size CSR mapping group id → member elements, members in
/// ascending order.
///
/// This is the community-vertices structure `G'_{C'}`, built by a
/// sequential counting sort: `group_by` counts members per group,
/// prefix-sums the counts into offsets, then scatters members at
/// per-group cursors (Algorithm 4, lines 3–6). The pass loop builds its
/// copy in parallel inside [`AggregateScratch::prepare`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedCsr {
    offsets: Vec<u64>,
    members: Vec<VertexId>,
}

impl GroupedCsr {
    /// Groups elements `0..keys.len()` by `keys[i] ∈ 0..num_groups`.
    pub fn group_by(keys: &[VertexId], num_groups: usize) -> Self {
        let mut offsets = vec![0u64; num_groups + 1];
        for &k in keys {
            offsets[k as usize] += 1;
        }
        let total = exclusive_scan_in_place(&mut offsets[..num_groups]);
        offsets[num_groups] = total;
        // Scatter members in index order at per-group cursors.
        let mut cursors = offsets[..num_groups].to_vec();
        let mut members = vec![0 as VertexId; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let cursor = &mut cursors[k as usize];
            members[*cursor as usize] = i as VertexId;
            *cursor += 1;
        }
        Self { offsets, members }
    }

    /// Number of groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total members across all groups.
    #[inline]
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Members of group `g`.
    #[inline]
    pub fn members(&self, g: VertexId) -> &[VertexId] {
        let g = g as usize;
        &self.members[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }

    /// Size of group `g`.
    #[inline]
    pub fn group_len(&self, g: VertexId) -> usize {
        self.members(g).len()
    }
}

/// Plain view of exclusively borrowed atomics, for the in-place prefix
/// sum (the slice form of `AtomicU64::get_mut`).
fn plain_mut(atomics: &mut [AtomicU64]) -> &mut [u64] {
    // SAFETY: `AtomicU64` has the same size and bit validity as `u64`
    // and at least its alignment, and the exclusive borrow rules out any
    // atomic access while the view lives.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u64>(), atomics.len()) }
}

/// Rows of the per-block count matrix that [`AggregateScratch::prepare`]
/// borrows from its own idle buffers instead of `block_cursors`.
const BORROWED_ROWS: usize = 3;

/// `u64` atomics viewed as twice as many plain `u32`s.
fn plain_u32_pairs_mut(atomics: &mut [AtomicU64]) -> &mut [u32] {
    // SAFETY: as in `plain_mut`; a `u64`'s bytes are two `u32`s, and the
    // alignment of `AtomicU64` covers that of `u32`.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u32>(), 2 * atomics.len()) }
}

/// [`plain_mut`] for `u32` counters.
fn plain_u32_mut(atomics: &mut [AtomicU32]) -> &mut [u32] {
    // SAFETY: as in `plain_mut`, for `AtomicU32` and `u32`.
    unsafe { std::slice::from_raw_parts_mut(atomics.as_mut_ptr().cast::<u32>(), atomics.len()) }
}

/// Most spare slot sets [`AggregateScratch`] keeps. The pass loop needs
/// two: the one backing the graph a pass reads and the one its
/// supergraph is written into.
const MAX_SPARE_SETS: usize = 2;

/// One set of holey slot buffers: the arc slots [`AggregateScratch::write_row`]
/// fills and the offsets [`AggregateScratch::squeeze`] writes the
/// dense rows' starts into. After the squeeze the same three buffers
/// are a [`CsrGraph`]; [`AggregateScratch::recycle`] turns a retired
/// graph back into a set.
#[derive(Debug, Default)]
struct SlotSet {
    offsets: Vec<u64>,
    targets: Vec<AtomicU32>,
    /// f32 weight bit patterns.
    weights: Vec<AtomicU32>,
}

impl SlotSet {
    /// Arc slots the set holds without reallocating.
    fn capacity(&self) -> usize {
        self.targets.capacity().min(self.weights.capacity())
    }
}

/// Pass-resident scratch fusing [`GroupedCsr`] and the holey
/// super-vertex CSR into one grow-only arena, so the aggregation phase
/// performs zero steady-state allocation:
///
/// * the members are grouped by a static-block counting sort: each
///   block of keys counts its members per group, and the per-block
///   counts turn into per-block cursors, so every group lists its
///   members in ascending order at any thread count and the supergraph
///   is a function of the membership alone. The count rows of the first
///   three blocks live in the member cursors and the holey offsets,
///   which are idle until the scatter ends; only a fourth worker and
///   beyond add `u32` rows to the arena;
/// * each community's total degree (the holey capacity overestimate) is
///   summed over its member list and prefix-summed in place into the
///   holey offsets, and the member cursors turn into the arc fill
///   counts, so neither needs a buffer of its own;
/// * every offsets/cursor array is reused across passes — pass `k`
///   views a shrinking prefix of the same memory;
/// * the holey slot arrays *are* the supergraph:
///   [`AggregateScratch::squeeze`] compacts the holes out in place and
///   hands the buffers to the returned [`CsrGraph`], and
///   [`AggregateScratch::recycle`] takes a retired graph's buffers back
///   as a spare slot set. The pass loop ping-pongs between two sets:
///   one sized by [`AggregateScratch::reserve`] for the input's arcs,
///   and one sized exactly for the first supergraph's arcs, created
///   only when a run aggregates twice.
///
/// Protocol per pass: [`AggregateScratch::prepare`], then one
/// [`AggregateScratch::write_row`] per super-vertex (rows in parallel),
/// guided by
/// [`AggregateScratch::members`] / [`AggregateScratch::capacity`],
/// then [`AggregateScratch::squeeze`].
#[derive(Debug, Default)]
pub struct AggregateScratch {
    /// Block 0's per-community member count, then its member scatter
    /// cursor, then (reset once the scatter has ended) the
    /// super-vertex's holey arc fill count.
    cursors: Vec<AtomicU32>,
    /// Member counts, then scatter cursors, of key blocks `3..T` of a
    /// `T`-worker `prepare`: block `b`'s row is
    /// `[(b - 3) * num_groups, (b - 2) * num_groups)`.
    block_cursors: Vec<u32>,
    /// Member offsets of the grouped CSR (`num_groups + 1` live slots).
    /// 32 bits suffice: they index the member array, whose length is
    /// the vertex count of the graph being aggregated.
    group_offsets: Vec<u32>,
    /// Member array of the grouped CSR (`keys.len()` live slots).
    members: Vec<VertexId>,
    /// Count rows of key blocks 1 and 2 during `prepare`'s member
    /// grouping, then per-community total degree (the capacity
    /// overestimate), prefix-summed in place into the holey super-CSR
    /// offsets (`num_groups + 1` live slots).
    holey_offsets: Vec<AtomicU64>,
    /// The slot set the current epoch fills.
    slots: SlotSet,
    /// Slot sets backing no live graph, waiting for a later epoch (an
    /// entry with no capacity is absent).
    spare: [SlotSet; MAX_SPARE_SETS],
    /// Communities in the current `prepare` epoch.
    num_groups: usize,
}

impl AggregateScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups in the current epoch.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.num_groups
    }

    /// Pre-grows every buffer for up to `num_groups` groups and
    /// `total_arcs` holey slots, so subsequent [`Self::prepare`] /
    /// [`Self::squeeze`] epochs on inputs within those bounds allocate
    /// nothing. Grow-only and exact; contents are untouched (each epoch
    /// reinitializes the prefixes it uses).
    pub fn reserve(&mut self, num_groups: usize, total_arcs: usize) {
        self.reserve_groups(num_groups, num_groups);
        self.park_slots();
        self.fit_spare(total_arcs);
    }

    /// Grows the per-group buffers for `num_groups` groups and the
    /// member array for `num_keys` elements, each to exactly that size.
    fn reserve_groups(&mut self, num_groups: usize, num_keys: usize) {
        let g = num_groups;
        if self.cursors.len() < g {
            resize_exact(&mut self.cursors, g, || AtomicU32::new(0));
        }
        if self.group_offsets.len() < g + 1 {
            resize_exact(&mut self.group_offsets, g + 1, || 0);
            resize_exact(&mut self.holey_offsets, g + 1, || AtomicU64::new(0));
        }
        if self.members.len() < num_keys {
            resize_exact(&mut self.members, num_keys, || 0);
        }
    }

    /// Returns the current epoch's slot set, if it was never squeezed,
    /// to the spares.
    fn park_slots(&mut self) {
        let set = std::mem::take(&mut self.slots);
        self.stash(set);
    }

    /// Keeps `set` as a spare in place of the smallest spare, unless
    /// that one is larger; the smaller of the two is dropped.
    fn stash(&mut self, set: SlotSet) {
        if let Some(smallest) = self.spare.iter_mut().min_by_key(|s| s.capacity()) {
            if smallest.capacity() < set.capacity() {
                *smallest = set;
            }
        }
    }

    /// Index of the spare set to hold `arcs` slots: the smallest whose
    /// capacity suffices, or else the largest regrown to exactly
    /// `arcs`.
    fn fit_spare(&mut self, arcs: usize) -> usize {
        let capacity = |i: &usize| self.spare[*i].capacity();
        let smallest_fit = (0..MAX_SPARE_SETS)
            .filter(|i| capacity(i) >= arcs)
            .min_by_key(capacity);
        if let Some(i) = smallest_fit {
            return i;
        }
        let i = (0..MAX_SPARE_SETS).max_by_key(capacity).unwrap_or(0);
        let set = &mut self.spare[i];
        // The old slots hold nothing worth copying: free them before
        // allocating, so the two never coexist.
        set.targets = Vec::new();
        set.weights = Vec::new();
        set.targets.reserve_exact(arcs);
        set.weights.reserve_exact(arcs);
        i
    }

    /// Groups elements `0..keys.len()` by `keys[i] ∈ 0..num_groups`,
    /// each group's members in ascending order, sums `degree_of` over
    /// each group's members into its capacity, then lays out the holey
    /// super-CSR over those capacities in the smallest spare slot set
    /// that holds them. Reuses all prior storage; allocates only when
    /// the input outgrows every spare set, or a pool of more than three
    /// workers first meets this many groups.
    pub fn prepare(
        &mut self,
        keys: &[VertexId],
        num_groups: usize,
        degree_of: impl Fn(usize) -> u64 + Sync,
    ) {
        self.num_groups = num_groups;
        let g = num_groups;
        let len = keys.len();
        // Grow-only capacity; stale values are overwritten below before
        // any read.
        self.reserve_groups(g, len);
        let blocks = workers();
        let spilled = blocks.saturating_sub(BORROWED_ROWS) * g;
        if self.block_cursors.len() < spilled {
            resize_exact(&mut self.block_cursors, spilled, || 0);
        }

        {
            // Row `b` of the per-block count matrix. The first three rows
            // borrow buffers that are idle until the scatter ends: the
            // cursors, and the holey offsets as two `u32` per group.
            let first = SharedSlice::new(plain_u32_mut(&mut self.cursors[..g]));
            let second_third = SharedSlice::new(plain_u32_pairs_mut(&mut self.holey_offsets[..g]));
            let rest = SharedSlice::new(&mut self.block_cursors[..spilled]);
            // The loops below take row `b` whole only in the body that
            // owns key block `b` (count, scatter), or touch only column
            // `c` of every row in the body that owns group `c` (cursors).
            let row = |b: usize| match b {
                0 => (&first, 0),
                1 | 2 => (&second_third, (b - 1) * g),
                _ => (&rest, (b - BORROWED_ROWS) * g),
            };

            // Each static block of keys counts its members per group.
            static_blocks(len, |b, range| {
                assert!(b < blocks, "key blocks differ from the worker count");
                let (rows, base) = row(b);
                // SAFETY: block `b` alone touches row `b` in this loop.
                let counts = unsafe { rows.slice_mut(base..base + g) };
                counts.fill(0);
                for i in range {
                    counts[keys[i] as usize] += 1;
                }
            });

            // Grouped-CSR offsets: per-group totals over the rows,
            // scanned in place; then each row's counts become that
            // block's cursors, so a group's block-b members follow those
            // of blocks 0..b.
            let offsets = &mut self.group_offsets[..g + 1];
            static_for_mut(&mut offsets[..g], |c, total| {
                *total = (0..blocks)
                    .map(|b| {
                        let (rows, base) = row(b);
                        // SAFETY: column `c` is read by this body only.
                        unsafe { rows.read(base + c) }
                    })
                    .sum();
            });
            let total = parallel_exclusive_scan(&mut offsets[..g]);
            offsets[g] = total;
            debug_assert_eq!(total as usize, len);
            let offsets = &offsets[..g];
            static_for(g, |c| {
                let mut cursor = offsets[c];
                for b in 0..blocks {
                    let (rows, base) = row(b);
                    // SAFETY: column `c` is touched by this body only.
                    unsafe {
                        let count = rows.read(base + c);
                        rows.write(base + c, cursor);
                        cursor += count;
                    }
                }
            });

            // Scatter: each block walks its keys in order and writes them
            // at its own cursors, so every group's members ascend.
            let out = SharedSlice::new(&mut self.members[..len]);
            static_blocks(len, |b, range| {
                let (rows, base) = row(b);
                // SAFETY: block `b` alone touches row `b` in this loop.
                let cursors = unsafe { rows.slice_mut(base..base + g) };
                for i in range {
                    let cursor = &mut cursors[keys[i] as usize];
                    // SAFETY: block `b`'s cursor for a group walks the
                    // slots its own count reserved in that group's range,
                    // which no other block's cursor covers.
                    unsafe { out.write(*cursor as usize, i as VertexId) };
                    *cursor += 1;
                }
            });
        }

        // The scatter is done with the cursors: from here on they hold
        // each super-vertex's row length, 0 until its row is written.
        // Relaxed stores: bulk reinitialization; the end of the loop
        // publishes them.
        let cursors = &self.cursors[..g];
        static_for(g, |c| cursors[c].store(0, Ordering::Relaxed));

        // Holey offsets: each group's capacity (its members' total
        // degree), prefix-summed in place.
        let total_cap = {
            let (members, groups) = (&self.members[..len], &self.group_offsets[..g + 1]);
            let offsets = plain_mut(&mut self.holey_offsets[..g + 1]);
            static_for_mut(&mut offsets[..g], |c, capacity| {
                let range = groups[c] as usize..groups[c + 1] as usize;
                *capacity = members[range].iter().map(|&i| degree_of(i as usize)).sum();
            });
            let total = parallel_exclusive_scan(&mut offsets[..g]);
            offsets[g] = total;
            total as usize
        };
        // Slots are written before being read (gated by the fill
        // counts), so stale contents are harmless; only slots past the
        // set's current length need initializing.
        self.park_slots();
        let i = self.fit_spare(total_cap);
        let mut set = std::mem::take(&mut self.spare[i]);
        set.targets.resize_with(total_cap, || AtomicU32::new(0));
        set.weights.resize_with(total_cap, || AtomicU32::new(0));
        self.slots = set;
    }

    /// Members of group `g` in the current epoch.
    #[inline]
    pub fn members(&self, g: VertexId) -> &[VertexId] {
        let g = g as usize;
        debug_assert!(g < self.num_groups);
        &self.members[self.group_offsets[g] as usize..self.group_offsets[g + 1] as usize]
    }

    /// Capacity overestimate (total member degree) of super-vertex `c`.
    #[inline]
    pub fn capacity(&self, c: VertexId) -> u64 {
        let (lo, hi) = self.holey_range(c as usize);
        hi - lo
    }

    /// Holey slot range `[lo, hi)` of super-vertex `u`.
    #[inline]
    fn holey_range(&self, u: usize) -> (u64, u64) {
        // Relaxed: the offsets were written under `&mut self` in
        // `prepare`; every reader runs after that.
        (
            self.holey_offsets[u].load(Ordering::Relaxed),
            self.holey_offsets[u + 1].load(Ordering::Relaxed),
        )
    }

    /// Writes super-vertex `u`'s row — its arcs in iteration order — into
    /// the holey super-CSR, replacing whatever the epoch held for it.
    ///
    /// Each row has one writer: the aggregation worker that claimed
    /// community `u` writes the whole row at once. So the row costs one
    /// range lookup, plain payload stores and one fill-count store, and
    /// no slot is claimed arc by arc. Concurrent calls for distinct rows
    /// are fine; the end of the filling loop publishes every row to
    /// [`AggregateScratch::squeeze`].
    ///
    /// Returns the row's length (the super-vertex's degree) and its
    /// weighted degree: its weights widened to `f64` and summed in row
    /// order, bit-identical to [`CsrGraph::weighted_degree`] of the
    /// squeezed row, so the next pass need not walk the row again.
    ///
    /// # Panics
    /// Panics when the row outgrows super-vertex `u`'s capacity (a bug
    /// in the degree overestimate, never expected in correct use).
    #[inline]
    pub fn write_row(
        &self,
        u: VertexId,
        arcs: impl IntoIterator<Item = (VertexId, EdgeWeight)>,
    ) -> (usize, f64) {
        let u = u as usize;
        let (lo, hi) = self.holey_range(u);
        let (lo, hi) = (lo as usize, hi as usize);
        let slots = self.slots.targets[lo..hi]
            .iter()
            .zip(&self.slots.weights[lo..hi]);
        let mut arcs = arcs.into_iter();
        let mut fill = 0u32;
        // `zip` polls the slots first, so an arc past the capacity stays
        // in `arcs` for the check below.
        let weighted_degree = slots
            .zip(&mut arcs)
            .map(|((target, weight), (v, w))| {
                // Relaxed: this row has one writer, and readers only run
                // after the filling loop's join.
                target.store(v, Ordering::Relaxed);
                // Relaxed: as above.
                weight.store(w.to_bits(), Ordering::Relaxed);
                fill += 1;
                w as f64
            })
            .sum();
        assert!(
            arcs.next().is_none(),
            "holey CSR capacity exceeded for vertex {u}: cap {}",
            hi - lo
        );
        // Relaxed: published with the payloads at the loop's join.
        self.cursors[u].store(fill, Ordering::Relaxed);
        (fill as usize, weighted_degree)
    }

    /// Squeezes the holes out of the slot arrays **in place** and hands
    /// the same buffers to the returned [`CsrGraph`]: no second buffer
    /// and no copy beyond moving rows down. Rows keep their arc order
    /// and weight bits.
    ///
    /// Row `u`'s dense start sums the fill counts before it and its
    /// holey start sums the capacities before it; fill never exceeds
    /// capacity, so every prefix of rows compacts into no more room than
    /// it held. The move runs in two steps:
    ///
    /// 1. each static block of rows, in parallel, moves its rows left to
    ///    right to the front of the block's own holey range. A moved row
    ///    ends at or before the next row's holey start, so no move
    ///    overwrites a row that has yet to move, and no block writes
    ///    outside its own range;
    /// 2. on the calling thread, in block order, each block's compacted
    ///    run moves down to its dense start. That start is at or before
    ///    the run's holey start, and the run's new end is the next run's
    ///    dense start, at or before that run's holey start, so no move
    ///    overwrites a run that has yet to move.
    ///
    /// At one thread step 1 moves every row straight to its dense place.
    pub fn squeeze(&mut self) -> CsrGraph {
        let g = self.num_groups;
        let SlotSet {
            mut offsets,
            targets,
            weights,
        } = std::mem::take(&mut self.slots);
        offsets.clear();
        offsets.reserve_exact(g + 1);
        offsets.resize(g + 1, 0);
        let fills = &self.cursors[..g];
        // Relaxed: read-back of the fill counts after the filling loop.
        static_for_mut(&mut offsets[..g], |u, o| {
            *o = u64::from(fills[u].load(Ordering::Relaxed))
        });
        let total = parallel_exclusive_scan(&mut offsets[..g]);
        offsets[g] = total;

        let mut targets: Vec<VertexId> = atomic_into_plain(targets);
        let mut weights: Vec<EdgeWeight> = atomic_into_plain(weights);
        // Relaxed: the holey offsets were written under `&mut self` in
        // `prepare`.
        let holey = |u: usize| self.holey_offsets[u].load(Ordering::Relaxed) as usize;
        let runs: Vec<(usize, usize, usize)> = {
            let (all_targets, all_weights) = (
                SharedSlice::new(&mut targets),
                SharedSlice::new(&mut weights),
            );
            let offsets = &offsets;
            static_blocks(g, |_, rows| {
                let (lo, hi) = (holey(rows.start), holey(rows.end));
                // SAFETY: the row blocks of one static split are
                // disjoint, and so are their holey ranges.
                let targets = unsafe { all_targets.slice_mut(lo..hi) };
                // SAFETY: as above.
                let weights = unsafe { all_weights.slice_mut(lo..hi) };
                let base = offsets[rows.start] as usize;
                for u in rows.clone() {
                    let src = holey(u) - lo;
                    let (dst, end) = (offsets[u] as usize - base, offsets[u + 1] as usize - base);
                    if src != dst {
                        targets.copy_within(src..src + (end - dst), dst);
                        weights.copy_within(src..src + (end - dst), dst);
                    }
                }
                (lo, base, offsets[rows.end] as usize - base)
            })
        };
        for (src, dst, len) in runs {
            if src != dst {
                targets.copy_within(src..src + len, dst);
                weights.copy_within(src..src + len, dst);
            }
        }
        targets.truncate(total as usize);
        weights.truncate(total as usize);
        // Trusted: targets are dense ids < g written by `write_row`,
        // offsets are a prefix sum over the fill counts.
        CsrGraph::from_raw_trusted(offsets, targets, weights)
    }

    /// Takes a retired graph's buffers back as a spare slot set for a
    /// later epoch. Keeps at most `MAX_SPARE_SETS`; beyond that the
    /// smallest set is dropped.
    pub fn recycle(&mut self, graph: CsrGraph) {
        let (offsets, targets, weights) = graph.into_raw();
        self.stash(SlotSet {
            offsets,
            targets: plain_into_atomic(targets),
            weights: plain_into_atomic(weights),
        });
    }

    /// Arc capacities of the spare slot sets, ascending (test hook).
    pub fn spare_capacities(&self) -> Vec<usize> {
        let mut capacities: Vec<usize> = self
            .spare
            .iter()
            .map(SlotSet::capacity)
            .filter(|&c| c > 0)
            .collect();
        capacities.sort_unstable();
        capacities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_by_basic() {
        let keys = vec![1, 0, 1, 2, 1];
        let g = GroupedCsr::group_by(&keys, 3);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_members(), 5);
        assert_eq!(g.members(0), &[1]);
        let mut g1 = g.members(1).to_vec();
        g1.sort_unstable();
        assert_eq!(g1, vec![0, 2, 4]);
        assert_eq!(g.members(2), &[3]);
        assert_eq!(g.group_len(1), 3);
    }

    #[test]
    fn group_by_empty_groups() {
        let keys = vec![2, 2];
        let g = GroupedCsr::group_by(&keys, 4);
        assert_eq!(g.group_len(0), 0);
        assert_eq!(g.group_len(1), 0);
        assert_eq!(g.group_len(2), 2);
        assert_eq!(g.group_len(3), 0);
    }

    #[test]
    fn group_by_no_elements() {
        let g = GroupedCsr::group_by(&[], 3);
        assert_eq!(g.num_groups(), 3);
        assert_eq!(g.num_members(), 0);
    }

    /// One epoch in which group `c`'s row holds, per member `v`, the arc
    /// `c → v % num_groups` with weight `slot + 1`, returning the
    /// supergraph and the rows a naive per-row build gives.
    fn epoch(
        scratch: &mut AggregateScratch,
        keys: &[VertexId],
        num_groups: usize,
        degrees: &[u64],
    ) -> (CsrGraph, Vec<Vec<(VertexId, u32)>>) {
        scratch.prepare(keys, num_groups, |v| degrees[v]);
        let mut rows = vec![Vec::new(); num_groups];
        let mut written = Vec::with_capacity(num_groups);
        for c in 0..num_groups as u32 {
            let expected: u64 = scratch
                .members(c)
                .iter()
                .map(|&v| degrees[v as usize])
                .sum();
            assert_eq!(scratch.capacity(c), expected, "fused capacity of {c}");
            let row: Vec<(VertexId, EdgeWeight)> = scratch
                .members(c)
                .iter()
                .enumerate()
                .map(|(slot, &v)| (v % num_groups as u32, slot as f32 + 1.0))
                .collect();
            written.push(scratch.write_row(c, row.iter().copied()));
            rows[c as usize] = row.iter().map(|&(d, w)| (d, w.to_bits())).collect();
        }
        let graph = scratch.squeeze();
        for (c, &(len, weighted)) in written.iter().enumerate() {
            let c = c as VertexId;
            assert_eq!(len, graph.degree(c), "row {c} length");
            assert_eq!(
                weighted.to_bits(),
                graph.weighted_degree(c).to_bits(),
                "row {c} weighted degree"
            );
        }
        (graph, rows)
    }

    fn assert_rows(graph: &CsrGraph, rows: &[Vec<(VertexId, u32)>]) {
        graph.validate().unwrap();
        assert_eq!(graph.num_vertices(), rows.len());
        for (u, row) in rows.iter().enumerate() {
            let got: Vec<_> = graph
                .edges(u as u32)
                .map(|(v, w)| (v, w.to_bits()))
                .collect();
            assert_eq!(&got, row, "row {u}");
        }
    }

    /// The member lists (and capacities) `prepare` builds are the
    /// sequential counting sort's at every thread count, including the
    /// fourth worker whose count row is not borrowed.
    #[test]
    fn prepare_groups_members_in_ascending_order_at_every_thread_count() {
        let n = 5000u32;
        let keys: Vec<u32> = (0..n)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) % 613)
            .collect();
        let degrees: Vec<u64> = (0..n as u64).map(|i| i % 9).collect();
        let expected = GroupedCsr::group_by(&keys, 700);
        for threads in [1, 2, 3, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut scratch = AggregateScratch::new();
            // Twice: the second epoch reuses the first one's buffers.
            for _ in 0..2 {
                pool.install(|| scratch.prepare(&keys, 700, |v| degrees[v]));
                for c in 0..700u32 {
                    assert_eq!(scratch.members(c), expected.members(c), "{threads} threads");
                    let capacity: u64 = expected
                        .members(c)
                        .iter()
                        .map(|&v| degrees[v as usize])
                        .sum();
                    assert_eq!(scratch.capacity(c), capacity);
                }
            }
        }
    }

    #[test]
    fn squeeze_compacts_in_place_across_epochs() {
        let mut scratch = AggregateScratch::new();
        // Shrinking epochs, as in the pass loop, with one growth in
        // between to exercise the grow path too.
        let epochs: Vec<(Vec<u32>, usize)> = vec![
            ((0..600u32).map(|i| i % 37).collect(), 37),
            ((0..300u32).map(|i| (i * 7) % 11).collect(), 11),
            ((0..900u32).map(|i| (i * 13) % 53).collect(), 53),
            (vec![0, 0, 0], 1),
        ];
        // Also more workers than groups (the last epoch): empty row
        // blocks in the squeeze.
        for threads in [1, 2, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for (keys, num_groups) in &epochs {
                let degrees: Vec<u64> = (0..keys.len() as u64).map(|i| 1 + i % 5).collect();
                let (graph, rows) =
                    pool.install(|| epoch(&mut scratch, keys, *num_groups, &degrees));
                assert_rows(&graph, &rows);
                scratch.recycle(graph);
            }
        }
    }

    #[test]
    fn squeezed_graph_owns_the_slot_buffers() {
        let mut scratch = AggregateScratch::new();
        scratch.reserve(4, 100);
        assert_eq!(scratch.spare_capacities(), vec![100]);
        let keys = [0, 1, 1, 3];
        let (graph, rows) = epoch(&mut scratch, &keys, 4, &[10, 20, 30, 40]);
        assert_rows(&graph, &rows);
        assert!(scratch.spare_capacities().is_empty());
        let (_, targets, weights) = graph.into_raw();
        assert_eq!((targets.capacity(), weights.capacity()), (100, 100));
    }

    #[test]
    fn ping_pong_keeps_two_sets_and_allocates_exactly() {
        let mut scratch = AggregateScratch::new();
        scratch.reserve(8, 64);
        let keys: Vec<u32> = (0..8).collect();
        // Pass 0 fills the reserved set; pass 1, with pass 0's graph
        // still live, gets a new set of exactly its 24 slots.
        let (g0, _) = epoch(&mut scratch, &keys, 8, &[8; 8]);
        let (g1, _) = epoch(&mut scratch, &keys[..6], 6, &[4; 6]);
        scratch.recycle(g0);
        let (g2, _) = epoch(&mut scratch, &keys[..3], 3, &[2; 3]);
        scratch.recycle(g1);
        scratch.recycle(g2);
        assert_eq!(scratch.spare_capacities(), vec![24, 64]);
        // A third retired graph drops the smallest set.
        scratch.recycle(CsrGraph::empty(3));
        assert_eq!(scratch.spare_capacities(), vec![24, 64]);
    }

    #[test]
    fn unsqueezed_epoch_returns_its_set() {
        let mut scratch = AggregateScratch::new();
        scratch.prepare(&[0, 0], 1, |_| 5);
        scratch.prepare(&[0], 1, |_| 3);
        let (graph, rows) = epoch(&mut scratch, &[0, 0], 1, &[1, 1]);
        assert_rows(&graph, &rows);
        assert!(scratch.spare_capacities().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn aggregate_scratch_overflow_panics() {
        let mut scratch = AggregateScratch::new();
        scratch.prepare(&[0], 1, |_| 1);
        scratch.write_row(0, [(0, 1.0), (0, 1.0)]);
    }

    /// A row written to exactly its capacity, an empty row, and a
    /// rewritten row: the last write of a row is the one squeezed.
    #[test]
    fn row_writes_fill_to_capacity_and_replace() {
        let mut scratch = AggregateScratch::new();
        scratch.prepare(&[0, 1, 2], 3, |_| 2);
        scratch.write_row(0, [(1, 1.0), (2, 2.0)]);
        scratch.write_row(2, [(0, 4.0), (1, 5.0)]);
        scratch.write_row(2, [(1, 6.0)]);
        let graph = scratch.squeeze();
        assert_rows(
            &graph,
            &[
                vec![(1, 1f32.to_bits()), (2, 2f32.to_bits())],
                vec![],
                vec![(1, 6f32.to_bits())],
            ],
        );
    }

    /// Rows written concurrently, one writer each, all land intact.
    #[test]
    fn concurrent_row_writes_squeeze_every_arc() {
        let (n, per) = (100u32, 50u32);
        let keys: Vec<u32> = (0..n).collect();
        let mut scratch = AggregateScratch::new();
        scratch.prepare(&keys, n as usize, |_| per as u64 + 3);
        static_for(n as usize, |u| {
            scratch.write_row(u as u32, (0..per).rev().map(|v| (v, 1.0)));
        });
        let graph = scratch.squeeze();
        assert_eq!(graph.num_arcs(), (n * per) as usize);
        for u in 0..n {
            let mut nb = graph.neighbors(u).to_vec();
            nb.sort_unstable();
            assert_eq!(nb, (0..per).collect::<Vec<_>>());
        }
    }

    #[test]
    fn group_by_large_partitions_everything_once() {
        let n = 200_000usize;
        let keys: Vec<u32> = (0..n).map(|i| (i % 977) as u32).collect();
        let g = GroupedCsr::group_by(&keys, 977);
        assert_eq!(g.num_members(), n);
        let mut seen = vec![false; n];
        for grp in 0..977u32 {
            for &m in g.members(grp) {
                assert_eq!(keys[m as usize], grp);
                assert!(!seen[m as usize]);
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
