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
//!    gap-containing ("holey") arrays as they are discovered
//!    ([`HoleyCsrBuilder`]). Avoiding an exact counting pass is the
//!    optimization; the holes are squeezed out when freezing to
//!    [`CsrGraph`].

use crate::{CsrGraph, EdgeWeight, VertexId};
use gve_prim::scan::{parallel_exclusive_scan, parallel_offsets_from_counts};
use gve_prim::SharedSlice;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Over-allocated CSR filled concurrently with atomic slot claiming.
#[derive(Debug)]
pub struct HoleyCsrBuilder {
    offsets: Vec<u64>,
    fill: Vec<AtomicU32>,
    targets: Vec<AtomicU32>,
    /// f32 weight bit patterns, written once per claimed slot.
    weights: Vec<AtomicU32>,
}

impl HoleyCsrBuilder {
    /// Creates a builder whose vertex `u` can hold up to `capacities[u]`
    /// arcs.
    pub fn new(capacities: &[u64]) -> Self {
        let offsets = parallel_offsets_from_counts(capacities);
        let total = *offsets.last().unwrap() as usize;
        Self {
            offsets,
            fill: (0..capacities.len()).map(|_| AtomicU32::new(0)).collect(),
            targets: (0..total).map(|_| AtomicU32::new(0)).collect(),
            weights: (0..total).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.fill.len()
    }

    /// Arcs added to vertex `u` so far.
    #[inline]
    pub fn degree(&self, u: VertexId) -> usize {
        // Relaxed: a monotone tally; exact snapshots only matter after
        // the building phase's rayon join.
        self.fill[u as usize].load(Ordering::Relaxed) as usize
    }

    /// Adds arc `u → v` with weight `w`. Thread-safe; slots are claimed
    /// with a `fetch_add` on the per-vertex cursor.
    ///
    /// # Panics
    /// Panics when vertex `u`'s capacity is exceeded (a bug in the degree
    /// overestimate, never expected in correct use).
    #[inline]
    pub fn add_arc(&self, u: VertexId, v: VertexId, w: EdgeWeight) {
        let u = u as usize;
        // Relaxed slot claim: fetch_add alone guarantees the claimed
        // index is unique; the payload stores below go to that unique
        // slot, and readers only run after the building join.
        let slot = self.fill[u].fetch_add(1, Ordering::Relaxed) as u64;
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        assert!(
            lo + slot < hi,
            "holey CSR capacity exceeded for vertex {u}: cap {}",
            hi - lo
        );
        let index = (lo + slot) as usize;
        // Relaxed payload stores into the uniquely claimed slot; readers
        // only run after the building phase's join.
        self.targets[index].store(v, Ordering::Relaxed);
        self.weights[index].store(w.to_bits(), Ordering::Relaxed);
    }

    /// Squeezes the holes out, producing a dense [`CsrGraph`].
    pub fn into_csr(self) -> CsrGraph {
        let n = self.fill.len();
        // Relaxed loads below: `self` is owned here, so every add_arc
        // store is already ordered before this call.
        let counts: Vec<u64> = self
            .fill
            .iter()
            .map(|f| f.load(Ordering::Relaxed) as u64)
            .collect();
        let dense_offsets = parallel_offsets_from_counts(&counts);
        let total = *dense_offsets.last().unwrap() as usize;
        let mut targets = vec![0 as VertexId; total];
        let mut weights = vec![0.0 as EdgeWeight; total];
        {
            let t_out = SharedSlice::new(&mut targets);
            let w_out = SharedSlice::new(&mut weights);
            let src_t = &self.targets;
            let src_w = &self.weights;
            let holey_offsets = &self.offsets;
            (0..n).into_par_iter().for_each(|u| {
                let src = holey_offsets[u] as usize;
                let dst = dense_offsets[u] as usize;
                let len = counts[u] as usize;
                for k in 0..len {
                    // SAFETY: destination ranges [dst, dst+len) are
                    // disjoint across vertices by construction of the
                    // prefix sum. (Relaxed source loads: the arcs were
                    // published by the pre-into_csr ownership transfer.)
                    unsafe {
                        t_out.write(dst + k, src_t[src + k].load(Ordering::Relaxed));
                        w_out.write(
                            dst + k,
                            EdgeWeight::from_bits(src_w[src + k].load(Ordering::Relaxed)),
                        );
                    }
                }
            });
        }
        CsrGraph::from_raw(dense_offsets, targets, weights)
    }
}

/// Exact-size CSR mapping group id → member elements, built in parallel.
///
/// This is the community-vertices structure `G'_{C'}`: `group_by` counts
/// members per group, prefix-sums the counts into offsets, then scatters
/// members with atomic per-group cursors (Algorithm 4, lines 3–6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupedCsr {
    offsets: Vec<u64>,
    members: Vec<VertexId>,
}

impl GroupedCsr {
    /// Groups elements `0..keys.len()` by `keys[i] ∈ 0..num_groups`.
    pub fn group_by(keys: &[VertexId], num_groups: usize) -> Self {
        // Count members per group. Relaxed throughout the counting and
        // scatter steps: counters are tallies/slot cursors ordered by
        // the rayon joins between the steps.
        let counts: Vec<AtomicU32> = (0..num_groups).map(|_| AtomicU32::new(0)).collect();
        keys.par_iter().for_each(|&k| {
            counts[k as usize].fetch_add(1, Ordering::Relaxed);
        });
        let counts_u64: Vec<u64> = counts
            .iter()
            // Relaxed: post-join read-back, then reset — see above.
            .map(|c| c.load(Ordering::Relaxed) as u64)
            .collect();
        let offsets = parallel_offsets_from_counts(&counts_u64);
        // Scatter members; reuse `counts` as cursors.
        for c in &counts {
            c.store(0, Ordering::Relaxed);
        }
        let total = *offsets.last().unwrap() as usize;
        let mut members = vec![0 as VertexId; total];
        {
            let out = SharedSlice::new(&mut members);
            let offsets = &offsets;
            let counts = &counts;
            (0..keys.len()).into_par_iter().for_each(|i| {
                let g = keys[i] as usize;
                // Relaxed slot claim: uniqueness comes from fetch_add.
                let slot = counts[g].fetch_add(1, Ordering::Relaxed) as u64;
                // SAFETY: (group base + claimed slot) pairs are unique.
                unsafe { out.write((offsets[g] + slot) as usize, i as VertexId) };
            });
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

/// How many retired super-vertex CSR buffer sets [`AggregateScratch`]
/// keeps for reuse. Two suffices for the pass loop's double buffering
/// (the live graph plus the one being built).
const RECYCLE_DEPTH: usize = 2;

/// Pass-resident scratch fusing [`GroupedCsr`] and [`HoleyCsrBuilder`]
/// into one grow-only arena, so the aggregation phase performs zero
/// steady-state allocation:
///
/// * the member-counting sweep **also** folds each community's total
///   degree (the holey capacity overestimate), eliminating the separate
///   nested capacity pass; the totals are prefix-summed in place into
///   the holey offsets, and the member cursors turn into the arc fill
///   counts, so neither needs a buffer of its own;
/// * every offsets/cursor/slot array is reused across passes — pass `k`
///   views a shrinking prefix of the same memory;
/// * [`AggregateScratch::squeeze`] writes the dense super-vertex CSR
///   into buffers recovered from a previously retired graph
///   ([`AggregateScratch::recycle`]), completing the double buffer.
///
/// Protocol per pass: [`AggregateScratch::prepare`], then concurrent
/// [`AggregateScratch::add_arc`] guided by
/// [`AggregateScratch::members`] / [`AggregateScratch::capacity`],
/// then [`AggregateScratch::squeeze`].
#[derive(Debug, Default)]
pub struct AggregateScratch {
    /// Per-community member count, then member scatter cursor, then
    /// (reset once the scatter has joined) the super-vertex's holey arc
    /// fill count.
    cursors: Vec<AtomicU32>,
    /// Member offsets of the grouped CSR (`num_groups + 1` live slots).
    group_offsets: Vec<u64>,
    /// Member array of the grouped CSR (`keys.len()` live slots).
    members: Vec<VertexId>,
    /// Per-community total degree (the capacity overestimate), folded
    /// during the same sweep that counts members, then prefix-summed in
    /// place into the holey super-CSR offsets (`num_groups + 1` live
    /// slots).
    holey_offsets: Vec<AtomicU64>,
    /// Holey arc slots (targets and f32 weight bit patterns).
    slot_targets: Vec<AtomicU32>,
    slot_weights: Vec<AtomicU32>,
    /// Retired dense CSR buffers awaiting reuse by `squeeze`.
    recycled: Vec<(Vec<u64>, Vec<VertexId>, Vec<EdgeWeight>)>,
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
    /// nothing. Grow-only; contents are untouched (each epoch
    /// reinitializes the prefixes it uses).
    pub fn reserve(&mut self, num_groups: usize, total_arcs: usize) {
        let g = num_groups;
        if self.cursors.len() < g {
            self.cursors.resize_with(g, || AtomicU32::new(0));
        }
        if self.group_offsets.len() < g + 1 {
            self.group_offsets.resize(g + 1, 0);
            self.holey_offsets.resize_with(g + 1, || AtomicU64::new(0));
        }
        if self.members.len() < g {
            self.members.resize(g, 0);
        }
        if self.slot_targets.len() < total_arcs {
            self.slot_targets
                .resize_with(total_arcs, || AtomicU32::new(0));
            self.slot_weights
                .resize_with(total_arcs, || AtomicU32::new(0));
        }
    }

    /// Groups elements `0..keys.len()` by `keys[i] ∈ 0..num_groups` and
    /// folds `degree_of(i)` into each group's capacity in the same
    /// sweep, then lays out the holey super-CSR over those capacities.
    /// Reuses all prior storage; allocates only when the input outgrows
    /// every previous epoch.
    pub fn prepare(
        &mut self,
        keys: &[VertexId],
        num_groups: usize,
        degree_of: impl Fn(usize) -> u64 + Sync,
    ) {
        self.num_groups = num_groups;
        let g = num_groups;
        // Grow-only capacity. `resize_with` on the atomic arrays keeps
        // existing elements; stale values are overwritten by the resets
        // below before any read.
        if self.cursors.len() < g {
            self.cursors.resize_with(g, || AtomicU32::new(0));
        }
        if self.group_offsets.len() < g + 1 {
            self.group_offsets.resize(g + 1, 0);
            self.holey_offsets.resize_with(g + 1, || AtomicU64::new(0));
        }
        if self.members.len() < keys.len() {
            self.members.resize(keys.len(), 0);
        }

        // Reset the live prefix in one parallel sweep. Relaxed stores:
        // bulk reinitialization between phases; the rayon join below
        // publishes them, exactly as in `GroupedCsr::group_by`.
        let cursors = &self.cursors[..g];
        let capacities = &self.holey_offsets[..g];
        (0..g).into_par_iter().for_each(|c| {
            // Relaxed: bulk reset between joins, as above.
            cursors[c].store(0, Ordering::Relaxed);
            capacities[c].store(0, Ordering::Relaxed);
        });

        // Fused sweep: member count + capacity (total degree) per group.
        keys.par_iter().enumerate().for_each(|(i, &k)| {
            // Relaxed: commutative tallies, published by the join.
            cursors[k as usize].fetch_add(1, Ordering::Relaxed);
            capacities[k as usize].fetch_add(degree_of(i), Ordering::Relaxed);
        });

        // Grouped-CSR offsets from the counts (in place, no staging).
        {
            let offsets = &mut self.group_offsets[..g + 1];
            offsets[..g]
                .par_iter_mut()
                .enumerate()
                // Relaxed: post-join read-back of the counts.
                .for_each(|(c, slot)| *slot = cursors[c].load(Ordering::Relaxed) as u64);
            let total = parallel_exclusive_scan(&mut offsets[..g]);
            offsets[g] = total;
            debug_assert_eq!(total as usize, keys.len());
        }

        // Scatter members, reusing the cursors.
        (0..g).into_par_iter().for_each(|c| {
            // Relaxed: bulk reset between joins, as above.
            cursors[c].store(0, Ordering::Relaxed);
        });
        {
            let out = SharedSlice::new(&mut self.members[..keys.len()]);
            let offsets = &self.group_offsets;
            (0..keys.len()).into_par_iter().for_each(|i| {
                let grp = keys[i] as usize;
                // Relaxed slot claim: uniqueness comes from fetch_add.
                let slot = cursors[grp].fetch_add(1, Ordering::Relaxed) as u64;
                // SAFETY: (group base + claimed slot) pairs are unique.
                unsafe { out.write((offsets[grp] + slot) as usize, i as VertexId) };
            });
        }

        // The scatter is done with the cursors: from here on they count
        // each super-vertex's claimed arc slots.
        (0..g).into_par_iter().for_each(|c| {
            // Relaxed: bulk reset between joins, as above.
            cursors[c].store(0, Ordering::Relaxed);
        });
        // Holey offsets: prefix-sum the capacity overestimates in place.
        let total_cap = {
            let offsets = plain_mut(&mut self.holey_offsets[..g + 1]);
            let total = parallel_exclusive_scan(&mut offsets[..g]);
            offsets[g] = total;
            total as usize
        };
        // Slot arrays are written before being read (gated by the fill
        // counts), so growth needs no clearing.
        if self.slot_targets.len() < total_cap {
            self.slot_targets
                .resize_with(total_cap, || AtomicU32::new(0));
            self.slot_weights
                .resize_with(total_cap, || AtomicU32::new(0));
        }
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

    /// Adds arc `u → v` with weight `w` to the holey super-CSR.
    /// Thread-safe, as in [`HoleyCsrBuilder::add_arc`].
    ///
    /// # Panics
    /// Panics when super-vertex `u`'s capacity is exceeded.
    #[inline]
    pub fn add_arc(&self, u: VertexId, v: VertexId, w: EdgeWeight) {
        let u = u as usize;
        // Relaxed slot claim + payload stores into the uniquely claimed
        // slot; readers only run after the building phase's join.
        let slot = self.cursors[u].fetch_add(1, Ordering::Relaxed) as u64;
        let (lo, hi) = self.holey_range(u);
        assert!(
            lo + slot < hi,
            "holey CSR capacity exceeded for vertex {u}: cap {}",
            hi - lo
        );
        let index = (lo + slot) as usize;
        self.targets_store(index, v, w);
    }

    #[inline]
    fn targets_store(&self, index: usize, v: VertexId, w: EdgeWeight) {
        // Relaxed: payload stores into a uniquely claimed slot; readers
        // only run after the building phase's join.
        self.slot_targets[index].store(v, Ordering::Relaxed);
        self.slot_weights[index].store(w.to_bits(), Ordering::Relaxed);
    }

    /// Squeezes the holes out into a dense [`CsrGraph`], writing into
    /// buffers recovered by [`AggregateScratch::recycle`] when any are
    /// available. The scratch itself stays allocated for the next pass.
    pub fn squeeze(&mut self) -> CsrGraph {
        let g = self.num_groups;
        let fill = &self.cursors[..g];
        // Take the *largest* recycled set, not the most recent: runs
        // retire their buffers small-to-large (the last, smallest
        // supergraph is recycled at run end, on top of the stack), so a
        // LIFO pop would hand pass 1 — the biggest squeeze — the
        // smallest buffers and reallocate every run.
        let (mut dense_offsets, mut targets, mut weights) = self
            .recycled
            .iter()
            .enumerate()
            .max_by_key(|(_, (_, t, _))| t.capacity())
            .map(|(i, _)| i)
            .map(|i| self.recycled.swap_remove(i))
            .unwrap_or_default();

        // Dense offsets from the fill counts. Shrinking reuse is a
        // truncate; only a first-use or growing buffer pays the zero
        // fill. Relaxed loads: post-join read-back.
        dense_offsets.clear();
        dense_offsets.resize(g + 1, 0);
        dense_offsets[..g]
            .par_iter_mut()
            .enumerate()
            .for_each(|(c, slot)| *slot = fill[c].load(Ordering::Relaxed) as u64);
        let total = parallel_exclusive_scan(&mut dense_offsets[..g]) as usize;
        dense_offsets[g] = total as u64;

        targets.clear();
        targets.resize(total, 0);
        weights.clear();
        weights.resize(total, 0.0);
        {
            let t_out = SharedSlice::new(&mut targets);
            let w_out = SharedSlice::new(&mut weights);
            let src_t = &self.slot_targets;
            let src_w = &self.slot_weights;
            let scratch = &*self;
            let dense_offsets = &dense_offsets;
            (0..g).into_par_iter().for_each(|u| {
                let src = scratch.holey_range(u).0 as usize;
                let dst = dense_offsets[u] as usize;
                // Relaxed: post-join read-back of the fill counts.
                let len = fill[u].load(Ordering::Relaxed) as usize;
                for k in 0..len {
                    // SAFETY: destination ranges [dst, dst+len) are
                    // disjoint across vertices by construction of the
                    // prefix sum. (Relaxed source loads: published by
                    // the building phase's join.)
                    unsafe {
                        t_out.write(dst + k, src_t[src + k].load(Ordering::Relaxed));
                        w_out.write(
                            dst + k,
                            EdgeWeight::from_bits(src_w[src + k].load(Ordering::Relaxed)),
                        );
                    }
                }
            });
        }
        // Trusted: targets are dense ids < g scattered by the builder,
        // offsets are a prefix sum over the fill counts.
        CsrGraph::from_raw_trusted(dense_offsets, targets, weights)
    }

    /// Recovers a retired graph's buffers for reuse by a later
    /// [`AggregateScratch::squeeze`]. Keeps at most [`RECYCLE_DEPTH`]
    /// sets; extras are dropped.
    pub fn recycle(&mut self, graph: CsrGraph) {
        if self.recycled.len() < RECYCLE_DEPTH {
            self.recycled.push(graph.into_raw());
        }
    }

    /// Number of buffer sets currently waiting for reuse (test hook).
    #[inline]
    pub fn recycled_buffers(&self) -> usize {
        self.recycled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holey_roundtrip_with_holes() {
        // Capacities larger than actual arcs: 0 gets cap 4 but 2 arcs.
        let b = HoleyCsrBuilder::new(&[4, 3, 2]);
        b.add_arc(0, 1, 1.0);
        b.add_arc(0, 2, 2.0);
        b.add_arc(1, 0, 1.0);
        b.add_arc(2, 0, 2.0);
        assert_eq!(b.degree(0), 2);
        assert_eq!(b.num_vertices(), 3);
        let g = b.into_csr();
        assert_eq!(g.num_arcs(), 4);
        let mut e0: Vec<_> = g.edges(0).collect();
        e0.sort_by_key(|&(v, _)| v);
        assert_eq!(e0, vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(0, 1.0)]);
    }

    #[test]
    fn holey_zero_capacity_vertices() {
        let b = HoleyCsrBuilder::new(&[0, 2, 0]);
        b.add_arc(1, 0, 1.0);
        let g = b.into_csr();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn holey_overflow_panics() {
        let b = HoleyCsrBuilder::new(&[1]);
        b.add_arc(0, 0, 1.0);
        b.add_arc(0, 0, 1.0);
    }

    #[test]
    fn holey_concurrent_fill() {
        use rayon::prelude::*;
        let n = 100u32;
        let per = 50u32;
        let caps = vec![per as u64; n as usize];
        let b = HoleyCsrBuilder::new(&caps);
        (0..n * per).into_par_iter().for_each(|i| {
            b.add_arc(i % n, i / n, 1.0);
        });
        let g = b.into_csr();
        assert_eq!(g.num_arcs(), (n * per) as usize);
        for u in 0..n {
            assert_eq!(g.degree(u), per as usize);
            let mut nb: Vec<_> = g.neighbors(u).to_vec();
            nb.sort_unstable();
            assert_eq!(nb, (0..per).collect::<Vec<_>>());
        }
    }

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

    /// Reference implementation: the scratch must reproduce exactly
    /// what the one-shot GroupedCsr + HoleyCsrBuilder pair produces.
    fn reference_aggregate(keys: &[VertexId], num_groups: usize, degrees: &[u64]) -> CsrGraph {
        let grouped = GroupedCsr::group_by(keys, num_groups);
        let capacities: Vec<u64> = (0..num_groups as u32)
            .map(|c| {
                grouped
                    .members(c)
                    .iter()
                    .map(|&v| degrees[v as usize])
                    .sum()
            })
            .collect();
        let builder = HoleyCsrBuilder::new(&capacities);
        for c in 0..num_groups as u32 {
            for (slot, &v) in grouped.members(c).iter().enumerate() {
                builder.add_arc(c, v % num_groups as u32, slot as f32 + 1.0);
            }
        }
        builder.into_csr()
    }

    fn scratch_aggregate(
        scratch: &mut AggregateScratch,
        keys: &[VertexId],
        num_groups: usize,
        degrees: &[u64],
    ) -> CsrGraph {
        scratch.prepare(keys, num_groups, |v| degrees[v]);
        for c in 0..num_groups as u32 {
            let expected: u64 = scratch
                .members(c)
                .iter()
                .map(|&v| degrees[v as usize])
                .sum();
            assert_eq!(scratch.capacity(c), expected, "fused capacity of {c}");
            for (slot, &v) in scratch.members(c).iter().enumerate() {
                scratch.add_arc(c, v % num_groups as u32, slot as f32 + 1.0);
            }
        }
        scratch.squeeze()
    }

    #[test]
    fn aggregate_scratch_matches_one_shot_builders_across_reuse() {
        let mut scratch = AggregateScratch::new();
        // Shrinking epochs, as in the pass loop; one growth in between
        // to exercise the grow path too.
        let epochs: Vec<(Vec<u32>, usize)> = vec![
            ((0..600u32).map(|i| i % 37).collect(), 37),
            ((0..300u32).map(|i| (i * 7) % 11).collect(), 11),
            ((0..900u32).map(|i| (i * 13) % 53).collect(), 53),
            (vec![0, 0, 0], 1),
        ];
        for (keys, num_groups) in epochs {
            let degrees: Vec<u64> = (0..keys.len() as u64).map(|i| 1 + i % 5).collect();
            let expected = reference_aggregate(&keys, num_groups, &degrees);
            let got = scratch_aggregate(&mut scratch, &keys, num_groups, &degrees);
            // Same per-vertex arc multisets (claim order may differ).
            assert_eq!(got.num_vertices(), expected.num_vertices());
            assert_eq!(got.num_arcs(), expected.num_arcs());
            assert_eq!(got.offsets(), expected.offsets());
            for u in 0..got.num_vertices() as u32 {
                let mut a: Vec<_> = got.edges(u).map(|(v, w)| (v, w.to_bits())).collect();
                let mut b: Vec<_> = expected.edges(u).map(|(v, w)| (v, w.to_bits())).collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "arcs of {u}");
            }
            // Feed the graph back in: the next squeeze reuses its buffers.
            scratch.recycle(got);
            assert!(scratch.recycled_buffers() >= 1);
        }
    }

    #[test]
    fn recycle_stack_is_bounded() {
        let mut scratch = AggregateScratch::new();
        for _ in 0..5 {
            scratch.recycle(CsrGraph::empty(3));
        }
        assert_eq!(scratch.recycled_buffers(), RECYCLE_DEPTH);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn aggregate_scratch_overflow_panics() {
        let mut scratch = AggregateScratch::new();
        scratch.prepare(&[0], 1, |_| 1);
        scratch.add_arc(0, 0, 1.0);
        scratch.add_arc(0, 0, 1.0);
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
