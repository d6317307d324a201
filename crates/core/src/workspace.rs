//! Pass-resident workspace arena.
//!
//! The paper's headline engineering discipline is *preallocation*:
//! every per-pass buffer is sized once at the input graph's `(N, E)`
//! and reused across all ≤ 10 passes — pass `k` views a shrinking
//! prefix of the same memory, and atomic buffers are reinitialized in
//! place with parallel fills instead of serial `collect`s. The
//! [`PassWorkspace`] owns those buffers; [`crate::Leiden::run_in`]
//! threads one through the pass loop, and a resident service keeps a
//! pool of them so steady-state detect requests perform **zero**
//! allocation in the Leiden hot path.
//!
//! Buffer lifetimes (see DESIGN.md §10 for the full memory plan):
//!
//! * `membership`/`sigma` — the async phases' atomic state; once the
//!   refined snapshot is taken both are dead until the next pass
//!   start, so the aggregation borrows them (see below). `sigma` has
//!   one slot more than the vertex capacity for that reason;
//! * `penalty`, `bounds` — per-pass plain views; the hashtable
//!   aggregation writes each super-vertex's weighted degree into
//!   `penalty[..k]`, so the next pass starts from it;
//! * `init_labels` — super-vertex labels (or seeds) for the pass start;
//!   between the seeding and the labeling step it holds the refined
//!   membership snapshot, which the renumber overwrites in place with
//!   the dense ranks, which the aggregation reads as the community of
//!   every vertex and every arc's target;
//! * `first_seen` — the remap table of the serial first-seen renumber
//!   ([`crate::dendrogram::renumber_in_place`], one sweep over its
//!   input); it doubles as the scatter target of the move-based
//!   `label_of` map, whose values are then copied over the dead ranks
//!   in `init_labels[..k]`;
//! * `sizes`/`sizes_next` — the CPM vertex-size double buffer (swapped
//!   per pass instead of cloned), sized only for CPM runs;
//! * `unprocessed` — one capacity-`N` pruning bitset, prefix-reset per
//!   pass with [`AtomicBitset::set_first`];
//! * `plain_membership`/`plain_sigma`/`sync_decisions` — the
//!   color-synchronous path's plain state, sized only for such runs;
//! * `aggregate` — the fused grouped + holey CSR scratch. It owns only
//!   the member offsets and the slot sets; its three other vertex-sized
//!   arrays are lent per pass by `aggregate_hosts`: the member
//!   cursors (which double as the arc fill counts) live in
//!   `first_seen`, the member array in `membership`, and the capacity
//!   tallies, prefix-summed in place into the holey offsets, in the bit
//!   patterns of `sigma`. Its holey slot arrays become each supergraph:
//!   the holes are squeezed out in place, and a retired supergraph's
//!   buffers come back as the slot arrays of a later pass. Two slot
//!   sets ping-pong: one reserved here for the input's arcs, and one
//!   sized exactly for the first supergraph's arcs, created only when a
//!   run aggregates twice;
//! * `tables` — one collision-free scan table per worker, 8 B per key,
//!   grown by the pass loop (not by [`PassWorkspace::ensure`]) to the
//!   key bound of the phase about to run: `n` for local-moving and
//!   greedy refinement only when the graph has a vertex above
//!   [`crate::SMALL_DEGREE_THRESHOLD`], `n` always for random
//!   refinement and the color-synchronous phases, and `k` for the
//!   hashtable aggregation, whose keys are the dense community ids, only
//!   when a community's total degree exceeds [`gve_prim::HASH_SCAN_CAP`]
//!   (a narrower one takes the stack map). A table that grows frees its
//!   old slots first;
//!
//! What [`PassWorkspace::ensure`] allocates per vertex (plus 8 B per
//! arc for the first slot set; `crates/core/tests/footprint.rs` holds
//! the budget, and the resident footprint of warm runs;
//! [`PassWorkspace::resident_bytes`] reports it). Growth is exact, so
//! a workspace that meets a slightly larger graph grows by that much
//! rather than doubling:
//!
//! ```text
//!  buffer                      B/vertex   hosts as well
//!  membership                  4          aggregate members
//!  sigma                       8          aggregate capacity tallies,
//!                                         then holey offsets [..k+1]
//!  penalty                     8          next pass's K'    [..k]
//!  bounds                      4
//!  init_labels                 4          refined snapshot, then its
//!                                         dense ranks, then label_of
//!  first_seen                  4          aggregate cursors, then
//!                                         fill counts, then label_of
//!                                         scatter           [..k]
//!  unprocessed (bitset)        0.125
//!  aggregate: group_offsets    4
//!  total                       36.125     (DESIGN.md §10 has the
//!                                          buffers this replaced)
//! ```
//!
//! Each scan table adds 8 B per key of its bound.
//!
//! One pass of the default asynchronous loop, for the shared hosts:
//!
//! ```text
//!  step               init_labels         bounds          first_seen         membership   sigma
//!  pass start         seeds → membership  ·               ·                  C'           Σ'
//!  local-moving       ·                   ·               ·                  C'           Σ'
//!  refine reset       ·                   bounds          ·                  singletons   K'
//!  refinement         ·                   bounds (read)   ·                  C'           Σ'
//!  snapshot           refined             bounds          ·                  C' (read)    ·
//!  renumber in place  dense ranks         bounds          first seen         ·            ·
//!  aggregate: group   ranks (read)        bounds          block 0 cursors    members      block 1–2 cursors
//!    capacities       ·                   bounds          ·                  members      holey offsets
//!    rows, squeeze    ranks (read)        bounds          fill counts        members      holey offsets
//!  CPM size fold      ranks (read)        bounds          ·                  ·            size sums [..k]
//!  label_of scatter   ranks (read)        bounds (read)   label_of           ·            ·
//!  label_of copy      label_of [..k]      ·               label_of (read)    ·            ·
//!  renumber in place  next labels [..k]   ·               first seen         ·            ·
//! ```

use gve_graph::{AggregateHosts, AggregateScratch, VertexId};
use gve_prim::atomics::{f64_bits_mut, plain_u32_mut, AtomicF64};
use gve_prim::workspace::resize_exact;
use gve_prim::{AtomicBitset, CommunityMap, PerThread};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-pass decision record of the color-synchronous path.
pub(crate) type Decision = Option<(VertexId, f64)>;

/// Reusable arena for every per-pass buffer of the Leiden pass loop.
///
/// Grow-only: [`PassWorkspace::ensure`] sizes it for a graph, and later
/// runs on graphs no larger perform no allocation. A workspace is plain
/// owned memory — `Send`, independent of any graph, and safely reusable
/// across configurations (every run reinitializes the prefixes it
/// reads). Reuse is bit-identical to a fresh workspace by construction:
/// [`crate::Leiden::run`] itself just calls
/// [`crate::Leiden::run_in`] with a temporary one.
#[derive(Debug)]
pub struct PassWorkspace {
    /// Vertex capacity every vertex-indexed buffer is sized for.
    pub(crate) cap_vertices: usize,
    /// Async-path community assignment (atomic); hosts the
    /// aggregation's member array.
    pub(crate) membership: Vec<AtomicU32>,
    /// Async-path community penalty totals Σ' (atomic); hosts the
    /// aggregation's holey offsets, hence one slot more than the vertex
    /// capacity, and is the CPM size-fold accumulator.
    pub(crate) sigma: Vec<AtomicF64>,
    /// Per-vertex penalty weights (weighted degrees, or CPM sizes).
    pub(crate) penalty: Vec<f64>,
    /// Local-moving result: refinement bounds.
    pub(crate) bounds: Vec<VertexId>,
    /// Initial labels of a pass (move-based labeling or seeds). Dead
    /// once the pass start has seeded from them, so the same prefix
    /// holds the post-refinement snapshot, renumbered in place into
    /// the dense ranks, until the labeling step writes the next pass's
    /// labels.
    pub(crate) init_labels: Vec<VertexId>,
    /// Remap table of the serial first-seen renumber; hosts the
    /// aggregation's cursors, and doubles as the `label_of` scatter
    /// target between renumber calls.
    pub(crate) first_seen: Vec<AtomicU32>,
    /// CPM vertex sizes (current pass).
    pub(crate) sizes: Vec<f64>,
    /// CPM vertex sizes (next pass) — the double buffer.
    pub(crate) sizes_next: Vec<f64>,
    /// Color-synchronous plain membership (sized by
    /// [`PassWorkspace::ensure_sync`] only).
    pub(crate) plain_membership: Vec<VertexId>,
    /// Color-synchronous plain Σ' (sized with `plain_membership`).
    pub(crate) plain_sigma: Vec<f64>,
    /// Color-synchronous per-class decision buffer.
    pub(crate) sync_decisions: Vec<Decision>,
    /// Pruning flags, prefix-reset per pass.
    pub(crate) unprocessed: AtomicBitset,
    /// Fused grouped/holey aggregation scratch and its slot sets (its
    /// per-vertex arrays are lent by [`aggregate_hosts`]).
    pub(crate) aggregate: AggregateScratch,
    /// One collision-free scan hashtable per worker, sized by the key
    /// bound of the phases that meet them.
    pub(crate) tables: ScanTables,
}

/// The per-worker collision-free scan hashtables — the paper's `O(T·N)`
/// memory term, here `O(T·K)` for the largest key bound `K ≤ N` a
/// phase has met — lazily materialized and reused across phases,
/// passes, *and* runs.
///
/// A phase that sends no scan to a table needs no slots at all: the
/// stack tier takes every vertex of degree ≤
/// [`crate::SMALL_DEGREE_THRESHOLD`] in local-moving and refinement,
/// and every community of total degree ≤ [`gve_prim::HASH_SCAN_CAP`] in
/// the aggregation. So on a hub-free graph only an aggregation with a
/// wider community grows them, to its `k` dense community ids; on a
/// road graph none does.
#[derive(Debug)]
pub(crate) struct ScanTables {
    tables: PerThread<CommunityMap>,
    /// Capacity every table covers, and newly materialized ones get
    /// (grow-only; shared with the `tables` factory closure).
    capacity: Arc<AtomicUsize>,
}

impl Default for ScanTables {
    fn default() -> Self {
        let capacity = Arc::new(AtomicUsize::new(0));
        let cell = Arc::clone(&capacity);
        Self {
            tables: PerThread::new(move || {
                // Relaxed: `reach` stores the capacity under `&mut self`
                // before any parallel region can materialize a table, and
                // the pool's start of that region publishes the store.
                CommunityMap::new(cell.load(Ordering::Relaxed))
            }),
            capacity,
        }
    }
}

impl ScanTables {
    /// Grows every table, and the capacity of tables not yet
    /// materialized, to hold keys below `bound` (grow-only and exact),
    /// and returns them for the phase about to run. Called on the
    /// caller between phases, when no table holds a live entry: each
    /// table frees its old slots before it allocates the new ones
    /// ([`CommunityMap::ensure_capacity`]).
    pub(crate) fn reach(&mut self, bound: usize) -> &PerThread<CommunityMap> {
        // Relaxed: read and stored under `&mut self`, before any
        // parallel loop that reads it. Every loop starts with the pool's
        // Release epoch bump, which its workers Acquire, so they see
        // every store the caller made before the loop, this one
        // included.
        if self.capacity.load(Ordering::Relaxed) < bound {
            self.capacity.store(bound, Ordering::Relaxed);
            self.tables
                .for_each_mut(|table| table.ensure_capacity(bound));
        }
        &self.tables
    }

    /// Key capacity every table covers.
    fn capacity(&self) -> usize {
        // Relaxed: as in `reach`.
        self.capacity.load(Ordering::Relaxed)
    }

    /// Heap bytes of the tables materialized so far.
    fn resident_bytes(&self) -> usize {
        let mut bytes = 0;
        self.tables
            .for_each(|table| bytes += table.resident_bytes());
        bytes
    }
}

impl Default for PassWorkspace {
    fn default() -> Self {
        Self {
            cap_vertices: 0,
            membership: Vec::new(),
            sigma: Vec::new(),
            penalty: Vec::new(),
            bounds: Vec::new(),
            init_labels: Vec::new(),
            first_seen: Vec::new(),
            sizes: Vec::new(),
            sizes_next: Vec::new(),
            plain_membership: Vec::new(),
            plain_sigma: Vec::new(),
            sync_decisions: Vec::new(),
            unprocessed: AtomicBitset::new(0),
            aggregate: AggregateScratch::new(),
            tables: ScanTables::default(),
        }
    }
}

impl PassWorkspace {
    /// An empty workspace; buffers grow on first run and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs up to `vertices`/`arcs`, so the
    /// first run already performs no pass-loop allocation.
    pub fn with_capacity(vertices: usize, arcs: usize) -> Self {
        let mut ws = Self::new();
        ws.ensure(vertices, arcs);
        ws
    }

    /// Vertex capacity the workspace is currently sized for.
    pub fn capacity(&self) -> usize {
        self.cap_vertices
    }

    /// Grows (never shrinks) every vertex- and arc-sized buffer to cover
    /// a graph with `vertices` and `arcs`. No-op when already large
    /// enough; growth allocates exactly what the new size needs, so a
    /// pooled workspace that meets a slightly larger graph does not
    /// double. The scan tables are left to the runs, which grow them to
    /// the key bounds their phases reach.
    pub fn ensure(&mut self, vertices: usize, arcs: usize) {
        if self.cap_vertices < vertices {
            let n = vertices;
            resize_exact(&mut self.membership, n, || AtomicU32::new(0));
            // One slot more than the phases use: it hosts the holey
            // offsets' end when an aggregation keeps every vertex.
            resize_exact(&mut self.sigma, n + 1, || AtomicF64::new(0.0));
            resize_exact(&mut self.penalty, n, || 0.0);
            resize_exact(&mut self.bounds, n, || 0);
            resize_exact(&mut self.init_labels, n, || 0);
            resize_exact(&mut self.first_seen, n, || AtomicU32::new(0));
            self.unprocessed = AtomicBitset::new(n);
            self.cap_vertices = n;
        }
        self.aggregate.reserve(vertices, arcs);
    }

    /// Grows the CPM size double buffer (only the CPM objective carries
    /// vertex sizes across aggregations).
    pub(crate) fn ensure_sizes(&mut self, vertices: usize) {
        if self.sizes.len() < vertices {
            resize_exact(&mut self.sizes, vertices, || 0.0);
            resize_exact(&mut self.sizes_next, vertices, || 0.0);
        }
    }

    /// Grows the color-synchronous plain state (only
    /// [`crate::Scheduling::ColorSynchronous`] runs on it).
    pub(crate) fn ensure_sync(&mut self, vertices: usize) {
        if self.plain_membership.len() < vertices {
            resize_exact(&mut self.plain_membership, vertices, || 0);
            resize_exact(&mut self.plain_sigma, vertices, || 0.0);
        }
    }

    /// Key capacity of the scan tables: the largest key bound a phase
    /// run on this workspace has met, zero until one needed a table.
    /// [`PassWorkspace::ensure`] does not grow the tables; each run
    /// grows them to what its phases reach.
    pub fn table_capacity(&self) -> usize {
        self.tables.capacity()
    }

    /// Vertex capacity of the color-synchronous plain state: zero until
    /// a [`crate::Scheduling::ColorSynchronous`] run has used the
    /// workspace.
    pub fn sync_capacity(&self) -> usize {
        self.plain_membership.len()
    }

    /// Heap bytes the workspace holds: the capacity times the element
    /// size of every buffer, the aggregation scratch with its spare slot
    /// sets, and the scan tables materialized so far. Leaves out only
    /// bookkeeping of a few hundred bytes (the per-worker table slots
    /// and the shared capacity cell).
    pub fn resident_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.membership)
            + bytes(&self.sigma)
            + bytes(&self.penalty)
            + bytes(&self.bounds)
            + bytes(&self.init_labels)
            + bytes(&self.first_seen)
            + bytes(&self.sizes)
            + bytes(&self.sizes_next)
            + bytes(&self.plain_membership)
            + bytes(&self.plain_sigma)
            + bytes(&self.sync_decisions)
            + self.unprocessed.resident_bytes()
            + self.aggregate.resident_bytes()
            + self.tables.resident_bytes()
    }
}

/// The aggregation's hosts ([`AggregateHosts`]): workspace buffers that
/// are dead while a pass aggregates.
///
/// * `first_seen` hosts the cursors: the renumber is done with it, and
///   the `label_of` scatter has yet to start;
/// * `membership` hosts the members: the aggregation reads the dense ids
///   from `init_labels`, and the next pass start rewrites it;
/// * `sigma`, through its bit patterns, hosts the holey offsets: the
///   phases are done with it, and the CPM size fold or the next pass
///   start rewrites it. It has one slot more than the vertex capacity,
///   as an aggregation of `k` communities needs `k + 1`.
pub(crate) fn aggregate_hosts<'a>(
    first_seen: &'a mut [AtomicU32],
    membership: &'a mut [AtomicU32],
    sigma: &'a mut [AtomicF64],
) -> AggregateHosts<'a> {
    AggregateHosts {
        cursors: first_seen,
        members: plain_u32_mut(membership),
        holey_offsets: f64_bits_mut(sigma),
    }
}

/// Sentinel written into poisoned `membership` suffix slots (a vertex
/// id this large cannot occur: ids are `< N < 2^32 - 16`).
#[cfg(feature = "analysis")]
pub const POISON_LABEL: u32 = u32::MAX - 7;

/// Sentinel NaN bit pattern written into poisoned `sigma` suffix slots.
/// Compared by bits: no legitimate phase produces this exact payload.
#[cfg(feature = "analysis")]
pub const POISON_SIGMA_BITS: u64 = 0x7FF8_DEAD_BEEF_0105;

/// Poisons the workspace suffixes beyond the live prefix. Called after
/// each pass shrink (and once at run start for the initial capacity
/// overhang), so [`assert_suffix_poisoned`] can prove that no phase
/// ever writes past its pass's prefix — i.e. that the shrinking prefix
/// views never alias stale suffix state.
#[cfg(feature = "analysis")]
pub fn poison_suffix(membership: &[AtomicU32], sigma: &[AtomicF64]) {
    use std::sync::atomic::Ordering;
    // Relaxed: bulk sentinel stores between phases, published by the
    // ends of the surrounding loops (same contract as the in-place
    // reinits).
    gve_prim::parfor::static_for(membership.len(), |v| {
        membership[v].store(POISON_LABEL, Ordering::Relaxed);
    });
    gve_prim::parfor::static_for(sigma.len(), |v| {
        sigma[v].store(f64::from_bits(POISON_SIGMA_BITS));
    });
}

/// Asserts that a previously poisoned suffix is still intact — no
/// local-moving, refinement, or staging write escaped the pass's prefix
/// view. Runs under `--features analysis` only.
///
/// # Panics
/// Panics naming the first clobbered slot.
#[cfg(feature = "analysis")]
pub fn assert_suffix_poisoned(
    membership: &[AtomicU32],
    sigma: &[AtomicF64],
    pass: usize,
    prefix: usize,
) {
    use std::sync::atomic::Ordering;
    for (i, c) in membership.iter().enumerate() {
        // Relaxed: post-join read-back of sentinel values.
        let got = c.load(Ordering::Relaxed);
        assert!(
            got == POISON_LABEL,
            "pass {pass}: membership[{}] escaped the prefix view (found {got})",
            prefix + i
        );
    }
    for (i, s) in sigma.iter().enumerate() {
        let got = s.load().to_bits();
        assert!(
            got == POISON_SIGMA_BITS,
            "pass {pass}: sigma[{}] escaped the prefix view (found bits {got:#x})",
            prefix + i
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_is_grow_only() {
        let mut ws = PassWorkspace::new();
        ws.ensure(100, 400);
        assert_eq!(ws.capacity(), 100);
        assert_eq!(ws.membership.len(), 100);
        assert_eq!(ws.unprocessed.len(), 100);
        let membership_ptr = ws.membership.as_ptr();
        // Shrinking request: nothing moves.
        ws.ensure(10, 20);
        assert_eq!(ws.capacity(), 100);
        assert_eq!(ws.membership.as_ptr(), membership_ptr);
        // Growing request: capacity follows.
        ws.ensure(200, 800);
        assert_eq!(ws.capacity(), 200);
        assert_eq!(ws.sigma.len(), 201);
    }

    #[test]
    fn with_capacity_presizes() {
        let ws = PassWorkspace::with_capacity(64, 256);
        assert_eq!(ws.capacity(), 64);
        assert_eq!(ws.first_seen.len(), 64);
    }

    #[test]
    fn scan_tables_grow_to_the_bound_they_reach() {
        let mut ws = PassWorkspace::with_capacity(100, 400);
        assert_eq!(ws.table_capacity(), 0, "ensure must not size the tables");
        // A table materialized now starts at the current bound.
        ws.tables
            .reach(0)
            .with(|table| assert_eq!(table.capacity(), 0));
        ws.tables
            .reach(40)
            .with(|table| assert_eq!(table.capacity(), 40));
        assert_eq!(ws.table_capacity(), 40);
        // Lower bounds keep what is there; higher ones grow exactly.
        ws.tables
            .reach(10)
            .with(|table| assert_eq!(table.capacity(), 40));
        ws.tables
            .reach(41)
            .with(|table| assert_eq!(table.capacity(), 41));
        assert_eq!(ws.table_capacity(), 41);
    }

    #[test]
    fn sizes_buffer_is_lazy() {
        let mut ws = PassWorkspace::new();
        ws.ensure(50, 100);
        assert!(ws.sizes.is_empty());
        ws.ensure_sizes(50);
        assert_eq!(ws.sizes.len(), 50);
        assert_eq!(ws.sizes_next.len(), 50);
    }

    #[test]
    fn sync_buffers_are_lazy() {
        let mut ws = PassWorkspace::with_capacity(50, 100);
        assert_eq!(ws.sync_capacity(), 0);
        ws.ensure_sync(50);
        assert_eq!(ws.sync_capacity(), 50);
        assert_eq!(ws.plain_sigma.len(), 50);
    }

    #[cfg(feature = "analysis")]
    #[test]
    fn poison_roundtrip_detects_clobber() {
        use std::sync::atomic::Ordering;
        let ws = PassWorkspace::with_capacity(8, 8);
        poison_suffix(&ws.membership[4..], &ws.sigma[4..]);
        assert_suffix_poisoned(&ws.membership[4..], &ws.sigma[4..], 0, 4);
        ws.membership[5].store(3, Ordering::Relaxed);
        let caught = std::panic::catch_unwind(|| {
            assert_suffix_poisoned(&ws.membership[4..], &ws.sigma[4..], 0, 4);
        });
        assert!(caught.is_err(), "clobbered suffix must be detected");
    }
}
