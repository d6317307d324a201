//! Edge-list ingestion into a clean symmetric CSR.
//!
//! The paper preprocesses every input graph so that "edges are undirected
//! and weighted with a default of 1" (§5.1.3). [`GraphBuilder`] performs
//! that normalization: optional symmetrization (add reverse arcs),
//! duplicate-arc merging (weights summed), and a self-loop policy.
//!
//! The build is a counting sort by source over static blocks of edges,
//! one block per worker. Each block counts its arcs per source into its
//! own array; one vertex-major, block-minor exclusive scan turns the
//! counts into each block's row cursors, and the blocks scatter their
//! arcs into one `(target, weight)` buffer. Every row therefore holds
//! its arcs in edge order, whatever the thread count. Rows are then
//! sorted and deduplicated in place, in arc-balanced vertex blocks, and
//! compacted once into exact-capacity target and weight arrays. The
//! sort sees the same input at every thread count, so the output,
//! duplicate-weight sums included, is bit-identical.

use crate::{CsrGraph, EdgeWeight, VertexId};
use gve_prim::parfor::{block_range, static_blocks};
use gve_prim::{exclusive_scan_in_place, SharedSlice};
use std::ops::Range;
use std::sync::Mutex;

/// Builder accumulating `(u, v, w)` edges and producing a [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId, EdgeWeight)>,
    num_vertices: Option<usize>,
    symmetrize: bool,
    dedup: bool,
    drop_self_loops: bool,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GraphBuilder {
    /// A builder with the paper's defaults: symmetrize, merge duplicate
    /// arcs, keep self-loops.
    pub fn new() -> Self {
        Self {
            edges: Vec::new(),
            num_vertices: None,
            symmetrize: true,
            dedup: true,
            drop_self_loops: false,
        }
    }

    /// Fixes the vertex count instead of inferring `max id + 1`.
    pub fn with_vertices(mut self, n: usize) -> Self {
        self.num_vertices = Some(n);
        self
    }

    /// Enables/disables adding reverse arcs (default on).
    pub fn symmetrize(mut self, on: bool) -> Self {
        self.symmetrize = on;
        self
    }

    /// Enables/disables merging duplicate arcs by summing weights
    /// (default on).
    pub fn dedup(mut self, on: bool) -> Self {
        self.dedup = on;
        self
    }

    /// Enables/disables dropping self-loops (default off — kept).
    pub fn drop_self_loops(mut self, on: bool) -> Self {
        self.drop_self_loops = on;
        self
    }

    /// Number of raw edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no edge has been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Adds one edge.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: EdgeWeight) -> &mut Self {
        self.edges.push((u, v, w));
        self
    }

    /// Adds one edge with the default unit weight.
    pub fn add_unweighted(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_edge(u, v, 1.0)
    }

    /// Bulk-adds edges.
    pub fn extend(
        &mut self,
        edges: impl IntoIterator<Item = (VertexId, VertexId, EdgeWeight)>,
    ) -> &mut Self {
        self.edges.extend(edges);
        self
    }

    /// One-shot construction from a fixed edge slice.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId, EdgeWeight)]) -> CsrGraph {
        let mut b = Self::new().with_vertices(n);
        b.extend(edges.iter().copied());
        b.build()
    }

    /// Calls `arc(source, target, weight)` for each arc `edges` expand
    /// to under the symmetrize and self-loop policies, in edge order.
    #[inline]
    fn for_each_arc(
        &self,
        edges: &[(VertexId, VertexId, EdgeWeight)],
        mut arc: impl FnMut(VertexId, VertexId, EdgeWeight),
    ) {
        for &(u, v, w) in edges {
            if u != v {
                arc(u, v, w);
                if self.symmetrize {
                    arc(v, u, w);
                }
            } else if !self.drop_self_loops {
                arc(u, v, w);
            }
        }
    }

    /// Builds the CSR graph, consuming nothing (the builder can be
    /// reused).
    ///
    /// # Panics
    /// Panics when the vertex count exceeds the [`VertexId`] range.
    pub fn build(&self) -> CsrGraph {
        let edges = &self.edges[..];
        let inferred = static_blocks(edges.len(), |_, range| {
            edges[range]
                .iter()
                .map(|&(u, v, _)| u.max(v) as usize + 1)
                .max()
                .unwrap_or(0)
        })
        .into_iter()
        .max()
        .unwrap_or(0);
        let n = self.num_vertices.unwrap_or(inferred).max(inferred);
        assert!(
            n <= VertexId::MAX as usize + 1,
            "{n} vertices exceed the VertexId range"
        );

        // Each edge block counts its arcs per source.
        let (mut cursors, block_arcs): (Vec<Vec<u32>>, Vec<u64>) =
            static_blocks(edges.len(), |_, range| {
                let mut counts = vec![0u32; n];
                let mut arcs = 0u64;
                self.for_each_arc(&edges[range], |u, _, _| {
                    let count = &mut counts[u as usize];
                    *count = count.wrapping_add(1);
                    arcs += 1;
                });
                (counts, arcs)
            })
            .into_iter()
            .unzip();

        // Vertex-major, block-minor exclusive scan: `offsets` gets each
        // row's start, and each block's counts become its cursors within
        // the row, so block b's arcs follow those of blocks 0..b.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0u64;
        for v in 0..n {
            offsets.push(total);
            let mut row = 0u32;
            for counts in &mut cursors {
                let count = counts[v];
                counts[v] = row;
                row = row.checked_add(count).expect("vertex degree exceeds u32");
            }
            total += u64::from(row);
        }
        offsets.push(total);
        // A count that wrapped would leave the rows short of the arcs.
        assert_eq!(
            total,
            block_arcs.iter().sum::<u64>(),
            "a vertex's arc count in one edge block exceeds u32"
        );
        let total = usize::try_from(total).expect("arc count exceeds usize");

        // Each block scatters its arcs at its cursors.
        let mut pairs: Vec<(VertexId, EdgeWeight)> = vec![(0, 0.0); total];
        {
            let out = SharedSlice::new(&mut pairs);
            // Block b alone locks `cursors[b]`: the lock hands it the
            // array, it never waits.
            let cursors: Vec<Mutex<Vec<u32>>> = cursors.into_iter().map(Mutex::new).collect();
            static_blocks(edges.len(), |block, range| {
                assert_eq!(
                    range,
                    block_range(edges.len(), cursors.len(), block),
                    "edge blocks differ between count and scatter"
                );
                let mut cursor = cursors[block].lock().expect("cursor lock poisoned");
                self.for_each_arc(&edges[range], |u, v, w| {
                    let slot = &mut cursor[u as usize];
                    let index = (offsets[u as usize] + u64::from(*slot)) as usize;
                    *slot += 1;
                    debug_assert!(index < offsets[u as usize + 1] as usize);
                    // SAFETY: this block counted exactly these arcs over
                    // the same edge range (asserted above), so its
                    // cursor for `u` walks its own slots of row `u`,
                    // which no other block's cursor covers, and stays
                    // below `offsets[u + 1] <= total`.
                    unsafe { out.write(index, (v, w)) };
                });
            });
        }

        // Sort each row and merge its duplicates in place; `kept` gets
        // the surviving row lengths, then their offsets.
        let mut kept = vec![0u64; n + 1];
        {
            let rows = SharedSlice::new(&mut pairs);
            let lengths = SharedSlice::new(&mut kept);
            static_blocks(total, |_, range| {
                let vertices = rows_starting_in(&offsets, range);
                let base = offsets[vertices.start];
                let arcs = base as usize..offsets[vertices.end] as usize;
                // SAFETY: the vertex blocks of a static split of the arcs
                // are disjoint, and so are their arc ranges.
                let block_rows = unsafe { rows.slice_mut(arcs) };
                // SAFETY: as above, for the block's vertices.
                let block_lengths = unsafe { lengths.slice_mut(vertices.clone()) };
                for (v, length) in vertices.zip(block_lengths) {
                    let row = &mut block_rows
                        [(offsets[v] - base) as usize..(offsets[v + 1] - base) as usize];
                    row.sort_unstable_by_key(|&(t, _)| t);
                    *length = if self.dedup {
                        merge_duplicates(row)
                    } else {
                        row.len()
                    } as u64;
                }
            });
        }
        let kept_total = exclusive_scan_in_place(&mut kept) as usize;

        // Compact the kept prefix of every row into the final arrays.
        let mut targets = vec![0 as VertexId; kept_total];
        let mut weights = vec![0.0 as EdgeWeight; kept_total];
        {
            let t_out = SharedSlice::new(&mut targets);
            let w_out = SharedSlice::new(&mut weights);
            static_blocks(total, |_, range| {
                let vertices = rows_starting_in(&offsets, range);
                let base = kept[vertices.start];
                let out = base as usize..kept[vertices.end] as usize;
                // SAFETY: disjoint vertex blocks (as in the sort above)
                // own disjoint output ranges.
                let (ts, ws) = unsafe { (t_out.slice_mut(out.clone()), w_out.slice_mut(out)) };
                for v in vertices {
                    let from = offsets[v] as usize;
                    let to = (kept[v] - base) as usize;
                    let len = (kept[v + 1] - kept[v]) as usize;
                    for (k, &(t, w)) in pairs[from..from + len].iter().enumerate() {
                        ts[to + k] = t;
                        ws[to + k] = w;
                    }
                }
            });
        }
        CsrGraph::from_raw_trusted(kept, targets, weights)
    }
}

/// The rows whose first arc lies in `arcs`. Over the blocks of a static
/// split of `0..total` these partition the non-empty rows, each block
/// holding about `total / blocks` arcs.
fn rows_starting_in(offsets: &[u64], arcs: Range<usize>) -> Range<usize> {
    let starts = &offsets[..offsets.len() - 1];
    starts.partition_point(|&o| o < arcs.start as u64)
        ..starts.partition_point(|&o| o < arcs.end as u64)
}

/// Merges runs of equal targets in a sorted row, summing their weights
/// in row order, and returns the merged length.
fn merge_duplicates(row: &mut [(VertexId, EdgeWeight)]) -> usize {
    let mut kept = 0;
    for i in 0..row.len() {
        let (t, w) = row[i];
        if kept > 0 && row[kept - 1].0 == t {
            row[kept - 1].1 += w;
        } else {
            row[kept] = (t, w);
            kept += 1;
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetrizes_by_default() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0)]);
        assert_eq!(g.num_arcs(), 4);
        assert!(g.is_symmetric());
        assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn merges_duplicates_summing_weights() {
        let g = GraphBuilder::from_edges(2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)]);
        // All three become the same undirected edge; both arcs get 7.0.
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.edges(0).collect::<Vec<_>>(), vec![(1, 7.0)]);
        assert_eq!(g.edges(1).collect::<Vec<_>>(), vec![(0, 7.0)]);
    }

    #[test]
    fn keeps_self_loops_once_by_default() {
        let g = GraphBuilder::from_edges(2, &[(0, 0, 3.0), (0, 1, 1.0)]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edges(0).collect::<Vec<_>>(), vec![(0, 3.0), (1, 1.0)]);
    }

    #[test]
    fn drop_self_loops_policy() {
        let mut b = GraphBuilder::new().drop_self_loops(true);
        b.add_edge(0, 0, 3.0).add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn no_dedup_keeps_parallel_arcs() {
        let mut b = GraphBuilder::new().dedup(false);
        b.add_edge(0, 1, 1.0).add_edge(0, 1, 2.0);
        let g = b.build();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edges(0).collect::<Vec<_>>(), vec![(1, 1.0), (1, 2.0)]);
    }

    #[test]
    fn asymmetric_mode() {
        let mut b = GraphBuilder::new().symmetrize(false);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn infers_vertex_count_and_respects_floor() {
        let mut b = GraphBuilder::new();
        b.add_unweighted(0, 5);
        assert_eq!(b.build().num_vertices(), 6);
        let mut b = GraphBuilder::new().with_vertices(10);
        b.add_unweighted(0, 5);
        assert_eq!(b.build().num_vertices(), 10);
        // Explicit count smaller than ids: grows to fit.
        let mut b = GraphBuilder::new().with_vertices(2);
        b.add_unweighted(0, 5);
        assert_eq!(b.build().num_vertices(), 6);
    }

    #[test]
    fn empty_builder() {
        let b = GraphBuilder::new();
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_arcs(), 0);
    }

    #[test]
    fn neighbors_come_out_sorted() {
        let g = GraphBuilder::from_edges(5, &[(0, 4, 1.0), (0, 2, 1.0), (0, 3, 1.0), (0, 1, 1.0)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    /// Every thread count splits the edges and rows into different
    /// blocks, and yields the same arrays, weight bits included.
    #[test]
    fn blocks_do_not_change_the_output() {
        let mut b = GraphBuilder::new().with_vertices(9);
        for i in 0..40u32 {
            let w = [1.0e8, 1.0, 3.0e-8, 0.1][i as usize % 4];
            b.add_edge(i % 5, (i * 3) % 8, w);
        }
        let build = |threads| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (offsets, targets, weights) = pool.install(|| b.build()).into_raw();
            let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
            (offsets, targets, bits)
        };
        let one = build(1);
        assert_eq!(one.0.len(), 10);
        for threads in [2, 3] {
            assert_eq!(build(threads), one, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "exceed the VertexId range")]
    fn rejects_vertex_counts_beyond_vertex_ids() {
        GraphBuilder::new()
            .with_vertices(VertexId::MAX as usize + 2)
            .build();
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 20k edges: too slow interpreted
    fn large_random_build_is_symmetric_and_clean() {
        let mut edges = Vec::new();
        let mut state = 12345u64;
        for _ in 0..20_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 16) % 500) as u32;
            let v = ((state >> 40) % 500) as u32;
            edges.push((u, v, 1.0));
        }
        let g = GraphBuilder::from_edges(500, &edges);
        assert!(g.is_symmetric());
        // Dedup: no repeated neighbor entries.
        for u in 0..500u32 {
            let nb = g.neighbors(u);
            assert!(nb.windows(2).all(|w| w[0] < w[1]), "vertex {u}");
        }
    }
}
