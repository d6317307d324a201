//! Cache-aware vertex relabeling (an optional detection preprocessing step).
//!
//! The Leiden inner loops walk `membership[v]` and `sigma[c]` for every
//! neighbour `v` of every vertex, so the memory-access pattern is the
//! graph's adjacency structure itself. Relabeling vertices so that
//! neighbours get nearby ids turns those scattered loads into mostly
//! sequential ones:
//!
//! * [`VertexOrdering::DegreeDesc`] — hubs first. High-degree vertices
//!   (and their hot `sigma` slots) are packed into the first few cache
//!   lines, and the tail of low-degree vertices enjoys short rows that
//!   sit next to each other.
//! * [`VertexOrdering::Bfs`] — breadth-first order from the
//!   highest-degree vertex of each component. Neighbourhoods become
//!   contiguous id ranges, the classic bandwidth-reduction ordering.
//!
//! [`Relabeling`] carries both the forward permutation and its inverse so
//! results computed on the relabeled graph can be reported in the
//! caller's original ids ([`Relabeling::pull_to_original`]).

use crate::{CsrGraph, VertexId};
use std::collections::VecDeque;

/// Vertex relabeling strategy applied before detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VertexOrdering {
    /// Keep the input ids (no relabeling, no inverse mapping cost).
    #[default]
    Original,
    /// Sort vertices by descending degree (ties towards the smaller
    /// original id).
    DegreeDesc,
    /// Breadth-first order seeded at the highest-degree vertex of each
    /// connected component (components visited in seed-degree order).
    Bfs,
}

impl VertexOrdering {
    /// Parses a CLI/config token: `original`, `degree`, or `bfs`.
    pub fn parse(token: &str) -> Result<Self, String> {
        match token {
            "original" | "none" => Ok(Self::Original),
            "degree" | "degree-desc" => Ok(Self::DegreeDesc),
            "bfs" => Ok(Self::Bfs),
            other => Err(format!(
                "unknown vertex ordering '{other}' (expected original|degree|bfs)"
            )),
        }
    }

    /// Canonical token for fingerprints and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Self::Original => "original",
            Self::DegreeDesc => "degree",
            Self::Bfs => "bfs",
        }
    }
}

/// A vertex permutation together with its inverse.
///
/// `perm[old] = new` and `inv[new] = old`; both are full permutations of
/// `0..n`.
#[derive(Debug, Clone)]
pub struct Relabeling {
    /// Maps original id → relabeled id.
    pub perm: Vec<VertexId>,
    /// Maps relabeled id → original id.
    pub inv: Vec<VertexId>,
}

impl Relabeling {
    /// Builds the relabeling for `ordering` on `graph`. Returns `None`
    /// for [`VertexOrdering::Original`] (identity — callers skip the
    /// permutation work entirely).
    pub fn for_ordering(graph: &CsrGraph, ordering: VertexOrdering) -> Option<Self> {
        match ordering {
            VertexOrdering::Original => None,
            VertexOrdering::DegreeDesc => Some(Self::degree_sort(graph)),
            VertexOrdering::Bfs => Some(Self::bfs(graph)),
        }
    }

    /// Descending-degree order, ties broken towards the smaller original
    /// id (deterministic).
    pub fn degree_sort(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut inv: Vec<VertexId> = (0..n as VertexId).collect();
        inv.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        Self::from_inv(inv)
    }

    /// BFS order: each component is seeded at its highest-degree vertex
    /// (seeds taken in descending-degree order across components), and
    /// neighbours are enqueued in row order.
    pub fn bfs(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut seeds: Vec<VertexId> = (0..n as VertexId).collect();
        seeds.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let mut inv: Vec<VertexId> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut queue = VecDeque::new();
        for &seed in &seeds {
            if visited[seed as usize] {
                continue;
            }
            visited[seed as usize] = true;
            queue.push_back(seed);
            while let Some(u) = queue.pop_front() {
                inv.push(u);
                for &j in graph.neighbors(u) {
                    if !visited[j as usize] {
                        visited[j as usize] = true;
                        queue.push_back(j);
                    }
                }
            }
        }
        Self::from_inv(inv)
    }

    /// Builds the forward permutation from a new→old order vector.
    fn from_inv(inv: Vec<VertexId>) -> Self {
        let mut perm = vec![0 as VertexId; inv.len()];
        for (new_id, &old_id) in inv.iter().enumerate() {
            perm[old_id as usize] = new_id as VertexId;
        }
        Self { perm, inv }
    }

    /// Number of vertices covered by the permutation.
    #[inline]
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty (0-vertex) permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Builds the relabeled graph: vertex `old` becomes `perm[old]`, and
    /// each row's arcs are re-sorted by new target id so neighbour scans
    /// walk ascending addresses.
    pub fn apply(&self, graph: &CsrGraph) -> CsrGraph {
        let n = graph.num_vertices();
        assert_eq!(n, self.len(), "permutation size must match graph");
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for new_u in 0..n {
            total += graph.degree(self.inv[new_u]) as u64;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        let mut weights = Vec::with_capacity(total as usize);
        let mut row: Vec<(VertexId, f32)> = Vec::new();
        for new_u in 0..n {
            let old_u = self.inv[new_u];
            row.clear();
            row.extend(graph.edges(old_u).map(|(j, w)| (self.perm[j as usize], w)));
            row.sort_unstable_by_key(|&(t, _)| t);
            for &(t, w) in &row {
                targets.push(t);
                weights.push(w);
            }
        }
        CsrGraph::from_raw(offsets, targets, weights)
    }

    /// Re-indexes per-vertex values from original to relabeled ids:
    /// `out[new] = values[inv[new]]`.
    pub fn push_to_new<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len());
        self.inv.iter().map(|&old| values[old as usize]).collect()
    }

    /// Re-indexes per-vertex values from relabeled back to original ids:
    /// `out[old] = values[perm[old]]`. This is how memberships computed
    /// on the relabeled graph are reported in the caller's ids.
    pub fn pull_to_original<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len());
        self.perm.iter().map(|&new| values[new as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Two triangles bridged by an edge, plus an isolated vertex.
    fn sample() -> CsrGraph {
        let mut b = GraphBuilder::new().with_vertices(7);
        for (u, v, w) in [
            (0, 1, 1.0),
            (1, 2, 2.0),
            (2, 0, 1.5),
            (2, 3, 0.5),
            (3, 4, 1.0),
            (4, 5, 1.0),
            (5, 3, 3.0),
        ] {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    fn assert_is_permutation(r: &Relabeling, n: usize) {
        assert_eq!(r.len(), n);
        let mut seen = vec![false; n];
        for &p in &r.perm {
            assert!(!seen[p as usize], "duplicate image {p}");
            seen[p as usize] = true;
        }
        for v in 0..n {
            assert_eq!(r.inv[r.perm[v] as usize] as usize, v, "inv ∘ perm ≠ id");
            assert_eq!(r.perm[r.inv[v] as usize] as usize, v, "perm ∘ inv ≠ id");
        }
    }

    #[test]
    fn degree_sort_is_valid_and_sorted() {
        let g = sample();
        let r = Relabeling::degree_sort(&g);
        assert_is_permutation(&r, g.num_vertices());
        let h = r.apply(&g);
        let degrees: Vec<usize> = (0..h.num_vertices() as VertexId)
            .map(|v| h.degree(v))
            .collect();
        assert!(degrees.windows(2).all(|w| w[0] >= w[1]), "{degrees:?}");
    }

    #[test]
    fn bfs_is_valid_and_visits_components_whole() {
        let g = sample();
        let r = Relabeling::bfs(&g);
        assert_is_permutation(&r, g.num_vertices());
        // The isolated vertex (degree 0) must come last in BFS order.
        assert_eq!(r.inv[g.num_vertices() - 1], 6);
    }

    #[test]
    fn apply_preserves_structure() {
        let g = sample();
        for ordering in [VertexOrdering::DegreeDesc, VertexOrdering::Bfs] {
            let r = Relabeling::for_ordering(&g, ordering).unwrap();
            let h = r.apply(&g);
            assert_eq!(h.num_vertices(), g.num_vertices());
            assert_eq!(h.num_arcs(), g.num_arcs());
            assert!(h.is_symmetric());
            assert_eq!(h.total_arc_weight(), g.total_arc_weight());
            for old in 0..g.num_vertices() as VertexId {
                let new = r.perm[old as usize];
                assert_eq!(h.degree(new), g.degree(old));
                assert!(
                    (h.weighted_degree(new) - g.weighted_degree(old)).abs() < 1e-12,
                    "weighted degree changed for {old}"
                );
                // Same neighbour multiset under the permutation.
                let mut want: Vec<(VertexId, u32)> = g
                    .edges(old)
                    .map(|(j, w)| (r.perm[j as usize], w.to_bits()))
                    .collect();
                want.sort_unstable();
                let got: Vec<(VertexId, u32)> =
                    h.edges(new).map(|(j, w)| (j, w.to_bits())).collect();
                assert_eq!(got, want, "row {old} mismatch");
                // Rows are sorted by target after relabeling.
                assert!(h.neighbors(new).windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }

    #[test]
    fn push_pull_round_trip() {
        let g = sample();
        let r = Relabeling::degree_sort(&g);
        let values: Vec<u32> = (0..g.num_vertices() as u32).map(|v| v * 10).collect();
        let pushed = r.push_to_new(&values);
        assert_eq!(r.pull_to_original(&pushed), values);
        // And perm itself round-trips through pull.
        let identity: Vec<u32> = (0..g.num_vertices() as u32).collect();
        assert_eq!(r.pull_to_original(&r.push_to_new(&identity)), identity);
    }

    #[test]
    fn original_ordering_is_identity() {
        let g = sample();
        assert!(Relabeling::for_ordering(&g, VertexOrdering::Original).is_none());
    }

    #[test]
    fn ordering_parse_round_trip() {
        for ord in [
            VertexOrdering::Original,
            VertexOrdering::DegreeDesc,
            VertexOrdering::Bfs,
        ] {
            assert_eq!(VertexOrdering::parse(ord.label()), Ok(ord));
        }
        assert!(VertexOrdering::parse("zorder").is_err());
    }

    #[test]
    fn empty_graph_relabels() {
        let g = CsrGraph::empty(0);
        let r = Relabeling::degree_sort(&g);
        assert!(r.is_empty());
        assert_eq!(r.apply(&g).num_vertices(), 0);
    }
}
