//! Induced subgraph extraction.
//!
//! Community detection workflows routinely drill into one community:
//! extract its induced subgraph, re-run detection at a finer resolution,
//! inspect its internal structure. [`induced`] extracts the subgraph of
//! an arbitrary vertex set; [`community_subgraph`] is the convenience
//! wrapper for one community of a membership vector.

use crate::{CsrGraph, VertexId};

/// An induced subgraph together with the vertex-id mappings.
#[derive(Debug, Clone, PartialEq)]
pub struct Subgraph {
    /// The extracted graph over dense local ids `0..k`.
    pub graph: CsrGraph,
    /// Local id → original vertex id.
    pub to_original: Vec<VertexId>,
}

impl Subgraph {
    /// Maps a local vertex id back to the original graph.
    pub fn original_of(&self, local: VertexId) -> VertexId {
        self.to_original[local as usize]
    }
}

/// Extracts the subgraph induced by `vertices` (duplicates ignored;
/// order defines the local ids of the first occurrences).
pub fn induced(graph: &CsrGraph, vertices: &[VertexId]) -> Subgraph {
    let n = graph.num_vertices();
    // Original → local mapping; u32::MAX = not selected.
    let mut local_of = vec![VertexId::MAX; n];
    let mut to_original = Vec::with_capacity(vertices.len());
    for &v in vertices {
        assert!((v as usize) < n, "vertex {v} out of range");
        if local_of[v as usize] == VertexId::MAX {
            local_of[v as usize] = to_original.len() as VertexId;
            to_original.push(v);
        }
    }

    let rows: Vec<(Vec<VertexId>, Vec<f32>)> = to_original
        .iter()
        .map(|&v| {
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            for (j, w) in graph.edges(v) {
                let local = local_of[j as usize];
                if local != VertexId::MAX {
                    targets.push(local);
                    weights.push(w);
                }
            }
            (targets, weights)
        })
        .collect();

    let mut offsets = Vec::with_capacity(to_original.len() + 1);
    let mut running = 0u64;
    for (t, _) in &rows {
        offsets.push(running);
        running += t.len() as u64;
    }
    offsets.push(running);
    let mut targets = Vec::with_capacity(running as usize);
    let mut weights = Vec::with_capacity(running as usize);
    for (t, w) in rows {
        targets.extend(t);
        weights.extend(w);
    }
    Subgraph {
        graph: CsrGraph::from_raw(offsets, targets, weights),
        to_original,
    }
}

/// Extracts the induced subgraph of one community.
pub fn community_subgraph(
    graph: &CsrGraph,
    membership: &[VertexId],
    community: VertexId,
) -> Subgraph {
    assert_eq!(membership.len(), graph.num_vertices());
    let members: Vec<VertexId> = membership
        .iter()
        .enumerate()
        .filter_map(|(v, &c)| (c == community).then_some(v as VertexId))
        .collect();
    induced(graph, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_triangles() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 2.0),
                (4, 5, 2.0),
                (5, 3, 2.0),
                (2, 3, 1.0),
            ],
        )
    }

    #[test]
    fn induced_keeps_internal_edges_only() {
        let g = two_triangles();
        let sub = induced(&g, &[3, 4, 5]);
        assert_eq!(sub.graph.num_vertices(), 3);
        // The bridge 2-3 is dropped; the triangle's 6 arcs remain.
        assert_eq!(sub.graph.num_arcs(), 6);
        assert!(sub.graph.is_symmetric());
        assert_eq!(sub.graph.total_arc_weight(), 12.0);
        assert_eq!(sub.original_of(0), 3);
        assert_eq!(sub.to_original, vec![3, 4, 5]);
    }

    #[test]
    fn induced_respects_selection_order_and_dedups() {
        let g = two_triangles();
        let sub = induced(&g, &[5, 3, 5, 4]);
        assert_eq!(sub.to_original, vec![5, 3, 4]);
        assert_eq!(sub.graph.num_vertices(), 3);
    }

    #[test]
    fn community_subgraph_extracts_members() {
        let g = two_triangles();
        let sub = community_subgraph(&g, &[0, 0, 0, 1, 1, 1], 1);
        assert_eq!(sub.to_original, vec![3, 4, 5]);
        assert_eq!(sub.graph.num_arcs(), 6);
    }

    #[test]
    fn empty_selection() {
        let g = two_triangles();
        let sub = induced(&g, &[]);
        assert_eq!(sub.graph.num_vertices(), 0);
        assert_eq!(sub.graph.num_arcs(), 0);
    }

    #[test]
    fn self_loops_survive_extraction() {
        let g = GraphBuilder::from_edges(3, &[(0, 0, 5.0), (0, 1, 1.0), (1, 2, 1.0)]);
        let sub = induced(&g, &[0, 1]);
        assert!(sub.graph.has_arc(0, 0));
        assert_eq!(sub.graph.num_arcs(), 3); // loop + both bridge arcs
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_vertex() {
        induced(&two_triangles(), &[9]);
    }
}
