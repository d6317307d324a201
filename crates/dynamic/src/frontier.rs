//! The affected-vertex frontier for incremental detection.
//!
//! Given a batch of edge updates and the pre-update communities, only
//! some vertices can improve by moving; the rest keep their optima.
//! **Dynamic Frontier** (Sahu et al.) marks the endpoints of
//! *cross-community insertions* and *intra-community deletions*, plus
//! their immediate neighbours, and vertices the batch adds; the
//! local-moving phase's pruning flags then propagate the wave exactly
//! as far as changes cascade.

use crate::update::BatchUpdate;
use gve_graph::{CsrGraph, VertexId};

/// True for the update pairs that can change the community optimum.
fn affects(u: VertexId, v: VertexId, membership: &[VertexId], insertion: bool) -> bool {
    let cu = membership.get(u as usize).copied();
    let cv = membership.get(v as usize).copied();
    match (cu, cv) {
        // New vertices (beyond the old membership) always matter.
        (None, _) | (_, None) => true,
        (Some(cu), Some(cv)) => {
            if insertion {
                cu != cv // cross-community insertion creates pull
            } else {
                cu == cv // intra-community deletion may split
            }
        }
    }
}

/// Computes the Dynamic Frontier for a batch: affected endpoints plus
/// their one-hop neighbourhoods, deduplicated.
pub fn dynamic_frontier(
    graph: &CsrGraph,
    membership: &[VertexId],
    batch: &BatchUpdate,
) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut marked = vec![false; n];
    let mark = |v: VertexId, marked: &mut Vec<bool>| {
        if (v as usize) < n {
            marked[v as usize] = true;
        }
    };
    let mut seeds: Vec<VertexId> = Vec::new();
    for &(u, v, _) in &batch.insertions {
        if affects(u, v, membership, true) {
            seeds.push(u);
            seeds.push(v);
        }
    }
    for &(u, v) in &batch.deletions {
        if affects(u, v, membership, false) {
            seeds.push(u);
            seeds.push(v);
        }
    }
    for &s in &seeds {
        mark(s, &mut marked);
        if (s as usize) < n {
            for &j in graph.neighbors(s) {
                mark(j, &mut marked);
            }
        }
    }
    marked
        .iter()
        .enumerate()
        .filter_map(|(v, &m)| m.then_some(v as VertexId))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    /// Two triangles {0,1,2} and {3,4,5} bridged by 2-3.
    fn setup() -> (CsrGraph, Vec<u32>) {
        let graph = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 1.0),
            ],
        );
        (graph, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn cross_community_insertion_marks_neighbourhoods() {
        let (graph, membership) = setup();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 5, 1.0); // cross-community
        let frontier = dynamic_frontier(&graph, &membership, &batch);
        // 0, 5 and their neighbours.
        assert!(frontier.contains(&0));
        assert!(frontier.contains(&5));
        assert!(frontier.contains(&1)); // neighbour of 0
        assert!(frontier.contains(&4)); // neighbour of 5
    }

    #[test]
    fn intra_community_insertion_is_ignored() {
        let (graph, membership) = setup();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 1, 1.0); // same community — strengthens it
        assert!(dynamic_frontier(&graph, &membership, &batch).is_empty());
    }

    #[test]
    fn intra_community_deletion_marks_neighbourhoods() {
        let (graph, membership) = setup();
        let mut batch = BatchUpdate::new();
        batch.delete(3, 4); // same community — may split it
        let frontier = dynamic_frontier(&graph, &membership, &batch);
        assert!(frontier.contains(&3));
        assert!(frontier.contains(&4));
        assert!(frontier.contains(&5));
    }

    #[test]
    fn cross_community_deletion_is_ignored() {
        let (graph, membership) = setup();
        let mut batch = BatchUpdate::new();
        batch.delete(2, 3); // the bridge — communities only separate further
        assert!(dynamic_frontier(&graph, &membership, &batch).is_empty());
    }

    #[test]
    fn frontier_is_sorted_and_deduplicated() {
        let (graph, membership) = setup();
        let mut batch = BatchUpdate::new();
        batch.insert(0, 5, 1.0);
        batch.insert(0, 4, 1.0);
        batch.delete(3, 4);
        let frontier = dynamic_frontier(&graph, &membership, &batch);
        assert!(frontier.windows(2).all(|w| w[0] < w[1]), "{frontier:?}");
    }
}
