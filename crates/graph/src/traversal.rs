//! Graph traversal: BFS and parallel connected components.
//!
//! The Leiden connectivity guarantee is defined in terms of connected
//! components of induced subgraphs; the whole-graph component structure
//! is also a useful dataset statistic (the paper's road/k-mer graphs are
//! far from connected). Components are computed with parallel
//! label-propagation hooking (a simplified Shiloach–Vishkin), BFS with a
//! plain frontier queue.

use crate::{CsrGraph, VertexId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// Breadth-first search from `source`; returns the hop distance of every
/// vertex (`u32::MAX` for unreachable ones).
pub fn bfs_distances(graph: &CsrGraph, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source out of range");
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = dist[u as usize] + 1;
        for &v in graph.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Parallel connected components via label-propagation hooking: every
/// vertex starts with its own label; rounds of parallel min-label
/// adoption run until a fixed point. Returns `(component_of, count)`
/// with dense component ids.
pub fn connected_components(graph: &CsrGraph) -> (Vec<VertexId>, usize) {
    let n = graph.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    // Relaxed atomics throughout: labels only ever decrease (fetch_min
    // keeps them monotone), and the rounds run on one thread, so the
    // `changed` flag is read after every store of its round.
    while changed.swap(false, Ordering::Relaxed) {
        (0..n as VertexId).for_each(|u| {
            let mut best = labels[u as usize].load(Ordering::Relaxed);
            for &v in graph.neighbors(u) {
                best = best.min(labels[v as usize].load(Ordering::Relaxed));
            }
            // Propagate the smaller label; Relaxed fetch_min keeps this
            // monotone under races.
            if labels[u as usize].fetch_min(best, Ordering::Relaxed) > best {
                changed.store(true, Ordering::Relaxed);
            }
        });
        // Pointer-jumping: compress label chains so long paths converge
        // in O(log n) rounds instead of O(diameter).
        // (Relaxed label walks: monotone, as above.)
        (0..n).for_each(|u| {
            let mut l = labels[u].load(Ordering::Relaxed);
            loop {
                let parent = labels[l as usize].load(Ordering::Relaxed);
                if parent == l {
                    break;
                }
                l = parent;
            }
            // Relaxed: monotone fetch_min, as above.
            labels[u].fetch_min(l, Ordering::Relaxed);
        });
    }
    // Relaxed: post-join read-back.
    let raw: Vec<VertexId> = labels.iter().map(|l| l.load(Ordering::Relaxed)).collect();
    // Densify.
    let mut remap = vec![VertexId::MAX; n.max(1)];
    let mut next = 0;
    let mut out = Vec::with_capacity(n);
    for &l in &raw {
        let slot = &mut remap[l as usize];
        if *slot == VertexId::MAX {
            *slot = next;
            next += 1;
        }
        out.push(*slot);
    }
    (out, next as usize)
}

/// True when the whole graph is one connected component (vacuously true
/// for the empty graph).
pub fn is_connected(graph: &CsrGraph) -> bool {
    graph.num_vertices() == 0 || connected_components(graph).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn two_components() -> CsrGraph {
        // Path 0-1-2 and edge 3-4, vertex 5 isolated.
        GraphBuilder::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = two_components();
        let dist = bfs_distances(&g, 0);
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], 1);
        assert_eq!(dist[2], 2);
        assert_eq!(dist[3], u32::MAX);
        assert_eq!(dist[5], u32::MAX);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bfs_rejects_bad_source() {
        bfs_distances(&two_components(), 6);
    }

    #[test]
    fn components_are_found_and_dense() {
        let g = two_components();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[5]);
        assert_eq!(*comp.iter().max().unwrap() as usize + 1, count);
    }

    #[test]
    fn connectivity_predicate() {
        assert!(!is_connected(&two_components()));
        let ring =
            GraphBuilder::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]);
        assert!(is_connected(&ring));
        assert!(is_connected(&CsrGraph::empty(0)));
        assert!(!is_connected(&CsrGraph::empty(2)));
    }

    #[test]
    fn long_path_converges() {
        // Path of 10_000 vertices: pointer jumping must keep rounds low
        // enough to finish fast.
        let edges: Vec<(u32, u32, f32)> = (0..9999u32).map(|i| (i, i + 1, 1.0)).collect();
        let g = GraphBuilder::from_edges(10_000, &edges);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 1);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn matches_bfs_reachability() {
        let g = gve_test_graph();
        let (comp, _) = connected_components(&g);
        let dist = bfs_distances(&g, 0);
        for v in 0..g.num_vertices() {
            assert_eq!(
                comp[v] == comp[0],
                dist[v] != u32::MAX,
                "vertex {v}: component vs reachability disagree"
            );
        }
    }

    fn gve_test_graph() -> CsrGraph {
        // Pseudo-random sparse graph with several components.
        let mut edges = Vec::new();
        let mut state = 99u64;
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 16) % 400) as u32;
            let v = ((state >> 40) % 400) as u32;
            edges.push((u, v, 1.0));
        }
        GraphBuilder::from_edges(400, &edges)
    }
}
