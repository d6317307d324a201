//! Greedy parallel graph coloring (Jones–Plassmann style).
//!
//! The paper's related work lists "ordering vertices via graph coloring"
//! (Grappolo, Halappanavar et al. \[11\]) among the parallelization
//! techniques for Louvain-family algorithms: vertices of one color form
//! an independent set, so they can all move *simultaneously without
//! races*, making the parallel algorithm deterministic. This module
//! provides the coloring; the color-synchronous local-moving variant in
//! `gve-leiden` consumes it.
//!
//! The implementation is Jones–Plassmann with random priorities: a
//! vertex is colored in the round where its priority is a local maximum
//! among uncolored neighbours, taking the smallest color unused by its
//! colored neighbourhood. Deterministic for a fixed seed.

use crate::{CsrGraph, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// A proper vertex coloring: `color[v]` differs from every neighbour's
/// color; ids are dense `0..num_colors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Color of each vertex.
    pub colors: Vec<VertexId>,
    /// Number of colors used.
    pub num_colors: usize,
}

impl Coloring {
    /// Vertices grouped by color, in vertex order within each color.
    pub fn classes(&self) -> Vec<Vec<VertexId>> {
        let mut classes = vec![Vec::new(); self.num_colors];
        for (v, &c) in self.colors.iter().enumerate() {
            classes[c as usize].push(v as VertexId);
        }
        classes
    }

    /// Checks that the coloring is proper for `graph`.
    pub fn validate(&self, graph: &CsrGraph) -> Result<(), String> {
        if self.colors.len() != graph.num_vertices() {
            return Err("coloring length mismatch".into());
        }
        for u in 0..graph.num_vertices() as VertexId {
            for &v in graph.neighbors(u) {
                if u != v && self.colors[u as usize] == self.colors[v as usize] {
                    return Err(format!(
                        "vertices {u} and {v} share color {}",
                        self.colors[u as usize]
                    ));
                }
            }
        }
        Ok(())
    }
}

const UNCOLORED: u32 = u32::MAX;

/// Mixes a seed and vertex id into a stable random priority.
#[inline]
fn priority(seed: u64, v: VertexId) -> u64 {
    let mut z =
        (seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Tie-break by id so priorities are a strict total order.
    ((z ^ (z >> 31)) << 32) | v as u64
}

/// Colors the graph with Jones–Plassmann rounds. Deterministic for a
/// fixed seed, independent of thread count.
pub fn jones_plassmann(graph: &CsrGraph, seed: u64) -> Coloring {
    let n = graph.num_vertices();
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    let remaining = AtomicBool::new(n > 0);
    // Relaxed atomics throughout: the rounds run on one thread, so every
    // read follows the writes it observes in program order; within a
    // round, same-round-colored vertices are never adjacent, so the
    // coloring does not depend on the visit order.
    while remaining.swap(false, Ordering::Relaxed) {
        // Freeze the round's uncolored set. Decisions are made against
        // this snapshot only, which makes the outcome independent of
        // scheduling: two vertices colored in the same round are never
        // adjacent (strict priority order on the frozen set), so the
        // palette each reads from earlier rounds is stable. (Relaxed
        // loads: the prior round's join published the colors.)
        let uncolored: Vec<bool> = colors
            .iter()
            .map(|c| c.load(Ordering::Relaxed) == UNCOLORED)
            .collect();
        (0..n as VertexId).for_each(|u| {
            if !uncolored[u as usize] {
                return;
            }
            let my_priority = priority(seed, u);
            // Color u only if it is the priority maximum among its
            // snapshot-uncolored neighbours.
            let mut is_max = true;
            for &v in graph.neighbors(u) {
                if v != u && uncolored[v as usize] && priority(seed, v) > my_priority {
                    is_max = false;
                    break;
                }
            }
            if !is_max {
                // Relaxed: flag re-read after the round's join.
                remaining.store(true, Ordering::Relaxed);
                return;
            }
            // Smallest color unused by previously colored neighbours.
            // Degrees bound the palette, so degree+1 slots suffice.
            let degree = graph.degree(u);
            let mut used = vec![false; degree + 1];
            for &v in graph.neighbors(u) {
                if v != u && !uncolored[v as usize] {
                    // Relaxed: snapshot-colored neighbors were written
                    // before the previous join.
                    let c = colors[v as usize].load(Ordering::Relaxed);
                    if (c as usize) < used.len() {
                        used[c as usize] = true;
                    }
                }
            }
            // Relaxed: no same-round reader of `u` (see loop header).
            let my_color = used.iter().position(|&b| !b).unwrap_or(degree) as u32;
            colors[u as usize].store(my_color, Ordering::Relaxed);
        });
    }
    // Relaxed: post-join read-back.
    let raw: Vec<VertexId> = colors.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    let num_colors = raw.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    Coloring {
        colors: raw,
        num_colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn colors_a_triangle_with_three() {
        let g = GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]);
        let coloring = jones_plassmann(&g, 1);
        coloring.validate(&g).unwrap();
        assert_eq!(coloring.num_colors, 3);
    }

    #[test]
    fn bipartite_needs_two() {
        // Even cycle: chromatic number 2; greedy may use at most Δ+1 = 3
        // but JP on a cycle usually finds 2–3.
        let g = GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 0, 1.0),
            ],
        );
        let coloring = jones_plassmann(&g, 3);
        coloring.validate(&g).unwrap();
        assert!(coloring.num_colors <= 3);
    }

    #[test]
    fn proper_on_random_graphs_and_bounded_by_degree() {
        for seed in [1u64, 2, 3] {
            let mut edges = Vec::new();
            let mut state = seed;
            for _ in 0..2000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                edges.push((
                    ((state >> 16) % 500) as u32,
                    ((state >> 40) % 500) as u32,
                    1.0,
                ));
            }
            let g = GraphBuilder::from_edges(500, &edges);
            let coloring = jones_plassmann(&g, seed);
            coloring.validate(&g).unwrap();
            let max_degree = (0..500u32).map(|u| g.degree(u)).max().unwrap();
            assert!(
                coloring.num_colors <= max_degree + 1,
                "{} colors for max degree {max_degree}",
                coloring.num_colors
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = GraphBuilder::from_edges(
            100,
            &(0..300u32)
                .map(|i| ((i * 13) % 100, (i * 29) % 100, 1.0))
                .collect::<Vec<_>>(),
        );
        assert_eq!(jones_plassmann(&g, 5), jones_plassmann(&g, 5));
    }

    #[test]
    fn classes_partition_the_vertices() {
        let g = GraphBuilder::from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let coloring = jones_plassmann(&g, 0);
        let classes = coloring.classes();
        assert_eq!(classes.len(), coloring.num_colors);
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        // Each class is an independent set.
        for class in &classes {
            for &u in class {
                for &v in class {
                    assert!(u == v || !g.has_arc(u, v));
                }
            }
        }
    }

    #[test]
    fn handles_self_loops_and_isolated_vertices() {
        let g = GraphBuilder::from_edges(4, &[(0, 0, 1.0), (1, 2, 1.0)]);
        let coloring = jones_plassmann(&g, 9);
        coloring.validate(&g).unwrap();
        assert_eq!(coloring.colors.len(), 4);
    }

    #[test]
    fn empty_graph() {
        let coloring = jones_plassmann(&CsrGraph::empty(0), 0);
        assert_eq!(coloring.num_colors, 0);
        assert!(coloring.colors.is_empty());
    }
}
