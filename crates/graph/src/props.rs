//! Derived per-vertex and whole-graph properties.
//!
//! Every pass of the Leiden algorithm starts by computing the total edge
//! weight of each vertex (`K'`, Algorithm 1 line 4); the modularity
//! formulas need the graph's total weight `m`. Conventions used across
//! the workspace:
//!
//! * an undirected edge is stored as two directed arcs; a self-loop as
//!   one arc;
//! * `K_u` is the sum of arc weights out of `u` (self-loop counted once);
//! * `2m = Σ_u K_u` = [`crate::CsrGraph::total_arc_weight`].
//!
//! These conventions are self-consistent under aggregation: collapsing a
//! community to a super-vertex with a self-loop of weight `σ_c` preserves
//! both `2m` and the modularity of the induced partition.

use crate::{CsrGraph, VertexId};

/// Computes the weighted degree `K_u` of every vertex
/// (`vertexWeights(G')` of Algorithm 1).
pub fn vertex_weights(graph: &CsrGraph) -> Vec<f64> {
    (0..graph.num_vertices() as VertexId)
        .map(|u| graph.weighted_degree(u))
        .collect()
}

/// The paper's `m`: half the total arc weight.
pub fn total_edge_weight(graph: &CsrGraph) -> f64 {
    graph.total_arc_weight() / 2.0
}

/// Summary statistics mirroring the columns of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of vertices `|V|`.
    pub vertices: usize,
    /// Number of directed arcs `|E|` (reverse edges included).
    pub arcs: usize,
    /// Average degree `D_avg = |E| / |V|`.
    pub avg_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of self-loop arcs.
    pub self_loops: usize,
    /// Total edge weight `m`.
    pub total_weight: f64,
}

/// Computes [`GraphStats`] in one sweep.
pub fn stats(graph: &CsrGraph) -> GraphStats {
    let n = graph.num_vertices();
    let (max_degree, self_loops) = (0..n as VertexId)
        .map(|u| {
            let loops = graph.neighbors(u).iter().filter(|&&v| v == u).count();
            (graph.degree(u), loops)
        })
        .fold((0usize, 0usize), |(d1, l1), (d2, l2)| (d1.max(d2), l1 + l2));
    GraphStats {
        vertices: n,
        arcs: graph.num_arcs(),
        avg_degree: if n == 0 {
            0.0
        } else {
            graph.num_arcs() as f64 / n as f64
        },
        max_degree,
        self_loops,
        total_weight: total_edge_weight(graph),
    }
}

/// Log-binned degree histogram: bin `i` counts vertices whose degree
/// falls in `[2^i, 2^(i+1))`; bin 0 additionally holds degree-0 and
/// degree-1 vertices. The standard view of a power-law distribution.
pub fn degree_histogram(graph: &CsrGraph) -> Vec<usize> {
    let mut bins: Vec<usize> = Vec::new();
    for u in 0..graph.num_vertices() as VertexId {
        let degree = graph.degree(u);
        let bin = if degree <= 1 {
            0
        } else {
            (usize::BITS - 1 - degree.leading_zeros()) as usize
        };
        if bin >= bins.len() {
            bins.resize(bin + 1, 0);
        }
        bins[bin] += 1;
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_loop() -> CsrGraph {
        GraphBuilder::from_edges(3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (0, 0, 4.0)])
    }

    #[test]
    fn vertex_weights_count_loops_once() {
        let g = triangle_plus_loop();
        let k = vertex_weights(&g);
        assert_eq!(k, vec![1.0 + 3.0 + 4.0, 1.0 + 2.0, 2.0 + 3.0]);
    }

    #[test]
    fn total_weight_is_half_arc_weight() {
        let g = triangle_plus_loop();
        // Arcs: 2·(1+2+3) + 4 = 16 → m = 8.
        assert_eq!(total_edge_weight(&g), 8.0);
        assert_eq!(vertex_weights(&g).iter().sum::<f64>(), 16.0);
    }

    #[test]
    fn stats_columns() {
        let g = triangle_plus_loop();
        let s = stats(&g);
        assert_eq!(s.vertices, 3);
        assert_eq!(s.arcs, 7);
        assert_eq!(s.max_degree, 3);
        assert_eq!(s.self_loops, 1);
        assert!((s.avg_degree - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.total_weight, 8.0);
    }

    #[test]
    fn degree_histogram_bins_by_log2() {
        // Degrees: 0 (isolated), 1, 2, 3, 4, 8.
        let g = GraphBuilder::from_edges(
            10,
            &[
                (1, 2, 1.0),
                (2, 3, 1.0),
                (3, 4, 1.0),
                (3, 5, 1.0),
                (4, 5, 1.0),
                (4, 6, 1.0),
                (4, 7, 1.0),
            ],
        );
        let bins = degree_histogram(&g);
        // bin 0: degrees 0..=1 → vertices 0, 8, 9, 1, 6, 7 = 6
        assert_eq!(bins[0], 6);
        // bin 1: degrees 2..=3 → vertices 2, 5, 3 = 3
        assert_eq!(bins[1], 3);
        // bin 2: degrees 4..=7 → vertex 4
        assert_eq!(bins[2], 1);
        assert_eq!(bins.iter().sum::<usize>(), 10);
    }

    #[test]
    fn degree_histogram_of_power_law_graph_decays() {
        let mut edges = Vec::new();
        // A star plus a ring: strong degree skew.
        for v in 1..200u32 {
            edges.push((0, v, 1.0));
        }
        for v in 1..199u32 {
            edges.push((v, v + 1, 1.0));
        }
        let g = GraphBuilder::from_edges(200, &edges);
        let bins = degree_histogram(&g);
        assert_eq!(*bins.last().unwrap(), 1, "hub alone in the top bin");
        assert!(bins[1] > 100, "bulk at low degree");
    }

    #[test]
    fn stats_empty_graph() {
        let g = CsrGraph::empty(0);
        let s = stats(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.avg_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }
}
