//! Road-network-like sparse lattices.
//!
//! The paper's road graphs (asia_osm, europe_osm) have average degree
//! ≈ 2.1: long stretches of degree-2 road with sparse intersections.
//! We model that as a 2D lattice whose edges are kept with a probability
//! tuned to the target average degree, biased to keep horizontal "roads"
//! contiguous. The result is planar-ish, low-degree and
//! community-structured by locality — the properties that make road
//! networks slow per edge for Leiden (many passes, little work per pass).

use crate::{extend_from_streams, id_bound, stream_seed};
use gve_graph::{CsrGraph, GraphBuilder, VertexId};
use gve_prim::Xorshift32;

/// Generates a road-like graph on a `width × height` lattice with the
/// given target average degree (arcs per vertex; realistic values are
/// around 2.1).
///
/// # Panics
/// Panics when the lattice is empty or its vertex count does not fit a
/// [`VertexId`].
pub fn road_grid(width: usize, height: usize, avg_degree: f64, seed: u64) -> CsrGraph {
    let n = width
        .checked_mul(height)
        .expect("lattice size overflows usize");
    assert!(n > 0, "empty lattice");
    // Lattice ids run below `n`, and `index` casts them to `VertexId`.
    id_bound(n);
    // A full lattice has ~2 undirected edges per vertex (4 arcs); keep a
    // fraction to reach the target.
    let keep = (avg_degree / 4.0).clamp(0.0, 1.0);

    let index = |x: usize, y: usize| (y * width + x) as VertexId;
    let mut builder = GraphBuilder::new().with_vertices(n);
    extend_from_streams(&mut builder, n, |i, out| {
        let x = (i as usize) % width;
        let y = (i as usize) / width;
        let mut rng = Xorshift32::new(stream_seed(seed, i));
        // Horizontal roads are kept with higher probability to create
        // degree-2 chains; vertical connectors are sparser.
        if x + 1 < width && rng.next_f64() < (keep * 1.5).min(1.0) {
            out.push((index(x, y), index(x + 1, y), 1.0));
        }
        if y + 1 < height && rng.next_f64() < keep * 0.5 {
            out.push((index(x, y), index(x, y + 1), 1.0));
        }
    });
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_degree_near_target() {
        let g = road_grid(200, 200, 2.1, 1);
        let s = gve_graph::props::stats(&g);
        assert_eq!(s.vertices, 40_000);
        assert!(
            (s.avg_degree - 2.1).abs() < 0.3,
            "avg degree {}",
            s.avg_degree
        );
        // Lattice: degree can never exceed 4.
        assert!(s.max_degree <= 4);
    }

    #[test]
    fn deterministic() {
        assert_eq!(road_grid(50, 50, 2.0, 3), road_grid(50, 50, 2.0, 3));
        assert_ne!(road_grid(50, 50, 2.0, 3), road_grid(50, 50, 2.0, 4));
    }

    #[test]
    fn degenerate_single_row() {
        let g = road_grid(100, 1, 4.0, 0);
        assert_eq!(g.num_vertices(), 100);
        // keep = 1.0 → the full path survives.
        assert_eq!(g.num_arcs(), 2 * 99);
    }

    #[test]
    fn zero_degree_target_gives_empty() {
        let g = road_grid(10, 10, 0.0, 0);
        assert_eq!(g.num_arcs(), 0);
    }
}
