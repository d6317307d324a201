//! Erdős–Rényi `G(n, m)` random graphs.
//!
//! Structureless noise graphs: no planted communities, Poisson degrees.
//! Used as the "no community structure" control in tests — modularity
//! optimizers should return low scores here, and any detector claiming
//! strong communities on ER noise is broken.

use crate::{extend_from_streams, id_bound, stream_seed};
use gve_graph::{CsrGraph, GraphBuilder};
use gve_prim::Xorshift32;

/// Generates an undirected `G(n, m)` graph: `m` edges with endpoints
/// drawn uniformly (self-loops rejected, duplicates merged).
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2 || m == 0, "need at least two vertices for edges");
    let bound = id_bound(n);
    let mut builder = GraphBuilder::new().with_vertices(n);
    extend_from_streams(&mut builder, m, |i, out| {
        let mut rng = Xorshift32::new(stream_seed(seed, i));
        let u = rng.next_bounded(bound);
        let mut v = rng.next_bounded(bound);
        while v == u {
            v = rng.next_bounded(bound);
        }
        out.push((u, v, 1.0));
    });
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let g = erdos_renyi(500, 2000, 1);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.is_symmetric());
        // Duplicates merge, so arcs ≤ 2m; collisions are rare at this
        // density so we retain most edges.
        assert!(g.num_arcs() <= 4000);
        assert!(g.num_arcs() > 3800);
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(100, 300, 7), erdos_renyi(100, 300, 7));
        assert_ne!(erdos_renyi(100, 300, 7), erdos_renyi(100, 300, 8));
    }

    #[test]
    fn no_self_loops() {
        let g = erdos_renyi(50, 500, 3);
        for u in 0..50u32 {
            assert!(!g.neighbors(u).contains(&u));
        }
    }

    #[test]
    fn zero_edges() {
        let g = erdos_renyi(10, 0, 0);
        assert_eq!(g.num_arcs(), 0);
    }
}
