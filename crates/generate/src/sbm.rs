//! Planted-partition stochastic block model with ground truth.
//!
//! Vertices are split into `k` equal blocks; `m_in` edges are sampled
//! uniformly inside blocks and `m_out` uniformly across blocks. With
//! `m_in ≫ m_out` the planted blocks are the dominant community
//! structure, which lets tests assert that a community detector actually
//! recovers known structure (NMI/ARI against [`PlantedResult::labels`])
//! rather than just optimizing a score.

use crate::{extend_from_streams, id_bound, stream_seed};
use gve_graph::{CsrGraph, GraphBuilder, VertexId};
use gve_prim::Xorshift32;

/// Planted-partition generator configuration.
#[derive(Debug, Clone)]
pub struct PlantedPartition {
    vertices: usize,
    communities: usize,
    intra_degree: f64,
    inter_degree: f64,
    seed: u64,
}

/// A generated graph together with its planted community labels.
#[derive(Debug, Clone)]
pub struct PlantedResult {
    /// The generated graph.
    pub graph: CsrGraph,
    /// Planted block id of each vertex.
    pub labels: Vec<VertexId>,
    /// Number of planted blocks.
    pub communities: usize,
}

impl PlantedPartition {
    /// Creates a model of `vertices` vertices in `communities` equal
    /// blocks, with expected intra-block degree `intra_degree` and
    /// expected inter-block degree `inter_degree` per vertex.
    ///
    /// # Panics
    /// Panics when `communities` is zero or exceeds `vertices`.
    pub fn new(vertices: usize, communities: usize, intra_degree: f64, inter_degree: f64) -> Self {
        assert!(communities > 0, "need at least one community");
        assert!(communities <= vertices, "more communities than vertices");
        assert!(intra_degree >= 0.0 && inter_degree >= 0.0);
        Self {
            vertices,
            communities,
            intra_degree,
            inter_degree,
            seed: 0,
        }
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Planted label of vertex `v` under the equal-block layout.
    #[inline]
    fn label_of(&self, v: usize) -> VertexId {
        // Blocks are contiguous ranges; the last block absorbs the
        // remainder.
        let base = self.vertices / self.communities;
        ((v / base.max(1)).min(self.communities - 1)) as VertexId
    }

    /// Vertex range of block `c`.
    fn block_range(&self, c: usize) -> std::ops::Range<usize> {
        let base = self.vertices / self.communities;
        let lo = c * base;
        let hi = if c + 1 == self.communities {
            self.vertices
        } else {
            (c + 1) * base
        };
        lo..hi
    }

    /// Generates the graph and its ground-truth labels.
    pub fn generate(&self) -> PlantedResult {
        let n = self.vertices;
        let m_in = (n as f64 * self.intra_degree / 2.0) as usize;
        let m_out = (n as f64 * self.inter_degree / 2.0) as usize;

        let bound = id_bound(n);
        let mut builder = GraphBuilder::new().with_vertices(n);

        // Intra-block edges: pick a block proportional to its size, then
        // two endpoints inside it.
        extend_from_streams(&mut builder, m_in, |i, out| {
            let mut rng = Xorshift32::new(stream_seed(self.seed, i));
            let v = rng.next_bounded(bound) as usize;
            let block = self.block_range(self.label_of(v) as usize);
            let len = (block.end - block.start) as u32;
            if len < 2 {
                return;
            }
            let a = block.start as u32 + rng.next_bounded(len);
            let b = block.start as u32 + rng.next_bounded(len);
            if a != b {
                out.push((a, b, 1.0));
            }
        });

        // Inter-block edges: uniform endpoints in different blocks.
        extend_from_streams(&mut builder, m_out, |i, out| {
            let mut rng = Xorshift32::new(stream_seed(self.seed ^ 0xA5A5_A5A5, i));
            let a = rng.next_bounded(bound);
            let b = rng.next_bounded(bound);
            if self.label_of(a as usize) != self.label_of(b as usize) {
                out.push((a, b, 1.0));
            }
        });

        let graph = builder.build();
        let labels = (0..n).map(|v| self.label_of(v)).collect();
        PlantedResult {
            graph,
            labels,
            communities: self.communities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_determinism() {
        let r = PlantedPartition::new(1000, 10, 8.0, 1.0).seed(3).generate();
        assert_eq!(r.graph.num_vertices(), 1000);
        assert_eq!(r.labels.len(), 1000);
        assert_eq!(r.communities, 10);
        assert!(r.graph.is_symmetric());
        let r2 = PlantedPartition::new(1000, 10, 8.0, 1.0).seed(3).generate();
        assert_eq!(r.graph, r2.graph);
    }

    #[test]
    fn labels_are_contiguous_blocks() {
        let r = PlantedPartition::new(103, 10, 4.0, 0.5).generate();
        // Non-divisible: last block absorbs the remainder.
        assert_eq!(r.labels[0], 0);
        assert_eq!(r.labels[9], 0);
        assert_eq!(r.labels[10], 1);
        assert_eq!(*r.labels.last().unwrap(), 9);
        for w in r.labels.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
    }

    #[test]
    fn intra_edges_dominate() {
        let r = PlantedPartition::new(2000, 20, 10.0, 1.0)
            .seed(9)
            .generate();
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v, _) in r.graph.arcs() {
            if r.labels[u as usize] == r.labels[v as usize] {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(
            intra > 5 * inter,
            "intra {intra} should dominate inter {inter}"
        );
    }

    #[test]
    fn single_community_has_no_inter_edges() {
        let r = PlantedPartition::new(100, 1, 4.0, 2.0).generate();
        for (u, v, _) in r.graph.arcs() {
            assert_eq!(r.labels[u as usize], r.labels[v as usize]);
        }
    }

    #[test]
    #[should_panic(expected = "more communities than vertices")]
    fn rejects_too_many_communities() {
        PlantedPartition::new(5, 10, 1.0, 1.0);
    }
}
