//! R-MAT recursive matrix graph generator (Chakrabarti, Zhan, Faloutsos).
//!
//! Each edge picks a quadrant of the adjacency matrix with probabilities
//! `(a, b, c, d)` recursively `scale` times, producing power-law degree
//! distributions. Skewed parameter sets mimic web crawls; flatter ones
//! mimic social networks. Generation is parallel and reproducible: edge
//! `i` derives its own RNG stream from the seed, so the edge list is the
//! same at every thread count. Each worker fills one static block of a
//! pre-sized edge list, advancing eight edge streams in lockstep so
//! their independent dependency chains overlap, and sampling the block's
//! last `len % 8` edges one stream at a time.

use crate::stream_seed;
use gve_graph::{CsrGraph, EdgeWeight, GraphBuilder, VertexId};
use gve_prim::parfor::static_blocks;
use gve_prim::{SharedSlice, Xorshift32};

/// Edge streams the sampler advances in lockstep. Each level of one
/// stream is a chain of five dependent xorshift draws; eight chains keep
/// the core busy where four still leave it waiting (EXPERIMENTS.md,
/// "Parallel graph construction").
const LANES: usize = 8;

/// R-MAT generator configuration.
#[derive(Debug, Clone)]
pub struct Rmat {
    scale: u32,
    edge_factor: f64,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    noise: f64,
}

impl Rmat {
    /// Creates a generator for `2^scale` vertices with `edge_factor`
    /// undirected edges per vertex and explicit quadrant probabilities
    /// (`d = 1 - a - b - c`).
    ///
    /// # Panics
    /// Panics when the probabilities are out of range.
    pub fn new(scale: u32, edge_factor: f64, a: f64, b: f64, c: f64) -> Self {
        assert!(a >= 0.0 && b >= 0.0 && c >= 0.0, "negative probability");
        assert!(a + b + c <= 1.0 + 1e-9, "probabilities exceed 1");
        assert!(scale < 31, "scale too large for u32 vertex ids");
        Self {
            scale,
            edge_factor,
            a,
            b,
            c,
            seed: 0,
            noise: 0.1,
        }
    }

    /// Web-crawl-like preset: strongly skewed quadrants (Graph500 uses
    /// a = 0.57, b = c = 0.19), giving hub-dominated power laws and
    /// pronounced community structure.
    pub fn web(scale: u32, edge_factor: f64) -> Self {
        Self::new(scale, edge_factor, 0.57, 0.19, 0.19)
    }

    /// Social-network-like preset: milder skew (a = 0.45,
    /// b = c = 0.22), yielding heavier cross-links and weaker
    /// communities — the paper's social graphs are its least clusterable.
    pub fn social(scale: u32, edge_factor: f64) -> Self {
        Self::new(scale, edge_factor, 0.45, 0.22, 0.22)
    }

    /// Sets the RNG seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-level probability noise that breaks the exact
    /// self-similarity of pure R-MAT (default 0.1).
    pub fn noise(mut self, noise: f64) -> Self {
        assert!((0.0..=1.0).contains(&noise));
        self.noise = noise;
        self
    }

    /// Number of vertices the generated graph will have.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Samples the edges of streams `seeds`, advancing them in lockstep.
    /// Each lane draws exactly the sequence a lone stream would: per
    /// level, four jittered quadrant weights and then the roll.
    #[inline(always)]
    fn sample_edges<const L: usize>(&self, seeds: [u32; L]) -> [(VertexId, VertexId); L] {
        let mut rngs = seeds.map(Xorshift32::new);
        let mut u = [0u32; L];
        let mut v = [0u32; L];
        let base = [self.a, self.b, self.c, 1.0 - self.a - self.b - self.c];
        let (keep, spread) = (1.0 - self.noise, 2.0 * self.noise);
        for _ in 0..self.scale {
            for lane in 0..L {
                // Jitter quadrant probabilities a little per level.
                let [a, b, c, d] = base.map(|p| p * (keep + spread * rngs[lane].next_f64()));
                let total = a + b + c + d;
                let roll = rngs[lane].next_f64() * total;
                // Quadrants in order (0,0), (0,1), (1,0), (1,1), chosen
                // by where the roll falls among the running sums.
                let bit_u = roll >= a + b;
                let bit_v = (roll >= a && roll < a + b) | (roll >= a + b + c);
                u[lane] = (u[lane] << 1) | u32::from(bit_u);
                v[lane] = (v[lane] << 1) | u32::from(bit_v);
            }
        }
        std::array::from_fn(|lane| (u[lane], v[lane]))
    }

    /// Generates the graph: duplicate arcs merged, reverse arcs added,
    /// self-loops dropped (as the paper's preprocessing does for crawls).
    pub fn generate(&self) -> CsrGraph {
        let n = self.num_vertices();
        let m = (n as f64 * self.edge_factor) as usize;
        let mut edges: Vec<(VertexId, VertexId, EdgeWeight)> = vec![(0, 0, 0.0); m];
        {
            let out = SharedSlice::new(&mut edges);
            static_blocks(m, |_, range| {
                let first = range.start as u64;
                // SAFETY: static blocks are disjoint.
                let block = unsafe { out.slice_mut(range) };
                let tail_start = block.len() - block.len() % LANES;
                let seed = |k: usize| stream_seed(self.seed, first + k as u64);
                let mut lanes = block.chunks_exact_mut(LANES);
                for (c, chunk) in lanes.by_ref().enumerate() {
                    let sampled =
                        self.sample_edges::<LANES>(std::array::from_fn(|l| seed(c * LANES + l)));
                    for (slot, (u, v)) in chunk.iter_mut().zip(sampled) {
                        *slot = (u, v, 1.0);
                    }
                }
                for (k, slot) in lanes.into_remainder().iter_mut().enumerate() {
                    let [(u, v)] = self.sample_edges([seed(tail_start + k)]);
                    *slot = (u, v, 1.0);
                }
            });
        }
        let mut builder = GraphBuilder::new().with_vertices(n).drop_self_loops(true);
        builder.extend(edges);
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let g = Rmat::web(10, 8.0).seed(1).generate();
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_arcs() > 0);
        assert!(g.is_symmetric());
        // Dedup may shrink below 2 * n * ef, but not to nothing.
        assert!(g.num_arcs() > 1024);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Rmat::social(8, 4.0).seed(7).generate();
        let b = Rmat::social(8, 4.0).seed(7).generate();
        assert_eq!(a, b);
        let c = Rmat::social(8, 4.0).seed(8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn no_self_loops() {
        let g = Rmat::web(8, 8.0).seed(3).generate();
        for u in 0..g.num_vertices() as u32 {
            assert!(!g.neighbors(u).contains(&u));
        }
    }

    #[test]
    fn web_preset_is_skewed() {
        // Hub-dominated: the max degree should far exceed the average.
        let g = Rmat::web(12, 8.0).seed(5).generate();
        let s = gve_graph::props::stats(&g);
        assert!(
            s.max_degree as f64 > 8.0 * s.avg_degree,
            "max {} avg {}",
            s.max_degree,
            s.avg_degree
        );
    }

    #[test]
    #[should_panic(expected = "probabilities exceed 1")]
    fn rejects_bad_probabilities() {
        Rmat::new(4, 2.0, 0.6, 0.3, 0.3);
    }
}
