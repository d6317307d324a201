//! Synthetic graph generators for the GVE-Leiden reproduction.
//!
//! The paper evaluates on 13 SuiteSparse graphs spanning four classes —
//! web crawls (high degree, strong community structure), social networks
//! (heavy-tailed, weaker communities), road networks (planar, degree ≈ 2)
//! and protein k-mer graphs (near-linear chains). Downloading hundreds of
//! gigabytes is neither possible nor necessary here: the paper's
//! comparisons are *within-graph* (implementation A vs B on the same
//! input), so what must be preserved is each class's structural character,
//! not its absolute scale. This crate generates laptop-scale stand-ins:
//!
//! * [`rmat`] — Recursive-MATrix power-law graphs (web/social classes);
//! * [`sbm`] — planted-partition stochastic block model, with ground-truth
//!   labels for quality validation;
//! * [`er`] — Erdős–Rényi G(n, m) noise graphs;
//! * [`ba`] — Barabási–Albert preferential attachment;
//! * [`grid`] — road-like sparse lattices;
//! * [`kmer`] — chain-with-branches graphs mimicking GenBank k-mer data;
//! * [`suite()`] — a named 13-entry dataset suite mirroring Table 2.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

use gve_graph::{EdgeWeight, GraphBuilder, VertexId};
use gve_prim::parfor::static_blocks;

pub mod ba;
pub mod er;
pub mod grid;
pub mod kmer;
pub mod lfr;
pub mod ring;
pub mod rmat;
pub mod sbm;
pub mod suite;

pub use lfr::{Lfr, LfrResult};
pub use ring::ring_of_cliques;
pub use rmat::Rmat;
pub use sbm::{PlantedPartition, PlantedResult};
pub use suite::{suite, Dataset, GraphClass};

/// Splitmix64 — used to derive independent per-edge RNG streams from a
/// single user seed, so generation can be embarrassingly parallel yet
/// reproducible.
#[inline]
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a 32-bit xorshift seed for stream `index` of run `seed`.
#[inline]
pub(crate) fn stream_seed(seed: u64, index: u64) -> u32 {
    (splitmix64(seed ^ splitmix64(index)) >> 32) as u32
}

/// Adds to `builder` the edges `emit(i, out)` pushes for each stream
/// `i` in `0..streams`, in stream order. Static blocks of streams are
/// sampled in parallel and appended in block order, so the edge list is
/// the same at every thread count.
pub(crate) fn extend_from_streams<F>(builder: &mut GraphBuilder, streams: usize, emit: F)
where
    F: Fn(u64, &mut Vec<(VertexId, VertexId, EdgeWeight)>) + Sync,
{
    let blocks = static_blocks(streams, |_, range| {
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            emit(i as u64, &mut out);
        }
        out
    });
    for block in blocks {
        builder.extend(block);
    }
}

/// `n` as the exclusive bound of sampled vertex ids.
///
/// # Panics
/// Panics when `n` does not fit a [`VertexId`].
pub(crate) fn id_bound(n: usize) -> VertexId {
    VertexId::try_from(n).expect("vertex count exceeds the VertexId range")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_differ_across_indices() {
        let a = stream_seed(42, 0);
        let b = stream_seed(42, 1);
        let c = stream_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
