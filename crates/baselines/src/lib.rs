//! Comparator implementations: every baseline except GVE-Louvain,
//! which runs on GVE-Leiden's own pass loop (`gve_leiden::louvain`).
//!
//! The paper benchmarks GVE-Leiden against four external systems. Two of
//! them are reproduced here *in the style that makes them slow*, so the
//! performance comparisons of Figure 6 have honest local stand-ins:
//!
//! * [`seq`] — sequential Leiden in the spirit of the original
//!   `libleidenalg` (Traag et al.): queue-driven local moving and
//!   randomized proportional refinement, single-threaded. Plays the role
//!   of "original Leiden" / "igraph Leiden" (both sequential). The same
//!   module holds textbook sequential Louvain (Blondel et al.), the
//!   unoptimized producer of internally-disconnected communities.
//! * [`nk`] — a parallel Leiden in the style the paper attributes to
//!   NetworKit's implementation \[19\]: *global queue* based work
//!   distribution with per-community *locking*, and an unoptimized
//!   lock-guarded aggregation phase. Plays the role of "NetworKit
//!   Leiden".
//!
//! Each takes only the graph; its tolerance, caps and seed are private
//! constants.
//!
//! cuGraph Leiden (GPU) has no CPU-side stand-in; experiments note its
//! absence (see DESIGN.md substitution table).

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod nk;
pub mod seq;

use gve_graph::VertexId;

/// Common result shape for the baseline implementations.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Community of every vertex, dense `0..k`.
    pub membership: Vec<VertexId>,
    /// Number of communities.
    pub num_communities: usize,
    /// Passes performed.
    pub passes: usize,
}
