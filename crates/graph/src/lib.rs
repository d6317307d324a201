//! Weighted graph substrate for the GVE-Leiden reproduction.
//!
//! The paper's pipeline (Figure 5) consumes either a "Weighted
//! 2D-vector-based" graph or a "Weighted CSR with degree" and produces
//! super-vertex graphs stored in a "Weighted Holey CSR with degree". This
//! crate provides the two CSR forms plus the plumbing around them:
//!
//! * [`CsrGraph`] — immutable weighted compressed-sparse-row graph, the
//!   working representation for every algorithm crate;
//! * [`holey::AggregateScratch`] — the aggregation arena: over-allocated
//!   ("holey") CSR slots whose rows concurrent writers fill, then
//!   squeezed in place into the super-vertex graph, over vertex-sized
//!   scratch borrowed per epoch ([`holey::AggregateHosts`]);
//! * [`holey::GroupedCsr`] — exact-size CSR mapping group id → members
//!   (the community-vertices structure `G'_{C'}` of Algorithm 4);
//! * [`builder::GraphBuilder`] — edge-list ingestion with symmetrization,
//!   deduplication and self-loop policy;
//! * [`io`] — Matrix Market and plain edge-list readers/writers, enough to
//!   load the SuiteSparse files the paper uses when they are available.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod builder;
pub mod coloring;
pub mod csr;
pub mod holey;
pub mod io;
pub mod props;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use holey::{AggregateEpoch, AggregateHosts, AggregateScratch, GroupedCsr};

/// Vertex identifier. The paper uses 32-bit ids (§5.1.2).
pub type VertexId = u32;
/// Stored edge weight. The paper stores 32-bit floats and accumulates in
/// 64-bit floats (§5.1.2).
pub type EdgeWeight = f32;
