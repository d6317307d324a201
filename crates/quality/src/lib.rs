//! Partition quality metrics for community detection.
//!
//! Everything the paper's evaluation section measures about a partition:
//!
//! * [`modularity`] — Newman modularity (Equation 1), the quality
//!   function every implementation in Figure 6(c) optimizes;
//! * [`delta_modularity`] — the move gain of Equation 2, exposed so
//!   property tests can check the algorithm crates' incremental math
//!   against a full recomputation;
//! * [`cpm`] — the Constant Potts Model, the resolution-limit-free
//!   alternative quality function the paper cites (§2);
//! * [`connectivity`] — detection of internally-disconnected communities
//!   (Figure 6(d)); the Leiden guarantee is that there are none;
//! * [`partition`] — membership validation and size statistics;
//! * [`compare`] — NMI and ARI against ground-truth labels, used with the
//!   planted-partition generator.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod compare;
pub mod connectivity;
pub mod metrics;
pub mod partition;
pub mod report;

pub use compare::{adjusted_rand_index, normalized_mutual_information};
pub use connectivity::{disconnected_communities, ConnectivityReport};
pub use metrics::{
    average_conductance, coverage, cpm, delta_modularity, modularity, modularity_with_resolution,
};
pub use partition::{community_count, community_sizes, size_stats, validate_membership, SizeStats};
pub use report::{community_report, format_report, CommunityDetail};
