//! Detection of internally-disconnected communities.
//!
//! The headline quality guarantee of Leiden over Louvain is that every
//! returned community is internally connected (Traag et al. 2019). The
//! paper measures the *fraction of disconnected communities* for every
//! implementation (Figure 6(d)): Louvain-family methods and buggy Leiden
//! implementations produce nonzero fractions; a correct Leiden must
//! produce exactly zero. The check is a BFS restricted to each
//! community's members, one community after another.

use gve_graph::{CsrGraph, GroupedCsr, VertexId};
use std::collections::VecDeque;

/// Result of the disconnected-community scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityReport {
    /// Total number of (non-empty) communities.
    pub communities: usize,
    /// Number of communities whose induced subgraph is disconnected.
    pub disconnected: usize,
}

impl ConnectivityReport {
    /// Fraction of communities that are internally disconnected — the
    /// y-axis of Figure 6(d).
    pub fn fraction(&self) -> f64 {
        if self.communities == 0 {
            0.0
        } else {
            self.disconnected as f64 / self.communities as f64
        }
    }

    /// True when the Leiden connectivity guarantee holds.
    pub fn all_connected(&self) -> bool {
        self.disconnected == 0
    }
}

/// Scans every community for internal connectivity.
///
/// # Panics
/// Panics when `membership.len() != graph.num_vertices()`.
pub fn disconnected_communities(graph: &CsrGraph, membership: &[VertexId]) -> ConnectivityReport {
    assert_eq!(membership.len(), graph.num_vertices());
    if membership.is_empty() {
        return ConnectivityReport {
            communities: 0,
            disconnected: 0,
        };
    }
    let num_ids = membership.iter().map(|&c| c as usize + 1).max().unwrap();
    let groups = GroupedCsr::group_by(membership, num_ids);

    let (communities, disconnected) = (0..num_ids as VertexId)
        .map(|c| {
            let members = groups.members(c);
            if members.is_empty() {
                return (0usize, 0usize);
            }
            if members.len() == 1 {
                return (1, 0);
            }
            // BFS within the community. Membership in `members` is
            // equivalent to `membership[v] == c`, which is O(1).
            let mut visited = vec![false; members.len()];
            // Map vertex -> position for the visited bitmap without a
            // global array: use a local hash-free trick — positions via
            // binary search over the sorted member list.
            let mut sorted = members.to_vec();
            sorted.sort_unstable();
            let pos = |v: VertexId| sorted.binary_search(&v).unwrap();
            let mut queue = VecDeque::with_capacity(members.len().min(64));
            queue.push_back(sorted[0]);
            visited[0] = true;
            let mut reached = 1usize;
            while let Some(u) = queue.pop_front() {
                for (v, _) in graph.edges(u) {
                    if membership[v as usize] == c {
                        let p = pos(v);
                        if !visited[p] {
                            visited[p] = true;
                            reached += 1;
                            queue.push_back(v);
                        }
                    }
                }
            }
            (1, usize::from(reached < members.len()))
        })
        .fold((0, 0), |(c1, d1), (c2, d2)| (c1 + c2, d1 + d2));

    ConnectivityReport {
        communities,
        disconnected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    fn two_triangles_with_bridge() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            &[
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 0, 1.0),
                (3, 4, 1.0),
                (4, 5, 1.0),
                (5, 3, 1.0),
                (2, 3, 1.0),
            ],
        )
    }

    #[test]
    fn connected_communities_pass() {
        let g = two_triangles_with_bridge();
        let report = disconnected_communities(&g, &[0, 0, 0, 1, 1, 1]);
        assert_eq!(report.communities, 2);
        assert_eq!(report.disconnected, 0);
        assert!(report.all_connected());
        assert_eq!(report.fraction(), 0.0);
    }

    #[test]
    fn detects_disconnected_community() {
        // Vertices 0 and 5 share a community but have no internal path.
        let g = two_triangles_with_bridge();
        let report = disconnected_communities(&g, &[0, 1, 1, 1, 1, 0]);
        assert_eq!(report.communities, 2);
        assert_eq!(report.disconnected, 1);
        assert_eq!(report.fraction(), 0.5);
        assert!(!report.all_connected());
    }

    #[test]
    fn singleton_communities_are_connected() {
        let g = two_triangles_with_bridge();
        let report = disconnected_communities(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(report.communities, 6);
        assert!(report.all_connected());
    }

    #[test]
    fn isolated_pair_in_same_community_is_disconnected() {
        let g = CsrGraph::empty(2);
        let report = disconnected_communities(&g, &[0, 0]);
        assert_eq!(report.disconnected, 1);
    }

    #[test]
    fn gapped_community_ids_are_tolerated() {
        let g = two_triangles_with_bridge();
        // Ids 0 and 5 only; ids 1..4 unused.
        let report = disconnected_communities(&g, &[0, 0, 0, 5, 5, 5]);
        assert_eq!(report.communities, 2);
        assert!(report.all_connected());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0);
        let report = disconnected_communities(&g, &[]);
        assert_eq!(report.communities, 0);
        assert_eq!(report.fraction(), 0.0);
    }
}
