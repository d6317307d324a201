//! Per-community detail reports.
//!
//! Aggregate scores (modularity, NMI) say whether a partition is good
//! overall; diagnosing *which* communities are weak needs per-community
//! structure: size, internal/boundary weight, conductance, connectivity.
//! Used by the `gve quality` CLI and the drill-down examples.

use gve_graph::{CsrGraph, GroupedCsr, VertexId};
use std::collections::VecDeque;

/// Structural details of one community.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityDetail {
    /// Community id.
    pub id: VertexId,
    /// Number of member vertices.
    pub size: usize,
    /// Total weight of internal arcs (both directions; `σ_c`).
    pub internal_weight: f64,
    /// Total weight of boundary arcs leaving the community.
    pub boundary_weight: f64,
    /// Conductance `cut / min(vol, 2m − vol)`; 0 for isolated
    /// communities.
    pub conductance: f64,
    /// Whether the induced subgraph is connected.
    pub connected: bool,
}

impl CommunityDetail {
    /// Community volume `Σ_c = σ_c + cut`.
    pub fn volume(&self) -> f64 {
        self.internal_weight + self.boundary_weight
    }
}

/// Computes [`CommunityDetail`] for every non-empty community, ordered
/// by decreasing size.
pub fn community_report(graph: &CsrGraph, membership: &[VertexId]) -> Vec<CommunityDetail> {
    assert_eq!(membership.len(), graph.num_vertices());
    if membership.is_empty() {
        return Vec::new();
    }
    let num_ids = membership.iter().map(|&c| c as usize + 1).max().unwrap();
    let groups = GroupedCsr::group_by(membership, num_ids);
    let two_m = graph.total_arc_weight();

    let mut details: Vec<CommunityDetail> = (0..num_ids as VertexId)
        .filter_map(|c| {
            let members = groups.members(c);
            if members.is_empty() {
                return None;
            }
            let mut internal = 0.0f64;
            let mut boundary = 0.0f64;
            for &i in members {
                for (j, w) in graph.edges(i) {
                    if membership[j as usize] == c {
                        internal += w as f64;
                    } else {
                        boundary += w as f64;
                    }
                }
            }
            let volume = internal + boundary;
            let denominator = volume.min(two_m - volume);
            let conductance = if denominator <= 0.0 {
                0.0
            } else {
                boundary / denominator
            };
            // Connectivity via BFS over the members.
            let connected = if members.len() <= 1 {
                true
            } else {
                let mut sorted = members.to_vec();
                sorted.sort_unstable();
                let mut visited = vec![false; sorted.len()];
                visited[0] = true;
                let mut reached = 1usize;
                let mut queue = VecDeque::from([sorted[0]]);
                while let Some(u) = queue.pop_front() {
                    for (v, _) in graph.edges(u) {
                        if membership[v as usize] == c {
                            let p = sorted.binary_search(&v).unwrap();
                            if !visited[p] {
                                visited[p] = true;
                                reached += 1;
                                queue.push_back(v);
                            }
                        }
                    }
                }
                reached == sorted.len()
            };
            Some(CommunityDetail {
                id: c,
                size: members.len(),
                internal_weight: internal,
                boundary_weight: boundary,
                conductance,
                connected,
            })
        })
        .collect();
    details.sort_by(|a, b| b.size.cmp(&a.size).then(a.id.cmp(&b.id)));
    details
}

/// Renders the report's top `limit` communities as an aligned text
/// table.
pub fn format_report(details: &[CommunityDetail], limit: usize) -> String {
    let mut out = String::from("  id     size   internal   boundary   conductance  connected\n");
    for d in details.iter().take(limit) {
        out.push_str(&format!(
            "{:>4} {:>8} {:>10.1} {:>10.1} {:>12.4}  {}\n",
            d.id,
            d.size,
            d.internal_weight,
            d.boundary_weight,
            d.conductance,
            if d.connected { "yes" } else { "NO" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::disconnected_communities;
    use gve_graph::GraphBuilder;

    fn two_triangles() -> CsrGraph {
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
    fn report_matches_structure() {
        let g = two_triangles();
        let report = community_report(&g, &[0, 0, 0, 1, 1, 1]);
        assert_eq!(report.len(), 2);
        for d in &report {
            assert_eq!(d.size, 3);
            assert_eq!(d.internal_weight, 6.0);
            assert_eq!(d.boundary_weight, 1.0);
            assert!((d.conductance - 1.0 / 7.0).abs() < 1e-12);
            assert!(d.connected);
            assert_eq!(d.volume(), 7.0);
        }
    }

    #[test]
    fn report_flags_disconnected_communities() {
        let g = two_triangles();
        // 0 and 5 share a community without an internal path.
        let report = community_report(&g, &[0, 1, 1, 1, 1, 0]);
        let broken = report.iter().find(|d| d.size == 2).unwrap();
        assert!(!broken.connected);
        // Cross-check against the dedicated detector.
        let check = disconnected_communities(&g, &[0, 1, 1, 1, 1, 0]);
        assert_eq!(
            report.iter().filter(|d| !d.connected).count(),
            check.disconnected
        );
    }

    #[test]
    fn report_is_sorted_by_size() {
        let g = two_triangles();
        let report = community_report(&g, &[0, 0, 0, 1, 1, 2]);
        let sizes: Vec<_> = report.iter().map(|d| d.size).collect();
        assert_eq!(sizes, vec![3, 2, 1]);
    }

    #[test]
    fn format_is_stable() {
        let g = two_triangles();
        let report = community_report(&g, &[0, 0, 0, 1, 1, 1]);
        let text = format_report(&report, 10);
        assert!(text.contains("conductance"));
        assert_eq!(text.lines().count(), 3);
        // Limit respected.
        assert_eq!(format_report(&report, 1).lines().count(), 2);
    }

    #[test]
    fn empty_inputs() {
        let g = CsrGraph::empty(0);
        assert!(community_report(&g, &[]).is_empty());
    }
}
