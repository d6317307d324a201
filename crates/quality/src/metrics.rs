//! Modularity (Equation 1), delta-modularity (Equation 2) and CPM.
//!
//! Conventions follow `gve-graph`: undirected edges stored as two arcs,
//! self-loops as one arc, `K_u` counts a self-loop once and
//! `2m = Σ_u K_u`. Under these conventions modularity is invariant under
//! the aggregation used by Louvain/Leiden, which the algorithm crates'
//! tests rely on.

use gve_graph::{CsrGraph, VertexId};

/// Newman modularity `Q` of a membership vector (Equation 1 of the
/// paper), computed as `Σ_c [σ_c/2m − (Σ_c/2m)²]`.
///
/// Returns 0 for an edgeless graph (no meaningful score exists).
///
/// # Panics
/// Panics when `membership.len() != graph.num_vertices()`.
pub fn modularity(graph: &CsrGraph, membership: &[VertexId]) -> f64 {
    modularity_with_resolution(graph, membership, 1.0)
}

/// Modularity with a resolution parameter `γ`:
/// `Σ_c [σ_c/2m − γ (Σ_c/2m)²]`. `γ = 1` is Equation 1.
pub fn modularity_with_resolution(
    graph: &CsrGraph,
    membership: &[VertexId],
    resolution: f64,
) -> f64 {
    assert_eq!(
        membership.len(),
        graph.num_vertices(),
        "membership length must match the vertex count"
    );
    let two_m = graph.total_arc_weight();
    if two_m == 0.0 {
        return 0.0;
    }
    let num_communities = membership
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);

    // Per-community totals and the intra-community weight, in one sweep.
    let (sigma, total) = (0..graph.num_vertices()).fold(
        (vec![0.0f64; num_communities], 0.0f64),
        |(mut sigma, mut intra), u| {
            let cu = membership[u];
            let mut k_u = 0.0;
            for (v, w) in graph.edges(u as VertexId) {
                let w = w as f64;
                k_u += w;
                if membership[v as usize] == cu {
                    intra += w;
                }
            }
            sigma[cu as usize] += k_u;
            (sigma, intra)
        },
    );

    let intra_fraction = total / two_m;
    let expected: f64 = sigma.iter().map(|&s| (s / two_m) * (s / two_m)).sum();
    intra_fraction - resolution * expected
}

/// Delta-modularity of moving vertex `i` from community `d` to `c`
/// (Equation 2):
///
/// `ΔQ = (K_{i→c} − K_{i→d}) / m − K_i (K_i + Σ_c − Σ_d) / (2m²)`
///
/// where `K_{i→x}` excludes self-loops, `Σ_d` still includes vertex `i`
/// and `Σ_c` does not.
#[inline]
pub fn delta_modularity(
    k_i_to_c: f64,
    k_i_to_d: f64,
    k_i: f64,
    sigma_c: f64,
    sigma_d: f64,
    m: f64,
) -> f64 {
    (k_i_to_c - k_i_to_d) / m - k_i * (k_i + sigma_c - sigma_d) / (2.0 * m * m)
}

/// Constant Potts Model quality:
/// `H = Σ_c [σ_c/2 − γ · n_c (n_c − 1) / 2]`
/// where `σ_c/2` is the undirected intra-community weight and `n_c` the
/// community size. Unlike modularity, CPM has no resolution limit (§2 of
/// the paper, citing Traag et al. 2011).
pub fn cpm(graph: &CsrGraph, membership: &[VertexId], gamma: f64) -> f64 {
    assert_eq!(membership.len(), graph.num_vertices());
    let num_communities = membership
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut sizes = vec![0u64; num_communities];
    for &c in membership {
        sizes[c as usize] += 1;
    }
    let intra: f64 = (0..graph.num_vertices())
        .map(|u| {
            let cu = membership[u];
            graph
                .edges(u as VertexId)
                .filter(|&(v, _)| membership[v as usize] == cu)
                .map(|(_, w)| w as f64)
                .sum::<f64>()
        })
        .sum();
    let expected: f64 = sizes
        .iter()
        .map(|&n| gamma * (n as f64) * (n as f64 - 1.0) / 2.0)
        .sum();
    intra / 2.0 - expected
}

/// Coverage: the fraction of total edge weight that falls inside
/// communities, `Σ_c σ_c / 2m ∈ [0, 1]`. The first (unpenalized) term of
/// modularity; 1 means no edge crosses a community boundary.
pub fn coverage(graph: &CsrGraph, membership: &[VertexId]) -> f64 {
    assert_eq!(membership.len(), graph.num_vertices());
    let two_m = graph.total_arc_weight();
    if two_m == 0.0 {
        return 1.0;
    }
    let intra: f64 = (0..graph.num_vertices())
        .map(|u| {
            let cu = membership[u];
            graph
                .edges(u as VertexId)
                .filter(|&(v, _)| membership[v as usize] == cu)
                .map(|(_, w)| w as f64)
                .sum::<f64>()
        })
        .sum();
    intra / two_m
}

/// Weighted-average conductance of the communities:
/// `φ(c) = cut(c) / min(vol(c), vol(V \ c))`, averaged weighted by
/// community volume. Lower is better; 0 means fully separated
/// communities. Communities with zero volume are skipped.
pub fn average_conductance(graph: &CsrGraph, membership: &[VertexId]) -> f64 {
    assert_eq!(membership.len(), graph.num_vertices());
    let two_m = graph.total_arc_weight();
    if two_m == 0.0 {
        return 0.0;
    }
    let num_communities = membership
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    // volume[c] = Σ_{v∈c} K_v ; cut[c] = weight of arcs leaving c.
    let (volume, cut) = (0..graph.num_vertices()).fold(
        (vec![0.0f64; num_communities], vec![0.0f64; num_communities]),
        |(mut volume, mut cut), u| {
            let cu = membership[u];
            for (v, w) in graph.edges(u as VertexId) {
                let w = w as f64;
                volume[cu as usize] += w;
                if membership[v as usize] != cu {
                    cut[cu as usize] += w;
                }
            }
            (volume, cut)
        },
    );
    let mut weighted = 0.0;
    let mut total_volume = 0.0;
    for c in 0..num_communities {
        if volume[c] == 0.0 {
            continue;
        }
        let denominator = volume[c].min(two_m - volume[c]);
        let phi = if denominator == 0.0 {
            0.0 // the community is the whole graph
        } else {
            cut[c] / denominator
        };
        weighted += phi * volume[c];
        total_volume += volume[c];
    }
    if total_volume == 0.0 {
        0.0
    } else {
        weighted / total_volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gve_graph::GraphBuilder;

    /// Two triangles joined by one bridge edge.
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
    fn singleton_partition_modularity() {
        // All vertices alone: σ_c = 0 (no self-loops), so
        // Q = -Σ (K_i/2m)². Two triangles + bridge: 2m = 14.
        let g = two_triangles();
        let singleton: Vec<u32> = (0..6).collect();
        let q = modularity(&g, &singleton);
        let expected = -(4.0 * (2.0f64 / 14.0).powi(2) + 2.0 * (3.0f64 / 14.0).powi(2));
        assert!((q - expected).abs() < 1e-12, "{q} vs {expected}");
    }

    #[test]
    fn natural_partition_beats_alternatives() {
        let g = two_triangles();
        let natural = vec![0, 0, 0, 1, 1, 1];
        let all_one = vec![0; 6];
        let singleton: Vec<u32> = (0..6).collect();
        let q_nat = modularity(&g, &natural);
        assert!(q_nat > modularity(&g, &all_one));
        assert!(q_nat > modularity(&g, &singleton));
        // Known value: σ = 6 arcs of weight 1 per triangle,
        // Σ = {7, 7}: Q = 12/14 − 2·(7/14)² = 6/7 − 1/2.
        assert!((q_nat - (6.0 / 7.0 - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn all_in_one_community_is_zero() {
        // Q = 2m/2m − (2m/2m)² = 0 for a loop-free graph.
        let g = two_triangles();
        assert!((modularity(&g, &[0; 6])).abs() < 1e-12);
    }

    #[test]
    fn modularity_is_within_bounds() {
        let g = two_triangles();
        for mem in [
            vec![0, 0, 0, 1, 1, 1],
            vec![0, 1, 0, 1, 0, 1],
            vec![0, 0, 1, 1, 2, 2],
        ] {
            let q = modularity(&g, &mem);
            assert!((-0.5..=1.0).contains(&q), "Q = {q} for {mem:?}");
        }
    }

    #[test]
    fn self_loop_convention_consistency() {
        // A single vertex with a self-loop in its own community:
        // σ = w, Σ = w, 2m = w → Q = 1 − 1 = 0.
        let g = GraphBuilder::from_edges(1, &[(0, 0, 5.0)]);
        assert!((modularity(&g, &[0])).abs() < 1e-12);
    }

    #[test]
    fn edgeless_graph_returns_zero() {
        let g = CsrGraph::empty(4);
        assert_eq!(modularity(&g, &[0, 1, 2, 3]), 0.0);
    }

    #[test]
    #[should_panic(expected = "membership length")]
    fn mismatched_membership_panics() {
        let g = two_triangles();
        modularity(&g, &[0, 1]);
    }

    #[test]
    fn resolution_shifts_preference() {
        // High resolution favours smaller communities.
        let g = two_triangles();
        let merged = vec![0; 6];
        let split = vec![0, 0, 0, 1, 1, 1];
        let high_m = modularity_with_resolution(&g, &merged, 4.0);
        let high_s = modularity_with_resolution(&g, &split, 4.0);
        assert!(high_s > high_m);
    }

    #[test]
    fn delta_modularity_matches_full_recomputation() {
        // Move vertex 2 from community 0 to community 1 in the
        // two-triangle graph and compare Eq. 2 against Q(after)-Q(before).
        let g = two_triangles();
        let before = vec![0u32, 0, 0, 1, 1, 1];
        let mut after = before.clone();
        after[2] = 1;
        let q_before = modularity(&g, &before);
        let q_after = modularity(&g, &after);

        let m = g.total_arc_weight() / 2.0;
        let k: Vec<f64> = (0..6).map(|u| g.weighted_degree(u)).collect();
        let sigma = |mem: &[u32], c: u32| -> f64 {
            (0..6u32)
                .filter(|&u| mem[u as usize] == c)
                .map(|u| k[u as usize])
                .sum()
        };
        let k_2_to_1: f64 = g
            .edges(2)
            .filter(|&(v, _)| before[v as usize] == 1 && v != 2)
            .map(|(_, w)| w as f64)
            .sum();
        let k_2_to_0: f64 = g
            .edges(2)
            .filter(|&(v, _)| before[v as usize] == 0 && v != 2)
            .map(|(_, w)| w as f64)
            .sum();
        let dq = delta_modularity(
            k_2_to_1,
            k_2_to_0,
            k[2],
            sigma(&before, 1),
            sigma(&before, 0),
            m,
        );
        assert!(
            (dq - (q_after - q_before)).abs() < 1e-12,
            "eq2 {dq} vs recomputed {}",
            q_after - q_before
        );
    }

    #[test]
    fn cpm_prefers_planted_split() {
        let g = two_triangles();
        let split = vec![0, 0, 0, 1, 1, 1];
        let merged = vec![0; 6];
        assert!(cpm(&g, &split, 0.5) > cpm(&g, &merged, 0.5));
    }

    #[test]
    fn cpm_gamma_zero_counts_intra_weight() {
        let g = two_triangles();
        // γ = 0: every partition scores its intra weight; one community
        // holds all 7 edges.
        assert!((cpm(&g, &[0; 6], 0.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_counts_intra_fraction() {
        let g = two_triangles();
        // Natural split: 12 of 14 arc-weight units intra.
        let cov = coverage(&g, &[0, 0, 0, 1, 1, 1]);
        assert!((cov - 12.0 / 14.0).abs() < 1e-12);
        assert_eq!(coverage(&g, &[0; 6]), 1.0);
        let singletons: Vec<u32> = (0..6).collect();
        assert_eq!(coverage(&g, &singletons), 0.0);
    }

    #[test]
    fn coverage_of_edgeless_graph_is_one() {
        assert_eq!(coverage(&CsrGraph::empty(3), &[0, 1, 2]), 1.0);
    }

    #[test]
    fn conductance_prefers_separated_communities() {
        let g = two_triangles();
        let natural = average_conductance(&g, &[0, 0, 0, 1, 1, 1]);
        let shuffled = average_conductance(&g, &[0, 1, 0, 1, 0, 1]);
        assert!(natural < shuffled, "{natural} vs {shuffled}");
        // Natural split: each triangle has cut 1 and volume 7 → φ = 1/7.
        assert!((natural - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn conductance_of_single_community_is_zero() {
        let g = two_triangles();
        assert_eq!(average_conductance(&g, &[0; 6]), 0.0);
        assert_eq!(average_conductance(&CsrGraph::empty(2), &[0, 1]), 0.0);
    }
}
