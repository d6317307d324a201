//! Property-based tests (proptest) over random graphs: the structural
//! invariants that must hold for *any* input, not just the curated
//! datasets.

use gve::graph::{CsrGraph, GraphBuilder};
use gve::leiden::delta_modularity;
use gve::quality;
use proptest::prelude::*;

/// Strategy: a random undirected graph with up to `max_n` vertices and
/// up to `max_m` edges (possibly with duplicates and self-loops, which
/// the builder normalizes).
fn arb_graph(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (2..max_n)
        .prop_flat_map(move |n| {
            proptest::collection::vec((0..n, 0..n, 1u32..4), 0..max_m)
                .prop_map(move |edges| (n, edges))
        })
        .prop_map(|(n, edges)| {
            let typed: Vec<(u32, u32, f32)> = edges
                .into_iter()
                .map(|(u, v, w)| (u, v, w as f32))
                .collect();
            GraphBuilder::from_edges(n as usize, &typed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Leiden always returns a valid dense partition with modularity in
    /// the theoretical range, and never a disconnected community.
    #[test]
    fn leiden_invariants_on_random_graphs(graph in arb_graph(120, 400)) {
        let result = gve::leiden::leiden(&graph);
        quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
        // Dense renumbering: max id + 1 == count.
        let max = result.membership.iter().copied().max().unwrap_or(0) as usize;
        prop_assert_eq!(max + 1, result.num_communities.max(1));
        let q = quality::modularity(&graph, &result.membership);
        prop_assert!((-0.5..=1.0 + 1e-9).contains(&q), "Q = {}", q);
        let report = quality::disconnected_communities(&graph, &result.membership);
        prop_assert_eq!(report.disconnected, 0);
    }

    /// Leiden's result is never (meaningfully) worse than singletons —
    /// the partition it starts from.
    #[test]
    fn leiden_never_loses_to_singletons(graph in arb_graph(100, 300)) {
        let result = gve::leiden::leiden(&graph);
        let q = quality::modularity(&graph, &result.membership);
        let singletons: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        let q0 = quality::modularity(&graph, &singletons);
        // Tiny slack absorbs the asynchronous design's stale-read moves.
        prop_assert!(q >= q0 - 0.02, "Q {} < singleton {}", q, q0);
    }

    /// Equation 2 (incremental delta-modularity) agrees with a full
    /// recomputation of Equation 1 for arbitrary single-vertex moves.
    #[test]
    fn delta_modularity_matches_recomputation(
        graph in arb_graph(60, 200),
        vertex_pick in 0usize..60,
        target_pick in 0usize..60,
        splits in proptest::collection::vec(0u32..5, 60),
    ) {
        let n = graph.num_vertices();
        prop_assume!(n >= 2);
        let m = graph.total_arc_weight() / 2.0;
        prop_assume!(m > 0.0);
        let i = (vertex_pick % n) as u32;
        // Random initial partition from the split labels.
        let before: Vec<u32> = (0..n).map(|v| splits[v % splits.len()] % (n as u32)).collect();
        let d = before[i as usize];
        let c = before[target_pick % n];
        prop_assume!(c != d);
        let mut after = before.clone();
        after[i as usize] = c;

        let k: Vec<f64> = (0..n as u32).map(|u| graph.weighted_degree(u)).collect();
        let sigma = |mem: &[u32], x: u32| -> f64 {
            (0..n).filter(|&v| mem[v] == x).map(|v| k[v]).sum()
        };
        let k_to = |x: u32| -> f64 {
            graph
                .edges(i)
                .filter(|&(j, _)| j != i && before[j as usize] == x)
                .map(|(_, w)| w as f64)
                .sum()
        };
        let dq = delta_modularity(k_to(c), k_to(d), k[i as usize], sigma(&before, c), sigma(&before, d), m);
        let recomputed =
            quality::modularity(&graph, &after) - quality::modularity(&graph, &before);
        prop_assert!(
            (dq - recomputed).abs() < 1e-9,
            "Eq.2 {} vs recomputed {}", dq, recomputed
        );
    }

    /// Aggregating any partition preserves total weight and the
    /// modularity of the induced (singleton) partition.
    #[test]
    fn aggregation_preserves_modularity(
        graph in arb_graph(80, 250),
        labels in proptest::collection::vec(0u32..8, 80),
    ) {
        let n = graph.num_vertices();
        prop_assume!(graph.num_arcs() > 0);
        let raw: Vec<u32> = (0..n).map(|v| labels[v % labels.len()]).collect();
        let (dense, k) = gve::leiden::dendrogram::renumber(&raw);
        let atomic: Vec<std::sync::atomic::AtomicU32> =
            dense.iter().map(|&c| std::sync::atomic::AtomicU32::new(c)).collect();
        let tables = gve::prim::PerThread::new(move || gve::prim::CommunityMap::new(n.max(1)));
        let sup = gve::leiden::aggregate::aggregate(&graph, &atomic, &dense, k, &tables, None);
        prop_assert_eq!(sup.num_vertices(), k);
        prop_assert!((sup.total_arc_weight() - graph.total_arc_weight()).abs() < 1e-6);
        let singleton: Vec<u32> = (0..k as u32).collect();
        let q_fine = quality::modularity(&graph, &dense);
        let q_coarse = quality::modularity(&sup, &singleton);
        prop_assert!((q_fine - q_coarse).abs() < 1e-9, "{} vs {}", q_fine, q_coarse);
    }

    /// Renumbering is a bijective relabeling: sizes multiset preserved,
    /// ids dense.
    #[test]
    fn renumber_is_a_relabeling(labels in proptest::collection::vec(0u32..50, 1..200)) {
        let (dense, k) = quality::renumber(&labels);
        prop_assert_eq!(dense.len(), labels.len());
        prop_assert_eq!(k, quality::community_count(&labels));
        let max = dense.iter().copied().max().unwrap() as usize;
        prop_assert_eq!(max + 1, k);
        // Vertices grouped together stay grouped.
        for a in 0..labels.len() {
            for b in (a + 1)..labels.len() {
                prop_assert_eq!(labels[a] == labels[b], dense[a] == dense[b]);
            }
        }
    }

    /// NMI/ARI are symmetric and maximal on identical partitions.
    #[test]
    fn agreement_scores_are_symmetric(
        a in proptest::collection::vec(0u32..6, 2..100),
    ) {
        let b: Vec<u32> = a.iter().map(|&x| (x * 7 + 3) % 11).collect();
        let nmi_ab = quality::normalized_mutual_information(&a, &b);
        let nmi_ba = quality::normalized_mutual_information(&b, &a);
        prop_assert!((nmi_ab - nmi_ba).abs() < 1e-12);
        let ari_ab = quality::adjusted_rand_index(&a, &b);
        let ari_ba = quality::adjusted_rand_index(&b, &a);
        prop_assert!((ari_ab - ari_ba).abs() < 1e-12);
        prop_assert!((quality::normalized_mutual_information(&a, &a) - 1.0).abs() < 1e-12);
    }
}
