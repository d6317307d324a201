//! Property-based invariants of the baseline implementations: whatever
//! the input, each must return a valid partition with bounded quality,
//! and the Leiden variants no internally-disconnected communities.

use gve_baselines::nk::nk_leiden;
use gve_baselines::seq::{sequential_leiden, sequential_louvain};
use gve_graph::{CsrGraph, GraphBuilder};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2u32..80).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 1u32..4), 0..250).prop_map(move |edges| {
            let typed: Vec<(u32, u32, f32)> = edges
                .into_iter()
                .map(|(u, v, w)| (u, v, w as f32))
                .collect();
            GraphBuilder::from_edges(n as usize, &typed)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sequential_leiden_invariants(graph in arb_graph()) {
        let result = sequential_leiden(&graph);
        gve_quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
        let q = gve_quality::modularity(&graph, &result.membership);
        prop_assert!((-0.5..=1.0 + 1e-9).contains(&q));
        let report = gve_quality::disconnected_communities(&graph, &result.membership);
        prop_assert_eq!(report.disconnected, 0);
        // Deterministic.
        prop_assert_eq!(sequential_leiden(&graph).membership, result.membership);
    }

    #[test]
    fn nk_leiden_invariants(graph in arb_graph()) {
        let result = nk_leiden(&graph);
        gve_quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
        let q = gve_quality::modularity(&graph, &result.membership);
        prop_assert!((-0.5..=1.0 + 1e-9).contains(&q));
        let report = gve_quality::disconnected_communities(&graph, &result.membership);
        prop_assert_eq!(report.disconnected, 0);
    }

    /// Sequential Louvain is deterministic and monotone in quality.
    #[test]
    fn sequential_louvain_invariants(graph in arb_graph()) {
        let a = sequential_louvain(&graph);
        let b = sequential_louvain(&graph);
        prop_assert_eq!(&a.membership, &b.membership, "nondeterministic");
        gve_quality::validate_membership(&a.membership, graph.num_vertices()).unwrap();
        let q = gve_quality::modularity(&graph, &a.membership);
        let singletons: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        prop_assert!(q >= gve_quality::modularity(&graph, &singletons) - 1e-9);
    }

    /// Parallel and sequential Louvain land in the same quality band.
    #[test]
    fn parallel_matches_sequential_louvain_quality(graph in arb_graph()) {
        prop_assume!(graph.num_arcs() > 0);
        let q_par = gve_quality::modularity(&graph, &gve_leiden::louvain(&graph).membership);
        let q_seq = gve_quality::modularity(&graph, &sequential_louvain(&graph).membership);
        prop_assert!((q_par - q_seq).abs() < 0.15, "par {} vs seq {}", q_par, q_seq);
    }

    /// Both Leiden baselines never lose to the singleton partition.
    #[test]
    fn baselines_beat_singletons(graph in arb_graph()) {
        let singletons: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        let q0 = gve_quality::modularity(&graph, &singletons);
        let q_seq = gve_quality::modularity(&graph, &sequential_leiden(&graph).membership);
        let q_nk = gve_quality::modularity(&graph, &nk_leiden(&graph).membership);
        prop_assert!(q_seq >= q0 - 1e-9, "seq {} < singleton {}", q_seq, q0);
        prop_assert!(q_nk >= q0 - 0.02, "nk {} < singleton {}", q_nk, q0);
    }
}
