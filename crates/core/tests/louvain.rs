//! GVE-Louvain: the paper's prior substrate (\[23\]), run as GVE-Leiden's
//! pass loop with the refinement phase skipped.
//!
//! 1-thread runs reproduce pinned digests on the three graphs whose
//! GVE-Leiden runs `tests/kernels.rs` pins: membership FNV, pass count,
//! local-moving iterations and modularity bits. At one thread the
//! asynchronous schedule is deterministic, so any change to the pass
//! loop GVE-Louvain runs on (initial state, pruning flags, renumbering,
//! aggregation, convergence test) that changes a single decision fails
//! here.

use gve_graph::{CsrGraph, GraphBuilder};
use gve_leiden::louvain;
use proptest::prelude::*;

/// FNV-1a over a membership vector's little-endian bytes.
fn membership_fnv(membership: &[u32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in membership.iter().flat_map(|c| c.to_le_bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pinned_graphs() -> [(&'static str, CsrGraph); 3] {
    [
        (
            "rmat_web",
            gve_generate::rmat::Rmat::web(11, 8.0).seed(42).generate(),
        ),
        (
            "sbm",
            gve_generate::sbm::PlantedPartition::new(3000, 30, 10.0, 2.0)
                .seed(5)
                .generate()
                .graph,
        ),
        ("road", gve_generate::grid::road_grid(60, 50, 2.1, 7)),
    ]
}

#[test]
fn one_thread_louvain_digests_are_pinned() {
    // (graph, membership FNV, passes, iterations, modularity bits)
    #[rustfmt::skip]
    const PINNED: [(&str, u64, usize, usize, u64); 3] = [
        ("rmat_web", 0x8344bf7269ffc3c9, 2, 5, 0x3fc30272b98fea4c),
        ("sbm", 0xa59b66bd0a69155b, 3, 14, 0x3fe9ae9ed622a922),
        ("road", 0xbc360c5ad30a986f, 5, 19, 0x3feea64370cda1b3),
    ];
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    for ((name, graph), &(pinned_name, fnv, passes, iterations, q_bits)) in
        pinned_graphs().iter().zip(&PINNED)
    {
        assert_eq!(*name, pinned_name);
        let result = pool.install(|| louvain(graph));
        let q = gve_quality::modularity(graph, &result.membership);
        assert_eq!(
            (
                membership_fnv(&result.membership),
                result.passes,
                result.move_iterations,
                q.to_bits(),
            ),
            (fnv, passes, iterations, q_bits),
            "{name}: (membership FNV, passes, iterations, Q bits)"
        );
    }
}

#[test]
fn detects_two_triangles() {
    let g = GraphBuilder::from_edges(
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
    );
    let r = louvain(&g);
    assert_eq!(r.num_communities, 2);
    assert_eq!(r.membership[0], r.membership[2]);
    assert_ne!(r.membership[0], r.membership[4]);
}

#[test]
fn recovers_planted_partition() {
    let planted = gve_generate::sbm::PlantedPartition::new(1500, 10, 14.0, 1.0)
        .seed(3)
        .generate();
    let r = louvain(&planted.graph);
    let nmi = gve_quality::normalized_mutual_information(&r.membership, &planted.labels);
    assert!(nmi > 0.85, "NMI {nmi}");
}

#[test]
fn modularity_comparable_to_leiden() {
    let g = gve_generate::rmat::Rmat::web(10, 8.0).seed(4).generate();
    let q_louvain = gve_quality::modularity(&g, &louvain(&g).membership);
    let q_leiden = gve_quality::modularity(&g, &gve_leiden::leiden(&g).membership);
    // Louvain should land in the same quality ballpark (Fig. 6(c)).
    assert!(
        q_louvain > q_leiden - 0.1,
        "Louvain {q_louvain} far below Leiden {q_leiden}"
    );
}

#[test]
fn refinement_time_is_zero() {
    let g = gve_generate::rmat::Rmat::web(9, 4.0).seed(5).generate();
    let r = louvain(&g);
    assert_eq!(r.timings.refinement.as_nanos(), 0);
    assert!(r.timings.local_move.as_nanos() > 0);
    for pass in &r.pass_stats {
        assert_eq!(pass.refinement_time.as_nanos(), 0);
        assert_eq!(pass.refine_moves, 0);
    }
}

#[test]
fn empty_and_edgeless_inputs() {
    assert_eq!(louvain(&CsrGraph::empty(0)).num_communities, 0);
    let r = louvain(&CsrGraph::empty(3));
    assert_eq!(r.membership, vec![0, 1, 2]);
}

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

    /// Parallel Louvain always yields a valid dense partition with
    /// modularity no worse than singletons.
    #[test]
    fn parallel_louvain_invariants(graph in arb_graph()) {
        let result = louvain(&graph);
        gve_quality::validate_membership(&result.membership, graph.num_vertices()).unwrap();
        let max = result.membership.iter().copied().max().unwrap_or(0) as usize;
        prop_assert_eq!(max + 1, result.num_communities.max(1));
        let q = gve_quality::modularity(&graph, &result.membership);
        prop_assert!((-0.5..=1.0 + 1e-9).contains(&q));
        let singletons: Vec<u32> = (0..graph.num_vertices() as u32).collect();
        let q0 = gve_quality::modularity(&graph, &singletons);
        prop_assert!(q >= q0 - 0.02, "Q {} < singleton {}", q, q0);
        prop_assert_eq!(result.pass_stats.len(), result.passes);
    }
}
